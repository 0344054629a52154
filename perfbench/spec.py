"""Fixed definition of the benchmark's workloads: names, input pools and
case parameters.  Imports nothing from qforge, so run.py can read it
without loading any qforge code."""

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
OUT = HERE / "out"

WORKLOADS = ("numeric-verify", "derive", "families")

# Box speed (worker.SpeedSampler, run.box_speed): a calibration sample
# every CAL_INTERVAL_S in each workload process.  The speed of a stretch
# of time is CAL_NOMINAL_NS over the mean of its samples with the CAL_TRIM
# share at each end left out, and run.py reports a time as measured *
# speed.  A case's stretch is its own time, widened to the CAL_MIN_SAMPLES
# samples around its middle when fewer fell inside it.  CAL_NOMINAL_NS is
# a typical sample on the 2-core box of the seed-commit baseline; it only
# sets the scale.
CAL_INTERVAL_S = 0.04
CAL_TRIM = 0.1
CAL_MIN_SAMPLES = 15
CAL_NOMINAL_NS = 190_000

# The `qforge` command line each workload's traffic stands for; set-up
# parses it, so setup_s includes the cli start-up.
CLI_ARGS = {
    "numeric-verify": ("verify", "--identity", "qgauss", "--points", "25", "--tol", "1e-12"),
    "derive": ("derive", "--shift", "0,4,4,0", "--check-against-table"),
    "families": ("conjecture", "--pattern", "oll_root", "--instance", "0,4,4,0"),
}

# -- numeric-verify -------------------------------------------------------------
# The criterion-4 traffic of `qforge verify --points`: the four numeric
# identities at random admissible bindings, q from the |q| <= 3/5 pool.
NUMERIC_IDS = ("qbinom", "qbinom2", "qgauss", "qkummer")
Q_POOL = ("1/2", "2/5", "3/5", "1/3", "5/12", "4/7")
NUMERIC_TOL = 1e-12
NUMERIC_PREC = 113
POOL_SEED = 20250808          # fixed seed of the committed point pool
POOL_PER_STRATUM = 10         # points per (identity, q): 4 * 6 * 10 = 240
REF_PREC = 192                # bits of the reference left-hand sides
# A run takes the TAKE_ALL points of most reference work (series terms)
# and one point from each block of BLOCK consecutive remaining points in
# order of work: every run sees the same mix of cheap and expensive
# points while the points themselves vary with the seed.
TAKE_ALL = 12
BLOCK = 3

# -- derive ---------------------------------------------------------------------
TABLE_SHIFTS = ((0, 0, 0, 2), (0, 1, 1, 0), (0, 2, 2, 0), (1, 2, 1, -1), (0, 3, 3, 0))
EXTRA_SHIFTS = ((2, 2, 0, 2), (1, 1, 2, 0), (2, 4, 2, -2), (0, 4, 4, 0))
DERIVE_SHIFTS = TABLE_SHIFTS + EXTRA_SHIFTS

# -- families -------------------------------------------------------------------
FAMILY_INSTANCES = ((2, 2, 0, 2), (1, 1, 2, 0), (2, 4, 2, -2), (0, 4, 4, 0))
FAMILY_N_MAX = 4
FAMILY_TRIALS = 5             # points per N in one check_family call
FAMILY_SEEDS = 4              # distinct check_family seeds per (instance, family)
TELESCOPE_Q = "1/2"
KUMMER_SHIFT = (1, 2, 1, -1)  # exact telescoping at b = q^-2N, q^-2N-1
ROOT_SHIFT = (0, 3, 3, 0)     # exact telescoping in Q(zeta_3) at b = q^-3N-j
TELESCOPE_N = 5
SV5_ORDER = 4                 # sv5 at a = zeta_4 for N <= SV5_N_MAX
SV5_N_MAX = 4


def shift_text(shift) -> str:
    return ",".join(str(v) for v in shift)
