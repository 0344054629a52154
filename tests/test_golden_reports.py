"""Golden CLI reports: the stdout bytes and exit code of a fixed set of
`qforge` commands, compared byte for byte with tests/golden/<name>.out
and tests/golden/exit_codes.json.  A change that must keep reports
identical keeps this test passing unchanged.

To regenerate the files after an intended report change, of the named
commands only or of all of them when none is named:

    PYTHONPATH=src python tests/test_golden_reports.py [NAME ...]
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from qforge.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> argv; the first seven are the README's CLI examples
COMMANDS = {
    "verify_sv1_grid": ["verify", "--identity", "sv1", "--grid", "M=0..6,N=0..6", "--q", "1/2"],
    "verify_sv4_cyclo": ["verify", "--identity", "sv4", "--grid", "N=0..8", "--q", "1/2,2/3",
                         "--set", "w=cyclo(3)[0, 1]"],
    "verify_qkummer_points": ["verify", "--identity", "qkummer", "--points", "25", "--q", "1/2",
                              "--tol", "1e-12", "--seed", "7"],
    "derive_0110_table": ["derive", "--shift", "0,1,1,0", "--check-against-table"],
    "normalize_0002": ["normalize", "--shift", "0,0,0,2"],
    "pipeline_0110": ["pipeline", "--shift", "0,1,1,0", "--point", "a=1/3", "--point", "b=1/5",
                      "--point", "c=1/30", "--point", "q=1/2", "--n-max", "5", "--tol", "1e-12"],
    "conjecture_kll_242m2": ["conjecture", "--pattern", "kll", "--instance", "2,4,2,-2"],
    "verify_sv5_singular": ["verify", "--identity", "sv5", "--grid", "N=0..3", "--set", "a=1/2",
                            "--q", "1/2"],
    "pipeline_121m1_exact": ["pipeline", "--shift", "1,2,1,-1", "--family-index", "0",
                             "--point", "a=3", "--point", "b=64", "--point", "q=1/2",
                             "--n-max", "3", "--mode", "exact"],
    "pipeline_0330_root_exact": ["pipeline", "--shift", "0,3,3,0", "--family-index", "1",
                                 "--point", "b=512", "--point", "q=1/2", "--n-max", "3",
                                 "--mode", "exact"],
    "conjecture_sum_zero_1120": ["conjecture", "--pattern", "sum_zero", "--instance", "1,1,2,0"],
    "derive_242m2": ["derive", "--shift", "2,4,2,-2", "--check-against-table"],
    "conjecture_oll_root_0440": ["conjecture", "--pattern", "oll_root", "--instance", "0,4,4,0"],
    # a, b and c down steps, which the shifts above never take
    "derive_m1m2m21": ["derive", "--shift", "-1,-2,-2,1"],
    "derive_m2m1m32": ["derive", "--shift", "-2,-1,-3,2"],
}


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(name):
    code, out = _run(COMMANDS[name])
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def _write(names):
    GOLDEN.mkdir(exist_ok=True)
    codes_path = GOLDEN / "exit_codes.json"
    codes = json.loads(codes_path.read_text()) if codes_path.exists() else {}
    for name in names:
        codes[name], out = _run(COMMANDS[name])
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        print(f"{name}: exit {codes[name]}, {len(out)} bytes")
    codes_path.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    names = sys.argv[1:] or list(COMMANDS)
    unknown = [n for n in names if n not in COMMANDS]
    if unknown:
        sys.exit(f"unknown golden command(s): {', '.join(unknown)}")
    _write(names)
