"""qforge benchmark: one workload, from a seed, end to end or traced.

    python3 perfbench/run.py --workload numeric-verify --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (setup_s, wall_s, case_p50_ms,
case_tail_ms where there are enough cases, fail_ratio, peak_rss_mb; the
times at a nominal box speed, see worker.py);
--trace 1 runs the same inputs untraced and then traced, one process
after the other, and prints the per-layer metrics.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; the
full result, with the times as measured and the environment record,
goes to perfbench/out/.
Exit status: 0 when every output matched its committed reference,
1 on any mismatch, 2 when a workload process failed or timed out.

Every workload process is fresh and single-threaded; its input set is
fixed by the seed and sized so one pass takes about 20 s on the seed
commit on a 2-core box.  `--seconds` is recorded with the result; the
sets do not stretch to fill it, so that wall_s stays one pass over the
same inputs on every commit.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import spec

DEADLINE_S = 170          # a run must end within 180 s
SETUP_SAMPLES = 9         # set-up-only processes, plus the measured one
TAIL_PERCENTILES = (99, 95, 90, 80, 75, 50)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "case_p50_ms": "ms", "case_tail_ms": "ms",
    "fail_ratio": "1", "peak_rss_mb": "MB",
}
SCALED = ("setup_s", "wall_s", "case_p50_ms", "case_tail_ms")


class WorkerFailed(Exception):
    pass


def _worker(args, deadline, *extra):
    """Run one worker process; returns (setup_s, parsed result)."""
    cmd = [sys.executable, str(spec.HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=spec.ROOT, env=env, stdout=subprocess.PIPE, text=True)
    # killing the worker at the deadline ends the blocking reads below
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    killer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if timed_out.is_set():
        raise WorkerFailed("worker exceeded the run deadline")
    if first.strip() != "READY":
        raise WorkerFailed(f"worker exited with {proc.returncode} before set-up finished")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    return setup_s, json.loads(lines[-1])


def box_speed(samples: list) -> float:
    """spec.CAL_NOMINAL_NS over the trimmed mean of calibration samples
    spread evenly over a stretch of time: above 1 on a box faster than
    nominal.  A mean, because a time measured over the stretch grows
    with the mean slowness over it."""
    if not samples:
        raise WorkerFailed("no box-speed samples")
    ordered = sorted(samples)
    cut = int(len(ordered) * spec.CAL_TRIM)
    return spec.CAL_NOMINAL_NS / statistics.fmean(ordered[cut:len(ordered) - cut])


def scaled_case_ms(res: dict) -> list:
    """Each case's latency in ms at nominal box speed: as measured, times
    the speed over the samples taken during the case, or over the
    spec.CAL_MIN_SAMPLES samples around its middle when fewer fell inside."""
    samples = res["pass_samples"]
    starts = [t for t, _ in samples]
    k = min(spec.CAL_MIN_SAMPLES, len(samples))
    out = []
    for _, _, ns, t0 in res["cases"]:
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t0 + ns)
        if hi - lo < k:
            lo = min(max(0, bisect.bisect_left(starts, t0 + ns // 2) - k // 2), len(samples) - k)
            hi = lo + k
        out.append(ns / 1e6 * box_speed([v for _, v in samples[lo:hi]]))
    return out


def tail(values_ms: list):
    """(percentile, value): the highest standard percentile with at least
    ten samples beyond it, or None when there are fewer than 20 samples."""
    n = len(values_ms)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values_ms, n=100, method="inclusive")[p - 1]
    return None


def end_to_end(setups: list, res: dict, case_ms: list):
    """The end-to-end metrics of one untraced run from its set-up times
    (seconds), the measured pass and its case latencies, and the tail
    percentile used (None when there are too few cases)."""
    failed = sum(1 for c in res["cases"] if c[1] != "pass")
    m = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(case_ms) / 1e3,
        "case_p50_ms": statistics.median(case_ms),
        "fail_ratio": failed / len(case_ms),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    t = tail(case_ms)
    if t is not None:
        m["case_tail_ms"] = t[1]
    return m, t


def environment() -> dict:
    import mpmath.libmp

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(spec.ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "commit": commit or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": metadata.version("mpmath"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "sympy": metadata.version("sympy"),
    }


def _bench_metric_names(section: str) -> list:
    with open(spec.ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qforge benchmark")
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace == 0:
            procs = [_worker(args, deadline, "--setup-only") for _ in range(SETUP_SAMPLES)]
            procs.append(_worker(args, deadline))
        else:
            procs = [_worker(args, deadline), _worker(args, deadline, "--trace")]
        runs = [p[1] for p in procs[-2:]] if args.trace else [procs[-1][1]]
        scaled_ms = [scaled_case_ms(r) for r in runs]
        setup_speed = box_speed([s for _, r in procs for s in r["setup_samples"]])
    except WorkerFailed as exc:
        print(f"run.py: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 2

    res = runs[-1]
    mismatches = [m for r in runs for m in r["mismatches"]]
    attempted = len(res["cases"])
    failed = sum(1 for c in res["cases"] if c[1] != "pass")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "attempted": attempted,
              "failed": failed, "mismatches": mismatches, "runs": runs,
              "setup_box_speed": setup_speed}

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} cases, "
          f"{failed} failed, {len(mismatches)} reference mismatches")
    for m in mismatches[:20]:
        print(f"  MISMATCH {m}")
    if args.trace == 0:
        setups = [s for s, _ in procs]
        measured, _ = end_to_end(setups, res, [c[2] / 1e6 for c in res["cases"]])
        scaled, t = end_to_end([s * setup_speed for s in setups], res, scaled_ms[0])
        record["setup_samples_s"] = setups
        record["case_tail"] = {"percentile": t[0], "samples": attempted} if t else None
        record["measured"] = measured
        print(f"  box speed {setup_speed:.3f} over the set-ups, "
              f"{scaled['wall_s'] / measured['wall_s']:.3f} over the pass (1 = nominal)")
        all_metrics = {}
        for name, value in scaled.items():
            all_metrics[name] = (value, END_TO_END_UNITS[name])
            note = f"  (as measured {measured[name]:.6g})" if name in SCALED else ""
            if name == "case_tail_ms":
                note += f"  (p{t[0]} of {attempted} cases)"
            elif name == "setup_s":
                note += f"  (median of {len(setups)} set-ups)"
            print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}{note}")
        if t is None:
            print(f"  {'case_tail_ms':<14} n/a (fewer than 20 cases)")
        wanted = _bench_metric_names("end_to_end")
    else:
        tr = res["trace"]
        all_metrics = {k: tuple(v) for k, v in tr["metrics"].items()}
        # traced over untraced pass, both at nominal box speed
        all_metrics["trace.overhead_ratio"] = (sum(scaled_ms[1]) / sum(scaled_ms[0]), "1")
        for name, (value, unit) in all_metrics.items():
            print(f"  {name:<40} {value:.6g} {unit}")
        print(f"  self times sum to {tr['self_sum_s']:.6g} s of {tr['case_spans_s']:.6g} s "
              f"in case spans; spans in {tr['spans']}")
        if tr["leftovers"]:
            mismatches.append(f"tracer left wrappers behind: {tr['leftovers']}")
        wanted = _bench_metric_names("per_layer")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in all_metrics.items()}

    spec.OUT.mkdir(exist_ok=True)
    out_path = spec.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: record["metrics"][k] for k in wanted},
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
