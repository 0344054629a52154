"""One workload process: set-up, one timed pass, reference checks.

Started by run.py, never by hand.  Prints `READY` as soon as set-up is
done (run.py times process start -> that line as one set-up sample).
Unless --setup-only, it then runs the pass over the workload's cases,
untraced or under the tracer, checks every output against the committed
references and prints one JSON result line.  Both kinds of process
report the box-speed samples taken while they ran (see SpeedSampler).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import sys
import time
import traceback
from contextlib import nullcontext

from mpmath.libmp import fone, from_rational, mpf_add, mpf_div, mpf_mul

import spec


def calibrate() -> int:
    """Time a fixed piece of mpmath arithmetic at 113 bits (the low-level
    routines `ApproxScalar` ends in) that uses no qforge code and no
    global mpmath state."""
    t0 = time.perf_counter_ns()
    x, y = from_rational(3, 7, 113, "n"), from_rational(5, 11, 113, "n")
    y1 = mpf_add(y, fone, 113)
    for _ in range(40):
        x = mpf_add(mpf_mul(x, y, 113), mpf_div(x, y1, 113), 113)
    return time.perf_counter_ns() - t0


class SpeedSampler:
    """Samples the box's speed at even intervals while this process runs.

    The box the baseline was measured on changes speed by up to 2x
    within a fraction of a second, so samples must be spread evenly over
    the time they stand for: samples taken only between cases would miss
    what happened during a case of seconds.  SIGALRM fires every spec.CAL_INTERVAL_S and the handler
    runs in the main thread, between two bytecodes of whatever is
    running, with gc off so that no collection of qforge's heap is
    counted as box speed.  It runs `calibrate` twice and keeps
    (start ns, second timing); the first call brings the code back into
    the caches.  The handler's time, about 1 % of the process's, stays in
    whatever it interrupted.
    """

    def __init__(self):
        self.samples: list = []

    def _handler(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            calibrate()
            self.samples.append((t0, calibrate()))
        finally:
            if enabled:
                gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, spec.CAL_INTERVAL_S, spec.CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take(self) -> list:
        """The samples taken since the last call."""
        taken, self.samples = self.samples, []
        return taken


def run_pass(cases, span, expected_errors):
    """Run every case once.  A case that raises counts as status "error"
    and the pass goes on.  Returns [(key, status, output, ns, start_ns)]."""
    ns = time.perf_counter_ns
    results = []
    for key, thunk in cases:
        with span("bench.case"):
            t0 = ns()
            try:
                status, output = thunk()
            except expected_errors as exc:
                status, output = "error", f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # not a typed qforge failure: report it, go on
                traceback.print_exc()
                status, output = "error", f"untyped {type(exc).__name__}: {exc}"
            t1 = ns()
        results.append((key, status, output, t1 - t0, t0))
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    try:
        return run(args, sampler)
    finally:
        sampler.stop()  # a SIGALRM left pending would kill the exiting process


def run(args, sampler) -> int:
    sys.path.insert(0, str(spec.SRC))
    try:
        import workloads
        from qforge.errors import QForgeError
    except ImportError as exc:
        print(f"worker: cannot import qforge from {spec.SRC}: {exc}", file=sys.stderr)
        return 3
    wl = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    setup_samples = sampler.take()
    if args.setup_only:
        print(json.dumps({"setup_samples": [ns for _, ns in setup_samples]}), flush=True)
        return 0

    tracer = None
    span = lambda name: nullcontext()  # noqa: E731
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        span = tracer.span
    sampler.take()
    try:
        results = run_pass(wl.cases, span, QForgeError)
    finally:
        pass_samples = sampler.take()
        sampler.stop()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "workload": args.workload, "seed": args.seed,
        "wall_s": sum(r[3] for r in results) / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "setup_samples": [ns for _, ns in setup_samples], "pass_samples": pass_samples,
        "cases": [[key, status, t, t0] for key, status, _, t, t0 in results],
        "mismatches": wl.check(results),
    }
    if tracer is not None:
        spans_path = spec.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spec.OUT.mkdir(exist_ok=True)
        tracer.write_spans(spans_path)
        case_spans_ns = sum(s[2] - s[1] for s in tracer.spans if s[0] == "bench.case")
        out["trace"] = {
            "metrics": tracer.layer_metrics(out["wall_s"]),
            "self_sum_s": tracer.self_ns_total() / 1e9,
            "case_spans_s": case_spans_ns / 1e9,
            "leftovers": tracer.leftovers(),
            "spans": str(spans_path.relative_to(spec.ROOT)),
            "span_count": len(tracer.spans),
        }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
