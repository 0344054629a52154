"""Self-tests of the benchmark itself (not of qforge).

    python3 -m pytest perfbench -q

They run small slices of the real workloads under the tracer, plus two
whole-command runs (about half a minute each)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import spec

sys.path.insert(0, str(spec.SRC))

import workloads  # noqa: E402
from qforge.errors import QForgeError  # noqa: E402
from tracer import Tracer, qforge_modules  # noqa: E402
from worker import run_pass  # noqa: E402


def _slice(name, pick):
    wl = workloads.build(name, 1)
    return [case for case in wl.cases if pick(case[0])]


def _numeric_slice():
    return _slice("numeric-verify", lambda key: True)[:8]


def _families_slice():
    cases = _slice("families", lambda key: "z4" not in key)
    kinds = ("check_family", "telescope kummer", "telescope root", "sv5 ", "sv5_cauchy")
    return [next(c for c in cases if c[0].startswith(k)) for k in kinds]


def _derive_slice():
    return _slice("derive", lambda key: key == "0,1,1,0")


def _traced(cases):
    tracer = Tracer()
    tracer.install()
    try:
        results = run_pass(cases, tracer.span, QForgeError)
    finally:
        tracer.uninstall()
    return tracer, sum(r[3] for r in results), results


def _snapshot():
    """Every function and method object bound in qforge's modules and classes."""
    snap = {}
    for mod in qforge_modules():
        for key, val in vars(mod).items():
            if callable(val):
                snap[(mod.__name__, key)] = val
            if isinstance(val, type):
                for ckey, cval in vars(val).items():
                    if callable(cval) or isinstance(cval, staticmethod):
                        snap[(mod.__name__, key, ckey)] = cval
    return snap


@pytest.fixture(scope="module")
def traced_slices():
    slices = {"numeric-verify": _numeric_slice(), "derive": _derive_slice(),
              "families": _families_slice()}
    before = _snapshot()
    return before, {name: _traced(cases) for name, cases in slices.items()}


def test_wrappers_restored_after_traced_run(traced_slices):
    before, out = traced_slices
    after = _snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed
    for tracer, _, _ in out.values():
        assert tracer.leftovers() == []
        assert tracer._patches, "the tracer wrapped nothing"


def test_self_times_sum_to_traced_wall(traced_slices):
    _, out = traced_slices
    for name, (tracer, wall_ns, results) in out.items():
        assert all(r[1] != "error" for r in results), name
        assert abs(tracer.self_ns_total() - wall_ns) <= 0.01 * wall_ns, name
        cases = [s for s in tracer.spans if s[0] == "bench.case"]
        assert all(s[3] == -1 for s in cases)


def test_control_layers_read_zero(traced_slices):
    _, out = traced_slices
    numeric = out["numeric-verify"][0].layer_metrics(1.0)
    assert numeric["approx.ops"][0] > 0
    for key in ("poly.mul.calls", "poly.cancel.calls", "poly.eval.calls", "poly.sympy_roundtrips"):
        assert numeric[key][0] == 0, key
    families = out["families"][0].layer_metrics(1.0)
    assert families["approx.ops"][0] == 0
    assert families["exact.ops"][0] > 0 and families["poly.eval.calls"][0] > 0
    derive = out["derive"][0].layer_metrics(1.0)
    assert derive["poly.mul.calls"][0] > 0 and derive["families.param_values.calls"][0] == 0


def test_layer_metric_names_match_benchmark_json(traced_slices):
    _, out = traced_slices
    with open(spec.ROOT / "BENCHMARK.json") as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    produced = list(out["numeric-verify"][0].layer_metrics(1.0)) + ["trace.overhead_ratio"]
    assert sorted(listed) == sorted(produced)


def _run(tmp_cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "20", *args]
    return subprocess.run(cmd, cwd=tmp_cwd, capture_output=True, text=True, timeout=180)


def _copy_benchmark(dest):
    """BENCHMARK.json and perfbench/ copied into `dest`, without qforge."""
    shutil.copy(spec.ROOT / "BENCHMARK.json", dest)
    shutil.copytree(spec.HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))


def test_corrupted_reference_exits_nonzero(tmp_path):
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(spec.SRC, target_is_directory=True)
    pool_path = tmp_path / "perfbench" / "refs" / "numeric_pool.json"
    doc = json.loads(pool_path.read_text())
    seed = 3
    drawn = {p["id"] for p in workloads.select_points(doc["points"], seed)}
    victim = next(p for p in doc["points"] if p["id"] in drawn and p["lhs_ref"] is not None)
    ref = float(victim["lhs_ref"])
    victim["lhs_ref"] = repr(ref + 1e-9 * (1 + abs(ref)))
    pool_path.write_text(json.dumps(doc))
    res = _run(tmp_path, "--workload", "numeric-verify", "--seed", str(seed), "--trace", "0")
    assert res.returncode == 1, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert victim["id"] in res.stdout


def test_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    res = _run(tmp_path, "--workload", "families", "--seed", "1", "--trace", "0")
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
