"""Per-layer tracer for the traced benchmark run.

The tracer wraps qforge's public entry points from outside; nothing in
`src/` knows about it.  Layer functions get span wrappers: each call
records (name, start_ns, end_ns, parent, self_ns) in memory.  Scalar and
polynomial operators get counter wrappers: they count calls and
accumulate time but create no span objects.  Both kinds push a frame on
one stack, so every nanosecond inside the benchmark's case spans is
attributed to exactly one frame's self time:

    self time = own duration - durations of direct child frames.

An operator called from inside an operator of the same kind (say
`ApproxScalar.__sub__` calling `__add__`) is not counted again, so the
operator counts are calls made from outside the class.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

_ns = time.perf_counter_ns

# (module, attribute, span name) of the module-level functions wrapped with
# spans.  A function imported by name into other qforge modules is wrapped
# in every namespace that bound it.
SPAN_FUNCTIONS = (
    ("qforge.forge", "verify_identity", "forge.verify_identity"),
    ("qforge.forge", "check_family", "forge.check_family"),
    ("qforge.forge", "telescoped_check", "forge.telescoped_check"),
    ("qforge.forge", "sv5_cauchy_check", "forge.sv5_cauchy_check"),
    ("qforge.qseries", "phi21_numeric", "qseries.phi21_numeric"),
    ("qforge.qseries", "phi21_exact", "qseries.phi21_exact"),
    ("qforge.qseries", "qpoch_infinite", "qseries.qpoch_infinite"),
    ("qforge.qseries", "qpoch_finite", "qseries.qpoch_finite"),
    ("qforge.closedform", "closed_form_eval", "closedform.eval"),
    ("qforge.relations", "qr_derive", "relations.qr_derive"),
    ("qforge.relations", "_series_verify", "relations.series_verify"),
    ("qforge.relations", "verify_relation", "relations.verify_relation"),
    ("qforge.relations", "relation_residual", "relations.relation_residual"),
    ("qforge.symmetry", "canonical_representative", "symmetry.canonical_representative"),
    ("qforge.symmetry", "orbit_enumerate", "symmetry.orbit_enumerate"),
)

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__", "__pow__")


def _method_targets():
    """(class, attribute, frame name, kind) of the wrapped methods."""
    from qforge.approx import ApproxScalar
    from qforge.exact import ExactScalar
    from qforge.families import ParamFamily
    from qforge.poly import MultiPoly, RationalFunction

    out = [(ApproxScalar, name, "approx.ops", "counter") for name in _ARITH]
    out += [(ExactScalar, name, "exact.ops", "counter") for name in _ARITH + ("inverse",)]
    out += [
        (MultiPoly, "__mul__", "poly.mul", "counter"),
        (MultiPoly, "__rmul__", "poly.mul", "counter"),
        (MultiPoly, "eval", "poly.eval", "counter"),
        (RationalFunction, "eval", "poly.eval", "counter"),
        (RationalFunction, "cancel", "poly.cancel", "counter"),
        (MultiPoly, "_to_sym", "poly.sympy_roundtrips", "count"),
        (MultiPoly, "_from_sym", "poly.sympy_roundtrips", "count"),
        (ParamFamily, "param_values", "families.param_values", "span"),
    ]
    return out


def _is_cyclotomic(args) -> int:
    other = args[1] if len(args) > 1 else None
    return 1 if args[0].order > 1 or getattr(other, "order", 1) > 1 else 0


def _eval_terms(args) -> int:
    f = args[0]
    num = getattr(f, "num", None)
    if num is not None:
        return len(num.terms) + len(f.den.terms)
    return len(f.terms)


_WEIGHTS = {"exact.ops": _is_cyclotomic, "poly.eval": _eval_terms}


def _relation_terms(rel) -> int:
    return sum(len(p.terms) for p in (rel.Q.num, rel.Q.den, rel.R.num, rel.R.den))


# span name -> (extra counter, function of the result); applied on return
_RESULT_HOOKS = {
    "qseries.phi21_numeric": lambda r: r.terms_used,
    "qseries.phi21_exact": lambda r: r.terms_used,
    "qseries.qpoch_infinite": lambda r: r.terms_used,
    "relations.qr_derive": _relation_terms,
}


class Tracer:
    """Installs wrappers, keeps spans and per-frame totals in memory.

    totals[name] = [calls, self_ns, returned, extra], where `returned`
    counts calls that returned normally and `extra` is the name's work
    count (series terms, polynomial terms, cyclotomic operations, ...).
    """

    def __init__(self):
        self.stack = [["trace.root", 0, -1]]  # frames: [name, child_ns, span index]
        self.spans: list = []
        self.totals: dict[str, list] = {}
        self.certified = 0
        self._patches: list = []

    # -- frames ---------------------------------------------------------------
    def _total(self, name):
        return self.totals.setdefault(name, [0, 0, 0, 0])

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (one per case)."""
        stack, spans, tot = self.stack, self.spans, self._total(name)
        parent = stack[-1]
        frame = [name, 0, len(spans)]
        spans.append(None)
        stack.append(frame)
        t0 = _ns()
        try:
            yield
        finally:
            t1 = _ns()
            stack.pop()
            dur = t1 - t0
            parent[1] += dur
            own = dur - frame[1]
            tot[0] += 1
            tot[1] += own
            tot[2] += 1
            spans[frame[2]] = (name, t0, t1, parent[2], own)

    def _span_wrapper(self, name, fn):
        stack, spans, tot = self.stack, self.spans, self._total(name)
        hook = _RESULT_HOOKS.get(name)
        certified = name == "qseries.phi21_numeric"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0, len(spans)]
            spans.append(None)
            stack.append(frame)
            t0 = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _ns()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                own = dur - frame[1]
                tot[0] += 1
                tot[1] += own
                spans[frame[2]] = (name, t0, t1, parent[2], own)
            tot[2] += 1
            if hook is not None:
                tot[3] += hook(result)
            if certified and result.certified:
                self.certified += 1
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        stack, tot = self.stack, self._total(name)
        weigh = _WEIGHTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == name:  # nested call of the same kind
                return fn(*args, **kwargs)
            if weigh is not None:
                tot[3] += weigh(args)
            frame = [name, 0, parent[2]]
            stack.append(frame)
            t0 = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _ns()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                tot[0] += 1
                tot[1] += dur - frame[1]
            tot[2] += 1
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tot = self._total(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tot[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------------
    def _patch(self, owner, attr, original, replacement):
        replacement.__perfbench_wrapper__ = True
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self):
        modules = qforge_modules()
        for modname, attr, name in SPAN_FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._span_wrapper(name, original)
            for mod in modules:
                for bound in [k for k, v in vars(mod).items() if v is original]:
                    self._patch(mod, bound, original, wrapper)
        for cls, attr, name, kind in _method_targets():
            raw = vars(cls)[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            make = {"span": self._span_wrapper, "counter": self._counter_wrapper,
                    "count": self._count_wrapper}[kind]
            wrapper = make(name, fn)
            if is_static:
                wrapper.__perfbench_wrapper__ = True
                wrapper = staticmethod(wrapper)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, wrapper)
            else:
                self._patch(cls, attr, raw, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Attributes of qforge modules and classes that are not the
        original object again: empty after a clean uninstall."""
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
               if vars(o).get(a) is not orig]
        for mod in qforge_modules():
            for key, val in vars(mod).items():
                if _is_wrapper(val):
                    bad.append(f"{mod.__name__}.{key}")
                if isinstance(val, type):
                    bad += [f"{val.__name__}.{k}" for k, v in vars(val).items() if _is_wrapper(v)]
        return sorted(set(bad))

    # -- results ----------------------------------------------------------------
    def self_ns_total(self) -> int:
        return sum(t[1] for t in self.totals.values())

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"format": "perfbench-spans-1",
                                 "fields": ["name", "start_ns", "end_ns", "parent", "self_ns"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def verify_rounds(self) -> tuple[int, int]:
        """(numeric verify_identity calls, phi21_numeric calls made directly
        inside them)."""
        kids: dict[int, int] = {}
        for name, _, _, parent, _ in self.spans:
            if name == "qseries.phi21_numeric" and parent >= 0:
                if self.spans[parent][0] == "forge.verify_identity":
                    kids[parent] = kids.get(parent, 0) + 1
        return len(kids), sum(kids.values())

    def layer_metrics(self, wall_s: float) -> dict:
        """The per-layer metrics by name: {name: (value, unit)}, all but
        trace.overhead_ratio, which run.py adds from the untraced run."""
        def t(name):
            return self.totals.get(name, [0, 0, 0, 0])

        def calls(name):
            return (t(name)[0], "count")

        def self_s(name):
            return (t(name)[1] / 1e9, "s")

        def per_op(name):
            n, ns = t(name)[0], t(name)[1]
            return (ns / 1e3 / n if n else 0.0, "us")

        def ratio(num, den):
            return (num / den if den else 0.0, "1")

        m = {}
        for layer in ("approx", "exact"):
            m[f"{layer}.ops"] = calls(f"{layer}.ops")
            m[f"{layer}.self_s"] = self_s(f"{layer}.ops")
            m[f"{layer}.us_per_op"] = per_op(f"{layer}.ops")
        m["exact.cyclo_share"] = ratio(t("exact.ops")[3], t("exact.ops")[0])
        for fn in ("phi21_numeric", "qpoch_infinite", "phi21_exact"):
            key = f"qseries.{fn}"
            m[f"{key}.calls"] = calls(key)
            m[f"{key}.self_s"] = self_s(key)
            m[f"{key}.terms"] = (t(key)[3], "count")
        m["qseries.phi21_numeric.certified_ratio"] = ratio(self.certified, t("qseries.phi21_numeric")[2])
        m["qseries.qpoch_finite.calls"] = calls("qseries.qpoch_finite")
        m["qseries.qpoch_finite.self_s"] = self_s("qseries.qpoch_finite")
        m["closedform.eval.calls"] = calls("closedform.eval")
        m["closedform.eval.self_s"] = self_s("closedform.eval")
        for key in ("poly.mul", "poly.cancel", "poly.eval"):
            m[f"{key}.calls"] = calls(key)
            m[f"{key}.self_s"] = self_s(key)
        m["poly.eval.terms"] = (t("poly.eval")[3], "count")
        m["poly.eval.useful_ratio"] = ratio(t("poly.eval")[2], t("poly.eval")[0])
        m["poly.sympy_roundtrips"] = calls("poly.sympy_roundtrips")
        m["relations.qr_derive.calls"] = calls("relations.qr_derive")
        m["relations.qr_derive.self_s"] = self_s("relations.qr_derive")
        m["relations.result_terms"] = (t("relations.qr_derive")[3], "count")
        m["relations.series_verify.self_s"] = self_s("relations.series_verify")
        m["relations.verify_relation.self_s"] = self_s("relations.verify_relation")
        m["relations.relation_residual.calls"] = calls("relations.relation_residual")
        m["relations.relation_residual.self_s"] = self_s("relations.relation_residual")
        m["families.param_values.calls"] = calls("families.param_values")
        m["families.param_values.self_s"] = self_s("families.param_values")
        numeric_calls, rounds = self.verify_rounds()
        m["forge.verify_identity.calls"] = calls("forge.verify_identity")
        m["forge.verify_identity.self_s"] = self_s("forge.verify_identity")
        m["forge.verify_identity.rounds"] = ratio(rounds, numeric_calls)
        for fn in ("check_family", "telescoped_check", "sv5_cauchy_check"):
            m[f"forge.{fn}.calls"] = calls(f"forge.{fn}")
            m[f"forge.{fn}.self_s"] = self_s(f"forge.{fn}")
        for fn in ("canonical_representative", "orbit_enumerate"):
            m[f"symmetry.{fn}.calls"] = calls(f"symmetry.{fn}")
            m[f"symmetry.{fn}.self_s"] = self_s(f"symmetry.{fn}")
        m["trace.wall_s"] = (wall_s, "s")
        m["trace.unattributed_s"] = self_s("bench.case")
        return m


def _is_wrapper(obj) -> bool:
    if isinstance(obj, staticmethod):
        obj = obj.__func__
    try:
        return getattr(obj, "__perfbench_wrapper__", False) is True
    except Exception:  # objects with exotic __getattr__
        return False


def qforge_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "qforge" or name.startswith("qforge.")) and m is not None]
