"""Per-layer tracing from outside the library.

``Tracer.install`` replaces public superalg functions and methods with
wrappers, on their classes and in every ``superalg`` module namespace that
bound them (including names taken with ``from ... import``); ``uninstall``
puts the originals back.  No file of the library changes.

Three kinds of wrapper:

* a *span* (layer boundaries such as ``compose`` or ``sqrt_even``) records
  ``(id, parent id, case id, name, start, end)`` in memory;
* a *timed leaf* (hot calls such as ``merge_bits`` or ``SuperElement.__mul__``)
  records no span, only a call count and summed self time;
* a *counter* (the hottest calls, such as ``Fraction`` construction) only
  counts.

Self time of a span or timed leaf is its duration minus the durations of the
spans and timed leaves directly inside it; counters are not subtracted.
Counts are kept per case.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from fractions import Fraction

import superalg.cli
import superalg.expressions as expressions
import superalg.landi as landi
import superalg.multiindex as multiindex
import superalg.reports as reports
import superalg.scalars as scalars
import superalg.spheres as spheres
import superalg.superanalysis as superanalysis
import superalg.supermodule as supermodule
import superalg.superring as superring

CLOCK = time.perf_counter


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.spans = []
        self.cases = []  # one dict of count deltas per finished case
        self.peak_terms = 0
        self.case_id = None
        self._acc = [0.0]  # child time of each open frame; [0] is the root
        self._span_ids = [None]
        self._active = defaultdict(int)
        self._next_id = 0
        self._restore = []
        self._case_start = {}

    # -- wrappers -------------------------------------------------------------

    def counter(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def leaf(self, fn, time_key, calls_key, hook=None):
        counts, self_s, acc = self.counts, self.self_s, self._acc

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            acc.append(0.0)
            start = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = CLOCK() - start
                self_s[time_key] += dur - acc.pop()
                acc[-1] += dur
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def span(self, fn, name, hook=None):
        def wrapper(*args, **kwargs):
            with self.open_span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def open_span(self, name):
        return _Span(self, name)

    # -- cases ----------------------------------------------------------------

    def begin_case(self, case_id):
        self.case_id = case_id
        self._case_start = dict(self.counts)
        self.peak_terms = 0

    def end_case(self):
        start = self._case_start
        delta = {k: v - start.get(k, 0) for k, v in self.counts.items() if v != start.get(k, 0)}
        delta["superring.peak_terms"] = self.peak_terms
        self.cases.append(delta)
        self.case_id = None

    # -- installing -----------------------------------------------------------

    def _replace_function(self, module, name, wrapper):
        original = getattr(module, name)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "superalg" or modname.startswith("superalg.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, name, make):
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._restore.append((cls, name, raw))
        setattr(cls, name, replacement)

    def install(self):
        """Wrap the layer entry points; see ``PER_LAYER`` for what is reported."""
        fn = self._replace_function
        meth = self._replace_method

        meth(Fraction, "__new__", lambda f: self.counter(f, "scalars.fraction_new.calls"))
        fn(multiindex, "merge_bits", self.leaf(
            multiindex.merge_bits, "multiindex.merge_bits", "multiindex.merge_bits.calls", _merge_hook))

        meth(scalars.RationalRing, "mul", lambda f: self.counter(f, "scalars.rational.mul.calls"))
        meth(scalars.GaussianRational, "__mul__", lambda f: self.counter(f, "scalars.gaussian.mul.calls"))
        meth(scalars.IntegerModRing, "mul", lambda f: self.counter(f, "scalars.integer_mod.mul.calls"))
        for name in ("mul", "add"):
            meth(scalars.RadicalGaussianRing, name, lambda f, n=name: self.leaf(
                f, "scalars.gaussian_radical", f"scalars.gaussian_radical.{n}.calls"))
        for name, calls in (("mul", "mul"), ("add", "add"), ("normal_form_dict", "normal_form")):
            meth(scalars.PolyQuotientRing, name, lambda f, c=calls: self.leaf(
                f, "scalars.poly_quotient", f"scalars.poly_quotient.{c}.calls"))
        meth(scalars.CoeffRing, "__eq__", lambda f: self.leaf(
            f, "scalars.coeff_ring_eq", "scalars.coeff_ring_eq.calls"))

        element = superring.SuperElement
        meth(element, "__mul__", lambda f: self.leaf(f, "superring.mul", "superring.mul.calls", _mul_hook))
        meth(element, "__add__", lambda f: self.leaf(f, "superring.add", "superring.add.calls", _peak_hook))
        meth(element, "involute", lambda f: self.counter(f, "superring.involute.calls"))

        morphism = supermodule.SuperMorphism
        for name in ("compose", "apply", "is_idempotent", "from_json"):
            meth(morphism, name, lambda f, n=name: self.span(f, f"supermodule.{n}"))
        fn(supermodule, "split_idempotent",
           self.span(supermodule.split_idempotent, "supermodule.split_idempotent"))

        for module, names in (
            (landi, ("make_bra", "projector_p", "inner", "pi_apply", "ket_entries")),
            (spheres, ("make_sphere_projector", "stably_free_certificate")),
            (superanalysis, ("sqrt_even_binomial", "continue_analytically")),
            (expressions, ("parse_element",)),
            (superalg.cli, ("main",)),
        ):
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                fn(module, name, self.span(getattr(module, name), f"{layer}.{name}"))
        fn(superanalysis, "sqrt_even",
           self.span(superanalysis.sqrt_even, "superanalysis.sqrt_even", _sqrt_hook))
        for name in ("super_sin", "super_cos"):
            fn(superanalysis, name, self.span(getattr(superanalysis, name), "superanalysis.super_sin_cos"))
        meth(superanalysis.Jet, "__mul__", lambda f: self.counter(f, "superanalysis.jet_mul.calls"))
        meth(reports.SuiteReport, "to_json_text", lambda f: self.span(f, "reports.to_json_text"))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric named in ``PER_LAYER``, from all finished cases."""
        counts = defaultdict(int)
        peak = 0
        for case in self.cases:
            for key, value in case.items():
                if key == "superring.peak_terms":
                    peak = max(peak, value)
                else:
                    counts[key] += value
        out = {}
        for name, _ in PER_LAYER:
            if name.endswith(".calls") or name.endswith(".term_products"):
                out[name] = counts[name]
            elif name.endswith(".self_s"):
                out[name] = self.self_s[name[: -len(".self_s")]]
            elif name.endswith(".total_s"):
                out[name] = self.total_s[name[: -len(".total_s")]]
        out["superring.peak_terms"] = peak
        out["multiindex.merge_bits.useful_ratio"] = _ratio(
            counts["multiindex.merge_bits.useful"], counts["multiindex.merge_bits.calls"])
        out["superanalysis.sqrt_even.useful_ratio"] = _ratio(
            counts["superanalysis.sqrt_even.result_terms"], counts["superanalysis.sqrt_even.visited"])
        return out


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        t._next_id += 1
        self.sid = t._next_id
        self.parent = t._span_ids[-1]
        t._span_ids.append(self.sid)
        t._acc.append(0.0)
        t._active[self.name] += 1
        t.counts[self.name + ".calls"] += 1
        self.start = CLOCK()
        return self

    def __exit__(self, *exc):
        end = CLOCK()
        t = self.tracer
        dur = end - self.start
        t.self_s[self.name] += dur - t._acc.pop()
        t._acc[-1] += dur
        t._active[self.name] -= 1
        if not t._active[self.name]:  # count a recursive call once
            t.total_s[self.name] += dur
        t._span_ids.pop()
        t.spans.append((self.sid, self.parent, t.case_id, self.name, self.start, end))
        return False


def _ratio(num, den):
    return num / den if den else 0.0


def _merge_hook(tracer, args, result):
    if result is not None:
        tracer.counts["multiindex.merge_bits.useful"] += 1


def _peak_hook(tracer, args, result):
    if len(result.terms) > tracer.peak_terms:
        tracer.peak_terms = len(result.terms)


def _mul_hook(tracer, args, result):
    a, b = args
    if isinstance(b, superring.SuperElement):
        tracer.counts["superring.mul.term_products"] += len(a.terms) * len(b.terms)
    _peak_hook(tracer, args, result)


def _sqrt_hook(tracer, args, result):
    support = 0
    for bits in args[0].terms:
        support |= bits
    k = support.bit_count()
    tracer.counts["superanalysis.sqrt_even.visited"] += 1 << (k - 1) if k else 1
    tracer.counts["superanalysis.sqrt_even.result_terms"] += len(result.terms)


# Reported per-layer metrics, in BENCHMARK.json order.
PER_LAYER = (
    ("multiindex.merge_bits.calls", "count"),
    ("multiindex.merge_bits.useful_ratio", "ratio"),
    ("multiindex.merge_bits.self_s", "s"),
    ("scalars.fraction_new.calls", "count"),
    ("scalars.rational.mul.calls", "count"),
    ("scalars.gaussian.mul.calls", "count"),
    ("scalars.gaussian_radical.mul.calls", "count"),
    ("scalars.integer_mod.mul.calls", "count"),
    ("scalars.poly_quotient.mul.calls", "count"),
    ("scalars.poly_quotient.normal_form.calls", "count"),
    ("scalars.poly_quotient.self_s", "s"),
    ("scalars.gaussian_radical.self_s", "s"),
    ("scalars.coeff_ring_eq.calls", "count"),
    ("scalars.coeff_ring_eq.self_s", "s"),
    ("superring.mul.calls", "count"),
    ("superring.mul.term_products", "count"),
    ("superring.mul.self_s", "s"),
    ("superring.add.calls", "count"),
    ("superring.add.self_s", "s"),
    ("superring.involute.calls", "count"),
    ("superring.peak_terms", "count"),
    ("supermodule.compose.calls", "count"),
    ("supermodule.compose.total_s", "s"),
    ("supermodule.compose.self_s", "s"),
    ("supermodule.apply.calls", "count"),
    ("supermodule.is_idempotent.calls", "count"),
    ("supermodule.split_idempotent.calls", "count"),
    ("supermodule.from_json.total_s", "s"),
    ("landi.make_bra.total_s", "s"),
    ("landi.projector_p.total_s", "s"),
    ("landi.inner.total_s", "s"),
    ("landi.pi_apply.calls", "count"),
    ("landi.pi_apply.total_s", "s"),
    ("landi.ket_entries.calls", "count"),
    ("spheres.make_sphere_projector.total_s", "s"),
    ("spheres.stably_free_certificate.total_s", "s"),
    ("superanalysis.sqrt_even.total_s", "s"),
    ("superanalysis.sqrt_even.useful_ratio", "ratio"),
    ("superanalysis.sqrt_even_binomial.total_s", "s"),
    ("superanalysis.continue_analytically.total_s", "s"),
    ("superanalysis.super_sin_cos.total_s", "s"),
    ("superanalysis.jet_mul.calls", "count"),
    ("expressions.parse_element.calls", "count"),
    ("expressions.parse_element.total_s", "s"),
    ("cli.main.total_s", "s"),
    ("reports.to_json_text.total_s", "s"),
)
