"""Spans around the public functions of each fejerlab layer, from outside.

install() rebinds each traced function where its callers look it up:
``fejerlab.cli`` and ``fejerlab.conjecture`` import functions by name, so
those module attributes are replaced; ``NumPoly`` and ``RatPoly`` methods are
replaced on their classes.  Every span records its parent, so a layer's self
time is its busy time minus the time of the spans it caused.  Spans stay in
memory until the run ends.
"""
from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

LAYERS = ("cli", "conjecture", "identities", "ratpoly", "hermite", "apnum", "knots")

# Span names whose work is done at one precision; explore's recompute share
# sums those made at twice the explore precision.
_PRECISION_SPANS = ("knots", "hermite.basis", "hermite.eval")


def _knot_key(ks) -> tuple:
    return (ks.family, ks.n, ks.alpha, ks.beta, ks.precision_bits, tuple(p.raw for p in ks.points))


def _coeff_bits(poly) -> int:
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in poly.coeffs)


class Tracer:
    """Collects (id, parent, request, name, start, end, attrs) span records."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.request, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[6] = attrs(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, attrs=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def install(self, fejerlab) -> None:
        cli, conj, ident = fejerlab.cli, fejerlab.conjecture, fejerlab.identities
        for mod in (cli, conj):
            self._patch(mod, "make_knots", "knots", lambda a, r: {"points": r.n, "bits": r.precision_bits})
            self._patch(
                mod,
                "hermite_fejer_basis",
                "hermite.basis",
                lambda a, r: {"key": _knot_key(a[0]), "bits": a[0].precision_bits},
            )
            self._patch(
                mod,
                "derivative_sum",
                "hermite.eval",
                lambda a, r: {"terms": len(r[1]), "bits": a[0].precision_bits},
            )
        self._patch(cli, "main", "cli")
        self._patch(cli, "verify_cosecant_sum", "identities.verify")
        for mod in (cli, conj, ident):
            self._patch(mod, "inverse_power_sum", "identities.power_sum")
        self._patch(ident, "second_derivative_balance", "identities.balance")
        self._patch(ident, "chebyshev_T", "ratpoly.chebyshev_T", lambda a, r: {"coeff_bits": _coeff_bits(r)})
        self._patch(ident, "newton_power_sums", "ratpoly.newton")
        self._patch(conj, "rational_interpolate", "ratpoly.interp")
        self._patch(conj, "conjecture_power_formula", "conjecture.formula")
        self._patch(conj, "explore_knot_family", "conjecture.explore", lambda a, r: {"bits": a[5]})
        self._patch(
            conj,
            "rational_reconstruct",
            "conjecture.recognize",
            lambda a, r: {"recognized": r.candidate is not None},
        )
        self._patch(fejerlab.RatPoly, "__mul__", "ratpoly.mul")
        self._patch(fejerlab.RatPoly, "__rmul__", "ratpoly.mul")
        self._patch(
            fejerlab.NumPoly,
            "__mul__",
            "apnum.polymul",
            lambda a, r: {"products": len(a[0]._raw) * len(a[1]._raw)},
        )
        self._patch(fejerlab.NumPoly, "evaluate", "apnum.polyeval")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON line per span: id, parent, request, name, start, end, attrs."""
        with open(path, "w") as fh:
            for sid, parent, req, name, t0, t1, attrs in self.spans:
                if attrs and "key" in attrs:
                    attrs = {k: v for k, v in attrs.items() if k != "key"}
                fh.write(json.dumps([sid, parent, req, name, t0, t1, attrs]) + "\n")


def layer_metrics(spans: list[list], stdout_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from finished spans, as name -> (value, unit)."""
    dur = [rec[5] - rec[4] for rec in spans]
    child_time = [0.0] * len(spans)
    for rec, d in zip(spans, dur):
        if rec[1] is not None:
            child_time[rec[1]] += d
    by_name: dict[str, list[int]] = {}
    for rec in spans:
        by_name.setdefault(rec[3], []).append(rec[0])

    def ids(name):
        return by_name.get(name, [])

    def calls(name):
        return float(len(ids(name)))

    def busy(name):
        return sum((dur[i] for i in ids(name)), 0.0)

    def self_time(name):
        return sum((dur[i] - child_time[i] for i in ids(name)), 0.0)

    def attr_sum(name, key):
        return float(sum(spans[i][6][key] for i in ids(name)))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    basis_keys = {spans[i][6]["key"] for i in ids("hermite.basis")}
    m["hermite.basis.calls"] = (calls("hermite.basis"), "count")
    m["hermite.basis.busy_s"] = (busy("hermite.basis"), "s")
    m["hermite.basis.self_s"] = (self_time("hermite.basis"), "s")
    m["hermite.basis.distinct_ratio"] = (ratio(len(basis_keys), calls("hermite.basis")), "ratio")
    m["apnum.polymul.calls"] = (calls("apnum.polymul"), "count")
    m["apnum.polymul.coeff_products"] = (attr_sum("apnum.polymul", "products"), "count")
    m["apnum.polymul.busy_s"] = (busy("apnum.polymul"), "s")
    m["apnum.polyeval.calls"] = (calls("apnum.polyeval"), "count")
    m["apnum.polyeval.busy_s"] = (busy("apnum.polyeval"), "s")
    m["hermite.eval.calls"] = (calls("hermite.eval"), "count")
    m["hermite.eval.terms"] = (attr_sum("hermite.eval", "terms"), "count")
    m["hermite.eval.busy_s"] = (busy("hermite.eval"), "s")
    knot_ms = sorted(1000 * dur[i] for i in ids("knots"))
    m["knots.calls"] = (calls("knots"), "count")
    m["knots.points"] = (attr_sum("knots", "points"), "count")
    m["knots.busy_s"] = (busy("knots"), "s")
    m["knots.call_p90_ms"] = (_p90(knot_ms), "ms")
    m["ratpoly.chebyshev_T.calls"] = (calls("ratpoly.chebyshev_T"), "count")
    m["ratpoly.chebyshev_T.busy_s"] = (busy("ratpoly.chebyshev_T"), "s")
    m["ratpoly.chebyshev_T.coeff_bits"] = (attr_sum("ratpoly.chebyshev_T", "coeff_bits"), "bits")
    for short in ("newton", "mul", "interp"):
        m[f"ratpoly.{short}.busy_s"] = (busy(f"ratpoly.{short}"), "s")
    for short in ("verify", "power_sum", "balance"):
        m[f"identities.{short}.busy_s"] = (busy(f"identities.{short}"), "s")
        m[f"identities.{short}.self_s"] = (self_time(f"identities.{short}"), "s")
    m["conjecture.formula.busy_s"] = (busy("conjecture.formula"), "s")
    m["conjecture.explore.busy_s"] = (busy("conjecture.explore"), "s")
    m["conjecture.explore.self_s"] = (self_time("conjecture.explore"), "s")
    m["conjecture.recognized_ratio"] = (
        ratio(sum(spans[i][6]["recognized"] for i in ids("conjecture.recognize")), calls("conjecture.recognize")),
        "ratio",
    )
    m["conjecture.recompute_share"] = (
        ratio(_recompute_time(spans, dur, ids("conjecture.explore")), busy("conjecture.explore")),
        "ratio",
    )
    m["cli.calls"] = (calls("cli"), "count")
    m["cli.busy_s"] = (busy("cli"), "s")
    m["cli.self_s"] = (self_time("cli"), "s")
    m["cli.stdout_bytes"] = (float(stdout_bytes), "bytes")
    roots = sum(d for rec, d in zip(spans, dur) if rec[1] is None)
    for layer in LAYERS:
        own = sum(self_time(name) for name in by_name if name.split(".")[0] == layer)
        m[f"layer.{layer}.self_share"] = (ratio(own, roots), "ratio")
    return m


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _recompute_time(spans, dur, explore_ids) -> float:
    """Time of knot, basis and evaluation spans under an explore call made at
    twice that call's precision (the confirmation rebuilds)."""
    target = {i: 2 * spans[i][6]["bits"] for i in explore_ids}
    total = 0.0
    for rec, d in zip(spans, dur):
        if rec[3] not in _PRECISION_SPANS:
            continue
        parent = rec[1]
        while parent is not None and parent not in target:
            parent = spans[parent][1]
        if parent is not None and rec[6]["bits"] == target[parent]:
            total += d
    return total
