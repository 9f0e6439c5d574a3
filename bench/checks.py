"""Per-request output checks, independent of the code under test.

check() never raises for a wrong answer: it returns a Verdict whose ok flag
feeds the failure count.  Expected values come from closed forms or from an
independent mpmath computation, never from fejerlab itself.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

#: min_margin_bits of a run without residual/tolerance records: the default
#: CLI precision, which is also where a zero residual's margin is capped.
NO_RESIDUAL_MARGIN_BITS = 256.0


@dataclass
class Verdict:
    ok: bool
    records: int = 0
    margins: list[float] = field(default_factory=list)
    reason: str = ""


class _Mismatch(Exception):
    pass


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise _Mismatch(reason)


def options(argv) -> dict[str, list[str]]:
    """``--flag=value`` options of a generated argv, by flag."""
    opts: dict[str, list[str]] = {}
    for arg in argv[1:]:
        key, _, value = arg[2:].partition("=")
        opts.setdefault(key, []).append(value)
    return opts


def _odd_ns(opts) -> list[int]:
    if "n" in opts:
        return [int(opts["n"][0])]
    return list(range(3, int(opts["n-max"][0]) + 1, 2))


def _records(out: str, count: int) -> list[dict]:
    lines = out.splitlines()
    _expect(len(lines) == count, f"{len(lines)} records, expected {count}")
    return [json.loads(line) for line in lines]


def margin_bits(residual: Fraction, tolerance: Fraction, cap: int) -> float:
    """log2(tolerance / |residual|), capped at cap (and equal to it at 0)."""
    residual = abs(residual)
    if residual == 0:
        return float(cap)
    q = tolerance / residual
    return min(float(cap), math.log2(q.numerator) - math.log2(q.denominator))


def _poly_times(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# PS(m, n) = sum_{k=1}^{(n-1)/2} csc^(2m)(k pi / n) = (n^2 - 1) * Q_m(n) / d_m,
# as coefficient lists in n, constant term first.
_CLOSED_FORMS = {
    1: ([1], 6),
    2: ([11, 0, 1], 90),
    3: ([191, 0, 23, 0, 2], 1890),
}


def closed_form(m: int) -> list[Fraction]:
    q, d = _CLOSED_FORMS[m]
    return [c / d for c in _poly_times([Fraction(-1), 0, Fraction(1)], [Fraction(c) for c in q])]


def power_sum(m: int, n: int) -> Fraction | None:
    """The exact PS(m, n) from its closed form, or None where none is known."""
    if m not in _CLOSED_FORMS:
        return None
    return sum(c * n**k for k, c in enumerate(closed_form(m)))


def _power_sum_close(m: int, n: int, value: Fraction) -> bool:
    """value against a direct 192-bit sum of cosecant powers, to 2^-128."""
    with mpmath.workprec(192):
        direct = mpmath.fsum(mpmath.csc(k * mpmath.pi / n) ** (2 * m) for k in range(1, (n + 1) // 2))
        return abs(mpmath.mpf(value.numerator) / value.denominator - direct) <= direct * mpmath.mpf(2) ** -128


def _check_eq1(opts, out, verdict):
    n = int(opts["n"][0])
    p_max = int(opts["p-max"][0])
    y0s = [Fraction(y) for y in opts["y0"]]
    bits = int(opts["precision-bits"][0])
    recs = _records(out, p_max * len(y0s))
    grid = [(p, y0) for p in range(1, p_max + 1) for y0 in y0s]
    for rec, (p, y0) in zip(recs, grid):
        _expect(
            (rec["family"], rec["n"], rec["p"], Fraction(rec["y0"]), rec["precision_bits"])
            == (opts["family"][0], n, p, y0, bits),
            f"record {rec['n']},{rec['p']},{rec['y0']} out of order",
        )
        residual, tolerance = Fraction(rec["residual"]), Fraction(rec["tolerance"])
        _expect(rec["pass"] is True, f"n={n} p={p} y0={y0} not passed")
        _expect(abs(residual) <= tolerance, f"n={n} p={p} y0={y0}: |residual| > tolerance")
        verdict.margins.append(margin_bits(residual, tolerance, bits))
    verdict.records = len(recs)


def _check_identity(opts, out, verdict):
    ns = _odd_ns(opts)
    recs = _records(out, len(ns))
    for rec, n in zip(recs, ns):
        expected = Fraction(n * n - 1, 3)
        _expect(rec["n"] == n, f"record n={rec['n']}, expected {n}")
        _expect(Fraction(rec["lhs"]) == Fraction(rec["rhs"]) == expected, f"n={n}: lhs/rhs wrong")
        _expect(rec["holds"] is True, f"n={n}: holds is not true")
    verdict.records = len(recs)


def _check_power_sum(opts, out, verdict):
    m = int(opts["m"][0])
    ns = _odd_ns(opts)
    recs = _records(out, len(ns))
    for rec, n in zip(recs, ns):
        _expect((rec["n"], rec["m"]) == (n, m), f"record n={rec['n']} m={rec['m']}")
        value = Fraction(rec["value"])
        expected = power_sum(m, n)
        if expected is not None:
            _expect(value == expected, f"PS({m},{n}) = {value}, expected {expected}")
        else:
            _expect(_power_sum_close(m, n, value), f"PS({m},{n}) = {value} off the direct sum")
    verdict.records = len(recs)


def _check_formula(opts, out, verdict):
    m = int(opts["m"][0])
    (rec,) = _records(out, 1)
    train = [int(x) for x in opts["train"][0].split(",")]
    holdout = [int(x) for x in opts["holdout"][0].split(",")]
    _expect((rec["m"], rec["train_n"], rec["holdout_n"]) == (m, train, holdout), "echoed inputs differ")
    _expect(rec["confirmed"] is True, f"m={m} formula not confirmed")
    formula = [Fraction(c) for c in rec["formula"]]
    _expect(formula == closed_form(m), f"m={m} formula {rec['formula']} is not the closed form")
    verdict.records = 1


def _check_knots(opts, out, verdict):
    n = int(opts["n"][0])
    bits = int(opts["precision-bits"][0])
    (rec,) = _records(out, 1)
    _expect((rec["family"], rec["n"], rec["precision_bits"]) == (opts["family"][0], n, bits), "header differs")
    _expect(
        (Fraction(rec["alpha"]), Fraction(rec["beta"])) == (Fraction(opts["alpha"][0]), Fraction(opts["beta"][0])),
        "alpha/beta differ",
    )
    points = [Fraction(x) for x in rec["points"]]
    _expect(len(points) == n, f"{len(points)} knots, expected {n}")
    _expect(all(a < b for a, b in zip(points, points[1:])), "knots not strictly ascending")
    _expect(-1 < points[0] and points[-1] < 1, "knots outside (-1, 1)")
    verdict.records = 1


def _check_explore(opts, out, verdict):
    n_list = [int(x) for x in opts["n-list"][0].split(",")]
    p, y0, bits = int(opts["p"][0]), Fraction(opts["y0"][0]), int(opts["precision-bits"][0])
    recs = _records(out, 2 * len(n_list))
    window = Fraction(1, 2 ** (bits // 2))
    legendre_center = (Fraction(opts["alpha"][0]), Fraction(opts["beta"][0]), y0) == (0, 0, 0)
    for k, n in enumerate(n_list):
        pair = recs[2 * k : 2 * k + 2]
        for rec, part in zip(pair, ("offcenter_aggregate", "nearest_knot_term")):
            _expect(
                (rec["n"], rec["p"], Fraction(rec["y0"]), rec["part"], rec["precision_bits"])
                == (n, p, y0, part, bits),
                f"n={n} {part}: record out of order",
            )
        cands = [rec["candidate"] for rec in pair]
        if cands == [None, None]:
            _expect(not legendre_center, f"n={n}: Legendre parts at y0=0 not recognized")
            continue
        _expect(None not in cands, f"n={n}: only one part recognized")
        a, b = (Fraction(c) for c in cands)
        _expect(a == -b, f"n={n}: candidates {a} and {b} are not a +/- pair")
        for rec, cand in zip(pair, (a, b)):
            _expect(rec["confirmed_at_bits"] == 2 * bits, f"n={n}: confirmed at {rec['confirmed_at_bits']}")
            verdict.margins.append(margin_bits(Fraction(rec["value"]) - cand, window, bits))
    verdict.records = len(recs)


def _check_balance(argv, parts, verdict):
    n = int(argv[0])
    offcenter, midpoint = parts
    _expect(offcenter + midpoint == 0, f"n={n}: parts sum to {offcenter + midpoint}")
    _expect(offcenter == Fraction(2 * (n * n - 1), 3), f"n={n}: off-center part {offcenter}")
    verdict.records = 1


_CLI_CHECKS = {
    "verify-eq1": _check_eq1,
    "verify-identity": _check_identity,
    "power-sum": _check_power_sum,
    "formula": _check_formula,
    "knots": _check_knots,
    "explore": _check_explore,
}


def check(kind: str, argv, exit_code: int, output) -> Verdict:
    """Judge one request's output; output is stdout text, or the balance pair."""
    verdict = Verdict(ok=True)
    try:
        if kind == "balance":
            _check_balance(argv, output, verdict)
        else:
            _expect(exit_code == 0, f"exit code {exit_code}")
            _CLI_CHECKS[kind](options(argv), output, verdict)
    except _Mismatch as exc:
        return Verdict(ok=False, reason=str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        return Verdict(ok=False, reason=f"malformed output: {type(exc).__name__}: {exc}")
    return verdict
