"""Knot-system generators: Chebyshev (first and second kind), equispaced,
and Gauss-Jacobi points at arbitrary precision.

Jacobi knots are the roots of the Jacobi polynomial P_n^(alpha,beta), found by
Newton iteration on the three-term recurrence.  Robustness comes from the
interlacing ladder: the roots of consecutive degrees strictly interlace, so
each stage brackets every root of the next inside an interval with a known
sign change, and Newton falls back to bisection whenever it steps outside its
bracket.  No external root finder is involved.  Stage k of the ladder is a
pure function of (alpha, beta, k, precision), so one functools.lru_cache
bounded at _STAGE_CAP stages shares it between calls and threads.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import (
    fnone,
    fone,
    from_int,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cos,
    mpf_div,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpf_sub,
)

from .apnum import _RND, ApFloat, _check_precision, pow2

#: Extra bits carried while polishing roots, beyond the requested precision.
_ROOT_GUARD_BITS = 32

#: Newton steps allowed per root before giving up.
_NEWTON_CAP = 200


class ConvergenceFailure(RuntimeError):
    """A Newton run exceeded its iteration cap (indicates a precision bug)."""


class KnotSpacingError(ValueError):
    """Two knots are closer than the basis construction can tolerate."""


@dataclass(frozen=True)
class KnotSet:
    """A strictly increasing, validated set of interpolation knots.

    Knots closer than 2^(16 - precision_bits) are rejected outright, since the
    fundamental-polynomial construction divides by knot differences.
    """

    family: str
    n: int
    points: tuple[ApFloat, ...]
    precision_bits: int
    alpha: Fraction | None = None
    beta: Fraction | None = None

    def __post_init__(self):
        if self.n != len(self.points) or self.n < 1:
            raise ValueError("n must equal the number of points and be >= 1")
        gap_floor = pow2(16 - self.precision_bits, self.precision_bits)
        for lo, hi in zip(self.points, self.points[1:]):
            if not hi - lo > gap_floor:
                raise KnotSpacingError(
                    f"knot gap at most 2^{16 - self.precision_bits} in family {self.family}"
                )


def _cos_pi(num: int, den: int, wp: int):
    """cos(num pi / den) as a raw mpf at wp bits."""
    angle = mpf_div(mpf_mul_int(mpf_pi(wp, _RND), num, wp, _RND), from_int(den), wp, _RND)
    return mpf_cos(angle, wp, _RND)


def _cosine_knots(family: str, n: int, precision_bits: int, num, den: int) -> KnotSet:
    """Symmetric knots from their positive half cos(num(i) pi / den), i = 1..n//2
    (descending): the negative half is the exact mirror, and an odd count puts
    an exact zero in the middle."""
    _check_precision(precision_bits)
    if n < 1:
        raise ValueError("n must be >= 1")
    wp = precision_bits + 8
    half = [
        ApFloat(mpf_pos(_cos_pi(num(i), den, wp), precision_bits, _RND), precision_bits)
        for i in range(1, n // 2 + 1)
    ]
    middle = [ApFloat(0, precision_bits)] * (n % 2)
    points = tuple([-v for v in half] + middle + half[::-1])
    return KnotSet(family=family, n=n, points=points, precision_bits=precision_bits)


def chebyshev1_knots(n: int, precision_bits: int) -> KnotSet:
    """Roots of T_n: cos((2i-1) pi / (2n)), i = 1..n, in ascending order."""
    return _cosine_knots("chebyshev1", n, precision_bits, lambda i: 2 * i - 1, 2 * n)


def chebyshev2_knots(n: int, precision_bits: int) -> KnotSet:
    """Roots of U_n: cos(i pi / (n+1)), i = 1..n, in ascending order."""
    return _cosine_knots("chebyshev2", n, precision_bits, lambda i: i, n + 1)


def equispaced_knots(n: int, a: Fraction, b: Fraction, precision_bits: int) -> KnotSet:
    """n equally spaced knots x_i = a + (i-1)(b-a)/(n-1) on [a, b]."""
    _check_precision(precision_bits)
    a, b = Fraction(a), Fraction(b)
    if n < 2:
        raise ValueError("equispaced knots need n >= 2")
    if not a < b:
        raise ValueError("need a < b")
    step = (b - a) / (n - 1)
    points = tuple(ApFloat(a + i * step, precision_bits) for i in range(n))
    return KnotSet(family="equispaced", n=n, points=points, precision_bits=precision_bits)


# -- Jacobi polynomials ------------------------------------------------------


def _check_jacobi_params(alpha: Fraction, beta: Fraction) -> tuple[Fraction, Fraction]:
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= -1 or beta <= -1:
        raise ValueError("Jacobi parameters must satisfy alpha, beta > -1")
    return alpha, beta


def _jacobi_step_coeffs(alpha: Fraction, beta: Fraction, j: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact coefficients with P_j = (A x + B) P_{j-1} - C P_{j-2}, j >= 1,
    where P_{-1} = 0 and P_0 = 1."""
    s = alpha + beta
    if j == 1:
        return (s + 2) / 2, (alpha - beta) / 2, Fraction(0)
    a1 = 2 * j * (j + s) * (2 * j + s - 2)
    a2 = (2 * j + s - 1) * (alpha * alpha - beta * beta)
    a3 = (2 * j + s - 2) * (2 * j + s - 1) * (2 * j + s)
    a4 = 2 * (j + alpha - 1) * (j + beta - 1) * (2 * j + s)
    return a3 / a1, a2 / a1, a4 / a1


def _raw_step(alpha: Fraction, beta: Fraction, j: int, wp: int) -> tuple:
    """The coefficients of step j, each correctly rounded to a raw mpf at wp bits."""
    return tuple(
        from_rational(c.numerator, c.denominator, wp, _RND)
        for c in _jacobi_step_coeffs(alpha, beta, j)
    )


def _jacobi_value_derivative(steps, x, wp: int):
    """(P_k(x), P_k'(x)) as raw mpf values for k = len(steps), by the
    recurrence pair from P_{-1} = 0 and P_0 = 1."""
    p_prev, d_prev, p_cur, d_cur = fzero, fzero, fone, fzero
    for aj, bj, cj in steps:
        axb = mpf_add(mpf_mul(aj, x, wp, _RND), bj, wp, _RND)
        p_next = mpf_sub(
            mpf_mul(axb, p_cur, wp, _RND), mpf_mul(cj, p_prev, wp, _RND), wp, _RND
        )
        d_next = mpf_sub(
            mpf_add(mpf_mul(aj, p_cur, wp, _RND), mpf_mul(axb, d_cur, wp, _RND), wp, _RND),
            mpf_mul(cj, d_prev, wp, _RND),
            wp,
            _RND,
        )
        p_prev, d_prev, p_cur, d_cur = p_cur, d_cur, p_next, d_next
    return p_cur, d_cur


def jacobi_eval(n: int, alpha: Fraction, beta: Fraction, x: ApFloat) -> tuple[ApFloat, ApFloat]:
    """Value and derivative of the Jacobi polynomial P_n^(alpha,beta) at x."""
    alpha, beta = _check_jacobi_params(alpha, beta)
    if n < 0:
        raise ValueError("n must be >= 0")
    wp = x.precision_bits
    steps = [_raw_step(alpha, beta, j, wp) for j in range(1, n + 1)]
    value, deriv = _jacobi_value_derivative(steps, x.raw, wp)
    return ApFloat(value, wp), ApFloat(deriv, wp)


def _sign(raw) -> int:
    if raw == fzero:
        return 0
    return -1 if raw[0] else 1


def _polish_root(eval_kd, seed, lo, hi, sign_lo, threshold, wp):
    """One safeguarded Newton run inside the bracket (lo, hi), where P has
    the sign sign_lo (+1 or -1) at lo.

    eval_kd(x) -> (P(x), P'(x)) raw pair.  Steps leaving the bracket are
    replaced by bisection; the bracket shrinks with every sign evaluation.
    """
    x = seed
    if not (mpf_lt(lo, x) and mpf_lt(x, hi)):
        x = mpf_shift(mpf_add(lo, hi, wp, _RND), -1)
    for _ in range(_NEWTON_CAP):
        f, d = eval_kd(x)
        sf = _sign(f)
        if sf == 0:
            return x
        if sf == sign_lo:
            lo = x
        else:
            hi = x
        step = mpf_div(f, d, wp, _RND)
        nxt = mpf_sub(x, step, wp, _RND)
        # Test the Newton step before the bracket: once it drops below the
        # threshold the iterate may sit within one ulp of a bracket edge, and
        # bouncing to the midpoint would throw the convergence away.
        if mpf_lt(mpf_abs(step), threshold):
            return nxt
        if not (mpf_lt(lo, nxt) and mpf_lt(nxt, hi)):
            nxt = mpf_shift(mpf_add(lo, hi, wp, _RND), -1)
            if mpf_lt(mpf_abs(mpf_sub(nxt, x, wp, _RND)), threshold):
                return nxt  # bracket has collapsed onto the root
        x = nxt
    raise ConvergenceFailure("Newton iteration exceeded its step cap")


#: Ladder stages kept by _ladder_stage's cache, over all (alpha, beta, wp).
_STAGE_CAP = 512


@functools.lru_cache(maxsize=_STAGE_CAP)
def _ladder_stage(alpha: Fraction, beta: Fraction, k: int, wp: int, threshold_exp: int):
    """(steps, roots) of P_k: the raw recurrence steps 1..k and the k roots,
    ascending, polished until Newton updates drop below 2^threshold_exp.

    The roots of P_{k-1} interlace those of P_k, so stage k - 1 brackets
    every root of stage k; the one root of P_1 is polished inside (-1, 1)
    like any other.  A stage is a pure function of its arguments and
    immutable, so threads may share the cache; a race on a cold stage only
    repeats deterministic work.
    """
    prev_steps, prev_roots = (
        ((), ()) if k == 1 else _ladder_stage(alpha, beta, k - 1, wp, threshold_exp)
    )
    steps = prev_steps + (_raw_step(alpha, beta, k, wp),)
    threshold = mpf_shift(fone, threshold_exp)
    brackets = (fnone, *prev_roots, fone)
    # Bracket j holds root j + 1 of P_k, so k - j roots lie above its lower
    # end, where P_k (positive leading coefficient) has the sign (-1)^(k-j).
    # Knowing it saves one evaluation per root.
    roots = tuple(
        _polish_root(
            lambda x: _jacobi_value_derivative(steps, x, wp),
            _cos_pi(2 * (k - j) - 1, 2 * k, wp),
            brackets[j],
            brackets[j + 1],
            (-1) ** (k - j),
            threshold,
            wp,
        )
        for j in range(k)
    )
    return steps, roots


def gauss_jacobi_knots(n: int, alpha: Fraction, beta: Fraction, precision_bits: int) -> KnotSet:
    """The n roots of P_n^(alpha,beta), refined until Newton updates drop
    below 2^(16 - precision_bits)."""
    _check_precision(precision_bits)
    alpha, beta = _check_jacobi_params(alpha, beta)
    if n < 1:
        raise ValueError("n must be >= 1")
    wp = precision_bits + _ROOT_GUARD_BITS
    # Upward, so a cold stage finds the one below it cached and the
    # recursion never runs deeper than one level.
    for k in range(1, n + 1):
        _, roots = _ladder_stage(alpha, beta, k, wp, 16 - precision_bits)
    points = tuple(ApFloat(mpf_pos(r, precision_bits, _RND), precision_bits) for r in roots)
    return KnotSet(
        family="gauss_jacobi",
        n=n,
        points=points,
        precision_bits=precision_bits,
        alpha=alpha,
        beta=beta,
    )


def make_knots(
    family: str,
    n: int,
    precision_bits: int,
    alpha: Fraction | None = None,
    beta: Fraction | None = None,
    a: Fraction | None = None,
    b: Fraction | None = None,
) -> KnotSet:
    """Dispatch on the family tag; the orthogonal families live on (-1, 1)."""
    if family == "chebyshev1":
        return chebyshev1_knots(n, precision_bits)
    if family == "chebyshev2":
        return chebyshev2_knots(n, precision_bits)
    if family == "equispaced":
        a = Fraction(-1) if a is None else a
        b = Fraction(1) if b is None else b
        return equispaced_knots(n, a, b, precision_bits)
    if family == "gauss_jacobi":
        if alpha is None or beta is None:
            raise ValueError("gauss_jacobi needs alpha and beta")
        return gauss_jacobi_knots(n, alpha, beta, precision_bits)
    raise ValueError(f"unknown knot family {family!r}")
