"""Knot-system generators: Chebyshev (first and second kind), equispaced,
and Gauss-Jacobi points at arbitrary precision.

Jacobi knots are the roots of the Jacobi polynomial P_n^(alpha,beta), found by
Newton iteration on the three-term recurrence.  Robustness comes from the
interlacing ladder: the roots of consecutive degrees strictly interlace, so
each stage brackets every root of the next inside an interval with a known
sign change, and Newton falls back to bisection whenever it steps outside its
bracket.  No external root finder is involved.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import (
    fnone,
    fone,
    from_int,
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
    round_nearest,
)

from .apnum import ApFloat, _check_precision, pow2

_RND = round_nearest

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
    endpoints: tuple[Fraction, Fraction] | None = None

    def __post_init__(self):
        if self.n != len(self.points) or self.n < 1:
            raise ValueError("n must equal the number of points and be >= 1")
        gap_floor = pow2(16 - self.precision_bits, self.precision_bits)
        for lo, hi in zip(self.points, self.points[1:]):
            if not hi - lo > gap_floor:
                raise KnotSpacingError(
                    f"knot gap at most 2^{16 - self.precision_bits} in family {self.family}"
                )


def _mirrored_knotset(family: str, n: int, precision_bits: int, positive_half) -> KnotSet:
    """Assemble a symmetric knot set from its positive half (descending order).

    The negative half is the exact mirror, and an odd count puts an exact zero
    in the middle.
    """
    zero = ApFloat(0, precision_bits)
    ascending = [-v for v in positive_half]
    if n % 2 == 1:
        ascending.append(zero)
    ascending.extend(reversed(positive_half))
    return KnotSet(family=family, n=n, points=tuple(ascending), precision_bits=precision_bits)


def chebyshev1_knots(n: int, precision_bits: int) -> KnotSet:
    """Roots of T_n: cos((2i-1) pi / (2n)), i = 1..n, in ascending order."""
    _check_precision(precision_bits)
    if n < 1:
        raise ValueError("n must be >= 1")
    wp = precision_bits + 8
    pi_raw = mpf_pi(wp, _RND)
    half = []
    for i in range(1, n // 2 + 1):
        angle = mpf_div(mpf_mul_int(pi_raw, 2 * i - 1, wp, _RND), from_int(2 * n), wp, _RND)
        half.append(ApFloat(mpf_pos(mpf_cos(angle, wp, _RND), precision_bits, _RND), precision_bits))
    return _mirrored_knotset("chebyshev1", n, precision_bits, half)


def chebyshev2_knots(n: int, precision_bits: int) -> KnotSet:
    """Roots of U_n: cos(i pi / (n+1)), i = 1..n, in ascending order."""
    _check_precision(precision_bits)
    if n < 1:
        raise ValueError("n must be >= 1")
    wp = precision_bits + 8
    pi_raw = mpf_pi(wp, _RND)
    half = []
    for i in range(1, n // 2 + 1):
        angle = mpf_div(mpf_mul_int(pi_raw, i, wp, _RND), from_int(n + 1), wp, _RND)
        half.append(ApFloat(mpf_pos(mpf_cos(angle, wp, _RND), precision_bits, _RND), precision_bits))
    return _mirrored_knotset("chebyshev2", n, precision_bits, half)


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
    return KnotSet(
        family="equispaced", n=n, points=points, precision_bits=precision_bits, endpoints=(a, b)
    )


# -- Jacobi polynomials ------------------------------------------------------


def _check_jacobi_params(alpha: Fraction, beta: Fraction) -> tuple[Fraction, Fraction]:
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= -1 or beta <= -1:
        raise ValueError("Jacobi parameters must satisfy alpha, beta > -1")
    return alpha, beta


def _jacobi_linear_coeffs(alpha: Fraction, beta: Fraction) -> tuple[Fraction, Fraction]:
    # P_1 = A1*x + B1
    return (alpha + beta + 2) / 2, (alpha - beta) / 2


def _jacobi_step_coeffs(alpha: Fraction, beta: Fraction, j: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact coefficients with P_j = (A x + B) P_{j-1} - C P_{j-2}, j >= 2."""
    s = alpha + beta
    a1 = 2 * j * (j + s) * (2 * j + s - 2)
    a2 = (2 * j + s - 1) * (alpha * alpha - beta * beta)
    a3 = (2 * j + s - 2) * (2 * j + s - 1) * (2 * j + s)
    a4 = 2 * (j + alpha - 1) * (j + beta - 1) * (2 * j + s)
    return a3 / a1, a2 / a1, a4 / a1


def _raw_coeff(q: Fraction, wp: int):
    return ApFloat(q, wp).raw


def _jacobi_value_derivative(step_raws, lin_raws, k: int, x, wp: int):
    """(P_k(x), P_k'(x)) as raw mpf values, by the recurrence pair."""
    if k == 0:
        return fone, fzero
    a1, b1 = lin_raws
    p_prev, d_prev = fone, fzero
    p_cur = mpf_add(mpf_mul(a1, x, wp, _RND), b1, wp, _RND)
    d_cur = a1
    for j in range(2, k + 1):
        aj, bj, cj = step_raws[j - 2]
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
    lin_raws = tuple(_raw_coeff(c, wp) for c in _jacobi_linear_coeffs(alpha, beta))
    step_raws = [
        tuple(_raw_coeff(c, wp) for c in _jacobi_step_coeffs(alpha, beta, j))
        for j in range(2, n + 1)
    ]
    value, deriv = _jacobi_value_derivative(step_raws, lin_raws, n, x.raw, wp)
    return ApFloat(value, wp), ApFloat(deriv, wp)


def _sign(raw) -> int:
    if raw == fzero:
        return 0
    return -1 if raw[0] else 1


def _chebyshev_seeds(k: int, wp: int):
    """Chebyshev-I angle seeds for the k roots, ascending."""
    pi_raw = mpf_pi(wp, _RND)
    seeds = []
    for j in range(1, k + 1):
        num = 2 * (k - j) + 1
        angle = mpf_div(mpf_mul_int(pi_raw, num, wp, _RND), from_int(2 * k), wp, _RND)
        seeds.append(mpf_cos(angle, wp, _RND))
    return seeds


def _polish_root(eval_kd, seed, lo, hi, threshold, wp):
    """One safeguarded Newton run inside the bracket (lo, hi).

    eval_kd(x) -> (P(x), P'(x)) raw pair.  Steps leaving the bracket are
    replaced by bisection; the bracket shrinks with every sign evaluation.
    """
    f_lo, _ = eval_kd(lo)
    sign_lo = _sign(f_lo)
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


# Ladder cache: (alpha, beta, wp, threshold_exp) -> state whose stages only
# grow.  The dict keeps the _LADDER_CAP most recently used ladders in use
# order, oldest first, and evicts the oldest past the cap.  Lookup, eviction
# and extension run under the lock (two threads would each read a stage the
# other has yet to append); the stage tuple a caller gets back is never mutated.
_LADDER_CAP = 64
_LADDERS: dict = {}
_LADDER_LOCK = threading.Lock()


def _jacobi_root_ladder(alpha: Fraction, beta: Fraction, n: int, wp: int, threshold_exp: int):
    """Roots of P_k for k = 1..n (raw, ascending per stage), built by interlacing."""
    key = (alpha, beta, wp, threshold_exp)
    with _LADDER_LOCK:
        state = _LADDERS.pop(key, None)
        if state is None:
            r1 = _raw_coeff((beta - alpha) / (alpha + beta + 2), wp)
            state = {
                "lin": tuple(_raw_coeff(c, wp) for c in _jacobi_linear_coeffs(alpha, beta)),
                "steps": [],
                "stages": ((r1,),),
            }
        _LADDERS[key] = state
        if len(_LADDERS) > _LADDER_CAP:
            del _LADDERS[next(iter(_LADDERS))]
        threshold = mpf_shift(fone, threshold_exp)
        while len(state["stages"]) < n:
            k = len(state["stages"]) + 1
            while len(state["steps"]) < k - 1:
                j = len(state["steps"]) + 2
                state["steps"].append(
                    tuple(_raw_coeff(c, wp) for c in _jacobi_step_coeffs(alpha, beta, j))
                )
            steps, lin = state["steps"], state["lin"]

            def eval_kd(x, _k=k):
                return _jacobi_value_derivative(steps, lin, _k, x, wp)

            brackets = [fnone, *state["stages"][-1], fone]
            seeds = _chebyshev_seeds(k, wp)
            roots = tuple(
                _polish_root(eval_kd, seeds[i], brackets[i], brackets[i + 1], threshold, wp)
                for i in range(k)
            )
            state["stages"] += (roots,)
        return state["stages"]


def gauss_jacobi_knots(n: int, alpha: Fraction, beta: Fraction, precision_bits: int) -> KnotSet:
    """The n roots of P_n^(alpha,beta), refined until Newton updates drop
    below 2^(16 - precision_bits)."""
    _check_precision(precision_bits)
    alpha, beta = _check_jacobi_params(alpha, beta)
    if n < 1:
        raise ValueError("n must be >= 1")
    wp = precision_bits + _ROOT_GUARD_BITS
    stages = _jacobi_root_ladder(alpha, beta, n, wp, 16 - precision_bits)
    points = tuple(
        ApFloat(mpf_pos(r, precision_bits, _RND), precision_bits) for r in stages[n - 1]
    )
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
