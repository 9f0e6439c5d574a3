"""Test-side references that the library itself no longer calls.

jacobi_eval runs the three-term recurrence for (P_n, P_n') in libmp, one
rounding per operation.  It shares only the integer step coefficients with
the root solver in fejerlab.knots, which evaluates in fixed point and reads
P_n' from an identity, so it serves as the solver's oracle.  pow2 writes
tolerances as exact powers of two.  rational_interpolate is Newton's divided
differences on Fraction values, reduced after every operation; the library's
integer version must return the same polynomial.
"""
from __future__ import annotations

from fractions import Fraction

from mpmath.libmp import (
    fone,
    from_int,
    from_rational,
    fzero,
    mpf_add,
    mpf_mul,
    mpf_shift,
    mpf_sub,
)

from fejerlab.apnum import _RND, ApFloat
from fejerlab.knots import _check_jacobi_params, _integer_steps
from fejerlab.ratpoly import DuplicateAbscissa, RatPoly, _as_fraction


def jacobi_eval(n: int, alpha: Fraction, beta: Fraction, x: ApFloat) -> tuple[ApFloat, ApFloat]:
    """Value and derivative of the Jacobi polynomial P_n^(alpha,beta) at x."""
    alpha, beta = _check_jacobi_params(alpha, beta)
    if n < 0:
        raise ValueError("n must be >= 0")
    wp = x.precision_bits
    # The recurrence pair for (P_k, P_k') from P_{-1} = 0 and P_0 = 1, each
    # step coefficient correctly rounded to wp bits.
    value_prev, deriv_prev, value, deriv = fzero, fzero, fone, fzero
    for a, b, c, den in _integer_steps(alpha, beta, n):
        a, b, c = (from_rational(v, den, wp, _RND) for v in (a, b, c))
        axb = mpf_add(mpf_mul(a, x.raw, wp, _RND), b, wp, _RND)
        value_prev, deriv_prev, value, deriv = (
            value,
            deriv,
            mpf_sub(mpf_mul(axb, value, wp, _RND), mpf_mul(c, value_prev, wp, _RND), wp, _RND),
            mpf_sub(
                mpf_add(mpf_mul(a, value, wp, _RND), mpf_mul(axb, deriv, wp, _RND), wp, _RND),
                mpf_mul(c, deriv_prev, wp, _RND),
                wp,
                _RND,
            ),
        )
    return ApFloat._wrap(value, wp), ApFloat._wrap(deriv, wp)


def pow2(k: int, precision_bits: int) -> ApFloat:
    """The exact power 2^k as an ApFloat (used for tolerances)."""
    return ApFloat._wrap(mpf_shift(from_int(1), k), precision_bits)


def rational_interpolate(points) -> RatPoly:
    """Exact interpolating polynomial of degree < len(points).

    Newton's divided differences over the rationals; raises DuplicateAbscissa
    when two abscissae coincide.
    """
    xs = [_as_fraction(x) for x, _ in points]
    ys = [_as_fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("abscissae must be pairwise distinct")
    if not xs:
        return RatPoly()
    dd = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    # Newton form by nested multiplication, from the top coefficient down.
    poly = RatPoly()
    for x, c in zip(reversed(xs), reversed(dd)):
        poly = poly * RatPoly([-x, 1]) + RatPoly([c])
    return poly
