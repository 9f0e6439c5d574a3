"""Exact proofs of the cosecant-sum identity and its second-derivative origin.

For odd n >= 3 the identity

    sum_{k=1}^{(n-1)/2} 2 / sin^2(k pi / n)  =  (n^2 - 1) / 3        (E2)

is established here with zero tolerance.  The route is purely algebraic:
for odd n, T_n(x) = x * W(x^2) where the roots of W are exactly the values
sin^2(k pi / n), k = 1..(n-1)/2.  Reversing W maps those roots to their
reciprocals, and Newton's identities turn the reversed coefficients into the
power sums sum_k 1 / sin^(2m)(k pi / n) as exact rationals.  No epsilon
appears anywhere in this module.

The same machinery reproduces, exactly, the second-derivative balance behind
(E2): on Chebyshev knots of the first kind the fundamental polynomials have
h_i''(0) = 2 / x_i^2 off center and h_mid''(0) = (2/3)(1 - n^2) at the middle
knot, and these cancel because sum_i h_i''(0) = 0.

Nothing here multiplies polynomials, and no check builds all of T_n.  The
coefficients of T_n come from a walk that runs bottom-up from the ratio of its
differential equation and stops at c_(2m+1): Newton's identities read only
e_1..e_m of the reversed W, which come from c_1, c_3, ..., c_(2m+1), so PS(m, n)
costs O(m^2) integer steps whatever n is.  Newton's identities run in
integers, and h_mid''(0) is read off c_1 and c_3.  Only sin2_charpoly builds
the full W, from the same walk run on to c_n.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ratpoly import RatPoly, NotOdd, _chebyshev_walk, _integer_power_sums
from .ratpoly import chebyshev_T, newton_power_sums  # noqa: F401  (bench/tracing.py times both here)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact identity check (holds is exact equality)."""

    n: int
    lhs: Fraction
    rhs: Fraction
    holds: bool


def _check_odd(n: int) -> int:
    if n % 2 == 0:
        raise NotOdd(f"n must be odd, got {n}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return n


def sin2_charpoly(n: int) -> RatPoly:
    """The polynomial whose roots are sin^2(k pi / n), k = 1..(n-1)/2.

    This is W with T_n(x) = x * W(x^2); each root is simple and lies in (0, 1).
    W's coefficients are c_1, c_3, ..., c_n of T_n, read from the walk that
    the proofs read, so T_n itself is not built.
    """
    _check_odd(n)
    return RatPoly(_chebyshev_walk(n, n))


def inverse_power_sum(n: int, m: int) -> Fraction:
    """PS(m, n) = sum_{k=1}^{(n-1)/2} 1 / sin^(2m)(k pi / n), exactly.

    Computed as the m-th power sum of the roots of the reversed charpoly
    (reversal sends each root r to 1/r).  Only the degree-k truncation
    c_1 + c_3 y + ... + c_(2k+1) y^k of W is built, k = min(m, (n-1)/2): its
    reversal has the same e_1..e_k as the reversal of W, and p_1..p_m read no
    e_i with i > min(m, (n-1)/2).  When m > (n-1)/2 the truncation is W.
    """
    _check_odd(n)
    if m < 1:
        raise ValueError("m must be >= 1")
    k = min(m, (n - 1) // 2)
    # the reversal of c_1 + c_3 y + ... + c_(2k+1) y^k has degree k and its
    # coefficients from the top are the walk's c_1, c_3, ..., c_(2k+1)
    walk = _chebyshev_walk(n, 2 * k + 1)
    return Fraction(_integer_power_sums(walk, m)[m - 1], walk[0] ** m)


def verify_cosecant_sum(n: int) -> IdentityReport:
    """Check 2 * PS(1, n) = (n^2 - 1)/3 by exact rational comparison."""
    lhs = 2 * inverse_power_sum(n, 1)
    rhs = Fraction(n * n - 1, 3)
    return IdentityReport(n=n, lhs=lhs, rhs=rhs, holds=lhs == rhs)


def midpoint_second_derivative(n: int) -> Fraction:
    """h_mid''(0) for the middle Chebyshev knot, exactly.

    The middle knot of an odd-n Chebyshev set sits at 0, so the closed form
    collapses to h_mid = (1/n^2) [T_n(x)/x]^2.  With c_j the coefficients of
    T_n, T_n(x)/x = c_1 + c_3 x^2 + O(x^4), so h_mid = (c_1^2 + 2 c_1 c_3 x^2
    + O(x^4)) / n^2 and h_mid''(0) = 4 c_1 c_3 / n^2.  Equals (2/3)(1 - n^2).
    """
    _check_odd(n)
    c1, c3 = _chebyshev_walk(n, 3)
    return Fraction(4 * c1 * c3, n * n)


def second_derivative_balance(n: int) -> tuple[Fraction, Fraction]:
    """The exact split of sum_i h_i''(0) on Chebyshev knots into its two parts.

    Off-center knots contribute sum_{i != mid} 2/x_i^2; the squared nonzero
    knots run over sin^2(k pi / n) twice (once per sign), so the aggregate is
    4 * PS(1, n).  The middle knot contributes h_mid''(0).  The two parts sum
    to exactly 0, which is precisely what forces (E2).
    """
    offcenter = 4 * inverse_power_sum(n, 1)
    midpoint = midpoint_second_derivative(n)
    return offcenter, midpoint
