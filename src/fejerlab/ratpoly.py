"""Exact univariate polynomial algebra over arbitrary-precision rationals.

Coefficients are `fractions.Fraction` values, which are always stored in
canonical form (positive denominator, gcd-reduced).  A polynomial is a dense
tuple of coefficients, constant term first; the zero polynomial is the empty
tuple and has degree -1 by convention.  Everything here is exact: no epsilon
appears anywhere in this module.

The loops that evaluate, interpolate and form power sums run on Python
integers over common denominators, and one Fraction is built per returned
value; a Fraction reduces by a gcd after every operation, which is where
the time of an exact loop on Fractions goes.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


class NotOdd(ValueError):
    """An integer parameter required to be odd is not."""


class DuplicateAbscissa(ValueError):
    """Interpolation abscissae must be pairwise distinct."""


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be Fraction or int, got {type(c).__name__}")


class RatPoly:
    """Dense polynomial with exact rational coefficients.

    >>> RatPoly([0, -3, 0, 4])
    RatPoly('4x^3 - 3x')
    >>> RatPoly([1, 1]) * RatPoly([-1, 1])
    RatPoly('x^2 - 1')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: RatPoly) -> RatPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return RatPoly(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
        if not isinstance(other, RatPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def evaluate(self, x: Fraction | int) -> Fraction:
        """Exact Horner evaluation; returns 0 for the zero polynomial.

        With x = u/v and D the common denominator of the coefficients, the
        Horner loop runs on the integers D c_k and returns the one Fraction
        (sum_k D c_k u^k v^(d-k)) / (D v^d), d the degree.
        """
        x = _as_fraction(x)
        if not self.coeffs:
            return Fraction(0)
        u, v = x.numerator, x.denominator
        den = math.lcm(*(c.denominator for c in self.coeffs))
        acc, v_power = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * u + c.numerator * (den // c.denominator) * v_power
            v_power *= v
        return Fraction(acc, den * v**self.degree)

    def derivative(self, p: int = 1) -> RatPoly:
        """Exact p-th derivative via coefficient shifting.

        Coefficient k of the result is coeff_{k+p} * (k+p)!/k!; p = 0 is the
        identity map.
        """
        if p < 0:
            raise ValueError("derivative order must be >= 0")
        if p == 0:
            return self
        if p > self.degree:
            return RatPoly()
        return RatPoly(
            [self.coeffs[k + p] * math.perm(k + p, p) for k in range(len(self.coeffs) - p)]
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "RatPoly('0')"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = " - " if c < 0 else (" + " if parts else "")
            mag = abs(c)
            var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            num = "" if (mag == 1 and var) else str(mag)
            parts.append(f"{sign}{num}{var}")
        return f"RatPoly('{''.join(parts)}')"


def _chebyshev_walk(n: int, top: int) -> list[int]:
    """The coefficients c_j of T_n with j = n mod 2, n mod 2 + 2, ..., up to
    min(top, n), bottom-up.

    T_n solves (1 - x^2) T'' - x T' + n^2 T = 0.  Comparing the coefficients
    of x^j gives the two-term ratio

        c_(n mod 2) = (-1)^floor(n/2) * (n if n is odd else 1),
        c_(j+2)     = c_j (j - n)(j + n) / ((j + 1)(j + 2)),

    and every c_j with j of the other parity from n is 0.  Each c_j is an
    integer, so every division is exact in integers.  The walk costs one step
    per coefficient read, so c_1..c_(2m+1) of an odd T_n cost O(m) steps
    whatever n is.
    """
    first = n % 2
    c = (-1) ** (n // 2) * (n if first else 1)
    out = [c]
    for j in range(first, min(top, n) - 1, 2):
        c = c * (j - n) * (j + n) // ((j + 1) * (j + 2))
        out.append(c)
    return out


def chebyshev_T(n: int) -> RatPoly:
    """Chebyshev polynomial of the first kind, from its differential equation.

    The coefficient walk of `_chebyshev_walk` runs bottom-up from c_(n mod 2)
    to the top coefficient c_n = 2^(n-1) (Mason & Handscomb, *Chebyshev
    Polynomials*, 2003, for the ODE); the tests check the result against the
    three-term recurrence T_{k+1} = 2x T_k - T_{k-1}.  No T_k with k < n is
    built.  T_0 = 1.
    """
    if n < 0:
        raise ValueError("chebyshev_T needs n >= 0")
    coeffs = [0] * (n + 1)
    coeffs[n % 2 :: 2] = _chebyshev_walk(n, n)
    return RatPoly(coeffs)


def newton_power_sums(a: RatPoly, m_max: int) -> list[Fraction]:
    """Power sums p_1..p_{m_max} of the roots of a, via Newton's identities.

    Roots are counted with multiplicity.  The coefficient-form recurrence is
    used directly, so a need not be monic:  with e_i the elementary symmetric
    functions, e_i = (-1)^i c_{d-i} / c_d, and

        p_k = sum_{i=1}^{min(k-1,d)} (-1)^(i-1) e_i p_{k-i}
              + (k <= d) * (-1)^(k-1) k e_k.

    p_1..p_{m_max} read e_i only for i <= min(m_max, d), so only the top
    min(m_max, d) + 1 coefficients are read.  They are scaled to integers
    b_i = L c_{d-i} by their common denominator L; then with lead = b_0,
    P_k = lead^k p_k is an integer,

        P_k = -sum_{i=1}^{min(k-1,d)} b_i lead^(i-1) P_{k-i}
              - (k <= d) k b_k lead^(k-1),

    and one Fraction P_k / lead^k is built per output at the end.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    d = a.degree
    if d < 1:
        raise ValueError("need a nonzero polynomial of degree >= 1")
    top = a.coeffs[d - min(m_max, d) :][::-1]
    scale = math.lcm(*(c.denominator for c in top))
    b = [c.numerator * (scale // c.denominator) for c in top]
    return [Fraction(P_k, b[0] ** k) for k, P_k in enumerate(_integer_power_sums(b, m_max), 1)]


def _integer_power_sums(b: list[int], m_max: int) -> list[int]:
    """The integers P_k = b_0^k p_k, k = 1..m_max, where p_k are the power
    sums of the roots of a polynomial of degree d given by its top
    min(m_max, d) + 1 coefficients b_0, b_1, ..., integers with b_0 != 0
    (see `newton_power_sums`).  Since those are all that p_1..p_{m_max}
    read, len(b) - 1 stands in for d."""
    d = len(b) - 1
    lead = b[0]
    # q_i = b_i lead^(i-1), the weight of P_{k-i} in P_k
    q = [0] + [b[i] * lead ** (i - 1) for i in range(1, len(b))]
    P = [1]
    for k in range(1, m_max + 1):
        acc = sum(q[i] * P[k - i] for i in range(1, min(k - 1, d) + 1))
        if k <= d:
            acc += k * q[k]
        P.append(-acc)
    return P[1:]


def rational_interpolate(points: Sequence[tuple[Fraction | int, Fraction | int]]) -> RatPoly:
    """Exact interpolating polynomial of degree < len(points).

    Raises DuplicateAbscissa when two abscissae coincide.  The work is done
    on integers, fraction-free in the manner of Bareiss (Math. Comp. 22,
    1968): with t = s x and s, r the lcm of the denominators of the abscissae
    and of the ordinates, the integer values r y_i are interpolated at the
    integer nodes t_i.  Newton's divided differences keep each column as
    integer numerators over one common denominator, which takes the lcm of
    the column's node gaps and is gcd-reduced once per column.  The Newton
    form goes to monomial coefficients by nested multiplication on integers
    over the lcm of those denominators, and coefficient k of the result is
    one Fraction, that integer times s^k over the denominator times r.
    """
    xs = [_as_fraction(x) for x, _ in points]
    ys = [_as_fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("abscissae must be pairwise distinct")
    if not xs:
        return RatPoly()
    s = math.lcm(*(x.denominator for x in xs))
    r = math.lcm(*(y.denominator for y in ys))
    ts = [x.numerator * (s // x.denominator) for x in xs]
    column = [y.numerator * (r // y.denominator) for y in ys]
    den = 1
    newton = [(column[0], den)]
    for j in range(1, len(ts)):
        # column j holds entries j.., its entry i from entries i-1, i of column j-1
        gaps = [ts[i] - ts[i - j] for i in range(j, len(ts))]
        step = math.lcm(*gaps)
        column = [(hi - lo) * (step // gap) for lo, hi, gap in zip(column, column[1:], gaps)]
        den *= step
        g = math.gcd(den, *column)
        column = [c // g for c in column]
        den //= g
        newton.append((column[0], den))
    # acc <- acc * (t - t_j) + c_j from the top coefficient down, over `common`
    common = math.lcm(*(d for _, d in newton))
    acc: list[int] = []
    for t, (num, d) in zip(reversed(ts), reversed(newton)):
        acc = [shifted - t * c for shifted, c in zip([0] + acc, acc + [0])]
        acc[0] += num * (common // d)
    out, s_power = [], 1
    for c in acc:
        out.append(Fraction(c * s_power, common * r))
        s_power *= s
    return RatPoly(out)


def format_rational(q: Fraction) -> str:
    """Canonical "num/den" serialization used in all machine-readable output."""
    return f"{q.numerator}/{q.denominator}"
