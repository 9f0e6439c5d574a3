"""Hermite-Fejer fundamental polynomials on arbitrary knots.

For knots x_1 < ... < x_n the fundamental polynomials h_i are the unique
degree <= 2n-1 polynomials with h_i(x_j) = delta_ij and h_i'(x_j) = 0 for all
j.  In terms of the Lagrange basis l_i,

    h_i(x) = l_i(x)^2 * (1 - 2 s_i (x - x_i)),    s_i = l_i'(x_i),

and on Chebyshev knots of the first kind there is the closed form

    h_i(x) = (1/n^2) [T_n(x) / (x - x_i)]^2 (1 - x x_i).

Both constructions are provided as dense coefficients, built on request as
the reference the tests compare against; they must agree.  Evaluation needs
only the barycentric weights w_i = 1 / prod_{j!=i} (x_i - x_j) and the slopes
s_i (Berrut & Trefethen, SIAM Rev. 46(3), 2004): every h_i^(p)(y0) is read
off the Taylor jet of h_i at y0 truncated at order p (Griewank & Walther,
Evaluating Derivatives, ch. 13), with l_i(y0 + t) = w_i prod_{j!=i} (y0 - x_j
+ t) built from running prefix and suffix products, so nothing divides by
y0 - x_i.  The knot precision plus 64 + 4n guard bits is the working
precision, and tolerances are stated against the knot precision; the
acceptance suite derives the ulp floor of its 512-bit rerun from that budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from mpmath.libmp import fone, fzero, mpf_add, mpf_div, mpf_mul, mpf_mul_int, mpf_pos, mpf_shift
from mpmath.libmp import mpf_sub, round_nearest

from .apnum import ApFloat, NumPoly, max_abs
from .knots import KnotSet, chebyshev1_knots
from .ratpoly import chebyshev_T

_RND = round_nearest


class LengthMismatch(ValueError):
    """The number of sample values does not match the number of knots."""


def _guarded_precision(knots: KnotSet) -> int:
    return knots.precision_bits + 64 + 4 * knots.n


def _deflate(poly: NumPoly, root: ApFloat) -> NumPoly:
    """Quotient of poly by (x - root), dropping the remainder.

    Synthetic division from the top coefficient down; the remainder is
    poly(root), which is ~0 whenever root is (a rounding of) a root.
    """
    raws = poly._raw
    wp = poly.precision_bits
    if len(raws) < 2:
        return NumPoly([], wp)
    out = [fzero] * (len(raws) - 1)
    acc = raws[-1]
    out[-1] = acc
    for k in range(len(raws) - 2, 0, -1):
        acc = mpf_add(raws[k], mpf_mul(root.raw, acc, wp, _RND), wp, _RND)
        out[k - 1] = acc
    return NumPoly(out, wp)


@dataclass(eq=False)
class FundamentalBasis:
    """The n fundamental polynomials h_i bound to their knot set.

    weights and slopes hold w_i and s_i at the working precision; they are
    all that evaluation needs.  h, the dense coefficients, is built from the
    construction's own formula on first access.
    """

    knots: KnotSet
    weights: tuple[ApFloat, ...]
    slopes: tuple[ApFloat, ...]
    construction: str

    @property
    def n(self) -> int:
        return self.knots.n

    @property
    def precision_bits(self) -> int:
        """The requested (knot) precision; tolerances are stated against it."""
        return self.knots.precision_bits

    @property
    def working_precision_bits(self) -> int:
        return _guarded_precision(self.knots)

    @cached_property
    def h(self) -> tuple[NumPoly, ...]:
        """Dense coefficients of every h_i: the reference construction."""
        closed = self.construction == "chebyshev_closed_form"
        return (_closed_form_h if closed else _general_h)(self.knots)


def lagrange_basis(knots: KnotSet) -> list[NumPoly]:
    """Lagrange cardinal polynomials l_i = omega / ((x - x_i) omega'(x_i)).

    omega'(x_i) is obtained by evaluating the differentiated node polynomial;
    the product-of-differences form is kept out of the code path and used only
    as an independent oracle in the tests.
    """
    wp = _guarded_precision(knots)
    one = ApFloat(1, wp)
    omega = NumPoly([one], wp)
    for x in knots.points:
        omega = omega * NumPoly([-x, one], wp)
    omega_d = omega.derivative()
    basis = []
    for x in knots.points:
        quotient = _deflate(omega, x)
        basis.append(quotient.scale(one / omega_d.evaluate(x)))
    return basis


def _general_h(knots: KnotSet) -> tuple[NumPoly, ...]:
    """Dense h_i = l_i^2 (1 - 2 l_i'(x_i)(x - x_i)) from the Lagrange basis."""
    wp = _guarded_precision(knots)
    one = ApFloat(1, wp)
    hs = []
    for x, l in zip(knots.points, lagrange_basis(knots)):
        slope = l.derivative().evaluate(x)
        linear = NumPoly([one + (slope * x).scale2(1), -slope.scale2(1)], wp)
        hs.append((l * l) * linear)
    return tuple(hs)


def _closed_form_h(knots: KnotSet) -> tuple[NumPoly, ...]:
    """Dense h_i = (1/n^2) [T_n/(x - x_i)]^2 (1 - x x_i) on Chebyshev knots."""
    wp = _guarded_precision(knots)
    tn = NumPoly.from_ratpoly(chebyshev_T(knots.n), wp)
    one = ApFloat(1, wp)
    inv_n2 = one / ApFloat(knots.n ** 2, wp)
    hs = []
    for x in knots.points:
        quotient = _deflate(tn, x)
        hs.append(((quotient * quotient) * NumPoly([one, -x], wp)).scale(inv_n2))
    return tuple(hs)


def hermite_fejer_basis(knots: KnotSet) -> FundamentalBasis:
    """General-knots construction, O(n^2): g_i(t) = prod_{j!=i} (x_i - x_j + t)
    to order 1 gives w_i = 1/g_i(0) and s_i = l_i'(x_i) = g_i'(0)/g_i(0)."""
    wp = _guarded_precision(knots)
    xs = [x.raw for x in knots.points]
    weights, slopes = [], []
    for i, xi in enumerate(xs):
        g = [fone, fzero]
        for xj in xs[:i] + xs[i + 1 :]:
            g = _times_linear(g, mpf_sub(xi, xj, wp, _RND), wp)
        weights.append(ApFloat(mpf_div(fone, g[0], wp, _RND), wp))
        slopes.append(ApFloat(mpf_div(g[1], g[0], wp, _RND), wp))
    return FundamentalBasis(knots, tuple(weights), tuple(slopes), "general")


def chebyshev_closed_form(n: int, precision_bits: int) -> FundamentalBasis:
    """Chebyshev-knot basis whose dense h_i come from the closed form
    (1/n^2) [T_n/(x - x_i)]^2 (1 - x x_i)."""
    basis = hermite_fejer_basis(chebyshev1_knots(n, precision_bits))
    return replace(basis, construction="chebyshev_closed_form")


def _times_linear(jet: list, d, wp: int) -> list:
    """jet(t) * (d + t), truncated to the length of jet."""
    shifted = [fzero] + jet
    return [mpf_add(mpf_mul(c, d, wp, _RND), shifted[k], wp, _RND) for k, c in enumerate(jet)]


def _coeff(a: list, b: list, k: int, wp: int):
    """[t^k] of a(t) * b(t)."""
    acc = fzero
    for m in range(k + 1):
        acc = mpf_add(acc, mpf_mul(a[m], b[k - m], wp, _RND), wp, _RND)
    return acc


def _jet_values(basis: FundamentalBasis, p: int, y0: ApFloat) -> list:
    """h_i^(p)(y0) = p! [t^p] h_i(y0 + t) for every i, raw at working precision.

    With d_j = y0 - x_j, g_i(t) = prod_{j!=i} (d_j + t) is the prefix j < i
    times the suffix j > i, and h_i(y0 + t) = w_i^2 g_i^2 (1 - 2 s_i (d_i + t)).
    Every h_i has degree <= 2n-1, so higher orders are exact zeros.
    """
    n, wp = basis.n, basis.working_precision_bits
    if p > 2 * n - 1:
        return [fzero] * n
    d = [mpf_sub(y0.raw, x.raw, wp, _RND) for x in basis.knots.points]
    prefix = [[fone] + [fzero] * p]
    for dj in d[:-1]:
        prefix.append(_times_linear(prefix[-1], dj, wp))
    suffix, out = prefix[0], [fzero] * n
    for i in reversed(range(n)):
        g = [_coeff(prefix[i], suffix, k, wp) for k in range(p + 1)]
        two_s = mpf_shift(basis.slopes[i].raw, 1)
        a = mpf_sub(fone, mpf_mul(two_s, d[i], wp, _RND), wp, _RND)
        val = mpf_mul(a, _coeff(g, g, p, wp), wp, _RND)
        if p:
            val = mpf_sub(val, mpf_mul(two_s, _coeff(g, g, p - 1, wp), wp, _RND), wp, _RND)
        w2 = mpf_mul(basis.weights[i].raw, basis.weights[i].raw, wp, _RND)
        out[i] = mpf_mul_int(mpf_mul(val, w2, wp, _RND), math.factorial(p), wp, _RND)
        suffix = _times_linear(suffix, d[i], wp)
    return out


def interpolate(basis: FundamentalBasis, values: Sequence[ApFloat], x: ApFloat) -> ApFloat:
    """Evaluate sum_i h_i(x) * values_i (the interpolation operator at x)."""
    if len(values) != basis.n:
        raise LengthMismatch(f"{len(values)} values for {basis.n} knots")
    wp = basis.working_precision_bits
    acc = fzero
    for h, v in zip(_jet_values(basis, 0, x), values):
        acc = mpf_add(acc, mpf_mul(h, v.raw, wp, _RND), wp, _RND)
    return ApFloat(mpf_pos(acc, basis.precision_bits, _RND), basis.precision_bits)


def derivative_sum(
    basis: FundamentalBasis, p: int, y0: ApFloat
) -> tuple[ApFloat, list[ApFloat]]:
    """All h_i^(p)(y0) and their sum, which vanishes identically for p >= 1.

    terms_i is h_i^(p)(y0) from the order-p Taylor jet, rounded to the knot
    precision; residual is the ordered sum of the unrounded terms.  The sum of
    the h_i is identically 1 for any knot set, so every p >= 1 drives the
    residual to pure rounding noise.  p = 0 is rejected: there the sum is 1,
    not 0.
    """
    if p < 1:
        raise ValueError("derivative order p must be >= 1")
    wp = basis.working_precision_bits
    out_prec = basis.precision_bits
    terms = []
    acc = fzero
    for val in _jet_values(basis, p, y0):
        acc = mpf_add(acc, val, wp, _RND)
        terms.append(ApFloat(mpf_pos(val, out_prec, _RND), out_prec))
    residual = ApFloat(mpf_pos(acc, out_prec, _RND), out_prec)
    return residual, terms


def scaled_tolerance(values: Sequence[ApFloat], precision_bits: int) -> ApFloat:
    """tau = max(1, max_i |values_i|) * 2^(40 - precision_bits).

    Judged against the data scale: the individual terms of a vanishing sum
    grow with n while the sum cancels, so absolute comparison would be
    meaningless.
    """
    m = max_abs(values)
    one = ApFloat(1, precision_bits)
    if m is None or m < one:
        m = one
    return ApFloat(mpf_shift(m.raw, 40 - precision_bits), precision_bits)
