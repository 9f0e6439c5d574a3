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
s_i (Berrut & Trefethen, SIAM Rev. 46(3), 2004): one Taylor jet of the h_i
at y0, truncated at order p_max, holds every h_i^(p)(y0) for p <= p_max
(Griewank & Walther, Evaluating Derivatives, ch. 13), with l_i(y0 + t) =
w_i prod_{j!=i} (y0 - x_j + t) built from running prefix and suffix products,
so nothing divides by y0 - x_i.  A basis keeps its last jet, so a caller that
asks for the highest order first at each y0 builds one jet per (n, y0).
The knot precision plus 64 + 4n guard bits is the working precision, and
tolerances are stated against the knot precision; the acceptance suite
derives the ulp floor of its 512-bit rerun from that budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    construction's own formula on first access.  _last_jet is the last
    Taylor jet derivative_sum built, as one (y0.raw, p_max, jet, None) or
    (y0.raw, p_max, None, rows 1..p_max) tuple: it is replaced whole, never
    mutated, so a concurrent reader sees either the old one or the new one,
    and a basis holds at most one.
    """

    knots: KnotSet
    weights: tuple[ApFloat, ...]
    slopes: tuple[ApFloat, ...]
    construction: str
    _last_jet: tuple | None = field(default=None, init=False, repr=False)

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
        g0, g1 = fone, fzero  # g_i(t) = g0 + g1 t + O(t^2)
        for xj in xs[:i] + xs[i + 1 :]:
            d = mpf_sub(xi, xj, wp, _RND)
            g0, g1 = mpf_mul(g0, d, wp, _RND), mpf_add(mpf_mul(g1, d, wp, _RND), g0, wp, _RND)
        weights.append(ApFloat(mpf_div(fone, g0, wp, _RND), wp))
        slopes.append(ApFloat(mpf_div(g1, g0, wp, _RND), wp))
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


def _jet(basis: FundamentalBasis, p_max: int, y0: ApFloat) -> tuple:
    """(d, g): d_j = y0 - x_j, and for every i the Taylor coefficients of
    g_i(t) = prod_{j!=i} (d_j + t) up to order q = min(p_max, 2n-1), raw at
    working precision.

    g_i is the prefix j < i times the suffix j > i.  Coefficient k of a
    truncated product reads only coefficients <= k, so it has the same bits
    whatever the truncation order.
    """
    n, wp = basis.n, basis.working_precision_bits
    q = min(p_max, 2 * n - 1)
    d = [mpf_sub(y0.raw, x.raw, wp, _RND) for x in basis.knots.points]
    prefix = [[fone] + [fzero] * q]
    for dj in d[:-1]:
        prefix.append(_times_linear(prefix[-1], dj, wp))
    suffix, g = prefix[0], [None] * n
    for i in reversed(range(n)):
        g[i] = tuple(_coeff(prefix[i], suffix, k, wp) for k in range(q + 1))
        suffix = _times_linear(suffix, d[i], wp)
    return tuple(d), tuple(g)


def _jet_values(basis: FundamentalBasis, jet: tuple, orders: Sequence[int]) -> tuple:
    """One row per p in orders (ascending): h_i^(p)(y0) = p! [t^p] h_i(y0 + t)
    for every i, raw at working precision.

    h_i(y0 + t) = w_i^2 g_i(t)^2 (1 - 2 s_i (d_i + t)), and row p reads
    [t^p] and [t^(p-1)] of g_i^2, each formed once however many rows read it.
    Every h_i has degree <= 2n-1, so rows above that are exact zeros.
    """
    n, wp = basis.n, basis.working_precision_bits
    d, gs = jet
    ks = range(max(orders[0] - 1, 0), min(orders[-1] + 1, len(gs[0])))
    rows = [[fzero] * n for _ in orders]
    for i, g in enumerate(gs):
        two_s = mpf_shift(basis.slopes[i].raw, 1)
        a = mpf_sub(fone, mpf_mul(two_s, d[i], wp, _RND), wp, _RND)
        w2 = mpf_mul(basis.weights[i].raw, basis.weights[i].raw, wp, _RND)
        g2 = {k: _coeff(g, g, k, wp) for k in ks}
        for row, p in zip(rows, orders):
            if p not in g2:
                continue
            val = mpf_mul(a, g2[p], wp, _RND)
            if p:
                val = mpf_sub(val, mpf_mul(two_s, g2[p - 1], wp, _RND), wp, _RND)
            row[i] = mpf_mul_int(mpf_mul(val, w2, wp, _RND), math.factorial(p), wp, _RND)
    return tuple(map(tuple, rows))


def interpolate(basis: FundamentalBasis, values: Sequence[ApFloat], x: ApFloat) -> ApFloat:
    """Evaluate sum_i h_i(x) * values_i (the interpolation operator at x)."""
    if len(values) != basis.n:
        raise LengthMismatch(f"{len(values)} values for {basis.n} knots")
    wp = basis.working_precision_bits
    acc = fzero
    (row,) = _jet_values(basis, _jet(basis, 0, x), (0,))
    for h, v in zip(row, values):
        acc = mpf_add(acc, mpf_mul(h, v.raw, wp, _RND), wp, _RND)
    return ApFloat(mpf_pos(acc, basis.precision_bits, _RND), basis.precision_bits)


def derivative_sum(
    basis: FundamentalBasis, p: int, y0: ApFloat
) -> tuple[ApFloat, list[ApFloat]]:
    """All h_i^(p)(y0) and their sum, which vanishes identically for p >= 1.

    terms_i is h_i^(p)(y0) from the Taylor jet at y0, rounded to the knot
    precision; residual is the ordered sum of the unrounded terms.  The sum of
    the h_i is identically 1 for any knot set, so every p >= 1 drives the
    residual to pure rounding noise.  p = 0 is rejected: there the sum is 1,
    not 0.

    The basis keeps the last jet it built.  A call at the same y0 and an order
    <= the jet's reads it instead of building a new one: the first such call
    turns the jet into its rows for every order at once, and later calls read
    their row.  A caller that asks for one order per y0 pays for no rows it
    does not read.  The bits are the same on every route.
    """
    if p < 1:
        raise ValueError("derivative order p must be >= 1")
    slot = basis._last_jet
    if slot is not None and slot[0] == y0.raw and slot[1] >= p:
        _, p_max, jet, table = slot
        if table is None:
            table = _jet_values(basis, jet, range(1, p_max + 1))
            basis._last_jet = (y0.raw, p_max, None, table)
        row = table[p - 1]
    else:
        jet = _jet(basis, p, y0)
        basis._last_jet = (y0.raw, p, jet, None)
        (row,) = _jet_values(basis, jet, (p,))
    wp = basis.working_precision_bits
    out_prec = basis.precision_bits
    terms = []
    acc = fzero
    for val in row:
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
