"""Hermite-Fejer fundamental polynomials on arbitrary knots.

For knots x_1 < ... < x_n the fundamental polynomials h_i are the unique
degree <= 2n-1 polynomials with h_i(x_j) = delta_ij and h_i'(x_j) = 0 for all
j.  In terms of the Lagrange basis l_i,

    h_i(x) = l_i(x)^2 * (1 - 2 s_i (x - x_i)),    s_i = l_i'(x_i),

and on Chebyshev knots of the first kind there is the closed form

    h_i(x) = (1/n^2) [T_n(x) / (x - x_i)]^2 (1 - x x_i).

Evaluation needs only the barycentric weights w_i = 1 / prod_{j!=i}
(x_i - x_j) and the slopes s_i (Berrut & Trefethen, SIAM Rev. 46(3), 2004):
one Taylor jet of the h_i at y0, truncated at order p_max, holds the Taylor
coefficients [t^p] h_i(y0 + t) for p <= p_max (Griewank & Walther,
Evaluating Derivatives, ch. 13), with l_i(y0 + t) = w_i prod_{j!=i}
(y0 - x_j + t) built from running prefix and suffix products, so nothing
divides by y0 - x_i.  There are two readouts of the jet, each applying p!
exactly: derivative_sum rounds every term h_i^(p)(y0) of one order and their
residual, and conjecture's explore reads its off-center aggregate off them
as the residual minus the nearest-knot term; derivative_extremes reads the
orders 1..p_max from one jet, so verify-eq1,
which checks p = 1..p_max at one y0, builds one jet per (n, y0).
The dense coefficients of the h_i, which the tests compare, come from the
same engine: the jet at 0 truncated at 2n-1 holds every [x^p] h_i.  On
Chebyshev knots chebyshev_closed_form(n, bits) is the independent
construction: it builds them from the closed form above, on integers, and
the two must agree.  A basis is a pure function of its knot set and is
cached, bounded like the knot sets, which every family caches too, so a
caller that repeats a knot set builds the set and its basis once.  The one
thing stored between calls beyond that is derivative_extremes' readout: the
(residual, largest, tolerance) triples it returns at each y0 are kept on the
basis, at most _READOUT_ROWS rows per basis, and handed back as they are, so
a caller that repeats a (knot set, y0), as a CLI sweep or a session of checks
does, builds that jet once and rounds, wraps and formats those numbers once:
a kept ApFloat keeps the decimal text of its first str().  derivative_sum
stores nothing.  Rows above 2n-1 are exact zeros: neither readout takes
their p!, and derivative_sum builds no jet for one.

The basis and the jet run on an integer kernel, not on libmp operations.
The knots and y0 are dyadic, so at one common scale 2^L they are exact
integers, and so is every difference x_i - x_j and y0 - x_j.  The knot set
keeps its integer form (KnotSet.ints over 2^KnotSet.scale) from its own
validation, and KnotSet.aligned adds y0 to it, shifting the knot integers
only when y0 needs a finer scale, so no call rebuilds it.  A running
product is a block of Python ints sharing one exponent (block floating
point, Brent & Zimmermann, Modern Computer Arithmetic, 2010, sec. 3.1):
each factor is applied exactly and the block is rounded once to the working
precision plus _BLOCK_GUARD_BITS, from the bit length of its leading
coefficients.  A coefficient of g_i is an exact integer dot product of
prefix and suffix, rounded once with its block.  w_i is folded into that
block once per i, before squaring, in one more block rounding: the block is
then l_i(y0 + t) = w_i g_i(t).  Each coefficient [t^p] h_i(y0 + t) is
formed exactly from s_i, y0 - x_i and that block and kept as an exact
integer pair (V, e), with value V 2^e; a term h_i^(p)(y0) is p! V 2^e.
The term is grouped so that no product has two wide operands: with
a_i = 1 - 2 s_i (y0 - x_i), it is c_p a_i - 2 s_i c_(p-1) for the
coefficients c_k of l_i^2, and _rows multiplies out a_i, forming
c_p - 2 s_i ((y0 - x_i) c_p + c_(p-1)) on one exponent.  Both are the same
exact integer; the regrouped one takes a knot-sized and a slope-sized
product instead of two products by a_i, whose integer is as wide as both.
Only w_i = 1/g_i(0) and s_i = g_i'(0)/g_i(0) are libmp divisions.  Error
model: one rounding per block stage, at relative size 2^-(wp + 32) of the
block's leading coefficients, and none per term.
Measured against an exact rational oracle of the terms on the rounded knots
(tests/exact_oracle.py), the exact terms are within a few ulps of the
working precision at the data scale for n <= 40; one libmp rounding per
operation gave up to about 285 on the same grid.  Beyond that the error
grows with n on equispaced knots (16 ulps at n = 64, 28 at n = 100) and
stays near 2 on Chebyshev knots.  Each term is reported rounded once,
straight to the knot precision.  A residual is the exact sum of its row's
terms on one exponent, rounded once, so it is at most the sum of the terms'
errors times 1 + 2^(1 - knot precision).  Explore's aggregate, the residual
minus the nearest term, is the row's exact off-center sum after the
roundings of those two and of their difference (within 2 ulps of it on the
tests' grid), and exactly 0 where that sum is 0.  verify-eq1 prints only the
residual and a tolerance scaled by the largest |term|, so it reads
derivative_extremes, which rounds just those two numbers per row, taking the
maximum exactly on the row's integers, instead of n terms and the residual.

The working precision is the knot precision plus _GUARD_BITS = 80, whatever
n, and tolerances are stated against the knot precision.  The guard comes
from the error model (a running error analysis in the sense of Higham,
Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.3).  A
tolerance is 2^(40 - prec) at the data scale S = max(1, max |term|), and a
residual is at most E = sum_i |T_i - E_i|, the terms' errors against the
exact terms, so with G guard bits its margin log2(tolerance / |residual|) is
at least 40 + G - log2(E / u), u = 2^-(prec + G) S the ulp of the working
precision.  E / u stays under 2^5 up to n = 100 (chebyshev1 and equispaced,
p <= 8), so G = 80 keeps every margin above 40 + 80 - 5 = 115 bits; the
least margins read 118 to 122 bits at n = 12..200.  A flat 64 costs 16 of those
bits, and a guard that grows with n buys margin that no check reads at the
price of more bits in every integer product.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from operator import mul
from typing import Sequence

from mpmath.libmp import fone, from_int, from_man_exp, fzero, mpf_cmp, mpf_div, mpf_shift

from .apnum import _RND, ApFloat, NumPoly, _check_precision, _man_exp, _renorm, max_abs
from .knots import _KNOT_SET_CAP, KnotSet, chebyshev1_knots
from .ratpoly import _chebyshev_walk


#: Bits an integer block carries beyond the working precision.  The prefix
#: and suffix products cancel when y0 lies among the knots: without these
#: bits the terms were off by up to ~7000 ulps at n = 40 against the exact
#: oracle (libmp, one rounding per operation: ~285); with them, under 7.
_BLOCK_GUARD_BITS = 32

#: Bits the working precision carries beyond the knot precision, whatever n
#: (see the module docstring for the error model they are chosen from).
_GUARD_BITS = 80


#: Rows of derivative_extremes readouts one basis keeps, over all its y0:
#: ten y0 at p_max = 8, a CLI sweep's grid, fit with room to spare.
_READOUT_ROWS = 128


def _guarded_precision(knots: KnotSet) -> int:
    return knots.precision_bits + _GUARD_BITS


class _ReadoutTable:
    """derivative_extremes' readouts by y0.raw, for one basis: each a tuple
    of the (residual, largest, tolerance) triples it returns for the orders
    1, 2, ..., and zero, the one triple of every zero row above 2n-1.  The
    values are immutable and fill their decimal text on their first str(),
    so one table can hand the same objects to every caller.  A row holds
    about 950 bytes at 256 bits once both texts are filled (tracemalloc,
    chebyshev1 n = 30).  At most _READOUT_ROWS rows in all, the oldest
    readout dropped first; one lock guards the dict, so threads that share
    the basis share the table."""

    __slots__ = ("_lock", "_readouts", "zero")

    def __init__(self, precision_bits: int):
        self._lock = threading.Lock()
        self._readouts: dict[tuple, tuple] = {}
        zero = ApFloat._wrap(fzero, precision_bits)
        self.zero = (zero, zero, ApFloat._wrap(_tolerance(fzero, precision_bits), precision_bits))

    def get(self, key: tuple) -> tuple:
        with self._lock:
            return self._readouts.get(key, ())

    def put(self, key: tuple, rows: tuple) -> None:
        """Keep rows as the newest readout of key, unless the table already
        holds one at least as deep (another thread computed it meanwhile) or
        rows alone exceed the budget."""
        if len(rows) > _READOUT_ROWS:
            return
        with self._lock:
            readouts = self._readouts
            if len(readouts.get(key, ())) >= len(rows):
                return
            readouts.pop(key, None)  # reinserted as the newest
            readouts[key] = rows
            total = sum(map(len, readouts.values()))
            while total > _READOUT_ROWS:
                total -= len(readouts.pop(next(iter(readouts))))


@dataclass(frozen=True, eq=False)
class FundamentalBasis:
    """The n fundamental polynomials h_i bound to their knot set.

    weights and slopes hold w_i and s_i, rounded to the working precision,
    as the integer pairs (m, e) with value m 2^e that the kernel reads; they
    are all that evaluation needs.  h, the dense coefficients, is read from
    the Taylor jet on every read and never stored, so a cached basis holds
    O(n) numbers whoever reads it.  The one other thing it stores is
    _readouts, the (residual, largest, tolerance) triples derivative_extremes
    returned at the y0 it was asked for, bounded at _READOUT_ROWS rows and
    guarded by its own lock, so a basis can be shared between threads:
    hermite_fejer_basis hands one cached basis to every caller with an equal
    knot set, and the table goes with the basis when that cache drops it.
    """

    knots: KnotSet
    weights: tuple[tuple[int, int], ...]
    slopes: tuple[tuple[int, int], ...]
    _readouts: _ReadoutTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_readouts", _ReadoutTable(self.precision_bits))

    @property
    def n(self) -> int:
        return self.knots.n

    @property
    def precision_bits(self) -> int:
        """The requested (knot) precision; tolerances are stated against it."""
        return self.knots.precision_bits

    @property
    def working_precision_bits(self) -> int:
        """The knot precision plus _GUARD_BITS, the same at every n; the
        kernel's blocks carry _BLOCK_GUARD_BITS more."""
        return _guarded_precision(self.knots)

    @property
    def h(self) -> tuple[NumPoly, ...]:
        """Dense coefficients of every h_i from one Taylor jet at 0, truncated
        at 2n-1: [x^p] h_i is [t^p] h_i(0 + t), the exact pair that row p
        holds, rounded once to the working precision.  O(n^2) numbers, built
        afresh on each read."""
        n, wp = self.n, self.working_precision_bits
        rows = _rows(self, _jet(self, 2 * n - 1, ApFloat(0, self.precision_bits)), range(2 * n))
        return tuple(NumPoly._wrap([from_man_exp(v, e, wp, _RND) for v, e in col], wp) for col in zip(*rows))


@functools.lru_cache(maxsize=_KNOT_SET_CAP)
def hermite_fejer_basis(knots: KnotSet) -> FundamentalBasis:
    """General-knots construction, O(n^2): g_i(t) = prod_{j!=i} (x_i - x_j + t)
    to order 1 gives w_i = 1/g_i(0) and s_i = l_i'(x_i) = g_i'(0)/g_i(0).

    With the knots as integers X_j / 2^L, every difference X_i - X_j is exact;
    (g0, g1) is a two-int block rounded once per factor.  A basis is a pure
    function of its frozen, value-hashed knot set, so one functools.lru_cache,
    bounded at _KNOT_SET_CAP bases like the knot sets, shares it
    between calls and threads.
    """
    wp = _guarded_precision(knots)
    bits = wp + _BLOCK_GUARD_BITS
    xs, L = knots.ints, knots.scale
    weights, slopes = [], []
    for i, xi in enumerate(xs):
        g0, g1, E = 1, 0, -L * (len(xs) - 1)  # g_i(t) = (g0 + g1 t) 2^E + O(t^2)
        for xj in xs[:i] + xs[i + 1 :]:
            d = xi - xj
            g0, g1 = g0 * d, g1 * d + (g0 << L)
            # _renorm inlined, with the shift read from g0 alone: g0 is never
            # 0, and w_i and s_i need it to full relative precision
            b = g0.bit_length() - bits
            if b > 0:
                half = 1 << (b - 1)
                g0, g1, E = (g0 + half) >> b, (g1 + half) >> b, E + b
        g0, g1 = from_man_exp(g0, E), from_man_exp(g1, E)
        weights.append(_man_exp(mpf_div(fone, g0, wp, _RND)))
        slopes.append(_man_exp(mpf_div(g1, g0, wp, _RND)))
    return FundamentalBasis(knots, tuple(weights), tuple(slopes))


def _times_factor(block: tuple, d: int, L: int, bits: int) -> tuple:
    """The block times (d 2^-L + t), truncated to its length, rounded once."""
    c, E = block
    out = [c[0] * d] + [ck * d + (lower << L) for ck, lower in zip(c[1:], c)]
    return _renorm(out, E - L, bits)


def _jet(basis: FundamentalBasis, p_max: int, y0: ApFloat) -> tuple:
    """(d, L, g): d_j = (y0 - x_j) 2^L as exact integers, and for every i
    the Taylor coefficients of g_i(t) = prod_{j!=i} (y0 - x_j + t) up to
    order q = max(1, min(p_max, 2n-1)) as an int block (coeffs, E).

    g_i is the prefix j < i times the suffix j > i; coefficient k of the
    product is an exact integer dot product, rounded once with the rest of
    its block.  Coefficient k of a truncated product reads only coefficients
    <= k, and every block exponent is read from coefficients 0 and 1, which
    are never both zero (y0 equals at most one knot).  So each coefficient
    has the same bits whatever the truncation order.
    """
    n, bits = basis.n, basis.working_precision_bits + _BLOCK_GUARD_BITS
    q = max(1, min(p_max, 2 * n - 1))
    xs, y, L = basis.knots.aligned(y0)
    d = [y - x for x in xs]
    prefix = [([1] + [0] * q, 0)]
    for dj in d[:-1]:
        prefix.append(_times_factor(prefix[-1], dj, L, bits))
    suffix, g = prefix[0], [None] * n
    for i in reversed(range(n)):
        (a, ea), (b, eb) = prefix[i], suffix
        dots = [sum(map(mul, a, b[k::-1])) for k in range(q + 1)]
        g[i] = _renorm(dots, ea + eb, bits)
        if i:  # g_0 reads the suffix j > 0 and no further one
            suffix = _times_factor(suffix, d[i], L, bits)
    return tuple(d), L, tuple(g)


def _rows(basis: FundamentalBasis, jet: tuple, orders: Sequence[int]) -> tuple:
    """One row per p in orders (ascending): for every i the exact integer pair
    (V, e) with [t^p] h_i(y0 + t) = V 2^e, the Taylor coefficient; the
    derivative h_i^(p)(y0) is p! times it, applied exactly by the readouts.

    h_i(y0 + t) = l_i(y0 + t)^2 (a_i - 2 s_i t) with l_i(y0 + t) = w_i g_i(t)
    and a_i = 1 - 2 s_i (y0 - x_i).  w_i is folded into the g_i block once,
    before squaring, in one block rounding; row p then reads [t^p] and
    [t^(p-1)] of l_i^2, each formed once however many rows read it, and the
    rest is exact.  Every h_i has degree <= 2n-1, so rows above that are
    exact zeros.

    With l_i = c 2^el, 2 s_i = ms 2^(es+1), y0 - x_i = d_i 2^-L and c_k the
    coefficients of l_i^2 on 2^(2 el), the term is

        (c_p << v) - (ms << u) (d_i c_p + (c_(p-1) << L)),  on 2^(ea + 2 el),

    with S = es + 1 - L, ea = min(0, S), u = S - ea and v = -ea.  That is
    a_i = A 2^ea with A = 2^v - ms d_i 2^u, multiplied out: the same integer
    as A c_p - (ms << (u + L)) c_(p-1), but each product has one operand of
    knot or slope size, d_i or ms, instead of A, which has as many bits as
    both.
    """
    n, bits = basis.n, basis.working_precision_bits + _BLOCK_GUARD_BITS
    d, L, gs = jet
    ks = range(max(orders[0] - 1, 0), min(orders[-1] + 1, len(gs[0][0])))
    zero = ((0, 0),) * n  # one row shared by every order above the jet
    rows = [[(0, 0)] * n if p in ks else zero for p in orders]
    # each live row with the index of its c_p in ks; that index is 0 only at p = 0
    live = [(row, p - ks.start) for row, p in zip(rows, orders) if p in ks]
    for i, ((g, eg), (mw, ew), (ms, es)) in enumerate(zip(gs, basis.weights, basis.slopes)):
        l, el = _renorm([mw * gk for gk in g], eg + ew, bits)
        S = es + 1 - L
        ea = min(0, S)
        msu, v, di = ms << (S - ea), -ea, d[i]
        e = ea + 2 * el
        c = [_square_coeff(l, k) for k in ks]
        for row, k in live:
            lower = c[k - 1] << L if k else 0
            row[i] = ((c[k] << v) - msu * (di * c[k] + lower), e)
    return tuple(map(tuple, rows))


def _square_coeff(g: list[int], k: int) -> int:
    """[t^k] of g(t)^2: twice the products g_m g_(k-m) with m < k/2, plus
    g_(k/2)^2 for even k."""
    half = sum(map(mul, g[: (k + 1) // 2], g[k::-1]))
    return 2 * half + (g[k // 2] ** 2 if k % 2 == 0 else 0)


def chebyshev_closed_form(n: int, precision_bits: int) -> tuple[NumPoly, ...]:
    """Dense h_i = (1/n^2) [T_n/(x - x_i)]^2 (1 - x x_i) on the Chebyshev
    knots chebyshev1_knots(n, precision_bits), at the working precision of a
    basis on them: a construction independent of the jet, run on integers.

    The integer coefficients c_k of T_n come from its coefficient walk.
    With x_i = X_i 2^-L, P(u) = 2^(Ln) T_n(u 2^-L) has integer coefficients
    c_k 2^(L(n-k)), and its quotient by (u - X_i), found exactly by
    synthetic division from the top, holds Q_k = q_k 2^(L(n-1-k)) for the
    quotient q of T_n by (x - x_i).  On the exponent -L(n-1), q_k is
    Q_k 2^(Lk); that block is rounded once to the working precision plus
    _BLOCK_GUARD_BITS, from its largest coefficient.  The square and the
    factor (1 - x x_i) = (2^L - X_i x) 2^-L are exact, and each coefficient
    is divided by n^2 in one rounding.  Dividing out a rounded root drops the
    remainder T_n(x_i), which is ~0.
    """
    knots = chebyshev1_knots(n, precision_bits)
    wp = _guarded_precision(knots)
    bits = wp + _BLOCK_GUARD_BITS
    xs, L = knots.ints, knots.scale
    c = [0] * (n + 1)
    c[n % 2 :: 2] = _chebyshev_walk(n, n)
    n2 = from_int(n * n)
    hs = []
    for X in xs:
        Q, acc = [0] * n, 0
        for k in range(n, 0, -1):
            acc = (c[k] << (L * (n - k))) + X * acc
            Q[k - 1] = acc
        q = [v << (L * k) for k, v in enumerate(Q)]  # on the exponent -L(n-1)
        b = max(map(abs, q)).bit_length() - bits
        if b > 0:
            half = 1 << (b - 1)
            q = [(v + half) >> b for v in q]
        E = 2 * (max(b, 0) - L * (n - 1)) - L  # the exponent of the h_i block
        padded = q + [0] * (n - 1)  # _square_coeff reads g[k] for k <= 2n-2
        sq = [_square_coeff(padded, k) for k in range(2 * n - 1)]
        h = [(v << L) - X * lower for v, lower in zip(sq + [0], [0] + sq)]
        hs.append(NumPoly._wrap([mpf_div(from_man_exp(v, E), n2, wp, _RND) for v in h], wp))
    return tuple(hs)


def _one_exponent(pairs) -> tuple[list[int], int]:
    """The nonzero V_k 2^(e_k) as exact integers on their least exponent:
    (ints, low) with V_k 2^(e_k) = ints_k 2^low."""
    low = min((e for v, e in pairs if v), default=0)
    return [v << (e - low) for v, e in pairs if v], low


def derivative_extremes(
    basis: FundamentalBasis, p_max: int, y0: ApFloat
) -> list[tuple[ApFloat, ApFloat, ApFloat]]:
    """(residual, largest, tolerance) for each p = 1..p_max, from one Taylor
    jet at y0 truncated at p_max: derivative_sum's residual and
    max_i |h_i^(p)(y0)|, each rounded once to the knot precision, with no
    term rounded on its own, and scaled_tolerance([largest]): what
    verify-eq1 prints.

    Row p has the same bits for every p_max >= p, and the bits of
    derivative_sum at p.  The maximum is taken exactly, on the row's
    integers on one exponent.  Rounding to nearest is monotone and odd, so
    largest has the bits of max_abs of derivative_sum's terms; a zero row
    (p > 2n-1) gives 0, with no p! taken and no row formed, and all of them
    share one triple.

    The triples of the orders 1..min(p_max, 2n-1) are kept on the basis,
    keyed by y0's value (see _ReadoutTable).  A repeated (knot set, y0)
    hands back the same objects, a prefix when p_max is no deeper than the
    rows kept, so it rounds, wraps and formats nothing again; a deeper
    p_max builds one jet and replaces them.
    """
    if p_max < 1:
        raise ValueError(f"derivative order must be >= 1, got p_max = {p_max}")
    table, q = basis._readouts, min(p_max, 2 * basis.n - 1)
    rows = table.get(y0.raw)
    if len(rows) < q:
        prec, fact, rows = basis.precision_bits, 1, []
        for p, row in enumerate(_rows(basis, _jet(basis, p_max, y0), range(1, q + 1)), 1):
            ints, low = _one_exponent(row)
            fact *= p
            top = max(max(ints), -min(ints)) if ints else 0
            largest = from_man_exp(top * fact, low, prec, _RND)
            rows.append((
                ApFloat._wrap(from_man_exp(sum(ints) * fact, low, prec, _RND), prec),
                ApFloat._wrap(largest, prec),
                ApFloat._wrap(_tolerance(largest, prec), prec),
            ))
        rows = tuple(rows)
        table.put(y0.raw, rows)
    return list(rows[:q]) + [table.zero] * (p_max - q)


def derivative_sum(
    basis: FundamentalBasis, p: int, y0: ApFloat
) -> tuple[ApFloat, list[ApFloat]]:
    """(residual, terms) at the order p >= 1, from one Taylor jet at y0
    truncated at p; an order p > 2n-1, whose row is exactly zero, builds no
    jet and gives exact zeros at the knot precision.

    terms_i is h_i^(p)(y0) rounded once to the knot precision; residual is
    the exact sum of the unrounded terms, rounded once.  The sum of the h_i
    is identically 1 for any knot set, so every p >= 1 drives the residual
    to the terms' own error; p = 0 is rejected.
    """
    if p < 1:
        raise ValueError(f"derivative order must be >= 1, got {p}")
    prec = basis.precision_bits
    if p >= 2 * basis.n:  # rows above 2n-1 are exact zeros: no jet, no p!
        zero = ApFloat._wrap(fzero, prec)
        return zero, [zero] * basis.n
    (row,) = _rows(basis, _jet(basis, p, y0), (p,))
    fact = math.factorial(p)
    row = [(v * fact, e) for v, e in row]
    terms = [ApFloat._wrap(from_man_exp(v, e, prec, _RND), prec) for v, e in row]
    ints, low = _one_exponent(row)
    return ApFloat._wrap(from_man_exp(sum(ints), low, prec, _RND), prec), terms


def scaled_tolerance(values: Sequence[ApFloat], precision_bits: int) -> ApFloat:
    """tau = max(1, max_i |values_i|) * 2^(40 - precision_bits).

    Judged against the data scale: the individual terms of a vanishing sum
    grow with n while the sum cancels, so absolute comparison would be
    meaningless.
    """
    _check_precision(precision_bits)
    m = max_abs(values)
    return ApFloat._wrap(_tolerance(fzero if m is None else m.raw, precision_bits), precision_bits)


def _tolerance(largest, precision_bits: int):
    """The raw max(1, largest) 2^(40 - precision_bits), for a raw largest >= 0."""
    scale = fone if mpf_cmp(largest, fone) < 0 else largest
    return mpf_shift(scale, 40 - precision_bits)
