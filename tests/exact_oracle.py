"""Exact dyadic oracle for the terms h_i^(p)(y0) of the (E1) sums.

Every rounded knot and y0 is a dyadic rational, so one common scale 2^L turns
them into integers X_j and Y.  With D_j = Y - X_j, the integer polynomial
g_i(u) = prod_{j!=i} (D_j + u), G_i = prod_{j!=i} (X_i - X_j) and
G_i' = sum_k prod_{j!=i,k} (X_i - X_j),

    h_i(y0 + t) = N_i(2^L t) / G_i^3,    N_i(u) = g_i(u)^2 (G_i - 2 G_i' (D_i + u)),

exactly: the powers of 2^L cancel.  So h_i^(p)(y0) = p! 2^(Lp) [u^p] N_i / G_i^3
is a ratio of two integers, found with O(n^2 p) integer products and no gcd.
The oracle shares nothing with fejerlab's numeric path but the rounded inputs.

grid_errors measures the numeric path against it.  Run as a script to print
the whole measurement grid, by precision and n and by precision and family
(about two minutes; n = 40 at 1024 bits is most of it):

    PYTHONPATH=src python3 tests/exact_oracle.py
"""
from __future__ import annotations

import math
from fractions import Fraction

from fejerlab.apnum import ApFloat
from fejerlab.hermite import _jet, _rows, derivative_extremes, hermite_fejer_basis
from fejerlab.knots import make_knots

FAMILIES = (
    ("chebyshev1", {}),
    ("chebyshev2", {}),
    ("equispaced", {}),
    ("gauss_jacobi", {"alpha": Fraction(1, 3), "beta": Fraction(1, 5)}),
)
GRID_N = (1, 2, 5, 9, 17, 40)
#: None stands for the knot x_(n//3).
GRID_Y0 = (None, Fraction(0), Fraction(3, 10), Fraction(-7, 10), Fraction(2), Fraction(-5, 4))
P_MAX = 8


def _scaled(values: list[Fraction]) -> tuple[list[int], int]:
    """Integers X with values = X / 2^L, for the least L >= 0."""
    L = max(v.denominator.bit_length() - 1 for v in values)
    return [v.numerator << (L - v.denominator.bit_length() + 1) for v in values], L


def _times(a: list[int], b: list[int]) -> list[int]:
    """a(u) b(u), truncated to the length of a."""
    return [
        sum(a[m] * b[k - m] for m in range(max(0, k - len(b) + 1), k + 1)) for k in range(len(a))
    ]


def exact_rows(points, y0, p_max: int) -> list[list[tuple[int, int]]]:
    """Row p (p = 0..p_max) holds (A_i, B_i) with h_i^(p)(y0) = A_i / B_i
    exactly, for ApFloat knots and y0."""
    xs, L = _scaled([x.to_fraction() for x in points] + [y0.to_fraction()])
    Y = xs.pop()
    D = [Y - X for X in xs]
    one = [1] + [0] * p_max
    prefix = [one]  # prefix[i] = prod_{j<i} (D_j + u)
    for Dj in D:
        prefix.append(_times(prefix[-1], [Dj, 1]))
    rows = [[None] * len(xs) for _ in range(p_max + 1)]
    suffix = one  # prod_{j>i} (D_j + u)
    for i in reversed(range(len(xs))):
        g = _times(prefix[i], suffix)
        suffix = _times(suffix, [D[i], 1])
        G, G1 = 1, 0  # prod_{j!=i} (X_i - X_j + u) to order 1
        for j, Xj in enumerate(xs):
            if j != i:
                G, G1 = G * (xs[i] - Xj), G1 * (xs[i] - Xj) + G
        g2, a, G3 = _times(g, g), G - 2 * G1 * D[i], G ** 3
        for p, row in enumerate(rows):
            N = a * g2[p] - (2 * G1 * g2[p - 1] if p else 0)
            row[i] = (math.factorial(p) * N << (L * p), G3)
    return rows


def exact_sum(terms: list[tuple[int, int]]) -> Fraction:
    return sum((Fraction(a, b) for a, b in terms), Fraction(0))


def _floor_log2(a: int, b: int) -> int:
    """floor(log2(a / b)) for positive integers."""
    k = a.bit_length() - b.bit_length()
    return k if (a >= b << k if k >= 0 else a << -k >= b) else k - 1


def term_errors(row, terms: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """(num_i, den_i) with |V_i 2^e_i - A_i/B_i| = num_i / den_i exactly, for
    a row of exact pairs (V_i, e_i): hermite._rows' pairs times p!."""
    errors = []
    for (v, e), (a, b) in zip(row, terms):
        low = min(e, 0)
        errors.append((abs((v * b << (e - low)) - (a << -low)), abs(b) << -low))
    return errors


def error_ulps(errors: list[tuple[int, int]], terms: list[tuple[int, int]], wp: int) -> float:
    """max_i num_i/den_i in ulps at wp bits of max(1, max_i |A_i/B_i|), the
    data scale the tolerances are stated against."""
    top = max([0] + [_floor_log2(abs(a), abs(b)) for a, b in terms if a])
    ulp_exp = top + 1 - wp
    return max((num << max(0, -ulp_exp)) / (den << max(0, ulp_exp)) for num, den in errors)


def within_error_sum(x: Fraction, errors: list[tuple[int, int]], slack: Fraction, bits: int) -> bool:
    """Whether |x| <= slack * sum_i num_i/den_i.

    The sum is bounded below by flooring every ratio at 2^-K, with K chosen
    so that the largest keeps bits + 64 bits; that loses less than
    n 2^-(bits + 64) of the sum, so True is a proof and False means |x|
    exceeds the bound or lies within that much of it.
    """
    live = [(num, den) for num, den in errors if num]
    if not live:
        return x == 0
    K = bits + 64 - max(_floor_log2(num, den) for num, den in live)
    floor_sum = sum((num << K) // den if K >= 0 else num // (den << -K) for num, den in live)
    return abs(x) * Fraction(2) ** K <= slack * floor_sum


def grid_errors(bits: int, ns=GRID_N, families=FAMILIES):
    """Yield (family, n, worst error in ulps, exact rows, residuals) over the
    grid at one knot precision: every y0 in GRID_Y0 and p = 1..P_MAX, read
    from one jet at P_MAX as verify-eq1 reads them.  residuals holds, for
    every row, derivative_extremes' residual and the row's term errors.
    Equispaced knots start at n = 2."""
    for family, kwargs in families:
        for n in ns:
            if family == "equispaced" and n < 2:
                continue
            basis = hermite_fejer_basis(make_knots(family, n, bits, **kwargs))
            wp = basis.working_precision_bits
            orders = range(1, P_MAX + 1)
            worst, exact, residuals = 0.0, [], []
            for y in GRID_Y0:
                y0 = basis.knots.points[n // 3] if y is None else ApFloat(y, bits)
                rows = _rows(basis, _jet(basis, P_MAX, y0), orders)
                exact.append(exact_rows(basis.knots.points, y0, P_MAX))
                for p, row, (residual, _) in zip(orders, rows, derivative_extremes(basis, P_MAX, y0)):
                    # _rows holds [t^p] h_i(y0 + t); the term is p! times it
                    row = [(v * math.factorial(p), e) for v, e in row]
                    errors = term_errors(row, exact[-1][p])
                    worst = max(worst, error_ulps(errors, exact[-1][p], wp))
                    residuals.append((residual, errors))
            yield family, n, worst, exact, residuals


if __name__ == "__main__":
    by_family = {}
    for bits in (64, 256, 1024):
        by_n = {}
        for family, n, worst, *_ in grid_errors(bits):
            by_n[n] = max(by_n.get(n, 0.0), worst)
            by_family[bits, family] = max(by_family.get((bits, family), 0.0), worst)
        print(f"{bits} bits by n:", ", ".join(f"{n}: {w:.2f}" for n, w in by_n.items()), flush=True)
    for (bits, family), worst in by_family.items():
        print(f"{bits} bits {family}: {worst:.2f}")
    print(f"max: {max(by_family.values()):.2f} ulps")
