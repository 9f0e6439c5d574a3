"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the heavy derivative-sum grid (four families, n up to 40, p up to 8,
four expansion points, two precisions) is computed once and shared.
"""
import json
import time
from fractions import Fraction as F

import pytest

import fejerlab.cli as cli
from fejerlab.apnum import ApFloat
from fejerlab.conjecture import conjecture_power_formula
from fejerlab.hermite import (
    chebyshev_closed_form,
    derivative_sum,
    hermite_fejer_basis,
    scaled_tolerance,
)
from fejerlab.identities import (
    inverse_power_sum,
    midpoint_second_derivative,
    second_derivative_balance,
)
from fejerlab.knots import chebyshev1_knots, gauss_jacobi_knots, make_knots
from fejerlab.ratpoly import RatPoly

GRID_FAMILIES = (
    ("chebyshev1", {}),
    ("chebyshev2", {}),
    ("equispaced", {}),
    ("gauss_jacobi", {"alpha": F(0), "beta": F(0)}),
)
GRID_N = range(2, 41)
GRID_P = range(1, 9)
GRID_Y0 = (F(0), F(3, 10), F(-7, 10), F(2))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def residual_grid():
    """|residual| and tolerance, as exact fractions, for the whole grid at
    256 and 512 bits."""
    results = {}
    timings = {}
    for bits in (256, 512):
        start = time.monotonic()
        for family, kwargs in GRID_FAMILIES:
            for n in GRID_N:
                basis = hermite_fejer_basis(make_knots(family, n, bits, **kwargs))
                for p in GRID_P:
                    for y0 in GRID_Y0:
                        residual, terms = derivative_sum(basis, p, ApFloat(y0, bits))
                        tol = scaled_tolerance(terms, bits)
                        results[(family, n, p, y0, bits)] = (
                            abs(residual).to_fraction(),
                            tol.to_fraction(),
                        )
        timings[bits] = time.monotonic() - start
    return results, timings


def test_criterion_1_identity_sweep_exact(capsys):
    start = time.monotonic()
    code = cli.main(["verify-identity", "--n-max", "201"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.strip().splitlines()]
    ok = (
        code == 0
        and len(rows) == 100
        and all(r["holds"] is True for r in rows)
        and [r["n"] for r in rows] == list(range(3, 202, 2))
    )
    with capsys.disabled():
        report(1, ok, f"verify-identity --n-max 201: 100 exact holds in {elapsed:.2f}s")


def test_criterion_2_midpoint_value_exact():
    bad = [
        n for n in range(3, 100, 2)
        if midpoint_second_derivative(n) != F(2, 3) * (1 - n * n)
    ]
    report(2, not bad, f"midpoint second derivative equals (2/3)(1-n^2) for odd n <= 99 {bad or ''}")


def test_criterion_3_exact_balance():
    bad = [n for n in range(3, 100, 2) if sum(second_derivative_balance(n)) != 0]
    report(3, not bad, f"off-center + midpoint parts cancel exactly for odd n <= 99 {bad or ''}")


def test_criterion_4_derivative_sum_grid(residual_grid):
    results, timings = residual_grid
    failures = [
        key for key in results
        if key[4] == 256 and results[key][0] > results[key][1]
    ]
    count = sum(1 for key in results if key[4] == 256)
    report(
        4,
        not failures,
        f"{count} grid combinations at 256 bits within tolerance "
        f"in {timings[256]:.1f}s {failures[:3] or ''}",
    )


def test_criterion_5_construction_equivalence():
    worst = F(0)
    ok = True
    for n in range(1, 41):
        general = hermite_fejer_basis(chebyshev1_knots(n, 256))
        closed = chebyshev_closed_form(n, 256)
        for hg, hc in zip(general.h, closed):
            coeffs = hg.coefficients() + hc.coefficients()
            tol = scaled_tolerance(coeffs, 256).to_fraction()
            diff = hg - hc
            gap = max(
                (abs(c).to_fraction() for c in diff.coefficients()), default=F(0)
            )
            worst = max(worst, gap / tol)
            ok &= gap <= tol
    report(5, ok, f"both constructions agree coefficient-wise for n <= 40 (worst gap {float(worst):.2e} of tolerance)")


def _chebyshev_spot_and_symmetry(bits: int) -> bool:
    basis = hermite_fejer_basis(chebyshev1_knots(3, bits))
    _, terms = derivative_sum(basis, 2, ApFloat(0, bits))
    tol = scaled_tolerance(terms, bits)
    ok = all(
        abs(t - ApFloat(e, bits)) <= tol
        for t, e in zip(terms, (F(8, 3), F(-16, 3), F(8, 3)))
    )
    for n in range(3, 40, 2):
        basis = hermite_fejer_basis(chebyshev1_knots(n, bits))
        _, terms = derivative_sum(basis, 2, ApFloat(0, bits))
        tol = scaled_tolerance(terms, bits)
        ok &= all(abs(terms[i] - terms[n - 1 - i]) <= tol for i in range(n))
    return ok


def test_criterion_6_spot_values_and_symmetry():
    ok = _chebyshev_spot_and_symmetry(256)
    report(6, ok, "n=3 terms are (8/3, -16/3, 8/3); mirrored terms match for odd n < 40")


def test_criterion_7_conjecture_engine():
    start = time.monotonic()
    ok = True
    r1 = conjecture_power_formula(1, [3, 5, 7], [9, 11])
    ok &= r1.confirmed and r1.formula == RatPoly([F(-1, 6), 0, F(1, 6)])
    fresh = {2: (19, 21, 23), 3: (23, 25, 27)}
    r2 = conjecture_power_formula(2, [3, 5, 7, 9, 11, 13], [15, 17])
    r3 = conjecture_power_formula(3, list(range(3, 18, 2)), [19, 21])
    for r in (r2, r3):
        ok &= r.confirmed and r.formula.degree <= 2 * r.m and len(r.holdout_n) >= 2
        ok &= all(
            r.formula.evaluate(n) == inverse_power_sum(n, r.m) for n in fresh[r.m]
        )
    report(
        7,
        ok,
        f"m=1 rediscovers (n^2-1)/6; m=2,3 confirmed on holdout plus 3 fresh n "
        f"({time.monotonic() - start:.2f}s)",
    )


def test_criterion_8_knot_cross_validation():
    tol = ApFloat(F(1, 2 ** 216), 256)
    worst = 0.0
    ok = True
    for n in range(1, 41):
        gj = gauss_jacobi_knots(n, F(-1, 2), F(-1, 2), 256)
        cf = chebyshev1_knots(n, 256)
        for a, b in zip(gj.points, cf.points):
            gap = abs(a - b)
            worst = max(worst, float(gap))
            ok &= gap <= tol
    report(8, ok, f"gauss_jacobi(-1/2,-1/2) matches chebyshev1 within 2^-216 for n <= 40 (worst {worst:.1e})")


def test_criterion_9_precision_robustness(residual_grid):
    results, timings = residual_grid
    shrink = F(1, 2 ** 200)
    outcome_changes = []
    weak_shrinks = []
    for family, kwargs in GRID_FAMILIES:
        for n in GRID_N:
            # A residual stored as exactly 0 has no ratio to shrink by; the
            # shrink is measured against a floor recovered from the
            # tolerance, tau = max(1, max|terms|) * 2^(40-256).  The floor
            # dates from a working precision of 64 + 4n guard bits; with the
            # flat 80 guard bits it bounds r512 only up to about n = 17, and
            # beyond that every row whose 256-bit residual is exactly 0 has
            # an exactly 0 512-bit residual too (its exact integer sum
            # vanishes, as at y0 = 0 and odd p on symmetric knots).
            ulp_floor = F(1, 2 ** (104 + 4 * n))
            for p in GRID_P:
                for y0 in GRID_Y0:
                    r256, t256 = results[(family, n, p, y0, 256)]
                    r512, t512 = results[(family, n, p, y0, 512)]
                    if (r256 <= t256) != (r512 <= t512):
                        outcome_changes.append((family, n, p, y0))
                    if r512 > max(r256, t256 * ulp_floor) * shrink:
                        weak_shrinks.append((family, n, p, y0))
    ok = not outcome_changes and not weak_shrinks and _chebyshev_spot_and_symmetry(512)
    report(
        9,
        ok,
        f"512-bit rerun keeps every outcome and shrinks residuals by >= 2^200 "
        f"in {timings[512]:.1f}s (changed {outcome_changes[:3]}, weak {weak_shrinks[:3]})",
    )
