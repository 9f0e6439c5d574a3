"""Knot generators: closed-form values, interlacing, symmetry, the
finite-difference oracle for the Jacobi recurrence, and the Gauss-Jacobi
root-isolation proof and cache."""
import hashlib
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from mpmath.libmp import from_man_exp, round_nearest

import fejerlab.cli as cli
import fejerlab.knots as knots_mod
from fejerlab.apnum import ApFloat, _man_exp
from fejerlab.hermite import hermite_fejer_basis
from fejerlab.knots import (
    ConvergenceFailure,
    KnotSet,
    KnotSpacingError,
    chebyshev1_knots,
    chebyshev2_knots,
    equispaced_knots,
    gauss_jacobi_knots,
    make_knots,
)
from reference import jacobi_eval, pow2

BITS = 256


class TestChebyshev1:
    def test_single_knot_is_zero(self):
        k = chebyshev1_knots(1, BITS)
        assert k.points[0].is_zero()

    def test_n3_closed_form(self):
        # cos(pi/6) = sqrt(3)/2 by hand: the outer knots square to 3/4
        k = chebyshev1_knots(3, BITS)
        tol = pow2(-250, BITS)
        assert k.points[0] < 0 < k.points[2]
        assert abs(k.points[0] * k.points[0] - F(3, 4)) <= tol
        assert k.points[1].is_zero()
        assert abs(k.points[2] * k.points[2] - F(3, 4)) <= tol

    def test_n4_symmetric_no_zero(self):
        k = chebyshev1_knots(4, BITS)
        assert all(not p.is_zero() for p in k.points)
        # mirrored construction makes the symmetry bit-exact
        for a, b in zip(k.points, reversed(k.points)):
            assert a == -b

    def test_ascending(self):
        k = chebyshev1_knots(9, BITS)
        assert all(a < b for a, b in zip(k.points, k.points[1:]))

    def test_are_roots_of_tn(self):
        from fejerlab.apnum import NumPoly
        from fejerlab.ratpoly import chebyshev_T

        k = chebyshev1_knots(7, BITS)
        t7 = NumPoly(chebyshev_T(7).coeffs, BITS)
        tol = pow2(-240, BITS)
        for x in k.points:
            assert abs(t7.evaluate(x)) <= tol


class TestChebyshev2:
    def test_n2_closed_form(self):
        # roots of U_2: cos(pi/3) = 1/2
        k = chebyshev2_knots(2, BITS)
        tol = pow2(-250, BITS)
        assert abs(k.points[0] + ApFloat(F(1, 2), BITS)) <= tol
        assert abs(k.points[1] - ApFloat(F(1, 2), BITS)) <= tol

    def test_odd_n_middle_zero(self):
        k = chebyshev2_knots(5, BITS)
        assert k.points[2].is_zero()


class TestEquispaced:
    def test_n3_unit_interval(self):
        k = equispaced_knots(3, F(-1), F(1), BITS)
        assert [p.to_fraction() for p in k.points] == [-1, 0, 1]

    def test_n2(self):
        k = equispaced_knots(2, F(0), F(1), BITS)
        assert [p.to_fraction() for p in k.points] == [0, 1]

    def test_equal_gaps_to_rounding(self):
        k = equispaced_knots(7, F(-1, 3), F(5, 7), BITS)
        step = (F(5, 7) + F(1, 3)) / 6
        for i, p in enumerate(k.points):
            exact = F(-1, 3) + i * step
            assert abs(p.to_fraction() - exact) <= F(1, 2 ** (BITS - 2))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            equispaced_knots(1, F(0), F(1), BITS)

    def test_needs_ordered_interval(self):
        with pytest.raises(ValueError):
            equispaced_knots(3, F(1), F(0), BITS)


class TestJacobiEval:
    def test_p0(self):
        v, d = jacobi_eval(0, F(1, 2), F(-1, 3), ApFloat(F(2, 5), BITS))
        assert v == 1 and d.is_zero()

    def test_p1_legendre_is_x(self):
        x = ApFloat(F(3, 7), BITS)
        v, d = jacobi_eval(1, F(0), F(0), x)
        assert v == x and d == 1

    @pytest.mark.parametrize("n,alpha,beta", [(3, F(0), F(0)), (5, F(1, 3), F(-1, 4)), (8, F(-1, 2), F(2))])
    def test_derivative_against_central_difference(self, n, alpha, beta):
        x = ApFloat(F(2, 7), BITS)
        h = pow2(-BITS // 3, BITS)
        _, d = jacobi_eval(n, alpha, beta, x)
        up, _ = jacobi_eval(n, alpha, beta, x + h)
        dn, _ = jacobi_eval(n, alpha, beta, x - h)
        fd = (up - dn) / (h * 2)
        # truncation error O(h^2 P''') dominates: ~2^(-2*BITS/3) with slack
        assert abs(fd - d) <= pow2(-2 * (BITS // 3) + 16, BITS)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eval(2, F(-1), F(0), ApFloat(F(0), BITS))


def _textbook_step(alpha, beta, j):
    """(A, B, C) with P_j = (A x + B) P_{j-1} - C P_{j-2} (Szego (4.5.1))."""
    s = alpha + beta
    if j == 1:
        return (s + 2) / 2, (alpha - beta) / 2, F(0)
    a1 = 2 * j * (j + s) * (2 * j + s - 2)
    a2 = (2 * j + s - 1) * (alpha * alpha - beta * beta)
    a3 = (2 * j + s - 2) * (2 * j + s - 1) * (2 * j + s)
    a4 = 2 * (j + alpha - 1) * (j + beta - 1) * (2 * j + s)
    return a3 / a1, a2 / a1, a4 / a1


class TestIntegerSteps:
    @pytest.mark.parametrize(
        "alpha, beta",
        [(F(0), F(0)), (F(-1, 2), F(-1, 2)), (F(-99, 100), F(7)), (F(50), F(-99, 100)),
         (F(217, 73), F(-10, 19)), (F(1, 3), F(1, 5))],
    )
    def test_match_the_textbook_recurrence(self, alpha, beta):
        steps = knots_mod._integer_steps(alpha, beta, 60)
        assert len(steps) == 60
        for j, (a, b, c, den) in enumerate(steps, start=1):
            assert den > 0
            assert (F(a, den), F(b, den), F(c, den)) == _textbook_step(alpha, beta, j)

    def test_jacobi_eval_values_pinned(self):
        # sha256 over jacobi_eval's exact values and derivatives, written from
        # the module before the recurrence moved to integer steps
        pairs = [(F(0), F(0)), (F(-1, 2), F(-1, 2)), (F(1, 3), F(1, 5)), (F(-99, 100), F(7)),
                 (F(50), F(-99, 100)), (F(217, 73), F(-10, 19))]
        xs = [F(-1), F(-9, 10), F(-1, 3), F(0), F(1, 7), F(2, 3), F(99, 100), F(1)]
        h = hashlib.sha256()
        for bits in (64, 256, 512):
            for alpha, beta in pairs:
                for n in (*range(13), 25, 40):
                    for x in xs:
                        v, d = jacobi_eval(n, alpha, beta, ApFloat(x, bits))
                        h.update(("%d,%d;%d,%d;%d,%d\n" % (
                            *_man_exp(v.raw), *_man_exp(d.raw), v.precision_bits, d.precision_bits
                        )).encode())
        assert h.hexdigest() == "af3b62ab824256f1d406831c2f0d8ebeca31d64b6c3e8bff8092a882923cebd3"


class TestGaussJacobi:
    def test_chebyshev_case_matches_closed_form(self):
        gj = gauss_jacobi_knots(5, F(-1, 2), F(-1, 2), BITS)
        cf = chebyshev1_knots(5, BITS)
        tol = pow2(32 - BITS, BITS)
        for a, b in zip(gj.points, cf.points):
            assert abs(a - b) <= tol

    def test_legendre_two_points(self):
        # roots of (3x^2 - 1)/2 are +-1/sqrt(3): both square to 1/3
        k = gauss_jacobi_knots(2, F(0), F(0), BITS)
        tol = pow2(20 - BITS, BITS)
        assert k.points[0] < 0 < k.points[1]
        assert abs(k.points[0] * k.points[0] - F(1, 3)) <= tol
        assert abs(k.points[1] * k.points[1] - F(1, 3)) <= tol

    def test_single_symmetric_root(self):
        k = gauss_jacobi_knots(1, F(0), F(0), BITS)
        assert k.points[0].is_zero()

    def test_asymmetric_single_root(self):
        # P_1 root is (beta - alpha)/(alpha + beta + 2)
        k = gauss_jacobi_knots(1, F(1, 2), F(1, 4), BITS)
        expect = (F(1, 4) - F(1, 2)) / (F(1, 2) + F(1, 4) + 2)
        assert abs(k.points[0] - ApFloat(expect, BITS)) <= pow2(-250, BITS)

    @pytest.mark.parametrize("alpha,beta", [(F(0), F(0)), (F(1, 3), F(-1, 4))])
    def test_interlacing(self, alpha, beta):
        a = gauss_jacobi_knots(6, alpha, beta, BITS).points
        b = gauss_jacobi_knots(7, alpha, beta, BITS).points
        for i in range(6):
            assert b[i] < a[i] < b[i + 1]

    def test_symmetry_for_equal_parameters(self):
        k = gauss_jacobi_knots(6, F(2, 5), F(2, 5), BITS)
        tol = pow2(20 - BITS, BITS)
        for a, b in zip(k.points, reversed(k.points)):
            assert abs(a + b) <= tol

    @pytest.mark.parametrize("bits", [64, 256, 512])
    @pytest.mark.parametrize("alpha", [F(0), F(-1, 2), F(-99, 100), F(1, 2), F(2), F(50)])
    def test_odd_symmetric_set_has_exact_zero_middle(self, alpha, bits):
        # P_n has the parity of n, so the middle root of an odd set is 0
        # exactly, and the halves mirror each other bit for bit
        for n in range(1, 42, 2):
            points = gauss_jacobi_knots(n, alpha, alpha, bits).points
            assert points[n // 2].is_zero()
            for lo, hi in zip(points, reversed(points)):
                m, e = _man_exp(lo.raw)
                assert _man_exp(hi.raw) == (-m, e)

    def test_roots_inside_interval(self):
        k = gauss_jacobi_knots(9, F(3), F(-1, 2), BITS)
        one = ApFloat(1, BITS)
        assert -one < k.points[0] and k.points[-1] < one

    def test_newton_cap_failure(self, monkeypatch):
        knots_mod.gauss_jacobi_knots.cache_clear()
        monkeypatch.setattr(knots_mod, "_NEWTON_CAP", 2)
        with pytest.raises(ConvergenceFailure):
            gauss_jacobi_knots(8, F(1, 7), F(2, 7), BITS)

    @pytest.mark.parametrize(
        "alpha, beta", [(F(10**300), F(0)), (F(10**400), F(0)), (F(0), F(10**400)), (F(10**300), F(10**300))]
    )
    def test_parameters_past_the_float_range_fail_to_converge(self, alpha, beta):
        # the float seed stage overflows: alpha**2 past 1e308, or A / D
        # itself; that is a ConvergenceFailure, never an OverflowError
        with pytest.raises(ConvergenceFailure, match="overflow"):
            gauss_jacobi_knots(5, alpha, beta, BITS)

    def test_duplicate_seed_fails_the_isolation_proof(self, monkeypatch):
        # two seeds on one root refine to one knot twice, in one interval:
        # the set must be refused, never returned with a root missing
        knots_mod.gauss_jacobi_knots.cache_clear()
        seeds = knots_mod._seed_roots

        def duplicated(steps, symmetric):
            roots = seeds(steps, symmetric)
            return [roots[0], *roots[:-1]]

        monkeypatch.setattr(knots_mod, "_seed_roots", duplicated)
        with pytest.raises(ConvergenceFailure, match="overlap"):
            gauss_jacobi_knots(8, F(1, 7), F(2, 7), BITS)

    def test_seed_moved_into_its_neighbours_cell_fails_the_isolation_proof(self, monkeypatch):
        # seed 1 moved 7/8 of the way to seed 2, the order kept: it refines
        # to root 2, whose interval then holds two knots
        knots_mod.gauss_jacobi_knots.cache_clear()
        seeds = knots_mod._seed_roots

        def moved(steps, symmetric):
            roots = seeds(steps, symmetric)
            return [roots[0], roots[2] - (roots[2] - roots[1]) / 8, *roots[2:]]

        monkeypatch.setattr(knots_mod, "_seed_roots", moved)
        with pytest.raises(ConvergenceFailure, match="overlap"):
            gauss_jacobi_knots(24, F(1, 3), F(1, 5), BITS)

    def test_knot_moved_by_2_to_the_minus_100_is_refused(self, monkeypatch):
        # signs alternating over cells between midpoints would accept root 5
        # of this set moved by 2^-100; its proved interval is about 2^-149
        # wide, so the moved knot falls outside it
        knots_mod.gauss_jacobi_knots.cache_clear()
        refine, calls = knots_mod._refine, []

        def moving(steps, seed, wp):
            x, lo, hi = refine(steps, seed, wp)
            calls.append(wp)
            return (x + (1 << (wp - 100)), lo, hi) if len(calls) == 5 else (x, lo, hi)

        monkeypatch.setattr(knots_mod, "_refine", moving)
        with pytest.raises(ConvergenceFailure, match="miss their knot"):
            gauss_jacobi_knots(24, F(1, 3), F(1, 5), BITS)

    @pytest.mark.parametrize("widen", ["interval", "curvature", "slope", "zero_slope"])
    def test_failed_isolation_test_refuses_the_set(self, monkeypatch, capsys, widen):
        # the noise bounds of root 5's last evaluation widened until one test
        # fails: r near 2 leaves (-1, 1); r near 1/8 leaves |P''| unbounded;
        # |P'| known only to within 2^-40 of itself does not keep P_n
        # monotone; a |P'| bound of 0 bounds nothing.  The set raises, and
        # the command exits 3.
        derivatives, full = knots_mod._fixed_derivatives, []

        def widened(steps, X, wp, noise=False):
            p, d, dd, e, e_d = derivatives(steps, X, wp, noise)
            if noise:
                full.append(X)
                if len(full) == 5:
                    e, e_d = {
                        "interval": (abs(d), e_d),
                        "curvature": (abs(d) >> 4, e_d),
                        "slope": (abs(d) >> 60, abs(d) - (abs(d) >> 40)),
                        "zero_slope": (e, abs(d)),
                    }[widen]
            return p, d, dd, e, e_d

        monkeypatch.setattr(knots_mod, "_fixed_derivatives", widened)
        knots_mod.gauss_jacobi_knots.cache_clear()
        with pytest.raises(ConvergenceFailure, match="isolation failed"):
            gauss_jacobi_knots(24, F(1, 3), F(1, 5), BITS)
        knots_mod.gauss_jacobi_knots.cache_clear()
        full.clear()
        argv = ["knots", "--family", "gauss_jacobi", "--n", "24", "--alpha", "1/3", "--beta", "1/5"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "isolation failed" in captured.err

    @pytest.mark.parametrize(
        "alpha, beta", [(F(0), F(0)), (F(-99, 100), F(7)), (F(9), F(-99, 100)), (F(1, 3), F(1, 5))]
    )
    def test_bracket_signs_alternate(self, alpha, beta):
        # one root of P_n between consecutive cuts, read with jacobi_eval on
        # the rounded knots: P_n has the sign (-1)^(n-i) at cut i of -1, the
        # midpoints of consecutive knots and 1
        for n in range(1, 21):
            points = gauss_jacobi_knots(n, alpha, beta, BITS).points
            cuts = [ApFloat(-1, BITS), *((a + b) / 2 for a, b in zip(points, points[1:])), ApFloat(1, BITS)]
            for i, cut in enumerate(cuts):
                value, _ = jacobi_eval(n, alpha, beta, cut)
                assert (value > 0) == ((n - i) % 2 == 0) and not value.is_zero()

    def test_seeds_stay_inside_the_interval(self):
        # unclamped, a float Newton seed leaves (-1, 1) here and never
        # converges inside the step cap
        k = gauss_jacobi_knots(54, F(9), F(-99, 100), 64)
        assert k.n == 54 and -1 < k.points[0] and k.points[-1] < 1

    def test_parameters_validated(self):
        # checked inside the cached builder, so every call raises: an error
        # is never cached
        for _ in range(3):
            with pytest.raises(ValueError):
                gauss_jacobi_knots(3, F(-3, 2), F(0), BITS)
            with pytest.raises(ValueError):
                gauss_jacobi_knots(0, F(0), F(0), BITS)

    def test_concurrent_cold_solve(self):
        # four threads race to solve one cold knot set; all must get its bits
        knots_mod.gauss_jacobi_knots.cache_clear()
        results, errors = [], []

        def build():
            try:
                results.append(gauss_jacobi_knots(30, F(1, 3), F(1, 5), 128).points)
            except Exception as exc:  # collected and asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=build) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 4 and all(r == results[0] for r in results)

    def test_the_builder_carries_its_cache(self):
        # one cached builder, as for the closed-form families
        assert not hasattr(knots_mod, "_jacobi_knot_set")
        assert gauss_jacobi_knots.cache_info().maxsize == knots_mod._KNOT_SET_CAP

    def test_knot_set_cache_is_bounded_and_keeps_recent_use(self, monkeypatch):
        knots_mod.gauss_jacobi_knots.cache_clear()
        cap = knots_mod.gauss_jacobi_knots.cache_info().maxsize
        hot = (F(1, 3), F(1, 5))
        for i in range(cap + 100):
            if i % (cap // 2) == 0:
                gauss_jacobi_knots(3, *hot, 64)
            gauss_jacobi_knots(1, F(i, cap + 101), F(1, 2), 64)
        assert knots_mod.gauss_jacobi_knots.cache_info().currsize <= cap
        seeds, solved = knots_mod._seed_roots, []

        def counting(steps, symmetric):
            solved.append(len(steps))
            return seeds(steps, symmetric)

        monkeypatch.setattr(knots_mod, "_seed_roots", counting)
        gauss_jacobi_knots(3, *hot, 64)
        assert solved == []
        gauss_jacobi_knots(1, F(0), F(1, 2), 64)
        assert solved == [1]


def _exact_jacobi_derivatives(alpha, beta, n, x):
    """(P_n, P_n', P_n'') at a rational x, exactly: the textbook recurrence
    differentiated twice."""
    v_prev, d_prev, s_prev, v, d, s = F(0), F(0), F(0), F(1), F(0), F(0)
    for j in range(1, n + 1):
        a, b, c = _textbook_step(alpha, beta, j)
        axb = a * x + b
        v_prev, d_prev, s_prev, v, d, s = (
            v, d, s, axb * v - c * v_prev, a * v + axb * d - c * d_prev, 2 * a * d + axb * s - c * s_prev
        )
    return v, d, s


IDENTITY_PAIRS = [(F(0), F(0)), (F(-1, 2), F(-1, 2)), (F(1, 3), F(1, 5)), (F(-99, 100), F(7)),
                  (F(50), F(-99, 100)), (F(217, 73), F(-10, 19))]
NEAR_EDGES = [F(-1) + F(1, 2 ** 20), F(-999, 1000), F(-1, 2), F(0), F(1, 3), F(999, 1000),
              F(1) - F(1, 2 ** 20)]


class TestHalleyRefinement:
    WP = 256

    def _fixed_point(self, x):
        return (x.numerator << self.WP) // x.denominator

    @pytest.mark.parametrize("alpha, beta", IDENTITY_PAIRS)
    def test_derivative_identity_matches_jacobi_eval(self, alpha, beta):
        # P_n' from P_n and P_(n-1) against the libmp recurrence for (P, P')
        wp = self.WP
        for n in range(1, 41):
            steps = knots_mod._integer_steps(alpha, beta, n)
            for x in NEAR_EDGES:
                X = self._fixed_point(x)
                p, d, *_ = knots_mod._fixed_derivatives(steps, X, wp)
                value, deriv = jacobi_eval(n, alpha, beta, ApFloat._wrap(from_man_exp(X, -wp), wp))
                for fixed, libmp in ((p, value), (d, deriv)):
                    ref = libmp.to_fraction() * 2 ** wp
                    # within 2^32 ulps of max(1, |value|): 1 - x^2 near 2^-19 costs 19 bits
                    assert abs(fixed - ref) * 2 ** wp <= 2 ** 32 * max(2 ** wp, abs(ref)), (n, x)

    @pytest.mark.parametrize("alpha, beta", IDENTITY_PAIRS)
    def test_second_derivative_from_the_differential_equation(self, alpha, beta):
        wp = self.WP
        for n in (1, 2, 3, 7, 20, 40):
            steps = knots_mod._integer_steps(alpha, beta, n)
            for x in NEAR_EDGES:
                X = self._fixed_point(x)
                xq = F(X, 2 ** wp)
                v, d, s = _exact_jacobi_derivatives(alpha, beta, n, xq)
                # the oracle obeys the Jacobi equation exactly
                slope = beta - alpha - (alpha + beta + 2) * xq
                assert (1 - xq * xq) * s + slope * d + n * (n + alpha + beta + 1) * v == 0
                _, _, second, *_ = knots_mod._fixed_derivatives(steps, X, wp)
                ref = s * 2 ** wp
                # 1 - x^2 near 2^-19 divides twice on the way to P_n''
                assert abs(second - ref) * 2 ** wp <= 2 ** 48 * max(2 ** wp, abs(ref)), (n, x)

    @pytest.mark.parametrize("alpha, beta", IDENTITY_PAIRS)
    def test_noise_bounds_cover_the_fixed_point_error(self, alpha, beta):
        # e and e' against the exact rational P_n and P_n', near the edges too
        wp = self.WP
        for n in (1, 2, 3, 7, 20, 40):
            steps = knots_mod._integer_steps(alpha, beta, n)
            for x in NEAR_EDGES:
                X = self._fixed_point(x)
                p, d, _, e, e_d = knots_mod._fixed_derivatives(steps, X, wp, True)
                value, deriv, _ = _exact_jacobi_derivatives(alpha, beta, n, F(X, 2 ** wp))
                assert abs(p - value * 2 ** wp) <= e and abs(d - deriv * 2 ** wp) <= e_d, (n, x)
                assert knots_mod._fixed_derivatives(steps, X, wp)[3:] == (0, 0)

    @pytest.mark.parametrize("alpha, beta", IDENTITY_PAIRS)
    def test_derivative_noise_covers_both_values_moved_by_e(self, alpha, beta):
        # e' must cover the (4.5.7) P_n' when P_n and P_(n-1) each move by
        # +-e, whatever the recurrence's own noise: exact, from the textbook
        # recurrence, at x = X 2^-wp
        wp = self.WP
        for n in (2, 3, 7, 20, 40):
            steps = knots_mod._integer_steps(alpha, beta, n)
            t = 2 * n + alpha + beta
            for x in NEAR_EDGES:
                X = self._fixed_point(x)
                xq = F(X, 2 ** wp)
                *_, e, e_d = knots_mod._fixed_derivatives(steps, X, wp, True)
                values = [F(1), F(0)]  # P_j, P_(j-1)
                for j in range(1, n + 1):
                    a, b, c = _textbook_step(alpha, beta, j)
                    values = [(a * xq + b) * values[0] - c * values[1], values[0]]

                def derivative(p, p_prev):
                    return (n * (alpha - beta - t * xq) * p + 2 * (n + alpha) * (n + beta) * p_prev) / (
                        t * (1 - xq * xq)
                    )

                exact = derivative(*values)
                assert exact == _exact_jacobi_derivatives(alpha, beta, n, xq)[1], (n, x)
                moved = F(e, 2 ** wp)
                change = max(
                    abs(derivative(values[0] + s * moved, values[1] + s_prev * moved) - exact)
                    for s in (-1, 1)
                    for s_prev in (-1, 1)
                )
                assert change * 2 ** wp <= e_d, (n, x)

    @pytest.mark.parametrize("alpha, beta", IDENTITY_PAIRS)
    def test_isolating_intervals_change_sign_exactly(self, alpha, beta):
        # every interval the solver proves, read with the exact rational P_n:
        # opposite signs at its two ends, the knot inside, and at 256 bits a
        # radius far below 2^-100
        wp = BITS + knots_mod._ROOT_GUARD_BITS
        for n in (1, 2, 3, 8, 13, 24):
            steps = knots_mod._integer_steps(alpha, beta, n)
            for seed in knots_mod._seed_roots(steps, alpha == beta):
                x, lo, hi = knots_mod._refine(steps, seed, wp)
                below, above = (_exact_jacobi_derivatives(alpha, beta, n, F(end, 2 ** wp))[0] for end in (lo, hi))
                assert below * above < 0 and lo <= x <= hi, (n, seed)
                assert hi - lo < 1 << (wp - 100), (n, seed)

    @staticmethod
    def _ladders(monkeypatch, n, bits):
        """The precision of each Halley evaluation of a cold (1/3, 1/5) set,
        one list per root; asserts that nothing is evaluated outside _refine,
        so the proof reads the last evaluation and makes none of its own."""
        knots_mod.gauss_jacobi_knots.cache_clear()
        derivatives, refine = knots_mod._fixed_derivatives, knots_mod._refine
        per_root, outside = [], []
        refining = False

        def counting(steps, X, at, noise=False):
            (per_root[-1] if refining else outside).append(at)
            return derivatives(steps, X, at, noise)

        def tracked(*args):
            nonlocal refining
            per_root.append([])
            refining = True
            try:
                return refine(*args)
            finally:
                refining = False

        monkeypatch.setattr(knots_mod, "_fixed_derivatives", counting)
        monkeypatch.setattr(knots_mod, "_refine", tracked)
        gauss_jacobi_knots(n, F(1, 3), F(1, 5), bits)
        assert len(per_root) == n and outside == []
        return per_root

    @pytest.mark.parametrize("bits", [256, 512])
    def test_cold_set_evaluations(self, monkeypatch, bits):
        # Halley from the asymptotic seeds on a precision ladder, stopped on
        # the predicted error of the step just taken: at 256 bits one
        # evaluation below wp and one at wp per root, at 512 at most three,
        # the first below wp and the last at it.
        wp = bits + knots_mod._ROOT_GUARD_BITS
        for ladder in self._ladders(monkeypatch, 24, bits):
            assert ladder[0] < wp and ladder[-1] == wp, ladder
            assert (len(ladder) == 2) if bits == 256 else (len(ladder) <= 3), ladder

    @pytest.mark.parametrize("n", [24, 200])
    @pytest.mark.parametrize("bits", [256, 512])
    def test_ladder_reaches_wp_once(self, monkeypatch, n, bits):
        # the rung below wp leaves X within the stop rule at wp, so the one
        # evaluation at wp is the last, at the roots near the ends too
        wp = bits + knots_mod._ROOT_GUARD_BITS
        for ladder in self._ladders(monkeypatch, n, bits):
            assert ladder.count(wp) == 1 and ladder[-1] == wp, ladder

    def test_halley_cap_failure(self, monkeypatch):
        # good float seeds, then one Halley step allowed where 256 bits need
        # two: the fixed-point loop, not the seed stage, must give up
        knots_mod.gauss_jacobi_knots.cache_clear()
        seeds = knots_mod._seed_roots(knots_mod._integer_steps(F(1, 7), F(2, 7), 8), False)
        monkeypatch.setattr(knots_mod, "_seed_roots", lambda steps, symmetric: seeds)
        monkeypatch.setattr(knots_mod, "_NEWTON_CAP", 1)
        with pytest.raises(ConvergenceFailure, match="Halley iteration exceeded its step cap"):
            gauss_jacobi_knots(8, F(1, 7), F(2, 7), BITS)

    def test_seed_iterations_per_root(self, monkeypatch):
        # (alpha, beta) drawn from (-1, 3]; the cosine starts took about 6
        rng = random.Random(20261019)
        calls = []
        original = knots_mod._float_value_derivative

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(knots_mod, "_float_value_derivative", counting)
        roots = 0
        for n in (8, 16, 24):
            for _ in range(20):
                dens = rng.randint(7, 97), rng.randint(7, 97)
                alpha, beta = (F(rng.randint(1 - q, 3 * q), q) for q in dens)
                knots_mod._seed_roots(knots_mod._integer_steps(alpha, beta, n), alpha == beta)
                roots += n
        assert len(calls) <= 3 * roots


def _random_pairs(count, seed=20261018):
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        pair = []
        for _ in range(2):
            den = rng.randint(1, 97)
            pair.append(F(rng.randint(1 - den, 12 * den), den))
        pairs.append(tuple(pair))
    return pairs


EXTREME_PAIRS = [
    (F(-99, 100), F(-99, 100)),
    (F(-99, 100), F(7)),
    (F(50), F(-99, 100)),
    (F(50), F(50)),
    (F(-1, 2), F(-1, 2)),
    (F(0), F(0)),
]


def _knot_digest(cases):
    h = hashlib.sha256()
    for alpha, beta, n, bits in cases:
        points = gauss_jacobi_knots(n, alpha, beta, bits).points
        h.update(f"{alpha} {beta} {n} {bits}:".encode())
        h.update(";".join("%d,%d" % _man_exp(p.raw) for p in points).encode())
        h.update(b"\n")
    return h.hexdigest()


class TestPinnedBits:
    # sha256 over the exact (mantissa, exponent) of every rounded knot, written
    # from the interlacing-ladder solver that preceded the degree-n solve; in
    # the extreme pairs, the middle knot of an odd alpha = beta set is (0, 0)
    def test_random_pairs_small_n(self):
        cases = [
            (a, b, n, bits)
            for bits in (64, 256)
            for a, b in _random_pairs(400)
            for n in range(1, 11)
        ]
        assert _knot_digest(cases) == (
            "4315acdb9de76d164055c2c65b72541887f3934b4187c54aa71f4a7c75f8497a"
        )

    def test_extreme_pairs(self):
        cases = [
            (a, b, n, bits)
            for bits in (256, 512)
            for a, b in EXTREME_PAIRS
            for n in (1, 2, 3, 5, 20, 40)
        ]
        assert _knot_digest(cases) == (
            "39f3adf0b997a8e4bffd0a67d21b894271306cfe50121811487e23bb44956099"
        )


def _fresh_pairs(count, seed):
    """(alpha, beta) pairs drawn as the jacobi_explore benchmark draws its
    fresh ones: each a fraction in (-1, 3] over a denominator in 7..97."""
    rng = random.Random(seed)

    def one():
        q = rng.randint(7, 97)
        return F(rng.randint(1 - q, 3 * q), q)

    return [(one(), one()) for _ in range(count)]


class TestCorrectRounding:
    # the b-bit set is the 2b-bit set rounded to nearest at b bits, whatever
    # path the solver takes to its roots; the first fresh alphas also make
    # symmetric pairs, so both parity branches are read
    FRESH = _fresh_pairs(4, 20261020)
    PAIRS = FRESH + [(a, a) for a, _ in FRESH[:2]] + EXTREME_PAIRS

    @pytest.mark.parametrize("bits", [64, 256, 512])
    @pytest.mark.parametrize("alpha, beta", PAIRS)
    def test_set_is_the_doubled_precision_set_rounded(self, alpha, beta, bits):
        for n in (1, 2, 3, 8, 13, 24, 48):
            points = gauss_jacobi_knots(n, alpha, beta, bits).points
            finer = gauss_jacobi_knots(n, alpha, beta, 2 * bits).points
            rounded = [from_man_exp(*_man_exp(p.raw), bits, round_nearest) for p in finer]
            assert [p.raw for p in points] == rounded, n


class TestKnotSetGuards:
    def test_minimum_gap_enforced(self):
        close = (ApFloat(F(0), BITS), ApFloat(F(1, 2 ** 300), BITS))
        with pytest.raises(KnotSpacingError):
            KnotSet(family="equispaced", n=2, points=close, precision_bits=BITS)

    def test_generated_sets_have_safe_gaps(self):
        floor = pow2(16 - BITS, BITS)
        for k in (
            chebyshev1_knots(40, BITS),
            chebyshev2_knots(40, BITS),
            equispaced_knots(40, F(-1), F(1), BITS),
            gauss_jacobi_knots(12, F(0), F(0), BITS),
        ):
            gaps = [b - a for a, b in zip(k.points, k.points[1:])]
            assert all(g > floor for g in gaps)

    @pytest.mark.parametrize("bits", [64, 256, 512])
    @pytest.mark.parametrize(
        "case",
        [
            # (lower knot, least representable widening of the gap), from the
            # floor 2^(16 - bits); the last three touch or straddle 0
            lambda floor, bits: (F(1, 2), F(2) ** -bits),
            lambda floor, bits: (F(-3, 4), F(2) ** -bits),
            lambda floor, bits: (F(-1, 2), F(2) ** (-1 - bits)),
            lambda floor, bits: (F(0), floor / 2 ** (bits - 1)),
            lambda floor, bits: (-floor / 2, floor / 2 ** (bits - 1)),
            lambda floor, bits: (-floor, floor / 2 ** (bits - 1)),
        ],
        ids=["half", "minus_three_quarters", "minus_half", "from_zero", "straddle_zero", "to_zero"],
    )
    def test_gap_floor_boundary(self, case, bits):
        # a gap of exactly 2^(16 - bits) is refused, one ulp wider is accepted
        floor = F(2) ** (16 - bits)
        lo, ulp = case(floor, bits)
        for gap, accepted in ((floor, False), (floor + ulp, True)):
            pts = (ApFloat(lo, bits), ApFloat(lo + gap, bits))
            assert [p.to_fraction() for p in pts] == [lo, lo + gap]
            if accepted:
                KnotSet(family="equispaced", n=2, points=pts, precision_bits=bits)
            else:
                with pytest.raises(KnotSpacingError):
                    KnotSet(family="equispaced", n=2, points=pts, precision_bits=bits)

    def test_descending_points_rejected(self):
        pts = (ApFloat(F(1), BITS), ApFloat(F(0), BITS))
        with pytest.raises(KnotSpacingError):
            KnotSet(family="equispaced", n=2, points=pts, precision_bits=BITS)


class TestKnotSetIntegerForm:
    """The stored integer form, its alignment with a point y0, and the O(1)
    value hash that the basis cache keys on."""

    @pytest.mark.parametrize("family", ["chebyshev1", "equispaced", "gauss_jacobi"])
    def test_points_are_the_integers_over_the_least_scale(self, family):
        ks = make_knots(family, 9, 64)
        assert [F(x, 2 ** ks.scale) for x in ks.ints] == [p.to_fraction() for p in ks.points]
        assert ks.scale == 0 or any(x % 2 for x in ks.ints)

    @pytest.mark.parametrize("family", ["chebyshev1", "equispaced"])
    @pytest.mark.parametrize(
        "y0, finer",
        [(ApFloat(0, 64), False), (ApFloat(F(1, 2), 64), False), (ApFloat(F(1, 3), 512), True)],
        ids=["zero", "coarser", "finer"],
    )
    def test_aligned_shifts_the_knot_integers_only_for_a_finer_y0(self, family, y0, finer):
        ks = make_knots(family, 9, 64)
        xs, y, L = ks.aligned(y0)
        assert (xs is not ks.ints) == finer and (L > ks.scale) == finer
        assert [F(x, 2 ** L) for x in xs] == [p.to_fraction() for p in ks.points]
        assert F(y, 2 ** L) == y0.to_fraction()

    def test_equal_sets_built_separately_hash_equal_and_share_a_basis(self):
        a = gauss_jacobi_knots(7, F(1, 3), F(1, 5), 128)
        b = KnotSet(a.family, a.n, tuple(ApFloat(p.to_fraction(), 128) for p in a.points), 128, a.alpha, a.beta)
        assert a is not b and a.points is not b.points
        assert a == b and hash(a) == hash(b)
        assert hermite_fejer_basis(a) is hermite_fejer_basis(b)

    def test_one_point_moved_by_one_ulp_compares_unequal(self):
        a = chebyshev1_knots(5, 64)
        m, e = _man_exp(a.points[3].raw)
        ulp = e + m.bit_length() - 64  # the point is positive
        moved = ApFloat._wrap(from_man_exp((m << (e - ulp)) + 1, ulp), 64)
        b = KnotSet(a.family, a.n, a.points[:3] + (moved,) + a.points[4:], 64)
        assert moved.to_fraction() - a.points[3].to_fraction() == F(2) ** ulp
        assert a != b

    def test_hash_reads_no_point(self, monkeypatch):
        calls = []
        original = ApFloat.__hash__
        monkeypatch.setattr(ApFloat, "__hash__", lambda self: calls.append(1) or original(self))
        ks = KnotSet("chebyshev1", 48, chebyshev1_knots(48, 256).points, 256)
        hash(ks)
        hermite_fejer_basis(ks)
        assert calls == []
        hash(ks.points[0])
        assert calls == [1]  # the counter is live


class TestMakeKnots:
    def test_dispatch(self):
        assert make_knots("chebyshev1", 3, BITS).family == "chebyshev1"
        assert make_knots("chebyshev2", 3, BITS).family == "chebyshev2"
        assert make_knots("equispaced", 3, BITS).family == "equispaced"
        gj = make_knots("gauss_jacobi", 3, BITS, alpha=F(0), beta=F(0))
        assert gj.family == "gauss_jacobi" and gj.alpha == 0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_knots("legendre_lobatto", 3, BITS)

    def test_gauss_jacobi_defaults_to_legendre(self):
        legendre = make_knots("gauss_jacobi", 3, BITS)
        assert legendre is make_knots("gauss_jacobi", 3, BITS, alpha=F(0), beta=F(0))
        assert legendre is gauss_jacobi_knots(3, F(0), F(0), BITS)
        assert legendre is make_knots("gauss_jacobi", 3, BITS, alpha=None, beta=None)

    @pytest.mark.parametrize(
        "family, foreign",
        [
            (family, name)
            for family, own in [
                ("chebyshev1", ()),
                ("chebyshev2", ()),
                ("equispaced", ("a", "b")),
                ("gauss_jacobi", ("alpha", "beta")),
            ]
            for name in ("alpha", "beta", "a", "b")
            if name not in own
        ],
    )
    def test_parameter_of_another_family_rejected(self, family, foreign):
        with pytest.raises(ValueError, match=f"^{foreign} "):
            make_knots(family, 3, BITS, **{foreign: F(1, 2)})
        # None counts as not given
        assert make_knots(family, 3, BITS, **{foreign: None}) is make_knots(family, 3, BITS)


CLOSED_FORM_FAMILIES = [
    (chebyshev1_knots, lambda k: (k + 1, 64)),
    (chebyshev2_knots, lambda k: (k + 1, 64)),
    (equispaced_knots, lambda k: (k + 2, F(-1), F(1), 64)),
]


class TestClosedFormKnotCaches:
    """chebyshev1, chebyshev2 and equispaced sets are cached like the
    Gauss-Jacobi ones: bounded, per family, by value of the arguments."""

    @pytest.mark.parametrize("family, args", CLOSED_FORM_FAMILIES)
    def test_repeated_key_returns_the_same_set(self, family, args):
        assert family(*args(4)) is family(*args(4))

    def test_make_knots_hands_back_the_cached_set(self):
        first = make_knots("equispaced", 5, BITS, a=F(-1), b=F(1))
        assert make_knots("equispaced", 5, BITS) is first
        assert make_knots("chebyshev2", 5, BITS) is chebyshev2_knots(5, BITS)

    @pytest.mark.parametrize("family, args", CLOSED_FORM_FAMILIES)
    def test_bounded_at_the_knot_set_cap(self, family, args):
        cap = knots_mod._KNOT_SET_CAP
        assert family.cache_info().maxsize == cap
        for k in range(100):
            family(*args(k))
            assert family.cache_info().currsize <= cap
        assert family.cache_info().currsize == cap

    @pytest.mark.parametrize(
        "family, args",
        [
            (equispaced_knots, (1, F(-1), F(1), BITS)),
            (equispaced_knots, (3, F(1), F(1), BITS)),
            (equispaced_knots, (3, F(2), F(1), BITS)),
            (chebyshev1_knots, (0, BITS)),
            (chebyshev2_knots, (3, 8)),
        ],
        ids=["one-point", "a-equals-b", "a-above-b", "chebyshev1-n0", "chebyshev2-low-bits"],
    )
    def test_invalid_call_raises_every_time(self, family, args):
        for _ in range(3):
            with pytest.raises(ValueError):
                family(*args)

    @pytest.mark.parametrize("family, args", CLOSED_FORM_FAMILIES)
    def test_cold_cache_under_threads(self, family, args):
        family.cache_clear()
        key = (*args(30)[:-1], 512)
        results, errors = [], []

        def build():
            try:
                results.append(family(*key))
            except Exception as exc:  # collected and asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=build) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        family.cache_clear()
        fresh = family(*key)
        assert len(results) == 4 and all(r == fresh for r in results)
