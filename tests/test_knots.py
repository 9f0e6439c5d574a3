"""Knot generators: closed-form values, interlacing, symmetry, and the
finite-difference oracle for the Jacobi recurrence."""
import sys
import threading
from fractions import Fraction as F

import pytest

import fejerlab.knots as knots_mod
from fejerlab.apnum import ApFloat, pow2, sqrt, to_apfloat
from fejerlab.knots import (
    ConvergenceFailure,
    KnotSet,
    KnotSpacingError,
    chebyshev1_knots,
    chebyshev2_knots,
    equispaced_knots,
    gauss_jacobi_knots,
    jacobi_eval,
    make_knots,
)

BITS = 256


class TestChebyshev1:
    def test_single_knot_is_zero(self):
        k = chebyshev1_knots(1, BITS)
        assert k.points[0].is_zero()

    def test_n3_closed_form(self):
        # cos(pi/6) = sqrt(3)/2 by hand
        k = chebyshev1_knots(3, BITS)
        root32 = sqrt(ApFloat(3, BITS)) / 2
        tol = pow2(-250, BITS)
        assert abs(k.points[0] + root32) <= tol
        assert k.points[1].is_zero()
        assert abs(k.points[2] - root32) <= tol

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
        t7 = NumPoly.from_ratpoly(chebyshev_T(7), BITS)
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
        v, d = jacobi_eval(0, F(1, 2), F(-1, 3), to_apfloat(F(2, 5), BITS))
        assert v == 1 and d.is_zero()

    def test_p1_legendre_is_x(self):
        x = to_apfloat(F(3, 7), BITS)
        v, d = jacobi_eval(1, F(0), F(0), x)
        assert v == x and d == 1

    @pytest.mark.parametrize("n,alpha,beta", [(3, F(0), F(0)), (5, F(1, 3), F(-1, 4)), (8, F(-1, 2), F(2))])
    def test_derivative_against_central_difference(self, n, alpha, beta):
        x = to_apfloat(F(2, 7), BITS)
        h = pow2(-BITS // 3, BITS)
        _, d = jacobi_eval(n, alpha, beta, x)
        up, _ = jacobi_eval(n, alpha, beta, x + h)
        dn, _ = jacobi_eval(n, alpha, beta, x - h)
        fd = (up - dn) / h.scale2(1)
        # truncation error O(h^2 P''') dominates: ~2^(-2*BITS/3) with slack
        assert abs(fd - d) <= pow2(-2 * (BITS // 3) + 16, BITS)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eval(2, F(-1), F(0), to_apfloat(F(0), BITS))


class TestGaussJacobi:
    def test_chebyshev_case_matches_closed_form(self):
        gj = gauss_jacobi_knots(5, F(-1, 2), F(-1, 2), BITS)
        cf = chebyshev1_knots(5, BITS)
        tol = pow2(32 - BITS, BITS)
        for a, b in zip(gj.points, cf.points):
            assert abs(a - b) <= tol

    def test_legendre_two_points(self):
        # roots of (3x^2 - 1)/2 are +-1/sqrt(3)
        k = gauss_jacobi_knots(2, F(0), F(0), BITS)
        r = 1 / sqrt(ApFloat(3, BITS))
        tol = pow2(20 - BITS, BITS)
        assert abs(k.points[0] + r) <= tol
        assert abs(k.points[1] - r) <= tol

    def test_single_symmetric_root(self):
        k = gauss_jacobi_knots(1, F(0), F(0), BITS)
        assert k.points[0].is_zero()

    def test_asymmetric_single_root(self):
        # P_1 root is (beta - alpha)/(alpha + beta + 2)
        k = gauss_jacobi_knots(1, F(1, 2), F(1, 4), BITS)
        expect = (F(1, 4) - F(1, 2)) / (F(1, 2) + F(1, 4) + 2)
        assert abs(k.points[0] - to_apfloat(expect, BITS)) <= pow2(-250, BITS)

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

    def test_roots_inside_interval(self):
        k = gauss_jacobi_knots(9, F(3), F(-1, 2), BITS)
        one = ApFloat(1, BITS)
        assert -one < k.points[0] and k.points[-1] < one

    def test_newton_cap_failure(self, monkeypatch):
        knots_mod._ladder_stage.cache_clear()
        monkeypatch.setattr(knots_mod, "_NEWTON_CAP", 2)
        with pytest.raises(ConvergenceFailure):
            gauss_jacobi_knots(8, F(1, 7), F(2, 7), BITS)

    @pytest.mark.parametrize(
        "alpha, beta", [(F(0), F(0)), (F(-99, 100), F(7)), (F(9), F(-99, 100)), (F(1, 3), F(1, 5))]
    )
    def test_bracket_signs_alternate(self, alpha, beta):
        # the ladder passes (-1)^(k-j) as the sign of P_k at the lower end of
        # bracket j instead of evaluating it there
        wp = BITS + knots_mod._ROOT_GUARD_BITS
        prev = ()
        for k in range(1, 21):
            lows = (-1, *prev)
            for j, lo in enumerate(lows):
                value, _ = jacobi_eval(k, alpha, beta, ApFloat(lo, wp))
                assert knots_mod._sign(value.raw) == (-1) ** (k - j)
            _, roots = knots_mod._ladder_stage(alpha, beta, k, wp, 16 - BITS)
            prev = tuple(ApFloat(r, wp) for r in roots)

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            gauss_jacobi_knots(3, F(-3, 2), F(0), BITS)

    def test_concurrent_ladder_extension(self):
        # four threads race to build one cold ladder; none may see a stage
        # another has not finished
        knots_mod._ladder_stage.cache_clear()
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

    def test_ladder_cache_is_bounded_and_keeps_recent_use(self, monkeypatch):
        knots_mod._ladder_stage.cache_clear()
        cap = knots_mod._ladder_stage.cache_info().maxsize
        hot = (F(1, 3), F(1, 5))
        for i in range(cap + 100):
            if i % 100 == 0:
                gauss_jacobi_knots(3, *hot, 64)
            gauss_jacobi_knots(1, F(i, cap + 101), F(1, 2), 64)
        assert knots_mod._ladder_stage.cache_info().currsize <= cap
        polish, polished = knots_mod._polish_root, []

        def counting(*args):
            polished.append(args)
            return polish(*args)

        monkeypatch.setattr(knots_mod, "_polish_root", counting)
        gauss_jacobi_knots(3, *hot, 64)
        assert polished == []
        gauss_jacobi_knots(1, F(0), F(1, 2), 64)
        assert len(polished) == 1


class TestKnotSetGuards:
    def test_minimum_gap_enforced(self):
        close = (to_apfloat(F(0), BITS), to_apfloat(F(1, 2 ** 300), BITS))
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

    def test_descending_points_rejected(self):
        pts = (to_apfloat(F(1), BITS), to_apfloat(F(0), BITS))
        with pytest.raises(KnotSpacingError):
            KnotSet(family="equispaced", n=2, points=pts, precision_bits=BITS)


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

    def test_gauss_jacobi_needs_parameters(self):
        with pytest.raises(ValueError):
            make_knots("gauss_jacobi", 3, BITS)
