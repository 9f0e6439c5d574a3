"""Exact identity layer: zero-tolerance rational assertions plus the bridge
between the exact and numeric routes."""
from fractions import Fraction as F

import pytest

from fejerlab import identities
from mpmath.libmp import from_int, mpf_div, mpf_mul_int, mpf_pi, mpf_sin, round_nearest

from fejerlab.apnum import ApFloat, NumPoly
from fejerlab.hermite import derivative_sum, hermite_fejer_basis, scaled_tolerance
from fejerlab.identities import (
    inverse_power_sum,
    midpoint_second_derivative,
    second_derivative_balance,
    sin2_charpoly,
    verify_cosecant_sum,
)
from fejerlab.knots import chebyshev1_knots
from fejerlab.ratpoly import NotOdd, RatPoly, chebyshev_T, newton_power_sums
from reference import pow2


class TestSin2Charpoly:
    def test_n3(self):
        # T_3 = x(4x^2 - 3), so W = 4y - 3 with root 3/4 = sin^2(pi/3)
        w = sin2_charpoly(3)
        assert w == RatPoly([-3, 4])
        assert w.evaluate(F(3, 4)) == 0

    def test_n5(self):
        assert sin2_charpoly(5) == RatPoly([5, -20, 16])

    @pytest.mark.parametrize("n", [3, 5, 9, 15, 33])
    def test_degree(self, n):
        assert sin2_charpoly(n).degree == (n - 1) // 2

    @pytest.mark.parametrize("n", [5, 9, 15])
    def test_roots_are_sin_squares(self, n):
        w = NumPoly(sin2_charpoly(n).coeffs, 256)
        scale = max(abs(c) for c in sin2_charpoly(n).coeffs)
        tol = ApFloat(scale, 256) * pow2(40 - 256, 256)
        pi_n = mpf_div(mpf_pi(256, round_nearest), from_int(n), 256, round_nearest)
        for k in range(1, (n - 1) // 2 + 1):
            s = ApFloat._wrap(mpf_sin(mpf_mul_int(pi_n, k, 256, round_nearest), 256, round_nearest), 256)
            root = s * s
            assert ApFloat(0, 256) < root < ApFloat(1, 256)
            assert abs(w.evaluate(root)) <= tol

    def test_read_from_the_walk_without_building_t_n(self, monkeypatch):
        # W is c_1, c_3, ..., c_n of T_n, the walk the proofs read
        def refuse(n):
            raise AssertionError(f"chebyshev_T({n}) built")

        monkeypatch.setattr(identities, "chebyshev_T", refuse)
        w = sin2_charpoly(101)
        monkeypatch.undo()
        assert w == RatPoly(chebyshev_T(101).coeffs[1::2])

    @pytest.mark.parametrize("n", [3, 5, 9, 21])
    def test_is_the_odd_part_of_t_n(self, n):
        # T_n(x) = x W(x^2): W's coefficients are T_n's odd ones, in order
        t = chebyshev_T(n)
        assert not any(t.coeffs[0::2])
        assert sin2_charpoly(n) == RatPoly(t.coeffs[1::2])

    def test_reversal_has_reciprocal_roots(self):
        # the power-sum oracle reverses W: 4y - 3 becomes 4 - 3y, whose root
        # 4/3 = 1/sin^2(pi/3)
        reversed_w = RatPoly(sin2_charpoly(3).coeffs[::-1])
        assert reversed_w == RatPoly([4, -3])
        assert reversed_w.evaluate(F(4, 3)) == 0

    def test_even_rejected(self):
        with pytest.raises(NotOdd):
            sin2_charpoly(4)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            sin2_charpoly(1)


class TestInversePowerSum:
    def test_hand_values(self):
        assert inverse_power_sum(3, 1) == F(4, 3)  # 1/sin^2(pi/3)
        assert inverse_power_sum(5, 1) == 4  # (25-1)/3 halved
        assert inverse_power_sum(3, 2) == F(16, 9)  # (4/3)^2, single term

    def test_positive(self):
        for n in (3, 7, 13):
            for m in (1, 2, 3):
                assert inverse_power_sum(n, m) > 0

    def test_m_validation(self):
        with pytest.raises(ValueError):
            inverse_power_sum(3, 0)

    @pytest.mark.parametrize("n", range(3, 202, 2))
    def test_matches_the_full_charpoly_route(self, n):
        # the oracle reverses all of W; n = 3, 5, 7 have m > (n-1)/2
        full = newton_power_sums(RatPoly(sin2_charpoly(n).coeffs[::-1]), 8)
        for m in range(1, 9):
            assert inverse_power_sum(n, m) == full[m - 1], m

    @pytest.mark.parametrize("n", [3, 5, 7, 1001, 1000001])
    def test_closed_forms(self, n):
        assert inverse_power_sum(n, 1) == F(n * n - 1, 6)
        assert inverse_power_sum(n, 2) == F((n * n - 1) * (n * n + 11), 90)

    @pytest.mark.parametrize("n", range(3, 52, 2))
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exact_numeric_bridge(self, n, m):
        # directly summed sin powers at 256 bits agree with the exact value
        bits = 256
        pi_n = mpf_div(mpf_pi(bits, round_nearest), from_int(n), bits, round_nearest)
        one = ApFloat(1, bits)
        terms = []
        for k in range(1, (n - 1) // 2 + 1):
            s = ApFloat._wrap(mpf_sin(mpf_mul_int(pi_n, k, bits, round_nearest), bits, round_nearest), bits)
            p = s * s
            for _ in range(m - 1):
                p = p * s * s
            terms.append(one / p)
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        tol = scaled_tolerance(terms, bits)
        assert abs(total - ApFloat(inverse_power_sum(n, m), bits)) <= tol


class TestCosecantSum:
    def test_n3(self):
        report = verify_cosecant_sum(3)
        assert report.lhs == report.rhs == F(8, 3)
        assert report.holds

    def test_n5(self):
        report = verify_cosecant_sum(5)
        assert report.lhs == report.rhs == 8
        assert report.holds

    def test_even_rejected(self):
        with pytest.raises(NotOdd):
            verify_cosecant_sum(4)

    @pytest.mark.parametrize("n", range(3, 52, 2))
    def test_holds_exactly(self, n):
        report = verify_cosecant_sum(n)
        assert report.holds and report.lhs == F(n * n - 1, 3)


class TestMidpointSecondDerivative:
    def test_small_cases(self):
        assert midpoint_second_derivative(3) == F(-16, 3)
        assert midpoint_second_derivative(5) == -16

    @pytest.mark.parametrize("n", list(range(3, 32, 2)) + [1001, 2001, 4001])
    def test_closed_form(self, n):
        assert midpoint_second_derivative(n) == F(2, 3) * (1 - n * n)

    def test_matches_numeric_middle_term(self):
        bits = 256
        basis = hermite_fejer_basis(chebyshev1_knots(3, bits))
        _, terms = derivative_sum(basis, 2, ApFloat(0, bits))
        exact = ApFloat(midpoint_second_derivative(3), bits)
        assert abs(terms[1] - exact) <= scaled_tolerance(terms, bits)


class TestBalance:
    def test_n3(self):
        assert second_derivative_balance(3) == (F(16, 3), F(-16, 3))

    def test_n5(self):
        assert second_derivative_balance(5) == (16, -16)

    @pytest.mark.parametrize("n", list(range(3, 32, 2)) + [99, 1001, 2001, 4001])
    def test_sums_to_zero_exactly(self, n):
        off, mid = second_derivative_balance(n)
        assert off + mid == 0

    def test_offcenter_matches_derivative_sum_terms(self):
        # numeric confirmation of the same split at 256 bits
        bits = 256
        n = 7
        basis = hermite_fejer_basis(chebyshev1_knots(n, bits))
        _, terms = derivative_sum(basis, 2, ApFloat(0, bits))
        off_numeric = sum(terms[:3] + terms[4:], ApFloat(0, bits))
        off_exact, _ = second_derivative_balance(n)
        assert abs(off_numeric - ApFloat(off_exact, bits)) <= scaled_tolerance(terms, bits)


def test_exact_layer_multiplies_no_polynomials(monkeypatch):
    calls = []
    original = RatPoly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(RatPoly, "__mul__", counting_mul)
    monkeypatch.setattr(RatPoly, "__rmul__", counting_mul)
    n = 101
    assert verify_cosecant_sum(n).holds
    assert inverse_power_sum(n, 3) > 0
    off, mid = second_derivative_balance(n)
    assert off + mid == 0
    assert calls == []


def test_power_sum_builds_no_polynomial(monkeypatch):
    # the walk's integers go straight to the integer Newton identities
    built = []
    original = RatPoly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(RatPoly, "__init__", counting_init)
    for n, m in ((3, 1), (3, 8), (101, 1), (101, 4), (1001, 2)):
        assert inverse_power_sum(n, m) > 0
    assert verify_cosecant_sum(101).holds
    assert built == []


def test_exact_layer_reads_no_full_chebyshev_polynomial(monkeypatch):
    # the checks read c_1..c_(2m+1) only, so they stay cheap at large n
    def refuse(n):
        raise AssertionError(f"chebyshev_T({n}) built")

    monkeypatch.setattr(identities, "chebyshev_T", refuse)
    n = 100001
    assert verify_cosecant_sum(n).holds
    assert inverse_power_sum(n, 4) > 0
    off, mid = second_derivative_balance(n)
    assert off + mid == 0
    assert all(verify_cosecant_sum(k).holds for k in (3, 5, 101))
