"""Conjecture engine: formula fitting with exact holdout gates, continued
fraction recognition with doubled-precision confirmation, and the knot-family
explorer cross-checked against the exact balance."""
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fejerlab.conjecture as conj_mod
from mpmath.libmp import mpf_pi, round_nearest

from fejerlab.apnum import ApFloat
from fejerlab.conjecture import (
    InsufficientTrainingPoints,
    _convergents,
    _nearest_knot,
    conjecture_power_formula,
    explore_knot_family,
    rational_reconstruct,
)
from fejerlab.identities import inverse_power_sum, second_derivative_balance
from fejerlab.knots import KnotSet, make_knots
from fejerlab.ratpoly import RatPoly


class TestPowerFormula:
    def test_m1_rediscovers_the_cosecant_formula(self):
        report = conjecture_power_formula(1, [3, 5, 7], [9, 11])
        assert report.formula == RatPoly([F(-1, 6), 0, F(1, 6)])
        assert report.confirmed

    def test_m1_any_split(self):
        report = conjecture_power_formula(1, [5, 9, 13, 17], [3, 7])
        assert report.formula == RatPoly([F(-1, 6), 0, F(1, 6)])
        assert report.confirmed

    def test_m2(self):
        report = conjecture_power_formula(2, [3, 5, 7, 9, 11, 13], [15, 17])
        assert report.confirmed
        assert report.formula.degree <= 4
        assert report.formula.evaluate(3) == F(16, 9)
        # three fresh points beyond the declared holdout
        for n in (19, 21, 23):
            assert report.formula.evaluate(n) == inverse_power_sum(n, 2)

    def test_m3(self):
        report = conjecture_power_formula(3, list(range(3, 18, 2)), [19, 21])
        assert report.confirmed
        assert report.formula.degree <= 6
        for n in (23, 25, 27):
            assert report.formula.evaluate(n) == inverse_power_sum(n, 3)

    def test_insufficient_training_points(self):
        with pytest.raises(InsufficientTrainingPoints):
            conjecture_power_formula(1, [3, 5], [7])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            conjecture_power_formula(1, [3, 5, 7], [7, 9])

    def test_even_entries_rejected(self):
        with pytest.raises(ValueError):
            conjecture_power_formula(1, [3, 4, 5], [7, 9])


def exact(q):
    """An honest recompute for an exactly known rational source quantity."""
    return lambda bits: ApFloat(q, bits)


class TestRationalReconstruct:
    def test_exact_rational_input_confirmed(self):
        asked = []

        def recompute(bits):
            asked.append(bits)
            return ApFloat(F(8, 3), bits)

        rec = rational_reconstruct(ApFloat(F(8, 3), 256), 10 ** 6, recompute)
        assert rec.candidate == F(8, 3)
        assert rec.confirmed_at_bits == 512
        assert asked == [512]

    def test_recompute_is_required(self):
        with pytest.raises(TypeError):
            rational_reconstruct(ApFloat(F(8, 3), 256), 10 ** 6)

    def test_pi_yields_nothing(self):
        def pi_at(bits):
            return ApFloat._wrap(mpf_pi(bits, round_nearest), bits)

        rec = rational_reconstruct(pi_at(256), 10 ** 6, pi_at)
        assert rec.candidate is None and rec.confirmed_at_bits is None

    def test_large_rational(self):
        # (99^2 - 1)/3 = 9800/3
        q = F(99 ** 2 - 1, 3)
        rec = rational_reconstruct(ApFloat(q, 256), 10 ** 6, exact(q))
        assert rec.candidate == F(9800, 3)

    def test_denominator_cap_respected(self):
        rec = rational_reconstruct(ApFloat(F(8, 3), 256), 2, exact(F(8, 3)))
        assert rec.candidate is None

    def test_negative_value(self):
        rec = rational_reconstruct(ApFloat(F(-16, 3), 256), 10 ** 6, exact(F(-16, 3)))
        assert rec.candidate == F(-16, 3)

    def test_zero(self):
        rec = rational_reconstruct(ApFloat(0, 256), 10 ** 6, exact(F(0)))
        assert rec.candidate == 0

    def test_failed_confirmation_clears_candidate(self):
        # the recompute disagrees with the accepted convergent -> no candidate
        x = ApFloat(F(8, 3), 256)
        drifted = lambda bits: ApFloat(F(8, 3) + F(1, 2 ** 100), bits)
        rec = rational_reconstruct(x, 10 ** 6, recompute=drifted)
        assert rec.candidate is None

    def test_confirmation_tightness_invariant(self):
        # never confirm when recomputation moves more than 2^-bits relative
        x = ApFloat(F(22, 7), 128)
        rec = rational_reconstruct(x, 10 ** 6, recompute=lambda bits: ApFloat(F(22, 7), bits))
        assert rec.candidate == F(22, 7)
        bad = rational_reconstruct(
            x, 10 ** 6, recompute=lambda bits: ApFloat(F(22, 7) + F(1, 2 ** 64), bits)
        )
        assert bad.candidate is None


def _fraction_convergents(value):
    """The Fraction route the integer convergents replaced, kept as their oracle."""
    h_prev, k_prev = 1, 0
    h_cur, k_cur = None, None
    rest = value
    while True:
        a = rest.numerator // rest.denominator  # floor
        if h_cur is None:
            h_cur, k_cur = a, 1
        else:
            h_cur, k_cur, h_prev, k_prev = a * h_cur + h_prev, a * k_cur + k_prev, h_cur, k_cur
        yield F(h_cur, k_cur)
        rest = rest - a
        if rest == 0:
            return
        rest = 1 / rest


def _fraction_candidate(x, max_denominator):
    """The first convergent within 2^(-precision/2) of x, by Fraction arithmetic."""
    exact = x.to_fraction()
    for conv in _fraction_convergents(exact):
        if conv.denominator > max_denominator:
            return None
        if abs(exact - conv) < F(1, 2 ** (x.precision_bits // 2)):
            return conv
    return None


BITS_DRAWN = st.sampled_from([64, 128, 256])
# random dyadics, and roundings of small rationals (which the window accepts)
DYADICS = st.one_of(
    st.builds(
        lambda m, e, bits: ApFloat(F(m) * F(2) ** e, bits),
        st.integers(-(2 ** 300), 2 ** 300),
        st.integers(-400, 40),
        BITS_DRAWN,
    ),
    st.builds(
        lambda h, k, bits: ApFloat(F(h, k), bits),
        st.integers(-(10 ** 7), 10 ** 7),
        st.integers(1, 10 ** 7),
        BITS_DRAWN,
    ),
)


class TestIntegerConvergents:
    @given(DYADICS)
    def test_match_the_fraction_convergents(self, x):
        num, den = x.to_fraction().as_integer_ratio()
        expected = [(c.numerator, c.denominator) for c in _fraction_convergents(F(num, den))]
        assert list(_convergents(num, den)) == expected

    @given(DYADICS, st.sampled_from([1, 7, 10 ** 3, 10 ** 6]))
    def test_candidates_match_the_fraction_window(self, x, max_denominator):
        expected = _fraction_candidate(x, max_denominator)
        rec = rational_reconstruct(x, max_denominator, exact(expected or F(0)))
        assert rec.candidate == expected


class TestExploreKnotFamily:
    def test_chebyshev_offcenter_matches_exact_balance(self):
        bits = 192
        for n in (3, 5, 7):
            rest, nearest = explore_knot_family("chebyshev1", None, 2, ApFloat(0, bits), n, bits)
            off_exact, mid_exact = second_derivative_balance(n)
            assert rest.candidate == off_exact
            assert nearest.candidate == mid_exact
            assert rest.confirmed_at_bits == 2 * bits

    def test_gauss_jacobi_chebyshev_case_agrees(self):
        bits = 192
        params = {"alpha": F(-1, 2), "beta": F(-1, 2)}
        rest, nearest = explore_knot_family("gauss_jacobi", params, 2, ApFloat(0, bits), 5, bits)
        off_exact, mid_exact = second_derivative_balance(5)
        assert rest.candidate == off_exact
        assert nearest.candidate == mid_exact

    def test_equispaced_output_is_well_formed(self):
        bits = 192
        for rec in explore_knot_family("equispaced", None, 2, ApFloat(0, bits), 5, bits):
            assert rec.input.precision_bits == bits
            if rec.candidate is not None:
                assert rec.confirmed_at_bits == 2 * bits

    def test_p_validated(self):
        with pytest.raises(ValueError):
            explore_knot_family("chebyshev1", None, 0, ApFloat(0, 192), 3, 192)

    def test_each_precision_builds_one_basis_per_n(self, monkeypatch):
        builds = Counter()
        original = conj_mod.hermite_fejer_basis

        def counting(knots):
            builds[knots.precision_bits] += 1
            return original(knots)

        monkeypatch.setattr(conj_mod, "hermite_fejer_basis", counting)
        legendre = {"alpha": F(0), "beta": F(0)}
        for n in (3, 5):
            findings = explore_knot_family("gauss_jacobi", legendre, 2, ApFloat(0, 256), n, 256)
            assert all(rec.confirmed_at_bits == 512 for rec in findings)
        assert builds == {256: 2, 512: 2}


class TestNearestKnot:
    def test_a_near_tie_goes_to_the_truly_nearer_knot(self):
        # |-1 - y0| = 1 + 2^-70 and |1 - y0| = 1 - 2^-70 both round to 1 at
        # 64 bits, which would tie them to index 0
        knots = KnotSet("equispaced", 2, (ApFloat(-1, 64), ApFloat(1, 64)), 64)
        y0 = ApFloat(F(1, 2**70), 64)
        assert abs(knots.points[0] - y0) == abs(knots.points[1] - y0)
        assert _nearest_knot(knots, y0) == 1
        assert _nearest_knot(knots, -y0) == 0

    def test_an_exact_tie_goes_to_the_lowest_index(self):
        knots = KnotSet("equispaced", 2, (ApFloat(-1, 64), ApFloat(1, 64)), 64)
        assert _nearest_knot(knots, ApFloat(0, 64)) == 0

    @pytest.mark.parametrize("family", ["chebyshev1", "chebyshev2", "equispaced"])
    @pytest.mark.parametrize("y0", [F(0), F(3, 10), F(-9, 10), F(5, 4), F(-2, 7)])
    def test_matches_the_exact_fraction_distances(self, family, y0):
        knots = make_knots(family, 9, 128)
        y = ApFloat(y0, 128)
        exact = [abs(x.to_fraction() - y.to_fraction()) for x in knots.points]
        assert _nearest_knot(knots, y) == exact.index(min(exact))
