"""Exact polynomial algebra: every assertion here is exact equality."""
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpmath.libmp import from_rational, mpf_cos, mpf_mul, mpf_mul_int, mpf_pi, round_nearest

from fejerlab.apnum import ApFloat, NumPoly
from fejerlab.identities import inverse_power_sum
from fejerlab.ratpoly import (
    DuplicateAbscissa,
    RatPoly,
    _chebyshev_walk,
    chebyshev_T,
    format_rational,
    newton_power_sums,
    rational_interpolate,
)
from reference import pow2
from reference import rational_interpolate as fraction_interpolate

X = RatPoly([0, 1])
T3 = RatPoly([0, -3, 0, 4])


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=5)

#: Large primes, so that values drawn over them have coprime denominators.
LARGE_PRIMES = [1000003, 998244353, 10**9 + 7, 2**61 - 1, 2**89 - 1]
ordinates = st.one_of(
    small_fractions,
    st.builds(F, st.integers(min_value=-(10**30), max_value=10**30), st.sampled_from(LARGE_PRIMES)),
)


def polys(max_degree=5, allow_zero=True):
    min_size = 0 if allow_zero else 1
    return st.lists(small_fractions, min_size=min_size, max_size=max_degree + 1).map(RatPoly)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert RatPoly([1, 1]) * RatPoly([-1, 1]) == RatPoly([-1, 0, 1])

    def test_product_to_sum(self):
        # T1*T1 = (T2 + T0)/2
        lhs = chebyshev_T(1) * chebyshev_T(1)
        rhs = (chebyshev_T(2) + chebyshev_T(0)) * F(1, 2)
        assert lhs == rhs == RatPoly([0, 0, 1])

    def test_cancellation_renormalizes_degree(self):
        s = T3 + RatPoly([0, 3])
        assert s == RatPoly([0, 0, 0, 4])
        assert s.degree == 3

    def test_zero_polynomial(self):
        z = RatPoly()
        assert z.is_zero() and z.degree == -1
        assert (T3 + T3 * -1).is_zero()
        assert (z * T3).is_zero()

    @given(polys(), polys())
    def test_product_rule(self, a, b):
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert lhs == rhs

    def test_scalar_multiplication(self):
        assert T3 * F(1, 2) == RatPoly([0, F(-3, 2), 0, 2])
        assert 2 * T3 == RatPoly([0, -6, 0, 8])


class TestDerivative:
    def test_power_rule_second(self):
        assert T3.derivative(2) == RatPoly([0, 24])

    def test_zeroth_is_identity(self):
        assert T3.derivative(0) == T3

    def test_chain_rule_vs_expansion(self):
        # d/dx (x^2-1)^2 both by expanding first and by 2*q*q'
        q = RatPoly([-1, 0, 1])
        expanded = (q * q).derivative()
        chain = 2 * q * q.derivative()
        assert expanded == chain == RatPoly([0, -4, 0, 4])

    def test_order_beyond_degree(self):
        assert T3.derivative(4).is_zero()


def horner_by_fractions(p, x):
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


class TestEval:
    def test_endpoint(self):
        assert T3.evaluate(1) == 1

    def test_half(self):
        # Horner by hand: 4/8 - 3/2 = -1, matching cos(3*pi/3)
        assert T3.evaluate(F(1, 2)) == -1

    def test_zero_poly(self):
        assert RatPoly().evaluate(F(7, 3)) == 0

    @given(polys(max_degree=9), st.integers(min_value=-10**6, max_value=10**6))
    def test_integer_point(self, p, x):
        value = p.evaluate(x)
        assert type(value) is F and value == horner_by_fractions(p, x)

    @given(polys(max_degree=9), ordinates)
    def test_fraction_point(self, p, x):
        value = p.evaluate(x)
        assert type(value) is F and value == horner_by_fractions(p, x)

    @given(st.lists(ordinates, max_size=8).map(RatPoly), ordinates)
    def test_large_coprime_denominators(self, p, x):
        assert p.evaluate(x) == horner_by_fractions(p, x)


def chebyshev_by_recurrence(n_max):
    """T_0..T_{n_max} as int lists, by T_{k+1} = 2x T_k - T_{k-1}."""
    ts = [[1], [0, 1]]
    while len(ts) <= n_max:
        nxt = [0] + [2 * c for c in ts[-1]]
        for k, c in enumerate(ts[-2]):
            nxt[k] -= c
        ts.append(nxt)
    return ts[: n_max + 1]


class TestChebyshev:
    def test_matches_three_term_recurrence(self):
        for n, ref in enumerate(chebyshev_by_recurrence(400)):
            assert chebyshev_T(n) == RatPoly(ref), n

    def test_first_few(self):
        assert chebyshev_T(0) == RatPoly([1])
        assert chebyshev_T(1) == X
        assert chebyshev_T(2) == RatPoly([-1, 0, 2])
        # one recurrence step by hand: 2x(2x^2-1) - x
        assert chebyshev_T(3) == T3

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
    def test_degree_and_leading_coefficient(self, n):
        t = chebyshev_T(n)
        assert t.degree == n
        assert t.coeffs[-1] == F(2) ** (n - 1)

    def test_defining_identity_numeric(self):
        # T_5(cos t) = cos(5t) at 10 random angles, through the numeric kernel
        rng = random.Random(42)
        t5 = NumPoly(chebyshev_T(5).coeffs, 256)
        tol = pow2(-240, 256)
        for _ in range(10):
            theta = from_rational(rng.randrange(1, 2 ** 40), 2 ** 40, 256, round_nearest)
            theta = mpf_mul(theta, mpf_pi(256, round_nearest), 256, round_nearest)
            lhs = t5.evaluate(ApFloat._wrap(mpf_cos(theta, 256, round_nearest), 256))
            rhs = ApFloat._wrap(mpf_cos(mpf_mul_int(theta, 5, 256, round_nearest), 256, round_nearest), 256)
            assert abs(lhs - rhs) <= tol

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 4), (2, 12), (4, 6)])
    def test_composition(self, m, n):
        # T_m(T_n(x)) = T_mn(x), exactly (Horner over polynomials)
        tn = chebyshev_T(n)
        composed = RatPoly()
        for c in reversed(chebyshev_T(m).coeffs):
            composed = composed * tn + RatPoly([c])
        assert composed == chebyshev_T(m * n)

    def test_walk_is_every_prefix_of_the_full_polynomial(self):
        # the PS/balance route reads the walk stopped early; each stop must
        # give a prefix of the same coefficients, and stops past n give all
        for n in range(401):
            full = list(chebyshev_T(n).coeffs[n % 2 :: 2])
            for top in range(n % 2, n + 1, 2):
                assert _chebyshev_walk(n, top) == full[: top // 2 + 1], (n, top)
            assert _chebyshev_walk(n, n + 7) == full

    def test_walk_stopped_early_ignores_the_top(self):
        # c_1, c_3 of T_n are n(-1)^((n-1)/2) and the same times (1 - n^2)/6
        n = 10**6 + 1
        assert _chebyshev_walk(n, 3) == [n, n * (1 - n * n) // 6]

    @pytest.mark.parametrize("n", [3, 5, 9, 21])
    def test_odd_n_is_odd_function(self, n):
        assert not any(chebyshev_T(n).coeffs[0::2])

    @pytest.mark.parametrize("n", [2, 4, 10])
    def test_even_n_is_not_odd(self, n):
        # T_n(0) = (-1)^(n/2): an even T_n has no odd part to read W from
        assert chebyshev_T(n).coeffs[0] == (-1) ** (n // 2)


def poly_from_roots(roots):
    out = RatPoly([1])
    for r in roots:
        out = out * RatPoly([-r, 1])
    return out


def newton_by_fractions(a, m_max):
    """Newton's identities with Fraction e_i, the form the integer one replaced."""
    d = a.degree
    lead = a.coeffs[-1]
    e = [F(1)] + [(-1) ** i * a.coeffs[d - i] / lead for i in range(1, min(m_max, d) + 1)]
    sums = []
    for k in range(1, m_max + 1):
        acc = F(0)
        for i in range(1, min(k - 1, d) + 1):
            acc += (-1) ** (i - 1) * e[i] * sums[k - i - 1]
        if k <= d:
            acc += (-1) ** (k - 1) * k * e[k]
        sums.append(acc)
    return sums


class TestNewtonPowerSums:
    def test_single_root(self):
        assert newton_power_sums(RatPoly([4, -3]), 2) == [F(4, 3), F(16, 9)]

    def test_symmetric_pair(self):
        assert newton_power_sums(RatPoly([-1, 0, 1]), 2) == [0, 2]

    def test_planted_cubic_against_direct_summation(self):
        roots = [F(1), F(2), F(3)]
        sums = newton_power_sums(poly_from_roots(roots), 3)
        assert sums == [6, 14, 36]
        assert sums == [sum(r ** m for r in roots) for m in (1, 2, 3)]

    def test_multiplicity_counted(self):
        sums = newton_power_sums(poly_from_roots([F(2), F(2)]), 3)
        assert sums == [4, 8, 16]

    def test_beyond_degree(self):
        # recurrence keeps going past m = deg; the root of 4y-3 is 3/4
        assert newton_power_sums(RatPoly([-3, 4]), 4)[3] == F(3, 4) ** 4

    def test_non_monic_input(self):
        scaled = poly_from_roots([F(1, 2), F(5)]) * F(7, 3)
        assert newton_power_sums(scaled, 2) == [F(11, 2), F(101, 4)]

    @given(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=1, max_size=5),
        st.fractions(min_value=1, max_value=3, max_denominator=2),
    )
    def test_planted_roots_match_direct_summation(self, roots, lead):
        sums = newton_power_sums(poly_from_roots(roots) * lead, 4)
        assert sums == [sum(r ** m for r in roots) for m in (1, 2, 3, 4)]

    @given(
        st.lists(small_fractions, min_size=1, max_size=7),
        small_fractions.filter(lambda c: c != 0),
        st.integers(min_value=1, max_value=10),
    )
    def test_matches_the_fraction_recurrence(self, low, lead, m_max):
        # non-monic Fraction coefficients, m_max on both sides of the degree
        a = RatPoly(low + [lead])
        assert newton_power_sums(a, m_max) == newton_by_fractions(a, m_max)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            newton_power_sums(RatPoly([5]), 1)

    def test_short_request_is_a_prefix(self):
        # only e_1..e_m are formed for m < deg; the sums must not change
        rng = random.Random(7)
        a = RatPoly([rng.randint(-50, 50) for _ in range(20)] + [rng.randint(1, 9)])
        assert a.degree == 20
        full = newton_power_sums(a, 20)
        for m in range(1, 21):
            assert newton_power_sums(a, m) == full[:m]


class TestRationalInterpolate:
    def test_line(self):
        assert rational_interpolate([(0, 1), (1, 3)]) == RatPoly([1, 2])

    def test_quadratic(self):
        assert rational_interpolate([(1, 1), (2, 4), (3, 9)]) == RatPoly([0, 0, 1])

    def test_duplicate_abscissa(self):
        with pytest.raises(DuplicateAbscissa):
            rational_interpolate([(1, 1), (1, 2)])

    @given(polys(max_degree=4))
    def test_roundtrip(self, p):
        xs = [F(k) for k in range(max(p.degree + 1, 1))]
        points = [(x, p.evaluate(x)) for x in xs]
        assert rational_interpolate(points) == p

    def test_oversampling_reproduces(self):
        p = RatPoly([F(1, 3), -2, F(5, 7)])
        points = [(F(k), p.evaluate(F(k))) for k in range(7)]
        assert rational_interpolate(points) == p

    def test_no_points_give_the_zero_polynomial(self):
        assert rational_interpolate([]) == RatPoly()

    @pytest.mark.parametrize(
        "points",
        [
            [(F(2, 4), 1), (F(1, 2), 2)],
            [(3, F(1, 3)), (F(-1, 7), 0), (F(6, 2), 5)],
            [(0, 1), (F(0, 5), 1)],
        ],
    )
    def test_equal_abscissae_in_different_spellings(self, points):
        with pytest.raises(DuplicateAbscissa):
            rational_interpolate(points)
        with pytest.raises(DuplicateAbscissa):
            fraction_interpolate(points)

    @given(
        st.lists(
            st.tuples(st.fractions(min_value=-40, max_value=40, max_denominator=12), ordinates),
            max_size=14,
            unique_by=lambda point: point[0],
        )
    )
    def test_matches_the_fraction_divided_differences(self, points):
        # negative, unsorted, non-integer abscissae; large coprime denominators
        assert rational_interpolate(points) == fraction_interpolate(points)

    def test_power_sum_fit_matches_the_fraction_divided_differences(self):
        for m in (1, 4, 9, 12):
            points = [(n, inverse_power_sum(n, m)) for n in range(3, 4 * m + 6, 2)]
            assert rational_interpolate(points) == fraction_interpolate(points)


def test_format_rational():
    assert format_rational(F(8, 3)) == "8/3"
    assert format_rational(F(8)) == "8/1"
    assert format_rational(F(-2, 6)) == "-1/3"
