"""Knot generators: closed-form values, interlacing, symmetry, the
finite-difference oracle for the Jacobi recurrence, and the Gauss-Jacobi
certificate and cache."""
import hashlib
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from mpmath.libmp import from_man_exp

import fejerlab.knots as knots_mod
from fejerlab.apnum import ApFloat, _man_exp
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
        knots_mod._jacobi_knot_set.cache_clear()
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

    def test_duplicate_seed_fails_the_certificate(self, monkeypatch):
        # two seeds on one root refine to one knot twice: the set must be
        # refused, never returned with a root missing
        knots_mod._jacobi_knot_set.cache_clear()
        seeds = knots_mod._seed_roots

        def duplicated(steps, symmetric):
            roots = seeds(steps, symmetric)
            return [roots[0], *roots[:-1]]

        monkeypatch.setattr(knots_mod, "_seed_roots", duplicated)
        with pytest.raises(ConvergenceFailure):
            gauss_jacobi_knots(8, F(1, 7), F(2, 7), BITS)

    @pytest.mark.parametrize(
        "alpha, beta", [(F(0), F(0)), (F(-99, 100), F(7)), (F(9), F(-99, 100)), (F(1, 3), F(1, 5))]
    )
    def test_bracket_signs_alternate(self, alpha, beta):
        # the certificate's brackets, checked again with jacobi_eval: P_n has
        # the sign (-1)^(n-i) at cut i of -1, the midpoints of consecutive
        # knots and 1
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
        with pytest.raises(ValueError):
            gauss_jacobi_knots(3, F(-3, 2), F(0), BITS)

    def test_concurrent_cold_solve(self):
        # four threads race to solve one cold knot set; all must get its bits
        knots_mod._jacobi_knot_set.cache_clear()
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

    def test_knot_set_cache_is_bounded_and_keeps_recent_use(self, monkeypatch):
        knots_mod._jacobi_knot_set.cache_clear()
        cap = knots_mod._jacobi_knot_set.cache_info().maxsize
        hot = (F(1, 3), F(1, 5))
        for i in range(cap + 100):
            if i % (cap // 2) == 0:
                gauss_jacobi_knots(3, *hot, 64)
            gauss_jacobi_knots(1, F(i, cap + 101), F(1, 2), 64)
        assert knots_mod._jacobi_knot_set.cache_info().currsize <= cap
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
                p, d = knots_mod._fixed_value_derivative(steps, X, wp)
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
                p_fixed, d_fixed = knots_mod._fixed_value_derivative(steps, X, wp)
                second = knots_mod._fixed_second_derivative(steps, X, p_fixed, d_fixed, wp)
                ref = s * 2 ** wp
                # 1 - x^2 near 2^-19 divides twice on the way to P_n''
                assert abs(second - ref) * 2 ** wp <= 2 ** 48 * max(2 ** wp, abs(ref)), (n, x)

    @pytest.mark.parametrize("bits, per_root", [(256, 3), (512, 4)])
    def test_cold_set_evaluations(self, monkeypatch, bits, per_root):
        # Halley from the asymptotic seeds; Newton took about 4 and 5 per root
        knots_mod._jacobi_knot_set.cache_clear()
        calls = []
        original = knots_mod._fixed_value_derivative

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(knots_mod, "_fixed_value_derivative", counting)
        n = 24
        gauss_jacobi_knots(n, F(1, 3), F(1, 5), bits)
        assert n <= len(calls) <= per_root * n

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
