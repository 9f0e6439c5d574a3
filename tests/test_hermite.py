"""Fundamental-polynomial construction: hand-built exact oracles, the
cardinality conditions, and the vanishing derivative sums."""
import gc
import math
import sys
import threading
import weakref
from dataclasses import replace
from fractions import Fraction as F

import pytest
from mpmath.libmp import from_man_exp, fzero, round_nearest

import fejerlab.hermite as hermite_mod
import fejerlab.knots as knots_mod
from fejerlab.apnum import ApFloat, NumPoly, max_abs
from fejerlab.conjecture import _nearest_knot
from fejerlab.hermite import (
    _jet,
    _rows,
    chebyshev_closed_form,
    derivative_extremes,
    derivative_sum,
    hermite_fejer_basis,
    scaled_tolerance,
)
from fejerlab.knots import (
    KnotSet,
    chebyshev1_knots,
    chebyshev2_knots,
    equispaced_knots,
    gauss_jacobi_knots,
    make_knots,
)
from fejerlab.ratpoly import RatPoly
from exact_oracle import FAMILIES, error_ulps, exact_rows, term_errors
from reference import pow2
from test_kernel_digest import NS, P_MAX, PRECISIONS, Y0S

BITS = 256

SAMPLE_KNOTS = [
    chebyshev1_knots(7, BITS),
    chebyshev2_knots(6, BITS),
    equispaced_knots(5, F(-1), F(1), BITS),
    gauss_jacobi_knots(5, F(1, 2), F(1, 3), BITS),
]


def coeff_tolerance(polys, bits=BITS):
    coeffs = [c for p in polys for c in p.coefficients()]
    return scaled_tolerance(coeffs, bits)


def exact(h: NumPoly) -> RatPoly:
    """The rounded coefficients of h, read exactly."""
    return RatPoly([c.to_fraction() for c in h.coefficients()])


def assert_poly_close(numeric: NumPoly, exact: RatPoly, tol):
    assert numeric.degree <= max(exact.degree, numeric.degree)
    for k in range(max(numeric.degree, exact.degree) + 1):
        target = exact.coeffs[k] if k <= exact.degree else F(0)
        assert abs(numeric.coefficient(k) - ApFloat(target, BITS)) <= tol


class TestHermiteFejerBasis:
    def test_two_knots_by_hand(self):
        # l_1 = (1-x)/2, l_1'(-1) = -1/2, so h_1 = (1-x)^2 (x+2) / 4
        knots = equispaced_knots(2, F(-1), F(1), BITS)
        basis = hermite_fejer_basis(knots)
        expected_h1 = RatPoly([F(1, 2), F(-3, 4), 0, F(1, 4)])
        expected_h2 = RatPoly([F(1, 2), F(3, 4), 0, F(-1, 4)])
        tol = pow2(-240, BITS)
        assert_poly_close(basis.h[0], expected_h1, tol)
        assert_poly_close(basis.h[1], expected_h2, tol)
        # the four cardinality conditions as oracle
        h1, tol = exact(basis.h[0]), tol.to_fraction()
        assert abs(h1.evaluate(-1) - 1) <= tol
        assert abs(h1.evaluate(1)) <= tol
        assert abs(h1.derivative().evaluate(-1)) <= tol
        assert abs(h1.derivative().evaluate(1)) <= tol

    @pytest.mark.parametrize("knots", SAMPLE_KNOTS, ids=lambda k: k.family)
    def test_cardinality_and_flat_derivative(self, knots):
        basis = hermite_fejer_basis(knots)
        tol = pow2(40 - BITS, BITS).to_fraction()
        for i, h in enumerate(map(exact, basis.h)):
            dh = h.derivative()
            for j, x in enumerate(knots.points):
                expect = 1 if i == j else 0
                assert abs(h.evaluate(x.to_fraction()) - expect) <= tol
                assert abs(dh.evaluate(x.to_fraction())) <= tol

    @pytest.mark.parametrize("knots", SAMPLE_KNOTS, ids=lambda k: k.family)
    def test_partition_of_unity(self, knots):
        basis = hermite_fejer_basis(knots)
        total = basis.h[0]
        for h in basis.h[1:]:
            total = total + h
        tol = coeff_tolerance(basis.h)
        assert abs(total.coefficient(0) - 1) <= tol
        for k in range(1, total.degree + 1):
            assert abs(total.coefficient(k)) <= tol

    @pytest.mark.parametrize("knots", SAMPLE_KNOTS, ids=lambda k: k.family)
    def test_degree_bound(self, knots):
        basis = hermite_fejer_basis(knots)
        assert all(h.degree <= 2 * knots.n - 1 for h in basis.h)

    def test_value_at_own_knot(self):
        basis = hermite_fejer_basis(chebyshev1_knots(4, BITS))
        tol = pow2(40 - BITS, BITS).to_fraction()
        for h, x in zip(basis.h, basis.knots.points):
            assert abs(exact(h).evaluate(x.to_fraction()) - 1) <= tol

    def test_equal_knot_sets_share_one_cached_basis(self):
        # two equal but distinct sets: the basis cache is keyed by value
        a = chebyshev1_knots(5, BITS)
        b = KnotSet(a.family, a.n, a.points, a.precision_bits, a.alpha, a.beta)
        assert a is not b and a == b
        assert hermite_fejer_basis(a) is hermite_fejer_basis(b)

    def test_reading_h_leaves_nothing_on_a_cached_basis(self):
        knots = chebyshev2_knots(6, BITS)
        basis = hermite_fejer_basis(knots)
        before = dict(vars(basis))
        first = basis.h
        assert len(first) == 6
        assert vars(basis) == before
        assert hermite_fejer_basis(knots) is basis
        assert basis.h is not first  # built afresh, so nothing pins it

    def test_cache_is_bounded_at_the_knot_set_cap(self):
        info = hermite_fejer_basis.cache_info()
        assert info.maxsize == knots_mod._KNOT_SET_CAP
        for k in range(100):
            hermite_fejer_basis(equispaced_knots(2, F(-1), F(k + 1), 64))
            assert hermite_fejer_basis.cache_info().currsize <= info.maxsize
        assert hermite_fejer_basis.cache_info().currsize == info.maxsize

    def test_middle_knot_degree_drop(self):
        # odd-n Chebyshev: l_mid'(0) = 0 by symmetry, so h_mid loses its top term
        basis = hermite_fejer_basis(chebyshev1_knots(7, BITS))
        mid = basis.h[3]
        scale = max_abs(mid.coefficients())
        top = mid.coefficient(2 * 7 - 1)
        assert abs(top) <= scale * pow2(40 - BITS, BITS)


class TestClosedForm:
    def test_n1_constant(self):
        (h,) = chebyshev_closed_form(1, BITS)
        assert h.degree == 0
        assert abs(h.coefficient(0) - 1) <= pow2(-240, BITS)

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_agrees_with_general_construction(self, n):
        general = hermite_fejer_basis(chebyshev1_knots(n, BITS))
        closed = chebyshev_closed_form(n, BITS)
        for hg, hc in zip(general.h, closed):
            tol = coeff_tolerance([hg, hc])
            diff = hg - hc
            assert all(abs(c) <= tol for c in diff.coefficients())

    def test_partition_of_unity_at_random_point(self):
        hs = chebyshev_closed_form(8, BITS)
        x = ApFloat(F(4179, 10000), BITS).to_fraction()
        total = sum(exact(h).evaluate(x) for h in hs)
        assert abs(total - 1) <= pow2(40 - BITS, BITS).to_fraction()


DENSE_FAMILIES = [
    (family, kwargs, n)
    for family, kwargs in [
        ("chebyshev1", {}),
        ("chebyshev2", {}),
        ("equispaced", {}),
        ("gauss_jacobi", {"alpha": F(1, 3), "beta": F(1, 5)}),
    ]
    for n in (1, 2, 5, 17)
    if (family, n) != ("equispaced", 1)  # equispaced sets need n >= 2
]


class TestDenseCoefficients:
    """Both constructions of .h against the exact oracle at y0 = 0: row p of
    exact_rows over p! is exactly [x^p] h_i on the rounded knots."""

    @staticmethod
    def _assert_exact(hs, knots):
        n = knots.n
        rows = exact_rows(knots.points, ApFloat(0, BITS), 2 * n - 1)
        assert len(hs) == n
        for i, h in enumerate(hs):
            assert h.degree <= 2 * n - 1
            tol = scaled_tolerance(h.coefficients(), BITS).to_fraction()
            for p, row in enumerate(rows):
                a, b = row[i]
                gap = h.coefficient(p).to_fraction() - F(a, b * math.factorial(p))
                assert abs(gap) <= tol, (i, p)

    @pytest.mark.parametrize("family,kwargs,n", DENSE_FAMILIES)
    def test_jet_construction(self, family, kwargs, n):
        basis = hermite_fejer_basis(make_knots(family, n, BITS, **kwargs))
        self._assert_exact(basis.h, basis.knots)

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_closed_form_construction(self, n):
        self._assert_exact(chebyshev_closed_form(n, BITS), chebyshev1_knots(n, BITS))


class TestDerivativeSum:
    def test_chebyshev3_term_vector(self):
        # h''(0) = 2/x_i^2 = 8/3 off center, (2/3)(1-9) = -16/3 in the middle
        basis = hermite_fejer_basis(chebyshev1_knots(3, BITS))
        residual, terms = derivative_sum(basis, 2, ApFloat(0, BITS))
        tol = scaled_tolerance(terms, BITS)
        for term, expect in zip(terms, [F(8, 3), F(-16, 3), F(8, 3)]):
            assert abs(term - ApFloat(expect, BITS)) <= tol
        assert abs(residual) <= tol

    def test_first_derivative_vanishes_at_knots(self):
        basis = hermite_fejer_basis(chebyshev1_knots(5, BITS))
        for j, x in enumerate(basis.knots.points):
            _, terms = derivative_sum(basis, 1, x)
            assert abs(terms[j]) <= pow2(40 - BITS, BITS)

    @pytest.mark.parametrize("p", [12, 20])
    def test_beyond_degree_all_zero(self, p):
        basis = hermite_fejer_basis(chebyshev1_knots(3, BITS))  # deg <= 5
        residual, terms = derivative_sum(basis, p, ApFloat(F(3, 10), BITS))
        assert residual.is_zero()
        assert all(t.is_zero() for t in terms)

    def test_p_zero_rejected(self):
        basis = hermite_fejer_basis(chebyshev1_knots(3, BITS))
        with pytest.raises(ValueError):
            derivative_sum(basis, 0, ApFloat(0, BITS))

    @pytest.mark.parametrize(
        "family,kwargs",
        [
            ("chebyshev1", {}),
            ("chebyshev2", {}),
            ("equispaced", {}),
            ("gauss_jacobi", {"alpha": F(0), "beta": F(0)}),
        ],
    )
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_residual_below_tolerance_smoke(self, family, kwargs, n):
        basis = hermite_fejer_basis(make_knots(family, n, BITS, **kwargs))
        for p in (1, 3, 5):
            for y0 in (F(0), F(3, 10), F(2)):
                residual, terms = derivative_sum(basis, p, ApFloat(y0, BITS))
                assert abs(residual) <= scaled_tolerance(terms, BITS)

    @pytest.mark.parametrize("n", [3, 7, 11])
    def test_origin_symmetry_odd_chebyshev(self, n):
        basis = hermite_fejer_basis(chebyshev1_knots(n, BITS))
        _, terms = derivative_sum(basis, 2, ApFloat(0, BITS))
        tol = scaled_tolerance(terms, BITS)
        for i in range(n):
            assert abs(terms[i] - terms[n - 1 - i]) <= tol

    def test_repeated_calls_are_deterministic(self):
        # two fresh bases of the same knots give the same bits
        y0 = ApFloat(F(1, 7), BITS)
        hermite_fejer_basis.cache_clear()
        r1, t1 = derivative_sum(hermite_fejer_basis(chebyshev1_knots(4, BITS)), 2, y0)
        hermite_fejer_basis.cache_clear()
        r2, t2 = derivative_sum(hermite_fejer_basis(chebyshev1_knots(4, BITS)), 2, y0)
        assert r1.raw == r2.raw and [t.raw for t in t1] == [t.raw for t in t2]

    @pytest.mark.parametrize("n", [2, 5, 17])
    @pytest.mark.parametrize(
        "family,kwargs",
        [
            ("chebyshev1", {}),
            ("chebyshev2", {}),
            ("equispaced", {}),
            ("gauss_jacobi", {"alpha": F(1, 3), "beta": F(1, 5)}),
        ],
    )
    def test_lower_orders_read_from_one_jet_are_bit_identical(self, family, kwargs, n):
        basis = hermite_fejer_basis(make_knots(family, n, BITS, **kwargs))
        for y0 in (basis.knots.points[n // 3], ApFloat(F(3, 10), BITS), ApFloat(F(-5, 4), BITS)):
            rows = derivative_extremes(basis, 2 * n + 1, y0)
            assert len(rows) == 2 * n + 1
            for p, (r, largest) in enumerate(rows, 1):
                fr, ft = derivative_sum(basis, p, y0)
                assert r.raw == fr.raw, (p, y0)
                assert largest.raw == max_abs(ft).raw, (p, y0)

    def test_shared_basis_under_threads_matches_serial(self):
        # threads share one basis across mixed (p, y0); every result must
        # match the serial one on a copy of the basis
        self._threads_share_one_basis(cold=False)

    def test_cold_basis_cache_under_threads(self):
        # every thread looks the basis up in an emptied cache and must see
        # the same weights and slopes, and then the same results
        self._threads_share_one_basis(cold=True)

    @staticmethod
    def _threads_share_one_basis(cold):
        knots = gauss_jacobi_knots(9, F(1, 3), F(1, 5), BITS)
        basis = hermite_fejer_basis(knots)
        points = [basis.knots.points[4], ApFloat(F(3, 10), BITS), ApFloat(F(-5, 4), BITS)]
        jobs = [(p, k) for k in range(len(points)) for p in (19, 8, 5, 2, 1)]

        def raws(b, p, k):
            r, t = derivative_sum(b, p, points[k])
            return r.raw, tuple(x.raw for x in t)

        serial = {job: raws(replace(basis), *job) for job in jobs}
        seen, bases, errors = [], [], []

        def work(shift):
            try:
                shared = hermite_fejer_basis(knots) if cold else basis
                bases.append((shared.weights, shared.slopes))
                for rep in range(4):
                    for job in jobs[shift + rep :] + jobs[: shift + rep]:
                        seen.append((job, raws(shared, *job)))
            except Exception as exc:  # collected and asserted below
                errors.append(exc)

        if cold:
            hermite_fejer_basis.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(3 * s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(seen) == 4 * 4 * len(jobs)
        assert bases == [(basis.weights, basis.slopes)] * 4
        assert all(result == serial[job] for job, result in seen)

    def test_jet_builds_no_dense_polynomial(self, monkeypatch):
        calls = []
        for name in ("__mul__", "evaluate"):
            original = getattr(NumPoly, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(NumPoly, name, counting)
        basis = hermite_fejer_basis(gauss_jacobi_knots(9, F(1, 3), F(1, 5), BITS))
        for p in (1, 4, 17, 18):
            derivative_sum(basis, p, ApFloat(F(3, 10), BITS))
        derivative_extremes(basis, 18, ApFloat(F(-2), BITS))
        assert "h" not in vars(basis)
        # the dense coefficients of either construction come from integers too
        assert len(basis.h) == 9 and len(chebyshev_closed_form(9, BITS)) == 9
        assert calls == []

    @pytest.mark.parametrize("n", [2, 5, 9, 17])
    @pytest.mark.parametrize(
        "family,kwargs",
        [
            ("chebyshev1", {}),
            ("chebyshev2", {}),
            ("equispaced", {}),
            ("gauss_jacobi", {"alpha": F(1, 3), "beta": F(1, 5)}),
        ],
    )
    def test_jet_terms_match_dense_derivatives(self, family, kwargs, n):
        # the reference is the exact oracle's h_i^(p)(y0) on the rounded knots
        basis = hermite_fejer_basis(make_knots(family, n, BITS, **kwargs))
        knot = basis.knots.points[n // 3]
        for y0 in (knot, ApFloat(F(3, 10), BITS), ApFloat(F(-5, 4), BITS)):
            rows = exact_rows(basis.knots.points, y0, 2 * n + 1)
            for p in range(1, 2 * n + 2):
                _, terms = derivative_sum(basis, p, y0)
                dense = [F(a, b) for a, b in rows[p]]
                tol = scaled_tolerance(terms, BITS).to_fraction()
                assert all(abs(t.to_fraction() - e) <= tol for t, e in zip(terms, dense)), (p, y0)


EXTREME_FAMILIES = [
    ("chebyshev1", {}),
    ("chebyshev2", {}),
    ("equispaced", {}),
    ("gauss_jacobi", {"alpha": F(1, 3), "beta": F(1, 5)}),
]


def _rounded(v, e, bits):
    """V 2^e rounded once to bits."""
    return ApFloat._wrap(from_man_exp(v, e, bits, round_nearest), bits)


class TestY0Alignment:
    """y0 joins the knots' stored integer form: a y0 on a coarser scale than
    the knots leaves their integers as they are, a finer one shifts them.
    Both the jet and _nearest_knot read it; the rows are checked against the
    exact oracle on the rounded knots and y0."""

    @pytest.mark.parametrize("family", ["chebyshev1", "equispaced"])
    @pytest.mark.parametrize(
        "y0, finer", [(ApFloat(F(1, 2), 64), False), (ApFloat(F(1, 3), 512), True)], ids=["coarser", "finer"]
    )
    def test_jet_and_nearest_knot(self, family, y0, finer):
        knots = make_knots(family, 9, 64)
        basis = hermite_fejer_basis(knots)
        d, L, _ = jet = _jet(basis, 8, y0)
        assert (L > knots.scale) == finer
        exact_d = [y0.to_fraction() - x.to_fraction() for x in knots.points]
        assert [F(dj, 2 ** L) for dj in d] == exact_d
        distances = [abs(v) for v in exact_d]
        assert _nearest_knot(knots, y0) == distances.index(min(distances))
        exact = exact_rows(knots.points, y0, 8)
        for p, row in zip(range(1, 9), _rows(basis, jet, range(1, 9))):
            terms = [(v * math.factorial(p), e) for v, e in row]
            # the kernel's bound on the oracle grid (test_exact_oracle.py); here under 1 ulp
            assert error_ulps(term_errors(terms, exact[p]), exact[p], basis.working_precision_bits) <= 16, p


class TestDerivativeExtremes:
    """derivative_extremes rounds two numbers per row; they must have the bits
    of the exact row sum rounded once and of max_abs over the row's terms,
    each rounded once."""

    @pytest.mark.parametrize("bits", [64, 256, 512])
    @pytest.mark.parametrize(
        "family,kwargs,n",
        [
            (family, kwargs, n)
            for family, kwargs in EXTREME_FAMILIES
            for n in (1, 2, 5, 17, 48)
            if (family, n) != ("equispaced", 1)  # equispaced sets need n >= 2
        ],
    )
    def test_match_the_rounded_terms(self, family, kwargs, n, bits):
        basis = hermite_fejer_basis(make_knots(family, n, bits, **kwargs))
        orders = range(1, 2 * n + 2)  # p = 2n and 2n + 1 are zero rows
        for y0 in (basis.knots.points[n // 3], ApFloat(F(3, 10), bits), ApFloat(F(-5, 4), bits)):
            # one jet for every order, not a derivative_sum jet per order
            rows = _rows(basis, _jet(basis, 2 * n + 1, y0), orders)
            extremes = derivative_extremes(basis, 2 * n + 1, y0)
            assert len(extremes) == len(rows) == 2 * n + 1
            for p, (row, (r, largest)) in enumerate(zip(rows, extremes), 1):
                row = [(v * math.factorial(p), e) for v, e in row]  # h_i^(p) = p! [t^p]
                terms = [_rounded(v, e, bits) for v, e in row]
                low = min(e for _, e in row)  # the exact sum on one exponent
                assert r.raw == _rounded(sum(v << (e - low) for v, e in row), low, bits).raw, (p, y0)
                assert largest.raw == max_abs(terms).raw, (p, y0)
                assert largest.precision_bits == bits
                assert scaled_tolerance([largest], bits) == scaled_tolerance(terms, bits)
                if p >= 2 * n:
                    assert largest.is_zero() and r.is_zero()

    @pytest.mark.parametrize("p_max", [0, -1])
    def test_p_max_below_one_is_rejected(self, p_max):
        basis = hermite_fejer_basis(chebyshev1_knots(3, BITS))
        with pytest.raises(ValueError):
            derivative_extremes(basis, p_max, ApFloat(0, BITS))


def _raws(readout):
    return [(r.raw, r.precision_bits, largest.raw, largest.precision_bits) for r, largest in readout]


def _stored_rows(basis):
    return {key: len(rows) for key, rows in basis._readouts._readouts.items()}


class TestStoredReadouts:
    """derivative_extremes keeps each readout on its basis, keyed by y0: a
    repeated (knot set, y0) reads the rows back with the bits of a fresh
    jet, within a fixed row budget, and the table goes with the basis."""

    @pytest.fixture
    def builds(self, monkeypatch):
        builds = []
        jet = hermite_mod._jet

        def counting_jet(basis, p_max, y0):
            builds.append((basis.n, p_max, y0.raw))
            return jet(basis, p_max, y0)

        monkeypatch.setattr(hermite_mod, "_jet", counting_jet)
        return builds

    def test_stored_readouts_equal_fresh_ones_over_the_digest_grid(self, builds):
        for family, params in FAMILIES:
            for n in NS:
                if family == "equispaced" and n < 2:
                    continue
                for bits in PRECISIONS:
                    knots = make_knots(family, n, bits, **params)
                    hermite_fejer_basis.cache_clear()
                    basis = hermite_fejer_basis(knots)
                    points = [knots.points[n // 2] if y is None else ApFloat(y, bits) for y in Y0S]
                    for y0 in points:
                        derivative_extremes(basis, P_MAX, y0)
                    built = len(builds)
                    stored = [_raws(derivative_extremes(basis, p_max, y0)) for y0 in points for p_max in (P_MAX, 3)]
                    assert len(builds) == built  # read back, no jet
                    hermite_fejer_basis.cache_clear()
                    fresh_basis = hermite_fejer_basis(knots)
                    assert fresh_basis is not basis
                    fresh = []
                    for y0 in points:
                        fresh.append(_raws(derivative_extremes(fresh_basis, P_MAX, y0)))
                        fresh.append(_raws(derivative_extremes(replace(basis), 3, y0)))
                    assert stored == fresh, (family, n, bits)

    def test_zero_rows_keep_their_bits(self, builds):
        # rows above 2n - 1 are the exact zero at the knot precision, stored
        # or not, and derivative_sum's zero rows are too
        for n, bits in ((1, 64), (3, 256), (5, 512)):
            basis = hermite_fejer_basis(chebyshev1_knots(n, bits))
            y0 = ApFloat(F(3, 10), bits)
            for _ in range(2):
                rows = derivative_extremes(basis, 2 * n + 40, y0)
                assert len(rows) == 2 * n + 40
                assert all(r.raw == largest.raw == fzero for r, largest in rows[2 * n - 1 :])
                assert all(r.precision_bits == largest.precision_bits == bits for r, largest in rows)
            assert max(len(rows) for rows in basis._readouts._readouts.values()) == 2 * n - 1
            for p in (2 * n, 2 * n + 1, 1000):
                residual, terms = derivative_sum(basis, p, y0)
                assert [t.raw for t in [residual, *terms]] == [fzero] * (n + 1)
                assert {t.precision_bits for t in [residual, *terms]} == {bits}

    def test_shallower_p_max_reads_a_prefix_and_deeper_builds_once(self, builds):
        basis = replace(hermite_fejer_basis(chebyshev2_knots(7, BITS)))
        y0 = ApFloat(F(-2, 9), BITS)
        deep = derivative_extremes(basis, 10, y0)
        assert _raws(derivative_extremes(basis, 4, y0)) == _raws(deep[:4])
        assert len(builds) == 1
        deeper = derivative_extremes(basis, 13, y0)
        assert _raws(deeper[:10]) == _raws(deep) and len(builds) == 2
        # 13 rows are all of a degree-13 basis: any deeper p_max reads them
        assert _raws(derivative_extremes(basis, 30, y0)[:13]) == _raws(deeper)
        assert len(builds) == 2 and _stored_rows(basis) == {y0.raw: 13}

    def test_row_budget_holds_over_forty_y0(self, builds):
        n, budget = 5, hermite_mod._READOUT_ROWS
        basis = replace(hermite_fejer_basis(equispaced_knots(n, F(-1), F(1), BITS)))
        points = [ApFloat(F(k, 41), BITS) for k in range(-20, 20)]
        for y0 in points:
            derivative_extremes(basis, 12, y0)  # 2n - 1 = 9 rows kept of 12
            stored = _stored_rows(basis)
            assert sum(stored.values()) <= budget
            assert set(stored.values()) == {2 * n - 1}
        # the newest y0 stay, the oldest went first
        assert list(_stored_rows(basis)) == [y0.raw for y0 in points[-(budget // 9) :]]
        builds.clear()
        derivative_extremes(basis, 12, points[-1])
        derivative_extremes(basis, 12, points[0])
        assert [b[2] for b in builds] == [points[0].raw]

    def test_a_readout_deeper_than_the_budget_is_not_kept(self, builds):
        basis = replace(hermite_fejer_basis(chebyshev1_knots(70, 64)))
        y0 = ApFloat(F(3, 10), 64)
        derivative_extremes(basis, 8, y0)
        derivative_extremes(basis, 140, y0)  # 139 rows, over the 128-row budget
        assert _stored_rows(basis) == {y0.raw: 8}

    def test_the_table_goes_with_its_basis(self):
        basis = hermite_fejer_basis(gauss_jacobi_knots(6, F(1, 3), F(1, 5), BITS))
        derivative_extremes(basis, 8, ApFloat(F(1, 7), BITS))
        assert _stored_rows(basis)
        gone = weakref.ref(basis)
        del basis
        for k in range(hermite_fejer_basis.cache_info().maxsize):
            hermite_fejer_basis(equispaced_knots(2, F(-1), F(k + 1), 64))
        gc.collect()
        assert gone() is None

    def test_threads_sharing_one_table_match_serial(self):
        # 8 threads over one basis, with enough y0 and mixed p_max that
        # readouts are replaced and evicted while others read them
        knots = gauss_jacobi_knots(9, F(1, 3), F(1, 5), BITS)
        points = [ApFloat(F(k, 29), BITS) for k in range(-12, 12)]
        jobs = [(p_max, k) for k in range(len(points)) for p_max in (1, 3, 8, 17, 30)]
        serial = {(p_max, k): _raws(derivative_extremes(replace(hermite_fejer_basis(knots)), p_max, points[k]))
                  for p_max, k in jobs}
        hermite_fejer_basis.cache_clear()
        seen, errors = [], []

        def work(shift):
            try:
                basis = hermite_fejer_basis(knots)
                for rep in range(6):
                    for job in jobs[shift + rep :] + jobs[: shift + rep]:
                        seen.append((job, _raws(derivative_extremes(basis, job[0], points[job[1]]))))
            except Exception as exc:  # collected and asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(7 * s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(seen) == 8 * 6 * len(jobs)
        assert all(result == serial[job] for job, result in seen)
        stored = _stored_rows(hermite_fejer_basis(knots))
        assert sum(stored.values()) <= hermite_mod._READOUT_ROWS
        assert max(stored.values()) <= 2 * 9 - 1


class TestWorkingPrecision:
    """The working precision carries a flat number of guard bits, chosen from
    the kernel's error model, and verify-eq1's residuals sit far enough under
    their tolerance at every n for it."""

    @pytest.mark.parametrize("n", [1, 40, 400])
    def test_guard_bits_do_not_grow_with_n(self, n):
        basis = hermite_fejer_basis(chebyshev1_knots(n, BITS))
        assert basis.working_precision_bits == basis.precision_bits + 80

    def test_margin_floor(self):
        # log2(tolerance / |residual|) >= 110 on every row: with a flat 80
        # guard bits the least margin here is 118.2 bits, with 64 it is 102.4
        for family in ("equispaced", "chebyshev1"):
            for n in (12, 48, 100, 200):
                basis = hermite_fejer_basis(make_knots(family, n, BITS))
                for y0 in (F(3, 10), F(2)):
                    for p, (r, largest) in enumerate(derivative_extremes(basis, 8, ApFloat(y0, BITS)), 1):
                        tol = scaled_tolerance([largest], BITS).to_fraction()
                        assert abs(r.to_fraction()) * 2 ** 110 <= tol, (family, n, p, y0)


class TestScaledTolerance:
    def test_floor_at_one(self):
        tiny = [ApFloat(F(1, 1000), BITS)]
        assert scaled_tolerance(tiny, BITS) == pow2(40 - BITS, BITS)

    def test_scales_with_data(self):
        big = [ApFloat(-(2 ** 50), BITS)]
        assert scaled_tolerance(big, BITS) == pow2(90 - BITS, BITS)

    def test_precision_floor_enforced(self):
        with pytest.raises(ValueError):
            scaled_tolerance([ApFloat(1, BITS)], 32)
