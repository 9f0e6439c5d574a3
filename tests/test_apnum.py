"""Arbitrary-precision numerics: oracles are exact rational series and
precision-doubling checks, never the code path under test."""
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mpmath.libmp import (
    from_int,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cos,
    mpf_div,
    mpf_mul,
    mpf_mul_int,
    mpf_pi,
    mpf_sin,
    mpf_sqrt,
    mpf_sub,
    repr_dps,
    round_nearest,
    to_str,
)

import fejerlab
from fejerlab.apnum import ApFloat, NumPoly, max_abs
from fejerlab.ratpoly import chebyshev_T
from reference import pow2


class TestApFloat:
    def test_correct_rounding_one_third(self):
        # 1/3 lies in [1/4, 1/2): ulp at 64 bits is 2^-65, so half-ulp 2^-66
        x = ApFloat(F(1, 3), 64)
        assert abs(x.to_fraction() - F(1, 3)) <= F(1, 2 ** 66)

    def test_zero(self):
        z = ApFloat(F(0), 64)
        assert z.is_zero() and z.to_fraction() == 0

    def test_to_fraction_roundtrip_exact(self):
        x = ApFloat(F(-77, 64), 64)  # dyadic, hence exact
        assert x.to_fraction() == F(-77, 64)

    def test_raw_tuple_refused(self):
        # one rounding constructor: a raw libmp value goes through ApFloat._wrap
        with pytest.raises(TypeError):
            ApFloat(ApFloat(F(1, 3), 64).raw, 64)

    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize("q", [F(1, 3), F(-77, 64), F(2 ** 70)])
    def test_float_is_the_nearest_double(self, q, bits):
        x = ApFloat(q, bits)
        assert float(x) == float(x.to_fraction())

    def test_float_past_the_double_range(self):
        assert float(ApFloat(2 ** 2000, 64)) == float("inf")
        assert float(ApFloat(-(2 ** 2000), 64)) == float("-inf")
        assert float(ApFloat(F(1, 2 ** 2000), 64)) == 0.0

    def test_precision_floor_enforced(self):
        with pytest.raises(ValueError):
            ApFloat(1, 32)

    def test_precision_unification(self):
        a, b = ApFloat(1, 64), ApFloat(F(1, 3), 128)
        assert (a + b).precision_bits == 128
        assert (b * a).precision_bits == 128

    def test_comparisons_ignore_precision(self):
        assert ApFloat(F(1, 2), 64) == ApFloat(F(1, 2), 256)
        assert ApFloat(1, 64) < ApFloat(2, 256)
        assert abs(ApFloat(-3, 64)) == 3

    def test_hash_is_the_numeric_hash_of_the_value(self):
        values = [0, 1, -1, 2 ** 70, -(2 ** 70), F(1, 3), F(-5, 8), F(7, 2 ** 300), F(2 ** 200, 3)]
        for q in values:
            for bits in (64, 256):
                x = ApFloat(q, bits)
                assert hash(x) == hash(x.to_fraction())
        assert hash(ApFloat(F(1, 2), 64)) == hash(ApFloat(F(1, 2), 256)) == hash(0.5)

    # (operator, libmp op, reflected): a reflected form computes other op self
    OPERATORS = [
        ("__add__", mpf_add, False),
        ("__radd__", mpf_add, True),
        ("__sub__", mpf_sub, False),
        ("__rsub__", mpf_sub, True),
        ("__mul__", mpf_mul, False),
        ("__rmul__", mpf_mul, True),
        ("__truediv__", mpf_div, False),
        ("__rtruediv__", mpf_div, True),
    ]

    @pytest.mark.parametrize("name, op, reflected", OPERATORS)
    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize(
        "other", [F(-2, 7), 3, F(10 ** 30, 7), ApFloat(F(5, 11), 64), ApFloat(F(-5, 11), 256)], ids=repr
    )
    def test_operator_is_one_libmp_call_at_the_larger_precision(self, name, op, reflected, bits, other):
        # an int or Fraction operand is rounded to self's precision first
        x = ApFloat(F(1, 3), bits)
        o = other if isinstance(other, ApFloat) else ApFloat(other, bits)
        prec = max(bits, o.precision_bits)
        a, b = (o, x) if reflected else (x, o)
        got = getattr(x, name)(other)
        assert (got.raw, got.precision_bits) == (op(a.raw, b.raw, prec, round_nearest), prec)

    @pytest.mark.parametrize("sym", [operator.sub, operator.truediv])
    @pytest.mark.parametrize("q", [1, F(7, 3)])
    def test_reflected_operators_keep_the_operand_order(self, sym, q):
        x = ApFloat(F(2, 5), 128)
        assert sym(q, x).to_fraction() != sym(x, q).to_fraction()
        assert sym(q, x) == sym(ApFloat(q, 128), x)

    @pytest.mark.parametrize("name, op, reflected", OPERATORS)
    @pytest.mark.parametrize("other", [0.5, "1/3"])
    def test_float_and_str_operands_are_refused(self, name, op, reflected, other):
        x = ApFloat(F(1, 3), 64)
        assert getattr(x, name)(other) is NotImplemented
        sym = getattr(operator, name.replace("__r", "__", 1))
        with pytest.raises(TypeError):
            sym(other, x) if reflected else sym(x, other)

    def test_division(self):
        q = ApFloat(1, 128) / ApFloat(3, 128)
        assert abs(q.to_fraction() - F(1, 3)) <= F(1, 2 ** 128)

    def test_str_round_trips_precision(self):
        # the decimal serialization carries enough digits to recover the value
        x = ApFloat(F(22, 7), 128)
        reparsed = F(str(x))
        assert abs(reparsed - x.to_fraction()) <= F(1, 2 ** 128)

    # libmp's to_str scales by a power of ten first when |exponent + bitcount|
    # > 3500; magnitudes straddle that branch on both sides
    @given(
        bits=st.integers(64, 1024),
        mantissa=st.integers(-(2 ** 1100), 2 ** 1100),
        magnitude=st.one_of(st.integers(-3700, 3700), st.integers(3490, 3510), st.integers(-3510, -3490)),
    )
    @example(bits=64, mantissa=0, magnitude=0)
    @example(bits=64, mantissa=1, magnitude=3501)
    @example(bits=1024, mantissa=-(2 ** 1100 - 1), magnitude=-3501)
    def test_text_is_to_str_on_every_read(self, bits, mantissa, magnitude):
        x = ApFloat(F(mantissa) * F(2) ** (magnitude - mantissa.bit_length()), bits)
        fresh = ApFloat._wrap(x.raw, bits)
        text = to_str(x.raw, repr_dps(bits))
        assert str(x) == text and str(x) == text  # the first read and the kept one
        assert str(abs(x)) == to_str(mpf_abs(x.raw), repr_dps(bits))  # |x| of a known text
        assert str(abs(fresh)) == str(abs(x))
        if mantissa >= 0:  # a value >= 0 is its own |x|, with its text
            assert abs(x) is x and abs(fresh) is fresh
        assert x == fresh and hash(x) == hash(fresh) and repr(x) == repr(fresh)

    def test_text_is_formatted_at_most_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fejerlab.apnum, "to_str", lambda raw, dps: calls.append(raw) or to_str(raw, dps))
        x = ApFloat(F(22, 7), 128)
        assert str(x) == str(x) == str(abs(x)) and len(calls) == 1
        known = ApFloat._wrap(x.raw, 128, "3.14")  # read back as given, not checked
        assert str(known) == "3.14" and len(calls) == 1
        assert str(-x) == "-3.1428571428571428571428571428571428571412" and len(calls) == 2

    def test_max_abs(self):
        vals = [ApFloat(-3, 64), ApFloat(2, 64)]
        assert max_abs(vals) == 3
        assert max_abs([]) is None


class TestNumPoly:
    def test_square_of_linear(self):
        p = NumPoly([1, 1], 128)
        sq = p * p
        tol = pow2(-120, 128)
        for k, expect in enumerate((1, 2, 1)):
            assert abs(sq.coefficient(k) - expect) <= tol

    def test_defining_identity_t9(self):
        rng = random.Random(9)
        t9 = NumPoly(chebyshev_T(9).coeffs, 256)
        tol = pow2(-238, 256)
        for _ in range(5):
            theta = from_rational(rng.randrange(1, 2 ** 40), 2 ** 40, 256, round_nearest)
            theta = mpf_mul(theta, mpf_pi(256, round_nearest), 256, round_nearest)
            x = ApFloat._wrap(mpf_cos(theta, 256, round_nearest), 256)
            cos9 = mpf_cos(mpf_mul_int(theta, 9, 256, round_nearest), 256, round_nearest)
            assert abs(t9.evaluate(x) - ApFloat._wrap(cos9, 256)) <= tol

    def test_horner_matches_power_expansion(self):
        p = NumPoly([F(1, 3), F(-2, 7), F(5, 11), 1], 192)
        x = ApFloat(F(3, 10), 192)
        direct = p.coefficient(0)
        xp = ApFloat(1, 192)
        for k in range(1, 4):
            xp = xp * x
            direct = direct + p.coefficient(k) * xp
        assert abs(p.evaluate(x) - direct) <= pow2(-180, 192)

    def test_shared_precision_invariant(self):
        p = NumPoly([ApFloat(1, 64), ApFloat(2, 64)], 256)
        assert p.precision_bits == 256
        assert all(c.precision_bits == 256 for c in p.coefficients())

    def test_exact_zero_trim(self):
        p = NumPoly([1, 2, 0, 0], 64)
        assert p.degree == 1

    def test_raw_tuple_refused(self):
        # an unnormalised (0, 6, 0, 3) would print 6.0 yet compare unequal to
        # 6: raw values go through NumPoly._wrap, already rounded
        with pytest.raises(TypeError):
            NumPoly([(0, 6, 0, 3)], 64)
        with pytest.raises(TypeError):
            NumPoly([1, ApFloat(2, 64).raw], 64)
        with pytest.raises(TypeError):
            NumPoly([0.5], 64)

    def test_wrap_keeps_rounded_raws_and_trims_exact_zeros(self):
        raws = [from_rational(1, 3, 256, round_nearest), fzero, from_int(-5, 256, round_nearest), fzero, fzero]
        p = NumPoly._wrap(raws, 256)
        assert p._raw == tuple(raws[:3]) and p.precision_bits == 256
        assert NumPoly._wrap([fzero], 64).degree == -1

    def test_rounds_ints_fractions_and_apfloats_in(self):
        p = NumPoly([ApFloat(1, 64), 2, F(1, 3)], 256)
        assert p._raw == (from_int(1), from_int(2), from_rational(1, 3, 256, round_nearest))
        q = NumPoly([ApFloat(F(1, 3), 256)], 64)
        assert q._raw == (from_rational(1, 3, 64, round_nearest),)

    @pytest.mark.parametrize("name, op", [("__add__", mpf_add), ("__sub__", mpf_sub)])
    @pytest.mark.parametrize("la, lb", [(3, 3), (2, 5), (5, 2), (0, 3)])
    def test_coefficientwise_ops_pad_with_zeros_at_the_larger_precision(self, name, op, la, lb):
        a = NumPoly([F(k + 1, 3) for k in range(la)], 64)
        b = NumPoly([F(-k - 2, 7) for k in range(lb)], 192)
        got = getattr(a, name)(b)
        pad = [fzero] * max(la, lb)
        expect = [op(x, y, 192, round_nearest) for x, y in zip(list(a._raw) + pad, list(b._raw) + pad)]
        assert got.precision_bits == 192
        assert got._raw == tuple(expect[: max(la, lb)])

    def test_difference_of_equal_polynomials_is_trimmed_to_zero(self):
        p = NumPoly([F(1, 3), 2, F(-5, 7)], 128)
        assert (p - p).degree == -1 and (p - p)._raw == ()


class TestPrecisionMonotonicity:
    def test_pipeline_doubling(self):
        # a small mixed pipeline recomputed at 2p agrees to 2^(8-p) relative
        def pipeline(bits):
            t5 = NumPoly(chebyshev_T(5).coeffs, bits)
            angle = mpf_div(mpf_pi(bits, round_nearest), from_int(7), bits, round_nearest)
            x = ApFloat._wrap(mpf_sin(angle, bits, round_nearest), bits)
            root = mpf_sqrt(from_rational(3, 7, bits, round_nearest), bits, round_nearest)
            return (t5.evaluate(x) * ApFloat._wrap(root, bits)).to_fraction()

        for bits in (64, 128, 256):
            lo, hi = pipeline(bits), pipeline(2 * bits)
            assert abs(lo - hi) <= abs(hi) * F(2) ** (8 - bits)


def test_package_exports():
    names = fejerlab.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(fejerlab, name) for name in names)
    for gone in (
        "pi", "cos", "sin", "sqrt", "DomainError", "to_apfloat", "X", "ZeroConstantTerm", "interpolate", "LengthMismatch"
    ):
        assert gone not in names and not hasattr(fejerlab, gone)
    for gone in ("odd_part", "reciprocal", "__sub__", "__neg__"):
        assert not hasattr(fejerlab.RatPoly, gone)
    assert not hasattr(fejerlab.IdentityReport, "witness")
    assert not any(hasattr(fejerlab.hermite, gone) for gone in ("interpolate", "LengthMismatch", "_round_sum"))
