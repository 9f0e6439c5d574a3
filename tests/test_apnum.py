"""Arbitrary-precision numerics: oracles are exact rational series and
precision-doubling checks, never the code path under test."""
import random
from fractions import Fraction as F

import pytest

from fejerlab.apnum import (
    ApFloat,
    DomainError,
    NumPoly,
    cos,
    max_abs,
    pi,
    sin,
    sqrt,
    to_apfloat,
)
from fejerlab.ratpoly import RatPoly, chebyshev_T
from reference import pow2


def machin_pi(bits: int) -> F:
    """Independent pi oracle: 16 arctan(1/5) - 4 arctan(1/239), exact
    rationals, alternating series truncated below 2^-(bits+16)."""
    tiny = F(1, 2 ** (bits + 16))

    def arctan_inv(x: int) -> F:
        total = F(0)
        k = 0
        while True:
            term = F(1, (2 * k + 1) * x ** (2 * k + 1))
            if term < tiny:
                return total
            total += term if k % 2 == 0 else -term
            k += 1

    return 16 * arctan_inv(5) - 4 * arctan_inv(239)


class TestPi:
    @pytest.mark.parametrize("bits", [64, 256])
    def test_against_machin_oracle(self, bits):
        err = abs(pi(bits).to_fraction() - machin_pi(bits))
        assert err <= F(4) * F(2) ** (1 - bits)

    def test_prefix_stability(self):
        a, b = str(pi(64)), str(pi(128))
        assert b.startswith(a[:19])

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_doubling_agreement(self, bits):
        lo, hi = pi(bits).to_fraction(), pi(2 * bits).to_fraction()
        assert abs(lo - hi) / hi <= F(2) ** (2 - bits)


class TestElementary:
    def test_cos_zero_exact(self):
        assert cos(ApFloat(0, 128)) == 1

    def test_sin_pi_sixth(self):
        v = sin(pi(256) / 6)
        assert abs(v - ApFloat(F(1, 2), 256)) <= pow2(-250, 256)

    def test_sin_squared_pi_third(self):
        s = sin(pi(256) / 3)
        assert abs(s * s - ApFloat(F(3, 4), 256)) <= pow2(-248, 256)

    def test_sqrt(self):
        r = sqrt(ApFloat(2, 256))
        assert abs(r * r - 2) <= pow2(-250, 256)

    def test_sqrt_negative_rejected(self):
        with pytest.raises(DomainError):
            sqrt(ApFloat(-1, 64))

    @pytest.mark.parametrize("bits", [64, 192])
    def test_pythagorean_identity(self, bits):
        rng = random.Random(20260810)
        two_pi = pi(bits).scale2(1)
        tol = pow2(8 - bits, bits)
        for _ in range(100):
            t = ApFloat(F(rng.randrange(0, 2 ** 48), 2 ** 48), bits) * two_pi
            s, c = sin(t), cos(t)
            assert abs(s * s + c * c - 1) <= tol


class TestApFloat:
    def test_correct_rounding_one_third(self):
        # 1/3 lies in [1/4, 1/2): ulp at 64 bits is 2^-65, so half-ulp 2^-66
        x = to_apfloat(F(1, 3), 64)
        assert abs(x.to_fraction() - F(1, 3)) <= F(1, 2 ** 66)

    def test_zero(self):
        z = to_apfloat(F(0), 64)
        assert z.is_zero() and z.to_fraction() == 0

    def test_to_fraction_roundtrip_exact(self):
        x = to_apfloat(F(-77, 64), 64)  # dyadic, hence exact
        assert x.to_fraction() == F(-77, 64)

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

    def test_scale2_exact(self):
        x = ApFloat(F(5, 8), 96)
        assert x.scale2(3).to_fraction() == 5
        assert x.scale2(-2).to_fraction() == F(5, 32)

    def test_division(self):
        q = ApFloat(1, 128) / ApFloat(3, 128)
        assert abs(q.to_fraction() - F(1, 3)) <= F(1, 2 ** 128)

    def test_str_round_trips_precision(self):
        # the decimal serialization carries enough digits to recover the value
        x = to_apfloat(F(22, 7), 128)
        reparsed = F(str(x))
        assert abs(reparsed - x.to_fraction()) <= F(1, 2 ** 128)

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

    def test_second_derivative(self):
        p = NumPoly.from_ratpoly(RatPoly([0, -3, 0, 4]), 128)
        d2 = p.derivative(2)
        assert d2.degree == 1
        assert d2.coefficient(0) == 0 and d2.coefficient(1) == 24

    def test_defining_identity_t9(self):
        rng = random.Random(9)
        t9 = NumPoly.from_ratpoly(chebyshev_T(9), 256)
        tol = pow2(-238, 256)
        for _ in range(5):
            theta = ApFloat(F(rng.randrange(1, 2 ** 40), 2 ** 40), 256) * pi(256)
            assert abs(t9.evaluate(cos(theta)) - cos(theta * 9)) <= tol

    def test_horner_matches_power_expansion(self):
        p = NumPoly([F(1, 3), F(-2, 7), F(5, 11), 1], 192)
        x = to_apfloat(F(3, 10), 192)
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

    def test_scale_by_int(self):
        p = NumPoly([1, 2], 64).scale(3)
        assert p.coefficient(0) == 3 and p.coefficient(1) == 6


class TestPrecisionMonotonicity:
    def test_pipeline_doubling(self):
        # a small mixed pipeline recomputed at 2p agrees to 2^(8-p) relative
        def pipeline(bits):
            t5 = NumPoly.from_ratpoly(chebyshev_T(5), bits)
            x = sin(pi(bits) / 7)
            return (t5.evaluate(x) * sqrt(ApFloat(F(3, 7), bits))).to_fraction()

        for bits in (64, 128, 256):
            lo, hi = pipeline(bits), pipeline(2 * bits)
            assert abs(lo - hi) <= abs(hi) * F(2) ** (8 - bits)
