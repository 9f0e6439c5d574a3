"""Arbitrary-precision binary floating arithmetic with an explicit precision tag.

Every value carries its working precision in bits (mantissa width, >= 64);
arithmetic between two values runs at the larger of their precisions, with
round-to-nearest-even.  ApFloat and NumPoly call mpmath's low-level libmp
kernels (on gmpy2 if installed, else pure Python: see mpmath.libmp.BACKEND),
bypassing the global mpmath context: precision is per-value, never shared.
_RND is the one rounding mode of the package.

The hot loops of the Hermite-Fejer basis and jet do not use them: libmp
normalises after every operation, which costs several times the mantissa
product.  They run on the integer block kernel below instead: exact
(int, exponent) views of raw values, a common integer scale for a set of
values, and _renorm, which rounds a block of ints sharing one exponent once.

The error model is a guard-bit budget, not interval arithmetic: elementary
functions are good to ~1 ulp, a pipeline of k rounded operations is trusted
to roughly k ulps, and a block costs one rounding per stage, not one per
operation.  Exact claims never ride on this module; see the rational
polynomial layer for those.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath
from mpmath.libmp import (
    ComplexResult,
    from_int,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_cos,
    mpf_div,
    mpf_hash,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpf_sin,
    mpf_sqrt,
    mpf_sub,
    repr_dps,
    round_nearest,
    to_str,
)

MIN_PRECISION_BITS = 64

_RND = round_nearest


class DomainError(ValueError):
    """Argument outside the real domain of the requested function."""


def _check_precision(bits: int) -> int:
    if not isinstance(bits, int) or bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits must be an int >= {MIN_PRECISION_BITS}")
    return bits


class ApFloat:
    """An arbitrary-precision binary float plus its precision in bits.

    Construct from an int or a Fraction (correctly rounded), or combine
    existing values with the usual operators.  Values are immutable.
    """

    __slots__ = ("raw", "precision_bits")

    def __init__(self, value, precision_bits: int):
        _check_precision(precision_bits)
        if isinstance(value, ApFloat):
            raw = mpf_pos(value.raw, precision_bits, _RND)
        elif isinstance(value, int):
            raw = from_int(value, precision_bits, _RND)
        elif isinstance(value, Fraction):
            raw = from_rational(value.numerator, value.denominator, precision_bits, _RND)
        elif isinstance(value, tuple) and len(value) == 4:
            raw = value  # trusted libmp tuple, already rounded
        else:
            raise TypeError(f"cannot build ApFloat from {type(value).__name__}")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "precision_bits", precision_bits)

    @classmethod
    def _wrap(cls, raw, precision_bits: int) -> "ApFloat":
        """A raw mpf the caller has already rounded to a checked precision,
        wrapped without re-validating either."""
        self = object.__new__(cls)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "precision_bits", precision_bits)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ApFloat is immutable")

    # -- conversions ---------------------------------------------------------

    def to_fraction(self) -> Fraction:
        """The exact rational value of this binary float."""
        sign, man, exp, _ = self.raw
        man = int(man)
        if sign:
            man = -man
        return Fraction(man * 2 ** exp) if exp >= 0 else Fraction(man, 2 ** -exp)

    @property
    def mpf(self) -> mpmath.mpf:
        """The same value as an mpmath.mpf (handy for interop and display)."""
        return mpmath.mp.make_mpf(self.raw)

    def __float__(self) -> float:
        return float(self.mpf)

    def __str__(self) -> str:
        return to_str(self.raw, repr_dps(self.precision_bits))

    def __repr__(self) -> str:
        return f"ApFloat('{self}', {self.precision_bits})"

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "ApFloat | None":
        if isinstance(other, ApFloat):
            return other
        if isinstance(other, (int, Fraction)):
            return ApFloat(other, self.precision_bits)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = max(self.precision_bits, o.precision_bits)
        return ApFloat(mpf_add(self.raw, o.raw, prec, _RND), prec)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = max(self.precision_bits, o.precision_bits)
        return ApFloat(mpf_sub(self.raw, o.raw, prec, _RND), prec)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = max(self.precision_bits, o.precision_bits)
        return ApFloat(mpf_mul(self.raw, o.raw, prec, _RND), prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = max(self.precision_bits, o.precision_bits)
        return ApFloat(mpf_div(self.raw, o.raw, prec, _RND), prec)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self) -> "ApFloat":
        return ApFloat(mpf_neg(self.raw), self.precision_bits)

    def __abs__(self) -> "ApFloat":
        return ApFloat(mpf_abs(self.raw), self.precision_bits)

    def scale2(self, k: int) -> "ApFloat":
        """Multiply by 2^k exactly (no rounding)."""
        return ApFloat(mpf_shift(self.raw, k), self.precision_bits)

    def is_zero(self) -> bool:
        return self.raw == fzero

    # -- comparisons (numeric; the precision tag is ignored) ------------------

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare ApFloat with {type(other).__name__}")
        return mpf_cmp(self.raw, o.raw)

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        # Python's numeric hash of m 2^e, equal to hash(self.to_fraction())
        # without building the Fraction (a gcd per call)
        return mpf_hash(self.raw)


# -- integer block kernel ----------------------------------------------------
#
# A block is a list of Python ints c_k sharing one exponent E (values
# c_k 2^E): block floating point.  Sums and products of blocks are exact
# integer operations; _renorm rounds a whole block once, so a product stage
# costs one rounding instead of one per libmp operation.


def _man_exp(raw) -> tuple[int, int]:
    """(m, e) with the raw mpf equal to m 2^e exactly."""
    sign, man, exp, _ = raw
    return (-int(man) if sign else int(man)), exp


def _common_scale(raws) -> tuple[list[int], int]:
    """Integers X_k and the least L >= 0 with raws[k] = X_k / 2^L exactly."""
    pairs = [_man_exp(r) for r in raws]
    L = max([0] + [-e for m, e in pairs if m])
    return [m << (e + L) for m, e in pairs], L


def _renorm(coeffs: list[int], E: int, bits: int) -> tuple[list[int], int]:
    """The block coeffs 2^E rounded once, as (coeffs, E), so that the larger
    of coefficients 0 and 1 keeps `bits` bits.

    The shift is read from coefficients 0 and 1 only, so the common
    coefficients of a shorter and a longer block round alike.  Rounding is to
    nearest, ties up: (c + 2^(b-1)) >> b.  A block whose coefficients 0 and 1
    are already within `bits` bits is returned exact.
    """
    b = max(coeffs[0].bit_length(), coeffs[1].bit_length()) - bits
    if b <= 0:
        return coeffs, E
    half = 1 << (b - 1)
    return [(c + half) >> b for c in coeffs], E + b


def to_apfloat(q: Fraction | int, precision_bits: int) -> ApFloat:
    """Correctly rounded conversion of an exact rational."""
    return ApFloat(q if isinstance(q, (Fraction, int)) else Fraction(q), precision_bits)


def pi(precision_bits: int) -> ApFloat:
    """pi to the requested precision (relative error <= 2^(1-bits))."""
    _check_precision(precision_bits)
    return ApFloat(mpf_pi(precision_bits, _RND), precision_bits)


def cos(x: ApFloat) -> ApFloat:
    return ApFloat(mpf_cos(x.raw, x.precision_bits, _RND), x.precision_bits)


def sin(x: ApFloat) -> ApFloat:
    return ApFloat(mpf_sin(x.raw, x.precision_bits, _RND), x.precision_bits)


def sqrt(x: ApFloat) -> ApFloat:
    """Square root; raises DomainError for negative input."""
    try:
        return ApFloat(mpf_sqrt(x.raw, x.precision_bits, _RND), x.precision_bits)
    except ComplexResult:
        raise DomainError("sqrt of a negative value") from None


class NumPoly:
    """Dense polynomial with ApFloat coefficients sharing one precision.

    The numeric mirror of RatPoly: add, multiply, differentiate by exact
    coefficient shifting, and evaluate by Horner's rule, all at the carried
    precision.  Exact-zero leading coefficients are trimmed; nothing is ever
    trimmed by threshold.
    """

    __slots__ = ("_raw", "precision_bits")

    def __init__(self, coeffs: Iterable, precision_bits: int):
        _check_precision(precision_bits)
        raws = []
        for c in coeffs:
            if isinstance(c, ApFloat):
                raws.append(mpf_pos(c.raw, precision_bits, _RND))
            elif isinstance(c, (int, Fraction)):
                raws.append(ApFloat(c, precision_bits).raw)
            elif isinstance(c, tuple) and len(c) == 4:
                raws.append(c)
            else:
                raise TypeError(f"bad NumPoly coefficient {type(c).__name__}")
        while raws and raws[-1] == fzero:
            raws.pop()
        object.__setattr__(self, "_raw", tuple(raws))
        object.__setattr__(self, "precision_bits", precision_bits)

    def __setattr__(self, name, value):
        raise AttributeError("NumPoly is immutable")

    @classmethod
    def from_ratpoly(cls, poly, precision_bits: int) -> "NumPoly":
        """Round each exact rational coefficient to the target precision."""
        return cls(list(poly.coeffs), precision_bits)

    @property
    def degree(self) -> int:
        return len(self._raw) - 1

    def coefficient(self, k: int) -> ApFloat:
        raw = self._raw[k] if 0 <= k < len(self._raw) else fzero
        return ApFloat(raw, self.precision_bits)

    def coefficients(self) -> list[ApFloat]:
        return [ApFloat(c, self.precision_bits) for c in self._raw]

    def _unify(self, other: "NumPoly") -> int:
        return max(self.precision_bits, other.precision_bits)

    def __add__(self, other: "NumPoly") -> "NumPoly":
        prec = self._unify(other)
        a, b = self._raw, other._raw
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = mpf_add(out[k], c, prec, _RND)
        return NumPoly(out, prec)

    def __sub__(self, other: "NumPoly") -> "NumPoly":
        prec = self._unify(other)
        la, lb = len(self._raw), len(other._raw)
        out = []
        for k in range(max(la, lb)):
            a = self._raw[k] if k < la else fzero
            b = other._raw[k] if k < lb else fzero
            out.append(mpf_sub(a, b, prec, _RND))
        return NumPoly(out, prec)

    def __mul__(self, other: "NumPoly") -> "NumPoly":
        prec = self._unify(other)
        a, b = self._raw, other._raw
        if not a or not b:
            return NumPoly([], prec)
        out = [fzero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == fzero:
                continue
            for j, cb in enumerate(b):
                out[i + j] = mpf_add(out[i + j], mpf_mul(ca, cb, prec, _RND), prec, _RND)
        return NumPoly(out, prec)

    def scale(self, c) -> "NumPoly":
        prec = self.precision_bits
        if isinstance(c, int):
            return NumPoly([mpf_mul_int(x, c, prec, _RND) for x in self._raw], prec)
        c = ApFloat(c, prec) if not isinstance(c, ApFloat) else c
        prec = max(prec, c.precision_bits)
        return NumPoly([mpf_mul(x, c.raw, prec, _RND) for x in self._raw], prec)

    def derivative(self, p: int = 1) -> "NumPoly":
        """p-th derivative: coefficient k becomes coeff_{k+p} * (k+p)!/k!.

        The factorial ratio is an exact integer, so one rounding per
        coefficient.
        """
        if p < 0:
            raise ValueError("derivative order must be >= 0")
        if p == 0:
            return self
        if p > self.degree:
            return NumPoly([], self.precision_bits)
        prec = self.precision_bits
        out = [
            mpf_mul_int(self._raw[k + p], math.perm(k + p, p), prec, _RND)
            for k in range(len(self._raw) - p)
        ]
        return NumPoly(out, prec)

    def evaluate(self, x: ApFloat) -> ApFloat:
        prec = max(self.precision_bits, x.precision_bits)
        acc = fzero
        for c in reversed(self._raw):
            acc = mpf_add(mpf_mul(acc, x.raw, prec, _RND), c, prec, _RND)
        return ApFloat(acc, prec)

    def __repr__(self) -> str:
        cs = ", ".join(str(self.coefficient(k)) for k in range(len(self._raw)))
        return f"NumPoly([{cs}], {self.precision_bits})"


def max_abs(values: Sequence[ApFloat]) -> ApFloat | None:
    """Largest |v| among the given values, or None for an empty sequence."""
    best, prec = None, None
    for v in values:
        a = mpf_abs(v.raw)
        if best is None or mpf_cmp(a, best) > 0:
            best, prec = a, v.precision_bits
    return None if best is None else ApFloat._wrap(best, prec)
