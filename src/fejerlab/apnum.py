"""Arbitrary-precision binary floating arithmetic with an explicit precision tag.

The module holds three things: ApFloat, a binary float tagged with its
precision; NumPoly, a dense polynomial of rounded coefficients; and the
integer block kernel the Hermite-Fejer layer runs on.  It has no elementary
functions: the knot generators call libmp's for themselves.

Every value carries its working precision in bits (mantissa width, >= 64);
arithmetic between two values runs at the larger of their precisions, with
round-to-nearest-even.  ApFloat calls mpmath's low-level libmp kernels (on
gmpy2 if installed, else pure Python: see mpmath.libmp.BACKEND), bypassing
the global mpmath context: precision is per-value, never shared.  _RND is the
one rounding mode of the package.  There is one way to round a number in,
ApFloat(q, bits) for an int, a Fraction or an ApFloat, and one way to wrap a
raw libmp value that is already rounded, ApFloat._wrap; NumPoly has the same
two, NumPoly(coeffs, bits) and NumPoly._wrap.

The Hermite-Fejer basis, its jet and its dense coefficients do not run on
ApFloat operations: libmp normalises after every operation, which costs
several times the mantissa product.  They run on the integer block kernel
below instead: exact (int, exponent) views of raw values, a common integer
scale for a set of values, and _renorm, which rounds a block of ints sharing
one exponent once.

The error model is a guard-bit budget, not interval arithmetic: a pipeline
of k rounded operations is trusted to roughly k ulps, and a block costs one
rounding per stage, not one per operation.  Exact claims never ride on this
module; see the rational polynomial layer for those.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence

from mpmath.libmp import (
    from_int,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_hash,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_sub,
    repr_dps,
    round_nearest,
    to_float,
    to_str,
)

MIN_PRECISION_BITS = 64

_RND = round_nearest


def _check_precision(bits: int) -> int:
    if not isinstance(bits, int) or bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits must be an int >= {MIN_PRECISION_BITS}")
    return bits


def _arithmetic(op, reflected: bool = False):
    """The ApFloat operator of the libmp op: the other operand coerced, op run
    at the larger precision in the written operand order (the ApFloat second
    when reflected, so 1 - x is op(1, x)), rounded once and wrapped."""

    def method(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = max(self.precision_bits, o.precision_bits)
        a, b = (o, self) if reflected else (self, o)
        return ApFloat._wrap(op(a.raw, b.raw, prec, _RND), prec)

    return method


class ApFloat:
    """An arbitrary-precision binary float plus its precision in bits.

    Construct from an int, a Fraction or an ApFloat, correctly rounded to
    precision_bits (a raw libmp tuple is refused: wrap one that is already
    rounded with ApFloat._wrap), or combine existing values with the usual
    operators.  Values are immutable.  The decimal text, str(x), is computed
    at most once per value: the first read keeps it, and a value can be
    wrapped with its text already known.  Equality and hashing ignore it.
    """

    __slots__ = ("raw", "precision_bits", "_text")

    def __init__(self, value, precision_bits: int):
        _check_precision(precision_bits)
        if isinstance(value, ApFloat):
            raw = mpf_pos(value.raw, precision_bits, _RND)
        elif isinstance(value, int):
            raw = from_int(value, precision_bits, _RND)
        elif isinstance(value, Fraction):
            raw = from_rational(value.numerator, value.denominator, precision_bits, _RND)
        else:
            raise TypeError(f"cannot build ApFloat from {type(value).__name__}")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "precision_bits", precision_bits)

    @classmethod
    def _wrap(cls, raw, precision_bits: int, text: str | None = None) -> "ApFloat":
        """A raw mpf the caller has already rounded to a checked precision,
        wrapped without re-validating either; text, when given, is its
        str() as read before, and is not checked either."""
        self = object.__new__(cls)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "precision_bits", precision_bits)
        if text is not None:
            object.__setattr__(self, "_text", text)
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

    def __float__(self) -> float:
        return to_float(self.raw, rnd=_RND)

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:  # the slot stays empty until the first read
            text = to_str(self.raw, repr_dps(self.precision_bits))
            object.__setattr__(self, "_text", text)
            return text

    def __repr__(self) -> str:
        return f"ApFloat('{self}', {self.precision_bits})"

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "ApFloat | None":
        if isinstance(other, ApFloat):
            return other
        if isinstance(other, (int, Fraction)):
            return ApFloat(other, self.precision_bits)
        return None

    # A correctly rounded sum or product does not depend on the operand
    # order, so + and * serve their reflected forms as they are.
    __add__ = __radd__ = _arithmetic(mpf_add)
    __sub__ = _arithmetic(mpf_sub)
    __rsub__ = _arithmetic(mpf_sub, reflected=True)
    __mul__ = __rmul__ = _arithmetic(mpf_mul)
    __truediv__ = _arithmetic(mpf_div)
    __rtruediv__ = _arithmetic(mpf_div, reflected=True)

    def __neg__(self) -> "ApFloat":
        return ApFloat._wrap(mpf_neg(self.raw), self.precision_bits)

    def __abs__(self) -> "ApFloat":
        if not self.raw[0]:  # x >= 0: mpf_abs would give back the same raw
            return self
        # to_str writes a sign and then the digits of |x|, so a known text
        # stays known without its sign
        text = getattr(self, "_text", None)
        return ApFloat._wrap(mpf_abs(self.raw), self.precision_bits, text and text.lstrip("-"))

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


def _coefficientwise(op):
    """The NumPoly operator of the libmp op: op on each pair of coefficients,
    the shorter operand padded with exact zeros, at the larger precision."""

    def method(self, other):
        prec = max(self.precision_bits, other.precision_bits)
        pairs = zip_longest(self._raw, other._raw, fillvalue=fzero)
        return NumPoly._wrap([op(a, b, prec, _RND) for a, b in pairs], prec)

    return method


class NumPoly:
    """Dense polynomial with ApFloat coefficients sharing one precision.

    The container both dense constructions return (FundamentalBasis.h and
    chebyshev_closed_form): coefficients, degree, and the coefficient-wise +
    and - that compare them, at the carried precision.  Like ApFloat it has
    one way to round coefficients in, NumPoly(coeffs, bits) for ints,
    Fractions or ApFloats (poly.coeffs of an exact polynomial, say), and one
    way to wrap raw libmp values that are already rounded, NumPoly._wrap.  No
    fejerlab code multiplies or evaluates one; the product and Horner
    evaluation stay because the benchmark's tracer patches them by name and
    the tests use them as numeric references.  Exact-zero leading
    coefficients are trimmed; nothing is ever trimmed by threshold.
    """

    __slots__ = ("_raw", "precision_bits")

    def __init__(self, coeffs: Iterable, precision_bits: int):
        _check_precision(precision_bits)
        self._fill([ApFloat(c, precision_bits).raw for c in coeffs], precision_bits)

    @classmethod
    def _wrap(cls, raws, precision_bits: int) -> "NumPoly":
        """Raw mpfs the caller has already rounded to a checked precision,
        wrapped without re-validating either; exact-zero leading
        coefficients are trimmed."""
        self = object.__new__(cls)
        self._fill(list(raws), precision_bits)
        return self

    def _fill(self, raws: list, precision_bits: int) -> None:
        while raws and raws[-1] == fzero:
            raws.pop()
        object.__setattr__(self, "_raw", tuple(raws))
        object.__setattr__(self, "precision_bits", precision_bits)

    def __setattr__(self, name, value):
        raise AttributeError("NumPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self._raw) - 1

    def coefficient(self, k: int) -> ApFloat:
        raw = self._raw[k] if 0 <= k < len(self._raw) else fzero
        return ApFloat._wrap(raw, self.precision_bits)

    def coefficients(self) -> list[ApFloat]:
        return [ApFloat._wrap(c, self.precision_bits) for c in self._raw]

    __add__ = _coefficientwise(mpf_add)
    __sub__ = _coefficientwise(mpf_sub)

    def __mul__(self, other: "NumPoly") -> "NumPoly":  # (bench/tracing.py patches this name)
        prec = max(self.precision_bits, other.precision_bits)
        a, b = self._raw, other._raw
        if not a or not b:
            return NumPoly._wrap([], prec)
        out = [fzero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == fzero:
                continue
            for j, cb in enumerate(b):
                out[i + j] = mpf_add(out[i + j], mpf_mul(ca, cb, prec, _RND), prec, _RND)
        return NumPoly._wrap(out, prec)

    def evaluate(self, x: ApFloat) -> ApFloat:  # (bench/tracing.py patches this name)
        prec = max(self.precision_bits, x.precision_bits)
        acc = fzero
        for c in reversed(self._raw):
            acc = mpf_add(mpf_mul(acc, x.raw, prec, _RND), c, prec, _RND)
        return ApFloat._wrap(acc, prec)

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
