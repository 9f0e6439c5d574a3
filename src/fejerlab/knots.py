"""Knot-system generators: Chebyshev (first and second kind), equispaced,
and Gauss-Jacobi points at arbitrary precision.

Jacobi knots are the roots of the Jacobi polynomial P_n^(alpha,beta), found
by one solve at degree n, O(n^2) operations per knot set.  Each root starts
from the interior asymptotic formula of Gatteschi and Pittaluga (as in Hale &
Townsend, SIAM J. Sci. Comput. 35(2), 2013), which float64 Newton on the
three-term recurrence, with Maehly deflation against the roots already found
(Stoer & Bulirsch, Introduction to Numerical Analysis, ch. 5), turns into a
seed in about two steps.  Halley in Python-int fixed point at the precision
plus _ROOT_GUARD_BITS, on the exact integer recurrence, refines each seed,
3 evaluations per root at 256 bits and about 4 at 512 (low-precision seeds
as in Johansson & Mezzarobba, arXiv:1802.03948).  An evaluation runs the
recurrence for P_n only: P_n' follows from P_n and P_(n-1) by a classical
identity, and P_n'' from the Jacobi differential equation.  Under parity,
alpha = beta, only the positive half is solved and then mirrored, so an odd
set carries the exact root 0 in the middle.
Robustness comes from a certificate, not from the path to the roots: the
signs of P_n at -1, at the midpoints of consecutive roots and at 1 must
alternate, which proves exactly one root in each cell.  A set that fails it
raises ConvergenceFailure; a wrong knot is never returned.  No external root
finder is involved.  A finished set is a pure function of (n, alpha, beta,
precision), so one functools.lru_cache bounded at _KNOT_SET_CAP sets shares
it between calls and threads.  The closed-form families are cached the same
way, one lru_cache per family, so make_knots hands back the same frozen set
for a repeated request.
make_knots is the one place that knows the families: its table maps each tag
in FAMILIES to its builder and to the builder's parameters with their
defaults, and rejects a parameter of another family.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import (
    from_int,
    from_man_exp,
    mpf_cos,
    mpf_div,
    mpf_mul_int,
    mpf_pi,
    mpf_pos,
)

from .apnum import _RND, ApFloat, _check_precision, _common_scale

#: Extra bits carried while polishing roots, beyond the requested precision.
_ROOT_GUARD_BITS = 32

#: Newton (float seed) or Halley (fixed point) steps allowed per root.
_NEWTON_CAP = 200


#: Finished knot sets kept by each family's cache (and bases by hermite's).
_KNOT_SET_CAP = 64


class ConvergenceFailure(RuntimeError):
    """A root iteration exceeded its step cap, or a Jacobi knot set failed its
    sign-alternation certificate (either indicates a precision bug)."""


class KnotSpacingError(ValueError):
    """Two knots are closer than the basis construction can tolerate."""


@dataclass(frozen=True)
class KnotSet:
    """A strictly increasing, validated set of interpolation knots.

    Knots closer than 2^(16 - precision_bits) are rejected outright, since the
    fundamental-polynomial construction divides by knot differences.  The gaps
    are compared exactly, on the knots as integers over one power of two.
    """

    family: str
    n: int
    points: tuple[ApFloat, ...]
    precision_bits: int
    alpha: Fraction | None = None
    beta: Fraction | None = None

    def __post_init__(self):
        if self.n != len(self.points) or self.n < 1:
            raise ValueError("n must equal the number of points and be >= 1")
        shift = _check_precision(self.precision_bits) - 16
        xs, L = _common_scale([p.raw for p in self.points])
        for lo, hi in zip(xs, xs[1:]):
            if not (hi - lo) << shift > 1 << L:
                raise KnotSpacingError(
                    f"knot gap at most 2^{16 - self.precision_bits} in family {self.family}"
                )


def _cos_pi(num: int, den: int, wp: int):
    """cos(num pi / den) as a raw mpf at wp bits."""
    angle = mpf_div(mpf_mul_int(mpf_pi(wp, _RND), num, wp, _RND), from_int(den), wp, _RND)
    return mpf_cos(angle, wp, _RND)


def _cosine_knots(family: str, n: int, precision_bits: int, num, den: int) -> KnotSet:
    """Symmetric knots from their positive half cos(num(i) pi / den), i = 1..n//2
    (descending): the negative half is the exact mirror, and an odd count puts
    an exact zero in the middle."""
    _check_precision(precision_bits)
    if n < 1:
        raise ValueError("n must be >= 1")
    wp = precision_bits + 8
    half = [
        ApFloat._wrap(mpf_pos(_cos_pi(num(i), den, wp), precision_bits, _RND), precision_bits)
        for i in range(1, n // 2 + 1)
    ]
    middle = [ApFloat(0, precision_bits)] * (n % 2)
    points = tuple([-v for v in half] + middle + half[::-1])
    return KnotSet(family=family, n=n, points=points, precision_bits=precision_bits)


@functools.lru_cache(maxsize=_KNOT_SET_CAP)
def chebyshev1_knots(n: int, precision_bits: int) -> KnotSet:
    """Roots of T_n: cos((2i-1) pi / (2n)), i = 1..n, in ascending order."""
    return _cosine_knots("chebyshev1", n, precision_bits, lambda i: 2 * i - 1, 2 * n)


@functools.lru_cache(maxsize=_KNOT_SET_CAP)
def chebyshev2_knots(n: int, precision_bits: int) -> KnotSet:
    """Roots of U_n: cos(i pi / (n+1)), i = 1..n, in ascending order."""
    return _cosine_knots("chebyshev2", n, precision_bits, lambda i: i, n + 1)


@functools.lru_cache(maxsize=_KNOT_SET_CAP)
def equispaced_knots(n: int, a: Fraction, b: Fraction, precision_bits: int) -> KnotSet:
    """n equally spaced knots x_i = a + (i-1)(b-a)/(n-1) on [a, b]."""
    _check_precision(precision_bits)
    a, b = Fraction(a), Fraction(b)
    if n < 2:
        raise ValueError("equispaced knots need n >= 2")
    if not a < b:
        raise ValueError("need a < b")
    step = (b - a) / (n - 1)
    points = tuple(ApFloat(a + i * step, precision_bits) for i in range(n))
    return KnotSet(family="equispaced", n=n, points=points, precision_bits=precision_bits)


# -- Jacobi polynomials ------------------------------------------------------


def _check_jacobi_params(alpha: Fraction, beta: Fraction) -> tuple[Fraction, Fraction]:
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= -1 or beta <= -1:
        raise ValueError("Jacobi parameters must satisfy alpha, beta > -1")
    return alpha, beta


def _integer_steps(alpha: Fraction, beta: Fraction, n: int) -> tuple[tuple[int, int, int, int], ...]:
    """The three-term recurrence of P_n^(alpha,beta), exactly, as integer steps
    (a, b, c, den) with den P_j = (a x + b) P_{j-1} - c P_{j-2}, j = 1..n,
    where P_{-1} = 0 and P_0 = 1.

    These are the classical coefficients (Szego, Orthogonal Polynomials,
    (4.5.1)) times D^3, with alpha = A/D and beta = B/D over one denominator,
    divided by their common factor.
    """
    D = math.lcm(alpha.denominator, beta.denominator)
    A, B = int(alpha * D), int(beta * D)
    S = A + B
    steps = []
    for j in range(1, n + 1):
        t = 2 * j * D + S
        if j == 1:
            step = (S + 2 * D, A - B, 0, 2 * D)
        else:
            step = (
                (t - 2 * D) * (t - D) * t,
                (t - D) * (A * A - B * B),
                2 * (j * D + A - D) * (j * D + B - D) * t,
                2 * j * (j * D + S) * (t - 2 * D) * D,
            )
        g = math.gcd(*step)
        steps.append(tuple(v // g for v in step))
    return tuple(steps)


def _jacobi_params(steps) -> tuple[int, int, int]:
    """(A, B, D) with alpha = A/D and beta = B/D, read back exactly from the
    first step, den P_1 = a x + b, where a/den = (alpha+beta+2)/2 and
    b/den = (alpha-beta)/2."""
    a, b, _, den = steps[0]
    return a + b - den, a - b - den, den


def _float_value_derivative(steps, alpha: float, beta: float, x: float) -> tuple[float, float]:
    """(P_n, P_n') at x in float64, both up to one positive factor: the value
    recurrence on the float steps (a, b, c), rescaled past 1e100 since only
    ratios are read, then P_n' from P_n and P_(n-1) by the identity of
    `_fixed_value_derivative`."""
    p_prev, p = 0.0, 1.0
    for a, b, c in steps:
        p_prev, p = p, (a * x + b) * p - c * p_prev
        if abs(p) > 1e100:
            p_prev, p = p_prev * 1e-100, p * 1e-100
    n = len(steps)
    t = 2 * n + alpha + beta
    return p, (n * (alpha - beta - t * x) * p + 2 * (n + alpha) * (n + beta) * p_prev) / (t * (1.0 - x * x))


def _seed_roots(steps, symmetric: bool) -> list[float]:
    """The roots of P_n to about float64 accuracy, ascending; only the
    positive ones when P_n has parity (symmetric).

    Root k, counted from the top, starts at the interior asymptotic formula
    of Gatteschi and Pittaluga (Hale & Townsend, SIAM J. Sci. Comput. 35(2),
    2013, section 3): with rho = n + (alpha+beta+1)/2 and
    phi = (k + alpha/2 - 1/4) pi / rho,

        x = cos(phi + ((1/4 - alpha^2) cot(phi/2) - (1/4 - beta^2) tan(phi/2)) / (4 rho^2)),

    or at cos((2k-1) pi / 2n) where that start is not inside (-1, 1), or
    (0, 1) under parity.  Newton polishes it, with Maehly deflation against
    the roots already known (their mirror images and 0 too, under parity),
    so no two seeds settle on one root.  An iterate that leaves (-1, 1), or
    (0, 1) under parity, is replaced by the midpoint of the previous one and
    the edge it crossed.  A seed is done when its step falls below 2^-26: the
    error left after that step is at float rounding level.
    """
    n = len(steps)
    A, B, D = _jacobi_params(steps)
    alpha, beta = A / D, B / D
    rho = n + (alpha + beta + 1) / 2
    steps = [(a / den, b / den, c / den) for a, b, c, den in steps]
    roots: list[float] = []
    known = [0.0] if symmetric and n % 2 else []
    low = 0.0 if symmetric else -1.0
    for k in range(n // 2 if symmetric else n, 0, -1):
        phi = (k + alpha / 2 - 0.25) * math.pi / rho
        tan_half = math.tan(phi / 2)
        x = math.cos(phi + ((0.25 - alpha**2) / tan_half - (0.25 - beta**2) * tan_half) / (4 * rho**2))
        if not low < x < 1.0:
            x = math.cos((2 * k - 1) * math.pi / (2 * n))
        for _ in range(_NEWTON_CAP):
            try:
                p, d = _float_value_derivative(steps, alpha, beta, x)
                step = p / (d - p * sum(1.0 / (x - r) for r in known))
            except ZeroDivisionError:
                raise ConvergenceFailure("Newton seed hit a root already found") from None
            nxt = x - step
            if nxt <= low:
                nxt = (x + low) / 2
            elif nxt >= 1.0:
                nxt = (x + 1.0) / 2
            if abs(step) < 2.0 ** -26:
                break
            x = nxt
        else:
            raise ConvergenceFailure("Newton iteration exceeded its step cap")
        roots.append(nxt)
        known += [nxt, -nxt] if symmetric else [nxt]
    return sorted(roots)


def _fixed_value_derivative(steps, X: int, wp: int) -> tuple[int, int]:
    """(P_n, P_n') at x = X 2^-wp, both scaled by 2^wp, in fixed point.

    Only the value recurrence runs, keeping P_(n-1); P_n' then follows from
    (Szego, Orthogonal Polynomials, (4.5.7); DLMF section 18.9)

        (2n+alpha+beta)(1-x^2) P_n' = n((alpha-beta) - (2n+alpha+beta) x) P_n
                                      + 2(n+alpha)(n+beta) P_(n-1),

    times D^2, so that with alpha = A/D and beta = B/D every coefficient is
    an integer, and with 1 - x^2 exact as 2^(2 wp) - X^2.
    """
    p_prev, p = 0, 1 << wp
    for a, b, c, den in steps:
        p_prev, p = p, (((a * X + (b << wp)) * p >> wp) - c * p_prev) // den
    A, B, D = _jacobi_params(steps)
    nD = len(steps) * D
    t = 2 * nD + A + B
    num = (nD * (((A - B) << wp) - t * X) * p >> wp) + 2 * (nD + A) * (nD + B) * p_prev
    return p, (num << 2 * wp) // (D * t * ((1 << 2 * wp) - X * X))


def _fixed_second_derivative(steps, X: int, p: int, d: int, wp: int) -> int:
    """P_n'' at x = X 2^-wp, scaled by 2^wp, from P_n = p 2^-wp and
    P_n' = d 2^-wp by the Jacobi differential equation

        (1-x^2) P_n'' = ((alpha-beta) + (alpha+beta+2) x) P_n' - n(n+alpha+beta+1) P_n,

    times D, with 1 - x^2 exact as in `_fixed_value_derivative`."""
    A, B, D = _jacobi_params(steps)
    n = len(steps)
    num = ((((A - B) << wp) + (A + B + 2 * D) * X) * d >> wp) - n * (n * D + A + B + D) * p
    return (num << 2 * wp) // (D * ((1 << 2 * wp) - X * X))


def _fixed_sign(steps, X: int, wp: int) -> int:
    """The sign of P_n(X 2^-wp), or 0 when |P_n| does not clear n 2^(16 - wp)
    times the largest |P_k| met on the way, a generous bound on the rounding
    noise of the fixed-point recurrence."""
    p_prev, p = 0, 1 << wp
    peak = p
    for a, b, c, den in steps:
        p_prev, p = p, (((a * X + (b << wp)) * p >> wp) - c * p_prev) // den
        peak = max(peak, abs(p))
    if abs(p) <= (len(steps) * peak) >> (wp - 16):
        return 0
    return 1 if p > 0 else -1


def _refine(steps, seed: float, wp: int, threshold: int) -> int:
    """Halley in fixed point from a float seed until the step drops below
    threshold (in units of 2^-wp); returns the root times 2^wp.

    The step is 2 P_n P_n' / (2 P_n'^2 - P_n P_n''): one recurrence gives
    P_n and P_n', and P_n'' costs a few big-int operations more.  The error
    falls cubically, so a float seed takes 3 evaluations at 256 bits and
    about 4 at 512, where Newton takes 4 and 5.
    """
    num, den = seed.as_integer_ratio()
    X = (num << wp) // den
    for _ in range(_NEWTON_CAP):
        try:
            p, d = _fixed_value_derivative(steps, X, wp)
            dd = _fixed_second_derivative(steps, X, p, d, wp)
            step = (p * d << (wp + 1)) // (2 * d * d - p * dd)
        except ZeroDivisionError:
            raise ConvergenceFailure("a Halley step divided by zero") from None
        X -= step
        if abs(step) < threshold:
            return X
    raise ConvergenceFailure("Halley iteration exceeded its step cap")


def _certify(steps, roots: list[int], wp: int) -> None:
    """Prove one root of P_n in each cell between -1, the midpoints of
    consecutive roots, and 1: the signs of P_n there must alternate, ending
    positive at 1 (P_n(1) > 0 for alpha > -1).  Raises ConvergenceFailure
    otherwise, never returns a wrong knot set."""
    one, n = 1 << wp, len(roots)
    if not (-one < roots[0] and roots[-1] < one and all(a < b for a, b in zip(roots, roots[1:]))):
        raise ConvergenceFailure("Jacobi roots are not distinct and inside (-1, 1)")
    cuts = [-one, *((a + b) >> 1 for a, b in zip(roots, roots[1:])), one]
    for i, cut in enumerate(cuts):
        if _fixed_sign(steps, cut, wp) != (-1) ** (n - i):
            raise ConvergenceFailure("Jacobi root certificate failed: signs do not alternate")


@functools.lru_cache(maxsize=_KNOT_SET_CAP)
def _jacobi_knot_set(n: int, alpha: Fraction, beta: Fraction, precision_bits: int) -> KnotSet:
    """The certified, rounded roots of P_n^(alpha,beta) (arguments validated).

    The certificate runs on the solver's integers, which are then rounded
    straight to the knot precision; an odd set with alpha = beta keeps its
    exact middle root 0.

    A pure function of its arguments returning an immutable value, so threads
    share the cache; a race on a cold set only repeats deterministic work.
    """
    wp = precision_bits + _ROOT_GUARD_BITS
    steps = _integer_steps(alpha, beta, n)
    threshold = 1 << (wp + 16 - precision_bits)
    symmetric = alpha == beta
    try:
        seeds = _seed_roots(steps, symmetric)
    except OverflowError:
        raise ConvergenceFailure("Jacobi parameters overflow the float seed stage") from None
    roots = [_refine(steps, seed, wp, threshold) for seed in seeds]
    if symmetric:
        # P_n has the parity of n: mirror the positive half, around 0 for odd n.
        roots = [-r for r in reversed(roots)] + [0] * (n % 2) + roots
    _certify(steps, roots, wp)
    points = tuple(ApFloat._wrap(from_man_exp(r, -wp, precision_bits, _RND), precision_bits) for r in roots)
    return KnotSet(
        family="gauss_jacobi",
        n=n,
        points=points,
        precision_bits=precision_bits,
        alpha=alpha,
        beta=beta,
    )


def gauss_jacobi_knots(n: int, alpha: Fraction, beta: Fraction, precision_bits: int) -> KnotSet:
    """The n roots of P_n^(alpha,beta), refined until Halley steps drop
    below 2^(16 - precision_bits) and certified by sign alternation."""
    _check_precision(precision_bits)
    alpha, beta = _check_jacobi_params(alpha, beta)
    if n < 1:
        raise ValueError("n must be >= 1")
    return _jacobi_knot_set(n, alpha, beta, precision_bits)


#: Each family's builder and its parameters with their defaults, in the
#: builder's positional order between n and precision_bits.
_FAMILY_TABLE = {
    "chebyshev1": (chebyshev1_knots, {}),
    "chebyshev2": (chebyshev2_knots, {}),
    "equispaced": (equispaced_knots, {"a": Fraction(-1), "b": Fraction(1)}),
    "gauss_jacobi": (gauss_jacobi_knots, {"alpha": Fraction(0), "beta": Fraction(0)}),
}

#: The knot family tags, in the order the command line lists them.
FAMILIES = tuple(_FAMILY_TABLE)


def make_knots(family: str, n: int, precision_bits: int, **params) -> KnotSet:
    """The family's knot set from _FAMILY_TABLE, its defaults filling in every
    parameter not given; a parameter passed as None counts as not given.  An
    unknown family, or a parameter of another family, is a ValueError.

    The builder is called positionally, so a request with defaults and one
    that spells them out share one cache entry."""
    try:
        builder, defaults = _FAMILY_TABLE[family]
    except KeyError:
        raise ValueError(f"unknown knot family {family!r}") from None
    for name, value in params.items():
        if value is not None and name not in defaults:
            raise ValueError(f"{name} does not apply to family {family}")
    values = [params[k] if params.get(k) is not None else v for k, v in defaults.items()]
    return builder(n, *values, precision_bits)
