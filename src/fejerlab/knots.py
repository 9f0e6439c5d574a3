"""Knot-system generators: Chebyshev (first and second kind), equispaced,
and Gauss-Jacobi points at arbitrary precision.

Jacobi knots are the roots of the Jacobi polynomial P_n^(alpha,beta), found
by one solve at degree n, O(n^2) operations per knot set.  Each root starts
from the interior asymptotic formula of Gatteschi and Pittaluga (as in Hale &
Townsend, SIAM J. Sci. Comput. 35(2), 2013), which float64 Newton on the
three-term recurrence, with Maehly deflation against the roots already found
(Stoer & Bulirsch, Introduction to Numerical Analysis, ch. 5), turns into a
seed in about two steps.  Halley in Python-int fixed point, on the exact
integer recurrence, refines each seed on a precision ladder (as Johansson &
Mezzarobba, arXiv:1802.03948, do for Newton): each step runs at the
precision its result needs, and only the last at the knot precision plus
_ROOT_GUARD_BITS.  It stops on the error that the cubic recursion predicts
after the step just taken, and the rung below that precision is picked to
bring the error there within the stop rule, so nearly every root is
evaluated at that precision once, after one evaluation below it at 256 bits
and two at 512.  An evaluation, _fixed_derivatives, runs the recurrence for
P_n only: P_n' follows from P_n and P_(n-1) by a classical identity, and
P_n'' from the Jacobi differential equation.  Under parity, alpha = beta,
only the positive half is solved and then mirrored, so an odd set carries
the exact root 0 in the middle.
Robustness comes from a proof, not from the path to the roots.  The last
evaluation of each root also proves, from the P_n and P_n' it holds and a
bound on P_n'' from the differential equation, that an interval of radius
r_i around the point it was made at holds exactly one root of P_n (r_i is
about 2^-150 at 256 bits).  The n intervals must be disjoint, lie inside
(-1, 1) and each hold their knot, so they isolate all n roots, and each knot,
before it is rounded, lies within 2 r_i of a distinct root of P_n.  A set
that fails the proof raises ConvergenceFailure; a knot outside its interval
is never returned.  That each knot is the correctly rounded root is tested,
not proved (ROADMAP.md, item 5).  No external root finder is involved.  A
finished set is a pure function of (n, alpha, beta, precision), so
gauss_jacobi_knots carries one functools.lru_cache bounded at _KNOT_SET_CAP
sets, which shares it between calls and threads, as each closed-form
family's builder does; make_knots hands back the same frozen set for a
repeated request.
make_knots is the one place that knows the families: its table maps each tag
in FAMILIES to its builder and to the builder's parameters with their
defaults, and rejects a parameter of another family.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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

from .apnum import _RND, ApFloat, _check_precision, _common_scale, _man_exp

#: Extra bits carried while polishing roots, beyond the requested precision.
_ROOT_GUARD_BITS = 32

#: Newton (float seed) or Halley (fixed point) steps allowed per root.
_NEWTON_CAP = 200


#: Finished knot sets kept by each family's cache (and bases by hermite's).
_KNOT_SET_CAP = 64


class ConvergenceFailure(RuntimeError):
    """A root iteration exceeded its step cap, or a Jacobi knot set failed its
    root-isolation proof (either indicates a precision bug)."""


class KnotSpacingError(ValueError):
    """Two knots are closer than the basis construction can tolerate."""


@dataclass(frozen=True)
class KnotSet:
    """A strictly increasing, validated set of interpolation knots.

    Knots closer than 2^(16 - precision_bits) are rejected outright, since the
    fundamental-polynomial construction divides by knot differences.  The gaps
    are compared exactly, on the knots as integers over one power of two.

    That integer form is kept: points[j] = ints[j] 2^-scale exactly, for the
    least scale >= 0, which the integer kernels read instead of rebuilding it
    (aligned adds a point y0 to it).  It is fixed by the points' values, so
    it stays out of init, eq and repr.  So is the hash, taken once at
    construction from the precision and the integer form: hash(ks) is O(1)
    and hashes no ApFloat, and equal sets hash equal.  It hashes only ints,
    whose hashes are the same in every process.
    """

    family: str
    n: int
    points: tuple[ApFloat, ...]
    precision_bits: int
    alpha: Fraction | None = None
    beta: Fraction | None = None
    ints: tuple[int, ...] = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

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
        ints = tuple(xs)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "scale", L)
        object.__setattr__(self, "_hash", hash((self.precision_bits, L, ints)))

    def __hash__(self):
        return self._hash

    def aligned(self, y0: ApFloat) -> tuple[tuple[int, ...], int, int]:
        """(xs, y, L) with points[j] = xs[j] 2^-L and y0 = y 2^-L exactly, for
        the least L >= 0: the stored integer form, its integers shifted only
        when y0 needs a finer scale than the knots."""
        m, e = _man_exp(y0.raw)
        if m and -e > self.scale:
            return tuple(x << (-e - self.scale) for x in self.ints), m, -e
        return self.ints, m << (e + self.scale), self.scale


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
    `_fixed_derivatives`."""
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


def _fixed_derivatives(steps, X: int, wp: int, noise: bool = False) -> tuple[int, int, int, int, int]:
    """(P_n, P_n', P_n'', e, e') at x = X 2^-wp, each scaled by 2^wp, in fixed point.

    Only the value recurrence runs, keeping P_(n-1); P_n' then follows from
    (Szego, Orthogonal Polynomials, (4.5.7); DLMF section 18.9)

        (2n+alpha+beta)(1-x^2) P_n' = n((alpha-beta) - (2n+alpha+beta) x) P_n
                                      + 2(n+alpha)(n+beta) P_(n-1),

    times D^2, and P_n'' from the Jacobi differential equation

        (1-x^2) P_n'' = ((alpha-beta) + (alpha+beta+2) x) P_n' - n(n+alpha+beta+1) P_n,

    times D, so that with alpha = A/D and beta = B/D every coefficient is an
    integer, and with 1 - x^2 exact as 2^(2 wp) - X^2.

    With noise, e bounds the rounding error of P_n and P_(n-1): n 2^(16 - wp)
    times the largest |P_k| met on the way, a generous bound on the noise of
    the fixed-point recurrence, plus one; e' is e carried through the
    identity for P_n', rounded up.  Without it, e = e' = 0, and the loop
    does not track the largest |P_k|.
    """
    p_prev, p = 0, 1 << wp
    peak = p
    for a, b, c, den in steps:
        p_prev, p = p, (((a * X + (b << wp)) * p >> wp) - c * p_prev) // den
        if noise and (p > peak or -p > peak):
            peak = abs(p)
    A, B, D = _jacobi_params(steps)
    n = len(steps)
    nD = n * D
    t = 2 * nD + A + B
    span = (1 << 2 * wp) - X * X  # (1 - x^2) 2^(2 wp)
    slope, pull = nD * (((A - B) << wp) - t * X), 2 * (nD + A) * (nD + B)
    d = (((slope * p >> wp) + pull * p_prev) << 2 * wp) // (D * t * span)
    num = ((((A - B) << wp) + (A + B + 2 * D) * X) * d >> wp) - n * (nD + A + B + D) * p
    e = e_d = 0
    if noise:
        e = ((n * peak) >> (wp - 16)) + 1
        e_d = (((abs(slope) + (pull << wp)) * e + (1 << wp)) << wp) // (D * t * span) + 2
    return p, d, (num << 2 * wp) // (D * span), e, e_d


def _isolation_radius(steps, X: int, wp: int, p: int, d: int, e: int, e_d: int) -> int:
    """r 2^wp, rounded up, such that [X - r, X + r] 2^-wp holds exactly one
    root of P_n, from P_n = p 2^-wp and P_n' = d 2^-wp at x = X 2^-wp, known
    to within e and e' (`_fixed_derivatives` with noise).  Raises
    ConvergenceFailure where it cannot prove that.

    With |P| <= (|p| + e) 2^-wp and |P'| within (|d| -+ e') 2^-wp, take
    r = 2 |P| / |P'|, m = |alpha - beta| + alpha + beta + 2,
    K = n(n + alpha + beta + 1) and s = 1 - (|x| + r)^2.  On the interval
    the Jacobi differential equation gives |P''| <= (m |P'| + K |P|) / s,
    so (m r + K r^2) / s <= 1/2 bounds |P''| there by
    2 (m |P'(x)| + K |P(x)| + K r |P'(x)|) / s; r times that <= |P'(x)| / 2
    keeps |P'| >= |P'(x)| / 2 on the interval, so P_n is monotone there and
    changes sign at its ends.  The second test implies the first, since
    |P'(x)| >= its lower bound, but the bound on |P''| rests on the first.
    Every test is an exact integer comparison, with r and the bounds on |P|
    and |P'| taken outward.
    """
    A, B, D = _jacobi_params(steps)
    n = len(steps)
    value, low, high = abs(p) + e, abs(d) - e_d, abs(d) + e_d
    # r is unbounded where |P'| is not bounded away from 0: 1 fails s > 0
    r = -((-value << (wp + 1)) // low) if low > 0 else 1 << wp
    s = (1 << 2 * wp) - (abs(X) + r) ** 2  # s 2^(2 wp)
    m = abs(A - B) + A + B + 2 * D  # m D
    K = n * (n * D + A + B + D)  # K D
    bounded = s > 0 and 2 * ((m * r << wp) + K * r * r) <= D * s
    if not (bounded and 4 * r * (((m * high + K * value) << wp) + K * r * high) <= low * D * s):
        raise ConvergenceFailure("Jacobi root isolation failed: P_n is not proved monotone around a root")
    return r


def _refine(steps, seed: float, wp: int) -> tuple[int, int, int]:
    """Halley in fixed point from a float seed; returns (X, lo, hi): the root
    times 2^wp, and an interval [lo, hi] 2^-wp around it that holds exactly
    one root of P_n.

    The step is 2 P_n P_n' / (2 P_n'^2 - P_n P_n''): one recurrence gives
    P_n and P_n', and P_n'' costs a few big-int operations more.  Halley's
    error falls as e' ~ C e^3, C = (P_n''/2P_n')^2 - P_n'''/(6 P_n'), so
    each step runs at the precision its result needs (a precision ladder,
    as Johansson & Mezzarobba, arXiv:1802.03948, use for Newton).
    At wp, the step just taken is e to first order, so the loop stops as
    soon as |step|^3 (1 + (P_n''/P_n')^2) < 2^-(wp + 16), read from bit
    lengths: the error left is then below the fixed point's own resolution,
    and one more evaluation would only confirm it.  The proxy drops the
    P_n''' part of C, about n^2 / (6 (1 - x^2)) at a root by the
    differential equation; the 16-bit margin and the _ROOT_GUARD_BITS below
    the knot precision absorb it.

    The rungs are picked for that stop rule.  The first step runs from the
    float seed at min(wp, 182) bits.  After a step of size 2^-k at w bits,
    with |P_n''/P_n'| about 2^c, which puts C's first term near 2^(2c), X
    holds about g = min(3k - 2c, w - 16) good bits, and the stop rule at wp
    holds once X enters it with (wp + 18 + 2c) / 3.  With 8 more than that,
    the next step runs at wp; otherwise at min(3g, (wp + 18 + 2c) / 3 + 8)
    + 32 bits, never below the one before and never above wp.  So nearly every
    root is evaluated at wp once, by the step that stops, after one
    evaluation below wp at 256 bits (two for a few roots of a large set),
    two at 512, and two or three at 1024.

    That last evaluation also gives the interval: `_isolation_radius`
    around the point it was made at, about 2^-149 wide at 256 bits.
    """
    num, den = seed.as_integer_ratio()
    w = min(wp, 182)
    X = (num << w) // den
    for _ in range(_NEWTON_CAP):
        try:
            p, d, dd, e, e_d = _fixed_derivatives(steps, X, w, w == wp)
            step = (p * d << (w + 1)) // (2 * d * d - p * dd)
        except ZeroDivisionError:
            raise ConvergenceFailure("a Halley step divided by zero") from None
        # |step| < 2^s and |P''/P'| < 2^(c+1) give |step|^3 (1 + (P''/P')^2)
        # < 2^(3s + 2c + 3) <= 2^(2 wp - 16) in units of 2^(-3 wp)
        c = max(dd.bit_length() - d.bit_length(), 0)
        if w == wp and 3 * step.bit_length() + 2 * c < 2 * wp - 18:
            r = _isolation_radius(steps, X, wp, p, d, e, e_d)
            return X - step, X - r, X + r
        X -= step
        # after a step of 2^-k, X holds about 3k - 2c good bits, and at most
        # w - 16; the stop rule at wp needs (wp + 18 + 2c) / 3 of them
        good = min(3 * (w - step.bit_length()) - 2 * c, w - 16)
        need = (wp + 18 + 2 * c) // 3 + 8
        rung = wp if good >= need else min(wp, max(w, min(3 * good, need) + 32))
        X, w = X << (rung - w), rung
    raise ConvergenceFailure("Halley iteration exceeded its step cap")


@functools.lru_cache(maxsize=_KNOT_SET_CAP)
def gauss_jacobi_knots(n: int, alpha: Fraction, beta: Fraction, precision_bits: int) -> KnotSet:
    """The n roots of P_n^(alpha,beta), refined by Halley on a precision
    ladder up to precision_bits + _ROOT_GUARD_BITS until the predicted error
    of the last step is below that fixed point's resolution (one evaluation
    at it per root, after one below it at 256 bits and two at 512).

    Each root comes with an interval of radius r_i, proved from its last
    evaluation to hold exactly one root of P_n.  The intervals must be
    disjoint, lie inside (-1, 1) and hold their knots, or the set raises
    ConvergenceFailure: each knot then lies within 2 r_i of a distinct root,
    about 2^-149 at 256 bits, before it is rounded straight to the knot
    precision.  An odd set with alpha = beta keeps its exact middle root 0,
    isolated by parity alone.

    A pure function of its arguments returning an immutable value, so threads
    share the cache; a race on a cold set only repeats deterministic work.
    """
    _check_precision(precision_bits)
    alpha, beta = _check_jacobi_params(alpha, beta)
    if n < 1:
        raise ValueError("n must be >= 1")
    wp = precision_bits + _ROOT_GUARD_BITS
    steps = _integer_steps(alpha, beta, n)
    symmetric = alpha == beta
    try:
        seeds = _seed_roots(steps, symmetric)
    except OverflowError:
        raise ConvergenceFailure("Jacobi parameters overflow the float seed stage") from None
    roots = [_refine(steps, seed, wp) for seed in seeds]
    if symmetric:
        # P_n has the parity of n: mirror the positive half, around the exact
        # root 0 for odd n, which the degenerate interval [0, 0] isolates.
        roots = [(-x, -hi, -lo) for x, lo, hi in reversed(roots)] + [(0, 0, 0)] * (n % 2) + roots
    # n disjoint intervals in (-1, 1), each holding one root of P_n, hold all
    # n of them; each knot must lie in its own interval
    one = 1 << wp
    ends = [-one, *(end for _, lo, hi in roots for end in (lo, hi)), one]
    if not (all(a < b for a, b in zip(ends[::2], ends[1::2])) and all(lo <= x <= hi for x, lo, hi in roots)):
        raise ConvergenceFailure("Jacobi root intervals overlap, leave (-1, 1) or miss their knot")
    points = tuple(ApFloat._wrap(from_man_exp(x, -wp, precision_bits, _RND), precision_bits) for x, _, _ in roots)
    return KnotSet(
        family="gauss_jacobi",
        n=n,
        points=points,
        precision_bits=precision_bits,
        alpha=alpha,
        beta=beta,
    )


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
