"""Discovery engine: fit closed forms to exact power sums and recognize
rational constants in high-precision numerics.

Two tools, both deliberately conservative:

* conjecture_power_formula fits a polynomial in n to the exact values
  PS(m, n) = sum_k 1/sin^(2m)(k pi / n) over odd training n, then demands
  exact agreement on disjoint holdout n before calling the fit confirmed.
  Outputs are conjectures by contract, never proofs.

* rational_reconstruct scans continued-fraction convergents of a float for a
  small rational candidate, then insists the source quantity recomputed at
  twice the precision still matches.  Two independent gates make accidental
  confirmations astronomically unlikely.

explore_knot_family applies rational_reconstruct to the (E1) derivative sum
at one n of a knot family, split into its nearest-knot term and the
off-center aggregate of the rest.  Both parts come from derivative_sum: the
aggregate is its residual minus the nearest term, so it carries a
residual's contract (the row's exact off-center sum within a few roundings,
and exactly 0 where that sum is 0).
A sweep over n is the caller's loop, so each n's findings are ready as soon
as that n is done.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .apnum import ApFloat
from .hermite import derivative_sum, hermite_fejer_basis
from .identities import inverse_power_sum
from .knots import KnotSet, make_knots
from .ratpoly import RatPoly, rational_interpolate


class InsufficientTrainingPoints(ValueError):
    """Too few training points to pin down the sought polynomial degree."""


@dataclass(frozen=True)
class ConjectureReport:
    """A fitted power-sum formula and its exact holdout verdict."""

    m: int
    train_n: tuple[int, ...]
    formula: RatPoly
    holdout_n: tuple[int, ...]
    confirmed: bool


@dataclass(frozen=True)
class Recognition:
    """A rational candidate for a numeric value, if one survived confirmation.

    candidate is populated only when the recomputation at confirmed_at_bits
    (strictly higher precision than the input) re-matched it.
    """

    input: ApFloat
    candidate: Fraction | None
    confirmed_at_bits: int | None


def _check_odd_list(ns: Sequence[int], label: str) -> tuple[int, ...]:
    ns = tuple(ns)
    for n in ns:
        if n < 3 or n % 2 == 0:
            raise ValueError(f"{label} entries must be odd and >= 3, got {n}")
    if len(set(ns)) != len(ns):
        raise ValueError(f"{label} entries must be distinct")
    return ns


def conjecture_power_formula(
    m: int, train_n: Sequence[int], holdout_n: Sequence[int]
) -> ConjectureReport:
    """Fit PS(m, .) as a polynomial in n on train_n; confirm exactly on holdout_n.

    PS(m, n) behaves like a degree-2m polynomial in n, so at least 2m+1
    training points are required.  The fit is a plain exact interpolation with
    no structural assumption beyond polynomiality; overfitting is caught by
    the holdout comparison, which is exact rational equality, so holdout_n
    must not be empty.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    train = _check_odd_list(train_n, "train_n")
    holdout = _check_odd_list(holdout_n, "holdout_n")
    if not holdout:
        raise ValueError("holdout_n must not be empty")
    if set(train) & set(holdout):
        raise ValueError("train and holdout sets must be disjoint")
    if len(train) < 2 * m + 1:
        raise InsufficientTrainingPoints(
            f"need at least {2 * m + 1} training points for m={m}, got {len(train)}"
        )
    points = [(Fraction(n), inverse_power_sum(n, m)) for n in train]
    formula = rational_interpolate(points)
    confirmed = all(formula.evaluate(Fraction(n)) == inverse_power_sum(n, m) for n in holdout)
    return ConjectureReport(
        m=m, train_n=train, formula=formula, holdout_n=holdout, confirmed=confirmed
    )


def _convergents(num: int, den: int):
    """Continued-fraction convergents (h, k) of num/den (den > 0), in order,
    in lowest terms with k > 0."""
    h_prev, k_prev, h, k = 0, 1, 1, 0
    while True:
        a, rem = divmod(num, den)  # floor, remainder in [0, den)
        h, k, h_prev, k_prev = a * h + h_prev, a * k + k_prev, h, k
        yield h, k
        if rem == 0:
            return
        num, den = den, rem


def rational_reconstruct(
    x: ApFloat,
    max_denominator: int,
    recompute: Callable[[int], ApFloat],
) -> Recognition:
    """Recognize x as a rational with denominator <= max_denominator.

    Acceptance takes the first convergent within 2^(-precision_bits/2) of x.
    Confirmation calls recompute(2 * precision_bits) to rebuild the source
    quantity at doubled precision and requires the candidate to re-match
    within 2^(-precision_bits) relative.  Failing either gate yields
    candidate None.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    prec = x.precision_bits
    num, den = x.to_fraction().as_integer_ratio()
    candidate = None
    for h, k in _convergents(num, den):
        if k > max_denominator:
            break
        # |x - h/k| < 2^(-prec//2), in integers
        if abs(num * k - h * den) << (prec // 2) < den * k:
            candidate = Fraction(h, k)
            break
    if candidate is None:
        return Recognition(input=x, candidate=None, confirmed_at_bits=None)
    confirm_bits = 2 * prec
    recomputed = recompute(confirm_bits)
    gap = abs(recomputed.to_fraction() - candidate)
    if gap > Fraction(1, 2 ** prec) * max(Fraction(1), abs(candidate)):
        return Recognition(input=x, candidate=None, confirmed_at_bits=None)
    return Recognition(input=x, candidate=candidate, confirmed_at_bits=confirm_bits)


def _nearest_knot(knots: KnotSet, y0: ApFloat) -> int:
    """Index of the knot nearest y0, the lowest one on a tie.  The distances
    are compared exactly, on the knots and y0 as integers over one power of
    two, so no rounding can merge two of them."""
    xs, y, _ = knots.aligned(y0)
    return min(range(len(xs)), key=lambda i: abs(xs[i] - y))


def _aggregate_terms(
    family: str, params: dict, p: int, y0: ApFloat, n: int, precision_bits: int
) -> tuple[ApFloat, ApFloat]:
    """(off-center aggregate, nearest-knot term) of the derivative sum at p.

    The aggregate is derivative_sum's residual, the row's exact sum rounded
    once, minus the nearest term: the row's exact off-center sum after the
    roundings of the residual, the term and their difference, and exactly 0
    where that sum is 0.
    """
    knots = make_knots(family, n, precision_bits, **params)
    residual, terms = derivative_sum(hermite_fejer_basis(knots), p, y0)
    nearest = terms[_nearest_knot(knots, y0)]
    return residual - nearest, nearest


def explore_knot_family(
    family: str,
    params: dict | None,
    p: int,
    y0: ApFloat,
    n: int,
    precision_bits: int,
    max_denominator: int = 10 ** 6,
) -> tuple[Recognition, Recognition]:
    """Hunt for rational structure in the derivative sum at n knots of a family.

    The h_i^(p)(y0) terms are split into the structurally special one (the
    knot nearest y0) and the aggregate of the rest, read off derivative_sum
    as its residual minus that term, and each part is offered to
    rational_reconstruct with a genuine doubled-precision rebuild, at the
    same y0, as its confirmation.  Returns (aggregate, nearest); nothing is
    asserted about them beyond honest confirmation flags.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    # Both parts confirm at the same doubled precision: build it once.
    parts = functools.cache(
        functools.partial(_aggregate_terms, family, params or {}, p, y0, n)
    )
    rest, nearest = parts(precision_bits)
    return (
        rational_reconstruct(rest, max_denominator, lambda bits: parts(bits)[0]),
        rational_reconstruct(nearest, max_denominator, lambda bits: parts(bits)[1]),
    )
