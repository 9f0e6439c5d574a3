"""Batch command-line front end.

Subcommands:

* knots            dump a knot set as JSON
* verify-eq1       check that sum_i h_i^(p)(y0) vanishes, numerically, at
                   precision (identity E1 in the README)
* verify-identity  check the cosecant-sum identity exactly (identity E2)
* power-sum        print exact inverse power sums PS(m, n)
* conjecture       fit power-sum formulas / hunt rationals at general knots

Output is JSON lines by default (one object per check, streamed in sweep
order) and is byte-identical across runs for identical argv.  Each
subcommand's handler is a generator of (record, passed, text line) triples;
one loop prints every record as it comes and sets the exit status.  Exit
status: 0 when every performed check passed, 1 when any failed, 2 on usage
errors, 3 on a numeric failure (a root iteration that did not converge, or
knots too close for the working precision), 141 (128 + SIGPIPE) when the
reader of stdout closed it early, as in `fejerlab verify-eq1 ... | head -1`;
errors go to stderr as one "error: ..." line, and a closed pipe prints
nothing.
The precision is --precision-bits when given; otherwise the
FEJERLAB_PRECISION_BITS environment variable, read only then, or 256 bits.
A request is parsed once, by its subcommand's parser; the top-level parser
serves only a bare `fejerlab`, -h and an unknown subcommand.  Output, errors
and exit status are the same as from the top-level parser's whole pass.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable, Iterator
from fractions import Fraction

from . import conjecture as conj
from .apnum import MIN_PRECISION_BITS, ApFloat
from .hermite import derivative_extremes, hermite_fejer_basis
from .hermite import derivative_sum  # noqa: F401  (bench/tracing.py patches this name)
from .identities import inverse_power_sum, verify_cosecant_sum
from .knots import FAMILIES, ConvergenceFailure, KnotSpacingError, make_knots
from .ratpoly import format_rational

PRECISION_ENV_VAR = "FEJERLAB_PRECISION_BITS"

#: What a subcommand's handler yields for each record: the JSON object, whether
#: it passed, and a function that formats its --output text line.
Records = Iterator[tuple[dict, bool, Callable[[], str]]]


class UsageError(ValueError):
    pass


# The parsed argparse namespace is the run configuration: the subcommand's
# handler, precision_bits (>= 64, default 256 or the environment override),
# n / n_max, p / p_max, the y0 list, family with its parameters, and the
# output mode.
# The CLI checks how the options combine, and raises before the first record
# is printed.  The library checks the values it is handed as each n of a sweep
# comes to it, so a value it rejects only at a later n (explore's
# --n-list 3,1) ends the stream there, after the earlier records, with exit 2.


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _default_precision() -> int:
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return 256
    try:
        bits = int(raw)
    except ValueError:
        raise UsageError(f"{PRECISION_ENV_VAR} must be an integer, got {raw!r}")
    if bits < MIN_PRECISION_BITS:
        raise UsageError(f"{PRECISION_ENV_VAR} must be >= {MIN_PRECISION_BITS}, got {raw!r}")
    return bits


def _reject_given(args, names, where: str) -> None:
    """A usage error if any of the named options was given explicitly."""
    for name in names:
        if getattr(args, name) is not None:
            raise UsageError(f"--{name.replace('_', '-')} does not apply to {where}")


def _knot_params(args) -> dict:
    """The knot parameters given explicitly; make_knots fills in the family's
    defaults and rejects a parameter of another family."""
    return {k: getattr(args, k) for k in ("alpha", "beta", "a", "b") if getattr(args, k) is not None}


def _n_values(args, odd: bool = False) -> list[int]:
    """[--n], or every n from 2 (odd: every odd n from 3) up to --n-max."""
    if (args.n is None) == (args.n_max is None):
        raise UsageError("give exactly one of --n / --n-max")
    first = 3 if odd else 2
    if args.n is None:
        if args.n_max < first:
            raise UsageError(f"--n-max must be >= {first}")
        return list(range(first, args.n_max + 1, 2 if odd else 1))
    return [args.n]


def _cmd_knots(args) -> Records:
    knots = make_knots(args.family, args.n, args.precision_bits, **_knot_params(args))
    obj = {
        "family": knots.family,
        "n": knots.n,
        "alpha": format_rational(knots.alpha) if knots.alpha is not None else None,
        "beta": format_rational(knots.beta) if knots.beta is not None else None,
        "precision_bits": knots.precision_bits,
        "points": [str(x) for x in knots.points],
    }
    yield obj, True, lambda: f"{knots.family} n={knots.n}: " + " ".join(obj["points"])


def _cmd_verify_eq1(args) -> Records:
    if args.p_max < 1:
        raise UsageError("--p-max must be >= 1")
    y0_list = args.y0 or [Fraction(0)]
    if len(set(y0_list)) != len(y0_list):
        raise UsageError("--y0 values must be distinct")
    y0_points = [ApFloat(y0, args.precision_bits) for y0 in y0_list]
    y0_texts = [format_rational(y0) for y0 in y0_list]
    params = _knot_params(args)
    for n in _n_values(args):
        basis = hermite_fejer_basis(make_knots(args.family, n, args.precision_bits, **params))
        # a readout carries its tolerance, and a repeated (knot set, y0)
        # hands back the values printed before, texts and all: it formats no
        # number again
        sums = [derivative_extremes(basis, args.p_max, y0) for y0 in y0_points]
        for p, row in enumerate(zip(*sums), 1):
            for y0, y0_text, (residual, _, tolerance) in zip(y0_list, y0_texts, row):
                ok = abs(residual) <= tolerance
                obj = {
                    "family": args.family,
                    "n": n,
                    "p": p,
                    "y0": y0_text,
                    "residual": str(residual),
                    "tolerance": str(tolerance),
                    "precision_bits": args.precision_bits,
                    "pass": ok,
                }
                yield obj, ok, (
                    lambda: f"{'ok  ' if ok else 'FAIL'} {args.family} n={n} p={p} y0={y0}: "
                    f"|residual| {abs(residual)} vs tolerance {tolerance}"
                )


def _cmd_verify_identity(args) -> Records:
    for n in _n_values(args, odd=True):
        report = verify_cosecant_sum(n)
        obj = {
            "n": n,
            "lhs": format_rational(report.lhs),
            "rhs": format_rational(report.rhs),
            "holds": report.holds,
        }
        yield obj, report.holds, (
            lambda: f"{'ok  ' if report.holds else 'FAIL'} n={n}: {obj['lhs']} vs {obj['rhs']}"
        )


def _cmd_power_sum(args) -> Records:
    for n in _n_values(args, odd=True):
        value = inverse_power_sum(n, args.m)
        obj = {"n": n, "m": args.m, "value": format_rational(value)}
        yield obj, True, lambda: f"PS({args.m},{n}) = {obj['value']}"


def _cmd_conjecture(args) -> Records:
    if args.family is not None:
        return _conjecture_explore(args)
    return _conjecture_formula(args)


def _conjecture_formula(args) -> Records:
    explore_only = ("p", "y0", "n_list", "alpha", "beta", "a", "b", "max_denominator")
    _reject_given(args, explore_only, "formula mode (no --family)")
    if args.m is None or args.train is None or args.holdout is None:
        raise UsageError("formula mode needs --m, --train and --holdout")
    report = conj.conjecture_power_formula(args.m, args.train, args.holdout)
    obj = {
        "m": report.m,
        "train_n": list(report.train_n),
        "holdout_n": list(report.holdout_n),
        "formula": [format_rational(c) for c in report.formula.coeffs],
        "confirmed": report.confirmed,
    }
    verdict = "confirmed" if report.confirmed else "REFUTED"
    yield obj, report.confirmed, lambda: f"{verdict} m={report.m}: {report.formula!r}"


def _conjecture_explore(args) -> Records:
    _reject_given(args, ("m", "train", "holdout"), "explore mode (--family)")
    if args.p is None or not args.n_list:
        raise UsageError("explore mode needs --p and --n-list")
    if args.y0 and len(args.y0) > 1:
        raise UsageError("explore mode takes at most one --y0")
    if len(set(args.n_list)) != len(args.n_list):
        raise UsageError(f"n_list entries must be distinct, got {args.n_list}")
    y0 = args.y0[0] if args.y0 else Fraction(0)
    y0_point = ApFloat(y0, args.precision_bits)
    params = _knot_params(args)
    # explore_knot_family owns the default; pass the bound only when given
    given = {} if args.max_denominator is None else {"max_denominator": args.max_denominator}
    for n in args.n_list:
        aggregate, nearest = conj.explore_knot_family(
            args.family, params, args.p, y0_point, n, args.precision_bits, **given
        )
        for part, rec in (("offcenter_aggregate", aggregate), ("nearest_knot_term", nearest)):
            obj = {
                "family": args.family,
                "n": n,
                "p": args.p,
                "y0": format_rational(y0),
                "part": part,
                "value": str(rec.input),
                "candidate": format_rational(rec.candidate) if rec.candidate is not None else None,
                "confirmed_at_bits": rec.confirmed_at_bits,
                "precision_bits": args.precision_bits,
            }
            yield obj, True, lambda: f"n={n} {part}: {obj['value']} ~ {obj['candidate']}"


@functools.lru_cache(maxsize=4)
def build_parser(default_precision: int | None) -> argparse.ArgumentParser:
    """The fejerlab parser, built once per default precision and then shared:
    parse_args does not change it, and callers must not either.  main passes
    None, so that an absent --precision-bits parses as None and the
    environment is read only then."""
    parser = argparse.ArgumentParser(
        prog="fejerlab",
        description="Hermite-Fejer interpolation identities: verify and discover.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_knots = sub.add_parser("knots", help="generate a knot set")
    p_knots.set_defaults(handler=_cmd_knots)
    p_knots.add_argument("--family", choices=FAMILIES, required=True)
    p_knots.add_argument("--n", type=int, required=True)

    p_eq1 = sub.add_parser("verify-eq1", help="check the vanishing derivative sums")
    p_eq1.set_defaults(handler=_cmd_verify_eq1)
    p_eq1.add_argument("--family", choices=FAMILIES, default="chebyshev1")

    p_id = sub.add_parser("verify-identity", help="check the cosecant sum exactly")
    p_id.set_defaults(handler=_cmd_verify_identity)

    p_ps = sub.add_parser("power-sum", help="exact inverse power sums")
    p_ps.set_defaults(handler=_cmd_power_sum)
    p_ps.add_argument("--m", type=int, default=1)

    # The sweep selector of the three sweep subcommands (_n_values reads it),
    # declared after verify-eq1's --family and power-sum's --m, which fixes
    # its place in their --help.
    for p in (p_eq1, p_id, p_ps):
        p.add_argument("--n", type=int)
        p.add_argument("--n-max", type=int)
    p_eq1.add_argument("--p-max", type=int, default=2)
    p_eq1.add_argument("--y0", type=_fraction, action="append")

    p_conj = sub.add_parser("conjecture", help="fit formulas / recognize rationals")
    p_conj.set_defaults(handler=_cmd_conjecture)
    p_conj.add_argument("--m", type=int)
    p_conj.add_argument("--train", type=_int_list)
    p_conj.add_argument("--holdout", type=_int_list)
    p_conj.add_argument("--family", choices=FAMILIES)
    p_conj.add_argument("--p", type=int)
    p_conj.add_argument("--y0", type=_fraction, action="append")
    p_conj.add_argument("--n-list", type=_int_list)

    # Options shared by several subcommands, declared once.  They follow each
    # subcommand's own options, which fixes their place in its --help.  The
    # knot parameters default to None, so only an option given explicitly
    # reaches make_knots, which fills in the family's defaults.
    for p in (p_knots, p_eq1, p_conj):
        for name in ("--alpha", "--beta", "--a", "--b"):
            p.add_argument(name, type=_fraction)
    p_conj.add_argument("--max-denominator", type=int)
    for p in sub.choices.values():
        p.add_argument("--precision-bits", type=int, default=default_precision)
        p.add_argument("--output", choices=("json", "text"), default="json")
    # each subcommand's parser by name, which _parse reads to skip the
    # top-level pass
    parser.subcommands = sub.choices
    return parser


def _parse(argv) -> argparse.Namespace:
    """argv (sys.argv[1:] for None) parsed once: by its subcommand's parser
    when argv[0] names one, else by the top-level parser, which then only
    prints fejerlab's usage, its --help or an unknown subcommand's error.
    Either way the namespace, the output and the SystemExit are the ones
    the top-level parser gives: its subcommand action runs parse_known_args
    on the subcommand's parser too, and reports what is left over itself."""
    parser = build_parser(None)
    if argv is None:
        argv = sys.argv[1:]
    subparser = parser.subcommands.get(argv[0]) if argv else None
    if subparser is None:
        return parser.parse_args(argv)
    args, extras = subparser.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.subcommand = argv[0]
    return args


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush at
        # interpreter exit cannot fail again (see the SIGPIPE note in the
        # signal module's docs), and exit as a process killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _run(argv) -> int:
    try:
        try:
            args = _parse(argv)
        except SystemExit as exc:
            # argparse already printed its diagnostic; keep 0 for --help.
            return 0 if not exc.code else 2
        if args.precision_bits is None:
            args.precision_bits = _default_precision()
        elif args.precision_bits < MIN_PRECISION_BITS:
            raise UsageError(f"--precision-bits must be >= {MIN_PRECISION_BITS}")
        # Records print as they are made; a text line is formatted only in
        # text mode, the one mode that prints it.
        all_pass = True
        for record, passed, text_line in args.handler(args):
            print(json.dumps(record) if args.output == "json" else text_line())
            all_pass &= passed
        return 0 if all_pass else 1
    except (ConvergenceFailure, KnotSpacingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
