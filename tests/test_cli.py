"""Command-line contract: JSON schemas, exit codes, determinism, precision
plumbing."""
import argparse
import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fejerlab.cli as cli
import fejerlab.conjecture as conj
import fejerlab.hermite as hermite_mod
import fejerlab.knots as knots_mod
from fejerlab.apnum import ApFloat
from fejerlab.knots import KnotSpacingError
from fejerlab.ratpoly import RatPoly


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestVerifyIdentity:
    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "verify-identity", "--n-max", "21")
        assert code == 0
        rows = json_lines(out)
        assert [r["n"] for r in rows] == list(range(3, 22, 2))
        assert all(r["holds"] for r in rows)
        assert rows[0] == {"n": 3, "lhs": "8/3", "rhs": "8/3", "holds": True}

    def test_single(self, capsys):
        code, out, _ = run(capsys, "verify-identity", "--n", "9")
        assert code == 0
        assert json_lines(out) == [{"n": 9, "lhs": "80/3", "rhs": "80/3", "holds": True}]

    def test_even_n_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify-identity", "--n", "4")
        assert code == 2
        assert out == ""
        assert "odd" in err

    def test_requires_exactly_one_selector(self, capsys):
        code, _, err = run(capsys, "verify-identity")
        assert code == 2
        code, _, err = run(capsys, "verify-identity", "--n", "3", "--n-max", "9")
        assert code == 2


class TestVerifyEq1:
    def test_single_run_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-eq1", "--family", "chebyshev1", "--n", "3",
            "--p-max", "2", "--y0", "0", "--precision-bits", "128",
        )
        assert code == 0
        rows = json_lines(out)
        assert len(rows) == 2
        for row in rows:
            assert row["pass"] is True
            assert row["family"] == "chebyshev1"
            assert row["precision_bits"] == 128
            assert set(row) == {
                "family", "n", "p", "y0", "residual", "tolerance", "precision_bits", "pass",
            }

    def test_repeatable_y0_and_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-eq1", "--family", "equispaced", "--n-max", "4",
            "--p-max", "3", "--y0", "0", "--y0", "3/10", "--precision-bits", "64",
        )
        assert code == 0
        rows = json_lines(out)
        assert [(r["n"], r["p"], r["y0"]) for r in rows] == [
            (n, p, y0) for n in (2, 3, 4) for p in (1, 2, 3) for y0 in ("0/1", "3/10")
        ]

    def test_one_jet_per_n_and_y0(self, capsys, monkeypatch):
        # fresh bases: a basis kept from an earlier test reads its stored
        # readouts back and builds no jet
        hermite_mod.hermite_fejer_basis.cache_clear()
        builds, rows = [], []
        jet, jet_rows = hermite_mod._jet, hermite_mod._rows

        def counting_jet(basis, p_max, y0):
            builds.append((basis.n, p_max))
            return jet(basis, p_max, y0)

        def counting_rows(basis, jet, orders):
            rows.extend(orders)
            return jet_rows(basis, jet, orders)

        monkeypatch.setattr(hermite_mod, "_jet", counting_jet)
        monkeypatch.setattr(hermite_mod, "_rows", counting_rows)
        code, out, _ = run(
            capsys,
            "verify-eq1", "--n-max", "5", "--p-max", "6", "--y0", "0", "--y0", "1/3",
        )
        assert code == 0
        assert len(json_lines(out)) == 4 * 6 * 2
        assert builds == [(n, 6) for n in (2, 3, 4, 5) for _ in range(2)]
        assert len(rows) == 48  # one row per record, none formed twice

    @staticmethod
    def _count_jets(monkeypatch):
        builds = []
        jet = hermite_mod._jet

        def counting_jet(basis, p_max, y0):
            builds.append((basis.n, p_max))
            return jet(basis, p_max, y0)

        monkeypatch.setattr(hermite_mod, "_jet", counting_jet)
        return builds

    def test_repeated_argv_reads_stored_rows(self, capsys, monkeypatch):
        hermite_mod.hermite_fejer_basis.cache_clear()
        builds = self._count_jets(monkeypatch)
        argv = ("verify-eq1", "--family", "gauss_jacobi", "--alpha", "1/3", "--beta", "1/5",
                "--n-max", "6", "--p-max", "8", "--y0", "0", "--y0=-7/10", "--y0", "2")
        first = run(capsys, *argv)
        assert len(builds) == 5 * 3
        second = run(capsys, *argv)
        assert second == first and first[0] == 0
        assert len(builds) == 5 * 3  # the second run built no jet

    def test_shallower_p_max_reads_a_prefix_and_deeper_builds_once(self, capsys, monkeypatch):
        hermite_mod.hermite_fejer_basis.cache_clear()
        builds = self._count_jets(monkeypatch)
        argv = ("verify-eq1", "--n", "5", "--y0", "3/10", "--precision-bits", "128")
        out = {}
        for p_max in ("6", "3", "8"):
            code, out[p_max], _ = run(capsys, *argv, "--p-max", p_max)
            assert code == 0
        assert builds == [(5, 6), (5, 8)]
        deep = out["8"].splitlines()
        assert out["6"].splitlines() == deep[:6] and out["3"].splitlines() == deep[:3]
        hermite_mod.hermite_fejer_basis.cache_clear()
        assert run(capsys, *argv, "--p-max", "3")[1] == out["3"]

    def test_deep_p_max_costs_no_factorial_of_a_zero_row(self, capsys, monkeypatch):
        # rows above 2n - 1 are exact zeros; p! of p = 20000 would take seconds
        factorials = []
        factorial = hermite_mod.math.factorial

        def counting(p):
            factorials.append(p)
            return factorial(p)

        monkeypatch.setattr(hermite_mod.math, "factorial", counting)
        code, out, _ = run(capsys, "verify-eq1", "--n", "3", "--p-max", "20000", "--precision-bits", "64")
        rows = json_lines(out)
        assert code == 0 and len(rows) == 20000 and all(r["pass"] for r in rows)
        assert all(r["residual"] == "0.0" for r in rows[5:])
        assert factorials == []

    @pytest.mark.parametrize(
        "y0s", [("1/3", "1/3"), ("1/2", "2/4"), ("0.5", "1/2"), ("0", "1/5", "0/7")]
    )
    def test_repeated_y0_is_usage_error(self, capsys, y0s):
        # equal as rationals is repeated, however it is spelled
        argv = ["verify-eq1", "--n", "4"] + [f"--y0={y0}" for y0 in y0s]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_gauss_jacobi_defaults_to_legendre(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-eq1", "--family", "gauss_jacobi", "--n", "4",
            "--p-max", "1", "--precision-bits", "64",
        )
        assert code == 0
        assert json_lines(out)[0]["pass"] is True

    def test_exit_one_on_check_failure(self, capsys, monkeypatch):
        # force a failing comparison to pin the exit-code contract
        monkeypatch.setattr(
            cli, "scaled_tolerance", lambda terms, bits: ApFloat(F(-1), bits)
        )
        code, out, _ = run(
            capsys,
            "verify-eq1", "--family", "chebyshev1", "--n", "3",
            "--p-max", "1", "--precision-bits", "64",
        )
        assert code == 1
        assert json_lines(out)[0]["pass"] is False


class TestNumericFailure:
    def test_convergence_failure_exits_three(self, capsys, monkeypatch):
        knots_mod.gauss_jacobi_knots.cache_clear()
        monkeypatch.setattr(knots_mod, "_NEWTON_CAP", 2)
        code, out, err = run(
            capsys,
            "knots", "--family", "gauss_jacobi", "--n", "8", "--alpha", "1/7", "--beta", "2/7",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_refused_knot_set_exits_three(self, capsys, monkeypatch):
        knots_mod.gauss_jacobi_knots.cache_clear()
        seeds = knots_mod._seed_roots
        monkeypatch.setattr(
            knots_mod, "_seed_roots", lambda steps, symmetric: [seeds(steps, symmetric)[0]] * len(steps)
        )
        code, out, err = run(
            capsys,
            "knots", "--family", "gauss_jacobi", "--n", "8", "--alpha", "1/7", "--beta", "2/7",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_high_degree_extreme_parameters_are_proved(self, capsys):
        code, out, _ = run(
            capsys,
            "knots", "--family", "gauss_jacobi", "--n", "200", "--alpha", "50",
            "--beta=-99/100", "--precision-bits", "512",
        )
        assert code == 0
        assert len(json_lines(out)[0]["points"]) == 200

    @pytest.mark.parametrize(
        "argv",
        [
            "knots --family gauss_jacobi --n 5 --alpha 1e300",
            "knots --family gauss_jacobi --n 5 --alpha 1e400",
            "knots --family gauss_jacobi --n 4 --alpha 1e300 --beta 1e300",
            "verify-eq1 --family gauss_jacobi --n 3 --beta 1e300",
            "conjecture --family gauss_jacobi --alpha 1e300 --p 1 --n-list 3",
        ],
    )
    def test_parameters_past_the_float_range_exit_three(self, capsys, argv):
        # the float seed stage overflows (alpha**2 in the asymptotic start,
        # or alpha = A / D itself): a numeric failure, like a step cap
        code, out, err = run(capsys, *argv.split())
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_knot_spacing_error_exits_three(self, capsys, monkeypatch):
        def too_close(*args, **kwargs):
            raise KnotSpacingError("knots too close")

        monkeypatch.setattr(cli, "make_knots", too_close)
        code, out, err = run(capsys, "knots", "--family", "chebyshev1", "--n", "5")
        assert code == 3
        assert out == ""
        assert err == "error: knots too close\n"


class TestKnotsCommand:
    def test_schema(self, capsys):
        code, out, _ = run(
            capsys, "knots", "--family", "chebyshev1", "--n", "3", "--precision-bits", "64"
        )
        assert code == 0
        (row,) = json_lines(out)
        assert set(row) == {"family", "n", "alpha", "beta", "precision_bits", "points"}
        assert row["alpha"] is None and row["beta"] is None
        assert len(row["points"]) == 3
        assert row["points"][1] == "0.0"

    def test_jacobi_parameters_serialized(self, capsys):
        # negative fractions need the --flag=value spelling under argparse
        code, out, _ = run(
            capsys,
            "knots", "--family", "gauss_jacobi", "--n", "2",
            "--alpha=-1/2", "--beta=-1/2", "--precision-bits", "64",
        )
        assert code == 0
        (row,) = json_lines(out)
        assert row["alpha"] == "-1/2" and row["beta"] == "-1/2"

    def test_points_round_trip_their_precision(self, capsys):
        code, out, _ = run(
            capsys, "knots", "--family", "chebyshev1", "--n", "5", "--precision-bits", "128"
        )
        (row,) = json_lines(out)
        for text in row["points"]:
            assert F(text) == F(text)  # parseable decimal strings


class TestPowerSum:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "power-sum", "--m", "2", "--n", "5")
        assert code == 0
        assert json_lines(out) == [{"n": 5, "m": 2, "value": "48/5"}]

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "power-sum", "--n-max", "9")
        assert code == 0
        values = [r["value"] for r in json_lines(out)]
        assert values == ["4/3", "4/1", "8/1", "40/3"]


class TestConjectureCommand:
    def test_formula_mode(self, capsys):
        code, out, _ = run(
            capsys, "conjecture", "--m", "1", "--train", "3,5,7", "--holdout", "9,11"
        )
        assert code == 0
        (row,) = json_lines(out)
        assert row["confirmed"] is True
        assert row["formula"] == ["-1/6", "0/1", "1/6"]

    def test_json_mode_formats_no_text_line(self, capsys, monkeypatch):
        # the text line repr()s the formula; only text mode may build it
        reprs = []
        original = RatPoly.__repr__

        def counting_repr(self):
            reprs.append(1)
            return original(self)

        monkeypatch.setattr(RatPoly, "__repr__", counting_repr)
        argv = ["conjecture", "--m", "2", "--train", "3,5,7,9,11", "--holdout", "13,15"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json_lines(out)[0]["confirmed"] is True
        assert reprs == []
        code, out, _ = run(capsys, *argv, "--output", "text")
        assert code == 0 and out.startswith("confirmed m=2: ")
        assert reprs == [1]

    def test_formula_mode_needs_arguments(self, capsys):
        code, _, err = run(capsys, "conjecture", "--m", "1", "--train", "3,5,7")
        assert code == 2 and "holdout" in err

    def test_explore_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "conjecture", "--family", "chebyshev1", "--p", "2", "--y0", "0",
            "--n-list", "3", "--precision-bits", "128",
        )
        assert code == 0
        rows = json_lines(out)
        assert [r["part"] for r in rows] == ["offcenter_aggregate", "nearest_knot_term"]
        assert rows[0]["candidate"] == "16/3"
        assert rows[1]["candidate"] == "-16/3"

    def test_explore_mode_max_denominator_default_has_one_owner(self, capsys):
        argv = ("conjecture", "--family", "chebyshev1", "--p", "2", "--y0", "0",
                "--n-list", "3", "--precision-bits", "128")
        default = inspect.signature(conj.explore_knot_family).parameters["max_denominator"].default
        code, implicit, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--max-denominator", str(default)) == (0, implicit, "")
        # a bound below 3 rules out both candidates, 16/3 and -16/3
        code, out, _ = run(capsys, *argv, "--max-denominator", "2")
        assert code == 0
        assert [r["candidate"] for r in json_lines(out)] == [None, None]

    def test_explore_mode_rejects_a_repeated_n(self, capsys):
        code, out, err = run(
            capsys, "conjecture", "--family", "equispaced", "--p", "2", "--n-list", "3,3",
        )
        assert code == 2
        assert out == ""
        assert err == "error: n_list entries must be distinct, got [3, 3]\n"

    def test_explore_mode_rejects_a_second_y0(self, capsys):
        code, out, err = run(
            capsys,
            "conjecture", "--family", "chebyshev1", "--p", "2", "--n-list", "3",
            "--y0", "0", "--y0", "1/3",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_explore_mode_yields_each_n_before_the_next_is_built(self, monkeypatch):
        built = []
        make = conj.make_knots

        def recording(family, n, bits, **params):
            built.append(n)
            return make(family, n, bits, **params)

        monkeypatch.setattr(conj, "make_knots", recording)
        args = cli.build_parser(64).parse_args(
            ["conjecture", "--family", "chebyshev1", "--p", "2", "--n-list", "3,5"]
        )
        records = args.handler(args)
        first, _, _ = next(records)
        assert (first["n"], first["part"]) == (3, "offcenter_aggregate")
        assert set(built) == {3}
        assert [r["n"] for r, _, _ in records] == [3, 5, 5]
        assert set(built) == {3, 5}

    def test_explore_mode_calls_the_library_once_per_n(self, capsys, monkeypatch):
        # bench/tracing.py times each call as one explore span and reads the
        # precision from positional argument 5
        calls = []
        explore = conj.explore_knot_family

        def recording(*args, **kwargs):
            calls.append(args)
            return explore(*args, **kwargs)

        monkeypatch.setattr(conj, "explore_knot_family", recording)
        code, out, _ = run(
            capsys,
            "conjecture", "--family", "chebyshev1", "--p", "2", "--n-list", "3,5,7",
            "--precision-bits", "64",
        )
        assert code == 0 and len(json_lines(out)) == 6
        assert [a[4] for a in calls] == [3, 5, 7]
        assert [a[5] for a in calls] == [64, 64, 64]


class TestRecordContract:
    """Whole text lines of every record kind, and the exit status the record
    stream sets: 0 when every record passed, 1 when any failed, 3 when a
    numeric failure cut the stream short."""

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (
                "knots --family chebyshev1 --n 3 --precision-bits 64",
                ["chebyshev1 n=3: -0.866025403784438646787 0.0 0.866025403784438646787"],
            ),
            (
                "verify-eq1 --n 2 --p-max 2 --y0 0 --y0 1/3 --precision-bits 64",
                [
                    "ok   chebyshev1 n=2 p=1 y0=0: |residual| 0.0 vs tolerance 6.32202727663410476852e-8",
                    "ok   chebyshev1 n=2 p=1 y0=1/3: |residual| 2.00658708394565390142e-44 "
                    "vs tolerance 5.9604644775390625e-8",
                    "ok   chebyshev1 n=2 p=2 y0=0: |residual| 6.01976125233778384183e-44 "
                    "vs tolerance 5.9604644775390625e-8",
                    "ok   chebyshev1 n=2 p=2 y0=1/3: |residual| 6.01976124816158898231e-44 "
                    "vs tolerance 8.42936970217880635846e-8",
                ],
            ),
            (
                "verify-identity --n-max 7",
                ["ok   n=3: 8/3 vs 8/3", "ok   n=5: 8/1 vs 8/1", "ok   n=7: 16/1 vs 16/1"],
            ),
            (
                "power-sum --m 2 --n-max 7",
                ["PS(2,3) = 16/9", "PS(2,5) = 48/5", "PS(2,7) = 32/1"],
            ),
            (
                "conjecture --m 1 --train 3,5,7 --holdout 9,11",
                ["confirmed m=1: RatPoly('1/6x^2 - 1/6')"],
            ),
            (
                "conjecture --family chebyshev1 --p 2 --n-list 3,5 --precision-bits 64",
                [
                    "n=3 offcenter_aggregate: 5.33333333333333333304 ~ 16/3",
                    "n=3 nearest_knot_term: -5.33333333333333333304 ~ -16/3",
                    "n=5 offcenter_aggregate: 15.9999999999999999991 ~ 16/1",
                    "n=5 nearest_knot_term: -15.9999999999999999991 ~ -16/1",
                ],
            ),
        ],
        ids=["knots", "verify-eq1", "verify-identity", "power-sum", "formula", "explore"],
    )
    def test_text_lines(self, capsys, argv, lines):
        code, out, err = run(capsys, *argv.split(), "--output", "text")
        assert (code, err) == (0, "")
        assert out.splitlines() == lines

    def test_one_failed_identity_exits_one_after_every_record(self, capsys, monkeypatch):
        verify = cli.verify_cosecant_sum

        def fails_at_five(n):
            report = verify(n)
            return dataclasses.replace(report, holds=False) if n == 5 else report

        monkeypatch.setattr(cli, "verify_cosecant_sum", fails_at_five)
        code, out, _ = run(capsys, "verify-identity", "--n-max", "9")
        assert code == 1
        assert [(r["n"], r["holds"]) for r in json_lines(out)] == [
            (3, True), (5, False), (7, True), (9, True),
        ]
        code, out, _ = run(capsys, "verify-identity", "--n-max", "9", "--output", "text")
        assert code == 1
        assert out.splitlines()[1] == "FAIL n=5: 8/1 vs 8/1"

    def test_refuted_fit_exits_one_with_its_record(self, capsys, monkeypatch):
        fit = conj.conjecture_power_formula
        monkeypatch.setattr(
            conj,
            "conjecture_power_formula",
            lambda m, train, holdout: dataclasses.replace(fit(m, train, holdout), confirmed=False),
        )
        code, out, _ = run(capsys, "conjecture", "--m", "1", "--train", "3,5,7", "--holdout", "9,11")
        assert code == 1
        (row,) = json_lines(out)
        assert row["confirmed"] is False and row["formula"] == ["-1/6", "0/1", "1/6"]
        code, out, _ = run(
            capsys, "conjecture", "--m", "1", "--train", "3,5,7", "--holdout", "9,11",
            "--output", "text",
        )
        assert code == 1
        assert out == "REFUTED m=1: RatPoly('1/6x^2 - 1/6')\n"

    def test_numeric_failure_mid_sweep_keeps_the_records_before_it(self, capsys, monkeypatch):
        make = cli.make_knots

        def too_close_at_four(family, n, bits, **params):
            if n == 4:
                raise KnotSpacingError("knots too close at n = 4")
            return make(family, n, bits, **params)

        monkeypatch.setattr(cli, "make_knots", too_close_at_four)
        code, out, err = run(capsys, "verify-eq1", "--n-max", "5")
        assert code == 3
        assert [(r["n"], r["p"]) for r in json_lines(out)] == [(2, 1), (2, 2), (3, 1), (3, 2)]
        assert err == "error: knots too close at n = 4\n"

    def test_numeric_failure_mid_explore_keeps_the_records_before_it(self, capsys, monkeypatch):
        make = conj.make_knots

        def too_close_at_seven(family, n, bits, **params):
            if n == 7:
                raise KnotSpacingError("knots too close at n = 7")
            return make(family, n, bits, **params)

        monkeypatch.setattr(conj, "make_knots", too_close_at_seven)
        code, out, err = run(
            capsys,
            "conjecture", "--family", "chebyshev1", "--p", "2", "--n-list", "3,5,7",
            "--precision-bits", "64",
        )
        assert code == 3
        assert [(r["n"], r["part"]) for r in json_lines(out)] == [
            (3, "offcenter_aggregate"), (3, "nearest_knot_term"),
            (5, "offcenter_aggregate"), (5, "nearest_knot_term"),
        ]
        assert err == "error: knots too close at n = 7\n"

    def test_a_value_rejected_at_a_later_n_keeps_the_records_before_it(self, capsys):
        # the library checks each n as it comes to it; n = 1 has no equispaced set
        code, out, err = run(
            capsys, "conjecture", "--family", "equispaced", "--p", "2", "--n-list", "3,1",
        )
        assert code == 2
        assert [(r["n"], r["part"]) for r in json_lines(out)] == [
            (3, "offcenter_aggregate"), (3, "nearest_knot_term"),
        ]
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "conjecture --family equispaced --p 2 --n-list 3,,5",
        "conjecture --family equispaced --p 2 --n-list ,3",
        "conjecture --m 1 --train 3,5,7, --holdout 9,11",
        "conjecture --m 1 --train 3,5,7 --holdout 9,11,",
    ],
)
def test_empty_integer_list_entry_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert "not a comma-separated integer list" in err


@pytest.mark.parametrize(
    "name, argv",
    [
        ("make_knots", "knots --family chebyshev1 --n 3"),
        ("hermite_fejer_basis", "verify-eq1 --family chebyshev2 --n 3 --p-max 1"),
        ("verify_cosecant_sum", "verify-identity --n 3"),
        ("inverse_power_sum", "power-sum --n 3"),
    ],
)
def test_handlers_look_up_the_library_as_module_globals(capsys, monkeypatch, name, argv):
    # the bench tracer rebinds these names on the cli module; a handler that
    # held its own reference would hide that layer's time from it
    calls = []
    original = getattr(cli, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    code, out, _ = run(capsys, *argv.split(), "--precision-bits", "64")
    assert code == 0 and out
    assert len(calls) >= 1


class TestForeignOptions:
    """An option of the other conjecture mode, or a knot parameter of another
    family, is a usage error: exit 2, no stdout, one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            "conjecture --m 1 --train 3,5,7 --holdout 9,11 --p 2 --y0 1/3 --n-list 3",
            "conjecture --family chebyshev1 --p 2 --n-list 3 --m 4 --train 3",
            "verify-eq1 --family chebyshev1 --n 3 --alpha 5",
            "verify-eq1 --family gauss_jacobi --n 3 --a 0",
            "knots --family chebyshev2 --n 3 --b 2",
        ],
        ids=["formula-with-explore", "explore-with-formula", "alpha", "a", "b"],
    )
    def test_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_defaults_apply_only_to_their_family(self, capsys):
        code, out, _ = run(capsys, "knots", "--family", "equispaced", "--n", "3", "--b", "3")
        assert code == 0
        assert json_lines(out)[0]["points"][:1] == ["-1.0"]


def test_closed_stdout_pipe_exits_141_without_traceback():
    # the output (about 130 kB) outgrows a 64 kB pipe buffer, so the writer
    # meets the closed pipe whatever the scheduling
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-m", "fejerlab.cli", "verify-eq1", "--n-max", "100",
            "--p-max", "8", "--precision-bits", "64"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert json.loads(proc.stdout.readline())["n"] == 2
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 141
    assert err == ""  # no traceback and no "Exception ignored" line


class TestConfig:
    def test_determinism_byte_identical(self, capsys):
        args = ("verify-eq1", "--family", "chebyshev2", "--n", "4", "--p-max", "3",
                "--y0=-7/10", "--precision-bits", "128")
        code, first, _ = run(capsys, *args)
        assert code == 0 and first
        code, second, _ = run(capsys, *args)
        assert code == 0
        assert first == second

    def test_env_var_sets_default_precision(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.PRECISION_ENV_VAR, "128")
        code, out, _ = run(capsys, "knots", "--family", "chebyshev1", "--n", "2")
        assert code == 0
        assert json_lines(out)[0]["precision_bits"] == 128

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.PRECISION_ENV_VAR, "128")
        code, out, _ = run(
            capsys, "knots", "--family", "chebyshev1", "--n", "2", "--precision-bits", "192"
        )
        assert json_lines(out)[0]["precision_bits"] == 192

    @pytest.mark.parametrize("raw", ["abc", ""])
    def test_malformed_env_var_is_read_only_without_the_flag(self, capsys, monkeypatch, raw):
        monkeypatch.setenv(cli.PRECISION_ENV_VAR, raw)
        assert run(capsys, "--help")[0] == 0
        code, out, _ = run(capsys, "verify-identity", "--n", "3", "--precision-bits", "256")
        assert code == 0 and json_lines(out)[0]["holds"] is True
        code, out, err = run(capsys, "verify-identity", "--n", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_precision_floor(self, capsys):
        code, _, err = run(
            capsys, "knots", "--family", "chebyshev1", "--n", "2", "--precision-bits", "32"
        )
        assert code == 2 and "precision" in err

    def test_precision_floor_names_its_source(self, capsys, monkeypatch):
        # the flag is named when it was given, the variable and its value otherwise
        monkeypatch.setenv(cli.PRECISION_ENV_VAR, "32")
        code, out, err = run(capsys, "verify-identity", "--n", "3")
        assert code == 2 and out == ""
        assert err == f"error: {cli.PRECISION_ENV_VAR} must be >= 64, got '32'\n"
        code, out, err = run(capsys, "verify-identity", "--n", "3", "--precision-bits", "48")
        assert code == 2 and out == ""
        assert err == "error: --precision-bits must be >= 64\n"
        code, out, _ = run(capsys, "verify-identity", "--n", "3", "--precision-bits", "64")
        assert code == 0 and json_lines(out)[0]["holds"] is True

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_text_output_mode(self, capsys):
        code, out, _ = run(
            capsys, "verify-identity", "--n", "5", "--output", "text"
        )
        assert code == 0
        assert "ok" in out and "8/1" in out

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0

    def test_parser_is_built_once_per_default_precision(self, capsys, monkeypatch):
        assert cli.build_parser(256) is cli.build_parser(256)
        assert cli.build_parser(128) is not cli.build_parser(256)
        first = run(capsys, "verify-eq1", "--help")
        monkeypatch.setenv(cli.PRECISION_ENV_VAR, "128")
        run(capsys, "knots", "--family", "chebyshev1", "--n", "2")
        monkeypatch.delenv(cli.PRECISION_ENV_VAR)
        assert run(capsys, "verify-eq1", "--help") == first


#: Every subcommand's option strings in declaration order, which fixes the
#: layout of its --help whatever argparse's formatting does.
PARSER_OPTIONS = {
    "knots": ["-h", "--help", "--family", "--n", "--alpha", "--beta", "--a", "--b", "--precision-bits", "--output"],
    "verify-eq1": [
        "-h", "--help", "--family", "--n", "--n-max", "--p-max", "--y0",
        "--alpha", "--beta", "--a", "--b", "--precision-bits", "--output",
    ],
    "verify-identity": ["-h", "--help", "--n", "--n-max", "--precision-bits", "--output"],
    "power-sum": ["-h", "--help", "--m", "--n", "--n-max", "--precision-bits", "--output"],
    "conjecture": [
        "-h", "--help", "--m", "--train", "--holdout", "--family", "--p", "--y0", "--n-list",
        "--alpha", "--beta", "--a", "--b", "--max-denominator", "--precision-bits", "--output",
    ],
}


def test_parser_declares_subcommands_and_options_in_order():
    parser = cli.build_parser(None)
    assert [o for action in parser._actions for o in action.option_strings] == ["-h", "--help"]
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(PARSER_OPTIONS)
    for name, options in PARSER_OPTIONS.items():
        assert [o for action in sub.choices[name]._actions for o in action.option_strings] == options


GOLDEN = Path(__file__).parent / "golden"


#: One line per golden file: its name, then the fejerlab argv that writes
#: it.  The CI workflow diffs the console script against the same list.
GOLDEN_COMMANDS = [
    tuple(line.split(maxsplit=1)) for line in (GOLDEN / "commands.txt").read_text().splitlines()
]


def test_every_golden_file_has_one_command():
    names = [name for name, _ in GOLDEN_COMMANDS]
    assert sorted(names) == sorted(path.stem for path in GOLDEN.glob("*.jsonl"))


@pytest.mark.parametrize("name, argv", GOLDEN_COMMANDS)
def test_stdout_matches_golden_file(name, argv, capsys, monkeypatch):
    # the files pin the knot solve, the basis, explore's 512-bit rebuild and
    # the exact layer's rationals to the bits they had when they were written
    monkeypatch.delenv(cli.PRECISION_ENV_VAR, raising=False)
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert out == (GOLDEN / f"{name}.jsonl").read_text()


#: sha256 of each verify-eq1 golden file with the residual dropped from every
#: record.  A residual is the rounding error of an exact zero sum, so it moves
#: whenever the working precision does; every other field (tolerance, pass,
#: the knots and y0) must not.
GOLDEN_WITHOUT_RESIDUALS = {
    "verify_eq1_gauss_jacobi": "b4c4937f6518de53b22f09a19b77e4e431466dd0b98f1bb91109ad011e72550b",
    "verify_eq1_equispaced_512": "ce3184748440addbac198941022318788b49e0505f2f3cb55fa2e3025fd4b196",
    "verify_eq1_chebyshev2_n47_512": "03fbffae751db6f16ec83dfab1ef95272c701b9c8bb1e84b6765d078030a3df9",
    "verify_eq1_chebyshev1_n7": "85a80c8ccb7e9af18855c837db75077e2e00292dabf6ab2bde443493963f393b",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WITHOUT_RESIDUALS))
def test_golden_fields_other_than_residual_are_unchanged(name):
    digest = hashlib.sha256()
    for line in (GOLDEN / f"{name}.jsonl").read_text().splitlines():
        record = json.loads(line)
        del record["residual"]
        digest.update((json.dumps(record) + "\n").encode())
    assert digest.hexdigest() == GOLDEN_WITHOUT_RESIDUALS[name]


#: The explore golden argvs and a grid over four families, p = 1..4,
#: y0 in {0, 3/10} and 64 and 256 bits.
EXPLORE_ARGVS = [argv for _, argv in GOLDEN_COMMANDS if argv.startswith("conjecture --family")] + [
    f"conjecture --family {family} --p {p} --y0 {y0} --n-list 2,3,5,9 --precision-bits {bits}"
    for family in ("chebyshev1", "chebyshev2", "equispaced", "gauss_jacobi --alpha 1/3 --beta 1/5")
    for p in range(1, 5)
    for y0 in ("0", "3/10")
    for bits in (64, 256)
]

#: sha256 of every explore record over EXPLORE_ARGVS with the off-center
#: aggregate's value dropped.  That value moved by a few ulps, and to exactly
#: 0 where the off-center sum vanishes, when it came to be read off the row's
#: exact sum instead of n - 1 re-added rounded terms; the digest was taken
#: before that, so it pins every other field (the candidates, their
#: confirmation and the nearest term) to the bits they had.
EXPLORE_WITHOUT_AGGREGATE_VALUES = "b12afb30b2afb0be94ed46b11a38f3b8c7bfbad4eb675f4753ec20e71888c6ce"


def test_explore_fields_other_than_the_aggregate_value_are_unchanged(capsys, monkeypatch):
    monkeypatch.delenv(cli.PRECISION_ENV_VAR, raising=False)
    digest = hashlib.sha256()
    for argv in EXPLORE_ARGVS:
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, ""), argv
        for record in json_lines(out):
            if record["part"] == "offcenter_aggregate":
                del record["value"]
            digest.update((json.dumps(record) + "\n").encode())
    assert digest.hexdigest() == EXPLORE_WITHOUT_AGGREGATE_VALUES


#: Argvs that end in the parser: every --help, the empty argv, an unknown
#: subcommand, an option before the subcommand, an unknown option, stray
#: positionals, a bad value, and missing values and required options.
PARSER_EXITS = [
    [],
    ["-h"],
    ["--help"],
    ["nosuch"],
    ["--precision-bits", "64", "knots"],
    *([name, "--help"] for name in PARSER_OPTIONS),
    ["verify-identity", "--h"],
    ["power-sum", "--bogus"],
    ["knots", "--family", "chebyshev1", "--n", "3", "extra"],
    ["verify-identity", "--n", "3", "--", "x"],
    ["knots", "--family", "chebyshev1", "--n", "3", "-hx"],
    ["verify-identity", "--n", "x"],
    ["power-sum", "--n"],
    ["knots", "--n", "3"],
    ["knots"],
]

#: Argvs that parse, each with a namespace to compare: the golden ones, an
#: abbreviated option, and both spellings of a value.
PARSED = [argv.split() for _, argv in GOLDEN_COMMANDS] + [
    ["power-sum", "--prec", "64", "--n", "3"],
    ["power-sum", "--m", "2", "--n", "5"],
    ["power-sum", "--m=2", "--n=5"],
    ["verify-eq1", "--n=3", "--y0=-1/2", "--y0", "1/3", "--p-max", "2", "--precision-bits=64"],
]


def _full_parse(argv):
    """The top-level parser's whole pass, which picks the subcommand and
    then runs the subcommand's parser on the rest."""
    return cli.build_parser(None).parse_args(argv)


class TestOneParse:
    """main parses a request once, with its subcommand's own parser; the
    namespace, stdout, stderr and exit status must be the top-level pass's."""

    @pytest.fixture(autouse=True)
    def pinned(self, monkeypatch):
        # argparse wraps --help and usage lines at $COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv(cli.PRECISION_ENV_VAR, raising=False)

    @pytest.mark.parametrize("argv", PARSED + PARSER_EXITS, ids=" ".join)
    def test_same_output_as_the_full_parse(self, capsys, monkeypatch, argv):
        once = run(capsys, *argv)
        monkeypatch.setattr(cli, "_parse", _full_parse)
        assert run(capsys, *argv) == once

    @pytest.mark.parametrize("argv", PARSED, ids=" ".join)
    def test_same_namespace_as_the_full_parse(self, argv):
        args = cli._parse(argv)
        assert args.subcommand == argv[0]
        assert vars(args) == vars(_full_parse(argv))

    @pytest.mark.parametrize(
        "argv, leftover",
        [(["power-sum", "--bogus"], "--bogus"), (["knots", "--family", "chebyshev1", "--n", "3", "extra"], "extra")],
    )
    def test_leftover_arguments_are_the_top_level_error(self, capsys, argv, leftover):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: fejerlab [-h]")
        assert err.endswith(f"\nfejerlab: error: unrecognized arguments: {leftover}\n")

    @pytest.mark.parametrize("argv", [["power-sum", "--m", "2", "--n", "5"], ["power-sum", "--bogus"], []], ids=" ".join)
    def test_main_reads_sys_argv(self, capsys, monkeypatch, argv):
        expected = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["fejerlab", *argv])
        code = cli.main()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
