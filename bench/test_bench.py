"""Self-test of the benchmark harness: python3 -m pytest -q bench/test_bench.py

Runs every workload at a tiny size, with and without tracing, and checks the
harness itself: metric names, the failure count, the checker and the seeding.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_and_no_failure(workload):
    for trace, spec_key in ((False, "end_to_end"), (True, "per_layer")):
        outcome = run.run_workload(workload, seed=7, seconds=0.5, trace=trace, tiny=True)
        result = outcome["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert outcome["report"]["failed_ratio"] == 0, outcome["report"]["failures"]
        assert result["correct"] and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected


def test_flipped_holds_is_counted_as_failed():
    fejerlab = run.load_program()
    req = workloads.Request("verify-identity", ("verify-identity", "--n=7"), 7)
    code, out = run.execute(fejerlab, req)
    assert checks.check(req.kind, req.argv, code, out).ok
    corrupted = out.replace('"holds": true', '"holds": false')
    assert corrupted != out

    def main(argv):
        print(corrupted, end="")
        return 0

    loop = run.Loop()
    loop.run(SimpleNamespace(cli=SimpleNamespace(main=main)), [[req]])
    assert len(loop.requests) == 1 and len(loop.failures) == 1


def test_wrong_exit_code_and_wrong_value_are_failures():
    ok = '{"n": 5, "m": 1, "value": "4/1"}\n'
    argv = ("power-sum", "--m=1", "--n=5")
    assert checks.check("power-sum", argv, 0, ok).ok
    assert not checks.check("power-sum", argv, 1, ok).ok
    assert not checks.check("power-sum", argv, 0, ok.replace("4/1", "5/1")).ok
    assert not checks.check("balance", ("5",), 0, (Fraction(16), Fraction(-15))).ok


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_one_request_list(workload):
    first = workloads.make_requests(workload, 11, 300)
    assert first == workloads.make_requests(workload, 11, 300)
    assert first != workloads.make_requests(workload, 12, 300)


def test_speed_correction_scales_by_the_local_probe_time():
    probe = run.SpeedProbe()
    nominal = run.PROBE_NOMINAL_S
    # Probes every 10 ms; the host runs at half speed from t = 1 on.
    for k in range(300):
        probe.starts.append(0.01 * k + 0.005)
        probe.durations.append(nominal if k < 100 else 2 * nominal)

    def inside(start, seconds):
        return sum(d for t, d in zip(probe.starts, probe.durations) if start <= t <= start + seconds)

    # At full speed only the probes inside a request are taken off.
    assert probe.corrected(0.1, 0.1) == pytest.approx(0.1 - inside(0.1, 0.1))
    # At half speed what is left is halved.
    assert probe.corrected(1.5, 0.2) == pytest.approx((0.2 - inside(1.5, 0.2)) / 2)


def test_power_sum_closed_forms_match_the_direct_sum():
    for m in (1, 2, 3):
        for n in (3, 9, 31):
            assert checks._power_sum_close(m, n, checks.power_sum(m, n))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "eq1_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
