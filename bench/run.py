"""fejerlab benchmark: one seeded closed loop of in-process CLI requests.

    python3 bench/run.py --workload eq1_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn

One client sends one request at a time (a closed loop, single process, single
thread).  A request is a fejerlab CLI argv run through ``fejerlab.cli.main``
with stdout captured, or a ``second_derivative_balance(n)`` call.  Module
caches persist across requests, as they do within one CLI sweep.  Every
output is checked after its request's timer stops.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the requests run with spans around each layer's public functions
and the last line carries the per-layer metrics, including the tracing
overhead, for which the same requests are replayed untraced in a fresh
process.

The untraced run's request times are corrected for the speed of the host,
which on a shared machine swings by up to twofold from second to second: a
timer signal runs a tiny fixed kernel every PROBE_PERIOD_S, and each request's
time is scaled by the kernel's speed around it (see ``SpeedProbe``).

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import mpmath
import mpmath.libmp
from mpmath.libmp import from_int, fzero, mpf_add, mpf_div, mpf_mul

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import fejerlab, fejerlab.cli; fejerlab.cli.build_parser(256)"
)


PROBE_PERIOD_S = 0.01
#: The probe kernel's time at which a corrected time equals the measured one:
#: about its median while requests run on the 2-vCPU host the benchmark was
#: written on (Python 3.11, mpmath's python backend).
PROBE_NOMINAL_S = 280e-6


_PROBE_INT = 3**2500


def probe_kernel():
    """A fixed sliver of the program's kind of work, from mpmath and the
    standard library only: 256/512-bit raw mpf arithmetic, a Fraction sum
    and products of 4000-bit integers, as in the exact layer's big rationals."""
    acc = fzero
    for k in range(1, 30):
        t = mpf_div(from_int(1), from_int(k), 256, "n")
        acc = mpf_add(acc, mpf_mul(t, t, 512, "n"), 256, "n")
    s = Fraction(0)
    for k in range(1, 10):
        s += Fraction(1, k * k)
    x = _PROBE_INT
    for _ in range(3):
        x = x * x >> 3900
    return acc, s, x


class SpeedProbe:
    """Samples the machine's speed while the closed loop runs.

    Every PROBE_PERIOD_S a SIGALRM handler runs probe_kernel() in the main
    thread, between two bytecodes of whatever is running, and records when it
    started and how long it took.  A request's corrected time is its measured
    time minus the probes inside it, scaled by the mean of PROBE_NOMINAL_S / d
    over the probe times d around it (those inside it and two on either
    side).  The probes are evenly spaced in wall time, so that mean is the
    host's average speed over the request even when the host flips between a
    fast and a slow state within it, which the median would miss.  The
    neighbours of a busy host slow the probe and the request alike, so the
    correction keeps what the program costs and drops most of what the host
    adds.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        probe_kernel()
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, start: float, seconds: float) -> float:
        """The corrected time of a request that ran from start for seconds."""
        a = bisect_left(self.starts, start)
        b = bisect_right(self.starts, start + seconds)
        around = self.durations[max(a - 2, 0):b + 2]
        if not around:  # the probe never fired: a run shorter than its period
            return seconds
        speed = sum(PROBE_NOMINAL_S / d for d in around) / len(around)
        return (seconds - sum(self.durations[a:b])) * speed


class MissingProgram(RuntimeError):
    pass


def load_program():
    """Import fejerlab from this checkout's src/, and nowhere else."""
    if not (SRC / "fejerlab" / "__init__.py").is_file():
        raise MissingProgram(f"no fejerlab package under {SRC}")
    # The precision default must come from the argv alone.
    os.environ.pop("FEJERLAB_PRECISION_BITS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fejerlab
    import fejerlab.cli

    if Path(fejerlab.__file__).resolve().parent != SRC / "fejerlab":
        raise MissingProgram(f"fejerlab imported from {fejerlab.__file__}, not {SRC}")
    return fejerlab


def setup_probe() -> float:
    """Wall seconds from a fresh interpreter to fejerlab imported and the CLI
    parser built."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
    return perf_counter() - t0


def probing_setup(cycles, setup: list[float]):
    """The cycles, with a set-up probe before each one.

    The host's fast and slow spells can last seconds, so probes taken back
    to back tend to land in one of them; one per cycle spreads them over the run.
    The first probe, which writes the bytecode caches, is not kept.
    """
    setup_probe()
    for cycle in cycles:
        setup.append(setup_probe())
        yield cycle


def execute(fejerlab, req: workloads.Request):
    """Run one request; returns (exit code, output)."""
    if req.kind == "balance":
        return 0, fejerlab.identities.second_derivative_balance(int(req.argv[0]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fejerlab.cli.main(list(req.argv))
    return code, out.getvalue()


class Loop:
    """Closed-loop results: one latency and one verdict per request."""

    def __init__(self):
        self.requests: list[workloads.Request] = []
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.records = 0
        self.failures: list[str] = []
        self.margins: list[float] = []
        self.stdout_bytes = 0

    def run(self, fejerlab, cycles, seconds=None, count=None, tracer=None) -> None:
        """Run whole cycles until seconds have passed, or exactly count requests."""
        start = perf_counter()
        for cycle in cycles:
            if seconds is not None and perf_counter() - start >= seconds:
                break
            for req in cycle:
                if count is not None and len(self.requests) >= count:
                    return
                self._one(fejerlab, req, tracer)

    def _one(self, fejerlab, req, tracer) -> None:
        if tracer is not None:
            tracer.request = len(self.requests)
        t0 = perf_counter()
        self.starts.append(t0)
        try:
            code, output = execute(fejerlab, req)
        except Exception as exc:  # an errored request is a failure, not a crash
            self.latencies.append(perf_counter() - t0)
            self.requests.append(req)
            self.failures.append(f"{' '.join(req.argv)}: raised {type(exc).__name__}: {exc}")
            return
        self.latencies.append(perf_counter() - t0)
        self.requests.append(req)
        if isinstance(output, str):
            self.stdout_bytes += len(output.encode())
        verdict = checks.check(req.kind, req.argv, code, output)
        self.records += verdict.records
        self.margins.extend(verdict.margins)
        if not verdict.ok:
            self.failures.append(f"{' '.join(req.argv)}: {verdict.reason}")

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def input_properties(requests: list[workloads.Request]) -> dict:
    """What a cache claim needs to cite: sizes, first-seen keys, repeated n."""
    hist: dict[str, int] = {}
    for req in requests:
        lo = 1 << (req.n.bit_length() - 1)
        label = f"{lo}-{2 * lo - 1}"
        hist[label] = hist.get(label, 0) + 1
    keyed = [req.key for req in requests if req.key is not None]
    seen_n: set[int] = set()
    repeats = 0
    for req in requests:
        repeats += req.n in seen_n
        seen_n.add(req.n)
    return {
        "n_histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0].split("-")[0]))),
        "keyed_requests": len(keyed),
        "first_seen_key_share": len(set(keyed)) / len(keyed) if keyed else None,
        "repeat_n_share": repeats / len(requests) if requests else None,
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _decile(values: list[float], k: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def latency_figures(latencies: list[float], records: int) -> dict[str, float]:
    return {
        "latency_p50_ms": 1000 * _decile(latencies, 5),
        "latency_p90_ms": 1000 * _decile(latencies, 9),
        "checks_per_s": records / sum(latencies),
    }


def end_to_end(loop: Loop, probe: SpeedProbe, setup: list[float]) -> dict[str, tuple[float, str]]:
    attempted = len(loop.requests)
    corrected = [probe.corrected(t0, dt) for t0, dt in zip(loop.starts, loop.latencies)]
    figures = latency_figures(corrected, loop.records)
    return {
        "latency_p50_ms": (figures["latency_p50_ms"], "ms"),
        "latency_p90_ms": (figures["latency_p90_ms"], "ms"),
        "checks_per_s": (figures["checks_per_s"], "1/s"),
        "pass_ratio": (1 - len(loop.failures) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "min_margin_bits": (min(loop.margins, default=checks.NO_RESIDUAL_MARGIN_BITS), "bits"),
        "setup_s": (statistics.median(setup), "s"),
    }


def warm_up(fejerlab, workload: str, tiny: bool) -> float:
    t0 = perf_counter()
    warm = Loop()
    warm.run(fejerlab, [workloads.warmup_requests(workload, tiny)])
    if warm.failures:
        raise RuntimeError(f"warm-up failed: {warm.failures[0]}")
    return perf_counter() - t0


def replay_busy(workload: str, seed: int, count: int, tiny: bool) -> float:
    """Busy seconds of the first count requests, untraced, in a fresh process."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--replay", str(count)]
    proc = subprocess.run(
        argv + ["--tiny"] * tiny,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["busy_s"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, warm up, run the closed loop and return the result object."""
    fejerlab = load_program()
    setup: list[float] = []
    warmup_s = warm_up(fejerlab, workload, tiny)
    stream = workloads.iter_cycles(workload, seed, tiny)
    loop = Loop()
    tracer = probe = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(fejerlab)
        try:
            loop.run(fejerlab, stream, seconds=seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, loop.stdout_bytes)
        untraced = replay_busy(workload, seed, len(loop.requests), tiny)
        metrics["trace.overhead_ratio"] = (loop.busy_s / untraced, "ratio")
    else:
        with SpeedProbe() as probe:
            loop.run(fejerlab, probing_setup(stream, setup), seconds=seconds)
        metrics = end_to_end(loop, probe, setup)
    attempted = len(loop.requests)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "inputs": input_properties(loop.requests),
        "latency_samples": attempted,
        "records": loop.records,
        "busy_s": loop.busy_s,
        "warmup_s": warmup_s,
        "setup_probes_s": setup,
        "failed_ratio": len(loop.failures) / attempted,
        "failures": loop.failures[:5],
    }
    if probe is not None:
        report["measured"] = latency_figures(loop.latencies, loop.records)
        report["probe"] = {
            "samples": len(probe.durations),
            "median_s": statistics.median(probe.durations) if probe.durations else None,
        }
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
        tracer.write(spans_path)
        report["spans"] = {"count": len(tracer.spans), "path": str(spans_path.relative_to(ROOT))}
    return {
        "report": report,
        "result": {
            "correct": not loop.failures,
            "attempted": attempted,
            "failed": len(loop.failures),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
    }


def print_result(outcome: dict) -> None:
    report, result = outcome["report"], outcome["result"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"{result['attempted']} requests, {report['records']} records, "
          f"failed_ratio={report['failed_ratio']:.4g}")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:16.6g} {m['unit']}")
    print(json.dumps({"report": report}))


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: --replay K runs the first K requests untraced (trace overhead);
    # --tiny shrinks every request, for the self-test.
    parser.add_argument("--replay", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        if args.replay is not None:
            fejerlab = load_program()
            warm_up(fejerlab, args.workload, args.tiny)
            loop = Loop()
            stream = workloads.iter_cycles(args.workload, args.seed, args.tiny)
            loop.run(fejerlab, stream, count=args.replay)
            print(json.dumps({"busy_s": loop.busy_s, "attempted": len(loop.requests)}))
            return 0
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_result(outcome)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
