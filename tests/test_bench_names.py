"""The names the benchmark harness reads from fejerlab.

bench/tracing.py patches functions where their callers look them up, and
bench/run.py builds the parser with a default precision.  Deleting or
renaming one of those names breaks the benchmark, so it fails here too.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

import fejerlab
import fejerlab.cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners():
    """Every fejerlab module, and every class defined in one."""
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "fejerlab"]
    classes = {
        id(v): v
        for m in modules
        for v in vars(m).values()
        if isinstance(v, type) and v.__module__.split(".")[0] == "fejerlab"
    }
    return modules + list(classes.values())


def test_tracer_installs_and_restores_every_patched_name():
    owners = _owners()
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(fejerlab)
        assert any(
            vars(owner)[name] is not value for owner, names in zip(owners, before) for name, value in names.items()
        )
    finally:
        tracer.uninstall()
    for owner, names in zip(owners, before):
        after = vars(owner)
        assert after.keys() == names.keys(), owner
        assert all(after[name] is value for name, value in names.items()), owner


def test_parser_takes_a_default_precision():
    args = fejerlab.cli.build_parser(256).parse_args(["verify-identity", "--n", "3"])
    assert args.subcommand == "verify-identity" and args.n == 3


def test_explore_takes_the_precision_sixth():
    # the tracer reads explore_knot_family's precision_bits as positional argument 5
    params = list(inspect.signature(fejerlab.conjecture.explore_knot_family).parameters)
    assert params[5] == "precision_bits"
