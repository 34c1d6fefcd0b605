"""The benchmark's traced run wraps program functions by module attribute
(perfbench/tracing.py).  Renaming or deleting one of them breaks that run,
so the contract is checked here, in the main suite."""

import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# names the tracer looks up in the program and must find
CONTRACT = {
    ("stokolmo.measures", "simulate_path"),
    ("stokolmo.verify", "simulate_path"),
    ("stokolmo.verify", "simulate_ensemble"),
    ("stokolmo.measures", "solve_maximin"),
    ("stokolmo.classify", "solve_maximin"),
    ("stokolmo.measures", "restrict_to_face"),
    ("stokolmo.measures", "stationary_density_1d"),
    ("stokolmo.model", "compile_expression"),
    ("stokolmo.classify", "run_assumption_checks"),
    ("stokolmo.classify", "discover_boundary"),
}


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapped_name(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = list(tracer._undo)
        for owner, attr, orig in wrapped:
            assert getattr(owner, attr).__wrapped__ is orig, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, orig in wrapped:
        assert getattr(owner, attr) is orig, (owner, attr)
        assert not hasattr(orig, "__wrapped__"), (owner, attr)
    names = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in wrapped}
    assert CONTRACT <= names
