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


def test_traced_classify_and_verify_read_their_results(tracing, tmp_path):
    # the tracer's hooks read attributes of the discovery, ensemble and
    # path results; a traced run fails if one of them is gone
    from stokolmo import cli
    from tests.conftest import model_path

    tracer = tracing.Tracer()
    tracer.install()
    try:
        model = model_path("lv_coexist")
        assert cli.main(["classify", model, "--out", str(tmp_path / "c.json")]) == 0
        # two time units are too short for the verification to pass; it
        # still runs its ensemble and writes its report
        assert cli.main(["verify", model, "--t", "2", "--paths", "4",
                         "--out", str(tmp_path / "v.json")]) in (0, 1)
    finally:
        tracer.uninstall()
    assert (tmp_path / "v.json").exists()
    metrics = tracer.metrics(1)
    assert metrics["measures.faces"]["value"] > 0
    assert metrics["measures.lv_measures"]["value"] > 0
    assert metrics["engine.ensemble_path_steps"]["value"] > 0
