import contextlib
import inspect
import io
import json
import os
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import stokolmo
from stokolmo import StokolmoError
from stokolmo.cli import CLIError, main
from stokolmo.engine import EngineError
from stokolmo.simplex import SimplexError
from tests.conftest import model_path


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_check_reports_assumptions(capsys):
    code, out, err = run(capsys, "check", model_path("lv_coexist"))
    assert code == 0
    doc = json.loads(out)
    assert doc["assumptions"]["tightness"]["status"] == "pass"
    assert "tool_version" in doc


def test_check_exits_zero_even_when_tightness_fails(capsys):
    # check only reports; it is classify/verify that act on the outcome
    code, out, err = run(capsys, "check", model_path("coop_blowup"))
    assert code == 0
    assert json.loads(out)["assumptions"]["tightness"]["status"] == "fail"


def test_classify_persistent(capsys):
    code, out, err = run(capsys, "classify", model_path("lv_coexist"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Persistent"
    assert doc["certificate"]["t_star"] == pytest.approx(0.625)


def test_classify_inconclusive_exit_code(capsys):
    code, out, err = run(capsys, "classify", model_path("linear1d"))
    assert code == 1
    assert json.loads(out)["verdict"] == "Inconclusive"


def test_out_writes_file_and_silences_stdout(capsys, tmp_path):
    dest = tmp_path / "verdict.json"
    code, out, err = run(capsys, "classify", model_path("logistic"),
                         "--out", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["verdict"] == "Persistent"


def test_simulate_csv_layout(capsys):
    code, out, err = run(capsys, "simulate", model_path("predprey"),
                         "--t", "2", "--seed", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x1,x2,flags"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert [float(first[1]), float(first[2])] == [1.0, 1.0]
    assert all(len(ln.split(",")) == 4 for ln in lines[1:])


def test_simulate_flags_extinction(capsys):
    code, out, err = run(capsys, "simulate", model_path("lv_single_extinct"),
                         "--t", "120", "--dt", "0.01", "--seed", "0")
    assert code == 0
    tail = out.strip().splitlines()[-1]
    assert "x2-extinct" in tail.split(",")[-1]


def test_simulate_json_format(capsys):
    code, out, err = run(capsys, "simulate", model_path("logistic"),
                         "--t", "1", "--format", "json", "--x0", "2.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["x0"] == [2.0]
    assert len(doc["times"]) == len(doc["states"])
    assert doc["blowup_time"] is None


def test_verify_report_and_timing_channel(capsys, tmp_path):
    dest = tmp_path / "run.json"
    code, out, err = run(capsys, "verify", model_path("logistic"),
                         "--t", "120", "--paths", "32", "--out", str(dest))
    assert code == 0 and out == ""
    # timing goes to stderr so the report bytes stay reproducible
    assert json.loads(err.strip().splitlines()[-1])["timing"].keys() >= {
        "classify_s", "verify_s"}
    doc = json.loads(dest.read_text())
    assert doc["verification"]["status"] == "PASSED"
    assert "timing" not in doc
    # the assumption report is written once, inside the verdict
    assert "assumptions" not in doc
    assert doc["verdict"]["assumptions"]["tightness"]["status"] == "pass"


def test_verify_csv_sidecars(capsys, tmp_path):
    dest = tmp_path / "run.json"
    code, out, err = run(capsys, "verify", model_path("logistic"),
                         "--t", "120", "--paths", "32",
                         "--format", "csv", "--out", str(dest))
    assert code == 0
    hist = (tmp_path / "run.histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,mass_x1"
    assert hist[1].startswith("-inf,")
    exps = (tmp_path / "run.exponents.csv").read_text().splitlines()
    assert exps[0] == "path,exponent_x1"
    assert len(exps) == 1 + 32


def test_verify_csv_needs_out(capsys):
    code, out, err = run(capsys, "verify", model_path("logistic"),
                         "--t", "120", "--paths", "32", "--format", "csv")
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"] == "input"


def test_verify_inconclusive_skips_simulation(capsys):
    code, out, err = run(capsys, "verify", model_path("linear1d"),
                         "--t", "10", "--paths", "8")
    assert code == 1
    # no verification block at all: nothing was simulated
    assert "verification" not in json.loads(out)


def test_foodchain_reports(capsys):
    code, out, err = run(capsys, "foodchain", model_path("foodchain3_persist"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Persistent"
    assert doc["j_star"] == 3


def test_foodchain_inconclusive(capsys, tmp_path):
    p = tmp_path / "boundary.json"
    p.write_text(json.dumps({
        "n": 2, "a10": 0.5, "death": [1.0], "prey_gain": [2.0],
        "loss": [1.0], "intra": [1.0, 1.0], "sigma_diag": [1.0, 1.0]}))
    code, out, err = run(capsys, "foodchain", str(p))
    assert code == 1
    assert json.loads(out)["verdict"] == "Inconclusive"


@pytest.mark.parametrize("argv", [
    ("classify", "/no/such/model.json"),
    ("classify",),                                     # missing positional
    ("classify", "models/logistic.json", "--bogus"),   # unknown flag
    ("frobnicate", "models/logistic.json"),            # unknown command
    ("simulate", "models/logistic.json", "--x0", "1,2"),   # wrong arity
    ("simulate", "models/logistic.json", "--x0", "-1"),    # not positive
    ("simulate", "models/logistic.json", "--x0", "a,b"),
    ("simulate", "models/logistic.json", "--t", "-5"),     # bad config
    ("simulate", "models/logistic.json", "--t", "inf"),
    ("simulate", "models/logistic.json", "--dt", "nan"),
    ("verify", "models/logistic.json", "--dt", "nan"),
    ("simulate", "models/logistic.json", "--paths", "7"),  # simulate runs one path
    # refused before anything runs, and after the run, in place of the report
    ("verify", "models/logistic.json", "--t", "2", "--paths", "4", "--format", "csv"),
    ("verify", "models/logistic.json", "--t", "2", "--paths", "4",
     "--out", "/no/such/dir/run.json"),
    ("simulate", "models/logistic.json", "--t", "1e16"),  # steps beyond int64
])
def test_input_errors_are_json_and_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "input"
    assert diag["message"]


CHAIN = (b'{"n": 2, "a10": %s, "death": [1.0], "prey_gain": [2.0], "loss": [1.0], '
         b'"intra": [1.0, 1.0], "sigma_diag": [1.0, 1.0]}')
DECODE = "codec can't decode"
TOO_LONG = "not valid JSON: Exceeds the limit"


# a file that is not UTF-8, an integer too long for json.loads, and nesting
# too deep for it raise in the standard library, not in stokolmo; an integer
# beyond the float range overflows float()
@pytest.mark.parametrize("command,data,message", [
    ("classify", b'{"n": 1, "sigma": [[1.0]], "x": "\xe9"}', DECODE),
    ("classify", b'{"n": 1' + b"0" * 5000 + b"}", TOO_LONG),
    ("foodchain", b'{"n": 2, "x": "\xe9"}', DECODE),
    ("foodchain", b'{"n": 2' + b"0" * 5000 + b"}", TOO_LONG),
    ("check", b'{"n": 1, "lv": {"a": [1' + b"0" * 400 + b'], "B": [[-1]], "g": [1]}, '
     b'"sigma": [[1]]}', "lv.a[0]: must be finite"),
    ("foodchain", CHAIN % (b"1" + b"0" * 400), "a10: must be finite"),
    ("foodchain", CHAIN % b"1e999", "a10: must be finite"),
    ("check", b'{"n": 1, "lv": {"a": ' + b"[" * 100000 + b"]" * 100000 + b"}}",
     "not valid JSON: maximum recursion depth"),
    ("foodchain", b'{"n": 2, "a10": ' + b"[" * 100000 + b"]" * 100000 + b"}",
     "not valid JSON: maximum recursion depth"),
], ids=["model-latin1", "model-long-int", "chain-latin1", "chain-long-int",
        "model-int-beyond-float", "chain-int-beyond-float", "chain-a10-overflow",
        "model-nested-too-deep", "chain-nested-too-deep"])
def test_unreadable_documents_are_json_and_exit_2(capsys, tmp_path, command, data,
                                                  message):
    p = tmp_path / "doc.json"
    p.write_bytes(data)
    code, out, err = run(capsys, command, str(p))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "input"
    assert message in diag["message"]


def test_unstorable_trajectory_is_json_and_exit_2(capsys):
    # 10^16 states of 8 bytes: more than any address space, so the
    # allocation fails at once without touching memory
    code, out, err = run(capsys, "simulate", "models/logistic.json", "--t", "1e13")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "EngineError"
    assert diag["message"].startswith("cannot store 1 paths of")


def test_unstorable_path_count_is_json_and_exit_2(capsys):
    # 10^12 paths of 8-byte outputs: the first allocation fails at once,
    # before any block of paths is made
    code, out, err = run(capsys, "verify", model_path("logistic"), "--t", "1",
                         "--paths", "1000000000000")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "EngineError", "message": "cannot store 1000000000000 paths of 1 species"}


# a drift or a noise amplitude that overflows to nan at the sampled points
OVERFLOW = "x1*1e308*10 - x1*1e308*10"


@pytest.mark.parametrize("command", ["check", "classify"])
@pytest.mark.parametrize("f,g,message", [
    (OVERFLOW + " + 1 - x1", "1", "tightness: drift or noise is not finite at the "
     "sample point [10.0]"),
    ("1 - x1", "1 + " + OVERFLOW, "nondegenerate-noise: drift or noise is not finite "
     "at the sample point [0.9090909090909091]"),
], ids=["drift", "noise"])
def test_non_finite_samples_are_json_and_exit_2(capsys, tmp_path, command, f, g, message):
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps({"n": 1, "general": {"f": [f], "g": [g]}, "sigma": [[1]]}))
    code, out, err = run(capsys, command, str(p))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ModelError", "message": message}


def lv_community_file(tmp_path, n):
    rng = np.random.default_rng(0)
    B = -rng.uniform(0.0, 0.1, (n, n))
    np.fill_diagonal(B, -1.0)
    p = tmp_path / f"lv{n}.json"
    p.write_text(json.dumps({"n": n, "lv": {"a": [1.0] * n, "B": B.tolist(),
                                            "g": [1.0] * n},
                             "sigma": np.eye(n).tolist()}))
    return str(p)


def test_classify_refuses_a_face_lattice_over_budget_at_once(capsys, tmp_path):
    path = lv_community_file(tmp_path, 15)
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", path)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    refusal = json.loads(out)["refusal"]
    assert refusal["reason"] == ("15 species have 32766 boundary faces, over the "
                                 "face budget of 16382")


def test_check_of_many_constant_noise_species_builds_no_grid(capsys, tmp_path):
    # 2^24 grid points are counted, not built
    code, out, err = run(capsys, "check", lv_community_file(tmp_path, 24))
    assert code == 0
    nondegenerate = json.loads(out)["assumptions"]["nondegenerate"]
    assert nondegenerate["status"] == "pass"
    assert "over 16777316 points" in nondegenerate["detail"]


@pytest.mark.parametrize("f", [
    "(" * 3000 + "1" + ")" * 3000,
    "2 - " + "-" * 4999 + "x1",
    " + ".join(["x1"] * 1000),
    " ^ ".join(["2"] + ["1"] * 1000),
], ids=["parentheses", "unary-minus", "flat-sum", "power-tower"])
def test_too_deep_expressions_are_json_and_exit_2(capsys, tmp_path, f):
    p = tmp_path / "deep.json"
    p.write_text(json.dumps({"n": 1, "general": {"f": [f], "g": ["1"]},
                             "sigma": [[1]]}))
    code, out, err = run(capsys, "classify", str(p))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "input"
    assert "nested deeper than" in diag["message"]


def test_invalid_model_document(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n": 2}))
    code, out, err = run(capsys, "classify", str(p))
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "input"


@pytest.mark.parametrize("target,error", [
    ("stokolmo.measures.solve_maximin", SimplexError),
    ("stokolmo.cli.simulate_path", EngineError),
])
def test_library_errors_are_json_and_exit_2(capsys, monkeypatch, target, error):
    def fail(*args, **kwargs):
        raise error("forced failure")

    monkeypatch.setattr(target, fail)
    argv = ("classify" if error is SimplexError else "simulate",
            model_path("lv_coexist"))
    code, out, err = run(capsys, *argv)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": error.__name__,
                                    "message": "forced failure"}


def test_a_bare_value_error_is_a_bug_and_escapes_main(monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("not an input error")

    monkeypatch.setattr("stokolmo.cli.classify", fail)
    with pytest.raises(ValueError, match="not an input error"):
        main(["classify", model_path("lv_coexist")])


def test_every_library_error_is_a_stokolmo_error():
    errors = {cls for module in vars(stokolmo).values() if inspect.ismodule(module)
              for cls in vars(module).values()
              if inspect.isclass(cls) and issubclass(cls, BaseException)
              and cls.__module__.startswith("stokolmo.")}
    assert {cls.__name__ for cls in errors} == {
        "CLIError", "StokolmoError", "ModelError", "ExpressionError",
        "ExpressionSyntaxError", "ExpressionDomainError", "MeasureError",
        "DensityError", "FoodChainError", "SimplexError", "EngineError", "VerifyError"}
    for cls in errors - {CLIError}:
        assert issubclass(cls, StokolmoError), cls
    assert issubclass(StokolmoError, ValueError)


def test_simulate_aborts_a_minus_inf_state(capsys, tmp_path):
    # the drift overflows to -inf at x0, so ln X is -inf after one step
    p = tmp_path / "neginf.json"
    p.write_text(json.dumps({"n": 1, "general": {
        "f": ["1 - 1e200*x1*1e200"], "g": ["1"]}, "sigma": [[1]]}))
    code, out, err = run(capsys, "simulate", str(p), "--x0", "2", "--t", "1")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "EngineError",
        "message": "non-finite state at t=0.001: drift or noise evaluated to inf or nan"}


def test_simulate_aborts_a_nan_state(capsys, tmp_path):
    # inf - inf makes the drift nan at the first step
    p = tmp_path / "nan.json"
    p.write_text(json.dumps({"n": 1, "general": {
        "f": ["x1*1e308*10 - x1*1e308*10 + 1 - x1"], "g": ["1"]}, "sigma": [[1]]}))
    code, out, err = run(capsys, "simulate", str(p), "--t", "1")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "EngineError",
        "message": "non-finite state at t=0.001: drift or noise evaluated to inf or nan"}


# -- any model text: exit 0, 1 or 2, and exit 2 leaves one JSON line ------------

def run_on(text: str, command: str = "check", *flags: str):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, path, *flags])
    finally:
        os.unlink(path)
    # outside a test run each warning is one more stderr line
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "lv", "general", "sigma", "a", "B",
                                       "g", "f"]) | st.text(max_size=4),
                      inner, max_size=4),
    max_leaves=12)

expression_text = st.text(max_size=24) | st.text(
    alphabet="x12+-*/^(). 0123456789e", max_size=24) | st.sampled_from([
        "exp(x1)", "ln(x1)", "sqrt(-x1)", "1/(x1-x1)", "x1^x2^x1", "exp(exp(x1))",
        "1e308*10", "x1^-1", "ln(0)", "2 - x1"])


# well-formed expressions, so that most models reach classification
well_formed = st.recursive(
    st.sampled_from(["x1", "x2", "0", "0.5", "2", "1e308", "1e-308", "(1 - x1)",
                     "(2 - x1 - x2)"]),
    lambda inner: st.builds("({} {} {})".format, inner, st.sampled_from("+-*/^"), inner)
    | st.builds("{}({})".format, st.sampled_from(["exp", "ln", "sqrt"]), inner),
    max_leaves=5)


@st.composite
def general_models(draw, expressions=expression_text):
    n = draw(st.integers(1, 2))
    f = draw(st.lists(expressions, min_size=n, max_size=n))
    g = draw(st.lists(st.sampled_from(["1", "0.5", "1 + 0*x1"]) | expressions,
                      min_size=n, max_size=n))
    return json.dumps({"n": n, "general": {"f": f, "g": g},
                       "sigma": np.eye(n).tolist()})


# g overflows in the nondegeneracy sampling of the assumption checks
EXP_EXP = '{"n": 1, "general": {"f": ["16"], "g": ["exp(exp(x1))"]}, "sigma": [[1.0]]}'


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=st.text(max_size=40) | json_values.map(json.dumps) | general_models())
# 0 ^ -1 and an overflowing g * g, each once printed a numpy warning line
@example(text='{"n": 1, "general": {"f": ["1"], "g": ["x1^-1"]}, "sigma": [[1.0]]}')
@example(text=EXP_EXP)
def test_check_on_any_text_exits_0_1_or_2(text):
    code, lines = run_on(text)
    assert code in (0, 1, 2)
    if code == 2:
        assert len(lines) == 1, lines
        assert "error" in json.loads(lines[0])


def test_an_expression_domain_error_keeps_its_own_diagnostic():
    for command in ("check", "classify"):
        assert run_on(EXP_EXP, command) == (2, [json.dumps({
            "error": "ExpressionDomainError",
            "message": "exp overflow in 'exp(exp(x1))'"})])


# 100 examples take 1-2 s on 2 CPUs: most models end in an input, domain or
# Inconclusive exit, and verify simulates (4 paths of 2000 steps) only the
# few with a decided verdict
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=general_models() | general_models(well_formed))
@example(text=EXP_EXP)
def test_classify_and_verify_on_any_expression_model_exit_0_1_or_2(text):
    for argv in (("classify",), ("verify", "--t", "2", "--paths", "4")):
        code, lines = run_on(text, *argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert len(lines) == 1, lines
            assert "error" in json.loads(lines[0])
