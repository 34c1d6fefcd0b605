import json

import pytest

from stokolmo.cli import main
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
])
def test_input_errors_are_json_and_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["error"] == "input"
    assert diag["message"]


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
