"""Tests of the benchmark's own checks and reference answers.

    python3 -m pytest -q perfbench/test_checks.py

Every check is fed a right output, which must pass, and deliberately
wrong ones, which must each be caught.  The right outputs are built
from the oracle, except in the last tests, which run the program on
the two cheapest operations of lattice_screen.
"""

import copy
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SINGLE_EXTINCT = {"n": 2, "lv": {"a": [4.0, 1.0], "B": [[-1.0, -1.0], [-2.0, -1.0]],
                                 "g": [1.0, 1.0]}, "sigma": [[1.0, 0.0], [0.0, 1.0]]}
COEXIST = {"n": 2, "lv": {"a": [3.0, 3.0], "B": [[-2.0, -1.0], [-1.0, -2.0]],
                          "g": [1.0, 1.0]}, "sigma": [[1.0, 0.0], [0.0, 1.0]]}


def lattice_of(doc):
    return oracle.lv_lattice(oracle.LVSystem.from_doc(doc))


def classify_output(lat, t_star=None):
    """A correct `stokolmo classify` result for the oracle's lattice."""
    n = len(lat.rates["origin"])
    doc = {"verdict": lat.kind, "invasion_rates": {"rows": [
        {"measure": k, "rates": r.tolist(), "ci": [0.0] * n} for k, r in lat.rates.items()]}}
    if lat.kind == "Persistent":
        doc["certificate"] = {"t_star": lat.t_star if t_star is None else t_star}
    else:
        doc["partition"] = {"sinks": list(lat.sinks), "others": list(lat.others),
                            "repulsion_margin": lat.repulsion_t}
        doc["extinction_targets"] = [
            {"measure": k, "extinct": [i + 1 for i in range(n) if i not in lat.supports[k]],
             "extinction_rates": [lat.rates[k][i] for i in range(n)
                                  if i not in lat.supports[k]]}
            for k in lat.sinks]
    return {"rc": 0, "stderr": "", "doc": doc}


# -- oracle -------------------------------------------------------------------

def test_oracle_reproduces_closed_forms():
    lat = lattice_of(SINGLE_EXTINCT)
    assert lat.kind == "Extinction" and lat.sinks == ["face_1"]
    assert lat.rates["face_1"][1] == pytest.approx(-6.5)
    assert lattice_of(COEXIST).kind == "Persistent"
    assert oracle.logistic_mean(2.0, 1.0, 1.0) == 1.5
    t, p = oracle.maximin(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert t == pytest.approx(0.0, abs=1e-9) and p == pytest.approx([0.5, 0.5])
    rates = oracle.holling2d_rates()
    assert oracle.maximin(np.array(list(rates.values())))[0] > 0.0


def test_weight_floor_case_is_an_extinction():
    lat = lattice_of(workloads.KNOWN_FAULTS[0][1])
    assert lat.kind == "Extinction" and lat.sinks == ["face_1"]
    assert lat.rates["face_1"][1] == pytest.approx(-4e-4)
    assert checks.check_classify(classify_output(lat), lat) == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_communities_are_well_separated(seed):
    rng = np.random.default_rng(seed)
    for n in (3, 5, 6):
        comp = lattice_of(workloads.competitive_community(rng, n))
        assert comp.kind == "Persistent" and len(comp.rates) == 2 ** n - 1
        assert comp.separation() >= workloads.SEPARATION
        chain = lattice_of(workloads.food_chain(rng, n))
        assert chain.kind in ("Persistent", "Extinction")
        assert chain.separation() >= 1e-3
        assert len(chain.rates) <= n + 1


# -- lattice_screen -------------------------------------------------------------

@pytest.mark.parametrize("doc", [SINGLE_EXTINCT, COEXIST])
def test_check_classify_accepts_the_oracle_answer(doc):
    lat = lattice_of(doc)
    assert checks.check_classify(classify_output(lat), lat) == []


def test_check_classify_catches_wrong_outputs():
    lat = lattice_of(SINGLE_EXTINCT)
    good = classify_output(lat)
    wrong = []
    w = copy.deepcopy(good)
    w["rc"] = 1
    wrong.append(w)
    w = copy.deepcopy(good)
    w["doc"]["verdict"] = "Inconclusive"
    wrong.append(w)
    w = copy.deepcopy(good)
    w["doc"]["invasion_rates"]["rows"][1]["rates"][1] += 1e-6
    wrong.append(w)
    w = copy.deepcopy(good)
    del w["doc"]["invasion_rates"]["rows"][2]
    wrong.append(w)
    w = copy.deepcopy(good)
    w["doc"]["partition"]["sinks"] = ["face_2"]
    wrong.append(w)
    w = copy.deepcopy(good)
    w["doc"]["partition"]["repulsion_margin"] += 1e-3
    wrong.append(w)
    w = copy.deepcopy(good)
    w["doc"]["extinction_targets"][0]["extinction_rates"] = [-6.4]
    wrong.append(w)
    w = copy.deepcopy(good)
    w["doc"]["extinction_targets"] = []
    wrong.append(w)
    wrong.append({"rc": None, "exception": "RecursionError: too deep", "stderr": ""})
    for i, w in enumerate(wrong):
        assert checks.check_classify(w, lat), i


def test_check_classify_t_star_tolerance_covers_the_weight_floor_only():
    lat = lattice_of(COEXIST)
    rows = lat.table(list(lat.rates))
    tol = checks.floor_tolerance(rows, lat.t_star)
    assert checks.check_classify(classify_output(lat, lat.t_star - 0.9 * tol), lat) == []
    assert checks.check_classify(classify_output(lat, lat.t_star - 1e-4), lat)


def test_check_cli_error():
    assert checks.check_cli_error(
        {"rc": 2, "stderr": '{"error": "input", "message": "too deep"}\n'}) == []
    for res in ({"rc": None, "exception": "RecursionError: x", "stderr": ""},
                {"rc": 1, "stderr": '{"error": "input"}\n'},
                {"rc": 2, "stderr": "Traceback (most recent call last):\n  ...\n"},
                {"rc": 2, "stderr": '{"error": "a"}\n{"error": "b"}\n'},
                {"rc": 2, "stderr": '["error"]\n'}):
        assert checks.check_cli_error(res), res


# -- verify_ensemble ------------------------------------------------------------

def verify_output(kind, checks_list, classes=None, n_paths=128, status="PASSED"):
    return {"rc": 0, "stderr": "", "doc": {"verdict": {"verdict": kind}, "verification": {
        "status": status, "checks": checks_list, "n_paths": n_paths,
        "path_classes": classes or {}}}}


def test_check_verify_persistent_means():
    expect = {"kind": "Persistent", "moments": [1.5]}
    moment = lambda v: [{"name": "interior_moments_match_equilibrium", "status": "pass",
                         "values": {"measured": [v]}}]
    assert checks.check_verify(verify_output("Persistent", moment(1.53)), expect) == []
    assert checks.check_verify(verify_output("Persistent", moment(1.56)), expect)
    assert checks.check_verify(verify_output("Persistent", []), expect)
    assert checks.check_verify(verify_output("Persistent", moment(1.5), status="FAILED"), expect)
    assert checks.check_verify(verify_output("Extinction", moment(1.5)), expect)


def test_check_verify_extinction_rates():
    expect = {"kind": "Extinction", "rates": {"face_1": np.array([0.0, -6.5])}}
    rate = lambda m, se, pred=-6.5: [{"name": "extinction_rate_face_1_species_2",
                                      "status": "pass",
                                      "values": {"measured": m, "se": se, "predicted": pred}}]
    assert checks.check_verify(verify_output("Extinction", rate(-6.3, 0.1)), expect) == []
    assert checks.check_verify(verify_output("Extinction", rate(-6.1, 0.1)), expect)
    assert checks.check_verify(verify_output("Extinction", rate(-6.5, 0.1, -6.4)), expect)
    assert checks.check_verify(verify_output("Extinction", []), expect)


def test_check_verify_blowup_fraction():
    expect = {"kind": "BlowUpRisk"}
    ok = verify_output("BlowUpRisk", [], {"blow-up": 128, "interior": 0})
    short = verify_output("BlowUpRisk", [], {"blow-up": 126, "interior": 2})
    assert checks.check_verify(ok, expect) == []
    assert checks.check_verify(short, expect)


# -- face_mc ----------------------------------------------------------------------

def face_mc_output(lat):
    """A correct library verdict: exact density rows, Monte Carlo rows with intervals."""
    measures, rows = [], []
    for key, r in lat.rates.items():
        support = lat.supports[key]
        kind = {0: "dirac-origin", 1: "density-1d"}.get(len(support), "empirical")
        ci = np.full(r.shape, 0.05 if kind == "empirical" else 0.0)
        measures.append({"support": [i + 1 for i in support], "kind": kind})
        rows.append({"measure": key, "rates": r.tolist(), "ci": ci.tolist()})
    return {"verdict": lat.kind, "measures": measures, "invasion_rates": {"rows": rows}}


def test_check_face_mc():
    _, a, B, _ = workloads.FACE_MC_PLAN[0]
    lat = oracle.lv_lattice(oracle.LVSystem(np.array(a), np.array(B), np.ones(3), np.eye(3)))
    good = face_mc_output(lat)
    assert checks.check_face_mc(good, lat) == []

    def row(doc, key):
        return next(r for r in doc["invasion_rates"]["rows"] if r["measure"] == key)

    wrong = []
    w = copy.deepcopy(good)
    w["verdict"] = "Inconclusive"
    wrong.append(w)
    w = copy.deepcopy(good)
    row(w, "face_1")["rates"][1] += 1e-5          # density row off the closed form
    wrong.append(w)
    w = copy.deepcopy(good)
    row(w, "face_1_2")["rates"][2] += 0.25        # five intervals off
    wrong.append(w)
    w = copy.deepcopy(good)
    row(w, "face_1_2")["rates"][0] = 0.08         # zero-rate identity broken
    wrong.append(w)
    w = copy.deepcopy(good)
    w["measures"][1]["kind"] = "empirical"        # one-species face not by quadrature
    wrong.append(w)
    w = copy.deepcopy(good)
    w["invasion_rates"]["rows"].pop()
    wrong.append(w)
    for i, w in enumerate(wrong):
        assert checks.check_face_mc(w, lat), i


# -- against the program ------------------------------------------------------------

def test_checks_accept_the_program_on_the_cheapest_operations(tmp_path):
    load = workloads.lattice_screen(ROOT, str(tmp_path), seed=0)
    ops = {op.name: op for op in load.ops}
    for name in ("competitive_3", "chain_3"):
        assert ops[name].check(ops[name].collect(ops[name].run())) == []
    assert all(ops[name].known_fault for name, _, _ in workloads.KNOWN_FAULTS)
