import json

import pytest

from stokolmo.assumptions import (check_growth_condition, check_nondegeneracy,
                                  check_tightness, run_assumption_checks)
from stokolmo.model import parse_model


def parse(doc):
    return parse_model(json.dumps(doc))


def lv(a, B, g=None, sigma=None):
    n = len(a)
    return parse({
        "n": n,
        "lv": {"a": a, "B": B, "g": g or [1.0] * n},
        "sigma": sigma or [[1.0 if i == j else 0.0 for j in range(n)]
                           for i in range(n)],
    })


def general(f, g, sigma=None):
    n = len(f)
    return parse({
        "n": n, "general": {"f": f, "g": g},
        "sigma": sigma or [[1.0 if i == j else 0.0 for j in range(n)]
                           for i in range(n)],
    })


# -- nondegeneracy ----------------------------------------------------------

def test_constant_noise_is_exact_pass():
    chk = check_nondegeneracy(lv([1.0], [[-1.0]]))
    assert chk.status == "pass"


def test_variable_free_expression_noise_is_exact_pass():
    # general-form noise with no variable is a constant amplitude
    chk = check_nondegeneracy(general(["1 - x1", "1 - x2"], ["1", "0.5"]))
    assert chk.status == "pass"
    assert chk.detail.startswith("constant noise amplitudes")


def test_vanishing_amplitude_fails_with_witness():
    chk = check_nondegeneracy(general(["1 - x1"], ["x1"]))
    assert chk.status == "fail"
    assert chk.witness["eigenvalue"] <= 1e-10
    assert len(chk.witness["point"]) == 1


def test_state_dependent_but_bounded_below():
    chk = check_nondegeneracy(general(["1 - x1"], ["1 + 0.1*x1"]))
    assert chk.status == "heuristic-pass"


# -- tightness --------------------------------------------------------------

def test_competitive_interactions_certified():
    chk = check_tightness(lv([3.0, 3.0], [[-2.0, -1.0], [-1.0, -2.0]]))
    assert chk.status == "pass"
    assert chk.witness["c"] == [1.0, 1.0]


def test_predator_prey_cross_weights():
    m = lv([2.0, -1.0], [[-1.0, -1.0], [1.0, -0.5]])
    chk = check_tightness(m)
    assert chk.status == "pass"
    # weights (B_21, -B_12) cancel the predation transfer term
    assert chk.witness["c"] == [1.0, 1.0]


def test_strong_mutualism_provably_unbounded():
    m = lv([1.0, 1.0], [[-1.0, 2.0], [2.0, -1.0]])
    chk = check_tightness(m)
    assert chk.status == "fail"
    assert chk.witness["reason"] == "b1*b2 - c1*c2 < 0"
    assert chk.witness["b1*b2 - c1*c2"] == pytest.approx(-3.0)


def test_weak_mutualism_stays_heuristic():
    m = lv([1.0, 1.0], [[-2.0, 0.5], [0.5, -2.0]])
    chk = check_tightness(m)
    assert chk.status.startswith("heuristic")


def test_missing_self_limitation_not_certified():
    chk = check_tightness(lv([0.5], [[0.0]]))
    assert chk.status == "heuristic-fail"
    assert chk.witness["diagonal"] == [0.0]


# -- growth bound -----------------------------------------------------------

def test_affine_drift_constant_noise_passes_exactly():
    chk = check_growth_condition(lv([1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]]))
    assert chk.status == "pass"


def test_sampled_decay_accepted():
    chk = check_growth_condition(general(["1 - x1^2"], ["1"]))
    assert chk.status == "heuristic-pass"
    radii = chk.witness["radii"]
    assert radii[-1]["worst_ratio"] < radii[0]["worst_ratio"]


def test_slow_decay_below_sampler_resolution_is_not_certified():
    # affine drift gives ratio ~ r^(-1/2), genuinely vanishing but still
    # 1e-2 at the largest probe radius; the sampler refuses to certify,
    # which only costs a caution note downstream
    chk = check_growth_condition(general(["1 - x1"], ["1"]))
    assert chk.status == "heuristic-fail"
    table = [row["worst_ratio"] for row in chk.witness["radii"]]
    assert all(b < a for a, b in zip(table, table[1:]))


def test_growing_noise_rejected():
    # affine drift cannot dominate amplitudes growing with the state, so
    # the bounding ratio never vanishes along axis rays
    chk = check_growth_condition(general(["1 - x1"], ["1 + x1"]))
    assert chk.status == "heuristic-fail"


# -- bundled report ---------------------------------------------------------

def test_report_document_shape():
    rep = run_assumption_checks(lv([3.0, 3.0], [[-2.0, -1.0], [-1.0, -2.0]]))
    doc = rep.to_json_dict()
    assert set(doc) == {"nondegenerate", "tightness", "growth", "notes"}
    assert all(doc[k]["status"] == "pass"
               for k in ("nondegenerate", "tightness", "growth"))
