import json
import time

import numpy as np
import pytest

from stokolmo import assumptions
from stokolmo.assumptions import (check_growth_condition, check_nondegeneracy,
                                  check_tightness, run_assumption_checks)
from stokolmo.model import KolmogorovModel, load_model, parse_model
from tests.conftest import model_path


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


def test_constant_noise_builds_no_grid(monkeypatch):
    def no_grid(n):
        raise AssertionError("the sample grid was built")

    monkeypatch.setattr(assumptions, "_sample_points", no_grid)
    chk = check_nondegeneracy(general(["1 - x1", "1 - x2"], ["0", "1"]))
    # the witness is the grid's first point, the origin
    assert chk.status == "fail" and chk.witness["point"] == [0.0, 0.0]


def test_state_dependent_but_bounded_below():
    chk = check_nondegeneracy(general(["1 - x1"], ["1 + 0.1*x1"]))
    assert chk.status == "heuristic-pass"


def test_tied_smallest_eigenvalue_names_the_first_point():
    # g1 vanishes at exactly two sample points, the grid corners (10, 0)
    # and (10, 10), in that order
    chk = check_nondegeneracy(general(["1 - x1", "1 - x2"],
                                      ["(x1 - 10)*(x1 - 10) + x2*(10 - x2)", "1"]))
    assert chk.status == "fail"
    assert chk.witness == {"point": [10.0, 0.0], "eigenvalue": 0.0}


def test_state_dependent_probe_matches_the_per_point_loop():
    # the loop the one-call probe replaced, one evaluation per point, as the
    # reference for the reported minimum
    model = general(["1 - x1", "1 - x2", "1 - x3"],
                    ["0.5 + exp(-x1)", "sqrt(1 + x2*x3)", "0.2 + 0.1*x1^1.5"],
                    sigma=[[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
    pts = assumptions._sample_points(3)
    worst = min(float(np.linalg.eigvalsh(np.outer(g, g) * model.sigma)[0])
                for g in (model.noise_amp_at(x) for x in pts))
    chk = check_nondegeneracy(model)
    assert chk.status == "heuristic-pass"
    assert chk.detail == (f"state-dependent amplitudes: sampled minimum eigenvalue "
                          f"{worst:.6g} over {len(pts)} points in [0, 10.0]^n")

def test_state_dependent_noise_probes_at_most_the_grid_budget():
    # 16 species: the full grid has 2^16 points, one model evaluation each,
    # over the budget; the origin, the 16 axis points and the random fill
    # are probed instead, and the report names the count and the budget
    n = 16
    model = general([f"1 - x{i}" for i in range(1, n + 1)],
                    [f"1 + 0.1*x{i}" for i in range(1, n + 1)])
    start = time.perf_counter()
    report = run_assumption_checks(model)
    assert time.perf_counter() - start < 1.0
    chk = report.nondegenerate
    assert chk.status == "heuristic-pass"
    assert chk.detail == (
        "state-dependent amplitudes: sampled minimum eigenvalue 1 over 117 points "
        "in [0, 10.0]^n (the origin, the axis points and the random fill: the full "
        "grid of 65536 points is over the budget of 4096)")
    pts = assumptions._sample_points(n)
    assert np.array_equal(pts[:1 + n], np.vstack([np.zeros(n), 10.0 * np.eye(n)]))
    # 12 species is the largest full grid: 2^12 points and the random fill
    assert assumptions._per_axis(12) ** 12 == assumptions._SAMPLE_GRID_BUDGET
    assert assumptions._sample_points(12).shape == (4096 + 100, 12)
    assert assumptions._sample_points(13).shape == (1 + 13 + 100, 13)

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


# -- one decomposition for constant noise ---------------------------------

def _community(n, seed):
    rng = np.random.default_rng(seed)
    B = -rng.uniform(0.0, 0.3 / n, (n, n))
    np.fill_diagonal(B, -1.0)
    return lv(list(rng.uniform(2.0, 3.0, n)), B.tolist(),
              sigma=np.diag(rng.uniform(0.6, 1.2, n)).tolist())


@pytest.mark.parametrize("name", ["lv_coexist", "community10"])
def test_constant_noise_is_decomposed_once(name, monkeypatch):
    model = _community(10, 3) if name == "community10" else load_model(model_path(name))
    # the per-point loop every noise model used to run
    pts = assumptions._sample_points(model.n)
    lams = [float(np.linalg.eigvalsh(np.outer(g, g) * model.sigma)[0])
            for g in (model.noise_amp_at(x) for x in pts)]
    worst = min(lams)
    calls = []
    noise_amp_at = KolmogorovModel.noise_amp_at
    monkeypatch.setattr(KolmogorovModel, "noise_amp_at",
                        lambda self, x: calls.append(x) or noise_amp_at(self, x))
    chk = check_nondegeneracy(model)
    assert len(calls) == 1
    assert chk.status == "pass" and chk.witness is None
    assert chk.detail == (f"constant noise amplitudes and positive definite covariance; "
                          f"sampled minimum eigenvalue {worst:.6g} over {len(pts)} points")
