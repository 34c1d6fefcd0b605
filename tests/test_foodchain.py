import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokolmo.classify import classify
from stokolmo.foodchain import (FoodChainError, FoodChainParams, FoodChainVerdict,
                                classify_food_chain, foodchain_to_model, parse_food_chain)

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def chain3(a10=4.0, death=(1.0, 1.0), prey_gain=(2.0, 1.0), loss=(1.0, 1.0),
           intra=(1.0, 1.0, 1.0), sigma=(1.0, 1.0, 1.0)):
    return FoodChainParams(
        n=3, a10=a10, death=np.array(death), prey_gain=np.array(prey_gain),
        loss=np.array(loss), intra=np.array(intra),
        sigma_diag=np.array(sigma))


def test_adjusted_rates():
    # prey growth loses half its noise variance, consumer deaths gain it
    at = chain3().a_tilde()
    assert np.allclose(at, [3.5, 1.5, 1.5], atol=1e-15)


def test_full_chain_persists():
    v = classify_food_chain(chain3())
    assert v.kind == "Persistent" and v.j_star == 3
    assert v.survivors() == [1, 2, 3]
    assert np.allclose(v.invasion_rates, [3.5, 5.5, 1.0 / 3.0], atol=1e-12)
    assert v.residual <= 1e-10
    assert v.extinction_rates.size == 0


def test_apex_predator_dies():
    v = classify_food_chain(chain3(death=(1.0, 2.5)))
    assert v.kind == "Extinction" and v.j_star == 2
    assert v.survivors() == [1, 2]
    assert np.allclose(v.invasion_rates, [3.5, 5.5, -7.0 / 6.0], atol=1e-12)
    # two-level equilibrium frozen against the hand solve of the
    # tridiagonal system: x1 = 5/3, x2 = 11/6
    assert np.allclose(v.equilibria[1], [5.0 / 3.0, 11.0 / 6.0], atol=1e-12)
    # the apex decay rate equals its (negative) invasion rate
    assert np.allclose(v.extinction_rates, [-7.0 / 6.0], atol=1e-12)


def test_total_collapse():
    v = classify_food_chain(chain3(a10=0.2))
    assert v.kind == "Extinction" and v.j_star == 0
    assert v.survivors() == []
    # level 1 decays at its adjusted growth rate; starved consumers decay
    # at their adjusted death rates
    assert np.allclose(v.extinction_rates, [-0.3, -1.5, -1.5], atol=1e-12)


def test_collapse_boundary_is_inconclusive():
    v = classify_food_chain(chain3(a10=0.5))
    assert v.kind == "Inconclusive" and v.j_star == 0
    assert "collapse boundary" in v.reason


def test_borderline_invasion_is_inconclusive():
    # tune the apex death so I_3 is exactly zero: a_tilde_30 = x2 = 11/6,
    # so death_2 = 11/6 - sigma/2 = 4/3
    v = classify_food_chain(chain3(death=(1.0, 4.0 / 3.0)))
    assert v.kind == "Inconclusive"
    assert "too close to zero" in v.reason
    assert v.j_star == 2     # the resolved part of the chain is kept


def test_chain_model_face_block_structure():
    # the depth-3 tridiagonal system T x = b is the chain model's face block
    model = foodchain_to_model(chain3())
    T, b = model.drift.B, -model.growth_rate_origin()
    assert np.allclose(T, [[-1.0, -1.0, 0.0],
                           [2.0, -1.0, -1.0],
                           [0.0, 1.0, -1.0]])
    assert np.allclose(b, [-3.5, 1.5, 1.5])


# -- the face solve keeps the hand-built tridiagonal classification -------------

def reference_chain_matrix(params, depth):
    """The tridiagonal system as it was built by hand from the coefficients."""
    T = np.zeros((depth, depth))
    b = np.empty(depth)
    at = params.a_tilde()
    T[0, 0] = -params.intra[0]
    if depth > 1:
        T[0, 1] = -params.loss[0]
    b[0] = -at[0]
    for i in range(1, depth):
        T[i, i - 1] = params.prey_gain[i - 1]
        T[i, i] = -params.intra[i]
        if i + 1 < depth:
            T[i, i + 1] = -params.loss[i]
        b[i] = at[i]
    return T, b


def reference_classify(params):
    """The classification with its own solves and rate formulas, kept as the
    reference the model's face solve and invasion rates must reproduce."""
    n = params.n
    at = params.a_tilde()
    rates = [float(at[0])]
    equilibria = []
    worst = 0.0

    def refuse(depth, reason):
        return FoodChainVerdict("Inconclusive", depth, at, rates, equilibria,
                                np.zeros(0), worst, reason)

    if abs(at[0]) <= 1e-9:
        return refuse(0, "collapse")
    j_star = 0
    if at[0] > 0.0:
        j_star = 1
        for j in range(1, n + 1):
            T, b = reference_chain_matrix(params, j)
            try:
                x = np.linalg.solve(T, b)
            except np.linalg.LinAlgError:
                return refuse(min(j_star, n - 1), "singular")
            res = float(np.max(np.abs(T @ x - b)))
            scale = max(1.0, float(np.max(np.abs(T))), float(np.max(np.abs(b))))
            worst = max(worst, res)
            if res > 1e-10 * scale or np.any(x <= 0.0):
                return refuse(min(j_star, n - 1), "ill-conditioned or not positive")
            equilibria.append(x)
            if j == n:
                break
            inv = float(-at[j] + params.prey_gain[j - 1] * x[j - 1])
            rates.append(inv)
            if abs(inv) <= 1e-9:
                return refuse(j_star, "borderline")
            if inv < 0.0:
                break
            j_star = j + 1
    if j_star == n:
        return FoodChainVerdict("Persistent", n, at, rates, equilibria, np.zeros(0), worst)
    xbar = np.zeros(n)
    if j_star >= 1:
        xbar[:j_star] = equilibria[j_star - 1]
    ext = np.array([at[k] if k == 0 else -at[k] + params.prey_gain[k - 1] * xbar[k - 1]
                    for k in range(j_star, n)])
    return FoodChainVerdict("Extinction", j_star, at, rates, equilibria, ext, worst)


def random_chains(count, seed):
    """Chains of 2-8 levels, a fifth of the couplings zero (so some depth
    systems are singular), unit or random noise variances."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))

        def coupling(k, hi):
            v = rng.uniform(0.0, hi, k)
            v[rng.random(k) < 0.2] = 0.0
            return v
        intra = coupling(n, 2.0)
        intra[0] = rng.uniform(0.1, 2.0)
        sigma = np.ones(n) if rng.random() < 0.5 else rng.uniform(0.05, 3.0, n)
        yield FoodChainParams(
            n=n, a10=float(rng.uniform(-1.0, 8.0)), death=coupling(n - 1, 2.0),
            prey_gain=coupling(n - 1, 4.0), loss=coupling(n - 1, 2.0), intra=intra,
            sigma_diag=sigma)


def test_face_solve_reproduces_the_tridiagonal_classification_bit_for_bit():
    kinds = set()
    for params in random_chains(300, seed=7):
        model = foodchain_to_model(params)
        for depth in range(1, params.n + 1):
            T, b = reference_chain_matrix(params, depth)
            assert model.drift.B[:depth, :depth].tobytes() == T.tobytes()
            assert (-model.growth_rate_origin()[:depth]).tobytes() == b.tobytes()
        got = classify_food_chain(params).to_json_dict()
        ref = reference_classify(params).to_json_dict()
        kinds.add(ref["verdict"])
        if ref.get("reason") in ("singular", "ill-conditioned or not positive"):
            # a refused depth solve words its reason, and keeps its residual
            # out of the worst one, as the face solve does
            assert "equilibrium: face {" in got.pop("reason")
            del ref["reason"], got["solve_residual"], ref["solve_residual"]
        elif ref["verdict"] == "Inconclusive":
            del got["reason"], ref["reason"]
        assert json.dumps(got, sort_keys=True) == json.dumps(ref, sort_keys=True)
    assert kinds == {"Persistent", "Extinction", "Inconclusive"}


def test_verdict_document_round_trips():
    doc = classify_food_chain(chain3(death=(1.0, 2.5))).to_json_dict()
    again = json.loads(json.dumps(doc))
    assert again["verdict"] == "Extinction"
    assert again["survivors"] == [1, 2]
    assert again["j_star"] == 2


# -- parsing -------------------------------------------------------------------

def test_parse_bundled_files():
    for name, kind, jstar in (("foodchain3_persist", "Persistent", 3),
                              ("foodchain3_apex", "Extinction", 2)):
        params = parse_food_chain((MODELS / f"{name}.json").read_text())
        v = classify_food_chain(params)
        assert (v.kind, v.j_star) == (kind, jstar)


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d.pop("a10"), "a10"),
    (lambda d: d.update(n=1), "n"),
    (lambda d: d.update(extra=[1]), "extra"),
    (lambda d: d.update(death=[1.0]), "death"),
    (lambda d: d.update(intra=[0.0, 1.0, 1.0]), "intra[0]"),
    (lambda d: d.update(prey_gain=[-2.0, 1.0]), "nonnegative"),
    (lambda d: d.update(sigma_diag=[1.0, 0.0, 1.0]), "sigma_diag"),
])
def test_parse_rejects_bad_documents(mutate, msg):
    doc = json.loads((MODELS / "foodchain3_persist.json").read_text())
    mutate(doc)
    with pytest.raises(FoodChainError) as ei:
        parse_food_chain(json.dumps(doc))
    assert msg in str(ei.value)


# -- agreement with the general pipeline ----------------------------------------

def test_chain_verdict_agrees_with_general_classifier():
    for death, kind, sinks in (((1.0, 1.0), "Persistent", None),
                               ((1.0, 2.5), "Extinction", ["face_1_2"])):
        params = chain3(death=death)
        v = classify(foodchain_to_model(params))
        assert v.kind == kind
        if sinks is not None:
            assert v.partition.sinks == sinks


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.1, max_value=6.0),
       st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.1, max_value=4.0),
       st.floats(min_value=0.1, max_value=2.0))
def test_two_level_chain_agrees_with_general_classifier(a10, death, gain, loss):
    params = FoodChainParams(
        n=2, a10=a10, death=np.array([death]), prey_gain=np.array([gain]),
        loss=np.array([loss]), intra=np.array([1.0, 1.0]),
        sigma_diag=np.array([1.0, 1.0]))
    chain = classify_food_chain(params)
    general = classify(foodchain_to_model(params))
    if chain.kind == "Inconclusive" or general.kind == "Inconclusive":
        return  # borderline draws are legitimately refused by either side
    if chain.kind == "Persistent":
        assert general.kind == "Persistent"
    else:
        assert general.kind == "Extinction"
        expected = "origin" if chain.j_star == 0 else "face_" + "_".join(
            str(i) for i in chain.survivors())
        assert general.partition.sinks == [expected]
