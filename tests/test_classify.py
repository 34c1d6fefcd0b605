import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokolmo.classify import (PersistenceRefusal, check_persistence, classify,
                               maximin_weights, partition_measures)
from stokolmo.engine import SimConfig
from stokolmo.measures import AnalysisBudget, discover_boundary, maximin_decision
from stokolmo.model import parse_model
from tests.test_measures import hand_table, lv_community


# -- persistence certificates --------------------------------------------------

def test_coexist_certificate(bundled, verdict_of):
    v = verdict_of("lv_coexist")
    assert v.kind == "Persistent"
    cert = v.certificate
    assert np.allclose(cert.weights, [0.5, 0.5], atol=1e-9)
    assert np.isclose(cert.t_star, 0.625, atol=1e-12)
    assert np.isclose(cert.rho_star, 0.3125, atol=1e-12)
    assert sorted(cert.binding) == ["face_1", "face_2"]
    assert cert.uncertainty == 0.0


def test_predprey_certificate(verdict_of):
    v = verdict_of("predprey")
    assert v.kind == "Persistent"
    assert np.isclose(v.certificate.t_star, 0.5, atol=1e-12)


def test_holling_certificate(verdict_of):
    # weights equalize the origin row (1.5, -0.45) against the prey-edge
    # row (0, 0.65937...): p2 = 1.5 / (1.5 + 0.45 + 0.65937)
    v = verdict_of("holling2d")
    assert v.kind == "Persistent"
    cert = v.certificate
    assert np.isclose(cert.t_star, 0.3790430329, atol=1e-6)
    assert np.allclose(cert.weights, [0.4251474, 0.5748526], atol=1e-5)


def test_certificate_margin_recomputes_from_table(bundled, verdict_of):
    # the certified margin must be reproducible from the published rate
    # table and weights, not an artifact of solver internals
    for name in ("lv_coexist", "predprey", "holling2d"):
        v = verdict_of(name)
        table = v.discovery.table
        achieved = float(np.min(table.lp_view()[0] @ v.certificate.weights))
        assert abs(achieved - v.certificate.t_star) <= 1e-9


def test_maximin_weights_matches_certificate(bundled, verdict_of):
    table = verdict_of("lv_coexist").discovery.table
    p, t = maximin_weights(table)
    assert np.isclose(t, 0.625, atol=1e-12)
    assert np.allclose(p, [0.5, 0.5], atol=1e-9)


def test_bistable_refusal_is_decided(bundled, verdict_of):
    disc = discover_boundary(bundled["lv_bistable"])
    outcome = check_persistence(disc.table)
    assert isinstance(outcome, PersistenceRefusal)
    assert outcome.decided
    assert np.isclose(outcome.t_star, -2.25, atol=1e-12)
    assert outcome.measure in ("face_1", "face_2")


def test_twelve_species_community_is_persistent():
    # competitive LV from default_rng(0): 4095 faces, all carrying a measure,
    # and face tables of up to 2047 rows; HiGHS gives t* = 0.03795864824077
    rng = np.random.default_rng(0)
    a = rng.uniform(1.0, 2.0, 12)
    B = -rng.uniform(0.0, 1.0 / 12.0, (12, 12))
    np.fill_diagonal(B, -1.0)
    v = classify(parse_model(json.dumps({
        "n": 12, "lv": {"a": a.tolist(), "B": B.tolist(), "g": [1.0] * 12},
        "sigma": np.eye(12).tolist()})))
    assert v.kind == "Persistent"
    assert len(v.discovery.measures) == 2 ** 12 - 1
    assert v.certificate.t_star == pytest.approx(0.0379586482408, abs=1e-12)


# -- extinction partition --------------------------------------------------------

def test_single_extinction_partition(verdict_of):
    v = verdict_of("lv_single_extinct")
    assert v.kind == "Extinction" and v.strength == "full"
    assert v.partition.sinks == ["face_1"]
    assert v.partition.repulsion in ("vacuous", "holds")
    (tgt,) = v.targets
    assert tgt.measure.key == "face_1"
    assert tgt.extinct == (1,)
    assert np.allclose(tgt.rates, [-6.5], atol=1e-12)


def test_bistable_partition(verdict_of):
    v = verdict_of("lv_bistable")
    assert v.kind == "Extinction" and v.strength == "full"
    assert sorted(v.partition.sinks) == ["face_1", "face_2"]
    assert v.partition.others == ["origin"]
    assert v.partition.repulsion == "holds"
    rates = {t.measure.key: t.rates for t in v.targets}
    assert np.allclose(rates["face_1"], [-4.5], atol=1e-12)
    assert np.allclose(rates["face_2"], [-4.5], atol=1e-12)


def test_total_extinction_partition(verdict_of):
    v = verdict_of("lv_total_extinct")
    assert v.kind == "Extinction"
    assert v.partition.sinks == ["origin"]
    assert v.partition.repulsion == "vacuous"
    (tgt,) = v.targets
    assert tgt.extinct == (0, 1)
    assert np.allclose(tgt.rates, [-0.2, -0.1], atol=1e-12)


def test_three_species_extinction(verdict_of):
    v = verdict_of("two_pred_one_prey")
    assert v.kind == "Extinction"
    assert v.partition.sinks == ["face_1_2"]
    (tgt,) = v.targets
    assert tgt.extinct == (2,)
    assert np.allclose(tgt.rates, [-31.0 / 12.0], atol=1e-12)


# -- assumption routing ----------------------------------------------------------

def test_cooperative_blowup_routed(verdict_of):
    v = verdict_of("coop_blowup")
    assert v.kind == "BlowUpRisk"
    assert v.blowup_witness is not None
    assert v.certificate is None and v.partition is None


def test_no_self_limitation_is_inconclusive(verdict_of):
    v = verdict_of("linear1d")
    assert v.kind == "Inconclusive"
    assert "tight" in v.refusal.reason


def test_borderline_face_is_inconclusive():
    m = parse_model(json.dumps({
        "n": 2,
        "lv": {"a": [0.5, 2.0], "B": [[-1.0, 0.0], [0.0, -1.0]],
               "g": [1.0, 1.0]},
        "sigma": np.eye(2).tolist()}))
    v = classify(m)
    assert v.kind == "Inconclusive"
    assert "unresolved" in v.refusal.reason
    assert not v.refusal.decided


def test_monte_carlo_sink_is_an_extinction():
    # two_pred_one_prey written as expressions: the sink face {1, 2} is a
    # Monte Carlo measure whose on-support rates are zero only up to noise
    a = [4.0, -1.0, -2.0]
    B = [[-1.0, -1.0, -1.0], [2.0, -1.0, -0.5], [0.5, -0.5, -1.0]]
    f = [" ".join([repr(ai)] + [f"{'-' if c < 0 else '+'} {abs(c)!r}*x{j + 1}"
                                for j, c in enumerate(row)])
         for ai, row in zip(a, B)]
    m = parse_model(json.dumps({"n": 3, "general": {"f": f, "g": ["1"] * 3},
                                "sigma": np.eye(3).tolist()}))
    budget = AnalysisBudget(face_sim=SimConfig(
        n_paths=4, t_max=100.0, dt=1e-2, burn_in=10.0, seed=0))
    v = classify(m, budget)
    assert v.kind == "Extinction", v.refusal
    assert v.partition.sinks == ["face_1_2"]
    sink = v.discovery.measures[[mu.key for mu in v.discovery.measures].index("face_1_2")]
    assert sink.kind == "empirical"


# -- one decision rule ------------------------------------------------------------

def test_one_binding_rule_for_every_caller():
    # row 1 binds only under the margin-scaled slack; its band then exceeds
    # t*, and every caller reads the same unresolved decision
    t = hand_table([(), (), ()], [[0.2], [0.2 + 1e-10], [0.2 + 1e-6]],
                   [[0.0], [0.2 + 5e-11], [0.2]])
    refusal = check_persistence(t)
    assert isinstance(refusal, PersistenceRefusal) and not refusal.decided
    assert "inside the Monte Carlo uncertainty 0.2" in refusal.reason
    assert partition_measures(t).repulsion == "undecidable"


def test_undecidable_refusal_names_first_entry():
    t = hand_table([(), (1,), (2,)],
                   [[1.0, 1.0, 1.0], [0.3, 0.0, 0.05], [0.02, 0.3, 0.0]],
                   [[0.0, 0.0, 0.0], [0.0, 0.0, 0.1], [0.1, 0.0, 0.0]])
    refusal = check_persistence(t)
    assert (refusal.measure, refusal.species) == ("face_2", 3)
    assert refusal.reason == ("invasion rate of species 3 against face_2 is "
                              "0.05 with uncertainty 0.1: not sign-decidable")


def test_partition_names_first_undecided_species():
    # face_1's on-support 0.05 +- 0.1 is pinned to zero, so its off-support
    # 0.02 +- 0.1 is the entry of unknown sign; face_2's outside rate is
    # decidedly negative
    t = hand_table([(), (0,), (1,)],
                   [[1.0, 1.0], [0.05, 0.02], [-0.5, 0.01]],
                   [[0.0, 0.0], [0.1, 0.1], [0.0, 0.1]])
    part = partition_measures(t)
    assert part.sinks == ["face_2"]
    assert part.others == ["origin"]
    assert part.undecided == [("face_1", "invasion rate of species 2 against face_1 "
                                         "is not sign-decidable at this budget")]
    assert part.repulsion == "holds"


def test_discovered_survivors_are_persistent(bundled):
    # the sink test reads only the outside rates because every measure
    # discovery admits passes the maximin test on its own block of the
    # final table
    models = dict(bundled, community6=lv_community("competitive", 6, seed=3))
    checked = 0
    for name, model in models.items():
        table = discover_boundary(model).table
        for mu in table.measures:
            if mu.support:
                d = maximin_decision(table, table.rows_below(mu.support), mu.support)
                assert d.decision == "positive", (name, mu.key)
                checked += 1
    assert checked >= 2 ** 6 - 2 + 10     # every face of the community, and more


# -- verdict document ------------------------------------------------------------

def test_verdict_serializes_to_plain_json(verdict_of):
    for name in ("lv_coexist", "lv_bistable", "coop_blowup", "linear1d"):
        doc = verdict_of(name).to_json_dict()
        text = json.dumps(doc)          # must not choke on numpy leftovers
        again = json.loads(text)
        assert again["verdict"] == verdict_of(name).kind


def test_verdict_carries_measures_and_rates(verdict_of):
    doc = verdict_of("lv_coexist").to_json_dict()
    keys = [m["support"] for m in doc["measures"]]
    assert keys == [[], [1], [2]]
    assert len(doc["invasion_rates"]["rows"]) == 3


# -- structural properties --------------------------------------------------------

@st.composite
def competitive_lv(draw):
    a = [draw(st.floats(min_value=-2.0, max_value=4.0)) for _ in range(2)]
    off = [draw(st.floats(min_value=-3.0, max_value=0.0)) for _ in range(2)]
    diag = [draw(st.floats(min_value=-3.0, max_value=-0.3)) for _ in range(2)]
    return parse_model(json.dumps({
        "n": 2,
        "lv": {"a": a, "B": [[diag[0], off[0]], [off[1], diag[1]]],
               "g": [1.0, 1.0]},
        "sigma": np.eye(2).tolist()}))


@settings(max_examples=25, deadline=None)
@given(competitive_lv())
def test_certificate_excludes_sinks(model):
    """A persistence certificate and an attracting boundary measure can
    never coexist: a sink's rate row is entrywise <= 0, which caps the
    maximin value at zero."""
    v = classify(model)
    assert v.kind in ("Persistent", "Extinction", "BlowUpRisk", "Inconclusive")
    if v.kind == "Persistent":
        assert v.certificate.t_star > 0.0
        part = partition_measures(v.discovery.table)
        assert part.sinks == []
    if v.kind == "Extinction":
        assert v.partition.sinks
        assert v.certificate is None
    if v.kind == "Inconclusive":
        assert v.refusal is not None and v.refusal.reason


@settings(max_examples=25, deadline=None)
@given(competitive_lv())
def test_persistent_weights_are_valid(model):
    v = classify(model)
    if v.kind != "Persistent":
        return
    p = v.certificate.weights
    assert np.isclose(p.sum(), 1.0, atol=1e-9)
    assert np.all(p > 0.0)
