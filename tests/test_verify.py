import numpy as np
import pytest

from stokolmo import engine, verify
from stokolmo.engine import (EngineError, EnsembleStats, OccupationHistogram,
                             SimConfig, simulate_ensemble, simulate_path)
from stokolmo.verify import (VerifyError, _binomial_ci, classify_paths,
                             detect_blowup_signature,
                             estimate_basin_probabilities, tv_distance,
                             verify_verdict)


def hist(masses, lo=-2.0, hi=2.0):
    masses = np.asarray(masses, dtype=float)
    bins = masses.shape[1] - 2
    edges = lo + (hi - lo) / bins * np.arange(bins + 1)
    return OccupationHistogram(edges=edges, masses=masses, total_weight=1.0)


# -- total variation -----------------------------------------------------------

def test_tv_identical_is_zero():
    h = hist([[0.0, 0.25, 0.25, 0.5, 0.0]])
    assert tv_distance(h, h) == 0.0


def test_tv_disjoint_is_one():
    a = hist([[0.0, 1.0, 0.0, 0.0, 0.0]])
    b = hist([[0.0, 0.0, 0.0, 1.0, 0.0]])
    assert tv_distance(a, b) == 1.0


def test_tv_takes_worst_species():
    a = hist([[0.0, 0.5, 0.5, 0.0, 0.0],
              [0.0, 1.0, 0.0, 0.0, 0.0]])
    b = hist([[0.0, 0.5, 0.5, 0.0, 0.0],
              [0.0, 0.5, 0.5, 0.0, 0.0]])
    assert tv_distance(a, b) == 0.5


def test_tv_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m1 = rng.dirichlet(np.ones(6), size=2)
        m2 = rng.dirichlet(np.ones(6), size=2)
        a, b = hist(m1), hist(m2)
        d = tv_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == tv_distance(b, a)


def test_tv_rejects_grid_mismatch():
    a = hist([[0.0, 0.5, 0.5, 0.0, 0.0]])
    b = hist([[0.0, 0.5, 0.5, 0.0, 0.0]], hi=3.0)
    with pytest.raises(VerifyError):
        tv_distance(a, b)


def pooled(wins):
    """One histogram of successive windows, each weighted by its time."""
    w = np.array([h.total_weight for h in wins])
    masses = sum(wi * h.masses for wi, h in zip(w, wins)) / w.sum()
    return OccupationHistogram(edges=wins[0].edges, masses=masses,
                               total_weight=float(w.sum()))


def test_stationary_halves_agree(bundled):
    # self-consistency: the two disjoint halves of a long stationary run
    # must carry the same occupation measure.  A single path needs several
    # thousand time units for its TV floor to drop below 0.05, so the run
    # is pooled across paths, which is exactly what the persistence check
    # consumes; windows 0+1 and 2+3 are the two halves
    cfg = SimConfig(n_paths=32, t_max=220.0, burn_in=20.0, seed=1)
    stats = simulate_ensemble(bundled["logistic"], np.array([1.0]), cfg)
    wins = stats.window_histograms
    assert len(wins) == 4
    h1, h2 = pooled(wins[:2]), pooled(wins[2:])
    assert np.isclose(h1.total_weight, h2.total_weight)
    assert tv_distance(h1, h2) < 0.05


# -- path classification ---------------------------------------------------------

def synthetic_stats(y_end, blowup_time, n=2):
    P = len(y_end)
    z = np.zeros((P, n))
    h = hist(np.full((n, 4), 0.25))
    return EnsembleStats(
        y_end=np.asarray(y_end, dtype=float),
        t_end=np.full(P, 10.0), y_burn=z,
        blowup_time=np.asarray(blowup_time, dtype=float),
        extinct_time=np.full((P, n), np.nan), exponents=z,
        histogram=h, window_histograms=[h], mean_state=np.ones(n),
        path_mean_state=np.ones((P, n)), path_errors={})


def test_classify_paths_sorting():
    stats = synthetic_stats(
        y_end=[[1.0, 1.0],        # interior
               [-25.0, 0.4],      # species 1 extinct -> sink A
               [-25.0, -30.0],    # both extinct: not a predicted set
               [5.0, 5.0],        # blown up (flag wins over state)
               [0.2, -40.0],      # species 2 extinct -> sink B
               [-25.0, 0.4]],     # blown up below the threshold: still blown
        blowup_time=[np.nan, np.nan, np.nan, 1.2, np.nan, 0.7])
    counts, labels = classify_paths(
        stats, {"A": frozenset({0}), "B": frozenset({1})})
    assert counts == {"A": 1, "B": 1, "interior": 1, "blow-up": 2,
                      "unassigned": 1}
    assert list(labels) == ["interior", "A", "unassigned", "blow-up", "B", "blow-up"]
    assert sum(counts.values()) == stats.n_paths


def test_binomial_ci_edges():
    assert _binomial_ci(0, 100) == 0.03          # rule of three
    assert _binomial_ci(100, 100) == 0.03
    mid = _binomial_ci(50, 100)
    assert np.isclose(mid, 1.96 * np.sqrt(0.25 / 100))


def test_basin_estimates_sum_and_flag(bundled, verdict_of):
    verdict = verdict_of("lv_bistable")
    cfg = SimConfig(n_paths=48, t_max=120.0, burn_in=20.0, seed=3)
    stats = simulate_ensemble(bundled["lv_bistable"], np.ones(2), cfg)
    estimates, counts, labels, low_conf = estimate_basin_probabilities(
        stats, verdict)
    assert sum(counts.values()) == 48
    assert len(labels) == 48
    assert {e.measure for e in estimates} == {"face_1", "face_2"}
    for e in estimates:
        assert e.count >= 0 and e.ci > 0.0
        if e.count > 0:
            assert e.survivor_moments is not None


# -- full verification reports ----------------------------------------------------

def test_verify_refuses_inconclusive(bundled, verdict_of):
    with pytest.raises(VerifyError):
        verify_verdict(bundled["linear1d"], verdict_of("linear1d"))


def test_verify_validates_x0(bundled, verdict_of):
    with pytest.raises(EngineError):
        verify_verdict(bundled["lv_coexist"], verdict_of("lv_coexist"),
                       SimConfig(n_paths=2, t_max=1.0, burn_in=0.0),
                       x0=np.array([1.0, -1.0]))


@pytest.mark.parametrize("name,kind", [("lv_coexist", "Persistent"),
                                       ("lv_single_extinct", "Extinction"),
                                       ("coop_blowup", "BlowUpRisk")])
def test_verify_sorts_the_paths_once(bundled, verdict_of, monkeypatch, name, kind):
    # every verdict kind: one ensemble pass and one sort of its paths
    ensembles, sorted_stats = [], []
    simulate, sort = verify.simulate_ensemble, verify.classify_paths
    monkeypatch.setattr(verify, "simulate_ensemble",
                        lambda *a, **kw: ensembles.append(1) or simulate(*a, **kw))
    monkeypatch.setattr(verify, "classify_paths",
                        lambda stats, sinks: sorted_stats.append(stats) or sort(stats, sinks))
    cfg = SimConfig(n_paths=8, t_max=20.0, burn_in=2.0, seed=0)
    verdict = verdict_of(name)
    rep = verify_verdict(bundled[name], verdict, cfg)
    assert rep.verdict_kind == kind
    assert len(ensembles) == 1
    assert len(sorted_stats) == 1 and sorted_stats[0] is rep.stats
    sinks = {t.measure.key: frozenset(t.extinct) for t in verdict.targets}
    assert rep.path_classes == sort(rep.stats, sinks)[0]


def test_verify_extinction_report(bundled, verdict_of):
    cfg = SimConfig(n_paths=48, t_max=200.0, burn_in=30.0, seed=0)
    rep = verify_verdict(bundled["lv_single_extinct"], verdict_of("lv_single_extinct"), cfg)
    assert rep.status == "PASSED"
    assert rep.n_paths == 48
    assert sum(rep.path_classes.values()) == 48
    assert rep.path_classes["face_1"] == 48     # species 2 always dies here
    (basin,) = rep.basins
    assert basin.p_hat == 1.0
    # survivors hover near the solved equilibrium m = 3.5
    assert abs(basin.survivor_moments[0] - 3.5) < 0.3
    names = [c.name for c in rep.checks]
    assert any("extinction_rate" in s for s in names)
    doc = rep.to_json_dict()
    assert doc["status"] == "PASSED" and "stats" not in doc


def test_verify_blowup_report(bundled, verdict_of):
    cfg = SimConfig(n_paths=64, t_max=40.0, burn_in=5.0, seed=0)
    rep = verify_verdict(bundled["coop_blowup"], verdict_of("coop_blowup"), cfg)
    assert rep.status == "PASSED"
    assert rep.path_classes["blow-up"] == 64


def test_blowup_signature_direction(bundled):
    cfg = SimConfig(n_paths=32, t_max=40.0, burn_in=5.0, seed=0)
    sig = detect_blowup_signature(bundled["coop_blowup"], cfg)
    assert sig["blowup_fraction"] == 1.0
    assert sig["slope_mean"] - 3.0 * sig["slope_se"] > 0.0
    # competitive control: same machinery must see no signature
    ctrl = detect_blowup_signature(bundled["lv_coexist"], cfg)
    assert ctrl["blowup_fraction"] == 0.0
    assert ctrl["slope_mean"] + 3.0 * ctrl["slope_se"] < 0.5


def test_blowup_probes_ride_in_the_one_ensemble_pass(bundled, monkeypatch):
    model = bundled["coop_blowup"]
    cfg = SimConfig(n_paths=128, t_max=30.0, burn_in=3.0, seed=0)
    run_block = engine._run_block
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return run_block(*args, **kwargs)

    monkeypatch.setattr(engine, "_run_block", counted)
    sig = detect_blowup_signature(model, cfg)
    assert len(calls) == len(engine._blocks(cfg.n_paths, model.n)) == 1
    monkeypatch.undo()
    # the same slopes from each probe integrated alone
    w = np.array(sig["weights"])
    slopes = np.empty(32)
    for pid in range(32):
        traj = simulate_path(model, np.ones(2), cfg, pid)
        assert traj.blowup_time is not None
        idx = max(1, (traj.log_states.shape[0] - 1) // 2)
        slopes[pid] = float(w @ traj.log_states[idx]) / traj.times[idx]
    assert sig["slope_mean"] == float(slopes.mean())
    assert sig["slope_se"] == float(slopes.std(ddof=1) / np.sqrt(32))
    assert [t.path_id for t in sig["stats"].paths] == list(range(32))


def test_blowup_signature_needs_two_species(bundled):
    with pytest.raises(VerifyError):
        detect_blowup_signature(bundled["two_pred_one_prey"])
