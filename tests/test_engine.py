import json

import numpy as np
import pytest

from stokolmo import engine
from stokolmo.engine import (EngineError, GridSpec, SimConfig,
                             empirical_lyapunov, occupation_histogram,
                             simulate_ensemble, simulate_path)
from stokolmo.model import parse_model

LOGISTIC = parse_model(json.dumps({
    "n": 1, "lv": {"a": [2.0], "B": [[-1.0]], "g": [1.0]}, "sigma": [[1.0]],
}))
X0 = np.array([1.0])


def corr_model(rho):
    return parse_model(json.dumps({
        "n": 2, "lv": {"a": [0.0, 0.0], "B": [[0.0, 0.0], [0.0, 0.0]],
                       "g": [1.0, 1.0]},
        "sigma": [[1.0, rho], [rho, 1.0]],
    }))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(burn_in=10.0, t_max=5.0)
    with pytest.raises(ValueError):
        SimConfig(n_paths=0)
    with pytest.raises(ValueError):
        SimConfig(extinct_log_threshold=1.0)


def test_bad_x0_rejected():
    cfg = SimConfig(n_paths=1, t_max=1.0, burn_in=0.0)
    for x0 in ([1.0, 1.0], [0.0], [-1.0], [np.inf]):
        with pytest.raises(EngineError):
            simulate_ensemble(LOGISTIC, np.array(x0, dtype=float), cfg)


def test_block_width_cannot_change_results(monkeypatch):
    cfg = SimConfig(n_paths=130, t_max=6.0, burn_in=1.0, seed=42)
    for model in (LOGISTIC, corr_model(0.5)):
        x0 = np.ones(model.n)
        runs = []
        for width in (7, 64):     # 19 ragged blocks against 3
            monkeypatch.setattr(engine, "_BLOCK", width)
            runs.append(simulate_ensemble(model, x0, cfg))
        a, b = runs
        for name in ("y_end", "t_end", "y_burn", "exponents", "mean_state",
                     "mean_sq_state", "path_mean_state"):
            assert np.array_equal(getattr(a, name), getattr(b, name),
                                  equal_nan=True), name
        assert np.array_equal(a.histogram.masses, b.histogram.masses)
        for wa, wb in zip(a.window_histograms, b.window_histograms):
            assert np.array_equal(wa.masses, wb.masses)


def test_same_seed_reproduces_exactly():
    cfg = SimConfig(n_paths=8, t_max=4.0, burn_in=0.5, seed=9)
    a = simulate_ensemble(LOGISTIC, X0, cfg)
    b = simulate_ensemble(LOGISTIC, X0, cfg)
    assert np.array_equal(a.y_end, b.y_end)
    c = simulate_ensemble(LOGISTIC, X0, SimConfig(n_paths=8, t_max=4.0,
                                                  burn_in=0.5, seed=10))
    assert not np.array_equal(a.y_end, c.y_end)


def test_path_replay_matches_ensemble_member():
    cfg = SimConfig(n_paths=70, t_max=5.0, burn_in=1.0, seed=3)  # spans 2 blocks
    stats = simulate_ensemble(LOGISTIC, X0, cfg)
    for pid in (0, 1, 63, 64, 69):
        traj = simulate_path(LOGISTIC, X0, cfg, path_id=pid)
        assert traj.log_states[-1, 0] == stats.y_end[pid, 0]
        assert traj.t_end == stats.t_end[pid]


def test_histogram_masses_sum_to_one():
    cfg = SimConfig(n_paths=16, t_max=8.0, burn_in=1.0, seed=1)
    stats = simulate_ensemble(LOGISTIC, X0, cfg)
    assert np.allclose(stats.histogram.masses.sum(axis=1), 1.0, atol=1e-12)
    for win in stats.window_histograms:
        assert np.allclose(win.masses.sum(axis=1), 1.0, atol=1e-12)
    # tight default grid: the logistic run should essentially never leave it
    assert stats.histogram.out_of_range_mass(0) < 1e-6


def test_noise_channels_carry_target_correlation():
    rho = 0.6
    cfg = SimConfig(n_paths=1, t_max=50.0, burn_in=0.0, seed=2)
    traj = simulate_path(corr_model(rho), np.array([1.0, 1.0]), cfg)
    inc = np.diff(traj.log_states, axis=0)
    r = np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]
    n = inc.shape[0]
    se = (1.0 - rho * rho) / np.sqrt(n)   # Pearson r SE at the true rho
    assert abs(r - rho) < 3.0 * se


def test_drift_free_exponent_is_ito_correction():
    # a = 0, B = 0, g = 1: Y(t) = -t/2 + E(t), so the exponent estimates
    # concentrate at -1/2
    cfg = SimConfig(n_paths=64, t_max=40.0, burn_in=1.0, seed=7)
    stats = simulate_ensemble(corr_model(0.0), np.array([1.0, 1.0]), cfg)
    mean, se = stats.exponent_summary()
    assert np.all(np.abs(mean + 0.5) < 3.0 * se + 1e-12)


def test_dt_halving_agrees_within_error_bars():
    base = dict(n_paths=48, t_max=30.0, burn_in=2.0, seed=5)
    coarse = simulate_ensemble(LOGISTIC, X0, SimConfig(dt=2e-3, **base))
    fine = simulate_ensemble(LOGISTIC, X0, SimConfig(dt=1e-3, **base))
    m1, s1 = coarse.exponent_summary()
    m2, s2 = fine.exponent_summary()
    assert abs(m1[0] - m2[0]) < 3.0 * np.hypot(s1[0], s2[0])
    assert abs(coarse.mean_state[0] - fine.mean_state[0]) < 0.05


def test_blowup_halts_and_flags():
    coop = parse_model(json.dumps({
        "n": 2, "lv": {"a": [2.0, 2.0], "B": [[-1.0, 2.0], [2.0, -1.0]],
                       "g": [1.0, 1.0]}, "sigma": np.eye(2).tolist()}))
    cfg = SimConfig(n_paths=8, t_max=50.0, burn_in=1.0, seed=0)
    stats = simulate_ensemble(coop, np.array([1.0, 1.0]), cfg)
    assert np.all(np.isfinite(stats.blowup_time))
    assert np.all(stats.t_end < 50.0)
    assert np.all(stats.y_end.max(axis=1) > cfg.blowup_log_threshold)
    # replayed trajectory reports the same halt and flags its rate estimate
    traj = simulate_path(coop, np.array([1.0, 1.0]), cfg, path_id=2)
    assert traj.blowup_time == stats.blowup_time[2]
    est = empirical_lyapunov(traj, 0)
    assert est.blowup_flagged


def test_extinction_threshold_crossing_recorded():
    dying = parse_model(json.dumps({
        "n": 1, "lv": {"a": [-1.0], "B": [[0.0]], "g": [1.0]},
        "sigma": [[1.0]]}))
    cfg = SimConfig(n_paths=4, t_max=40.0, burn_in=1.0, seed=4)
    stats = simulate_ensemble(dying, X0, cfg)
    assert np.all(np.isfinite(stats.extinct_time))
    assert np.all(stats.extinct_time > 0.0)
    traj = simulate_path(dying, X0, cfg, path_id=1)
    assert traj.extinct_times[0] == stats.extinct_time[1, 0]


def test_occupation_histogram_from_trajectory():
    cfg = SimConfig(n_paths=1, t_max=10.0, burn_in=0.0, seed=6)
    traj = simulate_path(LOGISTIC, X0, cfg)
    h = occupation_histogram(traj, t_start=2.0)
    assert np.isclose(h.masses.sum(), 1.0)
    assert 0.5 < h.mean(0) < 4.0
    with pytest.raises(ValueError):
        occupation_histogram(traj, t_start=10.0)


def test_window_histograms_cover_disjoint_spans():
    cfg = SimConfig(n_paths=4, t_max=12.0, burn_in=2.0, seed=8, n_windows=4)
    stats = simulate_ensemble(LOGISTIC, X0, cfg)
    assert len(stats.window_histograms) == 4
    total = sum(w.total_weight for w in stats.window_histograms)
    assert np.isclose(total, stats.histogram.total_weight)


def test_grid_spec_edges():
    g = GridSpec(lo=-2.0, hi=2.0, bins=4)
    assert np.allclose(g.edges(), [-2.0, -1.0, 0.0, 1.0, 2.0])


# -- stored paths run as one block --------------------------------------------

COOP = parse_model(json.dumps({
    "n": 2, "lv": {"a": [2.0, 2.0], "B": [[-1.0, 2.0], [2.0, -1.0]],
                   "g": [1.0, 1.0]}, "sigma": np.eye(2).tolist()}))


def expr_model(g):
    """Competitive 2-species LV dynamics written as expressions."""
    return parse_model(json.dumps({
        "n": 2, "general": {"f": ["3 - 2*x1 - x2", "3 - x1 - 2*x2"], "g": g},
        "sigma": [[1.0, 0.3], [0.3, 1.0]]}))


def assert_same_trajectory(a, b):
    assert a.path_id == b.path_id
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.log_states, b.log_states)
    assert a.blowup_time == b.blowup_time
    assert np.array_equal(a.extinct_times, b.extinct_times, equal_nan=True)
    assert a.error == b.error


@pytest.mark.parametrize("model,cfg", [
    (expr_model(["1", "0.5 + 0.1*x1"]),
     SimConfig(n_paths=6, t_max=12.0, dt=1e-2, burn_in=1.0, seed=3)),
    (COOP, SimConfig(n_paths=6, t_max=50.0, burn_in=1.0, seed=0)),
])
def test_simulate_paths_matches_single_path_runs(monkeypatch, model, cfg):
    monkeypatch.setattr(engine, "_BLOCK", 4)      # ids 1..6 in two ragged blocks
    ids = range(1, 7)
    block = engine.simulate_paths(model, np.ones(2), cfg, ids)
    assert [t.path_id for t in block] == list(ids)
    for traj in block:
        assert_same_trajectory(traj, simulate_path(model, np.ones(2), cfg, traj.path_id))
    if model is COOP:
        # every path blew up, at different steps, while the block kept going
        assert all(t.blowup_time is not None for t in block)
        assert len({t.times.shape[0] for t in block}) > 1


def test_aborted_path_carries_its_error():
    # species 1 aborts once x1 passes 4; the other paths run to the end
    m = parse_model(json.dumps({
        "n": 2, "general": {"f": ["1 - 0.2*x1", "1 - x2"],
                            "g": ["sqrt(4 - x1)", "1"]},
        "sigma": np.eye(2).tolist()}))
    cfg = SimConfig(n_paths=6, t_max=20.0, dt=1e-2, burn_in=1.0, seed=2)
    trajs = engine.simulate_paths(m, np.ones(2), cfg, range(6))
    aborted = [t for t in trajs if t.error is not None]
    assert aborted and len(aborted) < len(trajs)
    for traj in aborted:
        assert "sqrt of negative argument in 'sqrt(4 - x1)'" in traj.error
        assert traj.t_end < cfg.t_max
        with pytest.raises(EngineError) as exc:
            simulate_path(m, np.ones(2), cfg, traj.path_id)
        assert str(exc.value) == traj.error


def count_calls(monkeypatch, name):
    calls = []
    orig = getattr(engine.KolmogorovModel, name)

    def counted(self, x):
        calls.append(1)
        return orig(self, x)

    monkeypatch.setattr(engine.KolmogorovModel, name, counted)
    return calls


def test_variable_free_noise_runs_as_constant_noise(monkeypatch):
    # "1" is a constant amplitude and never evaluated while stepping;
    # "1 + 0*x1" holds a variable and is evaluated every step
    cfg = SimConfig(n_paths=10, t_max=6.0, dt=1e-2, burn_in=1.0, seed=5)
    ref = simulate_ensemble(expr_model(["1", "1 + 0*x1"]), np.ones(2), cfg)
    monkeypatch.setattr(engine, "_BLOCK", 4)
    calls = count_calls(monkeypatch, "noise_amp_at")
    model = expr_model(["1", "1"])
    assert isinstance(model.noise, engine.ConstantNoise)
    stats = simulate_ensemble(model, np.ones(2), cfg)
    assert calls == []
    for name in ("y_end", "t_end", "y_burn", "exponents", "mean_state",
                 "mean_sq_state", "path_mean_state"):
        assert np.array_equal(getattr(stats, name), getattr(ref, name),
                              equal_nan=True), name
    assert np.array_equal(stats.histogram.masses, ref.histogram.masses)


def test_halted_block_stops_stepping(monkeypatch):
    cfg = SimConfig(n_paths=8, t_max=50.0, burn_in=1.0, seed=0)
    calls = count_calls(monkeypatch, "drift_at")
    stats = simulate_ensemble(COOP, np.ones(2), cfg)
    last_halt = int(np.rint(stats.t_end / cfg.dt).max())
    assert last_halt < engine._CHUNK          # every path halted in the first chunk
    assert len(calls) <= last_halt
