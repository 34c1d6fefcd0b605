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
