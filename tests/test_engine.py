import json
import tracemalloc
import warnings

import numpy as np
import pytest

from stokolmo import engine
from stokolmo.engine import (EngineError, SimConfig, simulate_ensemble,
                             simulate_path)
from stokolmo.model import _Expressions, load_model, parse_model
from tests.conftest import model_path
from tests.test_expressions import reference_eval

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
    with pytest.raises(EngineError):
        SimConfig(dt=0.0)
    with pytest.raises(EngineError):
        SimConfig(burn_in=10.0, t_max=5.0)
    with pytest.raises(EngineError):
        SimConfig(n_paths=0)
    for field, value in (("dt", np.nan), ("dt", np.inf), ("t_max", np.inf),
                         ("t_max", np.nan), ("t_max", -np.inf)):
        with pytest.raises(EngineError, match=f"^{field} must be finite$"):
            SimConfig(**{field: value})
    with pytest.raises(EngineError, match="finite step count"):
        SimConfig(dt=1e-320, t_max=1e10)


def test_bad_x0_rejected():
    cfg = SimConfig(n_paths=1, t_max=1.0, burn_in=0.0)
    for x0 in ([1.0, 1.0], [0.0], [-1.0], [np.inf]):
        with pytest.raises(EngineError):
            simulate_ensemble(LOGISTIC, np.array(x0, dtype=float), cfg)


def cap_width(monkeypatch, width, n):
    """Set the block byte cap so blocks of ``n`` species hold at most ``width`` paths."""
    monkeypatch.setattr(engine, "_BLOCK_BYTES", engine._CHUNK * 8 * n * width)


def test_block_width_cannot_change_results(monkeypatch):
    # 19 blocks against 3, and one path per block (one species) against one block
    for model, n_paths, widths in ((LOGISTIC, 130, (7, 64)), (corr_model(0.5), 130, (7, 64)),
                                   (LOGISTIC, 8, (1, 8))):
        cfg = SimConfig(n_paths=n_paths, t_max=6.0, burn_in=1.0, seed=42)
        x0 = np.ones(model.n)
        runs = []
        for width in widths:
            cap_width(monkeypatch, width, model.n)
            runs.append(simulate_ensemble(model, x0, cfg))
        a, b = runs
        for name in ("y_end", "t_end", "y_burn", "exponents", "mean_state",
                     "path_mean_state"):
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


def test_path_replay_matches_ensemble_member(monkeypatch):
    cap_width(monkeypatch, 64, LOGISTIC.n)
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
    masses = stats.histogram.masses[0]
    assert masses[0] + masses[-1] < 1e-6


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
    assert np.all(stats.y_end.max(axis=1) > engine.BLOWUP_LOG_THRESHOLD)
    # the replayed trajectory reports the same halt
    traj = simulate_path(coop, np.array([1.0, 1.0]), cfg, path_id=2)
    assert traj.blowup_time == stats.blowup_time[2]


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


def test_window_histograms_cover_disjoint_spans():
    cfg = SimConfig(n_paths=4, t_max=12.0, burn_in=2.0, seed=8)
    stats = simulate_ensemble(LOGISTIC, X0, cfg)
    assert len(stats.window_histograms) == 4
    total = sum(w.total_weight for w in stats.window_histograms)
    assert np.isclose(total, stats.histogram.total_weight)


def test_grid_spec_edges():
    stats = simulate_ensemble(LOGISTIC, X0, SimConfig(n_paths=1, t_max=1.0, burn_in=0.0))
    edges = stats.histogram.edges
    # 540 bins of width 0.1 from -22 to 32, with the bits of lo + width * k
    assert np.array_equal(edges, -22.0 + 0.1 * np.arange(541))
    assert np.isclose(edges[-1], 32.0, rtol=0.0, atol=1e-12)
    for win in stats.window_histograms:
        assert win.same_grid(stats.histogram)


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
def test_stored_paths_match_single_path_runs(monkeypatch, model, cfg):
    cap_width(monkeypatch, 4, model.n)            # paths 0..5 in two blocks
    ids = range(cfg.n_paths - 1)                  # all of one block, part of the other
    block = simulate_ensemble(model, np.ones(2), cfg, keep=len(ids)).paths
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
    trajs = simulate_ensemble(m, np.ones(2), cfg, keep=6).paths
    aborted = [t for t in trajs if t.error is not None]
    assert aborted and len(aborted) < len(trajs)
    for traj in aborted:
        assert "sqrt of negative argument in 'sqrt(4 - x1)'" in traj.error
        assert traj.t_end < cfg.t_max
        with pytest.raises(EngineError) as exc:
            simulate_path(m, np.ones(2), cfg, traj.path_id)
        assert str(exc.value) == traj.error


def test_aborted_paths_keep_every_bit_across_block_widths(monkeypatch):
    # species 1 aborts once x1 passes 4: 11 of the 12 paths abort, two of
    # them in the second chunk
    m = parse_model(json.dumps({
        "n": 2, "general": {"f": ["1 - 0.4*x1", "1 - x2"],
                            "g": ["0.5*sqrt(4 - x1)", "1"]},
        "sigma": np.eye(2).tolist()}))
    cfg = SimConfig(n_paths=12, t_max=60.0, dt=1e-2, burn_in=0.5, seed=3)
    runs = []
    for width in (1, 7, cfg.n_paths):
        cap_width(monkeypatch, width, m.n)
        runs.append(simulate_ensemble(m, np.ones(2), cfg))
    ref = runs[0]
    assert 0 < len(ref.path_errors) < cfg.n_paths
    assert ref.t_end[list(ref.path_errors)].max() > engine._CHUNK * cfg.dt
    for other in runs[1:]:
        for name in ("y_end", "t_end", "y_burn", "extinct_time", "exponents",
                     "mean_state", "path_mean_state"):
            assert np.array_equal(getattr(ref, name), getattr(other, name),
                                  equal_nan=True), name
        assert np.array_equal(ref.histogram.masses, other.histogram.masses)
        for wa, wb in zip(ref.window_histograms, other.window_histograms):
            assert np.array_equal(wa.masses, wb.masses)
        assert ref.path_errors == other.path_errors
    # the occupation sums see each path's stored states up to its abort
    trajs = simulate_ensemble(m, np.ones(2), cfg, keep=cfg.n_paths).paths
    for traj in trajs:
        kept = traj.log_states[cfg.burn_steps + 1:]
        if traj.error is not None:
            kept = kept[:-1]          # the abort step repeats the last state
        assert np.allclose(np.exp(kept).mean(axis=0),
                           ref.path_mean_state[traj.path_id], rtol=1e-12, atol=0)
    assert {t.path_id: t.error for t in trajs if t.error} == ref.path_errors


def test_nan_state_aborts_the_path_at_the_first_step():
    # inf - inf: the state is nan after one step
    m = parse_model(json.dumps({
        "n": 1, "general": {"f": ["x1*1e308*10 - x1*1e308*10 + 1 - x1"], "g": ["1"]},
        "sigma": [[1]]}))
    cfg = SimConfig(n_paths=1, t_max=1.0, burn_in=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        traj, = simulate_ensemble(m, X0, cfg, keep=1).paths
    assert traj.error == ("non-finite state at t=0.001: drift or noise "
                          "evaluated to inf or nan")
    assert np.array_equal(traj.times, [0.0, 0.001])
    assert np.array_equal(traj.log_states, [[0.0], [0.0]])


def test_nan_state_aborts_only_its_path(monkeypatch):
    # x1 * 1e308 * 2 overflows once x1 passes about 0.9, and the drift of
    # species 1 turns inf - inf = nan there; each path is aborted at the
    # step its state turns nan, keeps its last finite state, and no nan
    # reaches the block's statistics
    m = parse_model(json.dumps({
        "n": 2, "general": {"f": ["1 - x1 + (x1*1e308*2 - x1*1e308*2)", "1 - x2"],
                            "g": ["0.3", "1"]},
        "sigma": np.eye(2).tolist()}))
    x0 = np.array([0.5, 1.0])
    cfg = SimConfig(n_paths=8, t_max=20.0, dt=1e-2, burn_in=0.5, seed=1)
    runs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for width in (1, 3, cfg.n_paths):
            cap_width(monkeypatch, width, m.n)
            runs.append(simulate_ensemble(m, x0, cfg, keep=cfg.n_paths))
        trajs = runs[0].paths
    ref = runs[0]
    for other in runs[1:]:
        for name in ("y_end", "t_end", "path_mean_state", "mean_state"):
            assert np.array_equal(getattr(ref, name), getattr(other, name)), name
        assert other.path_errors == ref.path_errors
    assert len(ref.path_errors) > 1
    assert len(set(ref.t_end)) > 1
    assert np.all(np.isfinite(ref.mean_state))
    assert np.all(np.isfinite(ref.histogram.masses))
    for traj in trajs:
        msg = ref.path_errors[traj.path_id]
        assert traj.error == msg and msg.startswith("non-finite state at t=")
        assert traj.t_end == ref.t_end[traj.path_id] < cfg.t_max
        assert np.all(np.isfinite(traj.log_states))
        # the abort step repeats the last finite state, which is terminal
        assert np.array_equal(traj.log_states[-1], traj.log_states[-2])
        assert np.array_equal(traj.log_states[-1], ref.y_end[traj.path_id])


# sqrt(x1 - 1.5) is undefined at X = 1, where halted paths were once parked
UNDEFINED_AT_ONE = parse_model(json.dumps({
    "n": 1, "general": {"f": ["1 - 0.2*x1"], "g": ["sqrt(x1 - 1.5)"]},
    "sigma": [[1]]}))


def test_each_path_keeps_its_own_error_where_x_1_is_undefined(monkeypatch):
    x0 = np.array([3.0])
    cfg = SimConfig(n_paths=4, t_max=20.0, dt=1e-2, burn_in=1.0, seed=0)
    stats = simulate_ensemble(UNDEFINED_AT_ONE, x0, cfg, keep=4)
    assert sorted(stats.path_errors) == [0, 1, 2, 3]
    assert sorted(stats.t_end) == [1.19, 2.13, 3.83, 5.89]
    cap_width(monkeypatch, 1, 1)                  # each path in its own block
    alone = simulate_ensemble(UNDEFINED_AT_ONE, x0, cfg, keep=4)
    for traj, own in zip(stats.paths, alone.paths):
        assert_same_trajectory(traj, own)
        assert traj.error == stats.path_errors[traj.path_id]
        assert "sqrt of negative argument" in traj.error
        with pytest.raises(EngineError) as exc:
            simulate_path(UNDEFINED_AT_ONE, x0, cfg, traj.path_id)
        assert str(exc.value) == traj.error


# drift and noise share the restriction x1 <= 4
SHARED_RESTRICTION = parse_model(json.dumps({
    "n": 1, "general": {"f": ["sqrt(4 - x1) - 0.2*x1"], "g": ["0.5*sqrt(4 - x1)"]},
    "sigma": [[1]]}))


def test_a_drift_abort_skips_the_noise_of_its_step(monkeypatch):
    # a path that crosses x1 = 4 fails in the drift; the noise of that step
    # is not evaluated at its state, even when it was the last live path
    cfg = SimConfig(n_paths=4, t_max=20.0, dt=1e-2, burn_in=1.0, seed=0)
    runs = []
    for width in (1, 4):
        cap_width(monkeypatch, width, 1)
        runs.append(simulate_ensemble(SHARED_RESTRICTION, np.ones(1), cfg, keep=4))
    alone, block = runs
    assert sorted(block.path_errors) == [0, 1, 2, 3]
    assert len(set(block.t_end)) == 4
    assert block.path_errors == alone.path_errors
    for traj, own in zip(block.paths, alone.paths):
        assert_same_trajectory(traj, own)
        assert traj.error == block.path_errors[traj.path_id]
        assert traj.error.startswith("domain error evaluating drift at t=")
        assert "sqrt of negative argument in 'sqrt(4 - x1)'" in traj.error
        with pytest.raises(EngineError) as exc:
            simulate_path(SHARED_RESTRICTION, np.ones(1), cfg, traj.path_id)
        assert str(exc.value) == traj.error


def test_a_model_undefined_at_x0_aborts_every_path_at_step_1():
    cfg = SimConfig(n_paths=3, t_max=1.0, dt=1e-2, burn_in=0.5)
    stats = simulate_ensemble(UNDEFINED_AT_ONE, np.ones(1), cfg, keep=3)
    assert list(stats.t_end) == [cfg.dt] * 3
    for traj in stats.paths:
        assert traj.error.startswith("domain error evaluating noise at t=0.01: ")
        assert np.array_equal(traj.log_states, [[0.0], [0.0]])
    # drift and noise both undefined at x0, both defined at X = 1
    both = parse_model(json.dumps({
        "n": 1, "general": {"f": ["sqrt(x1 - 1.5) - x1"], "g": ["sqrt(x1 - 1.5)"]},
        "sigma": [[1]]}))
    stats = simulate_ensemble(both, np.array([1.2]), cfg, keep=3)
    assert list(stats.t_end) == [cfg.dt] * 3
    y0 = np.log(1.2)
    for traj in stats.paths:
        assert traj.error.startswith("domain error evaluating drift at t=0.01: ")
        assert np.array_equal(traj.log_states, [[y0], [y0]])
        with pytest.raises(EngineError) as exc:
            simulate_path(both, np.array([1.2]), cfg, traj.path_id)
        assert str(exc.value) == traj.error


@pytest.mark.parametrize("model,x0,cfg", [
    (UNDEFINED_AT_ONE, [3.0], SimConfig(n_paths=4, t_max=20.0, dt=1e-2, burn_in=1.0)),
    (COOP, [2.0, 0.5], SimConfig(n_paths=6, t_max=50.0, burn_in=1.0)),
    # species 1 overflows to inf - inf = nan once x1 passes about 0.9
    (parse_model(json.dumps({
        "n": 2, "general": {"f": ["1 - x1 + (x1*1e308*2 - x1*1e308*2)", "1 - x2"],
                            "g": ["0.3", "1"]},
        "sigma": np.eye(2).tolist()})),
     [0.5, 1.0], SimConfig(n_paths=8, t_max=20.0, dt=1e-2, burn_in=0.5, seed=1)),
    (SHARED_RESTRICTION, [1.0], SimConfig(n_paths=4, t_max=20.0, dt=1e-2, burn_in=1.0)),
], ids=["domain_error", "blowup", "nan_state", "shared_restriction"])
def test_halted_paths_stay_parked_at_the_start_state(model, x0, cfg):
    y0 = np.log(x0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = engine._run_block(model, y0, cfg, list(range(cfg.n_paths)), cfg.n_paths)
    halts = np.rint(out.t_end / cfg.dt).astype(int)
    last = halts.max()                            # the block stepped up to here
    assert halts.min() < last
    for p, h in enumerate(halts):                 # states after a halt hold the parked path
        assert np.array_equal(out.states[p, h + 1:last + 1],
                              np.broadcast_to(y0, (last - h, model.n))), p
    assert np.all(np.isfinite(out.sum_x))


def test_paths_infinite_at_x0_are_all_aborted_at_step_1_and_stay_parked():
    # the noise is infinite at x0 and 0 at X = 0: at step 1 half the paths
    # turn nan and the rest -inf, and every path is aborted there with x0 as
    # its terminal state; while the block steps on to find the -inf ones at
    # the chunk's end, a parked path's masked step is inf * 0 = nan, where
    # x1^2 would raise were the path not parked again
    model = parse_model(json.dumps({
        "n": 1, "general": {"f": ["1 - x1^2"], "g": ["1e200*x1*1e200"]},
        "sigma": [[1]]}))
    cfg = SimConfig(n_paths=6, t_max=2.0, dt=1e-2, burn_in=0.5)
    y0 = np.log([2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        out = engine._run_block(model, y0, cfg, list(range(cfg.n_paths)), cfg.n_paths)
    assert np.array_equal(out.t_end, np.full(cfg.n_paths, cfg.dt))
    assert out.errors == {p: "non-finite state at t=0.01: drift or noise evaluated "
                             "to inf or nan" for p in range(cfg.n_paths)}
    assert np.array_equal(out.y_end, np.broadcast_to(y0, (cfg.n_paths, 1)))
    assert np.array_equal(out.states[:, :2], np.broadcast_to(y0, (cfg.n_paths, 2, 1)))
    assert np.array_equal(out.sum_x, np.zeros((cfg.n_paths, 1)))
    assert not out.stats_steps.any() and not out.hist_counts.any()


NEG_INF_AT_X0 = parse_model(json.dumps({
    "n": 1, "general": {"f": ["1 - 1e200*x1*1e200"], "g": ["1"]}, "sigma": [[1]]}))
# the drift is about 2 - x1 below x1 = 1.797, where x1*1e308 overflows and
# the drift turns -inf: every path reaches -inf after a while
NEG_INF_LATER = parse_model(json.dumps({
    "n": 1, "general": {"f": ["2 - 1e-308*(x1*1e308)"], "g": ["0.3"]}, "sigma": [[1]]}))


def test_minus_inf_state_aborts_the_path_at_the_first_step():
    cfg = SimConfig(n_paths=1, t_max=1.0, burn_in=0.0)
    with np.errstate(over="ignore"):
        traj, = simulate_ensemble(NEG_INF_AT_X0, [2.0], cfg, keep=1).paths
        with pytest.raises(EngineError) as exc:
            simulate_path(NEG_INF_AT_X0, [2.0], cfg)
    assert traj.error == str(exc.value) == (
        "non-finite state at t=0.001: drift or noise evaluated to inf or nan")
    assert np.array_equal(traj.log_states, np.log([[2.0], [2.0]]))


def test_minus_inf_state_aborts_only_its_path_and_never_reaches_the_sums(monkeypatch):
    x0 = np.array([1.0])
    cfg = SimConfig(n_paths=4, t_max=5.0, burn_in=0.5, seed=0)
    runs = []
    # an invalid cast of -inf to a histogram bin would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            for width in (1, cfg.n_paths):
                cap_width(monkeypatch, width, 1)
                runs.append(simulate_ensemble(NEG_INF_LATER, x0, cfg, keep=cfg.n_paths))
    ref = runs[0]
    for name in ("y_end", "t_end", "y_burn", "path_mean_state", "mean_state"):
        assert np.array_equal(getattr(ref, name), getattr(runs[1], name),
                              equal_nan=True), name
    assert ref.path_errors == runs[1].path_errors
    assert sorted(ref.path_errors) == [0, 1, 2, 3]
    assert len(set(ref.t_end)) == 4 and ref.t_end.max() < cfg.t_max
    assert np.all(np.isfinite(ref.y_end))
    assert np.all(np.isfinite(ref.mean_state))
    assert np.all(np.isfinite(ref.histogram.masses))
    assert ref.histogram.masses[0, 0] == 0.0      # no mass below the grid
    for traj in ref.paths:
        assert traj.error == ref.path_errors[traj.path_id]
        assert traj.error == f"non-finite state at t={traj.t_end:.6g}: drift or noise " \
                             "evaluated to inf or nan"
        assert np.all(np.isfinite(traj.log_states))
        # the abort step repeats the last finite state, which is terminal
        assert np.array_equal(traj.log_states[-1], traj.log_states[-2])
        assert np.array_equal(traj.log_states[-1], ref.y_end[traj.path_id])


def test_blocks_are_the_fewest_near_equal_runs_under_the_cap():
    assert len(engine._blocks(128, 3)) == 1       # the verify budget, one block
    assert engine._blocks(0, 2) == []
    row_bytes = engine._CHUNK * 8
    for n in (1, 2, 3, 5, 40):
        for n_ids in (1, 2, 63, 64, 65, 128, 130, 1000, 5000):
            blocks = engine._blocks(n_ids, n)
            assert [i for b in blocks for i in b] == list(range(n_ids))
            widths = [len(b) for b in blocks]
            assert max(widths) - min(widths) <= 1
            assert max(widths) * n * row_bytes <= engine._BLOCK_BYTES
            if len(blocks) > 1:       # one block fewer would overflow the cap
                fewer = -(-n_ids // (len(blocks) - 1))
                assert fewer * n * row_bytes > engine._BLOCK_BYTES


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
    cap_width(monkeypatch, 4, 2)
    calls = count_calls(monkeypatch, "noise_amp_at")
    model = expr_model(["1", "1"])
    assert isinstance(model.noise, engine.ConstantNoise)
    stats = simulate_ensemble(model, np.ones(2), cfg)
    assert calls == []
    for name in ("y_end", "t_end", "y_burn", "exponents", "mean_state",
                 "path_mean_state"):
        assert np.array_equal(getattr(stats, name), getattr(ref, name),
                              equal_nan=True), name
    assert np.array_equal(stats.histogram.masses, ref.histogram.masses)


class CountingGenerator:
    """A path's generator that counts the rows of normals it hands out."""

    def __init__(self, gen):
        self.gen = gen
        self.rows = 0

    def standard_normal(self, out):
        self.rows += out.shape[0]
        return self.gen.standard_normal(out=out)


def count_draws(monkeypatch):
    """Every generator the engine makes from now on, counting its draws."""
    made = []
    generators = engine._generators

    def counted(seed, path_ids):
        gens = [CountingGenerator(g) for g in generators(seed, path_ids)]
        made.extend(gens)
        return gens

    monkeypatch.setattr(engine, "_generators", counted)
    return made


# COOP's dynamics written as expressions, so each step evaluates drift_at
COOP_EXPR = parse_model(json.dumps({
    "n": 2, "general": {"f": ["2 - x1 + 2*x2", "2 + 2*x1 - x2"], "g": ["1", "1"]},
    "sigma": np.eye(2).tolist()}))


def count_tape_runs(monkeypatch):
    """One entry per run of the expression tapes bound from now on."""
    runs = []
    bind = _Expressions.bind

    def counted(self, rows, out):
        return [lambda: runs.append(1)] + bind(self, rows, out)

    monkeypatch.setattr(_Expressions, "bind", counted)
    return runs


def test_halted_block_stops_stepping(monkeypatch):
    # every path halts early in the first chunk: the block takes no step
    # past the last halt and draws no noise past the sub-chunk holding it.
    # The Lotka-Volterra step computes its drift in place and calls no
    # tape; the expression twin runs its drift tapes once a step, and
    # neither calls drift_at
    cfg = SimConfig(n_paths=8, t_max=50.0, burn_in=1.0, seed=0)
    calls = count_calls(monkeypatch, "drift_at")
    runs = count_tape_runs(monkeypatch)
    gens = count_draws(monkeypatch)
    for model in (COOP, COOP_EXPR):
        calls.clear()
        runs.clear()
        gens.clear()
        stats = simulate_ensemble(model, np.ones(2), cfg)
        last_halt = int(np.rint(stats.t_end / cfg.dt).max())
        assert last_halt < engine._CHUNK - engine._SUB
        assert calls == []
        assert len(runs) == (0 if model.is_lv else last_halt)
        drawn = -(-last_halt // engine._SUB) * engine._SUB
        assert len(gens) == cfg.n_paths
        assert all(g.rows == drawn for g in gens)


@pytest.mark.parametrize("keep", ["stats", "partial"])
@pytest.mark.parametrize("case", ["corr3_lv", "expression_noise", "aborting", "coop_blowup"])
def test_noise_sub_chunks_cannot_change_results(monkeypatch, case, keep):
    # drawing a chunk's noise a row, 7 rows, 512 rows or the whole chunk at
    # a time gives the same bits
    model, n_paths, t_max, _ = REFERENCE_CASES[case]
    cfg = SimConfig(n_paths=n_paths, t_max=t_max, dt=1e-2, burn_in=1.0, seed=3)
    ids = list(range(n_paths))
    k = KEEP[keep](n_paths)
    runs = {}
    for sub in (1, 7, 512, engine._CHUNK):
        monkeypatch.setattr(engine, "_SUB", sub)
        runs[sub] = engine._run_block(model, np.zeros(model.n), cfg, ids, k)
    for sub in (1, 7, 512):
        assert_same_block(runs[sub], runs[engine._CHUNK], cfg.dt, k)


# -- the species-major block against the path-major reference ------------------

def _path_major_step_sum(buf):
    if buf[0].size == 1:
        return np.add.accumulate(buf, axis=0)[-1]
    return buf.sum(axis=0)


def _path_major_block(model, y0, cfg, path_ids, store_states=False):
    """The engine block as it was laid out path-major, (paths, n) states and
    (K, paths, n) chunks with path-by-path noise mixing over every L[i, j];
    kept only as the bit-for-bit reference for ``engine._run_block``."""
    n = model.n
    P = len(path_ids)
    n_steps = cfg.n_steps
    burn_idx = cfg.burn_steps
    dt = cfg.dt
    sqrt_dt = np.sqrt(dt)
    W = engine._N_WINDOWS
    nb = engine._GRID_BINS
    inv_width = 1.0 / engine._GRID_WIDTH
    blow_thr = engine.BLOWUP_LOG_THRESHOLD

    L = model.gamma_t
    half_sig = 0.5 * np.diag(model.sigma)
    const_noise = isinstance(model.noise, engine.ConstantNoise)
    if const_noise:
        g_const = model.noise.g
        ito_const = half_sig * g_const ** 2

    gens = engine._generators(cfg.seed, path_ids)
    Y = np.tile(y0, (P, 1))
    X = np.empty((P, n))
    active = np.ones(P, dtype=bool)
    actf = np.ones((P, 1))
    terminal = np.tile(y0, (P, 1))
    t_end = np.full(P, n_steps * dt)
    halt_step = np.full(P, n_steps + 1, dtype=np.int64)
    blow_time = np.full(P, np.nan)
    extinct_time = np.full((P, n), np.nan)
    pending_ext = np.ones((P, n), dtype=bool)
    y_burn = np.full((P, n), np.nan)
    sum_x = np.zeros((P, n))
    stats_steps = np.zeros(P, dtype=np.int64)
    hist_counts = np.zeros((W, n, nb + 2))
    errors = {}
    states = None
    if store_states:
        states = np.empty((P, n_steps + 1, n))
        states[:, 0] = Y
    if burn_idx == 0:
        y_burn[:] = Y
    n_live = P

    def freeze(rows, step):
        nonlocal n_live
        terminal[rows] = Y[rows]
        t_end[rows] = step * dt
        halt_step[rows] = step
        Y[rows] = 0.0
        active[rows] = False
        actf[rows] = 0.0
        n_live -= len(rows)

    def eval_with_isolation(kind, step):
        nonlocal Y
        fn = model.drift_at if kind == "drift" else model.noise_amp_at
        while True:
            try:
                return fn(X)
            except engine.ExpressionDomainError as exc:
                bad = {}
                for p in range(P):
                    if not active[p]:
                        continue
                    try:
                        fn(X[p])
                    except engine.ExpressionDomainError as path_exc:
                        bad[p] = path_exc
                if not bad:
                    raise EngineError(
                        f"domain error evaluating {kind} at t={step * dt:.6g}: {exc}"
                    ) from exc
                for p, path_exc in bad.items():
                    errors[path_ids[p]] = (
                        f"domain error evaluating {kind} at t={step * dt:.6g}: {path_exc}"
                    )
                rows = np.array(list(bad), dtype=int)
                Y = Y.copy()
                freeze(rows, step)
                X[rows] = 1.0

    windows_len = max(n_steps - burn_idx, 1)
    step = 0
    while step < n_steps:
        K = min(engine._CHUNK, n_steps - step)
        dW = np.empty((K, P, n))
        for p in range(P):
            eps = gens[p].standard_normal((K, n))
            mixed = np.zeros((K, n))
            for j in range(n):
                mixed += eps[:, j:j + 1] * L[:, j]
            dW[:, p, :] = mixed
        if const_noise:
            dW *= g_const
            dW *= sqrt_dt
        ybuf = np.empty((K, P, n))

        for k in range(K):
            gstep = step + k + 1
            np.exp(Y, out=X)
            dY = eval_with_isolation("drift", gstep)
            if const_noise:
                dY -= ito_const
                dY *= dt
                dY += dW[k]
            else:
                G = eval_with_isolation("noise", gstep)
                ito = half_sig * G
                ito *= G
                dY -= ito
                dY *= dt
                G *= dW[k]
                G *= sqrt_dt
                dY += G
            if n_live < P:
                dY *= actf
            Y = np.add(Y, dY, out=ybuf[k])
            if not Y.max() <= blow_thr:
                over = active & (Y.max(axis=1) > blow_thr)
                if over.any():
                    rows = np.flatnonzero(over)
                    blow_time[rows] = gstep * dt
                    freeze(rows, gstep)
            if gstep == burn_idx:
                y_burn[active] = Y[active]
            if store_states:
                states[:, gstep] = Y
            if n_live == 0:
                K = k + 1
                ybuf = ybuf[:K]
                break
        Y = Y.copy()

        gsteps = np.arange(step + 1, step + K + 1)
        valid = gsteps[:, None] < halt_step[None, :]
        stats_mask = valid & (gsteps[:, None] > burn_idx)
        hits = ybuf < engine.EXTINCT_LOG_THRESHOLD
        hits &= valid[:, :, None]
        hits &= pending_ext
        anyhit = hits.any(axis=0)
        if anyhit.any():
            first = hits.argmax(axis=0)
            t_hit = (step + first + 1) * dt
            extinct_time[anyhit] = t_hit[anyhit]
            pending_ext &= ~anyhit
        if stats_mask.any():
            xbuf = np.exp(ybuf, out=dW[:K])
            xbuf *= stats_mask[:, :, None]
            sum_x += _path_major_step_sum(xbuf)
            stats_steps += stats_mask.sum(axis=0)
            wid = np.minimum(((gsteps - burn_idx - 1) * W) // windows_len, W - 1)
            offset = (wid * (nb + 2))[:, None]
            for i in range(n):
                scaled = ybuf[:, :, i] - engine._GRID_LO
                scaled *= inv_width
                idx = scaled.astype(np.int64)
                np.clip(idx, -1, nb, out=idx)
                idx += offset + 1
                hist_counts[:, i] += np.bincount(
                    idx[stats_mask], minlength=W * (nb + 2)).reshape(W, nb + 2)
        step += K
        if n_live == 0:
            break

    ran_out = halt_step > n_steps
    terminal[ran_out] = Y[ran_out]
    if store_states:
        for p in np.flatnonzero(~ran_out):
            states[p, halt_step[p]] = terminal[p]
    return engine._BlockOut(
        y_end=terminal, t_end=t_end, y_burn=y_burn, blow_time=blow_time,
        extinct_time=extinct_time, sum_x=sum_x, stats_steps=stats_steps, hist_counts=hist_counts, states=states,
        errors=errors,
    )


CORR3 = parse_model(json.dumps({
    "n": 3, "lv": {"a": [1.0, 0.8, 0.6],
                   "B": [[-1.0, -0.2, 0.1], [-0.3, -1.0, -0.2], [0.1, -0.1, -1.0]],
                   "g": [0.7, 1.3, 0.9]},
    "sigma": [[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]]}))

ABORTING = parse_model(json.dumps({
    "n": 2, "general": {"f": ["1 - 0.4*x1", "1 - x2"],
                        "g": ["0.5*sqrt(4 - x1)", "1"]},
    "sigma": np.eye(2).tolist()}))

# model, paths, horizon and the two block widths; each run spans two chunks
# unless every path halts in the first
REFERENCE_CASES = {
    "logistic": (LOGISTIC, 5, 45.0, (1, 5)),
    "corr3_lv": (CORR3, 6, 45.0, (6, 4)),
    "holling2d": (load_model(model_path("holling2d")), 6, 45.0, (6, 4)),
    "expression_noise": (expr_model(["1", "0.5 + 0.1*x1"]), 6, 45.0, (6, 4)),
    "coop_blowup": (load_model(model_path("coop_blowup")), 6, 45.0, (6, 4)),
    "aborting": (ABORTING, 12, 60.0, (12, 5)),
}


def assert_same_block(out, ref, dt, keep):
    for name in ("y_end", "t_end", "y_burn", "blow_time", "extinct_time",
                 "sum_x", "stats_steps", "hist_counts"):
        a, b = getattr(out, name), getattr(ref, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert out.errors == ref.errors
    if ref.states is None:
        assert out.states.shape[0] == keep == 0
        return
    assert out.states.shape == (keep,) + ref.states.shape[1:]
    for p in range(keep):                      # rows are filled up to the halt
        filled = int(round(ref.t_end[p] / dt)) + 1
        assert out.states[p, :filled].tobytes() == ref.states[p, :filled].tobytes(), p


# how many leading paths of each block keep their states
KEEP = {"stats": lambda width: 0, "states": lambda width: width,
        "partial": lambda width: min(2, width)}


@pytest.mark.parametrize("keep", list(KEEP))
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_block_keeps_every_bit_of_the_path_major_reference(case, keep):
    model, n_paths, t_max, widths = REFERENCE_CASES[case]
    cfg = SimConfig(n_paths=n_paths, t_max=t_max, dt=1e-2, burn_in=1.0, seed=3)
    y0 = np.zeros(model.n)
    for width in widths:
        t_end, errors = [], {}
        for start in range(0, n_paths, width):
            ids = list(range(start, min(start + width, n_paths)))
            k = KEEP[keep](len(ids))
            out = engine._run_block(model, y0, cfg, ids, k)
            ref = _path_major_block(model, y0, cfg, ids, store_states=k > 0)
            assert_same_block(out, ref, cfg.dt, k)
            t_end.extend(ref.t_end)
            errors.update(ref.errors)
        if case == "coop_blowup":      # every block left its first chunk early
            assert max(t_end) < engine._CHUNK * cfg.dt
        elif case == "aborting":       # some paths abort, some in the second chunk
            assert 0 < len(errors) < n_paths
            assert max(t_end[p] for p in errors) > engine._CHUNK * cfg.dt
        else:
            assert min(t_end) == cfg.t_max > engine._CHUNK * cfg.dt


def node_by_node_bind(self, rows, out):
    """A stand-in for ``_Expressions.bind``: one call that evaluates each
    tree node by node, the evaluation the tapes replace."""
    def run():
        for i, e in enumerate(self.exprs):
            out[i] = reference_eval(e, rows)
    return [run]


@pytest.mark.parametrize("case", ["holling2d", "expression_noise", "aborting"])
def test_expression_block_runs_its_tapes_with_node_by_node_bits(monkeypatch, case):
    # a 4-path block binds its drift and noise tapes once; drift_at and
    # noise_amp_at each evaluate one path's column, only to isolate a
    # domain error.  Every output keeps the bits of node-by-node evaluation
    model, _, t_max, _ = REFERENCE_CASES[case]
    cfg = SimConfig(n_paths=4, t_max=t_max, dt=1e-2, burn_in=1.0, seed=3)
    ids = list(range(cfg.n_paths))
    y0 = np.zeros(model.n)
    drift = count_calls(monkeypatch, "drift_at")
    noise = count_calls(monkeypatch, "noise_amp_at")
    out = engine._run_block(model, y0, cfg, ids, len(ids))
    assert len(drift) + len(noise) <= len(ids) * len(out.errors)
    assert bool(out.errors) == (case == "aborting")
    monkeypatch.setattr(_Expressions, "bind", node_by_node_bind)
    ref = engine._run_block(model, y0, cfg, ids, len(ids))
    assert_same_block(out, ref, cfg.dt, len(ids))


def test_a_chunk_holds_one_buffer():
    # each step writes its state over the noise row it has spent, so a full
    # chunk of a 128-path block peaks near one (_CHUNK, n, paths) buffer
    # plus its (_CHUNK, n, paths) bool extinction mask and small change
    model = load_model(model_path("two_pred_one_prey"))
    cfg = SimConfig(n_paths=128, t_max=41.0, dt=1e-2, burn_in=1.0)
    y0 = np.zeros(model.n)
    tracemalloc.start()
    try:
        engine._run_block(model, y0, cfg, range(128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.n == 3 and cfg.n_steps > engine._CHUNK
    assert peak < 2.5 * engine._CHUNK * model.n * 128 * 8


def test_a_fully_live_chunk_holds_one_buffer():
    # the second chunk is past burn-in and no path halts in it, so its
    # reductions run without masks; its noise is drawn in sub-chunks
    model = load_model(model_path("two_pred_one_prey"))
    cfg = SimConfig(n_paths=128, t_max=82.0, dt=1e-2, burn_in=1.0)
    y0 = np.zeros(model.n)
    tracemalloc.start()
    try:
        out = engine._run_block(model, y0, cfg, range(128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.n == 3 and cfg.n_steps > 2 * engine._CHUNK
    assert out.t_end.min() == cfg.t_max
    assert peak < 2.5 * engine._CHUNK * model.n * 128 * 8
