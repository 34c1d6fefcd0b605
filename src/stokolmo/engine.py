"""Monte Carlo integration of stochastic Kolmogorov systems.

The state is integrated in log coordinates Y = ln X with the exact Ito
correction, so positivity holds by construction:

    Y_i <- Y_i + (f_i(X) - sigma_ii g_i(X)^2 / 2) dt + g_i(X) (L xi)_i sqrt(dt)

with L the lower-triangular factor of the noise covariance and xi a
vector of independent standard normals.  Each sample path draws from its
own counter-based stream keyed by (seed, path id), and per-path
arithmetic does not depend on how paths are grouped, so an ensemble
gives bitwise identical results for any block width; all cross-path
reductions happen in fixed path order after the fact.

Paths are stepped in blocks of up to ``_BLOCK`` paths, vectorized
across paths: an ensemble keeps running reductions per block, stored
paths (:func:`simulate_paths`) keep every state.  A path that crosses
the blow-up threshold halts (its terminal state and time are recorded
and it is frozen out of further arithmetic); crossing the extinction
threshold is only flagged, since in log coordinates nothing bad happens
numerically when a species keeps decaying.  Once every path of a block
has halted the block stops stepping at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .expressions import ExpressionDomainError
from .model import ConstantNoise, KolmogorovModel

_CHUNK = 4096   # time steps integrated per noise batch; fixed for reproducibility
_BLOCK = 64     # paths per vectorized block

_MASK64 = (1 << 64) - 1


class EngineError(RuntimeError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Uniform log-space histogram grid shared by all species."""

    lo: float = -22.0
    hi: float = 32.0
    bins: int = 540

    def __post_init__(self):
        if not (self.hi > self.lo and self.bins >= 1):
            raise ValueError("grid needs hi > lo and at least one bin")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.bins

    def edges(self) -> np.ndarray:
        return self.lo + self.width * np.arange(self.bins + 1)


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    t_max: float = 500.0
    burn_in: float = 50.0
    n_paths: int = 200
    seed: int = 0
    blowup_log_threshold: float = 30.0
    extinct_log_threshold: float = -20.0
    n_windows: int = 4
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if not 0.0 <= self.burn_in < self.t_max:
            raise ValueError("need 0 <= burn_in < t_max")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.blowup_log_threshold <= 0.0 or self.extinct_log_threshold >= 0.0:
            raise ValueError("thresholds must bracket zero in log space")
        if self.n_windows < 1:
            raise ValueError("n_windows must be at least 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))

    @property
    def burn_steps(self) -> int:
        return int(round(self.burn_in / self.dt))


@dataclass
class OccupationHistogram:
    """Per-species occupation mass on a shared log-space grid.

    masses[i] has ``bins + 2`` entries: index 0 collects everything below
    the grid, index -1 everything above, so the row always sums to one.
    """

    edges: np.ndarray             # (bins + 1,) log-space bin boundaries
    masses: np.ndarray            # (n_species, bins + 2)
    total_weight: float           # accumulated time behind the masses

    @property
    def n_species(self) -> int:
        return self.masses.shape[0]

    def out_of_range_mass(self, i: int) -> float:
        return float(self.masses[i, 0] + self.masses[i, -1])

    def mean(self, i: int) -> float:
        """Occupation mean of X_i from interior bin centers (log-space midpoints)."""
        inner = self.masses[i, 1:-1]
        total = inner.sum()
        if total <= 0.0:
            return float("nan")
        centers = np.exp(0.5 * (self.edges[:-1] + self.edges[1:]))
        return float(np.dot(inner, centers) / total)

    def same_grid(self, other: "OccupationHistogram") -> bool:
        return (self.masses.shape == other.masses.shape
                and np.array_equal(self.edges, other.edges))


@dataclass
class Trajectory:
    """One stored sample path in log coordinates."""

    times: np.ndarray             # (steps + 1,)
    log_states: np.ndarray        # (steps + 1, n)
    x0: np.ndarray
    dt: float
    path_id: int
    seed: int
    blowup_time: float | None     # time integration halted, None if it ran out
    extinct_times: np.ndarray     # (n,) first crossing of the extinction threshold, nan if never
    error: str | None = None      # why the path was aborted, None if it was not

    @property
    def n_species(self) -> int:
        return self.log_states.shape[1]

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def states(self) -> np.ndarray:
        """Linear-space states exp(Y); deep extinction may underflow to 0.0 here."""
        return np.exp(self.log_states)


class RateEstimate(NamedTuple):
    rate: float
    blowup_flagged: bool


@dataclass
class EnsembleStats:
    """Fixed-order aggregates over an ensemble; never depends on scheduling."""

    cfg: SimConfig
    x0: np.ndarray
    y_end: np.ndarray             # (P, n) terminal log states (overshoot kept for blown paths)
    t_end: np.ndarray             # (P,)
    y_burn: np.ndarray            # (P, n) log state at the burn-in step, nan if halted earlier
    blowup_time: np.ndarray       # (P,) nan if never
    extinct_time: np.ndarray      # (P, n) nan if never
    exponents: np.ndarray         # (P, n) (y_end - y_burn) / (t_end - burn_in)
    histogram: OccupationHistogram
    window_histograms: list[OccupationHistogram]
    mean_state: np.ndarray        # (n,) pooled post-burn-in time average of X
    mean_sq_state: np.ndarray     # (n,)
    path_mean_state: np.ndarray   # (P, n) per-path post-burn-in time average of X
    stats_time: float             # pooled time behind mean_state
    path_errors: dict[int, str]   # path id -> evaluation error, for aborted paths

    @property
    def n_paths(self) -> int:
        return self.y_end.shape[0]

    def exponent_summary(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard error per species over clean (not halted) paths."""
        ok = np.isnan(self.blowup_time)
        ok &= ~np.isnan(self.exponents).any(axis=1)
        rates = self.exponents[ok]
        if rates.shape[0] == 0:
            n = self.y_end.shape[1]
            return np.full(n, np.nan), np.full(n, np.nan)
        mean = rates.mean(axis=0)
        if rates.shape[0] > 1:
            se = rates.std(axis=0, ddof=1) / np.sqrt(rates.shape[0])
        else:
            se = np.full_like(mean, np.nan)
        return mean, se


def _generators(seed: int, path_ids: Sequence[int]):
    return [
        np.random.Generator(np.random.Philox(
            key=np.array([seed & _MASK64, pid & _MASK64], dtype=np.uint64)))
        for pid in path_ids
    ]


@dataclass
class _BlockOut:
    y_end: np.ndarray
    t_end: np.ndarray
    y_burn: np.ndarray
    blow_time: np.ndarray
    extinct_time: np.ndarray
    sum_x: np.ndarray
    sum_x2: np.ndarray
    stats_steps: np.ndarray
    hist_counts: np.ndarray       # (windows, n, bins + 2)
    states: np.ndarray | None     # (P, n_steps + 1, n), filled up to each halt step
    errors: dict[int, str]


def _freeze(rows, Y, terminal, t_end, halt_step, active, step, dt):
    terminal[rows] = Y[rows]
    t_end[rows] = step * dt
    halt_step[rows] = step
    Y[rows] = 0.0            # park frozen rows at a harmless state
    active[rows] = False


def _run_block(model: KolmogorovModel, y0: np.ndarray, cfg: SimConfig,
               path_ids: Sequence[int], store_states: bool = False) -> _BlockOut:
    n = model.n
    P = len(path_ids)
    n_steps = cfg.n_steps
    burn_idx = cfg.burn_steps
    dt = cfg.dt
    sqrt_dt = np.sqrt(dt)
    W = cfg.n_windows
    grid = cfg.grid
    nb = grid.bins
    inv_width = 1.0 / grid.width

    L = model.gamma_t
    sig_diag = np.diag(model.sigma).copy()
    const_noise = isinstance(model.noise, ConstantNoise)
    if const_noise:
        g_const = model.noise.g
        ito_const = 0.5 * sig_diag * g_const ** 2

    gens = _generators(cfg.seed, path_ids)
    Y = np.tile(y0, (P, 1))
    active = np.ones(P, dtype=bool)
    actf = active.astype(float)
    terminal = np.tile(y0, (P, 1))
    t_end = np.full(P, n_steps * dt)
    halt_step = np.full(P, n_steps + 1, dtype=np.int64)
    blow_time = np.full(P, np.nan)
    extinct_time = np.full((P, n), np.nan)
    pending_ext = np.ones((P, n), dtype=bool)
    y_burn = np.full((P, n), np.nan)
    sum_x = np.zeros((P, n))
    sum_x2 = np.zeros((P, n))
    stats_steps = np.zeros(P, dtype=np.int64)
    hist_counts = np.zeros((W, n, nb + 2))
    errors: dict[int, str] = {}
    states = None
    if store_states:
        states = np.empty((P, n_steps + 1, n))
        states[:, 0] = Y
    if burn_idx == 0:
        y_burn[:] = Y

    def eval_with_isolation(kind: str, X: np.ndarray, step: int):
        """Evaluate drift or noise amplitude; on a domain error, find the
        offending paths by scalar re-evaluation, abort just those, retry."""
        fn = model.drift_at if kind == "drift" else model.noise_amp_at
        while True:
            try:
                return fn(X)
            except ExpressionDomainError as exc:
                # each path keeps its own error, so messages ignore the block layout
                bad = {}
                for p in range(P):
                    if not active[p]:
                        continue
                    try:
                        fn(X[p])
                    except ExpressionDomainError as path_exc:
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
                _freeze(rows, Y, terminal, t_end, halt_step, active, step, dt)
                actf[:] = active.astype(float)
                X[rows] = 1.0  # parked state, consistent with Y = 0

    windows_len = max(n_steps - burn_idx, 1)
    step = 0
    while step < n_steps:
        K = min(_CHUNK, n_steps - step)
        eps = np.empty((K, P, n))
        for p in range(P):
            eps[:, p, :] = gens[p].standard_normal((K, n))
        # mix channels: (L xi)_i = sum_j L[i, j] xi_j, kept as broadcast adds
        # so every path sees scalar-identical arithmetic in any block shape
        mixed = np.zeros((K, P, n))
        for j in range(n):
            mixed += eps[:, :, j:j + 1] * L[:, j]
        if const_noise:
            mixed *= g_const
        ybuf = np.empty((K, P, n))

        for k in range(K):
            gstep = step + k + 1
            X = np.exp(Y)
            F = eval_with_isolation("drift", X, gstep)
            if const_noise:
                dY = (F - ito_const) * dt + mixed[k] * sqrt_dt
            else:
                G = eval_with_isolation("noise", X, gstep)
                dY = (F - 0.5 * sig_diag * G * G) * dt + G * mixed[k] * sqrt_dt
            Y += dY * actf[:, None]
            over = active & (Y.max(axis=1) > cfg.blowup_log_threshold)
            if over.any():
                rows = np.flatnonzero(over)
                blow_time[rows] = gstep * dt
                _freeze(rows, Y, terminal, t_end, halt_step, active, gstep, dt)
                actf[:] = active.astype(float)
            if gstep == burn_idx:
                y_burn[active] = Y[active]
            ybuf[k] = Y
            if store_states:
                states[:, gstep] = Y
            if not active.any():
                # every path halted: the remaining steps would all be masked out
                K = k + 1
                ybuf = ybuf[:K]
                break

        gsteps = np.arange(step + 1, step + K + 1)
        valid = gsteps[:, None] < halt_step[None, :]          # (K, P)
        stats_mask = valid & (gsteps[:, None] > burn_idx)
        # extinction first hits, only while a path is live
        hits = (ybuf < cfg.extinct_log_threshold) & valid[:, :, None] & pending_ext[None, :, :]
        anyhit = hits.any(axis=0)
        if anyhit.any():
            first = hits.argmax(axis=0)
            t_hit = (step + first + 1) * dt
            extinct_time[anyhit] = t_hit[anyhit]
            pending_ext &= ~anyhit
        # occupation and moment accumulation over post-burn-in live steps
        if stats_mask.any():
            wmask = stats_mask
            xbuf = np.exp(ybuf)
            wf = wmask.astype(float)[:, :, None]
            sum_x += (xbuf * wf).sum(axis=0)
            sum_x2 += (xbuf * xbuf * wf).sum(axis=0)
            stats_steps += wmask.sum(axis=0)
            idx = np.clip(((ybuf - grid.lo) * inv_width).astype(np.int64), -1, nb) + 1
            wid = np.minimum(((gsteps - burn_idx - 1) * W) // windows_len, W - 1)
            for w in range(W):
                sel = wmask & (wid[:, None] == w)
                if not sel.any():
                    continue
                flat_sel = sel.ravel()
                for i in range(n):
                    hist_counts[w, i] += np.bincount(
                        idx[:, :, i].ravel()[flat_sel], minlength=nb + 2
                    )
        step += K
        if not active.any():
            break

    # paths that ran to the horizon keep their final state as terminal
    ran_out = halt_step > n_steps
    terminal[ran_out] = Y[ran_out]
    if store_states:
        # a halted row stored the parked value at its halt step; rewrite it
        for p in np.flatnonzero(~ran_out):
            states[p, halt_step[p]] = terminal[p]
    return _BlockOut(
        y_end=terminal, t_end=t_end, y_burn=y_burn, blow_time=blow_time,
        extinct_time=extinct_time, sum_x=sum_x, sum_x2=sum_x2,
        stats_steps=stats_steps, hist_counts=hist_counts, states=states,
        errors=errors,
    )


def _check_x0(model: KolmogorovModel, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n,):
        raise EngineError(f"x0 must have {model.n} components")
    if not np.all(np.isfinite(x0)) or np.any(x0 <= 0.0):
        raise EngineError("x0 must be finite and strictly positive")
    return x0


def simulate_paths(model: KolmogorovModel, x0, cfg: SimConfig,
                   path_ids: Sequence[int]) -> list[Trajectory]:
    """Integrate the given paths, storing each full log-space trajectory.

    Paths run together, ``_BLOCK`` at a time, and each is bitwise
    identical to the same member of an ensemble run with the same seed,
    because its noise stream is keyed by (seed, path id) alone.  A block
    holds every state while it runs, (n_steps + 1) x paths x n floats:
    4 paths of a 2-species face over 500 000 steps take 32 MB.  A path
    aborted by a domain error comes back cut at the abort, with
    ``error`` set.
    """
    x0 = _check_x0(model, x0)
    y0 = np.log(x0)
    ids = list(path_ids)
    times = cfg.dt * np.arange(cfg.n_steps + 1)
    trajs = []
    for s in range(0, len(ids), _BLOCK):
        block = ids[s:s + _BLOCK]
        out = _run_block(model, y0, cfg, block, store_states=True)
        for p, pid in enumerate(block):
            halt_steps = int(round(out.t_end[p] / cfg.dt))
            blow = out.blow_time[p]
            trajs.append(Trajectory(
                times=times[: halt_steps + 1],
                log_states=out.states[p, : halt_steps + 1],
                x0=x0, dt=cfg.dt, path_id=pid, seed=cfg.seed,
                blowup_time=None if np.isnan(blow) else float(blow),
                extinct_times=out.extinct_time[p].copy(),
                error=out.errors.get(pid),
            ))
    return trajs


def simulate_path(model: KolmogorovModel, x0, cfg: SimConfig,
                  path_id: int = 0) -> Trajectory:
    """:func:`simulate_paths` for one path; an aborted path raises."""
    traj = simulate_paths(model, x0, cfg, [path_id])[0]
    if traj.error is not None:
        raise EngineError(traj.error)
    return traj


def simulate_ensemble(model: KolmogorovModel, x0, cfg: SimConfig) -> EnsembleStats:
    """Integrate ``cfg.n_paths`` independent paths from the same start.

    Paths run in blocks of ``_BLOCK``; every reduction below walks blocks
    in fixed order.
    """
    x0 = _check_x0(model, x0)
    y0 = np.log(x0)
    P = cfg.n_paths
    ranges = [range(s, min(s + _BLOCK, P)) for s in range(0, P, _BLOCK)]
    outs = [_run_block(model, y0, cfg, r) for r in ranges]

    y_end = np.vstack([o.y_end for o in outs])
    t_end = np.concatenate([o.t_end for o in outs])
    y_burn = np.vstack([o.y_burn for o in outs])
    blow_time = np.concatenate([o.blow_time for o in outs])
    extinct_time = np.vstack([o.extinct_time for o in outs])
    sum_x = np.vstack([o.sum_x for o in outs])
    stats_steps = np.concatenate([o.stats_steps for o in outs])
    sum_x2 = np.vstack([o.sum_x2 for o in outs])
    errors: dict[int, str] = {}
    for o in outs:
        errors.update(o.errors)

    hist_counts = outs[0].hist_counts.copy()
    for o in outs[1:]:
        hist_counts += o.hist_counts

    denom = np.maximum(t_end - cfg.burn_in, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        exponents = np.where(denom[:, None] > 0.0,
                             (y_end - y_burn) / denom[:, None], np.nan)
        path_mean = np.where(stats_steps[:, None] > 0,
                             sum_x / np.maximum(stats_steps, 1)[:, None], np.nan)

    total_steps = int(stats_steps.sum())
    if total_steps > 0:
        mean_state = sum_x.sum(axis=0) / total_steps
        mean_sq = sum_x2.sum(axis=0) / total_steps
    else:
        mean_state = np.full(model.n, np.nan)
        mean_sq = np.full(model.n, np.nan)

    edges = cfg.grid.edges()
    windows = []
    for w in range(cfg.n_windows):
        counts = hist_counts[w]
        tot = counts.sum(axis=1, keepdims=True)
        masses = np.divide(counts, np.maximum(tot, 1.0))
        windows.append(OccupationHistogram(
            edges=edges, masses=masses,
            total_weight=float(counts[0].sum() * cfg.dt)))
    pooled_counts = hist_counts.sum(axis=0)
    tot = pooled_counts.sum(axis=1, keepdims=True)
    pooled = OccupationHistogram(
        edges=edges,
        masses=np.divide(pooled_counts, np.maximum(tot, 1.0)),
        total_weight=float(pooled_counts[0].sum() * cfg.dt))

    return EnsembleStats(
        cfg=cfg, x0=x0, y_end=y_end, t_end=t_end, y_burn=y_burn,
        blowup_time=blow_time, extinct_time=extinct_time, exponents=exponents,
        histogram=pooled, window_histograms=windows,
        mean_state=mean_state, mean_sq_state=mean_sq,
        path_mean_state=path_mean, stats_time=total_steps * cfg.dt,
        path_errors=errors,
    )


def empirical_lyapunov(traj: Trajectory, i: int, burn_in: float = 0.0) -> RateEstimate:
    """Per-capita growth-rate estimate (Y_i(end) - Y_i(burn)) / elapsed.

    A trajectory that halted on blow-up still yields a number, but the
    estimate is flagged so callers cannot mistake it for a clean rate.
    """
    if not 0 <= i < traj.n_species:
        raise ValueError(f"species index {i} out of range")
    t_end = traj.t_end
    if t_end <= burn_in:
        raise ValueError("trajectory ends before the requested burn-in")
    k0 = int(round(burn_in / traj.dt))
    rate = (traj.log_states[-1, i] - traj.log_states[k0, i]) / (t_end - traj.times[k0])
    return RateEstimate(rate=float(rate), blowup_flagged=traj.blowup_time is not None)


def occupation_histogram(traj: Trajectory, grid: GridSpec | None = None,
                         t_start: float = 0.0,
                         t_end: float | None = None) -> OccupationHistogram:
    """Time-weighted occupation measure of a stored path on a log grid.

    Mass is assigned for states at times in (t_start, t_end]; the initial
    condition carries no mass.  Out-of-grid states land in the under- and
    overflow slots so the masses always sum to one.
    """
    grid = grid or GridSpec()
    if t_end is None:
        t_end = traj.t_end
    if not t_end > t_start:
        raise ValueError("need t_end > t_start")
    k0 = int(np.floor(t_start / traj.dt)) + 1
    k1 = min(int(np.floor(t_end / traj.dt)), traj.log_states.shape[0] - 1)
    if k1 < k0:
        raise ValueError("window contains no steps")
    ys = traj.log_states[k0:k1 + 1]
    nb = grid.bins
    idx = np.clip(((ys - grid.lo) / grid.width).astype(np.int64), -1, nb) + 1
    n = traj.n_species
    masses = np.empty((n, nb + 2))
    for i in range(n):
        counts = np.bincount(idx[:, i], minlength=nb + 2).astype(float)
        masses[i] = counts / counts.sum()
    return OccupationHistogram(edges=grid.edges(), masses=masses,
                               total_weight=float((k1 - k0 + 1) * traj.dt))
