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

Paths are stepped in blocks, vectorized across paths, and every block
keeps running reductions; the leading ``keep`` paths of an ensemble
also keep every state, so stored paths and the ensemble statistics come
from one pass.  A block is laid out species-major: its state is (n, paths)
and each chunk of ``_CHUNK`` time steps holds one float64 (``_CHUNK``, n,
paths) buffer.  Every per-step operation and every per-species constant
or per-path mask runs over contiguous rows of paths.  The paths are split
into the fewest contiguous, near-equal blocks whose buffer fits the
``_BLOCK_BYTES`` cap.

The chunk buffer takes its noise increments ``_SUB`` rows at a time, when
the steps reach them: each path draws its next (``_SUB``, n) standard
normals into one (paths, ``_SUB``, n) buffer, and species i is mixed for
every path at once as 0.0 plus the nonzero L[i, j] xi_j terms in j order;
a zero term would only add a signed zero to a sum that is never -0.0, so
skipping it changes no bit.  Each path draws from its own stream, so eight
draws of 512 rows give the bits of one draw of 4096, and a block whose
paths have all halted draws no more.  Each step writes its log state over
the noise row it has used, and X overwrites the log states once the
chunk's reductions have read them.  A chunk past burn-in in which no path
halts counts every step of every path, so its reductions build no mask.
Lotka-Volterra drift is written in place into buffers made once per
block, summed in the order ``KolmogorovModel.drift_at`` sums it.
Expression drift and state-dependent noise run their compiled tapes,
bound once per block to the rows of X and to (n, paths) buffers; a
polynomial cannot fail, but a tape can, and then ``drift_at`` or
``noise_amp_at`` on each path's column finds the paths to abort.

A path that crosses the blow-up threshold halts (its terminal state and
time are recorded and it is frozen out of further arithmetic); crossing
the extinction threshold is only flagged, since in log coordinates
nothing bad happens numerically when a species keeps decaying.  A path
whose state turns nan (an expression that evaluated to inf - inf, say)
or -inf (a drift that overflowed to -inf) is aborted like a domain error:
its last finite state is terminal and it carries the error.  Halted and
aborted paths are parked at the start state, where step 1 evaluated
drift and noise for every path, so they never raise; a path aborted in
its drift is parked before that step's noise is evaluated.  Once every
path of a block has halted the block stops stepping at once.
What leaves a block (:class:`EnsembleStats`, :class:`Trajectory`) is
path-major again.

The blow-up and extinction thresholds, the occupation grid and the
number of occupation windows are module constants, the same for every
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import StokolmoError
from .expressions import ExpressionDomainError
from .model import ConstantNoise, KolmogorovModel

_CHUNK = 4096   # time steps integrated per noise batch; fixed for reproducibility
_SUB = 512      # chunk rows whose noise is drawn at once, when the steps reach them
_BLOCK_BYTES = 16 << 20   # cap on one (_CHUNK, n, paths) float64 chunk buffer of a block

_MASK64 = (1 << 64) - 1

BLOWUP_LOG_THRESHOLD = 30.0     # a path halts once some ln X_i exceeds this
EXTINCT_LOG_THRESHOLD = -20.0   # ln X_i below this flags species i extinct
_N_WINDOWS = 4                  # successive post-burn-in occupation windows
# uniform log-space occupation grid shared by all species
_GRID_LO = -22.0
_GRID_HI = 32.0
_GRID_BINS = 540
_GRID_WIDTH = (_GRID_HI - _GRID_LO) / _GRID_BINS


class EngineError(StokolmoError):
    pass


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    t_max: float = 500.0
    burn_in: float = 50.0
    n_paths: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("dt", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise EngineError(f"{name} must be finite")
        if self.dt <= 0.0:
            raise EngineError("dt must be positive")
        if not abs(self.t_max / self.dt) < 2.0 ** 63:    # int64 step indices
            raise EngineError("t_max / dt must be a finite step count below 2^63")
        if not 0.0 <= self.burn_in < self.t_max:
            raise EngineError("need 0 <= burn_in < t_max")
        if self.n_paths < 1:
            raise EngineError("n_paths must be at least 1")
        if self.seed < 0:
            raise EngineError("seed must be nonnegative")

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

    def same_grid(self, other: "OccupationHistogram") -> bool:
        return (self.masses.shape == other.masses.shape
                and np.array_equal(self.edges, other.edges))


@dataclass
class Trajectory:
    """One stored sample path in log coordinates."""

    times: np.ndarray             # (steps + 1,)
    log_states: np.ndarray        # (steps + 1, n)
    path_id: int
    blowup_time: float | None     # time integration halted, None if it ran out
    extinct_times: np.ndarray     # (n,) first crossing of the extinction threshold, nan if never
    error: str | None = None      # why the path was aborted, None if it was not

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


@dataclass
class EnsembleStats:
    """Fixed-order aggregates over an ensemble; never depends on scheduling."""

    y_end: np.ndarray             # (P, n) terminal log states (overshoot kept for blown paths)
    t_end: np.ndarray             # (P,)
    y_burn: np.ndarray            # (P, n) log state at the burn-in step, nan if halted earlier
    blowup_time: np.ndarray       # (P,) nan if never
    extinct_time: np.ndarray      # (P, n) nan if never
    exponents: np.ndarray         # (P, n) (y_end - y_burn) / (t_end - burn_in)
    histogram: OccupationHistogram
    window_histograms: list[OccupationHistogram]
    mean_state: np.ndarray        # (n,) pooled post-burn-in time average of X
    path_mean_state: np.ndarray   # (P, n) per-path post-burn-in time average of X
    path_errors: dict[int, str]   # path id -> evaluation error, for aborted paths
    paths: list[Trajectory] = field(default_factory=list)   # stored paths 0 .. keep-1

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
    """One block's results, path-major: (P,) and (P, n) arrays."""

    y_end: np.ndarray
    t_end: np.ndarray
    y_burn: np.ndarray
    blow_time: np.ndarray
    extinct_time: np.ndarray
    sum_x: np.ndarray
    stats_steps: np.ndarray
    hist_counts: np.ndarray       # (windows, n, bins + 2)
    states: np.ndarray            # (keep, n_steps + 1, n), filled up to each halt step
    errors: dict[int, str]


def _step_sum(buf: np.ndarray) -> np.ndarray:
    """Sum a (K, n, P) chunk over its steps, one step after another.  numpy
    adds a wide block row by row, but a (K, 1, 1) one is contiguous along
    the steps and would be summed pairwise, so it is accumulated in order."""
    if buf[0].size == 1:
        return np.add.accumulate(buf, axis=0)[-1]
    return buf.sum(axis=0)


def _nonfinite_error(t: float) -> str:
    return f"non-finite state at t={t:.6g}: drift or noise evaluated to inf or nan"


def _run_block(model: KolmogorovModel, y0: np.ndarray, cfg: SimConfig,
               path_ids: Sequence[int], keep: int = 0) -> _BlockOut:
    """Step the paths ``path_ids`` from ``y0``; the first ``keep`` of them
    also store every state."""
    n = model.n
    P = len(path_ids)
    n_steps = cfg.n_steps
    burn_idx = cfg.burn_steps
    dt = cfg.dt
    # the step's scalar factors as 0-d arrays, which ufuncs take faster
    # than Python floats
    dt_0d = np.array(dt)
    sqrt_dt = np.array(np.sqrt(dt))
    W = _N_WINDOWS
    nb = _GRID_BINS
    inv_width = 1.0 / _GRID_WIDTH
    blow_thr = BLOWUP_LOG_THRESHOLD
    max_reduce = np.maximum.reduce

    L = model.gamma_t
    # the nonzero terms of (L xi)_i, in j order
    mix = [[(j, L[i, j]) for j in range(n) if L[i, j] != 0.0] for i in range(n)]
    half_sig = 0.5 * np.diag(model.sigma)[:, None]
    const_noise = isinstance(model.noise, ConstantNoise)
    if const_noise:
        g = model.noise.g
        ito_const = np.repeat(half_sig * g[:, None] ** 2, P, axis=1)

    gens = _generators(cfg.seed, path_ids)
    Y = np.repeat(y0[:, None], P, axis=1)
    X = np.exp(Y)
    x_park = X[:, :1].copy()      # where step 1 evaluates drift and noise
    active = np.ones(P, dtype=bool)
    actf = np.ones(P)
    terminal = Y.copy()
    t_end = np.full(P, n_steps * dt)
    halt_step = np.full(P, n_steps + 1, dtype=np.int64)
    blow_time = np.full(P, np.nan)
    extinct_time = np.full((n, P), np.nan)
    pending_ext = np.ones((n, P), dtype=bool)
    y_burn = np.full((n, P), np.nan)
    sum_x = np.zeros((n, P))
    stats_steps = np.zeros(P, dtype=np.int64)
    hist_counts = np.zeros((W, n, nb + 2))
    errors: dict[int, str] = {}
    try:
        states = np.empty((keep, n_steps + 1, n))
    except MemoryError:
        raise EngineError(f"cannot store {keep} paths of {n_steps + 1} states "
                          f"of {n} species") from None
    states[:, 0] = y0
    if burn_idx == 0:
        y_burn[:] = Y
    n_live = P    # paths not yet halted; below P the update is masked

    lv = model.is_lv
    F = np.empty((n, P))    # the step's drift
    if lv:
        # f - sigma_ii g_i^2 / 2, written in place: row 0 of ``lv_terms``
        # holds a, row 1 + j holds B[:, j] X_j and the last row the negated
        # Ito constant, summed down the rows in order from -0.0.  So f_i =
        # a_i + B_i0 X_0 + B_i1 X_1 + ... as ``drift_at`` sums it, and
        # adding the negation is subtracting
        lv_terms = np.empty((n + 2, n, P))
        lv_terms[0] = model.drift.a[:, None]
        lv_terms[-1] = -ito_const
        lv_prod = lv_terms[1:-1]
        b_rows = model.drift.B.T[:, :, None]
        x_rows = X[:, None, :]
    else:
        # expression tapes, bound once to the rows of X: drift into F and
        # state-dependent noise into G, each with the per-path evaluation
        # that isolates a domain error
        tapes = {"drift": (model.drift.bind(list(X), F), F, model.drift_at)}
        if not const_noise:
            G = np.empty((n, P))
            tapes["noise"] = (model.noise.bind(list(X), G), G, model.noise_amp_at)

    def freeze(cols, step):
        """Halt the paths ``cols`` at ``step``: record their state, park them
        at y0 and mask them out of further arithmetic.  A path that has
        already halted halts again, at the new step."""
        nonlocal n_live
        n_live -= int(active[cols].sum())
        terminal[:, cols] = Y[:, cols]
        t_end[cols] = step * dt
        halt_step[cols] = step
        Y[:, cols] = y0[:, None]
        active[cols] = False
        actf[cols] = 0.0

    def eval_with_isolation(kind: str, step: int):
        """Run the drift or noise tapes at X; on a domain error, find the
        offending paths by evaluating each path's column alone, abort just
        those, retry."""
        nonlocal Y
        calls, out, fn = tapes[kind]
        while True:
            if n_live == 0:           # every path halted: nothing to evaluate
                out.fill(0.0)
                return out
            try:
                for call in calls:
                    call()
                return out
            except ExpressionDomainError as exc:
                # each path keeps its own error, so messages ignore the block layout
                bad = {}
                for p in range(P):
                    if not active[p]:
                        continue
                    try:
                        fn(X[:, p])
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
                cols = np.array(list(bad), dtype=int)
                # Y views the stored state of the previous step; park a copy
                Y = Y.copy()
                freeze(cols, step)
                X[:, cols] = x_park

    def fill_noise(buf, draw, s0, s1):
        """Write the noise increments of chunk rows s0..s1-1 into ``buf``:
        each path draws its next (s1 - s0, n) standard normals, then
        (L xi)_i is 0.0 plus the nonzero L[i, j] xi_j terms in j order, for
        every path at once; constant noise is scaled by g_i, then sqrt(dt)."""
        d = draw[:, :s1 - s0]
        for p in range(P):
            gens[p].standard_normal(out=d[p])
        for i, terms in enumerate(mix):
            acc = 0.0
            for j, lij in terms:
                acc = acc + d[:, :, j] * lij
            if const_noise:
                acc *= g[i]
                acc *= sqrt_dt
            buf[s0:s1, i] = acc.T

    windows_len = max(n_steps - burn_idx, 1)
    step = 0
    while step < n_steps:
        K = min(_CHUNK, n_steps - step)
        y_start = Y      # the state before the chunk's first step
        buf = np.empty((K, n, P))
        draw = np.empty((P, min(_SUB, K), n))
        for s0 in range(0, K, _SUB):
            s1 = min(s0 + _SUB, K)
            fill_noise(buf, draw, s0, s1)
            for k in range(s0, s1):
                gstep = step + k + 1
                row = buf[k]
                np.exp(Y, out=X)
                if lv:
                    np.multiply(b_rows, x_rows, out=lv_prod)
                    dY = np.add.reduce(lv_terms, axis=0, out=F, initial=-0.0)
                else:
                    dY = eval_with_isolation("drift", gstep)
                    if const_noise:
                        dY -= ito_const
                if const_noise:
                    dY *= dt_0d
                    dY += row
                else:
                    G = eval_with_isolation("noise", gstep)
                    ito = half_sig * G
                    ito *= G
                    dY -= ito
                    dY *= dt_0d
                    G *= row
                    G *= sqrt_dt
                    dY += G
                if n_live < P:
                    dY *= actf
                # the step has spent noise row k; its state takes the row's place
                Y = np.add(Y, dY, out=row)
                # one scalar screen per step; nan fails it too and gets the column test
                if not max_reduce(Y, axis=None) <= blow_thr:
                    top = Y.max(axis=0)
                    over = active & (top > blow_thr)
                    if over.any():
                        cols = np.flatnonzero(over)
                        blow_time[cols] = gstep * dt
                        freeze(cols, gstep)
                    nan = np.isnan(top)
                    if nan.any():
                        cols = np.flatnonzero(nan & active)
                        if cols.size:
                            # aborted like a domain error, the last finite state terminal
                            for p in cols:
                                errors[path_ids[p]] = _nonfinite_error(gstep * dt)
                            freeze(cols, gstep)
                            terminal[:, cols] = (buf[k - 1] if k else y_start)[:, cols]
                        # inf * 0 is nan: where a drift or noise term is infinite
                        # at x0, a parked path turns nan again each step; park it again
                        Y[:, nan] = y0[:, None]
                if gstep == burn_idx:
                    y_burn[:, active] = Y[:, active]
                if n_live == 0:
                    break
            if n_live == 0:
                # every path halted: the remaining steps would all be masked
                # out, and their noise is never drawn
                K = k + 1
                buf = buf[:K]
                break
        del draw
        # keep the state, not a view of the chunk's buffer
        Y = Y.copy()
        # a state that reaches -inf stays there (-inf plus anything finite) or
        # is aborted later in the chunk, on a nan or a domain error, with the
        # -inf state as terminal; so one look per chunk finds every such path,
        # which is aborted at its first -inf step instead
        for p in np.flatnonzero(np.isneginf(Y).any(axis=0)
                                | np.isneginf(terminal).any(axis=0)):
            k = int(np.isneginf(buf[:, :, p]).any(axis=1).argmax())
            gstep = step + k + 1
            errors[path_ids[p]] = _nonfinite_error(gstep * dt)
            freeze([p], gstep)
            terminal[:, p] = (buf[k - 1] if k else y_start)[:, p]
            buf[k:, :, p] = y0
            blow_time[p] = np.nan
            if gstep <= burn_idx:
                y_burn[:, p] = np.nan
        states[:, step + 1:step + K + 1] = buf[:, :, :keep].transpose(2, 0, 1)

        gsteps = np.arange(step + 1, step + K + 1)
        # every (step, path) of the chunk counts when the chunk is past
        # burn-in and no path halted in it; then no mask is built
        full = step >= burn_idx and step + K < halt_step.min()
        if not full:
            valid = gsteps[:, None] < halt_step[None, :]          # (K, P)
            stats_mask = valid & (gsteps[:, None] > burn_idx)
        # extinction first hits, only while a path is live; one scalar
        # screen before the full-size passes
        if pending_ext.any() and buf.min() < EXTINCT_LOG_THRESHOLD:
            hits = buf < EXTINCT_LOG_THRESHOLD
            if not full:
                hits &= valid[:, None, :]
            hits &= pending_ext
            anyhit = hits.any(axis=0)
            if anyhit.any():
                first = hits.argmax(axis=0)
                t_hit = (step + first + 1) * dt
                extinct_time[anyhit] = t_hit[anyhit]
                pending_ext &= ~anyhit
            del hits
        # occupation and moment accumulation over post-burn-in live steps;
        # X overwrites the log states last
        if full or stats_mask.any():
            stats_steps += K if full else stats_mask.sum(axis=0)
            wid = np.minimum(((gsteps - burn_idx - 1) * W) // windows_len, W - 1)
            offset = (wid * (nb + 2) + 1)[:, None]
            for i in range(n):
                scaled = buf[:, i] - _GRID_LO
                scaled *= inv_width
                idx = scaled.astype(np.int64)
                del scaled
                np.clip(idx, -1, nb, out=idx)
                idx += offset
                hist_counts[:, i] += np.bincount(
                    idx.ravel() if full else idx[stats_mask],
                    minlength=W * (nb + 2)).reshape(W, nb + 2)
                del idx
            np.exp(buf, out=buf)
            if not full:
                buf *= stats_mask[:, None, :]
            sum_x += _step_sum(buf)
        del buf
        step += K
        if n_live == 0:
            break

    # paths that ran to the horizon keep their final state as terminal
    ran_out = halt_step > n_steps
    terminal[:, ran_out] = Y[:, ran_out]
    # a halted path stored the parked value at its halt step; rewrite it
    for p in np.flatnonzero(~ran_out[:keep]):
        states[p, halt_step[p]] = terminal[:, p]
    return _BlockOut(
        y_end=terminal.T.copy(), t_end=t_end, y_burn=y_burn.T.copy(),
        blow_time=blow_time, extinct_time=extinct_time.T.copy(),
        sum_x=sum_x.T.copy(), stats_steps=stats_steps,
        hist_counts=hist_counts, states=states, errors=errors,
    )


def _blocks(n_ids: int, n: int) -> list[range]:
    """Split positions 0..n_ids-1 into the fewest contiguous blocks, in order,
    whose (_CHUNK, n, width) float64 buffer fits in ``_BLOCK_BYTES``; the
    widths differ by at most one.  A path wider than the cap runs alone."""
    width = max(1, _BLOCK_BYTES // (_CHUNK * n * 8))
    count = -(-n_ids // width)
    return [range(b * n_ids // count, (b + 1) * n_ids // count) for b in range(count)]


def _check_x0(model: KolmogorovModel, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n,):
        raise EngineError(f"x0 must have {model.n} components")
    if not np.all(np.isfinite(x0)) or np.any(x0 <= 0.0):
        raise EngineError("x0 must be finite and strictly positive")
    return x0


def _trajectory(out: _BlockOut, p: int, pid: int, cfg: SimConfig) -> Trajectory:
    """Stored path ``p`` of a block, cut at its halt step."""
    last = int(round(out.t_end[p] / cfg.dt))
    blow = out.blow_time[p]
    return Trajectory(
        times=cfg.dt * np.arange(last + 1),
        log_states=out.states[p, : last + 1],
        path_id=pid,
        blowup_time=None if np.isnan(blow) else float(blow),
        extinct_times=out.extinct_time[p].copy(),
        error=out.errors.get(pid),
    )


def simulate_path(model: KolmogorovModel, x0, cfg: SimConfig,
                  path_id: int = 0) -> Trajectory:
    """Integrate path ``path_id`` alone, keeping every state; an aborted
    path raises."""
    out = _run_block(model, np.log(_check_x0(model, x0)), cfg, [path_id], keep=1)
    traj = _trajectory(out, 0, path_id, cfg)
    if traj.error is not None:
        raise EngineError(traj.error)
    return traj


def simulate_ensemble(model: KolmogorovModel, x0, cfg: SimConfig,
                      keep: int = 0) -> EnsembleStats:
    """Integrate ``cfg.n_paths`` independent paths from the same start.

    Paths run in the fewest near-equal blocks whose chunk buffer fits the
    ``_BLOCK_BYTES`` cap (128 paths of up to 4 species make one block);
    every reduction below walks blocks in fixed order.  Paths 0 .. keep-1
    also come back in ``paths`` with every state up to their halt, or
    their abort with ``error`` set: up to (n_steps + 1) x n floats each.
    """
    x0 = _check_x0(model, x0)
    y0 = np.log(x0)
    P, n = cfg.n_paths, model.n
    # every per-path output exists before the blocks are made; each block
    # writes its own rows
    try:
        y_end, y_burn, extinct_time, sum_x, exponents, path_mean = (
            np.empty((P, n)) for _ in range(6))
        t_end, blow_time = np.empty(P), np.empty(P)
        stats_steps = np.empty(P, dtype=np.int64)
    except MemoryError:
        raise EngineError(f"cannot store {P} paths of {n} species") from None
    hist_counts = np.zeros((_N_WINDOWS, n, _GRID_BINS + 2))
    errors: dict[int, str] = {}
    paths = []
    for r in _blocks(P, n):
        o = _run_block(model, y0, cfg, r, min(max(keep - r.start, 0), len(r)))
        rows = slice(r.start, r.stop)
        y_end[rows], t_end[rows], y_burn[rows] = o.y_end, o.t_end, o.y_burn
        blow_time[rows], extinct_time[rows] = o.blow_time, o.extinct_time
        sum_x[rows], stats_steps[rows] = o.sum_x, o.stats_steps
        hist_counts += o.hist_counts
        errors.update(o.errors)
        paths += [_trajectory(o, p, r[p], cfg) for p in range(o.states.shape[0])]

    denom = np.maximum(t_end - cfg.burn_in, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.subtract(y_end, y_burn, out=exponents)
        exponents /= denom[:, None]
        exponents[denom <= 0.0] = np.nan
        np.divide(sum_x, np.maximum(stats_steps, 1)[:, None], out=path_mean)
        path_mean[stats_steps == 0] = np.nan

    total_steps = int(stats_steps.sum())
    if total_steps > 0:
        mean_state = sum_x.sum(axis=0) / total_steps
    else:
        mean_state = np.full(model.n, np.nan)

    edges = _GRID_LO + _GRID_WIDTH * np.arange(_GRID_BINS + 1)

    def histogram(counts: np.ndarray) -> OccupationHistogram:
        tot = counts.sum(axis=1, keepdims=True)
        return OccupationHistogram(
            edges=edges, masses=np.divide(counts, np.maximum(tot, 1.0)),
            total_weight=float(counts[0].sum() * cfg.dt))

    windows = [histogram(hist_counts[w]) for w in range(_N_WINDOWS)]
    pooled = histogram(hist_counts.sum(axis=0))

    return EnsembleStats(
        y_end=y_end, t_end=t_end, y_burn=y_burn,
        blowup_time=blow_time, extinct_time=extinct_time, exponents=exponents,
        histogram=pooled, window_histograms=windows,
        mean_state=mean_state, path_mean_state=path_mean, path_errors=errors,
        paths=paths,
    )

