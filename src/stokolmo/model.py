"""Model representation and parsing for stochastic Kolmogorov systems.

A system of n interacting species is

    dX_i = X_i f_i(X) dt + X_i g_i(X) dE_i,      E = Gamma^T B,

with B a standard n-dimensional Brownian motion, so the driving noises
E_i have covariance matrix sigma = Gamma^T Gamma.  The per-capita drift
f and noise amplitude g come either in structured Lotka-Volterra form
(f_i(x) = a_i + sum_j B_ij x_j with constant g_i) or as expression
trees over x1..xn.  Noise expressions none of which holds a variable are
constant amplitudes: they are evaluated once, at load, into the same
constant-noise form Lotka-Volterra models use, and a domain error there
is a model error.  Restriction to a boundary face (a subset of species,
the rest pinned at zero) is closed in both representations, and noise
expressions left without a variable on the face become constants too.

JSON schema, one of "lv" or "general" present:

    {"n": 2,
     "lv": {"a": [3, 3], "B": [[-2, -1], [-1, -2]], "g": [1, 1]},
     "sigma": [[1, 0], [0, 1]]}

    {"n": 1, "general": {"f": ["2 - x1"], "g": ["1"]}, "sigma": [[1]]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import StokolmoError
from .expressions import (
    Expression,
    ExpressionDomainError,
    ExpressionSyntaxError,
    Num,
    compile_expression,
    expression_variables,
    format_expression,
    parse_expression,
    substitute_zero_and_remap,
)


class ModelError(StokolmoError):
    pass


def cholesky_factor(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = sigma, written out the long way.

    numpy's cholesky would do, but doing the elimination by hand lets a
    failure name the exact leading principal minor that is not positive,
    which is the diagnostic a user needs to fix a bad covariance block.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0]
    L = np.zeros_like(sigma)
    for j in range(n):
        s = sigma[j, j] - np.dot(L[j, :j], L[j, :j])
        if s <= 0.0:
            raise ModelError(
                f"covariance is not positive definite: leading principal minor "
                f"of order {j + 1} fails (pivot {s:.6g})"
            )
        L[j, j] = np.sqrt(s)
        for i in range(j + 1, n):
            L[i, j] = (sigma[i, j] - np.dot(L[i, :j], L[j, :j])) / L[j, j]
    return L


@dataclass
class LVDrift:
    """f_i(x) = a[i] + (B @ x)[i]; the usual signed interaction matrix."""

    a: np.ndarray
    B: np.ndarray


@dataclass
class _Expressions:
    """One expression tree per species, compiled on first use."""

    exprs: tuple[Expression, ...]
    _compiled: tuple[Callable, ...] = field(default=None, repr=False, compare=False)

    def compiled(self):
        if self._compiled is None:
            self._compiled = tuple(compile_expression(e) for e in self.exprs)
        return self._compiled

    def at(self, x: np.ndarray) -> np.ndarray:
        """Values at x, (n,) or (paths, n); the result keeps x's memory order."""
        cols = [x[..., j] for j in range(x.shape[-1])]
        out = np.empty_like(x)
        for i, fn in enumerate(self.compiled()):
            out[..., i] = fn(cols)
        return out


class ExprDrift(_Expressions):
    pass


@dataclass
class ConstantNoise:
    g: np.ndarray  # (n,)


class ExprNoise(_Expressions):
    pass


Drift = Union[LVDrift, ExprDrift]
Noise = Union[ConstantNoise, ExprNoise]


@dataclass
class KolmogorovModel:
    """Immutable-by-convention bundle of drift, noise amplitude and covariance.

    ``labels`` carries the original 1-based species identities through face
    restrictions, so a measure found on a restricted subsystem can be
    reported against the species of the full model.
    """

    n: int
    drift: Drift
    noise: Noise
    sigma: np.ndarray          # (n, n) noise covariance
    gamma_t: np.ndarray        # lower triangular, gamma_t @ gamma_t.T = sigma
    labels: tuple[int, ...]    # 1-based original species ids
    _origin_rates: np.ndarray | None = field(default=None, init=False, repr=False,
                                             compare=False)

    # -- evaluation ---------------------------------------------------------

    @property
    def is_lv(self) -> bool:
        return isinstance(self.drift, LVDrift) and isinstance(self.noise, ConstantNoise)

    def drift_at(self, x: np.ndarray) -> np.ndarray:
        """Per-capita growth rates; x is (n,) or (paths, n) in any memory
        order, same shape out.  A Lotka-Volterra entry is a_i + x_0 B_i0 +
        x_1 B_i1 + ... summed in that order, the order the engine's in-place
        step keeps, whatever the shape or order of x."""
        x = np.asarray(x, dtype=float)
        if isinstance(self.drift, LVDrift):
            B = self.drift.B
            out = self.drift.a + x[..., :1] * B[:, 0]
            for j in range(1, self.n):
                out += x[..., j:j + 1] * B[:, j]
            return out
        return self.drift.at(x)

    def noise_amp_at(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if isinstance(self.noise, ConstantNoise):
            out = np.empty(x.shape)
            out[...] = self.noise.g
            return out
        return self.noise.at(x)

    def log_growth_at(self, x: np.ndarray) -> np.ndarray:
        """f_i(x) - sigma_ii g_i(x)^2 / 2, the Ito-corrected per-capita growth
        whose average over a measure is an invasion rate; x as in drift_at."""
        f = self.drift_at(x)
        g = self.noise_amp_at(x)
        # in place on the fresh drift array: no third array of x's size
        ito = 0.5 * np.diag(self.sigma) * g
        ito *= g
        f -= ito
        return f

    def growth_rate_origin(self) -> np.ndarray:
        """Invasion rates at the origin, log_growth_at(0), computed once; the
        array is read-only."""
        if self._origin_rates is None:
            r0 = self.log_growth_at(np.zeros(self.n))
            r0.flags.writeable = False
            self._origin_rates = r0
        return self._origin_rates

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        out: dict = {"n": self.n, "sigma": [[float(v) for v in row] for row in self.sigma]}
        # Lotka-Volterra drift always comes with constant noise
        if isinstance(self.drift, LVDrift):
            out["lv"] = {
                "a": [float(v) for v in self.drift.a],
                "B": [[float(v) for v in row] for row in self.drift.B],
                "g": [float(v) for v in self.noise.g],
            }
        else:
            out["general"] = {"f": [format_expression(e) for e in self.drift.exprs],
                              "g": _noise_strings(self.noise)}
        return out


def _noise_strings(noise: Noise) -> list[str]:
    if isinstance(noise, ExprNoise):
        return [format_expression(e) for e in noise.exprs]
    return [format_expression(Num(float(v))) for v in noise.g]


# ---------------------------------------------------------------------------
# parsing / validation

def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ModelError(f"{path}: {message}")


def json_number(v) -> float:
    """A JSON number as a float; an integer beyond the float range becomes
    inf, which the finiteness checks refuse."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def _float_list(v, path: str, length: int) -> np.ndarray:
    _require(isinstance(v, list), path, "expected a list")
    _require(len(v) == length, path, f"expected length {length}, got {len(v)}")
    out = np.empty(length, dtype=float)
    for i, item in enumerate(v):
        _require(isinstance(item, (int, float)) and not isinstance(item, bool),
                 f"{path}[{i}]", "expected a number")
        out[i] = json_number(item)
        _require(np.isfinite(out[i]), f"{path}[{i}]", "must be finite")
    return out


def _float_matrix(v, path: str, rows: int, cols: int) -> np.ndarray:
    _require(isinstance(v, list), path, "expected a list of rows")
    _require(len(v) == rows, path, f"expected {rows} rows, got {len(v)}")
    out = np.empty((rows, cols), dtype=float)
    for i, row in enumerate(v):
        out[i] = _float_list(row, f"{path}[{i}]", cols)
    return out


def _expression_noise(exprs: Sequence[Expression], labels: Sequence[int]) -> Noise:
    """Constant amplitudes when no noise expression holds a variable, else
    the expressions; ``labels`` name the species in errors."""
    if any(expression_variables(e) for e in exprs):
        return ExprNoise(exprs=tuple(exprs))
    g = np.empty(len(exprs))
    for i, (e, label) in enumerate(zip(exprs, labels)):
        try:
            g[i] = compile_expression(e)(())
        except ExpressionDomainError as exc:
            raise ModelError(f"general.g[{label - 1}]: {exc}") from None
        _require(np.isfinite(g[i]), f"general.g[{label - 1}]", "must be finite")
    return ConstantNoise(g=g)


def parse_model(text: str) -> KolmogorovModel:
    """Parse and validate a model JSON document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad syntax, an integer of over 4300 digits, or nesting too deep
        raise ModelError(f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    known = {"n", "lv", "general", "sigma"}
    for key in doc:
        _require(key in known, key, "unknown field")
    _require("n" in doc, "n", "missing")
    n = doc["n"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             "n", "expected an integer >= 1")

    has_lv = "lv" in doc
    has_general = "general" in doc
    _require(has_lv != has_general, "$",
             "exactly one of 'lv' or 'general' must be present")

    _require("sigma" in doc, "sigma", "missing")
    sigma = _float_matrix(doc["sigma"], "sigma", n, n)
    asym = np.max(np.abs(sigma - sigma.T)) if n > 1 else 0.0
    _require(asym <= 1e-12 * max(1.0, float(np.max(np.abs(sigma)))),
             "sigma", "must be symmetric")
    sigma = 0.5 * (sigma + sigma.T)
    for i in range(n):
        _require(sigma[i, i] > 0.0, f"sigma[{i}][{i}]",
                 "diagonal entries must be positive (every species needs noise)")
    try:
        gamma_t = cholesky_factor(sigma)
    except ModelError:
        eigs = np.linalg.eigvalsh(sigma)
        if eigs[0] < -1e-12 * max(1.0, float(np.max(np.abs(sigma)))):
            raise ModelError(
                f"sigma: not positive semidefinite (eigenvalue {eigs[0]:.6g})"
            ) from None
        raise ModelError(
            f"sigma: singular covariance (smallest eigenvalue {eigs[0]:.6g}); "
            "the driving noises must be non-degenerate"
        ) from None

    if has_lv:
        lv = doc["lv"]
        _require(isinstance(lv, dict), "lv", "expected an object")
        for key in lv:
            _require(key in {"a", "B", "g"}, f"lv.{key}", "unknown field")
        for key in ("a", "B", "g"):
            _require(key in lv, f"lv.{key}", "missing")
        a = _float_list(lv["a"], "lv.a", n)
        B = _float_matrix(lv["B"], "lv.B", n, n)
        g = _float_list(lv["g"], "lv.g", n)
        for i in range(n):
            _require(g[i] != 0.0, f"lv.g[{i}]",
                     "noise amplitude must be nonzero")
        drift: Drift = LVDrift(a=a, B=B)
        noise: Noise = ConstantNoise(g=g)
    else:
        gen = doc["general"]
        _require(isinstance(gen, dict), "general", "expected an object")
        for key in gen:
            _require(key in {"f", "g"}, f"general.{key}", "unknown field")
        for key in ("f", "g"):
            _require(key in gen, f"general.{key}", "missing")
        for key in ("f", "g"):
            _require(isinstance(gen[key], list) and len(gen[key]) == n,
                     f"general.{key}", f"expected {n} expression strings")
        exprs: dict[str, list[Expression]] = {"f": [], "g": []}
        for key, parsed in exprs.items():
            for i, s in enumerate(gen[key]):
                _require(isinstance(s, str), f"general.{key}[{i}]", "expected a string")
                try:
                    parsed.append(parse_expression(s, n))
                except ExpressionSyntaxError as exc:
                    raise ModelError(f"general.{key}[{i}]: {exc}") from None
        drift = ExprDrift(exprs=tuple(exprs["f"]))
        noise = _expression_noise(exprs["g"], range(1, n + 1))

    return KolmogorovModel(
        n=n, drift=drift, noise=noise, sigma=sigma, gamma_t=gamma_t,
        labels=tuple(range(1, n + 1)),
    )


def load_model(path: str) -> KolmogorovModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


# ---------------------------------------------------------------------------
# face restriction

def restrict_to_face(model: KolmogorovModel, face: Sequence[int]) -> KolmogorovModel:
    """Subsystem on a boundary face: keep species in ``face``, pin the rest at 0.

    ``face`` holds 0-based indices into the current model; the result's
    ``labels`` remember the original species.  Substituting zeros is exact
    in both representations: for Lotka-Volterra drift the dropped columns
    vanish, for expression drift the dropped variables are replaced by 0.
    """
    idx = sorted(set(int(i) for i in face))
    if not idx:
        raise ModelError("face must contain at least one species")
    for i in idx:
        if not 0 <= i < model.n:
            raise ModelError(f"face index {i} out of range 0..{model.n - 1}")
    sel = np.array(idx, dtype=int)
    sub_sigma = model.sigma[np.ix_(sel, sel)]
    gamma_t = cholesky_factor(sub_sigma)

    if isinstance(model.drift, LVDrift):
        drift: Drift = LVDrift(a=model.drift.a[sel].copy(),
                               B=model.drift.B[np.ix_(sel, sel)].copy())
    else:
        drift = ExprDrift(exprs=tuple(
            substitute_zero_and_remap(model.drift.exprs[i], idx) for i in idx
        ))
    if isinstance(model.noise, ConstantNoise):
        noise: Noise = ConstantNoise(g=model.noise.g[sel].copy())
    else:
        noise = _expression_noise(
            [substitute_zero_and_remap(model.noise.exprs[i], idx) for i in idx],
            [model.labels[i] for i in idx])
    return KolmogorovModel(
        n=len(idx), drift=drift, noise=noise, sigma=sub_sigma, gamma_t=gamma_t,
        labels=tuple(model.labels[i] for i in idx),
    )
