"""Linear food chains: the closed-form classification fast path.

For a chain X_1 -> X_2 -> ... -> X_n (X_1 the basal prey) with

    dX_1 = X_1 (a_10 - a_11 X_1 - a_12 X_2) dt + X_1 dE_1
    dX_j = X_j (-a_j0 + a_{j,j-1} X_{j-1} - a_jj X_j - a_{j,j+1} X_{j+1}) dt
           + X_j dE_j,   j >= 2,

the boundary structure is a chain too: the only candidate communities
are the bottom segments {1..j}.  Stochasticity enters through the
adjusted rates atilde_10 = a_10 - sigma_11/2 (noise taxes the prey's
growth) and atilde_j0 = a_j0 + sigma_jj/2 (noise adds to each
predator's death).  Depth j's candidate equilibrium solves the
tridiagonal system

    -a_11 x_1 - a_12 x_2                    = -atilde_10
     a_{i,i-1} x_{i-1} - a_ii x_i - a_{i,i+1} x_{i+1} = atilde_i0
     a_{j,j-1} x_{j-1} - a_jj x_j           = atilde_j0

and level j+1 invades it at rate I_{j+1} = -atilde_{j+1,0} +
a_{j+1,j} x^{(j)}_j.  The persistence depth j* is the largest j whose
invasion rates I_1..I_j (I_1 := atilde_10) are all positive: levels
above j* die out exponentially.  An extinct level k > j* decays at
-atilde_k0 + a_{k,k-1} xbar_{k-1}, where xbar is x^{(j*)} padded with
zeros; for k = j*+1 this is just I_{j*+1}.

The chain is a Lotka-Volterra model (:func:`foodchain_to_model`) whose
face block on {1..j} is the system above, so the equilibria come from
the face lattice's solve, ``measures.lv_face_equilibrium``, and every
rate from its invasion rates, ``measures._lv_rates``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import StokolmoError
from .measures import MeasureError, _lv_rates, lv_face_equilibrium
from .model import KolmogorovModel, ModelError, json_number, parse_model


class FoodChainError(StokolmoError):
    pass


@dataclass(frozen=True)
class FoodChainParams:
    """Coefficients of the chain; all interactions nonnegative."""

    n: int
    a10: float                 # prey intake
    death: np.ndarray          # a_j0, j = 2..n
    prey_gain: np.ndarray      # a_{j,j-1}, j = 2..n
    loss: np.ndarray           # a_{j-1,j}, j = 2..n
    intra: np.ndarray          # a_jj, j = 1..n
    sigma_diag: np.ndarray     # sigma_jj, j = 1..n

    def __post_init__(self):
        n = self.n
        if n < 2:
            raise FoodChainError("a chain needs at least two levels")
        for name, arr, ln in (("death", self.death, n - 1),
                              ("prey_gain", self.prey_gain, n - 1),
                              ("loss", self.loss, n - 1),
                              ("intra", self.intra, n),
                              ("sigma_diag", self.sigma_diag, n)):
            if arr.shape != (ln,):
                raise FoodChainError(f"{name}: expected length {ln}")
            if not np.all(np.isfinite(arr)):
                raise FoodChainError(f"{name}: entries must be finite")
        if not np.isfinite(self.a10):
            raise FoodChainError("a10: must be finite")
        if self.intra[0] <= 0.0:
            raise FoodChainError("intra[0] (prey self-limitation a_11) must be positive")
        if np.any(self.intra < 0.0) or np.any(self.prey_gain < 0.0) \
                or np.any(self.loss < 0.0) or np.any(self.death < 0.0):
            raise FoodChainError("interaction coefficients must be nonnegative")
        if np.any(self.sigma_diag <= 0.0):
            raise FoodChainError("sigma_diag entries must be positive")

    def a_tilde(self) -> np.ndarray:
        """Noise-adjusted constant terms: growth for level 1, deaths above."""
        out = np.empty(self.n)
        out[0] = self.a10 - 0.5 * self.sigma_diag[0]
        out[1:] = self.death + 0.5 * self.sigma_diag[1:]
        return out


@dataclass
class FoodChainVerdict:
    kind: str                          # Persistent | Extinction | Inconclusive
    j_star: int
    a_tilde: np.ndarray
    invasion_rates: list[float]        # I_1 .. I_{last computed}
    equilibria: list[np.ndarray]       # x^{(j)} for j = 1..depth reached
    extinction_rates: np.ndarray       # decay rates of levels j*+1..n
    residual: float                    # worst linear-system residual
    reason: str = ""

    def survivors(self) -> list[int]:
        return list(range(1, self.j_star + 1))

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.kind,
            "j_star": int(self.j_star),
            "a_tilde": [float(v) for v in self.a_tilde],
            "invasion_rates": [float(v) for v in self.invasion_rates],
            "equilibria": [[float(v) for v in x] for x in self.equilibria],
            "extinction_rates": [float(v) for v in self.extinction_rates],
            "survivors": self.survivors(),
            "solve_residual": float(self.residual),
            **({"reason": self.reason} if self.reason else {}),
        }


_BORDERLINE_TOL = 1e-9    # a rate this close to zero is too close to classify


def classify_food_chain(params: FoodChainParams) -> FoodChainVerdict:
    """Persistence depth of the chain, with every quantity it rests on."""
    n = params.n
    at = params.a_tilde()
    model = foodchain_to_model(params)
    xbar = np.zeros(n)               # the surviving segment's equilibrium, padded
    rates = [float(_lv_rates(model, xbar)[0])]      # I_1
    equilibria: list[np.ndarray] = []
    worst_residual = 0.0

    def refuse(depth: int, reason: str) -> FoodChainVerdict:
        return FoodChainVerdict(
            kind="Inconclusive", j_star=depth, a_tilde=at, invasion_rates=rates,
            equilibria=equilibria, extinction_rates=np.zeros(0),
            residual=worst_residual, reason=reason)

    if abs(rates[0]) <= _BORDERLINE_TOL:
        return refuse(0, (f"adjusted prey growth rate {rates[0]:.3g} is numerically zero; "
                          "the chain sits on the collapse boundary"))

    j_star = 0
    if rates[0] > 0.0:
        j_star = 1
        # the equilibrium of the first j levels, then level j+1's invasion
        # rate; every level invades once the interior, depth n, is solved
        for j in range(1, n + 1):
            try:
                x, res = lv_face_equilibrium(model, range(j))
            except MeasureError as exc:     # a refused interior keeps j* = n - 1
                return refuse(min(j_star, n - 1), f"depth-{j} equilibrium: {exc}")
            worst_residual = max(worst_residual, res)
            equilibria.append(x[:j])
            if j == n:
                break
            xbar = x
            inv = float(_lv_rates(model, xbar)[j])
            rates.append(inv)
            if abs(inv) <= _BORDERLINE_TOL:
                return refuse(j_star, (f"invasion rate of level {j + 1} is {inv:.3g}, too "
                                       "close to zero to classify"))
            if inv < 0.0:
                break
            j_star = j + 1

    # levels above j* decay at their invasion rate against the surviving
    # segment's equilibrium (zero prey density for k > j* + 1, and level 1
    # decays at a_tilde_10 against the origin); none do when j* = n
    return FoodChainVerdict(
        kind="Persistent" if j_star == n else "Extinction", j_star=j_star,
        a_tilde=at, invasion_rates=rates,
        equilibria=equilibria, extinction_rates=_lv_rates(model, xbar)[j_star:],
        residual=worst_residual)


# ---------------------------------------------------------------------------
# interop

def parse_food_chain(text: str) -> FoodChainParams:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad syntax, an integer of over 4300 digits, or nesting too deep
        raise FoodChainError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FoodChainError("expected a JSON object")
    known = {"n", "a10", "death", "prey_gain", "loss", "intra", "sigma_diag"}
    for key in doc:
        if key not in known:
            raise FoodChainError(f"{key}: unknown field")
    for key in known:
        if key not in doc:
            raise FoodChainError(f"{key}: missing")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise FoodChainError("n: expected an integer >= 2")

    def arr(key, ln):
        v = doc[key]
        if not isinstance(v, list) or len(v) != ln \
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
            raise FoodChainError(f"{key}: expected {ln} numbers")
        return np.array([json_number(x) for x in v], dtype=float)

    a10 = doc["a10"]
    if not isinstance(a10, (int, float)) or isinstance(a10, bool):
        raise FoodChainError("a10: expected a number")
    return FoodChainParams(
        n=n, a10=json_number(a10), death=arr("death", n - 1),
        prey_gain=arr("prey_gain", n - 1), loss=arr("loss", n - 1),
        intra=arr("intra", n), sigma_diag=arr("sigma_diag", n))


def load_food_chain(path: str) -> FoodChainParams:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_food_chain(fh.read())


def foodchain_to_model(params: FoodChainParams) -> KolmogorovModel:
    """The same chain as a full Kolmogorov model, for the general pipeline."""
    n = params.n
    a = np.empty(n)
    a[0] = params.a10
    a[1:] = -params.death
    B = np.zeros((n, n))
    for j in range(n):
        B[j, j] = -params.intra[j]
        if j + 1 < n:
            B[j, j + 1] = -params.loss[j]
            B[j + 1, j] = params.prey_gain[j]
    sigma = np.diag(params.sigma_diag)
    doc = {
        "n": n,
        "lv": {"a": a.tolist(), "B": B.tolist(), "g": [1.0] * n},
        "sigma": sigma.tolist(),
    }
    try:
        return parse_model(json.dumps(doc))
    except ModelError as exc:
        raise FoodChainError(f"chain does not form a valid model: {exc}") from None
