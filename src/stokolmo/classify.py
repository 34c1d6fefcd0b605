"""Verdicts: persistence certificates, extinction partitions, routing.

The classification logic sits on top of the boundary measure table.  Let
M be the boundary ergodic measures and lambda_i(mu) the invasion rates.

Persistent: there are weights p on the species simplex with
    sum_i p_i lambda_i(mu) > 0 for every mu in M.
The best such margin is the maximin value t* over M; a strictly positive
t* (beyond numerical tolerance and beyond the Monte Carlo uncertainty of
whichever rows attain the minimum) is the certificate.  That decision
and the repulsion test below are the single rule
``measures.maximin_decision`` applied to different blocks of the table.

Extinction: some measures are sinks.  mu is a sink when every species
outside its support has negative invasion rate against it AND the
community inside its support is itself persistent (so mu really is the
long-run state of the survivors).  The second half holds for every
measure of a table built by discovery: a face is admitted only when its
maximin test against the measures below it comes out positive, and
measures found later have supports at least as large, so that block of
the table never changes afterwards.  If sinks exist, trajectories converge
to one of them and the species outside its support die out at the
predicted exponential rates.  Measures that are neither repelled in all
outside directions nor sinks form the residual class; when it is
nonempty we additionally check it is repelling as a whole before
claiming full convergence.

Anything the numbers cannot settle at the configured budget is refused
honestly: the verdict is Inconclusive with the reason and the knob to
turn, never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assumptions import AssumptionReport, run_assumption_checks
from .measures import (_DECISION_TOL, AnalysisBudget, BoundaryDiscovery,
                       ErgodicMeasure, InvasionRateTable, MeasureError, _face_label,
                       discover_boundary, maximin_decision)
from .model import KolmogorovModel
from .simplex import solve_maximin


@dataclass
class PersistenceCertificate:
    weights: np.ndarray          # p on the species simplex
    t_star: float                # certified uniform invasion margin
    binding: list[str]           # measure keys attaining the minimum
    uncertainty: float           # Monte Carlo band of the binding rows

    @property
    def rho_star(self) -> float:
        # half the margin: the exponential rate the certificate actually
        # guarantees after absorbing the boundary layer
        return 0.5 * self.t_star

    def to_json_dict(self) -> dict:
        return {
            "weights": [float(v) for v in self.weights],
            "t_star": float(self.t_star),
            "rho_star": float(self.rho_star),
            "binding_measures": list(self.binding),
            "uncertainty": float(self.uncertainty),
        }


@dataclass
class PersistenceRefusal:
    """No persistence certificate.  ``decided`` tells the two cases apart:
    True means the margin is decidedly negative (the system is genuinely not
    persistent, go classify the extinction), False means the numbers could
    not settle the sign at this budget."""

    reason: str
    measure: str | None = None     # argmin / offending measure key
    species: int | None = None     # 1-based, when there is one
    t_star: float | None = None
    decided: bool = False
    suggestion: str = "tighten the Monte Carlo budget and rerun"

    def to_json_dict(self) -> dict:
        out = {"reason": self.reason, "suggestion": self.suggestion,
               "decided_not_persistent": bool(self.decided)}
        if self.measure is not None:
            out["measure"] = self.measure
        if self.species is not None:
            out["species"] = self.species
        if self.t_star is not None:
            out["t_star"] = float(self.t_star)
        return out


@dataclass
class MeasurePartition:
    sinks: list[str]                       # measure keys attracting nearby states
    others: list[str]                      # repelled in at least one direction
    undecided: list[tuple[str, str]]       # (measure key, reason)
    repulsion: str                         # vacuous | holds | fails | undecidable
    repulsion_margin: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "sinks": list(self.sinks),
            "others": list(self.others),
            "undecided": [{"measure": k, "reason": r} for k, r in self.undecided],
            "residual_repulsion": self.repulsion,
        }
        if self.repulsion_margin is not None:
            out["repulsion_margin"] = float(self.repulsion_margin)
        return out


@dataclass
class ExtinctionTarget:
    measure: ErgodicMeasure
    extinct: tuple[int, ...]       # 0-based species predicted to die
    rates: np.ndarray              # their predicted log-decay rates (negative)

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure.key,
            "survivors": self.measure.support_labels(),
            "extinct": [i + 1 for i in self.extinct],
            "extinction_rates": [float(v) for v in self.rates],
        }


@dataclass
class Verdict:
    kind: str                      # Persistent | Extinction | BlowUpRisk | Inconclusive
    assumptions: AssumptionReport
    discovery: BoundaryDiscovery | None = None
    certificate: PersistenceCertificate | None = None
    refusal: PersistenceRefusal | None = None
    partition: MeasurePartition | None = None
    targets: list[ExtinctionTarget] = field(default_factory=list)
    strength: str | None = None    # Extinction only: full | boundary-only
    blowup_witness: dict | None = None
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.kind, "assumptions": self.assumptions.to_json_dict()}
        if self.discovery is not None:
            out["measures"] = [mu.to_json_dict() for mu in self.discovery.measures]
            out["invasion_rates"] = self.discovery.table.to_json_dict()
            if self.discovery.unresolved:
                out["unresolved_faces"] = self.discovery.unresolved_labels()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json_dict()
        if self.refusal is not None:
            out["refusal"] = self.refusal.to_json_dict()
        if self.partition is not None:
            out["partition"] = self.partition.to_json_dict()
        if self.targets:
            out["extinction_targets"] = [t.to_json_dict() for t in self.targets]
        if self.strength is not None:
            out["strength"] = self.strength
        if self.blowup_witness is not None:
            out["blowup_witness"] = self.blowup_witness
        if self.notes:
            out["notes"] = list(self.notes)
        return out


# ---------------------------------------------------------------------------
# persistence

def maximin_weights(table: InvasionRateTable) -> tuple[np.ndarray, float]:
    """Optimal species weights and margin over the whole measure table."""
    return solve_maximin(table.lp_view()[0])


def check_persistence(table: InvasionRateTable) -> PersistenceCertificate | PersistenceRefusal:
    """Persistence certificate, or a refusal naming the blocking measure."""
    d = maximin_decision(table)
    if d.decision == "undecidable":
        k, i = d.undecidable
        mu = table.measures[k]
        return PersistenceRefusal(
            reason=(f"invasion rate of species {i + 1} against {mu.key} is "
                    f"{table.rates[k, i]:.4g} with uncertainty "
                    f"{table.ci[k, i]:.4g}: not sign-decidable"),
            measure=mu.key, species=i + 1)
    t_star, band, binding = d.t_star, d.band, d.binding
    argmin = None
    if binding.size:
        # the binding measure with the widest band
        ci = table.lp_view(binding)[1]
        argmin = table.measures[binding[int(np.argmax(ci @ d.p))]].key
    if d.decision == "positive":
        return PersistenceCertificate(
            weights=d.p, t_star=t_star,
            binding=[table.measures[k].key for k in binding],
            uncertainty=band)
    if d.decision == "negative":
        return PersistenceRefusal(
            reason=(f"no weights make every boundary measure invadable: maximin "
                    f"margin {t_star:.4g} at {argmin}"),
            measure=argmin, t_star=t_star, decided=True,
            suggestion="the system is not persistent; see the extinction partition")
    if abs(t_star) <= _DECISION_TOL:
        return PersistenceRefusal(
            reason=(f"maximin invasion margin {t_star:.3g} is numerically zero: "
                    "the system sits on the persistence boundary"),
            measure=argmin, t_star=t_star,
            suggestion="perturb the model parameters; the verdict is structurally unstable")
    return PersistenceRefusal(
        reason=(f"maximin invasion margin {t_star:.4g} is inside the Monte Carlo "
                f"uncertainty {band:.4g} of the binding measures"),
        measure=argmin, t_star=t_star)


# ---------------------------------------------------------------------------
# extinction partition

def partition_measures(table: InvasionRateTable) -> MeasurePartition:
    """Split the measure table into sinks, repelled measures, and undecided.

    The table must come from discovery, which admitted each measure only
    when its survivors passed their own persistence test (module docs);
    so only the rates of the species outside each support are read here.
    """
    rates, ci, _ = table.lp_view()
    unknown = (ci > 0.0) & (np.abs(rates) <= ci)
    worst = np.where(table.on_support, -np.inf, rates).max(axis=1)
    sinks: list[str] = []
    others: list[str] = []
    others_idx: list[int] = []
    undecided: list[tuple[str, str]] = []
    for k, mu in enumerate(table.measures):
        if unknown[k].any():
            i = int(np.argmax(unknown[k]))
            undecided.append((mu.key, f"invasion rate of species {i + 1} against {mu.key} "
                                      "is not sign-decidable at this budget"))
        elif worst[k] >= 0.0:
            others.append(mu.key)
            others_idx.append(k)
        else:
            sinks.append(mu.key)

    if not others_idx:
        return MeasurePartition(sinks, others, undecided, "vacuous")
    d = maximin_decision(table, others_idx)
    status = {"positive": "holds", "negative": "fails"}.get(d.decision, "undecidable")
    return MeasurePartition(sinks, others, undecided, status,
                            repulsion_margin=d.t_star)


def _extinction_targets(table: InvasionRateTable,
                        partition: MeasurePartition) -> list[ExtinctionTarget]:
    targets = []
    for k, mu in enumerate(table.measures):
        if mu.key not in partition.sinks:
            continue
        extinct = tuple(i for i in range(table.n_species) if i not in mu.support)
        rates = np.array([table.rates[k, i] for i in extinct])
        targets.append(ExtinctionTarget(measure=mu, extinct=extinct, rates=rates))
    return targets


# ---------------------------------------------------------------------------
# full pipeline

def classify(model: KolmogorovModel,
             budget: AnalysisBudget | None = None) -> Verdict:
    """Classify the long-run behaviour of the system.

    Routing: assumption failures short-circuit (a certified dissipativity
    failure with a blow-up witness is reported as BlowUpRisk, an
    unverifiable one as Inconclusive); otherwise the boundary is mapped,
    persistence is tested, and failing that the extinction partition is
    built.  Every Inconclusive carries the reason.
    """
    assumptions = run_assumption_checks(model)
    notes: list[str] = list(assumptions.notes)

    def refuse(refusal: PersistenceRefusal, **found) -> Verdict:
        return Verdict(kind="Inconclusive", assumptions=assumptions,
                       refusal=refusal, notes=notes, **found)

    if assumptions.nondegenerate.status == "fail":
        return refuse(PersistenceRefusal(
            reason=("noise degenerates somewhere on the state space: "
                    + assumptions.nondegenerate.detail),
            suggestion="the classification theory needs nondegenerate noise"))

    if assumptions.tightness.status == "fail":
        return Verdict(
            kind="BlowUpRisk", assumptions=assumptions,
            blowup_witness=assumptions.tightness.witness,
            notes=notes + ["mass escapes to infinity along the certified direction"])
    if assumptions.tightness.status == "heuristic-fail":
        return refuse(PersistenceRefusal(
            reason=("could not verify that the dynamics stay tight: "
                    + assumptions.tightness.detail),
            suggestion="no blow-up certificate either; inspect the model drift"))

    try:
        discovery = discover_boundary(model, budget)
    except MeasureError as exc:     # the face lattice is over its budget
        return refuse(PersistenceRefusal(
            reason=str(exc), suggestion="classify a community of fewer species"))
    if discovery.unresolved:
        face, reason = discovery.unresolved[0]
        return refuse(PersistenceRefusal(
            reason=f"boundary face {_face_label(face)} unresolved: {reason}"),
            discovery=discovery)

    outcome = check_persistence(discovery.table)
    if isinstance(outcome, PersistenceCertificate):
        if assumptions.growth.status == "heuristic-fail":
            notes = notes + [
                "growth condition unverified: convergence rate claims weakened"]
        return Verdict(kind="Persistent", assumptions=assumptions,
                       discovery=discovery, certificate=outcome, notes=notes)
    if not outcome.decided:
        return refuse(outcome, discovery=discovery)

    partition = partition_measures(discovery.table)
    if partition.undecided:
        key, reason = partition.undecided[0]
        return refuse(PersistenceRefusal(
            reason=f"extinction partition undecided at {key}: {reason}"),
            discovery=discovery, partition=partition)
    if partition.sinks:
        targets = _extinction_targets(discovery.table, partition)
        growth_ok = assumptions.growth.status in ("pass", "heuristic-pass")
        repulsion_ok = partition.repulsion in ("vacuous", "holds")
        strength = "full" if (growth_ok and repulsion_ok) else "boundary-only"
        if not repulsion_ok:
            notes = notes + [
                "residual measures not verifiably repelling: convergence to a "
                "specific sink is claimed only near the boundary"]
        if not growth_ok:
            notes = notes + [
                "growth condition unverified: almost-sure convergence claimed, "
                "rate claims weakened"]
        return Verdict(kind="Extinction", assumptions=assumptions,
                       discovery=discovery, partition=partition,
                       targets=targets, strength=strength, notes=notes)
    return refuse(PersistenceRefusal(
        reason=("the system is not persistent, yet no boundary measure is a "
                "sink: the invasion graph has no attracting end at this budget")),
        discovery=discovery, partition=partition)
