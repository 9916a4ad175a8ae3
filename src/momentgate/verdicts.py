"""Decision layer: injectivity and surjectivity verdicts for the moment
mappings on the half line and at the origin.

Each verdict carries its criterion trace, the hypothesis checks it leans on,
and citation tags for pretty reports. The layer never guesses: hypothesis
gaps downgrade to conditional, a failed quotient condition on the origin
side flips to the vacuous answer for a trivial domain, and an affirmative
injective-and-surjective pair is an internal error rather than a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple, Union

from . import numerics
from .conditions import (
    Status,
    Verdict,
    check_condition,
    check_gamma_beta,
    classify_power_series,
)
from .errors import InternalInvariantError
from .indices import IndexEstimate, gamma_index, omega_index
from .sequences import (
    GevreySpec,
    SequenceSpec,
    WeightSequence,
    make_sequence,
    spec_to_json,
)

__all__ = [
    "MapStatus",
    "MapVerdict",
    "MomentMapReport",
    "default_admissible",
    "injectivity_verdict",
    "surjectivity_verdict",
    "origin_verdicts",
    "classify",
]


class MapStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    VACUOUS = "vacuous"
    CONDITIONAL = "conditional"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MapVerdict:
    """One mapping statement with its criterion trace and citations."""

    name: str
    status: MapStatus
    direction: Optional[str] = None
    citations: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()
    trace: dict = field(default_factory=dict)

    @property
    def definite(self) -> bool:
        return self.status in (MapStatus.HOLDS, MapStatus.FAILS, MapStatus.VACUOUS)

    @property
    def affirmative(self) -> bool:
        return self.status is MapStatus.HOLDS

    def to_json(self) -> dict:
        return numerics.jsonable(
            {
                "name": self.name,
                "status": self.status.value,
                "direction": self.direction,
                "citations": list(self.citations),
                "notes": list(self.notes),
                "trace": self.trace,
            }
        )


def _map_status(status: Status) -> MapStatus:
    if status in (Status.EXACT_HOLDS, Status.HOLDS_AT_HORIZON):
        return MapStatus.HOLDS
    if status is Status.FAILS:
        return MapStatus.FAILS
    return MapStatus.INCONCLUSIVE


def default_admissible() -> WeightSequence:
    """The stock auxiliary sequence used for hypothesis bookkeeping.

    The mapping criteria never involve the auxiliary sequence; reports only
    need one admissible example, and gevrey(2) satisfies both requirements.
    """
    return make_sequence(GevreySpec(s=2.0))


def _hypotheses(
    M: WeightSequence,
    A: WeightSequence,
    horizon: int,
) -> Dict[str, Verdict]:
    out: Dict[str, Verdict] = {}
    for cond in ("lc", "dc", "mg", "nq"):
        out[cond] = check_condition(M, cond, horizon=horizon)
    for cond in ("wlc", "nq"):
        out[f"A:{cond}"] = check_condition(A, cond, horizon=horizon)
    return out


def _gate(
    names: Tuple[str, ...], hyps: Dict[str, Verdict]
) -> Tuple[Tuple[str, ...], Dict[str, str]]:
    summary = {k: hyps[k].status.value for k in names}
    failing = tuple(k for k in names if not hyps[k].affirmative)
    return failing, summary


_INJ_HYPS = ("lc", "dc", "A:wlc", "A:nq")
_SUR_HYPS = ("lc", "dc", "A:wlc", "A:nq")
_ORIGIN_INJ_HYPS = ("lc", "dc", "nq")
_ORIGIN_SUR_HYPS = ("lc", "dc")


def _injective_from(
    M: WeightSequence,
    horizon: int,
    hyps: Dict[str, Verdict],
    name: str,
    hyp_names: Tuple[str, ...],
    citations: Tuple[str, ...],
) -> MapVerdict:
    series = classify_power_series(M, horizon, alpha=0.5, beta=2.0)
    if series.kind == "divergent":
        status = MapStatus.HOLDS
    elif series.kind == "convergent":
        status = MapStatus.FAILS
    else:
        status = MapStatus.INCONCLUSIVE
    failing, summary = _gate(hyp_names, hyps)
    notes: Tuple[str, ...] = ()
    if failing and status is not MapStatus.INCONCLUSIVE:
        notes = (
            "criterion evaluated but hypotheses "
            + ", ".join(failing)
            + " are not affirmative",
        )
        status = MapStatus.CONDITIONAL
    return MapVerdict(
        name=name,
        status=status,
        citations=citations,
        notes=notes,
        trace={
            "criterion": "divergence of sum ((p+1) m_p)^(-1/2)",
            "series": series.to_json(),
            "hypotheses": summary,
        },
    )


def _surjective_from(
    M: WeightSequence,
    horizon: int,
    hyps: Dict[str, Verdict],
    gamma: Optional[IndexEstimate],
    name: str,
    hyp_names: Tuple[str, ...],
    base_citation: str,
) -> MapVerdict:
    g1 = check_gamma_beta(M, 1.0, horizon=horizon)
    status = _map_status(g1.status)
    citations = [base_citation]
    notes = []
    mg_ok = hyps["mg"].affirmative
    if mg_ok:
        direction = "equivalence"
    elif M.metadata.get("borel_surjective"):
        direction = "equivalence"
        citations.append("Rem 4.9")
        notes.append(
            "moderate growth fails but surjectivity of the underlying Borel map "
            "is known for this family, so the equivalence applies"
        )
    else:
        direction = "necessity_only"
        if status is MapStatus.HOLDS:
            status = MapStatus.INCONCLUSIVE
            notes.append(
                "the index condition holds, but without moderate growth it is "
                "only necessary; sufficiency is left open"
            )
        elif status is MapStatus.FAILS:
            notes.append(
                "the index condition is necessary, so its failure refutes "
                "surjectivity even without moderate growth"
            )
    trace: dict = {
        "criterion": "sup_p m_p/(p+1) * sum_{q>=p} 1/m_q < infinity",
        "gamma_1": g1.to_json(),
        "hypotheses": {k: hyps[k].status.value for k in hyp_names},
        "mg": hyps["mg"].status.value,
    }
    if gamma is not None:
        trace["gamma_index"] = gamma.to_json()
        corroborates = gamma.lower > 1.0
        agrees = corroborates == (_map_status(g1.status) is MapStatus.HOLDS)
        trace["corroboration"] = (
            "gamma bracket agrees with the direct check"
            if agrees
            else "gamma bracket disagrees with the direct check"
        )
        if not agrees:
            notes.append(
                f"index bracket [{gamma.lower:g}, {gamma.upper:g}] does not "
                "corroborate the direct check; trusting the direct check"
            )
    failing, summary = _gate(hyp_names, hyps)
    trace["hypotheses"] = summary
    if failing and status is not MapStatus.INCONCLUSIVE:
        notes.append(
            "criterion evaluated but hypotheses "
            + ", ".join(failing)
            + " are not affirmative"
        )
        status = MapStatus.CONDITIONAL
    return MapVerdict(
        name=name,
        status=status,
        direction=direction,
        citations=tuple(citations),
        notes=tuple(notes),
        trace=trace,
    )


def _vacuous_pair(hyps: Dict[str, Verdict]) -> Tuple[MapVerdict, MapVerdict]:
    note = (
        "the quotient condition fails, so the domain space is trivial and "
        "both statements hold vacuously"
    )
    trace = {
        "criterion": "trivial domain",
        "nq": hyps["nq"].to_json(),
        "lc": hyps["lc"].status.value,
    }
    inj = MapVerdict(
        name="origin_injective",
        status=MapStatus.VACUOUS,
        citations=("Thm 4.4", "Rem 4.5"),
        notes=(note,),
        trace=trace,
    )
    sur = MapVerdict(
        name="origin_surjective",
        status=MapStatus.VACUOUS,
        citations=("Thm 4.7", "Rem 4.5"),
        notes=(note,),
        trace=trace,
    )
    return inj, sur


def _origin_pair(
    M: WeightSequence,
    horizon: int,
    hyps: Dict[str, Verdict],
    gamma: Optional[IndexEstimate],
) -> Tuple[MapVerdict, MapVerdict]:
    if hyps["lc"].affirmative and hyps["nq"].status is Status.FAILS:
        return _vacuous_pair(hyps)
    inj = _injective_from(
        M,
        horizon,
        hyps,
        name="origin_injective",
        hyp_names=_ORIGIN_INJ_HYPS,
        citations=("Thm 4.4",),
    )
    sur = _surjective_from(
        M,
        horizon,
        hyps,
        gamma,
        name="origin_surjective",
        hyp_names=_ORIGIN_SUR_HYPS,
        base_citation="Thm 4.7",
    )
    return inj, sur


def _resolve(
    M: Union[SequenceSpec, WeightSequence],
    A: Optional[Union[SequenceSpec, WeightSequence]],
) -> Tuple[WeightSequence, WeightSequence]:
    seq = M if isinstance(M, WeightSequence) else make_sequence(M)
    if A is None:
        aux = default_admissible()
    else:
        aux = A if isinstance(A, WeightSequence) else make_sequence(A)
    return seq, aux


def injectivity_verdict(
    M: Union[SequenceSpec, WeightSequence],
    horizon: int = 4096,
    A: Optional[Union[SequenceSpec, WeightSequence]] = None,
) -> MapVerdict:
    """Injectivity of the half-line moment mapping.

    Holds exactly when sum ((p+1) m_p)^(-1/2) diverges; hypothesis gaps
    downgrade the verdict to conditional instead of suppressing it.
    """
    seq, aux = _resolve(M, A)
    hyps = _hypotheses(seq, aux, horizon)
    return _injective_from(
        seq,
        horizon,
        hyps,
        name="stieltjes_injective",
        hyp_names=_INJ_HYPS,
        citations=("Thm 3.4",),
    )


def surjectivity_verdict(
    M: Union[SequenceSpec, WeightSequence],
    horizon: int = 4096,
    A: Optional[Union[SequenceSpec, WeightSequence]] = None,
) -> MapVerdict:
    """Surjectivity of the half-line moment mapping.

    Decided by the beta = 1 quotient-tail condition, with the index bracket
    as corroborating evidence only. Moderate growth (or known Borel
    surjectivity) upgrades the direction flag to a full equivalence.
    """
    seq, aux = _resolve(M, A)
    hyps = _hypotheses(seq, aux, horizon)
    gamma = gamma_index(seq, horizon=horizon)
    return _surjective_from(
        seq,
        horizon,
        hyps,
        gamma,
        name="stieltjes_surjective",
        hyp_names=_SUR_HYPS,
        base_citation="Thm 3.5",
    )


def origin_verdicts(
    M: Union[SequenceSpec, WeightSequence],
    horizon: int = 4096,
    A: Optional[Union[SequenceSpec, WeightSequence]] = None,
) -> Tuple[MapVerdict, MapVerdict]:
    """Injectivity and surjectivity of the origin moment mapping.

    Criteria match the half-line ones; when the quotient condition fails
    for a log-convex sequence the domain is trivial and both statements
    come back vacuously true.
    """
    seq, aux = _resolve(M, A)
    hyps = _hypotheses(seq, aux, horizon)
    gamma = gamma_index(seq, horizon=horizon)
    return _origin_pair(seq, horizon, hyps, gamma)


@dataclass(frozen=True)
class MomentMapReport:
    """Aggregated verdicts, hypotheses, and indices for one sequence."""

    sequence: dict
    name: str
    horizon: int
    hypotheses: Dict[str, Verdict]
    injective: MapVerdict
    surjective: MapVerdict
    origin_injective: MapVerdict
    origin_surjective: MapVerdict
    gamma: IndexEstimate
    omega: IndexEstimate
    citations: Tuple[str, ...]
    schema: int = 1

    @property
    def verdicts(self) -> Tuple[MapVerdict, MapVerdict, MapVerdict, MapVerdict]:
        return (
            self.injective,
            self.surjective,
            self.origin_injective,
            self.origin_surjective,
        )

    @property
    def any_definite(self) -> bool:
        return any(v.definite for v in self.verdicts)

    def to_json(self) -> dict:
        return numerics.jsonable(
            {
                "schema": self.schema,
                "sequence": self.sequence,
                "name": self.name,
                "horizon": self.horizon,
                "hypotheses": {k: v.to_json() for k, v in self.hypotheses.items()},
                "verdicts": {
                    "injective": self.injective.to_json(),
                    "surjective": self.surjective.to_json(),
                    "origin_injective": self.origin_injective.to_json(),
                    "origin_surjective": self.origin_surjective.to_json(),
                },
                "indices": {
                    "gamma": self.gamma.to_json(),
                    "omega": self.omega.to_json(),
                },
                "citations": list(self.citations),
            }
        )


_BASE_CITATIONS = ("Thm 3.4", "Thm 3.5", "Cor 3.6", "Thm 4.4", "Thm 4.7", "Cor 4.8")


def _enforce_never_bijective(
    pair_name: str, inj: MapVerdict, sur: MapVerdict, report: dict
) -> None:
    if inj.status is MapStatus.HOLDS and sur.status is MapStatus.HOLDS:
        raise InternalInvariantError(
            f"{pair_name}: injective and surjective both affirmative, which "
            f"the never-bijective corollary forbids; trace: {report}"
        )


def classify(
    spec: Union[SequenceSpec, WeightSequence],
    horizon: int = 4096,
    A: Optional[Union[SequenceSpec, WeightSequence]] = None,
    tol: float = 0.05,
) -> MomentMapReport:
    """Full report: hypotheses, four verdicts, both indices, citations.

    Deterministic and idempotent; the never-bijective invariant is enforced
    on both mapping pairs before the report is returned.
    """
    seq, aux = _resolve(spec, A)
    hyps = _hypotheses(seq, aux, horizon)
    gamma = gamma_index(seq, horizon=horizon, tol=tol)
    omega = omega_index(seq, horizon=horizon, tol=tol)
    injective = _injective_from(
        seq,
        horizon,
        hyps,
        name="stieltjes_injective",
        hyp_names=_INJ_HYPS,
        citations=("Thm 3.4",),
    )
    surjective = _surjective_from(
        seq,
        horizon,
        hyps,
        gamma,
        name="stieltjes_surjective",
        hyp_names=_SUR_HYPS,
        base_citation="Thm 3.5",
    )
    origin_inj, origin_sur = _origin_pair(seq, horizon, hyps, gamma)
    extra = []
    for v in (injective, surjective, origin_inj, origin_sur):
        for tag in v.citations:
            if tag not in _BASE_CITATIONS and tag not in extra:
                extra.append(tag)
    citations = _BASE_CITATIONS + tuple(extra)
    report = MomentMapReport(
        sequence=spec_to_json(seq.spec),
        name=seq.name,
        horizon=horizon,
        hypotheses=hyps,
        injective=injective,
        surjective=surjective,
        origin_injective=origin_inj,
        origin_surjective=origin_sur,
        gamma=gamma,
        omega=omega,
        citations=citations,
    )
    payload = report.to_json()
    _enforce_never_bijective("stieltjes", injective, surjective, payload)
    _enforce_never_bijective("origin", origin_inj, origin_sur, payload)
    return report
