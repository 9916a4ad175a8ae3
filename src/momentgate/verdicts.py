"""Decision layer: injectivity and surjectivity verdicts for the moment
mappings on the half line and at the origin.

Each verdict carries its criterion trace, the hypothesis checks it leans on,
and citation tags for pretty reports. The layer never guesses: hypothesis
gaps downgrade to conditional, a failed quotient condition on the origin
side flips to the vacuous answer for a trivial domain, and an affirmative
injective-and-surjective pair is an internal error rather than a report.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple, Union

from . import numerics
from .conditions import (
    SeriesReport,
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


@functools.lru_cache(maxsize=8)
def _default_aux_hypotheses(horizon: int) -> Dict[str, Verdict]:
    # verdicts of the stock A depend only on the horizon; classify copies them
    A = default_admissible()
    return {f"A:{cond}": check_condition(A, cond, horizon=horizon) for cond in ("wlc", "nq")}


def _gate(
    status: MapStatus, names: Tuple[str, ...], hyps: Dict[str, Verdict]
) -> Tuple[MapStatus, Tuple[str, ...]]:
    """Downgrade an evaluated criterion to conditional, with a note, when a
    hypothesis it leans on is not affirmative."""
    failing = [k for k in names if not hyps[k].affirmative]
    if not failing or status is MapStatus.INCONCLUSIVE:
        return status, ()
    note = f"criterion evaluated but hypotheses {', '.join(failing)} are not affirmative"
    return MapStatus.CONDITIONAL, (note,)


_HALF_LINE_HYPS = ("lc", "dc", "A:wlc", "A:nq")
_ORIGIN_INJ_HYPS = ("lc", "dc", "nq")
_ORIGIN_SUR_HYPS = ("lc", "dc")


def _injective_from(
    series: SeriesReport,
    hyps: Dict[str, Verdict],
    name: str,
    hyp_names: Tuple[str, ...],
    citations: Tuple[str, ...],
) -> MapVerdict:
    if series.kind == "divergent":
        status = MapStatus.HOLDS
    elif series.kind == "convergent":
        status = MapStatus.FAILS
    else:
        status = MapStatus.INCONCLUSIVE
    status, notes = _gate(status, hyp_names, hyps)
    return MapVerdict(
        name=name,
        status=status,
        citations=citations,
        notes=notes,
        trace={
            "criterion": "divergence of sum ((p+1) m_p)^(-1/2)",
            "series": series,
            "hypotheses": {k: hyps[k].status.value for k in hyp_names},
        },
    )


def _surjective_from(
    g1: Verdict,
    borel_surjective: bool,
    hyps: Dict[str, Verdict],
    gamma: IndexEstimate,
    name: str,
    hyp_names: Tuple[str, ...],
    base_citation: str,
) -> MapVerdict:
    status = _map_status(g1.status)
    citations = [base_citation]
    notes = []
    mg_ok = hyps["mg"].affirmative
    if mg_ok:
        direction = "equivalence"
    elif borel_surjective:
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
    # the bracket's lower end is a beta whose probe held and its upper end
    # one whose probe failed, and (gamma_beta) holds exactly for beta <
    # gamma(M): so lower >= 1 reads (gamma_1) as holding, upper <= 1 as
    # failing, and a bracket around 1 reads nothing
    if gamma.lower < 1.0 < gamma.upper:
        corroboration = "gamma bracket does not resolve beta = 1"
    else:
        agrees = (gamma.lower >= 1.0) == (_map_status(g1.status) is MapStatus.HOLDS)
        corroboration = f"gamma bracket {'agrees' if agrees else 'disagrees'} with the direct check"
        if not agrees:
            notes.append(
                f"index bracket [{gamma.lower:g}, {gamma.upper:g}] does not "
                "corroborate the direct check; trusting the direct check"
            )
    trace = {
        "criterion": "sup_p m_p/(p+1) * sum_{q>=p} 1/m_q < infinity",
        "gamma_1": g1,
        "hypotheses": {k: hyps[k].status.value for k in hyp_names},
        "mg": hyps["mg"].status.value,
        "gamma_index": gamma,
        "corroboration": corroboration,
    }
    status, gate_notes = _gate(status, hyp_names, hyps)
    return MapVerdict(
        name=name,
        status=status,
        direction=direction,
        citations=tuple(citations),
        notes=tuple(notes) + gate_notes,
        trace=trace,
    )


def _vacuous_pair(hyps: Dict[str, Verdict]) -> Tuple[MapVerdict, MapVerdict]:
    note = (
        "the quotient condition fails, so the domain space is trivial and "
        "both statements hold vacuously"
    )
    trace = {
        "criterion": "trivial domain",
        "nq": hyps["nq"],
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
    series: SeriesReport,
    g1: Verdict,
    borel_surjective: bool,
    hyps: Dict[str, Verdict],
    gamma: IndexEstimate,
) -> Tuple[MapVerdict, MapVerdict]:
    """Origin mapping: the half-line criteria under the origin hypotheses;
    a log-convex sequence failing (nq) has a trivial domain instead."""
    if hyps["lc"].affirmative and hyps["nq"].status is Status.FAILS:
        return _vacuous_pair(hyps)
    inj = _injective_from(
        series,
        hyps,
        name="origin_injective",
        hyp_names=_ORIGIN_INJ_HYPS,
        citations=("Thm 4.4",),
    )
    sur = _surjective_from(
        g1,
        borel_surjective,
        hyps,
        gamma,
        name="origin_surjective",
        hyp_names=_ORIGIN_SUR_HYPS,
        base_citation="Thm 4.7",
    )
    return inj, sur


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
                "hypotheses": self.hypotheses,
                "verdicts": {
                    "injective": self.injective,
                    "surjective": self.surjective,
                    "origin_injective": self.origin_injective,
                    "origin_surjective": self.origin_surjective,
                },
                "indices": {"gamma": self.gamma, "omega": self.omega},
                "citations": self.citations,
            }
        )


_BASE_CITATIONS = ("Thm 3.4", "Thm 3.5", "Cor 3.6", "Thm 4.4", "Thm 4.7", "Cor 4.8")


def _enforce_never_bijective(report: MomentMapReport) -> None:
    for pair_name, inj, sur in (
        ("stieltjes", report.injective, report.surjective),
        ("origin", report.origin_injective, report.origin_surjective),
    ):
        if inj.status is MapStatus.HOLDS and sur.status is MapStatus.HOLDS:
            raise InternalInvariantError(
                f"{pair_name}: injective and surjective both affirmative, which "
                f"the never-bijective corollary forbids; trace: {report.to_json()}"
            )


def classify(
    spec: Union[SequenceSpec, WeightSequence],
    horizon: int = 4096,
    tol: float = 0.05,
) -> MomentMapReport:
    """Full report: hypotheses, four verdicts, both indices, citations.

    The half-line and origin mappings share their two criteria, the series
    for injectivity and the beta = 1 check for surjectivity, so each is
    evaluated once; the checks of the stock auxiliary sequence gevrey(2) run
    once per horizon and process. Deterministic and idempotent; the
    never-bijective invariant is enforced on both mapping pairs before the
    report is returned.
    """
    seq = spec if isinstance(spec, WeightSequence) else make_sequence(spec)
    # the stock sequence's checks first: at a new horizon they build its own
    # working set, which should not coexist with this sequence's
    aux = copy.deepcopy(_default_aux_hypotheses(horizon))
    hyps = {c: check_condition(seq, c, horizon=horizon) for c in ("lc", "dc", "mg", "nq")}
    hyps.update(aux)
    gamma = gamma_index(seq, horizon=horizon, tol=tol)
    omega = omega_index(seq, horizon=horizon, tol=tol)
    series = classify_power_series(seq, horizon, alpha=0.5, beta=2.0)
    g1 = check_gamma_beta(seq, 1.0, horizon=horizon)
    borel = bool(seq.metadata.get("borel_surjective"))
    injective = _injective_from(
        series,
        hyps,
        name="stieltjes_injective",
        hyp_names=_HALF_LINE_HYPS,
        citations=("Thm 3.4",),
    )
    surjective = _surjective_from(
        g1,
        borel,
        hyps,
        gamma,
        name="stieltjes_surjective",
        hyp_names=_HALF_LINE_HYPS,
        base_citation="Thm 3.5",
    )
    origin_inj, origin_sur = _origin_pair(series, g1, borel, hyps, gamma)
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
    _enforce_never_bijective(report)
    return report
