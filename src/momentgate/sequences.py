"""Weight sequences M = (M_p) and their quotients m_p = M_{p+1}/M_p.

All evaluation happens in the log domain: values like p!^s overflow floats
almost immediately, while log M_p stays tame. A sequence is defined by the
closed form of its quotients log m_p; log M_p is materialized on demand as the
prefix sum of those increments, so the identity

    log_m(p) == log_M(p+1) - log_M(p)

holds exactly (the quotient is read back off the stored prefix). Closed-form
evaluation is used directly only beyond the materialization limit, where
cumulative values are not defined and log_M refuses to answer.

Built-in families:
  gevrey(s)    M_p = p!^s             log m_p = s*log(p+1)
  q_gevrey(q)  M_p = q^(p^2)          log m_p = (2p+1)*log q
  example38    defined through delta-blocks on the quotients (see below)
  explicit     a finite list of log m values plus a declared tail rule
  derived      hat / check / power(s) / dc_minorant applied to a base spec

The example38 family alternates blocks where log m_p grows with local slope 3
(in log p) and slope 2, at doubly exponential boundaries k_j = 2^(3^j),
q_j = k_j^2. Indices up to k_8 = 2^6561 are supported through exact big-int
arithmetic plus asymptotic harmonic numbers.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import EvaluationError, ValidationError
from .numerics import harmonic_number

# log_M / prefix materialization is refused beyond this index; quotients are
# still available through closed forms (big-index path).
BIG_INDEX_LIMIT = 2_000_000

# derivation trees are walked recursively, down to every derived evaluator;
# deeper specs are refused at parse time instead of exhausting the stack
MAX_DERIVED_DEPTH = 64

# ---------------------------------------------------------------------------
# sequence specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GevreySpec:
    s: float


@dataclass(frozen=True)
class QGevreySpec:
    q: float


@dataclass(frozen=True)
class Example38Spec:
    pass


@dataclass(frozen=True)
class ExplicitSpec:
    log_m: tuple[float, ...]
    tail_rule: str  # "arithmetic" | "power"
    tail_value: float


@dataclass(frozen=True)
class DerivedSpec:
    op: str  # "hat" | "check" | "power" | "dc_minorant"
    base: "SequenceSpec"
    s: Optional[float] = None  # exponent, power op only


SequenceSpec = Union[GevreySpec, QGevreySpec, Example38Spec, ExplicitSpec, DerivedSpec]


def spec_to_json(spec: SequenceSpec) -> dict:
    """Serialize a spec to a JSON-compatible dict (round-trip stable)."""
    if isinstance(spec, GevreySpec):
        return {"kind": "gevrey", "s": spec.s}
    if isinstance(spec, QGevreySpec):
        return {"kind": "q_gevrey", "q": spec.q}
    if isinstance(spec, Example38Spec):
        return {"kind": "example38"}
    if isinstance(spec, ExplicitSpec):
        tail = {"rule": spec.tail_rule}
        if spec.tail_rule == "arithmetic":
            tail["step"] = spec.tail_value
        else:
            tail["exponent"] = spec.tail_value
        return {"kind": "explicit", "log_m": list(spec.log_m), "tail": tail}
    if isinstance(spec, DerivedSpec):
        out = {"kind": "derived", "op": spec.op, "base": spec_to_json(spec.base)}
        if spec.op == "power":
            out["s"] = spec.s
        return out
    raise ValidationError(f"unknown spec object {spec!r}")


def spec_from_json(data: object) -> SequenceSpec:
    """Parse a spec dict; error messages name the offending field."""
    return _parse_spec(data, 0)


def _parse_spec(data: object, depth: int) -> SequenceSpec:
    if not isinstance(data, dict):
        raise ValidationError("spec must be a JSON object")
    kind = data.get("kind")
    if kind == "gevrey":
        s = _require_number(data, "s")
        if s <= 0:
            raise ValidationError("gevrey: field 's' must be > 0")
        return GevreySpec(s=float(s))
    if kind == "q_gevrey":
        q = _require_number(data, "q")
        if q <= 1:
            raise ValidationError("q_gevrey: field 'q' must be > 1")
        return QGevreySpec(q=float(q))
    if kind == "example38":
        return Example38Spec()
    if kind == "explicit":
        values = data.get("log_m")
        if not isinstance(values, list) or not values:
            raise ValidationError("explicit: field 'log_m' must be a nonempty list")
        for i, v in enumerate(values):
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValidationError(f"explicit: field 'log_m[{i}]' must be a finite number")
        tail = data.get("tail")
        if not isinstance(tail, dict):
            raise ValidationError("explicit: field 'tail' must be an object")
        rule = tail.get("rule")
        if rule == "arithmetic":
            step = _require_number(tail, "step", where="explicit.tail")
            return ExplicitSpec(tuple(float(v) for v in values), "arithmetic", float(step))
        if rule == "power":
            expo = _require_number(tail, "exponent", where="explicit.tail")
            return ExplicitSpec(tuple(float(v) for v in values), "power", float(expo))
        raise ValidationError("explicit: field 'tail.rule' must be 'arithmetic' or 'power'")
    if kind == "derived":
        op = data.get("op")
        if op not in ("hat", "check", "power", "dc_minorant"):
            raise ValidationError("derived: field 'op' must be hat|check|power|dc_minorant")
        if depth >= MAX_DERIVED_DEPTH:
            raise ValidationError(f"derived: field 'base' nests deeper than {MAX_DERIVED_DEPTH}")
        base = _parse_spec(data.get("base"), depth + 1)
        if op == "power":
            s = _require_number(data, "s", where="derived")
            if s <= 0:
                raise ValidationError("derived: field 's' must be > 0")
            return DerivedSpec(op="power", base=base, s=float(s))
        return DerivedSpec(op=op, base=base)
    raise ValidationError(f"spec: field 'kind' has unknown value {kind!r}")


def _require_number(data: dict, field: str, where: str = "") -> float:
    v = data.get(field)
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        prefix = f"{where}: " if where else ""
        raise ValidationError(f"{prefix}field '{field}' must be a finite number")
    return float(v)


# ---------------------------------------------------------------------------
# example38: delta-blocks on the quotients
# ---------------------------------------------------------------------------

# k_j = 2^(3^j), q_j = k_j^2. The table extends one level past the probe
# range (j <= 8) so growth across the last probed block is measurable.
EX38_LEVELS = 10
EX38_K = [2 ** (3**j) for j in range(EX38_LEVELS)]
EX38_Q = [k * k for k in EX38_K]


def example38_log_m(p: int) -> float:
    """log m_p = sum_{k<=p} delta_k/k for the example38 family.

    delta_1 = delta_2 = 2; delta_k = 3 on (k_j, q_j]; delta_k = 2 on
    (q_j, k_{j+1}]. Evaluated through harmonic numbers:

        log m_p = 2 H_p + sum_{j : k_j < p} (H_{min(q_j, p)} - H_{k_j})

    `p` may be an arbitrarily large Python int.
    """
    if p < 0:
        raise ValidationError("example38_log_m: p must be >= 0")
    if p == 0:
        return 0.0
    total = 2.0 * harmonic_number(p)
    for k, q in zip(EX38_K, EX38_Q):
        if k >= p:
            break
        total += harmonic_number(min(q, p)) - harmonic_number(k)
    return total


@dataclass(frozen=True)
class BlockProfile:
    """Power-law description of an example38-derived sequence.

    Within each delta-block, log m_q ~ log m_a + slope*(log q - log a) where
    slope = delta*scale + shift (delta in {2, 3}); scale collects power()
    exponents along the derivation tree and shift counts hat (+1) / check (-1)
    wrappers.
    """

    scale: float
    shift: float

    def slope(self, delta: int) -> float:
        return delta * self.scale + self.shift

    def segments(self) -> list[tuple[int, int, int]]:
        """(start, end, delta) triples covering [1, k_{EX38_LEVELS-1}]."""
        segs: list[tuple[int, int, int]] = [(1, EX38_K[0], 2)]
        for j in range(EX38_LEVELS - 1):
            segs.append((EX38_K[j] + 1, EX38_Q[j], 3))
            segs.append((EX38_Q[j] + 1, EX38_K[j + 1], 2))
        return segs


def block_profile(spec: SequenceSpec) -> Optional[BlockProfile]:
    """BlockProfile for example38 under hat/check/power wrappers, else None."""
    if isinstance(spec, Example38Spec):
        return BlockProfile(scale=1.0, shift=0.0)
    if isinstance(spec, DerivedSpec) and spec.op in _DERIVATIONS:
        inner = block_profile(spec.base)
        if inner is None:
            return None
        rule = _DERIVATIONS[spec.op]
        scale = spec.s if rule.scaled else 1.0
        return BlockProfile(scale=inner.scale * scale, shift=inner.shift * scale + rule.shift)
    return None  # dc_minorant: cumulative, no closed block form


# ---------------------------------------------------------------------------
# weight sequences
# ---------------------------------------------------------------------------


class WeightSequence:
    """A weight sequence with memoized log-domain evaluators.

    `metadata` maps condition names to analytically certain truth values
    (True/False); absence means unknown. Metadata is only ever attached by
    constructors with an analytic justification.
    """

    def __init__(
        self,
        spec: SequenceSpec,
        inc_fn: Callable[[int], float],
        big_fn: Optional[Callable[[int], float]],
        metadata: dict[str, bool],
        name: str,
        big_M_fn: Optional[Callable[[int], float]] = None,
    ):
        self.spec = spec
        self.name = name
        self.metadata = dict(metadata)
        self._inc_fn = inc_fn
        self._big_fn = big_fn
        self._big_M_fn = big_M_fn
        # prefix[p] = log M_p; grown strictly sequentially so values never
        # depend on the order or granularity of earlier queries
        self._prefix = array("d", [0.0])
        # derive() results by (op, s), so a repeated derivation reuses the
        # prefix the first one materialized
        self._derived: dict[tuple[str, Optional[float]], WeightSequence] = {}

    # -- evaluation --------------------------------------------------------

    def _ensure(self, count: int) -> None:
        """Materialize prefix sums so that log_M(p) exists for p < count."""
        if count - 1 > BIG_INDEX_LIMIT:
            raise EvaluationError(
                f"index {count - 1} exceeds the cumulative evaluation limit {BIG_INDEX_LIMIT}"
            )
        prefix = self._prefix
        inc_fn = self._inc_fn
        p = len(prefix) - 1
        while p < count - 1:
            v = inc_fn(p)
            if not math.isfinite(v):
                raise EvaluationError(f"log m_{p} evaluated to a non-finite value")
            prefix.append(prefix[p] + v)
            p += 1

    def log_M(self, p: int) -> float:
        """log M_p. Defined for 0 <= p <= BIG_INDEX_LIMIT."""
        if p < 0:
            raise ValidationError("log_M: p must be >= 0")
        self._ensure(p + 1)
        return self._prefix[p]

    def log_m(self, p: int) -> float:
        """log m_p = log M_{p+1} - log M_p (exact against log_M by construction)."""
        if p < 0:
            raise ValidationError("log_m: p must be >= 0")
        if p < BIG_INDEX_LIMIT:
            self._ensure(p + 2)
            return self._prefix[p + 1] - self._prefix[p]
        if self._big_fn is None:
            raise EvaluationError(
                f"index {p} exceeds the cumulative limit and this sequence has no "
                "closed-form big-index quotient"
            )
        return self._big_fn(p)

    def log_m_fast(self, p: int) -> float:
        """log m_p without growing the prefix: already-materialized indices
        come from the prefix, everything else from the closed-form increment.

        Search loops probing scattered large indices should use this; the
        value may differ from log_m by float rounding of the prefix sums.
        """
        if 0 <= p < len(self._prefix) - 1:
            return self._prefix[p + 1] - self._prefix[p]
        if self._big_fn is not None:
            return self._big_fn(p)
        return self.log_m(p)

    def log_M_array(self, n: int) -> np.ndarray:
        """[log M_0, ..., log M_n]."""
        self._ensure(n + 1)
        return np.frombuffer(self._prefix, count=n + 1).copy()

    def log_m_array(self, n: int) -> np.ndarray:
        """[log m_0, ..., log m_n] (differences of the same stored prefix)."""
        self._ensure(n + 2)
        prefix = np.frombuffer(self._prefix, count=n + 2)
        return np.diff(prefix)

    # envelope evaluators probe far beyond any horizon; prefer the closed
    # form above this index instead of growing the prefix term by term
    _CLOSED_FORM_AFTER = 65536

    def log_M_extended(self, p: int) -> float:
        """log M_p, reaching past the cumulative limit when a closed form exists.

        Below `_CLOSED_FORM_AFTER` (or whenever already materialized) this is
        the stored prefix sum; beyond it the constructor closed form is used,
        which agrees with the prefix up to float rounding.
        """
        if p < 0:
            raise ValidationError("log_M_extended: p must be >= 0")
        if p < len(self._prefix):
            return self._prefix[p]
        if self._big_M_fn is None:
            return self.log_M(p)
        if p <= self._CLOSED_FORM_AFTER:
            return self.log_M(p)
        return self._big_M_fn(p)

    # -- metadata ----------------------------------------------------------

    def certifies(self, cond: str) -> bool:
        """Analytically certain truth of `cond`, with the closure lc => wlc,
        snq => nq."""
        if self.metadata.get(cond) is True:
            return True
        if cond == "wlc" and self.metadata.get("lc") is True:
            return True
        if cond == "nq" and self.metadata.get("snq") is True:
            return True
        return False

    def refutes(self, cond: str) -> bool:
        return self.metadata.get(cond) is False

    def block_profile(self) -> Optional[BlockProfile]:
        return block_profile(self.spec)

    def __repr__(self) -> str:
        return f"WeightSequence({self.name})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_sequence(spec: SequenceSpec) -> WeightSequence:
    """Build the evaluator pair for a spec. Derivation trees are walked
    recursively; check/hat cancellations collapse to the base sequence."""
    if isinstance(spec, GevreySpec):
        if spec.s <= 0:
            raise ValidationError("gevrey: field 's' must be > 0")
        s = spec.s

        def inc(p: int) -> float:
            return s * math.log(p + 1)

        return WeightSequence(
            spec,
            inc,
            inc,
            {"lc": True, "mg": True, "snq": True},
            f"gevrey({s:g})",
            big_M_fn=lambda p: s * math.lgamma(p + 1),
        )

    if isinstance(spec, QGevreySpec):
        if spec.q <= 1:
            raise ValidationError("q_gevrey: field 'q' must be > 1")
        logq = math.log(spec.q)

        def inc(p: int) -> float:
            if p > 10**15:
                raise EvaluationError("q_gevrey quotient overflows beyond p = 1e15")
            return (2 * p + 1) * logq

        return WeightSequence(
            spec,
            inc,
            inc,
            {"lc": True, "dc": True, "mg": False, "borel_surjective": True},
            f"q_gevrey({spec.q:g})",
            big_M_fn=lambda p: float(p) * float(p) * logq,
        )

    if isinstance(spec, Example38Spec):
        # strongly regular: (lc) since the quotients are nondecreasing,
        # (mg) and (snq) by the block construction
        return WeightSequence(
            spec,
            example38_log_m,
            example38_log_m,
            {"lc": True, "mg": True, "snq": True},
            "example38",
        )

    if isinstance(spec, ExplicitSpec):
        values = spec.log_m
        n = len(values)
        head_sum = math.fsum(values)
        if spec.tail_rule == "arithmetic":
            last = values[n - 1]
            step = spec.tail_value

            def inc(p: int) -> float:
                if p < n:
                    return values[p]
                if p > 10**15:
                    raise EvaluationError("arithmetic tail overflows beyond p = 1e15")
                return last + step * (p - (n - 1))

            def big_M(p: int) -> float:
                if p <= n:
                    return math.fsum(values[:p])
                k = p - n
                return head_sum + k * last + step * 0.5 * k * (k + 1)

        else:  # power tail: log m_p = c * log(p+1)
            c = spec.tail_value

            def inc(p: int) -> float:
                if p < n:
                    return values[p]
                return c * math.log(p + 1)

            def big_M(p: int) -> float:
                if p <= n:
                    return math.fsum(values[:p])
                return head_sum + c * (math.lgamma(p + 1) - math.lgamma(n + 1))

        return WeightSequence(spec, inc, inc, {}, f"explicit[{n}]", big_M_fn=big_M)

    if isinstance(spec, DerivedSpec):
        base = make_sequence(spec.base)
        if spec.op == "dc_minorant":
            return dc_minorant(base)
        return _derive(base, spec.op, spec.s)

    raise ValidationError(f"unknown spec object {spec!r}")


@dataclass(frozen=True)
class _Derivation:
    """An affine derivation op: log m'_p = scale * log m_p + shift * log(p+1),
    with scale the exponent s when `scaled` (power) and 1 otherwise; log M'
    takes lgamma(p+1) in place of log(p+1). A certified base passes on
    `keeps_true`, refutations of `keeps_false` survive, `inverse` cancels it."""

    shift: int
    scaled: bool
    keeps_true: tuple[str, ...]
    keeps_false: tuple[str, ...]
    inverse: Optional[str] = None


_DERIVATIONS = {
    # all six growth conditions survive M -> hat(M); dc/mg falsity survives
    # too since both are kept under the inverse (check) direction
    "hat": _Derivation(+1, False, ("lc", "wlc", "dc", "mg", "nq", "snq"), ("dc", "mg"), "check"),
    # only (dc) and (mg) are generally kept under M -> check(M)
    "check": _Derivation(-1, False, ("dc", "mg"), ("dc", "mg"), "hat"),
    # monotone quotients, (dc), (mg) and gamma > 0 all scale cleanly
    "power": _Derivation(0, True, ("lc", "dc", "mg", "snq"), ("lc", "dc", "mg")),
}


def derive(seq: WeightSequence, op: str, s: Optional[float] = None) -> WeightSequence:
    """Apply hat / check / power(s) to a sequence.

    check(hat(X)) and hat(check(X)) collapse to X exactly; nested powers
    multiply their exponents. A repeated (op, s) on the same object returns
    the same derived object.
    """
    rule = _DERIVATIONS.get(op)
    if rule is None:
        raise ValidationError(f"derive: unknown op {op!r} (expected hat|check|power)")
    if rule.scaled and (s is None or not (s > 0) or not math.isfinite(s)):
        raise ValidationError("derive: power requires a finite exponent s > 0")
    key = (op, s if rule.scaled else None)
    hit = seq._derived.get(key)
    if hit is None:
        hit = seq._derived[key] = _derive_fresh(seq, op, s)
    return hit


def _derive_fresh(seq: WeightSequence, op: str, s: Optional[float]) -> WeightSequence:
    """derive() for an (op, s) not yet derived from seq."""
    rule = _DERIVATIONS[op]
    inner = seq.spec if isinstance(seq.spec, DerivedSpec) else None
    if inner is not None and inner.op == rule.inverse:
        return make_sequence(inner.base)
    if inner is not None and inner.op == op and rule.scaled:
        seq, s = make_sequence(inner.base), inner.s * s
        if s == 1.0:
            return seq
    return _derive(seq, op, s)


def _affine(
    f: Optional[Callable[[int], float]], scale: float, shift: int, g: Callable[[float], float]
):
    """p -> scale * f(p) + shift * g(p+1), or None without f. hat/check only
    shift and power only scales; leaving the zero term out keeps each value's
    bits (adding 0.0 would turn -0.0 into 0.0) and saves one log per term."""
    if f is None:
        return None
    if shift:
        return lambda p: f(p) + shift * g(p + 1)
    return lambda p: scale * f(p)


def _derive(base: WeightSequence, op: str, s: Optional[float]) -> WeightSequence:
    """The derived sequence for a _DERIVATIONS op, on all three evaluators."""
    rule = _DERIVATIONS[op]
    if rule.scaled:
        if s is None or not (s > 0) or not math.isfinite(s):
            raise ValidationError("derived: field 's' must be a finite number > 0")
        scale, name = s, f"power({base.name},{s:g})"
    else:
        scale, s, name = 1.0, None, f"{op}({base.name})"
    meta = {cond: True for cond in rule.keeps_true if base.certifies(cond)}
    meta.update({cond: False for cond in rule.keeps_false if base.refutes(cond)})
    return WeightSequence(
        DerivedSpec(op, base.spec, s),
        _affine(base.log_m, scale, rule.shift, math.log),
        _affine(base._big_fn, scale, rule.shift, math.log),
        meta,
        name,
        big_M_fn=_affine(base._big_M_fn, scale, rule.shift, math.lgamma),
    )


def dc_minorant(base: WeightSequence) -> WeightSequence:
    """The derivative-closed minorant built from a_p = min(2^(p+1), (p+1) m_p):

        N_0 = 1,  N_p = (1/p!) * prod_{j<p} a_j

    so log n_p = log a_p - log(p+1), which telescopes the factorial away.
    When the input is (wlc)+(nq), N is (wlc), (dc) with H = 2, and (nq), and
    N is contained in M with h = C = 1.
    """
    LOG2 = math.log(2.0)

    def inc(p: int) -> float:
        lp1 = math.log(p + 1)
        log_a = min((p + 1) * LOG2, lp1 + base.log_m(p))
        return log_a - lp1

    meta: dict[str, bool] = {}
    if base.certifies("wlc") and base.certifies("nq"):
        meta = {"wlc": True, "dc": True, "nq": True}
    return WeightSequence(
        DerivedSpec("dc_minorant", base.spec), inc, None, meta, f"dc_minorant({base.name})"
    )


def sequence_from_json(data: object) -> WeightSequence:
    return make_sequence(spec_from_json(data))
