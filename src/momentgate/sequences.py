"""Weight sequences M = (M_p) and their quotients m_p = M_{p+1}/M_p.

All evaluation happens in the log domain: values like p!^s overflow floats
almost immediately, while log M_p stays tame. A sequence is defined by the
closed form of its quotients log m_p; log M_p is materialized on demand as the
prefix sum of those increments, so the identity

    log_m(p) == log_M(p+1) - log_M(p)

holds exactly (the quotient is read back off the stored prefix). Each family
supplies its increments for an index range as one array, and the prefix grows
by one cumulative sum per request. That sum adds in index order from the last
stored value, so the stored bits equal those of a term-by-term loop, and the
prefix ends exactly at the requested index, however earlier requests were
chunked.

Closed forms on integer index arrays serve only past the materialized prefix,
and only where a search reads them there: omega_evaluator's crossover search
past the prefix, which only the certified (lc) families take, and the
delta-block probes of the example38 families. So gevrey, q_gevrey, example38
and their hat/check/power derivations carry a closed log m that answers
every index the search reaches (up to its cap 2^60, and up to k_8 for the
block probes); those built on gevrey or q_gevrey carry a closed log M too.
Those built on gevrey alone also carry their power law: the e with
log m_p = e log(p+1) at every p, which omega_evaluator's closed-form Poisson
points read.
An explicit spec or a dc_minorant is never certified (lc) nor a delta-block
family, so it is built from its increments alone, and its quotients stop at
the cumulative limit. Without (lc), omega_evaluator searches the isotonic
regression of the prefix quotients (the slopes of the lower convex hull of
log M), growing the prefix up to that limit.

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
import numbers
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import EvaluationError, ValidationError
from .numerics import harmonic_number, harmonic_numbers, index_label, log_array, log_p1

# log_M / prefix materialization is refused beyond this index; quotients are
# still available through closed forms (big-index path).
BIG_INDEX_LIMIT = 2_000_000

# derivation trees are walked recursively, down to every derived evaluator;
# deeper specs are refused at parse time instead of exhausting the stack
MAX_DERIVED_DEPTH = 64

# ---------------------------------------------------------------------------
# sequence specs
# ---------------------------------------------------------------------------


def _number(value: object, field: str, where: str, above: Optional[float] = None) -> float:
    """A spec field's value as a float: any real number but a bool (numpy
    scalars included) that is finite as a float and, when `above` is given,
    greater than it. Anything else is a ValidationError naming the field."""
    # float and int first: the ABC check alone costs several times more
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int or Fraction past the float range
            x = math.nan
        if math.isfinite(x):
            if above is None or x > above:
                return x
            raise ValidationError(f"{where}: field '{field}' must be > {above:g}")
    raise ValidationError(f"{where}: field '{field}' must be a finite number")


@dataclass(frozen=True)
class GevreySpec:
    s: float

    def __post_init__(self):
        object.__setattr__(self, "s", _number(self.s, "s", "gevrey", above=0.0))


@dataclass(frozen=True)
class QGevreySpec:
    q: float

    def __post_init__(self):
        object.__setattr__(self, "q", _number(self.q, "q", "q_gevrey", above=1.0))


@dataclass(frozen=True)
class Example38Spec:
    pass


# each explicit tail rule and the tail field that holds its value
_TAIL_FIELDS = {"arithmetic": "step", "power": "exponent"}


@dataclass(frozen=True)
class ExplicitSpec:
    log_m: tuple[float, ...]
    tail_rule: str  # "arithmetic" | "power"
    tail_value: float

    def __post_init__(self):
        if not isinstance(self.log_m, (list, tuple)) or not self.log_m:
            raise ValidationError("explicit: field 'log_m' must be a nonempty list")
        head = tuple(_number(v, f"log_m[{i}]", "explicit") for i, v in enumerate(self.log_m))
        field = _TAIL_FIELDS.get(self.tail_rule) if isinstance(self.tail_rule, str) else None
        if field is None:
            raise ValidationError("explicit: field 'tail.rule' must be 'arithmetic' or 'power'")
        object.__setattr__(self, "log_m", head)
        object.__setattr__(self, "tail_value", _number(self.tail_value, field, "explicit.tail"))


@dataclass(frozen=True)
class DerivedSpec:
    op: str  # "hat" | "check" | "power" | "dc_minorant"
    base: "SequenceSpec"
    s: Optional[float] = None  # exponent, power op only

    def __post_init__(self):
        if self.op not in ("hat", "check", "power", "dc_minorant"):
            raise ValidationError("derived: field 'op' must be hat|check|power|dc_minorant")
        if self.op == "power":
            object.__setattr__(self, "s", _number(self.s, "s", "derived", above=0.0))


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
        tail = {"rule": spec.tail_rule, _TAIL_FIELDS[spec.tail_rule]: spec.tail_value}
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
    """Map JSON onto the spec constructors, which check every field."""
    if not isinstance(data, dict):
        where = "derived: field 'base'" if depth else "spec"
        raise ValidationError(f"{where} must be a JSON object")
    kind = data.get("kind")
    if kind == "gevrey":
        return GevreySpec(data.get("s"))
    if kind == "q_gevrey":
        return QGevreySpec(data.get("q"))
    if kind == "example38":
        return Example38Spec()
    if kind == "explicit":
        tail = data.get("tail")
        if not isinstance(tail, dict):
            raise ValidationError("explicit: field 'tail' must be an object")
        rule = tail.get("rule")
        field = _TAIL_FIELDS.get(rule) if isinstance(rule, str) else None
        return ExplicitSpec(data.get("log_m"), rule, tail.get(field))
    if kind == "derived":
        if depth >= MAX_DERIVED_DEPTH:
            raise ValidationError(f"derived: field 'base' nests deeper than {MAX_DERIVED_DEPTH}")
        op = data.get("op")
        base = _parse_spec(data.get("base"), depth + 1)
        return DerivedSpec(op, base, data.get("s") if op == "power" else None)
    raise ValidationError(f"spec: field 'kind' has unknown value {kind!r}")


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


def _mapped(fn: Callable[[int], float], p: np.ndarray) -> np.ndarray:
    """[fn(x) for x in p] as a float array, fn taking each entry as a Python
    int of any size. It serves math.log on object arrays (indices past
    int64), example38_log_m, and math.lgamma on every index array: scipy's
    gammaln differs from CPython's lgamma in the last bit."""
    return np.fromiter(map(fn, p.tolist()), float, count=p.size)


def _log_p1(p: np.ndarray) -> np.ndarray:
    """[math.log(x + 1) for x in p] bit for bit. An int64 array takes one
    compiled pass: its cast to float rounds to nearest-even, as math.log's
    int conversion does. An object array, whose ints may pass int64, maps
    math.log."""
    if p.dtype == object:
        return _mapped(math.log, p + 1)
    return log_array((p + 1).astype(float))


def _example38_inc_array(lo: int, hi: int) -> np.ndarray:
    """[example38_log_m(p) for p in range(lo, hi)] bit for bit: the same
    harmonic differences, added block by block where p > k_j."""
    h = harmonic_numbers(lo, hi)
    total = 2.0 * h
    for k, q in zip(EX38_K, EX38_Q):
        if k + 1 >= hi:
            break
        h_k = harmonic_number(k)
        start = max(k + 1, lo)
        split = min(max(q + 1, start), hi)  # H_min(q, p) is H_q from here on
        total[start - lo : split - lo] += h[start - lo : split - lo] - h_k
        total[split - lo :] += harmonic_number(q) - h_k
    return total


@dataclass(frozen=True)
class BlockProfile:
    """Power-law description of an example38-derived sequence.

    Within each delta-block, log m_q ~ log m_a + slope*(log q - log a) where
    slope = delta*scale + shift (delta in {2, 3}); scale collects power()
    exponents along the derivation tree and shift counts hat (+1) / check (-1)
    wrappers. example38 carries BlockProfile(1.0, 0.0), and each derivation
    composes its base's profile once, as it builds the derived sequence.
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

    def boundaries(self) -> list[int]:
        """The block ends k_j and q_j for j <= 8, in increasing order: the
        indices where the local slope changes, which the probes visit."""
        return [end for j in range(EX38_LEVELS - 1) for end in (EX38_K[j], EX38_Q[j])]


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
        inc_array: Callable[[int, int], np.ndarray],
        closed_m: Optional[Callable[[np.ndarray], np.ndarray]],
        metadata: dict[str, bool],
        name: str,
        closed_M: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        power_exponent: Optional[float] = None,
        block: Optional[BlockProfile] = None,
    ):
        self.spec = spec
        self.name = name
        self.metadata = dict(metadata)
        # inc_array(lo, hi): a fresh float array of log m_p for lo <= p < hi,
        # which _ensure sums in place
        self.inc_array = inc_array
        # log m and log M at each entry of an integer index array (int64, or
        # object past it); None where the family has no closed form
        self._closed_m = closed_m
        self._closed_M = closed_M
        # e with log m_p = e * log(p+1) at every p, or None: the power law
        # that omega_evaluator's closed-form Poisson points read
        self.power_exponent = power_exponent
        # the delta-block profile of the example38 families, or None
        self._block = block
        # prefix[p] = log M_p, grown in chunks whose sums keep the bits of a
        # term-by-term loop and never past the length callers asked for, so
        # values depend neither on the order nor on the granularity of
        # earlier queries (omega values read the length: see log_M_extended)
        self._prefix = array("d", [0.0])
        # derive() results by (op, s), so a repeated derivation reuses the
        # prefix the first one materialized
        self._derived: dict[tuple[str, Optional[float]], WeightSequence] = {}
        # conditions._WorkingSet: the horizon-sized arrays the checkers read,
        # for the last horizon asked for
        self._working_set = None
        # length of the prefix file cache.warm validated or cache.persist
        # wrote, which persist leaves in place unless the prefix grew past it
        self._stored_length = 0

    # -- evaluation --------------------------------------------------------

    def _ensure(self, count: int) -> None:
        """Materialize prefix sums so that log_M(p) exists for p < count.

        Raises EvaluationError at the first p whose log m_p, or else whose
        log M_(p+1), is not finite; the finite values before it are kept.
        """
        if count - 1 > BIG_INDEX_LIMIT:
            raise EvaluationError(
                f"index {count - 1} exceeds the cumulative evaluation limit {BIG_INDEX_LIMIT}"
            )
        prefix = self._prefix
        lo = len(prefix) - 1
        if lo >= count - 1:
            return
        # overflow to inf is reported below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            sums = self.inc_array(lo, count - 1)
            # the running sum of [prefix[lo] + inc_lo, inc_lo+1, ...] is
            # cumsum([prefix[lo], *inc])[1:] term for term: the loop's bits.
            # prefix[lo] + cumsum(inc) would round differently.
            sums[0] += prefix[lo]
            np.cumsum(sums, out=sums)
            if not math.isfinite(sums[-1]):  # inf and nan never turn finite again
                bad = int(np.argmin(np.isfinite(sums)))
                prefix.frombytes(memoryview(sums[:bad]).cast("B"))
                p = lo + bad
                if math.isfinite(self.inc_array(p, p + 1)[0]):
                    raise EvaluationError(f"log M_{p + 1} evaluated to a non-finite value")
                raise EvaluationError(f"log m_{p} evaluated to a non-finite value")
        prefix.frombytes(memoryview(sums).cast("B"))

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
        # an object array keeps indices past int64 (example38 probes 2^6561) exact
        return float(self.log_m_fast(np.array([p], dtype=object))[0])

    def log_m_fast(self, p: np.ndarray) -> np.ndarray:
        """log m_p at each entry of the index array p, without growing the
        prefix: materialized indices read the prefix, the others the closed
        form, which the families a search probes past the prefix carry (see
        the module docstring). EvaluationError past the prefix without one,
        or where a quotient leaves the float range.

        Searches probing scattered large indices use this; a value may differ
        from log_m by float rounding of the prefix sums.
        """
        n = len(self._prefix) - 1
        if p.min(initial=n) >= n:
            return self._closed(p)
        prefix = np.frombuffer(self._prefix)
        q = np.minimum(p, n - 1).astype(np.intp)
        out = prefix[q + 1] - prefix[q]
        past = p >= n
        if past.any():
            out[past] = self._closed(p[past])
        return out

    def _closed(self, p: np.ndarray) -> np.ndarray:
        """The closed-form log m at indices p past the prefix."""
        if self._closed_m is None:
            raise EvaluationError(
                f"index {p.min()} is past the prefix (cumulative limit {BIG_INDEX_LIMIT}) "
                "and this sequence has no closed-form big-index quotient"
            )
        try:
            return self._closed_m(p)
        except OverflowError:  # a Python-int index whose quotient passes the float range
            raise EvaluationError(
                f"log m_p overflows at an index up to {index_label(p.max())}"
            ) from None

    def log_M_array(self, n: int) -> np.ndarray:
        """[log M_0, ..., log M_n]."""
        self._ensure(n + 1)
        return np.frombuffer(self._prefix, count=n + 1).copy()

    def log_m_array(self, n: int) -> np.ndarray:
        """[log m_0, ..., log m_n] (differences of the same stored prefix)."""
        return self._quotients(0, n + 1)

    def _quotients(self, lo: int, hi: int) -> np.ndarray:
        """[log m_lo, ..., log m_(hi-1)] as differences of the stored prefix."""
        self._ensure(hi + 1)
        return np.diff(np.frombuffer(self._prefix, count=hi + 1)[lo:])

    # envelope evaluators probe far beyond any horizon; prefer the closed
    # form above this index instead of growing the prefix term by term
    _CLOSED_FORM_AFTER = 65536

    def log_M_extended(self, p: np.ndarray) -> np.ndarray:
        """log M_p at each entry of the index array p, reaching past the
        cumulative limit when a closed form exists.

        Indices up to `_CLOSED_FORM_AFTER` (or all of them, without a closed
        form) read the stored prefix sums, grown to the largest of them first;
        so does any index already materialized. The others take the closed
        form, which agrees with the prefix up to float rounding. The value
        thus depends on how far earlier calls grew the prefix: any change that
        grows `len(self._prefix)` past what callers asked for (chunked growth,
        say) moves the bits of everything built on it, gfun included.
        """
        if p.min(initial=0) < 0:
            raise ValidationError("log_M_extended: p must be >= 0")
        top = p.max(initial=0)
        if top >= len(self._prefix):
            grow = p if self._closed_M is None else p[p <= self._CLOSED_FORM_AFTER]
            # past the limit, _ensure names the first index it cannot reach
            past = grow[grow > BIG_INDEX_LIMIT]
            self._ensure(int(past.min() if past.size else grow.max(initial=0)) + 1)
        prefix = np.frombuffer(self._prefix)
        if top < prefix.size:
            return prefix[p.astype(np.intp)]
        inside = p < prefix.size
        out = np.empty(p.shape)
        out[inside] = prefix[p[inside].astype(np.intp)]
        out[~inside] = self._closed_M(p[~inside])
        return out

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
        return self._block

    def __repr__(self) -> str:
        return f"WeightSequence({self.name})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_sequence(spec: SequenceSpec) -> WeightSequence:
    """Build the evaluator pair for a spec. Derivation trees are walked
    recursively and kept as given, since reports echo the spec: hat(check(X))
    stays a derived sequence. Only derive() collapses check/hat cancellations."""
    if isinstance(spec, GevreySpec):
        s = spec.s
        return WeightSequence(
            spec,
            lambda lo, hi: log_p1(lo, hi, s),
            lambda p: s * _log_p1(p),
            {"lc": True, "mg": True, "snq": True},
            f"gevrey({s:g})",
            closed_M=lambda p: s * _mapped(math.lgamma, p + 1),
            power_exponent=s,
        )

    if isinstance(spec, QGevreySpec):
        logq = math.log(spec.q)

        return WeightSequence(
            spec,
            lambda lo, hi: np.arange(2 * lo + 1, 2 * hi + 1, 2) * logq,
            lambda p: np.asarray((2 * p + 1) * logq, dtype=float),  # object arrays too
            {"lc": True, "dc": True, "mg": False, "borel_surjective": True},
            f"q_gevrey({spec.q:g})",
            closed_M=lambda p: np.square(p.astype(float)) * logq,
        )

    if isinstance(spec, Example38Spec):
        # strongly regular: (lc) since the quotients are nondecreasing,
        # (mg) and (snq) by the block construction
        return WeightSequence(
            spec,
            _example38_inc_array,
            lambda p: _mapped(example38_log_m, p),
            {"lc": True, "mg": True, "snq": True},
            "example38",
            block=BlockProfile(1.0, 0.0),
        )

    if isinstance(spec, ExplicitSpec):
        values, n = spec.log_m, len(spec.log_m)
        if spec.tail_rule == "arithmetic":
            last, step = values[n - 1], spec.tail_value
            tail = lambda lo, hi: np.arange(lo - (n - 1), hi - (n - 1)) * step + last
        else:  # power tail: log m_p = c * log(p+1)
            tail = lambda lo, hi: log_p1(lo, hi, spec.tail_value)

        def inc_array(lo: int, hi: int) -> np.ndarray:
            cut = min(max(lo, n), hi)  # first tail index
            return np.concatenate((values[lo:cut], tail(cut, hi)))

        return WeightSequence(spec, inc_array, None, {}, f"explicit[{n}]")

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
    if rule.scaled:
        s = DerivedSpec(op, seq.spec, s).s
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


def _derive(base: WeightSequence, op: str, s: Optional[float]) -> WeightSequence:
    """The derived sequence for a _DERIVATIONS op: log m'_p = scale * log m_p
    + shift * log(p+1) and log M'_p = scale * log M_p + shift * log p!, so a
    power law e becomes scale * e + shift, and so does each block slope.

    The increments read the base's stored quotients; the closed forms compose
    the base's, and are None where it has none. hat/check only shift and
    power only scales; leaving the zero term out keeps each value's bits
    (adding 0.0 would turn -0.0 into 0.0) and saves one log per term.
    """
    rule = _DERIVATIONS[op]
    if rule.scaled:
        scale, name = s, f"power({base.name},{s:g})"
    else:
        scale, s, name = 1.0, None, f"{op}({base.name})"
    shift = rule.shift

    def inc_array(lo: int, hi: int) -> np.ndarray:
        f = base._quotients(lo, hi)
        if shift:
            f += log_p1(lo, hi, shift)
        else:
            f *= scale
        return f

    f_m, f_M = base._closed_m, base._closed_M
    if shift:
        closed_m = f_m and (lambda p: f_m(p) + shift * _log_p1(p))
        closed_M = f_M and (lambda p: f_M(p) + shift * _mapped(math.lgamma, p + 1))
    else:
        closed_m = f_m and (lambda p: scale * f_m(p))
        closed_M = f_M and (lambda p: scale * f_M(p))
    e, b = base.power_exponent, base.block_profile()
    meta = {cond: True for cond in rule.keeps_true if base.certifies(cond)}
    meta.update({cond: False for cond in rule.keeps_false if base.refutes(cond)})
    return WeightSequence(
        DerivedSpec(op, base.spec, s), inc_array, closed_m, meta, name, closed_M,
        power_exponent=None if e is None else scale * e + shift,
        block=None if b is None else BlockProfile(b.scale * scale, b.shift * scale + shift),
    )


def dc_minorant(base: WeightSequence) -> WeightSequence:
    """The derivative-closed minorant built from a_p = min(2^(p+1), (p+1) m_p):

        N_0 = 1,  N_p = (1/p!) * prod_{j<p} a_j

    so log n_p = log a_p - log(p+1), which telescopes the factorial away.
    When the input is (wlc)+(nq), N is (wlc), (dc) with H = 2, and (nq), and
    N is contained in M with h = C = 1.
    """
    LOG2 = math.log(2.0)

    def inc_array(lo: int, hi: int) -> np.ndarray:
        lp1 = log_p1(lo, hi)
        log_a = np.arange(lo + 1, hi + 1) * LOG2
        log_pm = base._quotients(lo, hi)
        log_pm += lp1
        # min((p+1) log 2, log((p+1) m_p)) with Python min's rule: the second
        # only when strictly smaller
        np.copyto(log_a, log_pm, where=log_pm < log_a)
        log_a -= lp1
        return log_a

    meta: dict[str, bool] = {}
    if base.certifies("wlc") and base.certifies("nq"):
        meta = {"wlc": True, "dc": True, "nq": True}
    return WeightSequence(
        DerivedSpec("dc_minorant", base.spec), inc_array, None, meta, f"dc_minorant({base.name})"
    )


def sequence_from_json(data: object) -> WeightSequence:
    return make_sequence(spec_from_json(data))
