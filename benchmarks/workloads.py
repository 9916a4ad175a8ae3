"""Seeded workloads, their operations and the output check of each operation.

A workload is an endless, seeded stream of operations. The stream is built
from cycles whose composition is fixed and whose parameters and order come
from the seed, so every seed loads the layers in the same proportions and a
run's median latency does not depend on which seed the driver picked.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

WORKLOADS = ("classify_regular", "classify_block", "numerics_mix")

# Seed whose canonical reports are pinned by sha256 in digests.json.
DEFAULT_SEED = 0

# classify_regular: one spec per horizon level per cycle, so every cycle
# spans the whole working-set range and the median falls in the middle level,
# whose operations are long enough (about 0.3 s) to average short swings in
# machine speed. 4096 and 10 000 are the horizons A10 and A1 pin.
REGULAR_LEVELS = (4096, 10_000, 100_000, 200_000, 300_000)
REGULAR_KINDS = ("gevrey", "q_gevrey", "explicit_arith", "explicit_power", "derived")
DERIVED_OPS = ("hat", "check", "power", "dc_minorant")

# Inputs pinned by acceptance tests A1 and A10.
A1_GEVREY_S = tuple(round(0.2 * k, 10) for k in range(1, 16))
A10_Q = 2.0
Q_GRID = (1.5, A10_Q, 3.0, 4.0)

# classify_block: example38 and the derived wrappers the block-series path
# accepts, at the two horizons of acceptance test A2.
BLOCK_HORIZONS = (10_000, 100_000)
BLOCK_SHAPES = ("example38", "power", "hat", "check", "nested_power")
BLOCK_POWER_S = (0.5, 0.6, 0.75, 1.25, 1.5, 2.0)

# numerics_mix: per cycle two moments (fast), two jet batches (middle) and a
# Poisson and a G point (slow), so the median sits in the middle of the jet
# batches and the tail inside the quadrature points.
NUMERIC_CYCLE = ("poisson", "g_decay", "jets", "jets", "moment", "moment")
JET_BATCH = 16  # jet pairs per operation, each round-tripped plain and with phase
# tolerances of the gfun battery and acceptance tests A5-A7
POISSON_TOL, G_DECAY_TOL, QUAD_TOL = 1e-6, 1e-4, 1e-7
MOMENT_RTOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One operation: `kind` names what runs, `args` is its generated input."""

    kind: str
    args: dict


def operations(workload: str, seed: int) -> Iterator[Op]:
    rng = random.Random(f"{workload}:{seed}")
    return {
        "classify_regular": _regular_ops,
        "classify_block": _block_ops,
        "numerics_mix": _numeric_ops,
    }[workload](rng)


# ---------------------------------------------------------------------------
# generators


class _Draw:
    """Draws from a grid without replacement, then from a uniform range."""

    def __init__(self, rng: random.Random, grid, lo: float, hi: float):
        self._rng = rng
        self._grid = list(grid)
        rng.shuffle(self._grid)
        self._lo, self._hi = lo, hi

    def __call__(self) -> float:
        if self._grid:
            return self._grid.pop()
        return round(self._rng.uniform(self._lo, self._hi), 6)


def _explicit_arith(rng: random.Random) -> dict:
    n = rng.randint(3, 12)
    head = [round(rng.uniform(0.0, 0.5), 6)]
    for _ in range(n - 1):
        head.append(round(head[-1] + rng.uniform(0.05, 0.5), 6))
    step = round(rng.uniform(0.05, 0.5), 6)
    return {"kind": "explicit", "log_m": head, "tail": {"rule": "arithmetic", "step": step}}


def _explicit_power(rng: random.Random) -> dict:
    e = round(rng.uniform(0.3, 3.0), 6)
    head = [
        round(e * math.log(p + 1) + 0.01 * rng.random(), 6)
        for p in range(rng.randint(4, 24))
    ]
    return {"kind": "explicit", "log_m": head, "tail": {"rule": "power", "exponent": e}}


def _regular_ops(rng: random.Random) -> Iterator[Op]:
    gevrey_s = _Draw(rng, A1_GEVREY_S, 0.2, 3.0)
    q_gevrey_q = _Draw(rng, Q_GRID, 1.1, 4.0)
    derived_ops = itertools.cycle(DERIVED_OPS)

    def spec(kind: str) -> dict:
        if kind == "gevrey":
            return {"kind": "gevrey", "s": gevrey_s()}
        if kind == "q_gevrey":
            return {"kind": "q_gevrey", "q": q_gevrey_q()}
        if kind == "explicit_arith":
            return _explicit_arith(rng)
        if kind == "explicit_power":
            return _explicit_power(rng)
        base = rng.choice(
            (
                {"kind": "gevrey", "s": round(rng.uniform(0.3, 3.0), 6)},
                {"kind": "q_gevrey", "q": round(rng.uniform(1.1, 4.0), 6)},
                _explicit_power(rng),
            )
        )
        op = next(derived_ops)
        out = {"kind": "derived", "op": op, "base": base}
        if op == "power":
            out["s"] = round(rng.uniform(0.3, 2.5), 6)
        return out

    for cycle in itertools.count():
        # Latin square: over five cycles every kind meets every horizon level
        slots = [
            (REGULAR_KINDS[(cycle + i) % len(REGULAR_KINDS)], h)
            for i, h in enumerate(REGULAR_LEVELS)
        ]
        rng.shuffle(slots)
        for kind, horizon in slots:
            s = spec(kind)
            # the per-run cache starts empty and draws never repeat a spec, so
            # the first pass is cold (persist) and the second warm (warm)
            yield Op("analyze", {"spec": s, "horizon": horizon, "pass": "cold"})
            yield Op("analyze", {"spec": s, "horizon": horizon, "pass": "warm"})


def _block_spec(shape: str, rng: random.Random) -> dict:
    e38 = {"kind": "example38"}
    if shape == "example38":
        return e38
    if shape == "power":
        return {"kind": "derived", "op": "power", "base": e38, "s": rng.choice(BLOCK_POWER_S)}
    if shape in ("hat", "check"):
        return {"kind": "derived", "op": shape, "base": e38}
    inner = {"kind": "derived", "op": "power", "base": e38, "s": rng.choice(BLOCK_POWER_S)}
    return {"kind": "derived", "op": "power", "base": inner, "s": rng.choice(BLOCK_POWER_S)}


def _block_ops(rng: random.Random) -> Iterator[Op]:
    # a 50 s run completes only about 25 operations, so each cycle is short:
    # every shape once, the horizons alternating between cycles
    for cycle in itertools.count():
        slots = [
            (shape, BLOCK_HORIZONS[(cycle + i) % len(BLOCK_HORIZONS)])
            for i, shape in enumerate(BLOCK_SHAPES)
        ]
        rng.shuffle(slots)
        for shape, horizon in slots:
            yield Op("analyze", {"spec": _block_spec(shape, rng), "horizon": horizon, "pass": None})


def _jet_pair(rng: random.Random) -> tuple[tuple, tuple]:
    # order-13 rational jets drawn as in acceptance test A5
    b = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 30)) for _ in range(13))
    G = (Fraction(rng.randint(1, 40), rng.randint(1, 20)),) + tuple(
        Fraction(rng.randint(-50, 50), rng.randint(1, 25)) for _ in range(12)
    )
    return b, G


def _stratified_points(rng: random.Random, xs: tuple, ys: tuple, cells: int = 4) -> Iterator[complex]:
    """Points of the box xs x ys, one per cell of a cells x cells grid in a
    fresh seeded order each pass: a point's quadrature cost depends on where
    it lies, so every run should visit the box evenly."""
    (x0, x1), (y0, y1) = xs, ys
    dx, dy = (x1 - x0) / cells, (y1 - y0) / cells
    grid = [(i, j) for i in range(cells) for j in range(cells)]
    while True:
        rng.shuffle(grid)
        for i, j in grid:
            yield complex(x0 + dx * (i + rng.random()), y0 + dy * (j + rng.random()))


def _numeric_ops(rng: random.Random) -> Iterator[Op]:
    # the regions of the gfun battery's lower-bound and decay grids
    poisson_points = _stratified_points(rng, (-10.0, 10.0), (0.5, 4.0))
    decay_points = _stratified_points(rng, (-20.0, 20.0), (0.25, 3.0))
    poisson_s = rng.choice((1.0, 2.0))
    while True:
        cycle = list(NUMERIC_CYCLE)
        rng.shuffle(cycle)
        for kind in cycle:
            if kind == "poisson":
                # s alternates so both shared evaluators are loaded equally
                poisson_s = 3.0 - poisson_s
                yield Op(kind, {"s": poisson_s, "z": next(poisson_points)})
            elif kind == "g_decay":
                yield Op(kind, {"z": next(decay_points)})
            elif kind == "jets":
                yield Op(kind, {"pairs": [_jet_pair(rng) for _ in range(JET_BATCH)]})
            else:
                yield Op(kind, {"s": rng.choice((1.0, 2.0, 3.0)), "p": rng.randint(0, 15)})


# ---------------------------------------------------------------------------
# execution


class Context:
    """What a workload prepares once per process before its first operation.

    Library functions are looked up through their modules at call time, so
    the tracing wrappers installed on those modules see every call.
    """

    def __init__(self, workload: str, scratch: str):
        import momentgate.cli as cli
        from momentgate import moments, numerics, sequences, special_functions

        self.cli = cli
        self.moments = moments
        self.special_functions = special_functions
        self.out_path = os.path.join(scratch, "report.json")
        # the example38 family reads harmonic numbers from a table built on
        # first use; build it here so it counts as set-up
        numerics.harmonic_number(numerics.HARMONIC_TABLE_LIMIT - 1)
        if workload == "numerics_mix":
            derive, make, spec = sequences.derive, sequences.make_sequence, sequences.GevreySpec
            # one evaluator per s for the whole run, so its memo is shared
            # across points as in the gfun battery
            self.omega = {
                s: special_functions.omega_evaluator(derive(make(spec(s=s)), "hat"))
                for s in (1.0, 2.0)
            }
            self.g_base = make(spec(s=2.0))
        self.digests: list = []
        self.cold_digest: Optional[str] = None
        self.last_digest: Optional[str] = None


def run_op(ctx: Context, op: Op):
    """Run one operation; return what check_op needs to judge it."""
    a = op.args
    if op.kind == "analyze":
        argv = [
            "analyze", json.dumps(a["spec"]), "--format", "json",
            "--horizon", str(a["horizon"]), "--out", ctx.out_path,
        ]
        return ctx.cli.main(argv)
    sf, mo = ctx.special_functions, ctx.moments
    if op.kind == "poisson":
        return sf.verify_poisson_lower_bound(
            ctx.omega[a["s"]], [a["z"]], tol=POISSON_TOL, quad_tol=QUAD_TOL
        )
    if op.kind == "g_decay":
        return sf.verify_g_decay(ctx.g_base, [a["z"]], tol=G_DECAY_TOL, quad_tol=QUAD_TOL)
    if op.kind == "jets":
        return [
            (plain_round_trip(mo, b, G), phase_round_trip(mo, b, G)) for b, G in a["pairs"]
        ]
    if op.kind == "moment":
        return mo.moment(mo.make_exp_power(a["s"]), a["p"])
    raise ValueError(f"unknown operation kind {op.kind!r}")


# Module-level so that the traced run can wrap each round trip in a span.
def plain_round_trip(mo, b: tuple, G: tuple):
    G = mo.Jet(G)
    return mo.inversion_coeffs(mo.forward_binomial(mo.Jet(b), G), G)


def phase_round_trip(mo, b: tuple, G: tuple):
    G = mo.Jet(G)
    return mo.phase_inversion_coeffs(mo.phase_forward_binomial(mo.Jet(b), G), G)


def check_op(ctx: Context, op: Op, index: int, seed: int, result) -> Optional[str]:
    """None when the output is correct, else why it is not."""
    a = op.args
    if op.kind == "analyze":
        return _check_report(ctx, op, index, seed, result)
    if op.kind in ("poisson", "g_decay"):
        return None if result.ok else f"grid check failed: {result.note}"
    if op.kind == "jets":
        for (b, _), trips in zip(a["pairs"], result):
            if any(jet.coefficients != b for jet in trips):
                return "jet round trip is not exact"
        return None
    s, p = a["s"], a["p"]
    want = s * math.exp(math.lgamma(s * (p + 1)))
    err = abs(result - want) / want
    return None if err <= MOMENT_RTOL else f"relative error {err:.3g} above {MOMENT_RTOL:g}"


def _check_report(ctx: Context, op: Op, index: int, seed: int, rc: int) -> Optional[str]:
    if rc not in (0, 2):
        return f"exit code {rc}"
    with open(ctx.out_path, "rb") as fh:
        raw = fh.read()
    digest = ctx.last_digest = hashlib.sha256(raw).hexdigest()
    rep = json.loads(raw)
    v = rep["verdicts"]
    for inj, sur in (("injective", "surjective"), ("origin_injective", "origin_surjective")):
        if v[inj]["status"] == "holds" and v[sur]["status"] == "holds":
            return f"{inj} and {sur} both hold"
    why = _pinned(op.args["spec"], op.args["horizon"], rep)
    if why:
        return why
    if op.args["pass"] == "cold":
        ctx.cold_digest = digest
    elif op.args["pass"] == "warm" and digest != ctx.cold_digest:
        return "warm-cache report differs from the cold one"
    if seed == DEFAULT_SEED and index < len(ctx.digests) and digest != ctx.digests[index]:
        return "report differs from the recorded digest"
    return None


def _affirmative(hyp: dict) -> bool:
    return hyp["status"] in ("exact_holds", "holds_at_horizon")


def _pinned(spec: dict, horizon: int, rep: dict) -> Optional[str]:
    """The verdicts and brackets acceptance tests A1, A2 and A10 pin."""
    v, ind = rep["verdicts"], rep["indices"]
    if spec["kind"] == "gevrey" and spec["s"] in A1_GEVREY_S and horizon == 10_000:
        s = spec["s"]
        if (v["injective"]["status"] == "holds") != (s <= 1.0):
            return f"A1: injective verdict wrong for gevrey({s})"
        if (v["surjective"]["status"] == "holds") != (s > 1.0):
            return f"A1: surjective verdict wrong for gevrey({s})"
    if spec["kind"] == "q_gevrey" and spec["q"] == A10_Q and horizon == 4096:
        hyp = rep["hypotheses"]
        mg = hyp["mg"]
        if not (_affirmative(hyp["lc"]) and _affirmative(hyp["dc"])):
            return "A10: lc/dc not affirmative for q_gevrey(2)"
        if mg["status"] != "fails" or not mg["witness"] or mg["witness"]["excess"] <= 0:
            return "A10: mg does not fail with a witness for q_gevrey(2)"
        if ind["gamma"]["lower"] != 64.0 or ind["gamma"]["upper"] != "inf":
            return "A10: gamma bracket is not [64, inf] for q_gevrey(2)"
    if horizon == 100_000 and spec == {"kind": "example38"}:
        g, o = ind["gamma"], ind["omega"]
        if not 2.45 <= o["estimate"] <= 2.55:
            return "A2: omega estimate of example38 outside [2.45, 2.55]"
        if not (g["lower"] <= 2.0 <= g["upper"] + 1e-12 and g["upper"] - g["lower"] <= 0.2):
            return "A2: gamma bracket of example38 misses 2 or is wider than 0.2"
    if horizon == 100_000 and spec == {
        "kind": "derived", "op": "power", "base": {"kind": "example38"}, "s": 0.5
    }:
        g = ind["gamma"]
        if not g["lower"] <= 1.0 <= g["upper"] + 1e-12:
            return "A2: gamma bracket of power(example38, 0.5) misses 1"
        if v["injective"]["status"] != "fails" or v["surjective"]["status"] != "fails":
            return "A2: power(example38, 0.5) is not non-injective and non-surjective"
    return None
