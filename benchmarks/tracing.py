"""Spans and counters around the calls into each layer of the package.

`install` rebinds public functions at the module attributes their callers
look up, so the package itself is not modified. Calls at layer boundaries
become spans (name, start, end, parent), kept in memory and written out when
the run ends. Calls that run tens of thousands of times per operation are
aggregated instead, which keeps memory and overhead bounded: the omega
evaluator into a call count and time, the sequence probes and the jet
reciprocal into call counts only.

Self time of a call is its duration minus the time its traced callees took.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli", "cache", "sequences", "conditions", "indices",
    "verdicts", "special_functions", "moments",
)
CONDITION_CHECKS = ("lc", "wlc", "dc", "mg", "nq")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent span index or -1]
        self._stack: list = []  # open spans: [name, span index, child seconds]
        self.calls: Counter = Counter()  # timed calls per name
        self.seconds: defaultdict = defaultdict(float)  # inclusive time per name
        self.self_seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.omega_args: set = set()
        # sequences: calls from outside the layer and the prefix terms they
        # added; calls made while a sequences call runs are not counted
        self.in_sequences = False
        self.probe_calls = 0
        self.terms_materialized = 0

    @property
    def caller(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        stack = self._stack
        parent = stack[-1] if stack else None
        sid = len(self.spans)
        span = [name, 0.0, 0.0, parent[1] if parent else -1]
        self.spans.append(span)
        frame = [name, sid, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            span[1], span[2] = t0, t1
            if parent is not None:
                parent[2] += dur
            self.calls[name] += 1
            self.seconds[name] += dur
            self.self_seconds[name] += dur - frame[2]

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def timed(self, name: str, fn):
        """Count and time a hot call without a span. Only for callables that
        call nothing else traced: their whole time is their self time."""
        calls, seconds, self_seconds, stack = self.calls, self.seconds, self.self_seconds, self._stack

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                calls[name] += 1
                seconds[name] += dur
                self_seconds[name] += dur
                if stack:
                    stack[-1][2] += dur

        return wrapper

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

    # -- per-layer figures -------------------------------------------------

    def metrics(self, ops: int) -> dict:
        calls, seconds = self.calls, self.seconds

        def ms_per_call(name: str) -> float:
            return 1e3 * seconds[name] / calls[name] if calls[name] else 0.0

        def per(value: float, name: str) -> float:
            return value / calls[name] if calls[name] else 0.0

        layer_self = defaultdict(float)
        for name, s in self.self_seconds.items():
            layer_self[layer_of(name)] += s
        ops = max(ops, 1)
        points = "special_functions.poisson_transform"
        round_trips = calls["moments.roundtrip"] + calls["moments.phase_roundtrip"]
        m = {
            "cli.analyze_ms": ms_per_call("cli.analyze"),
            "cache.warm_ms": ms_per_call("cache.warm"),
            "cache.persist_ms": ms_per_call("cache.persist"),
            "cache.hits": self.counts["cache.hits"] / ops,
            "cache.misses": self.counts["cache.misses"] / ops,
            "cache.bytes_written": self.counts["cache.bytes_written"] / ops,
            "sequences.array_ms": ms_per_call("sequences.array"),
            "sequences.array_calls": calls["sequences.array"] / ops,
            "sequences.terms_materialized": self.terms_materialized / ops,
            "sequences.probe_calls": self.probe_calls / ops,
            "conditions.power_series_ms": ms_per_call("conditions.power_series"),
            "conditions.power_series_calls": calls["conditions.power_series"] / ops,
            "conditions.gamma_beta_ms": ms_per_call("conditions.gamma_beta"),
            "conditions.gamma_beta_calls": calls["conditions.gamma_beta"] / ops,
            "indices.gamma_self_ms": 1e3 * per(self.self_seconds["indices.gamma_index"], "indices.gamma_index"),
            "indices.omega_self_ms": 1e3 * per(self.self_seconds["indices.omega_index"], "indices.omega_index"),
            "indices.gamma_probes": per(self.counts["indices.gamma_probes"], "indices.gamma_index"),
            "verdicts.classify_ms": ms_per_call("verdicts.classify"),
            "special_functions.poisson_ms": ms_per_call(points),
            "special_functions.shells_per_point": per(self.counts["special_functions.shells"], points),
            "special_functions.omega_calls_per_point": per(
                self.counts["special_functions.omega_in_points"], points
            ),
            "special_functions.omega_distinct_ratio": (
                self.counts["special_functions.omega_distinct"]
                / self.counts["special_functions.omega_in_points"]
                if self.counts["special_functions.omega_in_points"] else 0.0
            ),
            "special_functions.omega_ms": 1e3 * per(seconds["special_functions.omega"], points),
            "special_functions.g_decay_ms": ms_per_call("special_functions.verify_g_decay"),
            "moments.roundtrip_ms": ms_per_call("moments.roundtrip"),
            "moments.phase_roundtrip_ms": ms_per_call("moments.phase_roundtrip"),
            "moments.jet_reciprocal_calls": (
                self.counts["moments.jet_reciprocal"] / round_trips
                if round_trips else 0.0
            ),
            "moments.quad_ms": ms_per_call("moments.moment"),
        }
        for cond in CONDITION_CHECKS:
            m[f"conditions.check_ms.{cond}"] = ms_per_call(f"conditions.check.{cond}")
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = 1e3 * layer_self[layer] / ops
        return m


def install(tracer: Tracer) -> None:
    """Rebind the package's public functions to traced wrappers."""
    import momentgate.cli as cli
    from momentgate import cache, conditions, indices, moments, sequences
    from momentgate import special_functions as sf
    from momentgate import verdicts

    import workloads

    def rebind(module, attr: str, wrapper) -> None:
        setattr(module, attr, wrapper(getattr(module, attr)))

    rebind(cli, "main", lambda fn: tracer.span("cli.analyze", fn))

    # cache: hits and misses of warm, bytes of each file persist writes
    def traced_warm(fn):
        def warm(seq):
            hit = tracer.call("cache.warm", fn, seq)
            if hit:
                tracer.counts["cache.hits"] += 1
            elif cache.cache_dir() is not None:
                tracer.counts["cache.misses"] += 1
            return hit

        return warm

    def traced_persist(fn):
        def persist(seq):
            wrote = tracer.call("cache.persist", fn, seq)
            if wrote:
                path = os.path.join(cache.cache_dir(), cache.spec_key(seq) + ".npy")
                tracer.counts["cache.bytes_written"] += os.path.getsize(path)
            return wrote

        return persist

    rebind(cache, "warm", traced_warm)
    rebind(cache, "persist", traced_persist)

    # sequences: array accessors are spans; scalar probes run up to a million
    # times per operation, so they are only counted and their time stays
    # with their caller
    def traced_array(fn):
        inner = tracer.span("sequences.array", fn)

        def method(seq, *args):
            if tracer.in_sequences:
                return fn(seq, *args)
            tracer.in_sequences = True
            before = len(seq._prefix)
            try:
                return inner(seq, *args)
            finally:
                tracer.in_sequences = False
                tracer.terms_materialized += len(seq._prefix) - before

        return method

    def counted_probe(fn):
        def method(seq, *args):
            if tracer.in_sequences:
                return fn(seq, *args)
            tracer.in_sequences = True
            before = len(seq._prefix)
            try:
                return fn(seq, *args)
            finally:
                tracer.in_sequences = False
                tracer.probe_calls += 1
                tracer.terms_materialized += len(seq._prefix) - before

        return method

    WS = sequences.WeightSequence
    for attr in ("log_M_array", "log_m_array"):
        rebind(WS, attr, traced_array)
    for attr in ("log_M", "log_m", "log_m_fast", "log_M_extended"):
        rebind(WS, attr, counted_probe)

    # conditions, reached from verdicts, indices and special_functions
    def traced_check(fn):
        def check_condition(seq, cond, *args, **kwargs):
            return tracer.call(f"conditions.check.{cond}", fn, seq, cond, *args, **kwargs)

        return check_condition

    def traced_gamma_beta(fn):
        def check_gamma_beta(*args, **kwargs):
            if tracer.caller == "indices.gamma_index":
                tracer.counts["indices.gamma_probes"] += 1
            return tracer.call("conditions.gamma_beta", fn, *args, **kwargs)

        return check_gamma_beta

    for module in (verdicts, sf):
        rebind(module, "check_condition", traced_check)
    for module in (verdicts, indices):
        rebind(module, "check_gamma_beta", traced_gamma_beta)
    for module in (verdicts, indices, conditions):
        rebind(module, "classify_power_series", lambda fn: tracer.span("conditions.power_series", fn))
    rebind(indices, "classify_series", lambda fn: tracer.span("conditions.classify_series", fn))

    rebind(verdicts, "gamma_index", lambda fn: tracer.span("indices.gamma_index", fn))
    rebind(verdicts, "omega_index", lambda fn: tracer.span("indices.omega_index", fn))
    rebind(cli, "classify", lambda fn: tracer.span("verdicts.classify", fn))

    # special_functions: Poisson points, their shells and omega evaluations
    def traced_poisson(fn):
        def poisson_transform(*args, **kwargs):
            tracer.omega_args.clear()
            before = tracer.calls["special_functions.omega"]
            res = tracer.call("special_functions.poisson_transform", fn, *args, **kwargs)
            tracer.counts["special_functions.shells"] += res.shells
            tracer.counts["special_functions.omega_distinct"] += len(tracer.omega_args)
            tracer.counts["special_functions.omega_in_points"] += (
                tracer.calls["special_functions.omega"] - before
            )
            return res

        return poisson_transform

    def traced_evaluator(fn):
        def omega_evaluator(*args, **kwargs):
            omega = tracer.timed("special_functions.omega", fn(*args, **kwargs))

            def evaluate(t):
                tracer.omega_args.add(abs(t))
                return omega(t)

            return evaluate

        return omega_evaluator

    rebind(sf, "poisson_transform", traced_poisson)
    rebind(sf, "omega_evaluator", traced_evaluator)
    for attr in ("verify_poisson_lower_bound", "verify_g_decay"):
        rebind(sf, attr, lambda fn, attr=attr: tracer.span(f"special_functions.{attr}", fn))

    # moments: quadrature moments, the jet round trips the workload makes
    # and the reciprocal inside each of them
    rebind(moments, "moment", lambda fn: tracer.span("moments.moment", fn))
    rebind(workloads, "plain_round_trip", lambda fn: tracer.span("moments.roundtrip", fn))
    rebind(workloads, "phase_round_trip", lambda fn: tracer.span("moments.phase_roundtrip", fn))

    def counted_reciprocal(fn):
        def jet_reciprocal(G):
            tracer.counts["moments.jet_reciprocal"] += 1
            return fn(G)

        return jet_reciprocal

    rebind(moments, "jet_reciprocal", counted_reciprocal)
