"""Command line surface: analyze one sequence, sweep a family, run a
verification battery.

Each subcommand declares only the flags it reads, and `verify SUITE` the
keyword parameters of its battery (`momentgate COMMAND --help` lists them);
any other flag, or a value out of range, is an error.

Exit codes: 0 success, 1 error, 2 analyze finished but produced only
non-definite verdicts. JSON output is canonical (sorted keys, no spaces),
so identical arguments give identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional

from . import cache
from .errors import (
    EvaluationError,
    InternalInvariantError,
    QuadratureError,
    ValidationError,
)
from .sequences import BIG_INDEX_LIMIT, SequenceSpec, make_sequence, spec_from_json
from .verdicts import MomentMapReport, classify
from .verification import SUITES, run_suite

__all__ = ["main"]


def _dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader closed stdout: the signal docs' quiet exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)


def _load_spec(arg: str) -> SequenceSpec:
    if arg.lstrip().startswith("{"):
        raw = arg
    else:
        try:
            with open(arg) as fh:
                raw = fh.read()
        except OSError as e:
            raise ValidationError(f"cannot read spec file {arg!r}: {e.strerror}")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ValidationError(
            f"spec parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        )
    return spec_from_json(data)


# ---------------------------------------------------------------------------
# rendering


_CSV_FIELDS = [
    "schema",
    "family",
    "param",
    "value",
    "injective",
    "surjective",
    "direction",
    "origin_injective",
    "origin_surjective",
    "gamma_lower",
    "gamma_upper",
    "gamma_estimate",
    "gamma_converged",
    "omega_estimate",
    "omega_converged",
    "error",
]

_PRETTY_CLAUSE = {
    "stieltjes_injective": "Thm 3.4 (i)",
    "stieltjes_surjective": "Thm 3.5 (v)",
    "origin_injective": "Thm 4.4 (iii)",
    "origin_surjective": "Thm 4.7 (i)",
}


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _empty_row(family: str, param: str, value) -> dict:
    row = {k: "" for k in _CSV_FIELDS}
    row["schema"] = "1"
    row["family"] = family
    row["param"] = param
    row["value"] = "" if value is None else f"{value:g}"
    return row


def _row_from_report(family: str, param: str, value, rep: MomentMapReport) -> dict:
    row = _empty_row(family, param, value)
    row.update(
        injective=rep.injective.status.value,
        surjective=rep.surjective.status.value,
        direction=rep.surjective.direction or "",
        origin_injective=rep.origin_injective.status.value,
        origin_surjective=rep.origin_surjective.status.value,
        gamma_lower=_fmt(rep.gamma.lower),
        gamma_upper=_fmt(rep.gamma.upper),
        gamma_estimate=_fmt(rep.gamma.estimate),
        gamma_converged="true" if rep.gamma.converged else "false",
        omega_estimate=_fmt(rep.omega.estimate),
        omega_converged="true" if rep.omega.converged else "false",
    )
    return row


def _rows_to_csv(rows: List[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().rstrip("\n")


def _cites(verdict) -> str:
    tags = list(verdict.citations)
    clause = _PRETTY_CLAUSE.get(verdict.name)
    if clause and tags:
        tags[0] = clause
    return "[" + ", ".join(tags) + "]" if tags else ""


def _render_pretty(rep: MomentMapReport) -> str:
    lines = [f"momentgate report: {rep.name} (schema {rep.schema})"]
    lines.append(f"horizon {rep.horizon}")
    lines.append("hypotheses:")
    for key in sorted(rep.hypotheses):
        v = rep.hypotheses[key]
        lines.append(f"  {key:6s} {v.status.value}")
    lines.append("verdicts:")
    labels = {
        "stieltjes_injective": "injective",
        "stieltjes_surjective": "surjective",
        "origin_injective": "origin injective",
        "origin_surjective": "origin surjective",
    }
    for v in rep.verdicts:
        flag = f" ({v.direction})" if v.direction else ""
        lines.append(
            f"  {labels[v.name]:18s} {v.status.value:12s}{flag} {_cites(v)}"
        )
        for note in v.notes:
            lines.append(f"    note: {note}")
    lines.append("indices:")
    g = rep.gamma
    lines.append(
        f"  gamma in [{_fmt(g.lower)}, {_fmt(g.upper)}]"
        f" estimate {_fmt(g.estimate)}"
        f" ({'converged' if g.converged else 'not converged'})"
    )
    o = rep.omega
    lines.append(
        f"  omega estimate {_fmt(o.estimate)}"
        f" ({'converged' if o.converged else 'not converged'})"
    )
    lines.append("citations: " + ", ".join(rep.citations))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


# the sweepable families and the spec field each one sweeps
_FAMILIES = {"gevrey": "s", "q_gevrey": "q"}


def _analyze(spec: SequenceSpec, horizon: int, tol: float) -> MomentMapReport:
    # make_sequence, cache and classify are looked up at call time, so a
    # tracer that rebinds them on this module sees every analysis
    seq = make_sequence(spec)
    cache.warm(seq)
    report = classify(seq, horizon=horizon, tol=tol)
    cache.persist(seq)
    return report


def cmd_analyze(args: argparse.Namespace) -> int:
    report = _analyze(_load_spec(args.spec), args.horizon, args.tol)
    if args.format == "json":
        text = _dumps(report.to_json())
    elif args.format == "csv":
        kind = report.sequence.get("kind", "")
        param = _FAMILIES.get(kind, "")
        value = report.sequence.get(param) if param else None
        text = _rows_to_csv([_row_from_report(kind, param, value, report)])
    else:
        text = _render_pretty(report)
    _emit(text, args.out)
    return 0 if report.any_definite else 2


def _sweep_task(task) -> dict:
    family, param, value, horizon, tol = task
    try:
        rep = _analyze(spec_from_json({"kind": family, param: value}), horizon, tol)
        return _row_from_report(family, param, value, rep)
    except Exception as e:  # per-row isolation: the sweep must keep going
        row = _empty_row(family, param, value)
        row["error"] = f"{type(e).__name__}: {e}"
        return row


def _parse_values(args: argparse.Namespace) -> List[float]:
    values: List[float] = []
    if args.values:
        for tok in args.values.split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                values.append(float(tok))
            except ValueError:
                raise ValidationError(f"sweep: bad grid value {tok!r}")
    if args.grid:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise ValidationError("sweep: --grid wants start:stop:step")
        try:
            start, stop, step = (float(t) for t in parts)
        except ValueError:
            raise ValidationError("sweep: --grid wants numeric start:stop:step")
        if step <= 0:
            raise ValidationError("sweep: --grid step must be > 0")
        k = 0
        while start + k * step <= stop + 1e-9:
            values.append(round(start + k * step, 12))
            k += 1
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.family not in _FAMILIES:
        raise ValidationError(
            f"sweep: unknown family {args.family!r}; choose from {sorted(_FAMILIES)}"
        )
    param = _FAMILIES[args.family]
    values = _parse_values(args)
    if not values:
        raise ValidationError("sweep: empty grid")
    tasks = [(args.family, param, v, args.horizon, args.tol) for v in values]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_task, tasks))
    else:
        rows = [_sweep_task(t) for t in tasks]
    _emit(_rows_to_csv(rows), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.suite, **{k: getattr(args, k) for k in args.suite_params})
    if args.format == "json":
        text = _dumps(report.to_json())
    else:
        lines = [f"suite {report.suite}: {'ok' if report.ok else 'FAILED'}"]
        for c in report.checks:
            parts = [f"[{'PASS' if c.ok else 'FAIL'}] {c.name}"]
            if c.measured is not None:
                parts.append(f"measured={c.measured:.6g}")
            if c.bound is not None:
                parts.append(f"bound={c.bound:.6g}")
            if c.citation:
                parts.append(f"[{c.citation}]")
            lines.append("  " + " ".join(parts))
            if not c.ok and c.witness is not None:
                lines.append(f"    witness: {_dumps(c.witness)}")
            if c.note:
                lines.append(f"    {c.note}")
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser


def _checked(convert, ok, rule: str):
    """argparse type: convert the text, then refuse a value that fails `ok`
    with "argument --flag: must be <rule>"."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):  # not (x > 0) also refuses nan
            raise argparse.ArgumentTypeError(f"must be {rule}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'abc'"
    return parse


_POSITIVE = _checked(float, lambda x: x > 0, "> 0")
# the checks read log m_horizon, i.e. log M up to index horizon + 1
_HORIZON = _checked(int, lambda h: 64 <= h < BIG_INDEX_LIMIT, f">= 64 and < {BIG_INDEX_LIMIT}")

# every flag a subcommand may take, with its add_argument keywords; a verify
# suite's own signature sets the default
_FLAGS = {
    "--horizon": dict(type=_HORIZON, default=10_000, help="index horizon"),
    "--tol": dict(type=_POSITIVE, default=0.05, help="index bracket tolerance"),
    "--quad-tol": dict(type=_POSITIVE, help="Poisson quadrature tolerance"),
    "--format": dict(choices=("json", "csv", "pretty"), default="pretty", help="output format"),
    "--seed": dict(type=int, help="seed of the random jets"),
    "--jobs": dict(type=_checked(int, lambda j: j >= 1, ">= 1"), default=1, help="worker processes"),
    "--out": dict(metavar="FILE", help="write output to FILE"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_FLAGS[name])


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line with exit 1, like
    every other input error; argparse's own exit 2 means "inconclusive"
    here. Subparsers inherit the class."""

    def error(self, message: str):
        raise ValidationError(message)


@functools.cache  # built once per process: main() may run many times in one
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="momentgate",
        description="growth conditions, indices, and moment-mapping verdicts "
        "for weight sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one sequence spec")
    p.add_argument("spec", help="inline spec JSON or a path to a spec file")
    _add_flags(p, "--horizon", "--tol", "--format", "--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="CSV report over a parameter grid")
    p.add_argument("family", help="parameterized family: gevrey or q_gevrey")
    p.add_argument("--grid", default=None, help="start:stop:step (inclusive)")
    p.add_argument("--values", default=None, help="comma-separated values")
    _add_flags(p, "--horizon", "--tol", "--jobs", "--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a named verification battery")
    suites = p.add_subparsers(dest="suite", required=True)
    for name, suite in SUITES.items():
        q = suites.add_parser(name)
        params = inspect.signature(suite).parameters.values()
        for param in params:
            flag = "--" + param.name.replace("_", "-")
            q.add_argument(flag, **{**_FLAGS[flag], "default": param.default})
        # a suite renders as JSON or as pretty text; it has no CSV form
        q.add_argument("--format", **{**_FLAGS["--format"], "choices": ("json", "pretty")})
        _add_flags(q, "--out")
        q.set_defaults(func=cmd_verify, suite_params=[param.name for param in params])

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (EvaluationError, QuadratureError, InternalInvariantError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
