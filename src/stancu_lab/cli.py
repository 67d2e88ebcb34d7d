"""Command-line front end.

Subcommands: ``eval`` (pointwise or gridded operator values), ``nodes``
(node listing with distances to m), ``check t1`` .. ``check t4``
(node-geometry and limit checks), ``figure`` (reproduce figures f1..f10
as CSV + SVG) and ``converge`` (sup-error scan along a degree sweep).
Each subcommand accepts exactly the flags it reads.

Exit codes: 0 success, 1 a checked assertion failed, 2 usage or
validation error. CSV goes to stdout unless ``--out`` names a file; the
environment variable ``STANCU_LAB_GRID=<mod_grid>,<sup_grid>`` overrides
the default measurement grids.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Iterable
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

import numpy as np

from .bounds import (
    BoundConfig,
    DEFAULT_CONFIG,
    RatioFamily,
    corollary2_bound,
    sup_error_and_distance,
    theorem4_experiment,
)
from .figures import FIGURES, NODE_HEADER, build_figure, csv_rows, fmt, node_rows, with_overrides
from .nodes import check_theorem1, check_theorem2, check_theorem3
from .operators import BUILTIN_FUNCTIONS, FunctionSpec, StancuParams, evaluate, uniform_grid

__all__ = ["main"]


def _env_config() -> BoundConfig:
    raw = os.environ.get("STANCU_LAB_GRID")
    if not raw:
        return DEFAULT_CONFIG
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError("STANCU_LAB_GRID must look like '<mod_grid>,<sup_grid>'")
    try:
        mod_size, sup_size = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("STANCU_LAB_GRID must hold two integers") from None
    return BoundConfig(mod_grid_size=mod_size, sup_grid_size=sup_size)


_BLOCK = 4096


def _emit(lines: Iterable[str], out: str | None) -> None:
    """Write lines to stdout, or to the file ``out``, one block at a time."""
    try:
        with (
            nullcontext(sys.stdout)
            if out is None
            else open(out, "w", encoding="utf-8", newline="\n")
        ) as stream:
            it = iter(lines)
            while block := list(islice(it, _BLOCK)):
                stream.write("\n".join(block) + "\n")
    except OSError as exc:
        if out is None:
            raise
        raise ValueError(f"cannot write {out}: {exc}") from None


def _parse_pair(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'alpha,beta', got {raw!r}")
    return float(parts[0]), float(parts[1])


def _parse_list(raw: str, cast) -> list:
    try:
        return [cast(v) for v in raw.split(",") if v != ""]
    except ValueError:
        raise ValueError(f"could not parse list {raw!r}") from None


def _eval_lines(f, ps, blocks):
    yield "x,f,bernstein,stancu"
    for xs in blocks:
        cols = [xs, np.asarray(f(xs), dtype=float), *evaluate(f, ps, xs).T]
        yield from csv_rows([c.tolist() for c in cols])


def cmd_eval(args) -> int:
    f = FunctionSpec.builtin(args.function)
    ps = (StancuParams(args.n), StancuParams(args.n, args.alpha, args.beta))
    if args.x is not None:
        probe = np.array([float(args.x)])
        blocks = [probe]
    else:
        size = 101 if args.grid is None else args.grid
        try:
            # the points nearest 1/2 have the smallest recurrence seeds
            probe = uniform_grid(size, max(size // 2 - 2, 0), size // 2 + 2)
        except ValueError as exc:
            raise ValueError(f"--grid: {exc}") from None
        blocks = (uniform_grid(size, i, i + _BLOCK) for i in range(0, size, _BLOCK))
    # a bad point or a too-large degree raises here, before --out is opened
    list(_eval_lines(f, ps, [probe]))
    _emit(_eval_lines(f, ps, blocks), args.out)
    return 0


def cmd_nodes(args) -> int:
    p = StancuParams(args.n, args.alpha, args.beta)
    _emit([NODE_HEADER] + node_rows(p), args.out)
    return 0


def _check_t1(args) -> int:
    degrees = [args.n] if args.n is not None else _parse_list(args.n_list, int)
    if not degrees:
        raise ValueError("--n-list must hold at least one degree")
    report = check_theorem1(StancuParams(max(degrees), args.alpha, args.beta), degrees)
    cols = [report.degrees, report.max_gaps.tolist(), report.bounds.tolist()]
    _emit(["n,max_gap,bound"] + csv_rows(cols), args.out)
    if not report.ok:
        n = report.degrees[report.failing_index]
        print(f"t1: FAIL at n={n}: max_gap exceeds bound", file=sys.stderr)
        return 1
    print("t1: OK")
    return 0


def _check_t2(args) -> int:
    p = StancuParams(args.n, args.alpha, args.beta)
    report = check_theorem2(p)
    _emit([NODE_HEADER] + node_rows(p), args.out)
    if not report.ok:
        print(f"t2: FAIL at k={report.failing_index}", file=sys.stderr)
        return 1
    crossings = ",".join(str(k) for k in report.crossing_indices) or "none"
    print(f"t2: OK (contraction {fmt(report.contraction)}, crossings at k={crossings})")
    return 0


def _check_t3(args) -> int:
    if len(args.pair) < 2:
        raise ValueError("t3 needs at least two --pair alpha,beta")
    params = [StancuParams(args.n, *_parse_pair(raw)) for raw in args.pair]
    # every pair is validated before anything is written
    reports = [check_theorem3(p1, p2) for p1, p2 in zip(params, params[1:])]
    m = reports[0].ratio_m
    cols = [range(args.n + 1)]
    for q in params:
        nodes = q.node_values()
        cols += [nodes.tolist(), np.abs(nodes - m).tolist()]
    header = "k," + ",".join(f"node_{i},dist_{i}" for i in range(len(params)))
    _emit([header] + csv_rows(cols), args.out)
    for p1, p2, report in zip(params, params[1:], reports):
        if not report.ok:
            print(
                f"t3: FAIL for pairs ({p1.alpha},{p1.beta}) -> ({p2.alpha},{p2.beta}) "
                f"at k={report.failing_index}",
                file=sys.stderr,
            )
            return 1
    print(f"t3: OK (m={fmt(m)})")
    return 0


def _check_t4(args) -> int:
    if args.epsilon is not None and not 0.0 < args.epsilon < float("inf"):
        raise ValueError("--epsilon must be positive and finite")
    f = FunctionSpec.builtin(args.function)
    scales = _parse_list(args.scales, float)
    fam = RatioFamily(args.alpha, args.beta, tuple(scales))
    report = theorem4_experiment(f, args.n, fam, _env_config())
    cols = [range(len(report.levels)), *zip(*report.levels),
            report.distances.tolist(), report.bounds.tolist()]
    _emit(["level,alpha,beta,distance,bound"] + csv_rows(cols), args.out)
    if not report.ok:
        print(f"t4: FAIL at level {report.failing_index}: distance exceeds its bound",
              file=sys.stderr)
        return 1
    if args.epsilon is not None and not report.final_distance < args.epsilon:
        print(
            f"t4: FAIL: final distance {fmt(report.final_distance)} not below "
            f"epsilon {fmt(args.epsilon)}",
            file=sys.stderr,
        )
        return 1
    print(f"t4: OK (final distance {fmt(report.final_distance)} at f(m)={fmt(report.f_at_m)})")
    return 0


def cmd_figure(args) -> int:
    job = FIGURES.get(args.figure_id)
    if job is None:
        raise ValueError(f"unknown figure {args.figure_id!r}; choose f1..f10")
    job = with_overrides(job, n=args.n, grid_size=args.grid, alpha=args.alpha, beta=args.beta)
    # build first: invalid overrides raise before the output directory exists
    csv_text, svg_text = build_figure(job)
    out_dir = Path(args.out)
    csv_path = out_dir / f"{job.figure_id}.csv"
    svg_path = out_dir / f"{job.figure_id}.svg"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(csv_text, encoding="utf-8", newline="\n")
        svg_path.write_text(svg_text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValueError(f"cannot write figure outputs: {exc}") from None
    print(csv_path)
    print(svg_path)
    return 0


def cmd_converge(args) -> int:
    f = FunctionSpec.builtin(args.function)
    degrees = _parse_list(args.n_list, int)
    if not degrees or any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("--n-list must be non-empty and strictly increasing")
    cfg = _env_config()
    rows = []
    for n in degrees:
        p = StancuParams(n, args.alpha, args.beta)
        rows.append((
            *sup_error_and_distance(f, p, cfg),
            corollary2_bound(f, p, cfg),
            p.displacement_bound(),
        ))
    header = "n,sup_error,operator_distance,corollary2_bound,t1_bound"
    _emit([header] + csv_rows([degrees, *zip(*rows)]), args.out)
    for n, (sup, _, bound, _) in zip(degrees, rows):
        if sup > bound + 1e-9:
            print(f"converge: FAIL at n={n}: sup_error exceeds corollary2_bound", file=sys.stderr)
            return 1
    return 0


# The flags several subcommands share, each declared once.
_FLAGS = {
    "--function": dict(choices=BUILTIN_FUNCTIONS, default="sin15"),
    "--n": dict(type=int, required=True),
    "--alpha": dict(type=float, default=0.0),
    "--beta": dict(type=float, default=0.0),
    "--out": dict(default=None, help="write CSV here instead of stdout"),
}


def _command(subs, name: str, func, flags: str, **kwargs) -> argparse.ArgumentParser:
    """A sub-parser that runs ``func`` and takes the shared ``flags`` named."""
    s = subs.add_parser(name, **kwargs)
    for flag in flags.split():
        s.add_argument(flag, **_FLAGS[flag])
    s.set_defaults(func=func)
    return s


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="stancu-lab",
        description="Bernstein-Stancu operator experiments: evaluation, node geometry, "
        "convergence scans and figure reproduction.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = _command(subs, "eval", cmd_eval, "--function --n --alpha --beta --out",
                 help="operator values at a point or over a grid")
    # no parser default for --grid: argparse skips the conflict check for a
    # value that is the default object, and int("101") is the cached 101
    g = s.add_mutually_exclusive_group()
    g.add_argument("--x", type=float)
    g.add_argument("--grid", type=int, help="grid size (default 101)")

    _command(subs, "nodes", cmd_nodes, "--n --alpha --beta --out",
             help="node listing with gaps and distances to m")

    checks = subs.add_parser("check", help="run one of the t1..t4 checks")
    checks = checks.add_subparsers(dest="theorem", required=True)
    s = _command(checks, "t1", _check_t1, "--alpha --beta --out")
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--n-list", help="comma list of degrees, increasing")
    _command(checks, "t2", _check_t2, "--n --alpha --beta --out")
    s = _command(checks, "t3", _check_t3, "--n --out")
    s.add_argument("--pair", action="append", required=True, help="alpha,beta (repeat)")
    s = _command(checks, "t4", _check_t4, "--function --n --alpha --beta --out")
    s.add_argument("--scales", default="1,10,100", help="comma list of scale factors")
    s.add_argument("--epsilon", type=float, help="final-distance target")

    s = subs.add_parser("figure", help="reproduce a figure as CSV + SVG")
    s.add_argument("figure_id", metavar="figure-id", help="f1..f10")
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--beta", type=float, default=None)
    s.add_argument("--grid", type=int, default=None)
    s.add_argument("--out", default=".", help="output directory")
    s.set_defaults(func=cmd_figure)

    # --n-list sets the degrees. Without --n and without abbreviations, a
    # stray --n is rejected instead of being ignored or read as --n-list.
    s = _command(subs, "converge", cmd_converge, "--function --alpha --beta --out",
                 help="sup-error scan over a degree sweep", allow_abbrev=False)
    s.add_argument("--n-list", required=True, help="comma list of degrees, increasing")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
