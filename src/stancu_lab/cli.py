"""Command-line front end.

Subcommands: ``eval`` (pointwise or gridded operator values), ``nodes``
(node listing with distances to m), ``check t1`` .. ``check t4``
(node-geometry and limit checks), ``figure`` (reproduce figures f1..f10
as CSV + SVG) and ``converge`` (sup-error scan along a degree sweep).
Each subcommand accepts exactly the flags it reads.

Exit codes: 0 success, 1 a checked assertion failed, 2 usage or
validation error, picked by ``main`` alone. CSV goes to stdout unless
``--out`` names a file. A reader-less stdout stays exit 2 when stderr
shares the pipe or cannot be written, and a failing check keeps exit 1
even when its FAIL line is lost.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import stat
import sys
from collections.abc import Iterable
from pathlib import Path

from .bounds import RatioFamily, check_corollary2, theorem4_experiment
from .figures import FIGURES, build_figure, csv_rows, curve_table, node_rows, with_overrides
from .nodes import NODE_HEADER, check_theorem1, check_theorem2, check_theorem3
from .operators import BUILTIN_FUNCTIONS, FunctionSpec, StancuParams, _as_unit_interval, uniform_grid

__all__ = ["main"]


_BLOCK = 4096


class _Fail(Exception):
    """A checked claim failed; the message is its FAIL line."""


def _to_devnull(stream) -> None:
    """Point ``stream``'s fd at os.devnull, where what a failed write left buffered flushes."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _put(write, chunks: Iterable[str]) -> None:
    """Hand each text chunk's UTF-8 bytes to ``write`` until it has taken them all."""
    for chunk in chunks:
        data = memoryview(chunk.encode())
        while data:  # a pipe, a signal or a raw stream may take fewer bytes than asked
            data = data[write(data):]


def _write(path, chunks: Iterable[str]) -> None:
    """Write text chunks to the file ``path`` as UTF-8, each as it comes, in place: no
    O_TRUNC (ext4 writes a truncated file back at close), and a regular file is cut last."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        _put(functools.partial(os.write, fd), chunks)
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):  # only a file has a tail
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        finally:
            os.close(fd)


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write text chunks to stdout, or to the file ``out``, each as it comes."""
    try:
        if out is not None:
            return _write(out, chunks)
        raw = getattr(sys.stdout, "buffer", None)  # a StringIO has none
        if isinstance(raw, io.RawIOBase):  # unbuffered: TextIOWrapper drops a short write's tail
            _put(raw.write, chunks)
        else:
            sys.stdout.writelines(chunks)
        sys.stdout.flush()  # status lines too: a closed stdout fails here, not at exit
    except OSError as exc:
        if out is None:
            _to_devnull(sys.stdout)
            out = "stdout"
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


def _eval_chunks(f, ps, blocks):
    yield "x,f,bernstein,stancu\n"
    yield from (csv_rows(curve_table(f, ps, xs)) for xs in blocks)


def cmd_eval(args) -> None:
    f = FunctionSpec.builtin(args.function)
    ps = (StancuParams(args.n), StancuParams(args.n, args.alpha, args.beta))
    # a bad point or a too-large degree raises before --out is opened
    if args.x is not None:
        chunks = list(_eval_chunks(f, ps, [_as_unit_interval([args.x], "--x")]))
    else:
        size = 101 if args.grid is None else args.grid
        try:
            # the points nearest 1/2 have the smallest recurrence seeds
            probe = uniform_grid(size, max(size // 2 - 2, 0), size // 2 + 2)
        except ValueError as exc:
            raise ValueError(f"--grid: {exc}") from None
        curve_table(f, ps, probe)
        blocks = (uniform_grid(size, i, i + _BLOCK) for i in range(0, size, _BLOCK))
        chunks = _eval_chunks(f, ps, blocks)
    _emit(chunks, args.out)


def cmd_nodes(args) -> None:
    p = StancuParams(args.n, args.alpha, args.beta)
    _emit([f"{NODE_HEADER}\n", node_rows(p)], args.out)


def _report(report, out) -> str | None:
    """Write a check's table, then return its status line, or raise it if the check failed."""
    _emit([report.header + "\n", csv_rows(report.columns)], out)
    if not report.ok:
        raise _Fail(report.status)
    return report.status


def _check_t1(args) -> str | None:
    degrees = [args.n] if args.n is not None else _parse_list(args.n_list, int)
    if not degrees:
        raise ValueError("--n-list must hold at least one degree")
    p = StancuParams(max(degrees), args.alpha, args.beta)
    return _report(check_theorem1(p, degrees), args.out)


def _check_t2(args) -> str | None:
    return _report(check_theorem2(StancuParams(args.n, args.alpha, args.beta)), args.out)


def _check_t3(args) -> str | None:
    if len(args.pair) < 2:
        raise ValueError("t3 needs at least two --pair alpha,beta")
    params = [StancuParams(args.n, *_parse_pair(raw)) for raw in args.pair]
    return _report(check_theorem3(*params), args.out)


def _check_t4(args) -> str | None:
    if args.epsilon is not None and not 0.0 < args.epsilon < float("inf"):
        raise ValueError("--epsilon must be positive and finite")
    f = FunctionSpec.builtin(args.function)
    fam = RatioFamily(args.alpha, args.beta, tuple(_parse_list(args.scales, float)))
    return _report(theorem4_experiment(f, args.n, fam, args.epsilon), args.out)


def cmd_figure(args) -> str:
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
        if not out_dir.is_dir():  # mkdir raises and catches FileExistsError on every re-run
            out_dir.mkdir(parents=True, exist_ok=True)
        _write(csv_path, [csv_text])
        _write(svg_path, [svg_text])
    except OSError as exc:
        raise ValueError(f"cannot write figure outputs: {exc}") from None
    return f"{csv_path}\n{svg_path}"


def cmd_converge(args) -> str | None:
    f = FunctionSpec.builtin(args.function)
    degrees = _parse_list(args.n_list, int)
    if not degrees or any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("--n-list must be non-empty and strictly increasing")
    ps = [StancuParams(n, args.alpha, args.beta) for n in degrees]
    return _report(check_corollary2(f, ps), args.out)


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

    s = _command(subs, "figure", cmd_figure, "", help="reproduce a figure as CSV + SVG")
    s.add_argument("figure_id", metavar="figure-id", help="f1..f10")
    for flag, cast in (("--n", int), ("--alpha", float), ("--beta", float), ("--grid", int)):
        s.add_argument(flag, type=cast)  # None keeps the preset's value
    s.add_argument("--out", default=".", help="output directory")

    # --n-list sets the degrees. Without --n and without abbreviations, a
    # stray --n is rejected instead of being ignored or read as --n-list.
    s = _command(subs, "converge", cmd_converge, "--function --alpha --beta --out",
                 help="sup-error scan over a degree sweep", allow_abbrev=False)
    s.add_argument("--n-list", required=True, help="comma list of degrees, increasing")

    return parser


def main(argv=None) -> int:
    """Run a subcommand, write its status line or its one stderr line, return the exit
    code. An unwritable stderr keeps the code: a reader-less stdout stays 2 when stderr
    shares the pipe, and a failing check stays 1 even when its FAIL line is lost."""
    args = _parser().parse_args(argv)
    try:
        status = args.func(args)
        if status is not None:
            _emit([status + "\n"], None)
        return 0
    except _Fail as exc:
        message, code = str(exc), 1
    except (ValueError, MemoryError) as exc:
        # a degree too large to allocate is a rejected input, like any other
        message, code = f"error: {exc}", 2
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
