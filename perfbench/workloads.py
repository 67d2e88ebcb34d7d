"""The benchmark workloads (one pass of ops, its checks, its digest form) and
the reference kernel that op times are paired with.

A workload is built from the stancu_lab modules handed in by the runner
(so it always uses the freshly imported ones) and a seed. It exposes:

* ``ops``: one pass, a list of zero-argument callables. Each is exactly
  one public call and looks its function up by name when called, so the
  tracer's wrappers are seen.
* ``check(results)``: the per-op correctness checks on one full pass,
  returning ``{op index: problem}``. They run outside every timed span.
* ``canon(i, out)``: a string that pins op ``i``'s output to the bit.
  Later passes must reproduce the first pass's string exactly, and the
  run's output digest is the sha256 of the first pass's strings.

Why these three: ``pointwise`` is the scalar evaluation path, where
per-call overhead, the basis recurrence and sampling of f do the work and
bounds and formatting do nothing. ``bounds`` is the measurement path,
where the pure-Python modulus scan takes about half the time and the
degree-1000 grid curves set the tail latency and peak memory.
``figures`` is the reproduction path, where CSV formatting, SVG
rendering, argparse and file writes take about half the time and bounds
never run, so it catches a kernel or modulus change that taxes the other
layers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import random
from pathlib import Path

import numpy as np

WALK_KNOTS = 65
WALK_STEP_SD = 0.125
# Grid of the scalar-versus-curve bit-identity check; some pointwise x
# values are drawn from it.
IDENTITY_GRID = 101
TOL = 1e-12
BOUND_SLACK = 1e-9


_REF_ONE = np.ones(1)
_REF_VEC = np.linspace(0.0, 1.0, 2048)
_REF_OUT = np.empty_like(_REF_VEC)
_REF_BIG = np.zeros(1 << 19)  # 4 MiB, larger than a core's private caches


def reference_kernel() -> float:
    """Fixed work that owes nothing to stancu_lab, timed around every op.

    A shared machine drifts in speed by tens of percent within a minute;
    the ratio of an op's time to this kernel's time next to it cancels
    most of that drift. It mixes what the ops
    spend their time on: the interpreter with numpy calls on one-element
    arrays (about two thirds of its time), a vectorised ufunc and one
    streaming pass over an array that does not fit in a core's private
    caches, which the degree-1000 curves of the bounds workload depend on.
    """
    acc = 0.0
    b = _REF_ONE
    for k in range(320):
        b = b * 1.0000001 + 0.5
        acc += k * 0.5
    np.sin(_REF_VEC * 15.0, out=_REF_OUT)
    np.add(_REF_BIG, 1.0, out=_REF_BIG)
    return acc + float(b[0]) + float(_REF_OUT[-1])


class Call:
    """One public call ``module.name(*args)``, resolved at call time."""

    __slots__ = ("module", "name", "args")

    def __init__(self, module, name, *args):
        self.module = module
        self.name = name
        self.args = args

    def __call__(self):
        return getattr(self.module, self.name)(*self.args)


def make_walk(lab, rng: random.Random):
    """A seeded random walk tabulated on 65 equally spaced knots of [0, 1]."""
    xs = [k / (WALK_KNOTS - 1) for k in range(WALK_KNOTS)]
    ys = [0.0]
    for _ in range(WALK_KNOTS - 1):
        ys.append(ys[-1] + rng.gauss(0.0, WALK_STEP_SD))
    return lab.operators.FunctionSpec.tabulated("walk", xs, ys)


def make_functions(lab, rng, names):
    builtin = lab.operators.FunctionSpec.builtin
    return {name: make_walk(lab, rng) if name == "walk" else builtin(name) for name in names}


def canon_value(v) -> str:
    """Bit-exact text form of a result: floats by repr, reports field by field."""
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, np.ndarray):
        return repr(v.tolist())
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        inner = ",".join(
            f"{fld.name}={canon_value(getattr(v, fld.name))}" for fld in dataclasses.fields(v)
        )
        return f"{type(v).__name__}({inner})"
    if isinstance(v, (tuple, list)):
        return "[" + ",".join(canon_value(x) for x in v) + "]"
    return repr(v)


class Pointwise:
    """Each op is one scalar ``apply_operator(f, p, x)``.

    Every (f, n, shift) combination gets the same number of ops per pass,
    so a pass costs about the same for every seed: x = 0, x = 1, two
    interior points of the identity grid and twelve uniform draws.
    """

    name = "pointwise"
    FUNCTIONS = ("e1", "e2", "sin15", "abshalf", "walk")
    DEGREES = (50, 250, 1000)
    SHIFTS = ((0.0, 0.0), (20.0, 30.0))
    UNIFORM_PER_COMBO = 12
    GRID_PER_COMBO = 2

    def __init__(self, lab, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.lab = lab
        funcs = make_functions(lab, rng, self.FUNCTIONS)
        grid = np.linspace(0.0, 1.0, IDENTITY_GRID)
        self.inputs = []  # (f, p, x, identity-grid index or None)
        for fname in self.FUNCTIONS:
            for n in self.DEGREES:
                for a, b in self.SHIFTS:
                    p = lab.operators.StancuParams(n, a, b)
                    f = funcs[fname]
                    self.inputs.append((f, p, 0.0, 0))
                    self.inputs.append((f, p, 1.0, IDENTITY_GRID - 1))
                    for _ in range(self.GRID_PER_COMBO):
                        j = rng.randrange(1, IDENTITY_GRID - 1)
                        self.inputs.append((f, p, float(grid[j]), j))
                    for _ in range(self.UNIFORM_PER_COMBO):
                        self.inputs.append((f, p, rng.random(), None))
        rng.shuffle(self.inputs)
        self.ops = [Call(lab.operators, "apply_operator", f, p, x) for f, p, x, _ in self.inputs]

    def canon(self, i, out) -> str:
        return repr(out)

    def check(self, results) -> dict[int, str]:
        ops = self.lab.operators
        node_vals = {}
        curves = {}
        problems = {}
        for i, ((f, p, x, j), v) in enumerate(zip(self.inputs, results)):
            if v is None:
                continue
            key = (f, p)
            if key not in node_vals:
                node_vals[key] = np.asarray(f(p.node_values()), dtype=float)
            fn = node_vals[key]
            if f.name in ("e1", "e2"):
                want = ops.moment_closed_form(1 if f.name == "e1" else 2, p, x)
                if not abs(v - want) <= TOL:
                    problems[i] = f"{f.name} n={p.n}: {v!r} vs moment {want!r}"
            elif not (fn.min() - TOL <= v <= fn.max() + TOL):
                problems[i] = f"{f.name} n={p.n} x={x!r}: {v!r} outside node-value range"
            if x == 0.0 and v != fn[0]:
                problems[i] = f"{f.name} n={p.n}: value at 0 is {v!r}, not f(node_0)"
            if x == 1.0 and v != fn[-1]:
                problems[i] = f"{f.name} n={p.n}: value at 1 is {v!r}, not f(node_n)"
            if j is not None:
                if key not in curves:
                    curves[key] = ops.apply_operator_curve(f, p, IDENTITY_GRID)
                curve = curves[key]
                if curve.grid[j] != x or curve.values[j] != v:
                    problems[i] = f"{f.name} n={p.n} x={x!r}: scalar and curve values differ"
        return problems


class Bounds:
    """Each op is one bound or check call, as the scripts and CLI make them.

    Per function (sin15, abshalf, walk): the shift-sensitivity table at
    n = 100 over its seven pairs, the converge sweep at (20, 30) and the
    collapse experiment on (4.7, 10) at scales 1..1e4; plus the node
    checks t1..t3 at the README presets.
    """

    name = "bounds"
    FUNCTIONS = ("sin15", "abshalf", "walk")
    TABLE_N = 100
    TABLE_PAIRS = (
        (0.0, 0.0), (4.7, 10.0), (20.0, 30.0), (17.0, 100.0),
        (47.0, 100.0), (77.0, 100.0), (470.0, 1000.0),
    )
    CONVERGE_SHIFT = (20.0, 30.0)
    CONVERGE_DEGREES = (50, 100, 250, 500, 1000)
    T4_PAIR = (4.7, 10.0)
    T4_SCALES = (1.0, 10.0, 100.0, 1000.0, 10000.0)

    def __init__(self, lab, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.lab = lab
        b, nodes = lab.bounds, lab.nodes
        P = lab.operators.StancuParams
        funcs = make_functions(lab, rng, self.FUNCTIONS)
        plan = []  # (kind, f, p, call)
        for fname in self.FUNCTIONS:
            f = funcs[fname]
            plan.append(("grid_slack", f, None, Call(b, "grid_slack", f)))
            for a, bb in self.TABLE_PAIRS:
                p = P(self.TABLE_N, a, bb)
                shift = (a + bb) / (self.TABLE_N + bb)
                plan.append(("sup_error", f, p, Call(b, "sup_error", f, p)))
                plan.append(("operator_distance", f, p, Call(b, "operator_distance", f, p)))
                if shift > 0.0:
                    plan.append(("modulus", f, p, Call(b, "modulus_of_continuity", f, shift)))
                plan.append(("corollary2_bound", f, p, Call(b, "corollary2_bound", f, p)))
            for n in self.CONVERGE_DEGREES:
                p = P(n, *self.CONVERGE_SHIFT)
                plan.append(("sup_error", f, p, Call(b, "sup_error", f, p)))
                plan.append(("operator_distance", f, p, Call(b, "operator_distance", f, p)))
                plan.append(("corollary2_bound", f, p, Call(b, "corollary2_bound", f, p)))
            fam = b.RatioFamily(*self.T4_PAIR, self.T4_SCALES)
            plan.append(("theorem4", f, None, Call(b, "theorem4_experiment", f, self.TABLE_N, fam)))
        t3 = [P(100, 4.7, 10.0), P(100, 47.0, 100.0), P(100, 470.0, 1000.0)]
        plan += [
            ("check", None, None, Call(nodes, "check_theorem1", P(250, 20.0, 30.0), (25, 50, 100, 250))),
            ("check", None, None, Call(nodes, "check_theorem2", P(100, 47.0, 100.0))),
            ("check", None, None, Call(nodes, "check_theorem3", t3[0], t3[1])),
            ("check", None, None, Call(nodes, "check_theorem3", t3[1], t3[2])),
        ]
        rng.shuffle(plan)
        self.plan = [(kind, f, p) for kind, f, p, _ in plan]
        self.ops = [call for *_, call in plan]

    def canon(self, i, out) -> str:
        return canon_value(out)

    def check(self, results) -> dict[int, str]:
        bound = {
            (f, p): v
            for (kind, f, p), v in zip(self.plan, results)
            if kind == "corollary2_bound" and v is not None
        }
        problems = {}
        for i, ((kind, f, p), v) in enumerate(zip(self.plan, results)):
            if v is None:
                continue
            if kind == "theorem4":
                if not v.within_bound:
                    problems[i] = f"{f.name}: collapse distance exceeds its bound"
            elif kind == "check":
                if not v.ok:
                    problems[i] = f"{type(v).__name__} not ok"
            elif not (math.isfinite(v) and v >= 0.0):
                problems[i] = f"{kind} {f.name}: {v!r} is not a finite non-negative number"
            elif kind == "sup_error":
                if (f, p) not in bound:
                    problems[i] = f"{f.name} {p}: no corollary2_bound to compare with"
                elif v > bound[(f, p)] + BOUND_SLACK:
                    problems[i] = f"{f.name} {p}: sup_error {v!r} > bound {bound[(f, p)]!r}"
        return problems


class Figures:
    """Each op is one ``cli.main(["figure", id, "--out", dir])``.

    f1..f10 at their presets plus f3..f5 with ``--n 100``: the set that
    ``scripts/reproduce_figures.py --n100`` writes.
    """

    name = "figures"
    JOBS = tuple((f"f{i}", ()) for i in range(1, 11)) + tuple(
        (fid, ("--n", "100")) for fid in ("f3", "f4", "f5")
    )

    def __init__(self, lab, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.lab = lab
        self.jobs = []  # (argv, csv path, svg path)
        for fid, extra in self.JOBS:
            out = workdir / ("n100" if extra else "preset")
            argv = ["figure", fid, *extra, "--out", str(out)]
            self.jobs.append((argv, out / f"{fid}.csv", out / f"{fid}.svg"))
        rng.shuffle(self.jobs)
        self.ops = [self._op(argv) for argv, _, _ in self.jobs]
        self.bytes_written = 0

    def _op(self, argv):
        cli = self.lab.cli

        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue()

        return op

    def canon(self, i, out) -> str:
        rc, stdout = out
        _, csv_path, svg_path = self.jobs[i]
        csv, svg = csv_path.read_bytes(), svg_path.read_bytes()
        self.bytes_written += len(csv) + len(svg) + len(stdout.encode())
        csv_sha = hashlib.sha256(csv).hexdigest()
        svg_sha = hashlib.sha256(svg).hexdigest()
        return f"rc={rc}|{stdout!r}|csv={csv_sha}|svg={svg_sha}"

    def check(self, results) -> dict[int, str]:
        problems = {}
        for i, ((argv, csv_path, svg_path), out) in enumerate(zip(self.jobs, results)):
            if out is None:
                continue
            rc, stdout = out
            if rc != 0:
                problems[i] = f"{' '.join(argv)}: exit code {rc}"
            elif stdout != f"{csv_path}\n{svg_path}\n":
                problems[i] = f"{' '.join(argv)}: unexpected output {stdout!r}"
            elif csv_path.stat().st_size == 0 or svg_path.stat().st_size == 0:
                problems[i] = f"{' '.join(argv)}: empty output file"
        return problems


WORKLOADS = {w.name: w for w in (Pointwise, Bounds, Figures)}
