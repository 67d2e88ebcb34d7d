#!/usr/bin/env python3
"""stancu-lab benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload {pointwise,bounds,figures} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree; the package is imported from
``src/``. A run sets up (fresh import of the stancu_lab modules plus
input generation from the seed), runs one untimed warm-up pass whose
results are checked and digested, then measures for ``--seconds``: ops
are timed one by one and every later pass must reproduce the warm-up
pass bit for bit. Without tracing, the measured time is cut into
``SETUP_REPS`` slices with one more set-up after each, so ``setup_s``,
the median set-up time, samples the machine across the whole run.

Each op is followed by a fixed reference kernel (``workloads.reference_kernel``)
timed the same way. A shared machine drifts in speed by tens of percent
within a minute, so the gated latency and throughput metrics are taken
in units of the kernel's time around each op ("ref": the mean of the
kernel times just before and just after it); the wall-clock figures go
to the run record.

The last stdout line is the result object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``). The line before it is the
run record: environment, seed, sample count, fail ratio and the output
digest. With ``--trace 1`` the measured time is split into an untraced
and a traced half, which gives the tracing overhead.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAB_MODULES = ("operators", "nodes", "bounds", "figures", "svg", "cli")
WORKLOAD_NAMES = ("pointwise", "bounds", "figures")
SETUP_REPS = 8
# The reference kernel runs once after each op, and once more for every
# REF_SPAN_NS the op took (at most REF_MAX_REPS times), so a long op is
# paired with a steadier speed estimate.
REF_SPAN_NS = 10_000_000
REF_MAX_REPS = 8
MAX_REPORTED_PROBLEMS = 10


def import_lab():
    """Import the stancu_lab modules afresh, dropping any earlier copies."""
    for name in [m for m in sys.modules if m == "stancu_lab" or m.startswith("stancu_lab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"stancu_lab.{m}") for m in LAB_MODULES})


def set_up(workload, seed, workdir):
    """Import and build the workload; returns (lab, workload, set-up s, import s).

    The first call in a process also pays the cold import of numpy.
    """
    gc.collect()
    t0 = time.perf_counter()
    import workloads  # noqa: PLC0415 - timed with the package import

    lab = import_lab()
    t1 = time.perf_counter()
    wl = workloads.WORKLOADS[workload](lab, seed, workdir)
    return lab, wl, time.perf_counter() - t0, t1 - t0


class Runner:
    """Runs ops, checks them and keeps the samples; failures are counted, not raised."""

    def __init__(self, wl, reference_kernel):
        self.wl = wl
        self.reference_kernel = reference_kernel
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.expected = []  # canonical outputs of the warm-up pass
        self.digest = None
        self._last_ref = None
        self._cursor = 0  # position in the pass where the next measure() starts

    def _fail(self, i, why):
        self.failed += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(f"op {i}: {why}")

    def _run(self, i, tracer=None):
        op = self.wl.ops[i]
        self.attempted += 1
        if tracer is not None:
            tracer.begin()
        t0 = time.perf_counter_ns()
        try:
            out = op()
        except Exception as exc:  # an op that raises is a failed op
            out = exc
        dt = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.end(dt)
        reps = min(1 + dt // REF_SPAN_NS, REF_MAX_REPS)
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            self.reference_kernel()
        after = (time.perf_counter_ns() - t0) / reps
        before, self._last_ref = self._last_ref or after, after
        ref = (before + after) / 2
        if isinstance(out, Exception):
            self._fail(i, f"raised {out!r}")
            return None, None, None
        return dt, ref, out

    def warm_up(self):
        """One untimed pass: run every op, check it and digest the outputs."""
        results = []
        for i in range(len(self.wl.ops)):
            *_, out = self._run(i)
            results.append(out)
            self.expected.append(None if out is None else self.wl.canon(i, out))
        for i, why in sorted(self.wl.check(results).items()):
            self._fail(i, why)
        h = hashlib.sha256()
        for text in self.expected:
            h.update(repr(text).encode())
        self.digest = h.hexdigest()

    def measure(self, seconds, tracer=None, min_ops=1):
        """Cycle through the pass for `seconds`, and for at least `min_ops` ops.

        Each call carries on where the previous one stopped, so slices of
        a run together keep the pass's mix of ops. Returns (op ns,
        reference ns) pairs, by position in the pass.
        """
        n = len(self.wl.ops)
        by_pos = [[] for _ in range(n)]
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        k = 0
        while k < min_ops or time.perf_counter_ns() < deadline:
            i = self._cursor
            self._cursor = (i + 1) % n
            k += 1
            dt, ref, out = self._run(i, tracer)
            if dt is None:
                continue
            if self.wl.canon(i, out) != self.expected[i]:
                self._fail(i, "output differs from the warm-up pass")
                continue
            by_pos[i].append((dt, ref))
        return by_pos


def git_sha():
    """The checked-out commit, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def latency(samples):
    """Throughput, p50 and p95 of (op, reference) time pairs, in ref units and wall-clock."""
    rel = sorted(dt / ref for dt, ref in samples)
    ms = sorted(dt / 1e6 for dt, _ in samples)
    rel_cuts = statistics.quantiles(rel, n=100)
    ms_cuts = statistics.quantiles(ms, n=100)
    return {
        "throughput_ops_ref": len(rel) / sum(rel),
        "op_p50_ref": rel_cuts[49],
        "op_p95_ref": rel_cuts[94],
        "throughput_ops_s": len(ms) / (sum(ms) / 1e3),
        "op_p50_ms": ms_cuts[49],
        "op_p95_ms": ms_cuts[94],
        "ref_ms": statistics.median(ref / 1e6 for _, ref in samples),
    }


def per_layer(tracer, import_s, untraced, traced, bytes_written):
    """Per-layer metrics of the traced half, with the overhead against the untraced half."""
    m = tracer.metrics()
    mean = statistics.fmean
    m["cli.bytes_written"] = bytes_written / max(tracer.ops, 1)
    m["startup.import_s"] = import_s
    both = [(t, u) for t, u in zip(traced, untraced) if t and u]
    m["trace.overhead_ratio"] = sum(mean(dt / ref for dt, ref in t) for t, _ in both) / sum(
        mean(dt / ref for dt, ref in u) for _, u in both
    )
    return m


def with_units(values, section):
    """The metrics BENCHMARK.json lists under `section`, in its order and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # cli._env_config reads this; a stray value would change the grids.
    os.environ.pop("STANCU_LAB_GRID", None)
    if not (SRC / "stancu_lab" / "__init__.py").is_file():
        print(f"error: no stancu_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        lab, wl, setup_first, import_s = set_up(args.workload, args.seed, Path(tmp))
        from workloads import reference_kernel  # noqa: PLC0415 - loaded by set_up

        runner = Runner(wl, reference_kernel)
        runner.warm_up()
        if args.trace:
            import tracing  # noqa: PLC0415

            # each half covers every op at least once, for the overhead ratio
            untraced = runner.measure(args.seconds / 2, min_ops=len(wl.ops))
            tracer = tracing.Tracer(lab)
            written_before = getattr(wl, "bytes_written", 0)
            tracer.install()
            try:
                traced = runner.measure(args.seconds / 2, tracer, min_ops=len(wl.ops))
            finally:
                tracer.restore()
            written = getattr(wl, "bytes_written", 0) - written_before
            samples = [pair for pos in untraced for pair in pos]
        else:
            samples, setup_times = [], [setup_first]
            for _ in range(SETUP_REPS):
                samples += [pair for pos in runner.measure(args.seconds / SETUP_REPS) for pair in pos]
                setup_times.append(set_up(args.workload, args.seed, Path(tmp))[2])
                gc.collect()  # drop the extra set-up's module cycles before timing resumes
        if len(samples) < 2:
            print(f"error: only {len(samples)} ops passed; nothing to measure", file=sys.stderr)
            return 1
        if args.trace:
            values = per_layer(tracer, import_s, untraced, traced, written)
            metrics = with_units(values, "per_layer")
        else:
            values = latency(samples)
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = with_units(values, "end_to_end")

    import numpy  # noqa: PLC0415 - already loaded by the package

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "bound_config": vars(lab.bounds.DEFAULT_CONFIG),
        "ops_per_pass": len(wl.ops),
        "op_samples": len(samples),
        "fail_ratio": runner.failed / runner.attempted,
        "digest": runner.digest,
        "untraced": latency(samples),
        "computed_not_measured": list(tracing.COMPUTED) if args.trace else [],
        "problems": runner.problems,
    }
    for why in runner.problems:
        print(f"check failed: {why}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
