"""Per-layer tracing by wrapping stancu_lab's public names from outside.

``Tracer.install`` replaces each traced function in every stancu_lab
namespace that holds it (``from ... import`` copies the name into the
importing module, so ``bounds.apply_operator_curve``, ``cli.build_figure``
and the like are patched too) and the traced methods on their classes.
``restore`` puts the originals back. Wrappers record only while an op
span is open, so correctness checks between ops are never counted.

A span's self time is its duration minus the spans of its children; the
wrapper's own bookkeeping after the call is charged to neither, so it is
left out of every layer's self time. Names a later version of the package
drops are skipped.

Times and counts are per traced op. Which end-to-end metric each layer
should move, and where:

* ``operators.*`` (apply self time, sampling of f, ns per basis term):
  throughput and p95 on pointwise, p95 on bounds, little on figures.
  ``basis_terms`` and ``basis_bytes_max`` (computed from the arguments,
  8 bytes per materialised basis value) go with peak RSS on bounds.
* ``bounds.*`` (modulus calls, scan time, grid points, distinct
  samplings per modulus call): throughput and p50 on bounds only.
* ``nodes.*`` (``StancuParams.node_values`` and the t1..t3 checks):
  nothing measurable; a guard for folding the node formula into one.
* ``figures.*``, ``svg.*``, ``cli.*``: throughput on figures only.
* ``startup.import_s`` (cold import of numpy, the package and the
  benchmark's modules): setup_s everywhere.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

# (module, attribute, span group). The layer is the group's first part.
# figures.fmt is left unwrapped on purpose: it runs once per CSV cell and
# a wrapper there would cost more than the call; its time is figures'.
TRACED = (
    ("operators", "apply_operator", "operators.apply"),
    ("operators", "apply_operator_curve", "operators.apply"),
    ("operators", "basis_row", "operators.other"),
    ("operators", "bernstein_basis", "operators.other"),
    ("operators", "moment_closed_form", "operators.other"),
    ("operators", "FunctionSpec.__call__", "operators.sample"),
    ("operators", "StancuParams.node_values", "nodes"),
    ("nodes", "check_theorem1", "nodes"),
    ("nodes", "check_theorem2", "nodes"),
    ("nodes", "check_theorem3", "nodes"),
    ("nodes", "stancu_nodes", "nodes"),
    ("nodes", "node_gap", "nodes"),
    ("bounds", "modulus_of_continuity", "bounds.modulus"),
    ("bounds", "grid_slack", "bounds.other"),
    ("bounds", "sup_error", "bounds.other"),
    ("bounds", "operator_distance", "bounds.other"),
    ("bounds", "corollary2_bound", "bounds.other"),
    ("bounds", "derive_c", "bounds.other"),
    ("bounds", "theorem4_experiment", "bounds.other"),
    ("figures", "build_figure", "figures"),
    ("figures", "with_overrides", "figures"),
    ("figures", "node_rows", "figures"),
    ("svg", "line_chart", "svg"),
    ("svg", "node_chart", "svg"),
    ("cli", "main", "cli"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self, lab):
        self.lab = lab
        self.active = False
        self._child = [0]  # child-span time of each open span, innermost last
        self._patches = []  # (namespace, attribute, original)
        self.self_ns = Counter()  # span group -> self time
        self.calls = Counter()  # span group -> calls
        self.work = Counter()  # computed work counts
        self.basis_bytes_max = 0
        self.samplings = set()  # distinct (f, modulus grid size)
        self.ops = 0
        self.op_ns = 0
        self._observers = {
            "apply_operator": self._observe_apply,
            "apply_operator_curve": self._observe_curve,
            "modulus_of_continuity": self._observe_modulus,
            "build_figure": self._observe_figure,
            "line_chart": self._observe_svg,
            "node_chart": self._observe_svg,
        }

    # -- computed work counts, from the arguments and results of observed calls

    def _add_basis(self, p, points):
        terms = (p.n + 1) * points
        self.work["basis_terms"] += terms
        self.basis_bytes_max = max(self.basis_bytes_max, 8 * terms)

    def _observe_apply(self, args, kwargs, out):
        self._add_basis(_arg(args, kwargs, 1, "p"), 1)

    def _observe_curve(self, args, kwargs, out):
        self._add_basis(_arg(args, kwargs, 1, "p"), _arg(args, kwargs, 2, "grid_size"))

    def _observe_modulus(self, args, kwargs, out):
        cfg = _arg(args, kwargs, 2, "cfg", self.lab.bounds.DEFAULT_CONFIG)
        self.work["modulus_points"] += cfg.mod_grid_size
        self.samplings.add((_arg(args, kwargs, 0, "f"), cfg.mod_grid_size))

    def _observe_figure(self, args, kwargs, out):
        self.work["csv_bytes"] += len(out[0].encode())

    def _observe_svg(self, args, kwargs, out):
        self.work["svg_bytes"] += len(out.encode())

    # -- wrapping

    def _wrap(self, fn, group, observe):
        tracer = self
        child = self._child

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            child.append(0)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer.self_ns[group] += t1 - t0 - child.pop()
                tracer.calls[group] += 1
            if observe is not None:
                observe(args, kwargs, out)
            child[-1] += perf_counter_ns() - t0
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        namespaces = [
            mod for name, mod in sys.modules.items()
            if name == "stancu_lab" or name.startswith("stancu_lab.")
        ]
        for modname, attr, group in TRACED:
            mod = getattr(self.lab, modname)
            owner_name, _, fname = attr.rpartition(".")
            observe = self._observers.get(fname)
            if owner_name:
                cls = getattr(mod, owner_name, None)
                if cls is None or fname not in vars(cls):
                    continue
                orig = vars(cls)[fname]
                self._patches.append((cls, fname, orig))
                setattr(cls, fname, self._wrap(orig, group, observe))
                continue
            orig = getattr(mod, fname, None)
            if orig is None:
                continue
            wrapper = self._wrap(orig, group, observe)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._patches.append((ns, key, orig))
                        setattr(ns, key, wrapper)

    def restore(self):
        while self._patches:
            ns, key, orig = self._patches.pop()
            setattr(ns, key, orig)

    # -- op spans, opened and closed by the runner around each timed call

    def begin(self):
        self._child[:] = [0]
        self.active = True

    def end(self, op_ns):
        self.active = False
        self.ops += 1
        self.op_ns += op_ns

    # -- results

    def metrics(self) -> dict:
        """Per-layer figures of the traced ops; times and counts are per op."""
        ops = max(self.ops, 1)
        s = {g: ns / 1e9 / ops for g, ns in self.self_ns.items()}

        def layer(name):
            return sum(v for g, v in s.items() if g.split(".")[0] == name)

        modulus_calls = self.calls["bounds.modulus"]
        terms = self.work["basis_terms"]
        return {
            "operators.apply_calls": self.calls["operators.apply"] / ops,
            "operators.apply_self_s": s.get("operators.apply", 0.0),
            "operators.ns_per_term": self.self_ns["operators.apply"] / terms if terms else 0.0,
            "operators.sample_calls": self.calls["operators.sample"] / ops,
            "operators.sample_s": s.get("operators.sample", 0.0),
            "operators.basis_terms": terms / ops,
            "operators.basis_bytes_max": self.basis_bytes_max,
            "bounds.modulus_calls": modulus_calls / ops,
            "bounds.modulus_s": s.get("bounds.modulus", 0.0),
            "bounds.modulus_points": self.work["modulus_points"] / ops,
            "bounds.sample_reuse_ratio": (
                len(self.samplings) / modulus_calls if modulus_calls else 0.0
            ),
            "bounds.self_s": layer("bounds"),
            "nodes.calls": self.calls["nodes"] / ops,
            "nodes.self_s": layer("nodes"),
            "figures.self_s": layer("figures"),
            "figures.csv_bytes": self.work["csv_bytes"] / ops,
            "svg.self_s": layer("svg"),
            "svg.bytes": self.work["svg_bytes"] / ops,
            "cli.self_s": layer("cli"),
            "trace.layer_share": sum(self.self_ns.values()) / self.op_ns if self.op_ns else 0.0,
            "trace.ops": self.ops,
        }


COMPUTED = (
    "operators.basis_terms",
    "operators.basis_bytes_max",
    "bounds.modulus_points",
    "bounds.sample_reuse_ratio",
    "figures.csv_bytes",
    "svg.bytes",
    "cli.bytes_written",
)
