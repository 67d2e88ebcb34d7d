"""Acceptance suite: eleven numbered criteria, one test each.

Every test prints a single ``[ k/11] <label>: PASS|FAIL`` line before
asserting, so ``pytest -s tests/test_acceptance.py`` (or running this file
directly) yields a per-criterion scoreboard.

Two criteria state exactly what the underlying bounds promise, no more:

* Criterion 8 requires the measured grid sup-error of the plain operator
  on t**2 to lie in [1/(4n) - 2h, 1/(4n) + eps_n]. The operator maps t**2
  to x**2 + x(1-x)/n, so the true supremum is exactly 1/(4n), attained
  at the on-grid point x = 1/2 (checked with ``fractions``). The
  measurement is a float64 sum and lands 2e-17 .. 1e-16 above it for
  n = 10 .. 80; even the correctly rounded value of 1/4 + 1/(4n), minus
  1/4, overshoots at n = 10 and 20. eps_n is the a-priori float64 error
  bound of that one evaluation, derived operation by operation in the
  test (1.4e-15 .. 9.2e-15); it is not fitted to the measured excess.
* Criterion 10 checks the fixed-degree collapse of the operator onto
  f(m) for sin15, n = 100, base pair (4.7, 10), scales (1, 10, 100,
  1000). What the collapse argument gives is a per-level bound
  d_j <= omega(f; 2n/(n + beta_j)) plus grid slack, with modulus
  arguments that shrink to 0; that is asserted. It does not give a
  monotone d_j, and an exact-binomial 40-digit evaluation on the same
  grid agrees with the program to 1e-12 that d = (1.5380, 1.6934,
  0.5683, 0.0545): the second level exceeds the first. Monotonicity is
  reported, not asserted. The final distance cannot go below 0.05 at
  these scales: at x = 1 the operator returns f(t_n) exactly, and
  |f(t_n) - f(m)| = 0.0545 there, which the test asserts as a lower bound.
"""

import contextlib
import decimal
import io
import math
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from stancu_lab import (
    DEFAULT_CONFIG,
    FunctionSpec,
    RatioFamily,
    StancuParams,
    apply_operator,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    corollary2_bound,
    grid_slack,
    modulus_of_continuity,
    moment_closed_form,
    operator_distance,
    sup_error,
    theorem4_experiment,
)
from stancu_lab.bounds import C1
from stancu_lab.cli import main as cli_main

E = {name: FunctionSpec.builtin(name) for name in ("e0", "e1", "e2", "sin15", "abshalf")}
CONTINUOUS = ("e0", "e1", "e2", "sin15", "abshalf")


def report(idx, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[{idx:2d}/11] {label}: {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_01_moment_identities():
    rng = np.random.default_rng(20240811)
    grid = np.linspace(0.0, 1.0, 1001)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 501))
        beta = float(rng.uniform(0.0, 1000.0))
        p = StancuParams(n, float(rng.uniform(0.0, beta)), beta)
        x = float(rng.choice(grid))
        for i, name in enumerate(("e0", "e1", "e2")):
            diff = abs(apply_operator(E[name], p, x) - moment_closed_form(i, p, x))
            worst = max(worst, diff)
    ok = worst <= 1e-10
    report(1, "closed-form moment identities", ok, f"worst |diff| = {worst:.3e}")
    assert ok


def test_criterion_02_partition_of_unity():
    # sup_error of the constant function IS the partition defect
    worst = 0.0
    for n in (1, 10, 100, 250, 1000):
        worst = max(worst, sup_error(E["e0"], StancuParams(n, 0.0, 0.0)))
    ok = worst <= 1e-12
    report(2, "partition of unity to degree 1000", ok, f"worst defect = {worst:.3e}")
    assert ok


def test_criterion_03_node_displacement_bound():
    degrees = [25, 50, 100, 250]
    ok = True
    for a, b in ((20.0, 30.0), (17.0, 100.0), (77.0, 100.0)):
        _, max_gaps, bounds = check_theorem1(StancuParams(250, a, b), degrees).columns
        ok &= bool((max_gaps <= bounds).all())
        for n, bound in zip(degrees, bounds):
            ok &= abs(bound - (a + b) / (n + b)) <= 1e-15
    _, _, bounds = check_theorem1(StancuParams(250, 20.0, 30.0), degrees).columns
    ok &= abs(bounds[-1] - 50.0 / 280.0) <= 1e-15
    report(3, "node displacement bound", ok)
    assert ok


def test_criterion_04_contraction_identity():
    ok = True
    worst = 0.0
    for n in (25, 100):
        for a in (17.0, 47.0, 77.0):
            *_, bern_dist, stan_dist = check_theorem2(StancuParams(n, a, 100.0)).columns
            err = float(np.abs(stan_dist - n / (n + 100.0) * bern_dist).max())
            worst = max(worst, err)
            ok &= err <= 1e-14
    rep = check_theorem2(StancuParams(100, 47.0, 100.0))
    ok &= rep.status == "t2: OK (contraction 0.5, crossings at k=47)"
    report(4, "contraction identity and crossing", ok, f"worst identity error = {worst:.3e}")
    assert ok


def test_criterion_05_nested_clustering():
    n = 100
    triples = [StancuParams(n, 4.7, 10.0), StancuParams(n, 47.0, 100.0),
               StancuParams(n, 470.0, 1000.0)]
    ok = True
    worst = 0.0
    for p1, p2 in zip(triples, triples[1:]):
        _, _, dist1, _, dist2 = check_theorem3(p1, p2).columns
        factor = (n + p1.beta) / (n + p2.beta)
        err = float(np.abs(dist2 - factor * dist1).max())
        worst = max(worst, err)
        ok &= err <= 1e-13
        off = np.abs(np.arange(n + 1) / n - p1.alpha / p1.beta) > 1e-12
        ok &= bool((dist2[off] < dist1[off]).all())
    report(5, "nested clustering at fixed ratio", ok, f"worst identity error = {worst:.3e}")
    assert ok


def test_criterion_06_operator_distance_bound():
    ok = True
    for name in ("e1", "e2", "sin15", "abshalf"):
        f = E[name]
        slack = grid_slack(f)
        for a, b in ((20.0, 30.0), (17.0, 100.0), (47.0, 100.0), (77.0, 100.0)):
            for n in (25, 50, 100, 250):
                p = StancuParams(n, a, b)
                bound = modulus_of_continuity(f, (a + b) / (n + b)) + slack
                ok &= operator_distance(f, p) <= bound
    report(6, "operator distance below node-shift modulus", ok)
    assert ok


def test_criterion_07_two_term_dominance():
    # C1 is Sikkema's constant (4306 + 837 sqrt 6)/5832 rounded up: the
    # smallest double at or above it, so the bound never rounds the unsafe way
    with decimal.localcontext(decimal.Context(prec=60)):
        sikkema = (4306 + 837 * decimal.Decimal(6).sqrt()) / 5832
        assert decimal.Decimal(C1) >= sikkema > decimal.Decimal(math.nextafter(C1, 0.0))
    ok = True
    worst_margin = np.inf
    for name in CONTINUOUS:
        f = E[name]
        for a, b in ((20.0, 30.0), (17.0, 100.0), (47.0, 100.0), (77.0, 100.0),
                     (4.7, 10.0), (470.0, 1000.0)):
            for n in (25, 50, 100, 250, 500):
                p = StancuParams(n, a, b)
                margin = corollary2_bound(f, p) + 1e-9 - sup_error(f, p)
                worst_margin = min(worst_margin, margin)
                ok &= margin >= 0.0
    report(7, "two-term bound dominates sup-error", ok, f"worst margin = {worst_margin:.3e}")
    assert ok


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u): bound on k stacked float64 roundings."""
    u = 2.0**-53
    return k * u / (1.0 - k * u)


def test_criterion_08_classical_rate_window():
    h = 1.0 / (DEFAULT_CONFIG.sup_grid_size - 1)
    grid = np.linspace(0.0, 1.0, DEFAULT_CONFIG.sup_grid_size)
    exact_grid = [Fraction(float(x)) for x in grid]
    ok = True
    details = []
    for n in (10, 20, 40, 80):
        top = Fraction(1, 4 * n)
        # Premise, exactly: over the float grid, x(1-x)/n peaks at 1/(4n)
        # (x = 1/2 is a grid point) and every other grid point sits at
        # least h**2/(2n) >= 6e-9 below it, far more than the rounding of
        # an evaluation there (under 1e-13 by the count below, with the
        # rounded 1 - x carried through seed and ratio). So the measured
        # sup is the value computed at x = 1/2.
        exact = sorted({x * (1 - x) / n for x in exact_grid})
        premise = exact[-1] == top and top - exact[-2] >= Fraction(h * h) / (2 * n)
        # eps_n bounds the rounding of that evaluation, |error| <= gamma_k * S
        # with S = 1/4 + 1/(4n) (all terms are non-negative). Per term k:
        #   node k/n: 1 division; f = t*t: 1 product               -> 2
        #   seed (1 - 1/2)**n: pow is within 1 ulp                 -> 2
        #   n recurrence steps, b * r * ((n-k)/(k+1)): 3 each      -> 3n
        #   f(t_k) * b_k: 1; ascending recursive sum: n additions  -> n + 1
        #   (x = 1/2 is not reflected, so the sum runs in ascending k;
        #   evaluating several operators of one degree together keeps
        #   each value's operations and their order, so this count holds)
        # i.e. 4n + 5, plus 1 for the final subtraction of f(1/2) = 1/4
        # (exact), giving gamma_{4n+6} * S. No operation is assumed exact.
        # The recurrence may stop before step n once no later term can
        # change the sum; the value is then bit-identical to the full sum,
        # so 4n + 6 is an upper bound on the operations and eps_n holds.
        # A single point runs as two accumulates along k that perform the
        # same 4n + 5 operations in the same order, so eps_n is unchanged.
        # A grid runs as one in-place two-row loop (its halves) that also
        # performs the same 4n + 5 operations in the same order, so eps_n
        # (gamma_{4n+6}) is unchanged.
        eps = _gamma(4 * n + 6) * (0.25 + 1.0 / (4 * n))
        got = sup_error(E["e2"], StancuParams(n, 0.0, 0.0))
        inside = float(top) - 2.0 * h <= got <= float(top) + eps
        ok &= premise and inside
        details.append(f"n={n}: excess {got - float(top):+.2e} vs eps {eps:.2e}")
        if not premise:
            details.append(f"n={n}: grid maximum of x(1-x)/n is not an isolated 1/(4n)")
    report(8, "classical quadratic rate window", ok, "; ".join(details))
    assert ok, "; ".join(details)


def test_criterion_09_degree_sweep_direction():
    t0 = time.time()
    vals = [sup_error(E["sin15"], StancuParams(n, 20.0, 30.0)) for n in (50, 100, 250)]
    elapsed = time.time() - t0
    ok = vals[1] < vals[0] and vals[2] < vals[1] and elapsed <= 30.0
    report(9, "sup-error falls along the degree sweep", ok,
           f"values = {[round(v, 6) for v in vals]}, {elapsed:.1f}s")
    assert ok


def test_criterion_10_fixed_degree_collapse():
    n = 100
    f = E["sin15"]
    fam = RatioFamily(4.7, 10.0, (1.0, 10.0, 100.0, 1000.0))
    rep = theorem4_experiment(f, n, fam)
    _, alphas, betas, distances, bounds = rep.columns
    # The dominating sequence collapses: the modulus arguments 2n/(n + beta_j)
    # fall strictly toward 0, so the bounds omega(f; .) + slack never rise
    # and end below where they start. They cannot fall strictly at every
    # level: the first two arguments (1.82, 1.0) both cover [0, 1], where
    # omega is the global oscillation.
    args = [2.0 * n / (n + b) for b in betas]
    ok_args = all(b < a for a, b in zip(args, args[1:]))
    ok_bounds = bool((np.diff(bounds) <= 0.0).all()) and bounds[-1] < bounds[0]
    # At x = 1 the basis is a unit vector, so the operator returns f(t_n)
    # exactly and d_final >= |f(t_n) - f(m)| = 0.0545 at these scales:
    # no correct evaluation brings it below 0.05.
    t_nodes = StancuParams(n, alphas[-1], betas[-1]).node_values()
    endpoint = abs(float(f(t_nodes)[-1]) - float(f(fam.ratio_m)))
    final = distances[-1]
    ok_endpoint = final >= endpoint
    monotone = bool((np.diff(distances) < 0.0).all())
    ok = rep.ok and ok_args and ok_bounds and ok_endpoint
    pairs = ", ".join(f"{d:.4g}<={b:.4g}" for d, b in zip(distances, bounds))
    report(
        10,
        "fixed-degree collapse onto f(m)",
        ok,
        f"d<=bound: {pairs}; monotone {'yes' if monotone else 'no'}; "
        f"final {final:.4g} >= endpoint gap {endpoint:.4g}",
    )
    assert rep.ok, f"a level exceeds its bound: {distances} vs {bounds}"
    assert ok_args, f"modulus arguments do not shrink: {args}"
    assert ok_bounds, f"bounds do not collapse: {bounds}"
    assert ok_endpoint, f"final distance {final} below endpoint gap {endpoint}"


def test_criterion_11_figure_determinism():
    ids = [f"f{i}" for i in range(1, 11)]
    with tempfile.TemporaryDirectory() as tmp:
        d1, d2 = Path(tmp, "run1"), Path(tmp, "run2")
        for out in (d1, d2):
            for fid in ids:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli_main(["figure", fid, "--out", str(out)])
                assert rc == 0
        ok = True
        for fid in ids:
            for ext in (".csv", ".svg"):
                ok &= (d1 / f"{fid}{ext}").read_bytes() == (d2 / f"{fid}{ext}").read_bytes()
    report(11, "figure outputs byte-stable", ok)
    assert ok


if __name__ == "__main__":
    failures = 0
    for fn in sorted(k for k in dir() if k.startswith("test_criterion_")):
        try:
            globals()[fn]()
        except AssertionError:
            failures += 1
    raise SystemExit(1 if failures else 0)
