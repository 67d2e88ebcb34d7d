"""Modulus-of-continuity and error-bound tests.

Frozen oracle values below were computed with a brute-force offset scan
over a 100001-point grid (independent of the production sliding-window
scan) before the implementation existed:

    omega(sin15; 0.01)  = 0.14985941454144064

The level distances of the fixed-degree growing-beta experiment for
sin15, n = 100, base pair (4.7, 10), scales (1, 10, 100, 1000), were
computed with an exact-binomial reference operator (and confirmed by a
second, pmf-based implementation):

    d = (1.5379739934178307, 1.693412039891657,
         0.5682717266872961, 0.05447622394157425)

and 0.0056973273455782625 at scale 10000. Note d is NOT monotone: the
second level exceeds the first, which is asserted below as observed
behavior.
"""

import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancu_lab import (
    DEFAULT_CONFIG,
    FunctionSpec,
    RatioFamily,
    StancuParams,
    check_corollary2,
    corollary2_bound,
    evaluate,
    grid_slack,
    modulus_of_continuity,
    operator_distance,
    sup_error,
    sup_error_and_distance,
    theorem4_experiment,
    uniform_grid,
)
from stancu_lab.bounds import C1, _moduli, _samples
from stancu_lab.nodes import same_ratio

OMEGA_SIN15_001 = 0.14985941454144064
T4_LEVEL_DISTANCES = (
    1.5379739934178307,
    1.693412039891657,
    0.5682717266872961,
    0.05447622394157425,
)

E0 = FunctionSpec.builtin("e0")
E1 = FunctionSpec.builtin("e1")
E2 = FunctionSpec.builtin("e2")
SIN15 = FunctionSpec.builtin("sin15")
ABSHALF = FunctionSpec.builtin("abshalf")
# a tabulated f: a seeded random walk on 65 knots, kinked at every knot
WALK = FunctionSpec.tabulated(
    "walk",
    np.linspace(0.0, 1.0, 65),
    np.concatenate(([0.0], np.cumsum(np.random.default_rng(11).normal(0.0, 0.125, 64)))),
)


# windows of exactly L grid points: powers of two (full doublings only)
# and one past them (a last step of one)
WINDOW_POINTS = (2, 3, 4, 5, 8, 9, 1024, 1025)


def offset_scan_modulus(f, delta, grid_size):
    """Brute-force reference: scan every admissible index offset."""
    grid = np.linspace(0.0, 1.0, grid_size)
    vals = np.asarray(f(grid), dtype=float)
    w = min(int(math.floor(delta * (grid_size - 1))), grid_size - 1)
    best = 0.0
    for d in range(1, w + 1):
        best = max(best, float(np.abs(vals[d:] - vals[:-d]).max()))
    return best


# -------------------------------------------------------------- modulus


def test_modulus_of_constant_is_zero():
    for delta in (1e-4, 0.1, 2.0):
        assert modulus_of_continuity(E0, delta) == 0.0


def test_modulus_of_linear_matches_slope():
    assert modulus_of_continuity(E1, 0.1) == pytest.approx(0.1, abs=2e-4)
    assert modulus_of_continuity(ABSHALF, 0.3) == pytest.approx(0.3, abs=2e-4)


def test_modulus_sin15_against_frozen_oracle():
    got = modulus_of_continuity(SIN15, 0.01)
    assert got == pytest.approx(OMEGA_SIN15_001, abs=1e-6)


@pytest.mark.parametrize("fname", ["e1", "e2", "sin15", "abshalf", "walk"])
@pytest.mark.parametrize(
    "delta",
    [0.003, 0.11, 0.5, 2.0, 1.0]
    + [pytest.param((L - 0.5) / 2000, id=f"L{L}") for L in WINDOW_POINTS],
)
def test_modulus_equals_offset_scan(fname, delta):
    # dual route on the same grid: doubled window max/min and offset scan
    # must agree exactly
    f = WALK if fname == "walk" else FunctionSpec.builtin(fname)
    assert _moduli(f(uniform_grid(2001)), (delta,)) == [offset_scan_modulus(f, delta, 2001)]


@pytest.mark.parametrize("fname", ["e1", "e2", "sin15", "abshalf", "walk"])
def test_moduli_one_pass_equals_offset_scan(fname):
    # one doubling pass answers every window, in any order, with repeats
    # and windows of zero steps
    f = WALK if fname == "walk" else FunctionSpec.builtin(fname)
    deltas = [0.5, 0.003, 2.0, 0.11, 1e-5, 1.0, 0.0, 0.003]
    deltas += [(L - 0.5) / 2000 for L in WINDOW_POINTS[::-1]]
    want = [offset_scan_modulus(f, d, 2001) for d in deltas]
    assert _moduli(f(uniform_grid(2001)), deltas) == want


@given(
    d1=st.floats(1e-4, 1.0),
    d2=st.floats(1e-4, 1.0),
    fname=st.sampled_from(["e1", "e2", "sin15", "abshalf"]),
)
@settings(max_examples=60, deadline=None)
def test_modulus_monotone_in_delta(d1, d2, fname):
    vals = FunctionSpec.builtin(fname)(uniform_grid(1001))
    lo, hi = _moduli(vals, sorted((d1, d2)))
    assert lo <= hi


def test_modulus_bounded_by_global_oscillation():
    grid = np.linspace(0.0, 1.0, 10001)
    for f in (E1, E2, SIN15, ABSHALF):
        vals = f(grid)
        osc = float(vals.max() - vals.min())
        assert modulus_of_continuity(f, 5.0) <= osc + 1e-15


def test_modulus_subadditive_up_to_grid_slack():
    for f in (E2, SIN15, ABSHALF):
        slack = 2.0 * grid_slack(f)
        for delta in (0.01, 0.1, 0.3):
            assert modulus_of_continuity(f, 2 * delta) <= 2 * modulus_of_continuity(f, delta) + slack


@pytest.mark.parametrize("delta", [1e305, sys.float_info.max, math.inf])
def test_modulus_of_huge_delta_is_the_global_oscillation(delta):
    # delta * (m - 1) overflows to inf for these: the window is clamped first
    for f in (E1, SIN15, WALK):
        vals = f(uniform_grid(DEFAULT_CONFIG.mod_grid_size))
        osc = float(vals.max() - vals.min())
        assert modulus_of_continuity(f, delta) == modulus_of_continuity(f, 1.0) == osc


def test_modulus_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        modulus_of_continuity(SIN15, 0.0)
    with pytest.raises(ValueError):
        modulus_of_continuity(SIN15, -0.1)
    for delta in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="delta must be positive"):
            modulus_of_continuity(SIN15, delta)


# ------------------------------------------------------ sup-error scans


def test_sup_error_of_constant_vanishes():
    assert sup_error(E0, StancuParams(40, 3.0, 9.0)) <= 1e-12


def test_sup_error_classical_quadratic_rate():
    # plain operator on t**2 misses by exactly x(1-x)/n, peaking at 1/(4n)
    assert sup_error(E2, StancuParams(20)) == pytest.approx(0.0125, abs=1e-6)


def test_sup_error_improves_with_degree_for_sin15():
    vals = [sup_error(SIN15, StancuParams(n, 20.0, 30.0)) for n in (50, 100, 250)]
    assert vals[1] < vals[0] and vals[2] < vals[1]


def test_operator_distance_zero_when_same_family():
    assert operator_distance(SIN15, StancuParams(30, 0.0, 0.0)) == 0.0


@pytest.mark.parametrize(
    "n,a,b",
    [(10, 1.0, 2.0), (100, 20.0, 30.0), (50, 0.0, 5.0), (25, 17.0, 100.0)],
)
def test_operator_distance_linear_closed_form(n, a, b):
    # images of t differ by (a - b x)/(n + b): extremes sit at the endpoints
    want = max(a, b - a) / (n + b)
    assert operator_distance(E1, StancuParams(n, a, b)) == pytest.approx(want, abs=1e-15)


def test_sup_error_and_distance_equal_their_own_functions():
    # one batched evaluation must give both values bit for bit
    for f in (E2, SIN15, ABSHALF, WALK):
        for p in (StancuParams(7), StancuParams(100, 20.0, 30.0), StancuParams(1000, 4.7, 10.0)):
            assert sup_error_and_distance(f, p) == (sup_error(f, p), operator_distance(f, p))


def test_repeated_scans_sample_the_plain_operator_once(monkeypatch):
    # one plain operator per degree keeps its node samples across calls
    seen = []
    sample = FunctionSpec._sample
    monkeypatch.setattr(FunctionSpec, "_sample",
                        lambda self, t: seen.append(t.tolist()) or sample(self, t))
    f = FunctionSpec.builtin("sin15")  # a new spec: no operator holds its samples yet
    p = StancuParams(37, 2.0, 5.0)
    first = sup_error_and_distance(f, p)
    for _ in range(3):
        assert sup_error_and_distance(f, p) == first
    plain = StancuParams(37)
    assert seen.count(plain.node_values().tolist()) == 1
    assert seen.count(p.node_values().tolist()) == 1
    shifted, fresh = evaluate(f, (p, plain), uniform_grid(DEFAULT_CONFIG.sup_grid_size)).T
    assert first[1] == float(np.abs(shifted - fresh).max())


def test_alternating_functions_sample_the_plain_operator_once_each(monkeypatch):
    # the plain operator is kept per (degree, function), so a scan that
    # alternates functions at one degree does not resample it
    seen = []
    sample = FunctionSpec._sample
    monkeypatch.setattr(FunctionSpec, "_sample",
                        lambda self, t: seen.append(t.tolist()) or sample(self, t))
    fs = (FunctionSpec.builtin("sin15"), FunctionSpec.builtin("abshalf"))
    p = StancuParams(41, 2.0, 5.0)
    first = [sup_error_and_distance(f, p) for f in fs]
    for _ in range(3):
        assert [sup_error_and_distance(f, p) for f in fs] == first
    assert seen.count(StancuParams(41).node_values().tolist()) == len(fs)


def test_operator_distance_bounded_by_node_shift_modulus():
    for f in (E1, E2, SIN15, ABSHALF):
        slack = grid_slack(f)
        for (a, b) in ((20.0, 30.0), (77.0, 100.0)):
            for n in (25, 100):
                p = StancuParams(n, a, b)
                bound = modulus_of_continuity(f, (a + b) / (n + b)) + slack
                assert operator_distance(f, p) <= bound


# --------------------------------------------------- two-term estimate


def test_two_term_bound_zero_for_constant():
    assert corollary2_bound(E0, StancuParams(77, 5.0, 11.0)) == 0.0


def test_two_term_bound_linear_hand_value():
    got = corollary2_bound(E1, StancuParams(100, 20.0, 30.0))
    assert got == pytest.approx(50.0 / 130.0 + C1 * 0.1, abs=3e-4)


def test_two_term_bound_dominates_sup_error():
    for f in (E1, E2, SIN15, ABSHALF):
        for (a, b) in ((20.0, 30.0), (77.0, 100.0)):
            for n in (25, 100):
                p = StancuParams(n, a, b)
                assert sup_error(f, p) <= corollary2_bound(f, p) + 1e-9


class Counted:
    """f, counting the calls that sample it, by the number of points."""

    def __init__(self, f):
        self.f, self.calls = f, Counter()

    def __call__(self, x):
        self.calls[np.size(x)] += 1
        return self.f(x)


def test_bounds_sample_f_once_on_the_modulus_grid():
    # one sampling per grid feeds every modulus and sup-error, across calls,
    # with the same values
    mod, sup = DEFAULT_CONFIG.mod_grid_size, DEFAULT_CONFIG.sup_grid_size
    p = StancuParams(100, 20.0, 30.0)
    f = Counted(SIN15)
    assert corollary2_bound(f, p) == (
        modulus_of_continuity(SIN15, p.displacement_bound())
        + C1 * modulus_of_continuity(SIN15, p.n ** -0.5)
    )
    assert f.calls[mod] == 1
    fam = RatioFamily(4.7, 10.0, (1.0, 10.0, 100.0, 1000.0))
    rep = theorem4_experiment(f, 100, fam)
    want = [modulus_of_continuity(SIN15, 200.0 / (100 + b)) + grid_slack(SIN15)
            for _, b in fam.levels()]
    assert f.calls[mod] == 1 and rep.columns[4].tolist() == want
    assert [sup_error(f, q) for q in (p, StancuParams(7))] == [
        sup_error(SIN15, q) for q in (p, StancuParams(7))]
    assert sup_error_and_distance(f, p) == sup_error_and_distance(SIN15, p)
    assert f.calls[mod] == 1 and f.calls[sup] == 1
    for size in (mod, sup):
        vals = _samples(f, size)
        assert not vals.flags.writeable and vals.tolist() == SIN15(uniform_grid(size)).tolist()
        with pytest.raises(ValueError):
            vals[0] = 0.0
    assert f.calls[mod] == 1 and f.calls[sup] == 1
    # at most 16 tables of at most mod_grid_size floats each: under 1.5 MB
    assert _samples.cache_info().maxsize == 16 and 16 * 8 * max(mod, sup) < 1.5e6


@pytest.mark.parametrize("n", [1, 25, 100, 1000])
def test_two_term_bound_without_shift_is_the_classical_term(n):
    # a zero shift spans no grid step, so the first modulus is exactly 0.0
    for f in (E1, SIN15, ABSHALF, WALK):
        got = corollary2_bound(f, StancuParams(n))
        assert got == C1 * modulus_of_continuity(f, n ** -0.5)


def implied_c(f, p):
    """Smallest c with two-term bound <= c * omega(f; n**-0.5)."""
    return corollary2_bound(f, p) / modulus_of_continuity(f, p.n ** -0.5)


def test_derive_c_values():
    # a constant f has a vanishing bound and modulus
    p = StancuParams(100, 20.0, 30.0)
    assert corollary2_bound(E0, p) == 0.0
    assert modulus_of_continuity(E0, p.n ** -0.5) == 0.0
    assert implied_c(E1, p) == pytest.approx(4.9362, abs=3e-3)


def test_derive_c_nonincreasing_in_beta_when_alpha_dominates_degree():
    # for alpha >= n the first modulus saturates at the full oscillation,
    # so c cannot grow as beta does
    vals = [implied_c(E1, StancuParams(100, 200.0, b)) for b in (200.0, 400.0, 800.0, 1600.0)]
    assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))


# ----------------------------------------- fixed-degree collapse onto f(m)


def t4_columns(rep):
    """A t4 report's per-level distance and bound columns."""
    _, _, _, distances, bounds = rep.columns
    return distances, bounds


def test_collapse_experiment_constant_function():
    fam = RatioFamily(1.0, 2.0, (1.0, 10.0, 100.0))
    rep = theorem4_experiment(E0, 50, fam)
    distances, bounds = t4_columns(rep)
    # bound 0 at every level, distances a few 1e-15 of rounding: only
    # NOISE_FLOOR lets the check pass
    assert (bounds == 0.0).all() and (distances > 0.0).all()
    assert rep.ok and rep.within_bound and rep.failing_index is None
    assert distances.max() <= 1e-12


def test_collapse_experiment_linear_single_level():
    # only level (470, 1000): max_x |x + (470 - 1000 x)/1100 - 0.47| = 53/1100 at x = 1
    fam = RatioFamily(4.7, 10.0, (100.0,))
    rep = theorem4_experiment(E1, 100, fam)
    assert rep.header == "level,alpha,beta,distance,bound"
    assert rep.columns[:3] == (range(1), (470.0,), (1000.0,))
    assert t4_columns(rep)[0][-1] == pytest.approx(53.0 / 1100.0, abs=1e-12)


def test_collapse_experiment_sin15_levels_match_oracle():
    fam = RatioFamily(4.7, 10.0, (1.0, 10.0, 100.0, 1000.0))
    rep = theorem4_experiment(SIN15, 100, fam)
    assert rep.ok and rep.failing_index is None
    distances, _ = t4_columns(rep)
    np.testing.assert_allclose(distances, T4_LEVEL_DISTANCES, rtol=1e-9)
    # compressing nodes transiently deepens the smoothed oscillation: the
    # level distances are NOT monotone here (second exceeds first)
    assert not (np.diff(distances) < 0.0).all()
    assert distances[1] > distances[0]


def test_collapse_experiment_reaches_the_limit():
    fam = RatioFamily(4.7, 10.0, (1.0, 10.0, 100.0, 1000.0, 10000.0))
    rep = theorem4_experiment(SIN15, 100, fam)
    assert rep.ok
    final = t4_columns(rep)[0][-1]
    assert final == pytest.approx(0.0056973273455782625, rel=1e-9)
    assert final < 0.01


def test_collapse_epsilon_fails_only_the_last_level():
    # the levels keep their bounds; a target the last distance does not
    # reach fails that level with the epsilon line, and a bound failure
    # would have come first
    fam = RatioFamily(4.7, 10.0, (1.0, 10.0, 100.0, 1000.0))
    rep = theorem4_experiment(SIN15, 100, fam)
    final = float(t4_columns(rep)[0][-1])
    for epsilon in (final, 0.01):
        failed = theorem4_experiment(SIN15, 100, fam, epsilon)
        assert failed.failing_index == 3 and not failed.within_bound
        assert failed.status == f"t4: FAIL: final distance {final!r} not below epsilon {epsilon!r}"
        assert failed.header == rep.header
        for got, want in zip(failed.columns, rep.columns, strict=True):
            assert list(got) == list(want)
    passed = theorem4_experiment(SIN15, 100, fam, np.nextafter(final, 1.0))
    assert passed.ok and passed.status == rep.status


# ------------------------------------------------ the two-term bound check


def test_corollary2_check_table_and_verdict():
    ps = [StancuParams(n, 20.0, 30.0) for n in (50, 100, 250)]
    rep = check_corollary2(SIN15, ps)
    assert rep.ok and rep.status is None
    assert rep.header == "n,sup_error,operator_distance,corollary2_bound,t1_bound"
    degrees, sups, dists, bounds, shifts = rep.columns
    assert degrees == (50, 100, 250)
    for j, p in enumerate(ps):
        assert (sups[j], dists[j]) == sup_error_and_distance(SIN15, p)
        assert bounds[j] == corollary2_bound(SIN15, p) and shifts[j] == p.displacement_bound()
        assert sups[j] <= bounds[j] + 1e-9


@given(
    n=st.integers(1, 200),
    beta0=st.floats(0.1, 100.0),
    frac=st.floats(0.01, 0.99),
    scales=st.lists(st.floats(0.1, 1000.0), min_size=1, max_size=4, unique=True),
    fname=st.sampled_from(["e0", "e1", "e2", "sin15", "abshalf"]),
)
@settings(max_examples=30, deadline=None)
def test_collapse_report_protocol_property(n, beta0, frac, scales, fname):
    fam = RatioFamily(frac * beta0, beta0, tuple(sorted(scales)))
    rep = theorem4_experiment(FunctionSpec.builtin(fname), n, fam)
    assert (rep.failing_index is None) == rep.ok


def test_ratio_family_validation():
    with pytest.raises(ValueError):
        RatioFamily(0.0, 1.0, (1.0,))
    with pytest.raises(ValueError):
        RatioFamily(2.0, 1.0, (1.0,))
    with pytest.raises(ValueError):
        RatioFamily(1.0, 2.0, ())
    with pytest.raises(ValueError):
        RatioFamily(1.0, 2.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        RatioFamily(1.0, 2.0, (2.0, 1.0))
    # the degree follows the StancuParams rule: an integer >= 1, not a bool
    for n in (True, 0, 2.0, -3):
        with pytest.raises(ValueError):
            theorem4_experiment(SIN15, n, RatioFamily(1.0, 2.0, (1.0,)))


@pytest.mark.parametrize("alpha0,beta0,scales", [
    (1.0, 2.0, (math.nan,)),
    (1.0, 2.0, (1.0, math.inf)),
    (1.0, math.inf, (1.0,)),
    (math.nan, 2.0, (1.0,)),
    (1.0, 2.0, (1.0, math.nan, 3.0)),
])
def test_ratio_family_rejects_non_finite_values(alpha0, beta0, scales):
    with pytest.raises(ValueError):
        RatioFamily(alpha0, beta0, scales)


@pytest.mark.parametrize("alpha0,beta0,scales", [
    (1.0, 2.0, (1e308, 1.7e308)),  # (1e308, inf)
    (4.7, 10.0, (1.0, 1e308)),  # (inf, inf)
])
def test_ratio_family_names_an_overflowing_scaled_pair(alpha0, beta0, scales):
    with pytest.raises(ValueError, match="overflows the pair to") as exc:
        RatioFamily(alpha0, beta0, scales)
    assert "inf)" in str(exc.value) and "drifts" not in str(exc.value)


def test_ratio_family_shares_the_ratio_rule_of_check_theorem3():
    assert same_ratio(4.7 / 10.0, 47.0 / 100.0)
    assert not same_ratio(4.7 / 10.0, 48.0 / 100.0)
    assert not same_ratio(math.nan, math.nan)
    # 4.7 * 10 is the pair (47.0, 100.0), which check_theorem3 also accepts
    assert RatioFamily(4.7, 10.0, (1.0, 10.0)).levels()[1] == (47.0, 100.0)
    # subnormal products round off the ratio: 4.69e-321 / 9.98e-321
    with pytest.raises(ValueError, match="drifts off the common ratio"):
        RatioFamily(4.7, 10.0, (1e-321,))


def test_measurement_grids_are_fixed():
    # the benchmark records this dict; the paper's errors are measured on these grids
    assert vars(DEFAULT_CONFIG) == {"mod_grid_size": 10001, "sup_grid_size": 1001}
    assert DEFAULT_CONFIG.mod_step == pytest.approx(1e-4)
