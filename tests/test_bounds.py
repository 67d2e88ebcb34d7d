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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancu_lab import (
    BoundConfig,
    DEFAULT_CONFIG,
    FunctionSpec,
    RatioFamily,
    StancuParams,
    corollary2_bound,
    grid_slack,
    modulus_of_continuity,
    operator_distance,
    sup_error,
    sup_error_and_distance,
    theorem4_experiment,
)

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
    # windows of exactly L grid points: powers of two (full doublings only)
    # and one past them (a last step of one)
    + [pytest.param((L - 0.5) / 2000, id=f"L{L}") for L in (2, 3, 4, 5, 8, 9, 1024, 1025)],
)
def test_modulus_equals_offset_scan(fname, delta):
    # dual route on the same grid: doubled window max/min and offset scan
    # must agree exactly
    f = WALK if fname == "walk" else FunctionSpec.builtin(fname)
    cfg = BoundConfig(mod_grid_size=2001)
    assert modulus_of_continuity(f, delta, cfg) == offset_scan_modulus(f, delta, 2001)


@given(
    d1=st.floats(1e-4, 1.0),
    d2=st.floats(1e-4, 1.0),
    fname=st.sampled_from(["e1", "e2", "sin15", "abshalf"]),
)
@settings(max_examples=60, deadline=None)
def test_modulus_monotone_in_delta(d1, d2, fname):
    f = FunctionSpec.builtin(fname)
    cfg = BoundConfig(mod_grid_size=1001)
    lo, hi = sorted((d1, d2))
    assert modulus_of_continuity(f, lo, cfg) <= modulus_of_continuity(f, hi, cfg)


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


def test_modulus_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        modulus_of_continuity(SIN15, 0.0)
    with pytest.raises(ValueError):
        modulus_of_continuity(SIN15, -0.1)


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
    cfg = BoundConfig(sup_grid_size=257)
    for f in (E2, SIN15, ABSHALF, WALK):
        for p in (StancuParams(7), StancuParams(100, 20.0, 30.0), StancuParams(1000, 4.7, 10.0)):
            for c in (cfg, DEFAULT_CONFIG):
                assert sup_error_and_distance(f, p, c) == (
                    sup_error(f, p, c), operator_distance(f, p, c))


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
    cfg = BoundConfig(c1=1.09)
    got = corollary2_bound(E1, StancuParams(100, 20.0, 30.0), cfg)
    assert got == pytest.approx(50.0 / 130.0 + 1.09 * 0.1, abs=3e-4)


def test_two_term_bound_dominates_sup_error():
    for f in (E1, E2, SIN15, ABSHALF):
        for (a, b) in ((20.0, 30.0), (77.0, 100.0)):
            for n in (25, 100):
                p = StancuParams(n, a, b)
                assert sup_error(f, p) <= corollary2_bound(f, p) + 1e-9


class Counted:
    """f, counting the calls that sample it on the modulus grid."""

    def __init__(self, f):
        self.f, self.grid_calls = f, 0

    def __call__(self, x):
        self.grid_calls += np.size(x) == DEFAULT_CONFIG.mod_grid_size
        return self.f(x)


def test_bounds_sample_f_once_on_the_modulus_grid():
    # one sampling feeds every modulus a call needs, with the same values
    p = StancuParams(100, 20.0, 30.0)
    f = Counted(SIN15)
    assert corollary2_bound(f, p) == (
        modulus_of_continuity(SIN15, p.displacement_bound())
        + DEFAULT_CONFIG.c1 * modulus_of_continuity(SIN15, p.n ** -0.5)
    )
    assert f.grid_calls == 1
    fam = RatioFamily(4.7, 10.0, (1.0, 10.0, 100.0, 1000.0))
    f = Counted(SIN15)
    rep = theorem4_experiment(f, 100, fam)
    want = [modulus_of_continuity(SIN15, 200.0 / (100 + b)) + grid_slack(SIN15)
            for _, b in fam.levels()]
    assert f.grid_calls == 1 and rep.bounds.tolist() == want


def implied_c(f, p, cfg=DEFAULT_CONFIG):
    """Smallest c with two-term bound <= c * omega(f; n**-0.5)."""
    return corollary2_bound(f, p, cfg) / modulus_of_continuity(f, p.n ** -0.5, cfg)


def test_derive_c_values():
    # a constant f has a vanishing bound and modulus
    p = StancuParams(100, 20.0, 30.0)
    assert corollary2_bound(E0, p) == 0.0
    assert modulus_of_continuity(E0, p.n ** -0.5) == 0.0
    cfg = BoundConfig(c1=1.09)
    assert implied_c(E1, p, cfg) == pytest.approx(4.9362, abs=3e-3)


def test_derive_c_nonincreasing_in_beta_when_alpha_dominates_degree():
    # for alpha >= n the first modulus saturates at the full oscillation,
    # so c cannot grow as beta does
    vals = [implied_c(E1, StancuParams(100, 200.0, b)) for b in (200.0, 400.0, 800.0, 1600.0)]
    assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))


# ----------------------------------------- fixed-degree collapse onto f(m)


def test_collapse_experiment_constant_function():
    fam = RatioFamily(1.0, 2.0, (1.0, 10.0, 100.0))
    rep = theorem4_experiment(E0, 50, fam)
    # bound 0 at every level, distances a few 1e-15 of rounding: only
    # NOISE_FLOOR lets the check pass
    assert (rep.bounds == 0.0).all() and (rep.distances > 0.0).all()
    assert rep.ok and rep.within_bound and rep.failing_index is None
    assert rep.distances.max() <= 1e-12


def test_collapse_experiment_linear_single_level():
    # only level (470, 1000): max_x |x + (470 - 1000 x)/1100 - 0.47| = 53/1100 at x = 1
    fam = RatioFamily(4.7, 10.0, (100.0,))
    rep = theorem4_experiment(E1, 100, fam)
    assert rep.final_distance == pytest.approx(53.0 / 1100.0, abs=1e-12)


def test_collapse_experiment_sin15_levels_match_oracle():
    fam = RatioFamily(4.7, 10.0, (1.0, 10.0, 100.0, 1000.0))
    rep = theorem4_experiment(SIN15, 100, fam)
    assert rep.ok and rep.failing_index is None
    np.testing.assert_allclose(rep.distances, T4_LEVEL_DISTANCES, rtol=1e-9)
    # compressing nodes transiently deepens the smoothed oscillation: the
    # level distances are NOT monotone here (second exceeds first)
    assert not rep.monotone_decreasing
    assert rep.distances[1] > rep.distances[0]


def test_collapse_experiment_reaches_the_limit():
    fam = RatioFamily(4.7, 10.0, (1.0, 10.0, 100.0, 1000.0, 10000.0))
    rep = theorem4_experiment(SIN15, 100, fam)
    assert rep.ok
    assert rep.final_distance == pytest.approx(0.0056973273455782625, rel=1e-9)
    assert rep.final_distance < 0.01


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
    with pytest.raises(ValueError):
        theorem4_experiment(SIN15, 0, RatioFamily(1.0, 2.0, (1.0,)))


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


def test_bound_config_validation():
    with pytest.raises(ValueError):
        BoundConfig(c1=0.0)
    with pytest.raises(ValueError):
        BoundConfig(mod_grid_size=50)
    with pytest.raises(ValueError):
        BoundConfig(sup_grid_size=100)
    with pytest.raises(ValueError):
        BoundConfig(mod_grid_size=10001.0)
    with pytest.raises(ValueError):
        BoundConfig(sup_grid_size=1001.5)
    cfg = BoundConfig()
    assert cfg.mod_step == pytest.approx(1e-4)
    assert cfg.sup_step == pytest.approx(1e-3)
