"""Node geometry tests: gap identities, contraction, nesting."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancu_lab import (
    CheckReport,
    FunctionSpec,
    RatioFamily,
    StancuParams,
    check_corollary2,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    theorem4_experiment,
)
from stancu_lab.nodes import _allowance, node_table, same_ratio

params_strategy = st.builds(
    lambda n, b, frac: StancuParams(n, frac * b, b),
    n=st.integers(1, 400),
    b=st.floats(0.0, 1000.0),
    frac=st.floats(0.0, 1.0),
)


def gaps(p):
    """Displacement of every shifted node from its plain counterpart k/n."""
    return p.node_values() - StancuParams(p.n).node_values()


def swap_shifts(monkeypatch):
    """Replace the node formula by the mutant (k + beta)/(n + alpha)."""
    monkeypatch.setattr(StancuParams, "node_values",
                        lambda p: (np.arange(p.n + 1) + p.beta) / (p.n + p.alpha))


def t2_distances(rep):
    """A t2 report's columns |k/n - m| and |(k + alpha)/(n + beta) - m|."""
    return rep.columns[4], rep.columns[5]


def contraction_residual(p, rep):
    """Largest |stancu_dist - contraction * bernstein_dist| of a t2 report,
    with the contraction factor n/(n + beta)."""
    bern_dist, stan_dist = t2_distances(rep)
    return float(np.abs(stan_dist - p.n / (p.n + p.beta) * bern_dist).max())


def nesting_residuals(p1, p2, rep):
    """The t3 identities' residuals, with their factor (n + beta1)/(n + beta2):
    nodes1 - nodes2 = n (beta2 - beta1)(k/n - m)/((n + beta1)(n + beta2)) and
    dist2 = factor * dist1."""
    n, b1, b2, m = p1.n, p1.beta, p2.beta, p1.alpha / p1.beta
    plain, nodes1, nodes2 = (q.node_values() for q in (StancuParams(n), p1, p2))
    factor = (n + b1) / (n + b2)
    diff = (nodes1 - nodes2) - (n * (b2 - b1) * (plain - m)) / ((n + b1) * (n + b2))
    _, _, dist1, _, dist2 = rep.columns
    dist = dist2 - factor * dist1
    return float(np.abs(diff).max()), float(np.abs(dist).max()), factor


def test_plain_nodes():
    nodes = StancuParams(4, 0.0, 0.0).node_values()
    np.testing.assert_array_equal(nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert (np.diff(nodes) == 0.25).all()


def test_shifted_nodes_first_and_last():
    nodes = StancuParams(25, 17.0, 100.0).node_values()
    assert nodes[0] == pytest.approx(17.0 / 125.0, abs=1e-15)
    assert nodes[-1] == pytest.approx(42.0 / 125.0, abs=1e-15)
    np.testing.assert_allclose(np.diff(nodes), 1.0 / 125.0, rtol=0, atol=1e-15)
    # alpha = beta pins the last node to 1
    assert StancuParams(10, 5.0, 5.0).node_values()[-1] == 1.0


@given(p=params_strategy)
@settings(max_examples=150, deadline=None)
def test_nodes_equidistant(p):
    nodes = p.node_values()
    assert nodes.size == p.n + 1
    assert np.abs(np.diff(nodes) - 1.0 / (p.n + p.beta)).max() <= 1e-15
    assert float(nodes[0]) >= 0.0 and float(nodes[-1]) <= 1.0


@pytest.mark.parametrize("n,alpha,beta", [(10, 0.0, 0.0), (25, 17.0, 100.0), (100, 4.7, 10.0),
                                          (7, 3.0, 3.0)])
def test_node_table_matches_the_node_formulas(n, alpha, beta):
    k = np.arange(n + 1)
    plain, shifted = k / n, (k + alpha) / (n + beta)
    expected = [plain, shifted, shifted - plain]
    if beta > 0.0:  # the table takes its own m = alpha/beta
        m = alpha / beta
        expected += [np.abs(plain - m), np.abs(shifted - m)]
    table = node_table(StancuParams(n, alpha, beta))
    assert [c.tobytes() for c in table] == [c.tobytes() for c in expected]


def test_node_gap_values():
    assert gaps(StancuParams(25, 17.0, 100.0))[0] == pytest.approx(0.136, abs=1e-15)
    # the families meet where k/n equals alpha/beta
    assert gaps(StancuParams(100, 47.0, 100.0))[47] == 0.0


@given(p=params_strategy, k_frac=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_node_gap_identity_and_bound(p, k_frac):
    k = int(round(k_frac * p.n))
    g = gaps(p)[k]
    alt = (p.n * p.alpha - k * p.beta) / (p.n * (p.n + p.beta))
    assert abs(g - alt) <= 1e-15
    # the displacement bound; 1e-15 covers the alpha = 0 equality case
    assert abs(g) <= (p.alpha + p.beta) / (p.n + p.beta) + 1e-15


def test_theorem1_report_values():
    rep = check_theorem1(StancuParams(250, 20.0, 30.0), [25, 50, 100, 250])
    assert rep.ok and rep.failing_index is None and rep.status == "t1: OK"
    assert rep.header == "n,max_gap,bound"
    degrees, max_gaps, bounds = rep.columns
    assert degrees == (25, 50, 100, 250)
    np.testing.assert_allclose(
        bounds, [50.0 / 55.0, 50.0 / 80.0, 50.0 / 130.0, 50.0 / 280.0], rtol=0, atol=1e-15
    )
    assert (max_gaps <= bounds).all()

    tiny = check_theorem1(StancuParams(1, 1.0, 1.0), [1])
    assert tiny.ok
    assert tiny.columns[1][0] == pytest.approx(0.5, abs=1e-15)
    assert tiny.columns[2][0] == 1.0

    plain = check_theorem1(StancuParams(10, 0.0, 0.0), [5, 10, 20])
    assert plain.ok and plain.columns[1].max() == 0.0

    # alpha = 0: the largest gap 1/3 equals the bound, but the float gap
    # lands one ulp above the float bound and passes within the allowance
    edge = check_theorem1(StancuParams(2, 0.0, 1.0), [2])
    _, max_gaps, bounds = edge.columns
    assert 0.0 < max_gaps[0] - bounds[0] <= 1e-16
    assert edge.ok and edge.failing_index is None


def test_theorem1_decides_the_fall_on_exact_bounds():
    # for large beta the float bounds of neighbouring degrees tie, while
    # the exact sequence (alpha + beta)/(n + beta) still falls
    for a, b, degrees in ((1e300, 1e301, [5, 10]), (4.7e16, 1e17, [99, 100]),
                          (1e308, 1e308, [5, 6])):
        rep = check_theorem1(StancuParams(max(degrees), a, b), degrees)
        assert rep.columns[2][0] == rep.columns[2][1]
        assert rep.ok and rep.failing_index is None


def test_theorem1_validation():
    with pytest.raises(ValueError):
        check_theorem1(StancuParams(10, 1.0, 2.0), [])
    with pytest.raises(ValueError):
        check_theorem1(StancuParams(10, 1.0, 2.0), [10, 10])
    with pytest.raises(ValueError):
        check_theorem1(StancuParams(10, 1.0, 2.0), [50, 25])
    # degrees are validated, never truncated: 2.5 and True are not degrees
    with pytest.raises(ValueError):
        check_theorem1(StancuParams(10, 1.0, 2.0), [2.5, 5])
    with pytest.raises(ValueError):
        check_theorem1(StancuParams(10, 1.0, 2.0), [True, 5])


@pytest.mark.parametrize("alpha", [17.0, 47.0, 77.0])
@pytest.mark.parametrize("n", [25, 100])
def test_theorem2_contraction(alpha, n):
    p = StancuParams(n, alpha, 100.0)
    rep = check_theorem2(p)
    assert rep.ok and rep.failing_index is None
    assert rep.status.startswith(f"t2: OK (contraction {n / (n + 100.0)!r}, crossings at k=")
    assert contraction_residual(p, rep) <= 1e-14
    bern_dist, stan_dist = t2_distances(rep)
    assert (stan_dist <= bern_dist + 1e-15).all()


def test_theorem2_crossing_at_integer_ratio():
    rep = check_theorem2(StancuParams(100, 47.0, 100.0))
    assert rep.status == "t2: OK (contraction 0.5, crossings at k=47)"
    bern_dist, stan_dist = t2_distances(rep)
    assert stan_dist[47] == 0.0 and bern_dist[47] == 0.0
    # 25 * 17/100 is not an integer: no crossing index exists
    assert check_theorem2(StancuParams(25, 17.0, 100.0)).status == (
        "t2: OK (contraction 0.2, crossings at k=none)")


def test_theorem2_distances_scale_exactly():
    bern_dist, stan_dist = t2_distances(check_theorem2(StancuParams(25, 17.0, 100.0)))
    np.testing.assert_allclose(stan_dist, 0.2 * bern_dist, rtol=0, atol=1e-15)
    # every shifted node lies between its plain node and m: its gap is the
    # difference of the two distances to m
    max_gap = (bern_dist - stan_dist).max()
    assert max_gap == pytest.approx(np.abs(0.8 * (np.arange(26) / 25 - 0.17)).max(), abs=1e-14)


def test_theorem2_sign_pattern_names_the_first_node_off_m(monkeypatch):
    # with alpha and beta swapped, the nodes (k + 2)/11 overshoot m = 1/2
    # first at node 4 (6/11), far beyond rounding; nodes 0..3 still lie
    # between k/10 and m, and node 5 sits at m
    swap_shifts(monkeypatch)
    rep = check_theorem2(StancuParams(10, 1.0, 2.0))
    assert rep.failing_index == 4 and rep.status == "t2: FAIL at k=4"
    # and t1: the gap 2/n of (k + 2)/n exceeds the bound 2/(n + 2)
    rep = check_theorem1(StancuParams(20, 0.0, 2.0), [10, 20])
    assert rep.failing_index == 0 and rep.status == "t1: FAIL at n=10: max_gap exceeds bound"


def test_theorem2_decides_the_crossing_node_too(monkeypatch):
    # shifted nodes moved 1e-9 off the formula still lie between k/n and m
    # wherever k/n is off m; at the crossing k = 47 the interval is m alone
    nodes = StancuParams.node_values
    monkeypatch.setattr(StancuParams, "node_values",
                        lambda p: nodes(p) + (1e-9 if p.beta > 0.0 else 0.0))
    assert check_theorem2(StancuParams(100, 47.0, 100.0)).failing_index == 47
    assert check_theorem2(StancuParams(25, 17.0, 100.0)).ok


@pytest.mark.parametrize("n,alpha,beta,crossings", [
    (10, 0.0, 1e-300, "0"),  # k/(10 + 1e-300) rounds to k/10
    (10, 1e-320, 1e-310, "none"),  # n/(n + beta) rounds to 1
    (10, 1e-13, 1e-12, "1"),  # every gap is below 1e-12; only k = 1 sits at m
    (100, 4.7e16, 1e17, "47"),  # every node rounds to within 1e-15 of m
])
def test_theorem2_holds_where_the_float_nodes_cannot_move(n, alpha, beta, crossings):
    # the shifted node moves by less than its own rounding: the check is OK,
    # and the crossings are the plain nodes at m, not the small gaps
    rep = check_theorem2(StancuParams(n, alpha, beta))
    assert rep.ok
    assert rep.status == f"t2: OK (contraction {n / (n + beta)!r}, crossings at k={crossings})"


def test_theorem2_requires_positive_beta():
    with pytest.raises(ValueError):
        check_theorem2(StancuParams(10, 0.0, 0.0))


@given(n=st.integers(1, 200), b=st.floats(0.5, 500.0), frac=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_theorem2_identity_property(n, b, frac):
    p = StancuParams(n, frac * b, b)
    assert contraction_residual(p, check_theorem2(p)) <= 1e-14


def test_theorem3_fixed_ratio_families():
    n = 100
    p_small = StancuParams(n, 4.7, 10.0)
    p_mid = StancuParams(n, 47.0, 100.0)
    p_big = StancuParams(n, 470.0, 1000.0)

    rep = check_theorem3(p_small, p_mid)
    assert rep.ok
    diff_err, dist_err, factor = nesting_residuals(p_small, p_mid, rep)
    assert factor == pytest.approx(110.0 / 200.0, abs=1e-16)
    assert diff_err <= 1e-13
    assert dist_err <= 1e-13

    rep2 = check_theorem3(p_mid, p_big)
    assert rep2.ok
    diff_err, dist_err, factor = nesting_residuals(p_mid, p_big, rep2)
    assert factor == pytest.approx(200.0 / 1100.0, abs=1e-16)
    assert diff_err <= 1e-13
    assert dist_err <= 1e-13
    off = np.abs(np.arange(n + 1) / n - 0.47) > 1e-12
    _, _, dist1, _, dist2 = rep2.columns
    assert (dist2[off] < dist1[off]).all()


def test_theorem3_identical_families_degenerate():
    p = StancuParams(50, 3.0, 12.0)
    rep = check_theorem3(p, p)
    assert rep.ok
    np.testing.assert_array_equal(rep.columns[2], rep.columns[4])
    assert nesting_residuals(p, p, rep)[:2] == (0.0, 0.0)


def test_theorem3_validation():
    p = StancuParams(100, 4.7, 10.0)
    assert check_theorem3(p, StancuParams(100, 47.0, 100.0)).status == f"t3: OK (m={4.7 / 10.0!r})"
    with pytest.raises(ValueError, match="ratio mismatch"):
        check_theorem3(p, StancuParams(100, 48.0, 100.0))
    with pytest.raises(ValueError):
        check_theorem3(p, StancuParams(50, 47.0, 100.0))  # degree mismatch
    with pytest.raises(ValueError):
        check_theorem3(StancuParams(100, 0.0, 0.0), p)  # beta1 = 0
    with pytest.raises(ValueError):
        check_theorem3(StancuParams(100, 47.0, 100.0), StancuParams(100, 4.7, 10.0))


# ------------------------------------------------------ report protocol


def test_failing_index_names_the_first_broken_entry():
    # a report's verdict is its failing_index and nothing else
    p = StancuParams(10, 1.0, 2.0)
    reports = (
        check_theorem1(p, (10, 20, 30)),
        check_theorem2(p),
        check_theorem3(p, StancuParams(10, 2.0, 4.0)),
    )
    for failing, ok in ((2, False), (0, False), (None, True)):
        for real in reports:
            report = dataclasses.replace(real, failing_index=failing)
            assert report.ok is ok and report.failing_index == failing


def test_reports_are_dataclasses_with_a_verdict():
    # the benchmark reads ok, failing_index and t4's within_bound, and
    # digests a report field by field: every check returns the one record
    # class, a dataclass whose columns are a tuple (a dict would be digested
    # by its repr, which numpy cuts to 8 digits)
    p = StancuParams(100, 47.0, 100.0)
    sin15 = FunctionSpec.builtin("sin15")
    reports = (
        check_theorem1(p, (25, 50, 100)),
        check_theorem2(p),
        check_theorem3(p, StancuParams(100, 470.0, 1000.0)),
        theorem4_experiment(sin15, 50, RatioFamily(1.0, 2.0, (1.0, 10.0))),
        check_corollary2(sin15, [p]),
    )
    for report in reports:
        assert type(report) is CheckReport and dataclasses.is_dataclass(report)
        assert report.ok is True and report.failing_index is None
        assert isinstance(report.columns, tuple)
        assert report.header.count(",") + 1 == len(report.columns)
    t4 = reports[-2]
    assert t4.within_bound == t4.ok
    assert dataclasses.replace(t4, failing_index=1).within_bound is False


# 3333333333333000/1e16 is 3.3e-14 below m = 1/3: within same_ratio, far beyond rounding
CHAIN = ((1.0, 3.0), (10.0, 30.0), (3.333333333333e15, 1e16))


def test_theorem3_names_the_first_node_that_breaks_the_nesting(monkeypatch):
    # the second family collapses onto its own ratio, which lies below 1/3
    # by more than rounding; node 34 is the first above m, where it falls
    # outside [m, first family]
    pair = [StancuParams(100, a, b) for a, b in CHAIN[1:]]
    rep = check_theorem3(*pair)
    assert rep.failing_index == 34 and not rep.ok
    # with alpha and beta swapped, (k + 4)/12 overshoots m = 1/2 at node 3
    swap_shifts(monkeypatch)
    rep = check_theorem3(StancuParams(10, 1.0, 2.0), StancuParams(10, 2.0, 4.0))
    assert rep.failing_index == 3 and not rep.ok


def test_theorem3_decides_the_crossing_node_too(monkeypatch):
    # shifted nodes moved 1e-9 off the formula still nest wherever k/n is
    # off m; at the crossing k = 47 each family must sit between k/n and
    # its own ratio, which here is m alone
    nodes = StancuParams.node_values
    monkeypatch.setattr(StancuParams, "node_values",
                        lambda p: nodes(p) + (1e-9 if p.beta > 0.0 else 0.0))
    rep = check_theorem3(StancuParams(100, 4.7, 10.0), StancuParams(100, 47.0, 100.0))
    assert rep.failing_index == 47 and rep.status == (
        "t3: FAIL for pairs (4.7,10.0) -> (47.0,100.0) at k=47")


def test_theorem3_holds_where_the_float_nodes_cannot_move():
    # the second family differs from the first by less than its rounding
    for pairs, m in ((((0.0, 1e-300), (0.0, 2e-300)), 0.0),
                     (((4.7e15, 1e16), (4.7e16, 1e17)), 0.47)):
        rep = check_theorem3(*(StancuParams(100, a, b) for a, b in pairs))
        assert rep.ok and rep.status == f"t3: OK (m={m!r})"


def test_theorem3_decides_a_chain_link_by_link():
    # flag entry j of a chain is node j % (n + 1) of link j // (n + 1); the
    # first link nests, the second breaks at node 34 as it does alone
    chain = [StancuParams(100, a, b) for a, b in CHAIN]
    assert check_theorem3(*chain[:2]).ok
    assert check_theorem3(*chain[1:]).failing_index == 34
    rep = check_theorem3(*chain)
    assert rep.failing_index == 101 + 34
    assert rep.status == "t3: FAIL for pairs (10.0,30.0) -> (3333333333333000.0,1e+16) at k=34"
    assert rep.header == "k,node_0,dist_0,node_1,dist_1,node_2,dist_2"
    with pytest.raises(ValueError, match="two"):
        check_theorem3(chain[0])


def assert_protocol(report):
    # a report names a failing entry exactly when its verdict fails
    assert (report.failing_index is None) == report.ok


@given(p=params_strategy, more=st.lists(st.integers(1, 400), max_size=3))
@settings(max_examples=100, deadline=None)
def test_report_protocol_t1(p, more):
    assert_protocol(check_theorem1(p, sorted({p.n, *more})))


@given(
    n=st.integers(1, 400),
    b=st.floats(0.0, 1000.0, exclude_min=True),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_report_protocol_t2(n, b, frac):
    assert_protocol(check_theorem2(StancuParams(n, frac * b, b)))


@given(
    n=st.integers(1, 400),
    b=st.floats(0.0, 1000.0, exclude_min=True),
    grow=st.floats(1.0, 100.0),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_report_protocol_t3(n, b, grow, frac):
    p1, p2 = StancuParams(n, frac * b, b), StancuParams(n, frac * b * grow, b * grow)
    # Near subnormal b the two products round to pairs whose float ratios
    # differ (n=1, b=1e-323, grow=1.5, frac=0.5 gives 0.5 vs 0.666...);
    # check_theorem3 must then reject the pair, and only then.
    m1, m2 = p1.alpha / p1.beta, p2.alpha / p2.beta
    if abs(m1 - m2) > 1e-12 * max(1.0, abs(m1)):
        with pytest.raises(ValueError, match="ratio mismatch"):
            check_theorem3(p1, p2)
    else:
        assert_protocol(check_theorem3(p1, p2))


# ------------------------------------------------ rounding allowance

# every decade of beta a float holds, with both ends of the float range
BETAS = (5e-324, *(10.0**e for e in range(-323, 301)), 1.7e308)


@pytest.mark.parametrize("ratio", [0.0, 0.47, 1.0, "random"])
@pytest.mark.parametrize("n", [1, 10, 100, 1000])
def test_node_claims_hold_for_every_decade_of_beta(n, ratio):
    # t1..t3 are theorems: on valid shifts no float check may refute them
    rng = np.random.default_rng(n)
    for beta in BETAS:
        p = StancuParams(n, (rng.random() if ratio == "random" else ratio) * beta, beta)
        assert check_theorem1(p, sorted({1, n})).ok, p
        assert check_theorem2(p).ok, p
        grown = StancuParams(n, 1.05 * p.alpha, 1.05 * p.beta)
        # subnormal shifts can round off the shared ratio; t3 rejects those
        if same_ratio(p.alpha / p.beta, grown.alpha / grown.beta):
            assert check_theorem3(p, grown).ok, (p, grown)


def within(count, v, exact):
    """Whether the float v lies within the allowance of ``count`` roundings of ``exact``."""
    return abs(Fraction(v) - exact) <= Fraction(_allowance(count, abs(v)))


@given(n=st.integers(1, 40), e=st.integers(-323, 300), mant=st.floats(1.0, 10.0),
       frac=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_allowance_bounds_the_error_of_every_node(n, e, mant, frac):
    # the counts the checks use: plain node 1, shifted node 3, m 1, bound 3,
    # and a gap carries both nodes' allowances plus its own rounding
    beta = mant * 10.0**e
    p = StancuParams(n, frac * beta, beta)
    a, b = Fraction(p.alpha), Fraction(p.beta)
    plain, shifted, gaps = node_table(p)[:3]
    for k in range(n + 1):
        exact_plain, exact_shifted = Fraction(k, n), (k + a) / (n + b)
        assert within(1, plain[k], exact_plain)
        assert within(3, shifted[k], exact_shifted)
        g = Fraction(gaps[k]) - (exact_shifted - exact_plain)
        assert abs(g) <= sum(Fraction(_allowance(c, abs(v)))
                             for c, v in ((3, shifted[k]), (1, plain[k]), (1, gaps[k])))
    assert within(1, p.alpha / p.beta, a / b)
    assert within(3, p.displacement_bound(), (a + b) / (n + b))
