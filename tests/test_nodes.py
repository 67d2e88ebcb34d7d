"""Node geometry tests: gap identities, contraction, nesting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancu_lab import (
    ClusterReport,
    StancuParams,
    Theorem1Report,
    Theorem3Report,
    check_theorem1,
    check_theorem2,
    check_theorem3,
)

params_strategy = st.builds(
    lambda n, b, frac: StancuParams(n, frac * b, b),
    n=st.integers(1, 400),
    b=st.floats(0.0, 1000.0),
    frac=st.floats(0.0, 1.0),
)


def gaps(p):
    """Displacement of every shifted node from its plain counterpart k/n."""
    return p.node_values() - StancuParams(p.n).node_values()


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
    assert rep.ok and rep.failing_index is None
    np.testing.assert_allclose(
        rep.bounds, [50.0 / 55.0, 50.0 / 80.0, 50.0 / 130.0, 50.0 / 280.0], rtol=0, atol=1e-15
    )
    assert (rep.max_gaps <= rep.bounds).all()

    tiny = check_theorem1(StancuParams(1, 1.0, 1.0), [1])
    assert tiny.ok
    assert tiny.max_gaps[0] == pytest.approx(0.5, abs=1e-15)
    assert tiny.bounds[0] == 1.0

    plain = check_theorem1(StancuParams(10, 0.0, 0.0), [5, 10, 20])
    assert plain.ok and plain.max_gaps.max() == 0.0

    # alpha = 0: the largest gap 1/3 equals the bound, but the float gap
    # lands one ulp above the float bound and passes through GAP_CUSHION
    edge = check_theorem1(StancuParams(2, 0.0, 1.0), [2])
    assert 0.0 < edge.max_gaps[0] - edge.bounds[0] <= 1e-16
    assert edge.ok and edge.failing_index is None


def test_theorem1_decides_the_fall_on_exact_bounds():
    # for large beta the float bounds of neighbouring degrees tie, while
    # the exact sequence (alpha + beta)/(n + beta) still falls
    for a, b, degrees in ((1e300, 1e301, [5, 10]), (4.7e16, 1e17, [99, 100]),
                          (1e308, 1e308, [5, 6])):
        rep = check_theorem1(StancuParams(max(degrees), a, b), degrees)
        assert rep.bounds[0] == rep.bounds[1]
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
    rep = check_theorem2(StancuParams(n, alpha, 100.0))
    assert rep.ok and rep.failing_index is None
    assert rep.contraction == n / (n + 100.0)
    assert rep.identity_error <= 1e-14
    assert (rep.stancu_dist <= rep.bernstein_dist + 1e-15).all()


def test_theorem2_crossing_at_integer_ratio():
    rep = check_theorem2(StancuParams(100, 47.0, 100.0))
    assert rep.crossing_indices == (47,)
    assert rep.stancu_dist[47] == 0.0 and rep.bernstein_dist[47] == 0.0
    # 25 * 17/100 is not an integer: no crossing index exists
    assert check_theorem2(StancuParams(25, 17.0, 100.0)).crossing_indices == ()


def test_theorem2_distances_scale_exactly():
    rep = check_theorem2(StancuParams(25, 17.0, 100.0))
    np.testing.assert_allclose(rep.stancu_dist, 0.2 * rep.bernstein_dist, rtol=0, atol=1e-15)
    assert rep.max_gap == pytest.approx(np.abs(0.8 * (np.arange(26) / 25 - 0.17)).max(), abs=1e-14)


def test_theorem2_sign_pattern_names_the_first_node_off_m():
    # k/(10 + 1e-300) rounds to k/10: no shifted node moves toward m = 0.
    # Node 0 sits at m; node 1 is the first to break the strict pattern,
    # while the distance inequality still holds everywhere.
    rep = check_theorem2(StancuParams(10, 0.0, 1e-300))
    assert (rep.stancu_dist <= rep.bernstein_dist).all()
    assert rep.failing_index == 1 and not rep.ok


def test_theorem2_requires_positive_beta():
    with pytest.raises(ValueError):
        check_theorem2(StancuParams(10, 0.0, 0.0))


@given(n=st.integers(1, 200), b=st.floats(0.5, 500.0), frac=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_theorem2_identity_property(n, b, frac):
    rep = check_theorem2(StancuParams(n, frac * b, b))
    assert rep.identity_error <= 1e-14


def test_theorem3_fixed_ratio_families():
    n = 100
    p_small = StancuParams(n, 4.7, 10.0)
    p_mid = StancuParams(n, 47.0, 100.0)
    p_big = StancuParams(n, 470.0, 1000.0)

    rep = check_theorem3(p_small, p_mid)
    assert rep.ok
    assert rep.shrink_factor == pytest.approx(110.0 / 200.0, abs=1e-16)
    assert rep.difference_identity_error <= 1e-13
    assert rep.distance_identity_error <= 1e-13

    rep2 = check_theorem3(p_mid, p_big)
    assert rep2.ok
    assert rep2.shrink_factor == pytest.approx(200.0 / 1100.0, abs=1e-16)
    off = np.abs(np.arange(n + 1) / n - 0.47) > 1e-12
    assert (rep2.dist2[off] < rep2.dist1[off]).all()


def test_theorem3_identical_families_degenerate():
    p = StancuParams(50, 3.0, 12.0)
    rep = check_theorem3(p, p)
    assert rep.ok
    np.testing.assert_array_equal(rep.dist1, rep.dist2)
    assert rep.difference_identity_error == 0.0


def test_theorem3_validation():
    p = StancuParams(100, 4.7, 10.0)
    with pytest.raises(ValueError):
        check_theorem3(p, StancuParams(100, 48.0, 100.0))  # ratio mismatch
    with pytest.raises(ValueError):
        check_theorem3(p, StancuParams(50, 47.0, 100.0))  # degree mismatch
    with pytest.raises(ValueError):
        check_theorem3(StancuParams(100, 0.0, 0.0), p)  # beta1 = 0
    with pytest.raises(ValueError):
        check_theorem3(StancuParams(100, 47.0, 100.0), StancuParams(100, 4.7, 10.0))


# ------------------------------------------------------ report protocol


def test_failing_index_names_the_first_broken_entry():
    # a report's verdict is its failing_index and nothing else
    for failing, ok in ((2, False), (0, False), (None, True)):
        t1 = Theorem1Report(
            degrees=(10, 20, 30), max_gaps=np.zeros(3),
            bounds=np.array([3 / 12, 3 / 22, 3 / 32]), failing_index=failing,
        )
        t2 = ClusterReport(
            ratio_m=0.0, bernstein_dist=np.full(11, 0.5), stancu_dist=np.full(11, 0.5),
            max_gap=0.0, crossing_indices=(), contraction=1.0, identity_error=0.0,
            failing_index=failing,
        )
        p = StancuParams(10, 1.0, 2.0)
        t3 = Theorem3Report(
            params1=p, params2=p, ratio_m=0.5, dist1=np.zeros(11), dist2=np.zeros(11),
            shrink_factor=1.0, difference_identity_error=0.0, distance_identity_error=0.0,
            failing_index=failing,
        )
        for report in (t1, t2, t3):
            assert report.ok is ok and report.failing_index == failing


def test_theorem3_names_the_first_node_that_breaks_the_nesting():
    # k/(10 + 1e-300) rounds to k/10, so the first family sits on the plain
    # nodes; a second family at beta = 2e-300 rounds there too and cannot lie
    # strictly between the first and m = 0. Node 0 sits at m.
    rep = check_theorem3(StancuParams(10, 0.0, 1e-300), StancuParams(10, 0.0, 2e-300))
    assert rep.failing_index == 1 and not rep.ok


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
    report = check_theorem3(StancuParams(n, frac * b, b), StancuParams(n, frac * b * grow, b * grow))
    assert_protocol(report)
