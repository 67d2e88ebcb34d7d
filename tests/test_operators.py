"""Core operator tests: basis stability, moment identities, operator algebra."""

import copy
import dataclasses
import math
import pickle
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stancu_lab import (
    BUILTIN_FUNCTIONS,
    FunctionSpec,
    StancuParams,
    apply_operator,
    apply_operator_curve,
    evaluate,
    moment_closed_form,
    uniform_grid,
)
from stancu_lab import operators
from stancu_lab.bounds import RatioFamily
from stancu_lab.operators import _BLOCK, _BLOCK_BYTES, _block_steps


def basis_row(n, x):
    """All n+1 basis values at one point: the operator image of each unit vector."""
    return evaluate(lambda t: np.eye(t.size), StancuParams(n), float(x))[0]


def loggamma_basis(n, k, x):
    """Independent slow oracle for a single basis value, in log space."""
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    if x == 1.0:
        return 1.0 if k == n else 0.0
    return math.exp(
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(x)
        + (n - k) * math.log1p(-x)
    )


# ---------------------------------------------------------------- basis


def test_basis_degenerate_endpoints_are_exact():
    assert basis_row(5, 0.0)[0] == 1.0
    assert basis_row(5, 1.0)[5] == 1.0
    assert basis_row(5, 0.0)[3] == 0.0
    assert basis_row(5, 1.0)[2] == 0.0
    row = basis_row(7, 0.0)
    assert row[0] == 1.0 and np.all(row[1:] == 0.0)


def test_basis_small_exact_values():
    assert basis_row(2, 0.5)[1] == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(basis_row(1, 0.3), [0.7, 0.3], atol=1e-15)
    np.testing.assert_allclose(
        basis_row(4, 0.5), np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0, atol=1e-15
    )


def test_basis_high_degree_matches_log_space_oracle():
    v = basis_row(250, 0.5)[125]
    ref = loggamma_basis(250, 125, 0.5)
    assert abs(v - ref) / ref < 1e-12


def test_basis_row_matches_scalar_entries_exactly():
    # entry k is the operator image of the function that is 1 at node k
    # and 0 at the other nodes
    p = StancuParams(9)
    nodes = p.node_values()
    units = [FunctionSpec.tabulated(f"e_{k}", nodes, np.eye(10)[k]) for k in range(10)]
    for x in (0.0, 0.125, 0.5, 0.77, 1.0):
        row = basis_row(9, x)
        for k in range(10):
            assert row[k] == apply_operator(units[k], p, x)


def test_partition_of_unity_through_degree_1000():
    grid = np.linspace(0.0, 1.0, 1001)
    for n in (1, 10, 100, 250, 1000):
        sums = np.array([basis_row(n, x).sum() for x in grid[:: max(1, n // 10)]])
        assert np.abs(sums - 1.0).max() <= 1e-12


def test_exact_binomial_cross_check_low_degree():
    # production recurrence against exact integer binomial coefficients
    rng = np.random.default_rng(5)
    f = FunctionSpec.builtin("sin15")
    for n in (5, 17, 33, 60):
        for x in rng.uniform(0.01, 0.99, 20):
            row = basis_row(n, float(x))
            ref = np.array(
                [math.comb(n, k) * x**k * (1.0 - x) ** (n - k) for k in range(n + 1)]
            )
            mask = ref > 0.0
            assert (np.abs(row[mask] - ref[mask]) / ref[mask]).max() < 1e-10
        # and the full operator sum built from those exact weights
        p = StancuParams(n, 3.0, 7.0)
        x = float(rng.uniform(0.1, 0.9))
        direct = sum(
            math.comb(n, k) * x**k * (1.0 - x) ** (n - k) * f((k + 3.0) / (n + 7.0))
            for k in range(n + 1)
        )
        got = apply_operator(f, p, x)
        assert abs(got - direct) / abs(direct) < 1e-10


@given(n=st.integers(1, 300), x=st.floats(0.0, 1.0))
@settings(max_examples=120, deadline=None)
def test_basis_nonnegative_and_normalized(n, x):
    row = basis_row(n, x)
    assert (row >= 0.0).all()
    assert abs(row.sum() - 1.0) <= 1e-12


def test_basis_rejects_bad_arguments():
    with pytest.raises(ValueError):
        basis_row(0, 0.5)
    with pytest.raises(ValueError):
        basis_row(5, 1.5)
    with pytest.raises(ValueError):
        basis_row(5, -0.1)


def test_basis_rejects_underflowing_degree():
    with pytest.raises(ValueError, match="too large"):
        basis_row(2000, 0.5)


# ------------------------------------------------------------- operator


def test_constant_function_maps_to_one():
    e0 = FunctionSpec.builtin("e0")
    rng = np.random.default_rng(0)
    for _ in range(25):
        b = rng.uniform(0.0, 500.0)
        p = StancuParams(int(rng.integers(1, 300)), rng.uniform(0.0, b), b)
        assert abs(apply_operator(e0, p, float(rng.uniform(0, 1))) - 1.0) <= 1e-12


def test_linear_function_fixed_point():
    # alpha - beta * x vanishes at x = 0.5 for (alpha, beta) = (1, 2)
    e1 = FunctionSpec.builtin("e1")
    assert apply_operator(e1, StancuParams(10, 1.0, 2.0), 0.5) == pytest.approx(0.5, abs=1e-12)


def test_interpolation_at_zero_when_alpha_zero():
    f = FunctionSpec.builtin("sin15")
    for beta in (0.0, 2.0, 50.0):
        assert apply_operator(f, StancuParams(12, 0.0, beta), 0.0) == f(0.0)


def test_endpoint_interpolation_identities():
    f = FunctionSpec.builtin("sin15")
    rng = np.random.default_rng(1)
    for _ in range(20):
        b = rng.uniform(0.0, 200.0)
        p = StancuParams(int(rng.integers(1, 200)), rng.uniform(0.0, b), b)
        left = f(p.alpha / (p.n + p.beta))
        right = f((p.n + p.alpha) / (p.n + p.beta))
        assert abs(apply_operator(f, p, 0.0) - left) <= 1e-12
        assert abs(apply_operator(f, p, 1.0) - right) <= 1e-12


def test_shift_zero_reduces_to_plain_operator():
    # zero shifts sample exactly at k/n through the same code path
    f = FunctionSpec.builtin("sin15")
    n = 40
    p = StancuParams(n, 0.0, 0.0)
    np.testing.assert_array_equal(p.node_values(), np.arange(n + 1) / n)
    # the sum runs in ascending k, and in descending k for reflected x > 1/2
    for x, order in ((0.37, range(n + 1)), (0.5, range(n + 1)), (0.83, range(n, -1, -1))):
        row = basis_row(n, x)
        acc = 0.0
        for k in order:
            acc = acc + f(k / n) * row[k]
        assert acc == apply_operator(f, p, x)


@given(
    data=st.data(),
    n=st.integers(1, 60),
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_operator_is_linear_in_the_function(data, n, a, b):
    # tabulated specs on a shared abscissa grid combine exactly linearly
    m = data.draw(st.integers(2, 12))
    inner = np.sort(data.draw(st.lists(st.floats(0.01, 0.99), min_size=0, max_size=m)))
    xs = np.concatenate([[0.0], np.unique(inner), [1.0]])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    yf = rng.uniform(-5.0, 5.0, xs.size)
    yg = rng.uniform(-5.0, 5.0, xs.size)
    f = FunctionSpec.tabulated("f", xs, yf)
    g = FunctionSpec.tabulated("g", xs, yg)
    comb = FunctionSpec.tabulated("comb", xs, a * yf + b * yg)
    p = StancuParams(n, 1.5, 4.0)
    for x in (0.0, 0.31, 0.9):
        lhs = apply_operator(comb, p, x)
        rhs = a * apply_operator(f, p, x) + b * apply_operator(g, p, x)
        assert abs(lhs - rhs) <= 1e-10


def test_positivity_and_monotonicity():
    xs = np.linspace(0.0, 1.0, 9)
    rng = np.random.default_rng(7)
    yf = rng.uniform(0.0, 4.0, 9)
    f = FunctionSpec.tabulated("f", xs, yf)
    g = FunctionSpec.tabulated("g", xs, yf + rng.uniform(0.0, 2.0, 9))
    p = StancuParams(30, 2.0, 5.0)
    cf = apply_operator_curve(f, p, 101)
    cg = apply_operator_curve(g, p, 101)
    assert (cf.values >= 0.0).all()
    assert (cf.values <= cg.values).all()


def test_curve_is_pointwise_identical_to_scalar_path():
    f = FunctionSpec.builtin("sin15")
    for n in (1, 50, 1000):
        p = StancuParams(n, 20.0, 30.0)
        curve = apply_operator_curve(f, p, 101)
        assert curve.grid[0] == 0.0 and curve.grid[-1] == 1.0
        for i in range(101):
            assert curve.values[i] == apply_operator(f, p, float(curve.grid[i]))


BATCH_PAIRS = ((0.0, 0.0), (20.0, 30.0), (4.7, 10.0), (470.0, 1000.0))


@pytest.mark.parametrize("n", [1, 50, 1000])
def test_batched_columns_equal_single_operator_evaluation(n):
    # operators of one degree share one recurrence; the operations on each
    # value are unchanged, so every column matches bit for bit
    ps = tuple(StancuParams(n, a, b) for a, b in BATCH_PAIRS)
    for f in (FunctionSpec.builtin("sin15"), FunctionSpec.builtin("abshalf")):
        for xs in (np.linspace(0.0, 1.0, 1001), np.linspace(0.0, 1.0, 4097),
                   0.3, 0.5, 0.5000001, 0.77, 0.0, 1.0):
            got = evaluate(f, ps, xs)
            assert got.shape == (np.size(xs), len(ps))
            for j, p in enumerate(ps):
                assert (got[:, j] == evaluate(f, p, xs)).all()


def full_recurrence(fn, xs):
    """Reference kernel: the ratio recurrence over all n steps, no early exit.

    The same operations in the same order as ``evaluate`` on the value
    columns fn, shape (n+1, C); returns shape (len(xs), C).
    """
    n = fn.shape[0] - 1
    ratios = [(n - k) / (k + 1.0) for k in range(n)]
    out = np.empty((xs.size, fn.shape[1]))
    out[xs == 0.0] = fn[0]
    out[xs == 1.0] = fn[-1]
    left = (xs > 0.0) & (xs <= 0.5)
    right = (xs > 0.5) & (xs < 1.0)
    for mask, u, vals in ((left, xs, fn), (right, 1.0 - xs, fn[::-1])):
        if mask.any():
            u = u[mask]
            b = (1.0 - u) ** n
            r = u / (1.0 - u)
            acc = 0.0 + vals[0][:, None] * b
            for v, c in zip(vals[1:], ratios):
                b = b * r * c
                acc = acc + v[:, None] * b
            out[mask] = acc.T
    return out


EXIT_TABLES = (
    FunctionSpec.builtin("sin15"),
    FunctionSpec.builtin("abshalf"),
    lambda t: np.zeros(t.size),
    lambda t: -np.zeros(t.size),  # a zero sum keeps the seed's sign, +0.0
    lambda t: 1e-300 * np.sin(15.0 * t),
    lambda t: 1e300 * np.sin(15.0 * t),
    lambda t: (-1.0) ** np.arange(t.size),  # alternating signs
    lambda t: (np.arange(t.size) == t.size // 3).astype(float),  # one-hot spike
)
EXIT_POINTS = (np.linspace(0.0, 1.0, 1001), np.linspace(0.0, 1.0, 4097),
               1e-9, 0.25, 0.5, 0.5000000001, 0.999,
               # one stream row only, rows of unequal width, unsorted points
               # with a duplicate, and one interior point beside an endpoint
               uniform_grid(1001, 0, 400), uniform_grid(1001, 600), uniform_grid(1001, 300),
               np.array([0.9, 0.1, 0.5, 0.7, 0.7, 0.3]), np.array([0.0, 0.3]),
               # each branch of the one-point dispatch
               0.0, 1.0, -0.0, np.array([0.77]),
               # unsorted grids, permuted and scattered back; grids of endpoints
               # only; one point thrice; a signed zero cut with the zeros
               uniform_grid(1001)[::-1], np.random.default_rng(0).permutation(uniform_grid(1001)),
               np.array([0.0, 1.0]), np.array([1.0, 0.0, 1.0]), np.array([0.3, 0.3, 0.3]),
               np.array([0.7, -0.0, 0.2]))


def assert_batch_is_full_recurrence(ps):
    """Every value, batched over ps and single for ps[1], equals the full
    n-step sum bit for bit, for each exit table at each exit point set."""
    fns = [np.asarray(f(q.node_values()), dtype=float) for f in EXIT_TABLES for q in ps]
    for xs in EXIT_POINTS:
        want = full_recurrence(np.stack(fns, axis=1), np.reshape(xs, -1)).view(np.int64)
        for i, f in enumerate(EXIT_TABLES):
            cols = want[:, i * len(ps):(i + 1) * len(ps)]
            assert (evaluate(f, ps, xs).view(np.int64) == cols).all()
            assert (evaluate(f, ps[1], xs).view(np.int64) == cols[:, 1]).all()


@pytest.mark.parametrize(
    "n", [1, 2, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 50, 100, 999, 1000, 1022])
def test_early_exit_is_bit_identical_to_full_recurrence(n):
    # the recurrence stops once no later term can change the sum; every
    # value, batched over BATCH_PAIRS and single for (20, 30), must still
    # equal the full n-step sum bit for bit
    assert_batch_is_full_recurrence(tuple(StancuParams(n, a, b) for a, b in BATCH_PAIRS))


# the collapse experiment's five operators: (4.7, 10) scaled by 1..1e4
T4_LEVELS = tuple(RatioFamily(4.7, 10.0, (1.0, 10.0, 100.0, 1000.0, 10000.0)).levels())


def test_five_operator_stream_is_bit_identical_to_full_recurrence():
    # on grid 1001 this stream takes _BLOCK-step blocks (see the budget test)
    assert_batch_is_full_recurrence(tuple(StancuParams(100, a, b) for a, b in T4_LEVELS))


def test_wide_streams_are_bit_identical_to_full_recurrence():
    # _BLOCK steps of basis and sum rows for four operators exceed
    # _BLOCK_BYTES here, so each block is one step; the sums must not change
    n, size = 50, 20001
    width = (size - 1) // 2  # points in (0, 1/2], the wider stream row
    assert _block_steps(n, np.empty((2, width)), np.empty((2, len(BATCH_PAIRS), width))) == 1
    ps = tuple(StancuParams(n, a, b) for a, b in BATCH_PAIRS)
    xs = uniform_grid(size)
    for f in EXIT_TABLES[:2]:
        want = full_recurrence(np.stack([f(q.node_values()) for q in ps], axis=1), xs)
        assert (evaluate(f, ps, xs).view(np.int64) == want.view(np.int64)).all()


def test_block_sums_run_in_ascending_order():
    # _stream adds a block's terms to its running sum with one np.add.reduce
    # over the rows of (K+1)-row buffers; that must be the sequential sum
    # ((s + t_1) + t_2) + ..., never numpy's pairwise one. On 1.0 followed
    # by 2**-53 rows the two differ: sequentially every sum rounds back to
    # 1.0, pairwise the small rows add up first.
    def sequential(block):
        acc = np.array(block[0])  # a copy, 0-d for one-element rows
        for t in block[1:]:
            np.add(acc, t, acc)
        return acc

    def block_of(rows, shape):
        block = np.full((rows,) + shape, 2.0**-53)
        block[0] = 1.0
        return block

    # along memory (a one-element sum, which _stream never blocks) numpy
    # sums pairwise, so these values tell the two orders apart
    one = block_of(_BLOCK + 1, ())
    assert np.add.reduce(one, axis=0) != sequential(one)
    shapes = [(r, w) for r in (1, 2) for w in (1, 2, 501)]
    shapes += [(r, c, w) for r in (1, 2) for c in range(1, 6) for w in (1, 2, 501)]
    for shape in shapes:
        if math.prod(shape) == 1:
            continue
        for rows in range(2, _BLOCK + 2):
            block = block_of(rows, shape)
            got = np.empty(shape)
            np.add.reduce(block, 0, None, got)
            assert (got.view(np.int64) == sequential(block).view(np.int64)).all(), (rows, shape)


def test_batched_evaluation_needs_one_shared_degree():
    f = FunctionSpec.builtin("sin15")
    with pytest.raises(ValueError):
        evaluate(f, (StancuParams(10), StancuParams(11, 1.0, 2.0)), 0.3)
    with pytest.raises(ValueError):
        evaluate(f, (), 0.3)


ONE_POINT_FORMS = (float, np.float64, lambda x: np.array([x]), np.array)  # 0-d last


@pytest.mark.parametrize("n", [1, 50, 1000])
def test_one_point_inputs_match_the_grid_path(n):
    # a lone point takes the one-point path in every input form; the grid
    # path at the same x is the reference
    ps = tuple(StancuParams(n, a, b) for a, b in BATCH_PAIRS)
    f = FunctionSpec.builtin("sin15")
    grid = np.concatenate([uniform_grid(101), [1e-9, 0.77, 1.0 - 1e-9]])
    want = evaluate(f, ps, grid).view(np.int64)
    for x, row in zip(grid.tolist(), want):
        for form in ONE_POINT_FORMS:
            assert (evaluate(f, ps, form(x)).view(np.int64) == row).all()
            assert (evaluate(f, ps[1], form(x)).view(np.int64) == row[1]).all()
        assert np.float64(apply_operator(f, ps[1], x)).view(np.int64) == row[1]


# grids of one half only, halves of unequal size, and endpoints
ONE_STREAM_GRIDS = (uniform_grid(1001, 1, 501), uniform_grid(1001, 501, 1000),
                    np.array([0.1, 0.2, 0.3, 0.8]), np.array([0.6, 0.4, 0.9, 0.95, 0.2]),
                    np.array([0.0, 1.0]), np.array([1.0, 0.25, 0.0]), np.array([0.5, 1.0]))


@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 50, 1000])
def test_every_grid_matches_the_one_point_path(n, count):
    # a grid's non-empty halves are the rows of one stream; each column must
    # equal a per-point evaluation at the same x
    ps = tuple(StancuParams(n, a, b) for a, b in BATCH_PAIRS + ((17.0, 100.0),))[:count]
    p = ps[0] if count == 1 else ps
    f = FunctionSpec.builtin("sin15")
    for xs in ONE_STREAM_GRIDS:
        got = evaluate(f, p, xs).reshape(xs.size, -1).view(np.int64)
        for x, row in zip(xs.tolist(), got):
            assert (evaluate(f, p, x).reshape(-1).view(np.int64) == row).all()


CUT_POINTS = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@given(data=st.data(), n=st.sampled_from([1, 17, 250]))
@settings(max_examples=60, deadline=None)
def test_grid_in_any_order_matches_the_one_point_path(data, n):
    # a grid is cut at 0, 1/2 and 1 after sorting, and the results are put
    # back in the caller's order; every point must keep its one-point bits
    base = data.draw(st.lists(CUT_POINTS, min_size=1, max_size=150))
    copies = data.draw(st.lists(st.sampled_from(base), min_size=1, max_size=150))
    xs = np.array(data.draw(st.permutations(base + copies)))
    f = FunctionSpec.builtin("sin15")
    three = tuple(StancuParams(n, a, b) for a, b in BATCH_PAIRS[1:])
    for p in (three[0], three):
        want = np.concatenate([evaluate(f, p, x) for x in xs.tolist()])
        assert (evaluate(f, p, xs).view(np.int64) == want.view(np.int64)).all()


def test_one_point_inputs_reject_an_underflowing_degree():
    f = FunctionSpec.builtin("sin15")
    ps = (StancuParams(1023), StancuParams(1023, 20.0, 30.0))
    too_large = "degree n=1023 too large for float64 basis recurrence"
    with pytest.raises(ValueError, match=too_large):
        apply_operator(f, ps[1], 0.5)
    for form in ONE_POINT_FORMS:
        for p in (ps, ps[1]):
            with pytest.raises(ValueError, match=too_large):
                evaluate(f, p, form(0.5))


ANY_FLOAT = st.floats(0.0, sys.float_info.max)  # subnormals and ~1e308 included


@given(n=st.integers(1, 2000) | st.sampled_from([10**4, 10**5, 10**6]),
       shifts=st.lists(ANY_FLOAT, min_size=2, max_size=2).map(sorted))
@example(n=1, shifts=[5e-324, 5e-324])
@example(n=2000, shifts=[sys.float_info.max, sys.float_info.max])
@example(n=10**6, shifts=[1e308, sys.float_info.max])
@example(n=7, shifts=[0.0, 5e-324])
@example(n=5, shifts=[2**70, 2**71])  # ints past float64's 2**53, converted on construction
@settings(max_examples=200, deadline=None)
def test_node_values_are_finite_and_lie_in_the_unit_interval(n, shifts):
    # evaluate samples a FunctionSpec at node_values() without a range
    # check; this is the premise that makes the check redundant
    t = StancuParams(n, *shifts).node_values()
    assert np.isfinite(t).all() and t.min() >= 0.0 and t.max() <= 1.0


TABULATED = FunctionSpec.tabulated("walk", np.linspace(0.0, 1.0, 9), np.cos(np.arange(9.0)))
SIN15 = FunctionSpec.builtin("sin15")


@pytest.mark.parametrize("f", [FunctionSpec.builtin(name) for name in BUILTIN_FUNCTIONS]
                         + [TABULATED], ids=lambda f: f.name)
@given(n=st.integers(1, 300), shifts=st.lists(ANY_FLOAT, min_size=2, max_size=2).map(sorted))
@settings(max_examples=25, deadline=None)
def test_unchecked_sampling_matches_the_checked_call(f, n, shifts):
    # the unchecked node sampler gives the same bits as calling the spec,
    # also for Fraction shifts, converted to floats on construction
    for p in (StancuParams(n, *shifts), StancuParams(n, *map(Fraction, shifts))):
        for xs in (uniform_grid(33), 0.3, 0.77):
            want = evaluate(lambda t: f(t), p, xs).view(np.int64)
            assert (evaluate(f, p, xs).view(np.int64) == want).all()


NODE_SHIFTS = ((0.0, 0.0), (20.0, 30.0), (4.7, 10.0), (Fraction(1, 3), Fraction(7, 2)))


@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("shifts", NODE_SHIFTS, ids=str)
def test_node_table_is_built_once_and_read_only(n, shifts):
    p = StancuParams(n, *shifts)
    t = p.node_values()
    assert p.node_values() is t
    with pytest.raises(ValueError, match="read-only"):
        t[0] = 0.5
    # Fraction shifts become the nearest floats: one float table for every input
    want = (np.arange(n + 1) + float(shifts[0])) / (n + float(shifts[1]))
    assert t.dtype == float and t.shape == (n + 1,)
    assert (t.view(np.int64) == want.view(np.int64)).all()


def test_every_callable_is_handed_the_one_node_table(monkeypatch):
    p = StancuParams(7, Fraction(1, 3), Fraction(7, 2))
    seen = []

    def f(t):
        seen.append(t)
        return t

    evaluate(f, p, 0.3)
    assert seen[0] is p.node_values() and seen[0].dtype == float
    # a FunctionSpec is sampled at that same table, and its samples are
    # kept: 3 calls sample it once
    spec, sample = FunctionSpec.builtin("e1"), FunctionSpec._sample
    seen.clear()
    monkeypatch.setattr(FunctionSpec, "_sample", lambda self, t: seen.append(t) or sample(self, t))
    for _ in range(3):
        evaluate(spec, p, 0.3)
    assert len(seen) == 1 and seen[0] is p.node_values()


@pytest.mark.parametrize("n, shifts", [
    (50, (20, 30)),
    (7, (Fraction(1, 3), Fraction(7, 2))),
    (10, (np.float32(0.1), np.float32(0.3))),
    (50, (np.float64(4.7), np.float64(10.0))),
    (np.int64(50), (20.0, 30.0)),
], ids=["int", "Fraction", "float32", "float64", "int64-n"])
def test_operators_are_values_of_an_int_and_two_floats(n, shifts):
    # any integer degree and any real shifts are converted on construction:
    # the operator is the one built from the same values as int and floats
    p, q = StancuParams(n, *shifts), StancuParams(int(n), *map(float, shifts))
    assert (type(p.n), type(p.alpha), type(p.beta)) == (int, float, float)
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert p.node_values().dtype == float
    assert p.node_values().tobytes() == q.node_values().tobytes()
    bound = p.displacement_bound()
    assert type(bound) is float and bound.hex() == q.displacement_bound().hex()
    for f in (SIN15, TABULATED):
        for xs in (uniform_grid(33), 0.3, 0.77):
            assert evaluate(f, p, xs).tobytes() == evaluate(f, q, xs).tobytes()


@pytest.mark.parametrize("shifts", [
    ("1", "2"),
    (10**400, 10**401),
    (1j, 2),
    (None, 1),
], ids=["str", "overflow", "complex", "None"])
def test_shifts_must_be_reals_within_the_float_range(shifts):
    # a string is not read as a number, and neither OverflowError nor TypeError escapes
    with pytest.raises(ValueError, match="shift parameters must be finite"):
        StancuParams(5, *shifts)


def test_node_table_leaves_equality_hash_and_repr_alone():
    fresh, used = StancuParams(50, 20.0, 30.0), StancuParams(50, 20.0, 30.0)
    before = (repr(used), hash(used))
    evaluate(SIN15, used, 0.3)
    assert used._sampled(SIN15) is used._sampled(SIN15)  # the sample memo is in use
    assert used == fresh and (repr(used), hash(used)) == before == (repr(fresh), hash(fresh))
    assert [fld.name for fld in dataclasses.fields(used)] == ["n", "alpha", "beta"]
    copy = dataclasses.replace(used)
    assert copy == used and copy.node_values() is not used.node_values()
    assert "_memo" not in vars(copy)
    moved = dataclasses.replace(used, alpha=25.0)
    assert moved.node_values()[0] == 25.0 / 80.0 != used.node_values()[0]
    # the tabulated knots are not compared either
    walk = FunctionSpec.tabulated("walk", np.linspace(0.0, 1.0, 9), np.cos(np.arange(9.0)))
    assert walk == TABULATED and hash(walk) == hash(TABULATED)


@pytest.mark.parametrize("shifts", NODE_SHIFTS[1:], ids=str)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_build_their_own_read_only_table(shifts, clone):
    p = StancuParams(7, *shifts)
    t = p.node_values()
    q = clone(p)
    assert q == p and hash(q) == hash(p)
    assert q.node_values().flags.writeable is False
    assert list(q.node_values()) == list(t)
    assert not p.node_values().flags.writeable and p.node_values() is t
    # a used sample memo is not copied either: the copy samples afresh
    fn = p._sampled(SIN15)
    q = clone(p)
    assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
    assert "_memo" not in vars(q)
    assert q._sampled(SIN15) is not fn and q._sampled(SIN15).flags.writeable is False
    assert q._sampled(SIN15).tobytes() == fn.tobytes()
    assert p._sampled(SIN15) is fn


ENDPOINT_PARAMS = ((StancuParams(50, 20.0, 30.0), StancuParams(50), StancuParams(50, 4.7, 10.0)),
                   (StancuParams(7, Fraction(1, 3), Fraction(7, 2)), StancuParams(7, 5.0, 5.0)),
                   (StancuParams(1000, 470.0, 1000.0),))


@pytest.mark.parametrize("f", [FunctionSpec.builtin(name) for name in BUILTIN_FUNCTIONS]
                         + [TABULATED], ids=lambda f: f.name)
@pytest.mark.parametrize("ps", ENDPOINT_PARAMS, ids=lambda ps: f"n{ps[0].n}")
def test_endpoints_sample_one_node_bit_for_bit(f, ps):
    # a lone endpoint reads node 0 or node n of the operator's kept samples;
    # the value must be that of the grid path and of sampling every node
    for x, end in ((0.0, 0), (-0.0, 0), (1.0, -1)):
        grid = evaluate(f, ps, np.array([x, 0.5]))[0].view(np.int64)
        full = np.array([f(q.node_values())[end] for q in ps]).view(np.int64)
        assert (grid == full).all()
        assert (evaluate(f, ps, x)[0].view(np.int64) == full).all()
        for q, bits in zip(ps, full):
            assert np.float64(apply_operator(f, q, x)).view(np.int64) == bits
            assert (evaluate(f, q, x).view(np.int64) == bits).all()


def test_repeated_calls_sample_a_spec_once_per_operator(monkeypatch):
    calls = []
    sample = FunctionSpec._sample
    monkeypatch.setattr(FunctionSpec, "_sample",
                        lambda self, t: calls.append(self.name) or sample(self, t))
    p, q = StancuParams(50, 20.0, 30.0), StancuParams(50)
    for x in (0.3, 0.0, 1.0, 0.77, 0.3):
        apply_operator(SIN15, p, x)
    evaluate(SIN15, p, uniform_grid(11))
    evaluate(SIN15, (p, q), 0.4)
    assert calls == ["sin15", "sin15"]  # once for p, once for q
    # alternating two specs resamples each time: one table per operator
    calls.clear()
    for _ in range(3):
        apply_operator(TABULATED, p, 0.3)
        apply_operator(SIN15, p, 0.3)
    assert calls == ["walk", "sin15"] * 3
    # an equal spec that is another object is sampled again
    calls.clear()
    apply_operator(FunctionSpec.builtin("sin15"), p, 0.3)
    assert calls == ["sin15"]


def test_kept_samples_are_read_only():
    p = StancuParams(7, Fraction(1, 3), Fraction(7, 2))
    fn = p._sampled(TABULATED)
    assert fn.dtype == float and fn.shape == (8,)
    with pytest.raises(ValueError, match="read-only"):
        fn[0] = 0.5
    assert p._sampled(TABULATED) is fn
    # the results handed back are new arrays, free to write
    for xs in (0.0, 1.0, 0.3, uniform_grid(5)):
        out = evaluate(TABULATED, p, xs)
        assert out.flags.writeable and not np.shares_memory(out, fn)
        out[...] = 7.0
    assert (fn == TABULATED(p.node_values())).all()


def test_kept_samples_are_keyed_by_identity_not_equality():
    # == equates a table of -0.0 samples with one of +0.0 samples, but the
    # operator's value at x = 0 keeps its sign
    pos = FunctionSpec.tabulated("z", [0.0, 1.0], [0.0, 0.0])
    neg = FunctionSpec.tabulated("z", [0.0, 1.0], [-0.0, -0.0])
    assert pos == neg
    p = StancuParams(4)
    for _ in range(2):
        for f, sign in ((neg, -1.0), (pos, 1.0)):
            value = apply_operator(f, p, 0.0)
            assert value == 0.0 and math.copysign(1.0, value) == sign
            fresh = apply_operator(f, StancuParams(4), 0.0)
            assert math.copysign(1.0, fresh) == sign


@pytest.mark.parametrize("f", [FunctionSpec.builtin(name) for name in BUILTIN_FUNCTIONS]
                         + [TABULATED], ids=lambda f: f.name)
@pytest.mark.parametrize("n", [1, 7, 50, 1000])
@pytest.mark.parametrize("shifts", [(20.0, 30.0), (Fraction(1, 3), Fraction(7, 2))], ids=str)
def test_warm_values_equal_cold_values_bit_for_bit(f, n, shifts):
    points = [0.0, -0.0, 1.0, *uniform_grid(7)[1:-1]]
    warm = StancuParams(n, *shifts)
    evaluate(f, warm, 0.3)
    grid = np.array(points)
    for x in points:
        cold = evaluate(f, StancuParams(n, *shifts), x).view(np.int64)
        assert (evaluate(f, warm, x).view(np.int64) == cold).all()
    cold = evaluate(f, StancuParams(n, *shifts), grid).view(np.int64)
    assert (evaluate(f, warm, grid).view(np.int64) == cold).all()
    pair = (warm, StancuParams(n))
    cold = evaluate(f, (StancuParams(n, *shifts), StancuParams(n)), grid).view(np.int64)
    assert (evaluate(f, pair, grid).view(np.int64) == cold).all()


@pytest.mark.parametrize("x", [0.0, -0.0, 1.0])
def test_other_callables_see_every_node_at_the_endpoints(x):
    sizes = []

    def onehot(t):
        sizes.append(t.size)
        return np.eye(t.size)[3]

    p = StancuParams(10, 1.0, 2.0)
    assert evaluate(onehot, p, x)[0] == 0.0
    assert evaluate(onehot, (p, StancuParams(10)), x).tolist() == [[0.0, 0.0]]
    assert sizes == [11, 11, 11]
    assert evaluate(lambda t: np.eye(t.size), p, x)[0, 0 if x == 0.0 else 10] == 1.0


def test_curve_memory_does_not_grow_with_degree():
    # the basis is streamed, never held as an (n+1) x grid array (that
    # would be 160 MB here)
    f = FunctionSpec.builtin("sin15")
    tracemalloc.start()
    try:
        apply_operator_curve(f, StancuParams(1000, 20.0, 30.0), 20001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_block_buffers_stay_within_their_budget(monkeypatch):
    # the five-operator stream on grid 1001 fits _BLOCK steps of buffers in
    # _BLOCK_BYTES; four operators on grid 20001 do not, so each of their
    # blocks is one step. Each stream's block length is recorded from the
    # kernel's own call of _block_steps.
    steps = []

    def recorded(*args):
        steps.append(_block_steps(*args))
        return steps[-1]

    monkeypatch.setattr(operators, "_block_steps", recorded)
    f = FunctionSpec.builtin("sin15")
    for n, pairs, size, want in ((100, T4_LEVELS, 1001, _BLOCK), (1000, BATCH_PAIRS, 20001, 1)):
        ps = tuple(StancuParams(n, a, b) for a, b in pairs)
        xs = uniform_grid(size)
        out = evaluate(f, ps, xs)  # the operators keep their samples
        steps.clear()
        tracemalloc.start()
        try:
            evaluate(f, ps, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps == [want]
        # block buffers: at most _BLOCK_BYTES, or one output-sized term row
        # (b itself is the basis row); output-sized: the result, the running
        # sum and |sum| in the stop test; per point, at most ten floats (u,
        # 1 - u, b, r, each half's points, the stop test's temporaries) and
        # the masks
        buffers = _BLOCK_BYTES if want > 1 else out.nbytes
        assert peak < buffers + 3 * out.nbytes + 10 * xs.nbytes


def test_curve_validation():
    f = FunctionSpec.builtin("e0")
    with pytest.raises(ValueError):
        apply_operator_curve(f, StancuParams(3), 1)


@pytest.mark.parametrize("size", [2, 3, 101, 1001, 4097, 10001, 50001])
def test_uniform_grid_is_linspace_bit_for_bit(size):
    # the full grid and every 4096-point block, compared as int64 bits
    want = np.linspace(0.0, 1.0, size).view(np.int64)
    assert np.array_equal(uniform_grid(size).view(np.int64), want)
    for start in range(0, size, 4096):
        block = uniform_grid(size, start, start + 4096)
        assert np.array_equal(block.view(np.int64), want[start:start + 4096])


@pytest.mark.parametrize("size", [0, 1, -3, 2.5, True])
def test_uniform_grid_rejects_sizes_below_two_and_non_integers(size):
    with pytest.raises(ValueError, match="grid size"):
        uniform_grid(size)


# -------------------------------------------------------------- moments


def test_moment_closed_forms_trivial_cases():
    p = StancuParams(17, 3.0, 9.0)
    assert moment_closed_form(0, p, 0.77) == 1.0
    plain = StancuParams(6)
    for x in (0.0, 0.25, 1.0):
        assert moment_closed_form(1, plain, x) == pytest.approx(x, abs=1e-15)
    assert moment_closed_form(2, StancuParams(4), 0.5) == pytest.approx(0.3125, abs=1e-15)


def test_moments_match_operator_on_random_sweep():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 501))
        b = rng.uniform(0.0, 1000.0)
        p = StancuParams(n, rng.uniform(0.0, b), b)
        x = float(rng.choice(np.linspace(0.0, 1.0, 101)))
        for i, name in enumerate(("e0", "e1", "e2")):
            got = apply_operator(FunctionSpec.builtin(name), p, x)
            want = moment_closed_form(i, p, x)
            worst = max(worst, abs(got - want))
    assert worst <= 1e-10


def test_moment_rejects_bad_index():
    # the index follows the StancuParams rule for n: an integer, not a bool
    for i in (3, -1, True, False, 1.0, 2.0, np.float64(0.0)):
        with pytest.raises(ValueError, match="moment index must be 0, 1 or 2"):
            moment_closed_form(i, StancuParams(4), 0.5)
    assert moment_closed_form(np.int64(1), StancuParams(4), 0.5) == 0.5


# ---------------------------------------------------- specs and params


def test_builtin_functions_evaluate():
    assert FunctionSpec.builtin("sin15")(0.5) == pytest.approx(math.sin(7.5), abs=1e-15)
    assert FunctionSpec.builtin("abshalf")(0.1) == pytest.approx(0.4, abs=1e-15)
    assert FunctionSpec.builtin("e2")(0.3) == pytest.approx(0.09, abs=1e-15)
    arr = FunctionSpec.builtin("e0")(np.linspace(0, 1, 5))
    np.testing.assert_array_equal(arr, np.ones(5))


def test_tabulated_interpolates_linearly():
    f = FunctionSpec.tabulated("hat", [0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert f(0.25) == pytest.approx(0.5, abs=1e-15)
    assert f(0.5) == 1.0
    assert f(1.0) == 0.0


def test_function_spec_validation():
    with pytest.raises(ValueError):
        FunctionSpec.builtin("sin16")
    with pytest.raises(ValueError):
        FunctionSpec.tabulated("t", [0.0], [1.0])
    with pytest.raises(ValueError):
        FunctionSpec.tabulated("t", [0.0, 0.4], [1.0, 2.0])  # must end at 1
    with pytest.raises(ValueError):
        FunctionSpec.tabulated("t", [0.1, 1.0], [1.0, 2.0])  # must start at 0
    with pytest.raises(ValueError):
        FunctionSpec.tabulated("t", [0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        FunctionSpec.builtin("e1")(1.0001)
    with pytest.raises(ValueError):
        FunctionSpec.builtin("e1")(np.array([0.5, -0.2]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_points_outside_the_unit_interval_are_rejected(bad):
    # NaN and +-inf fail the range check alone, as a scalar or in an array
    f, p = FunctionSpec.builtin("sin15"), StancuParams(50, 20.0, 30.0)
    outside = r"must lie in \[0, 1\]"
    with pytest.raises(ValueError, match=outside):
        apply_operator(f, p, bad)  # takes one float
    for take in (lambda x: evaluate(f, p, x), f, lambda x: moment_closed_form(2, p, x)):
        for x in (bad, np.array([0.2, bad, 0.7])):
            with pytest.raises(ValueError, match=outside):
                take(x)
        with pytest.raises(ValueError, match="is empty"):
            take(np.array([]))


def test_params_validation():
    with pytest.raises(ValueError):
        StancuParams(0)
    with pytest.raises(ValueError):
        StancuParams(3, 2.0, 1.0)
    with pytest.raises(ValueError):
        StancuParams(3, -0.5, 1.0)
    with pytest.raises(ValueError):
        StancuParams(3, 0.0, math.inf)
    with pytest.raises(ValueError):
        StancuParams(2.5, 0.0, 0.0)
