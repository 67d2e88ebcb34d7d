"""Figure and eval output against the per-value scalar formulas.

Every CSV cell must be ``repr(float(v))`` of the recomputed value, and
every SVG point the scalar chart formula applied to the CSV values. The
expectations are recomputed on the machine that runs the test, so no
hash is pinned: ``np.sin`` may differ in the last bit across CPUs, but
the formatting and the chart arithmetic must not.
"""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stancu_lab import (FunctionSpec, RatioFamily, StancuParams, apply_operator_curve, figures,
                        operators,
                        corollary2_bound, evaluate, sup_error_and_distance, svg,
                        theorem4_experiment)
from stancu_lab.cli import main
from stancu_lab.figures import FIGURES, build_figure, csv_rows, with_overrides
from stancu_lab.nodes import node_table


def run_figure(capsys, tmp_path, case):
    """Run ``figure <case>``, e.g. ``"f3 --n 100"``; return its job and file texts."""
    fid, *extra = case.split()
    assert main(["figure", fid, *extra, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    opts = dict(zip(extra[::2], map(int, extra[1::2])))
    job = with_overrides(FIGURES[fid], n=opts.get("--n"), grid_size=opts.get("--grid"))
    return job, (tmp_path / f"{fid}.csv").read_text(), (tmp_path / f"{fid}.svg").read_text()


def data_rows(csv_text):
    return [line.split(",") for line in csv_text.splitlines()[1:]]


def assert_cells(rows, cols):
    assert len(rows) == len(cols[0])
    for j, row in enumerate(rows):
        assert row == [repr(float(c[j])) for c in cols], f"row {j}"


def scalar_polylines(xs, series):
    """``svg.line_chart``'s points, one value at a time, or None where the
    padded y range is not positive and finite."""
    lo = min(min(ys) for ys in series)
    hi = max(max(ys) for ys in series)
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    if not 0.0 < hi - lo < math.inf:
        return None

    def fy(y):
        return svg._BOTTOM - (y - lo) / (hi - lo) * (svg._BOTTOM - svg._TOP)

    return [
        " ".join(f"{svg._num(svg._fx(x))},{svg._num(fy(y))}" for x, y in zip(xs, ys))
        for ys in series
    ]


@pytest.mark.parametrize("fid", ["f1", "f2", "f6", "f7", "f8", "f10", "f10 --grid 2001"])
def test_curve_figure_cells_and_points(capsys, tmp_path, fid):
    job, csv_text, svg_text = run_figure(capsys, tmp_path, fid)
    f = FunctionSpec.builtin("sin15")  # every curve preset samples sin(15x)
    assert f">{job.figure_id}: sin15, n={job.n}</text>" in svg_text
    grid = np.linspace(0.0, 1.0, job.grid_size)
    cols = [grid, f(grid)] + [
        apply_operator_curve(f, StancuParams(job.n, a, b), job.grid_size).values
        for a, b in ((0.0, 0.0),) + job.pairs
    ]
    rows = data_rows(csv_text)
    assert_cells(rows, cols)
    values = [[float(v) for v in col] for col in zip(*rows)]
    points = re.findall(r'<polyline points="([^"]*)"', svg_text)
    assert points == scalar_polylines(values[0], values[1:])


@pytest.mark.parametrize(
    "fid", ["f3", "f4", "f5", "f9", "f3 --n 100", "f4 --n 100", "f5 --n 100"]
)
def test_node_figure_cells_and_markers(capsys, tmp_path, fid):
    job, csv_text, svg_text = run_figure(capsys, tmp_path, fid)
    plain = StancuParams(job.n).node_values()
    families = [plain] + [StancuParams(job.n, a, b).node_values() for a, b in job.pairs]
    offset = 0 if len(job.pairs) == 1 else 2
    rows = data_rows(csv_text)
    block = job.n + 1
    for i, shifted in enumerate(families[1:]):
        a, b = job.pairs[i]
        m = a / b
        chunk = rows[i * block : (i + 1) * block]
        assert [row[offset] for row in chunk] == [str(k) for k in range(block)]
        assert_cells([row[offset + 1 :] for row in chunk],
                     [plain, shifted, shifted - plain, np.abs(plain - m), np.abs(shifted - m)])
    cx = re.findall(r'<circle cx="([^"]*)"', svg_text)
    assert cx == [svg._num(svg._fx(x)) for fam in families for x in fam.tolist()]


def test_curve_figures_in_one_process_share_one_read_only_grid(monkeypatch):
    # f6, f7, f8 and f10 (n = 100, grid 1001) drawn in one process, as
    # reproduce_figures.py draws them: grid 1001 is prepared once, f6 records
    # n = 100, f7 keeps its rows and f8 and f10 read them; every figure's bytes
    # equal a build over a fresh, writable grid, which keeps no rows
    prepared = []
    check = operators._as_unit_interval

    def recorded(x, what="x"):
        if what == "x":  # evaluate's grid check, not the sampling of f
            prepared.append(np.size(x))
        return check(x, what)

    monkeypatch.setattr(operators, "_as_unit_interval", recorded)
    operators._grid = (lambda: None, b"", None)
    jobs = [FIGURES[fid] for fid in ("f6", "f7", "f8", "f10")]
    shared = [[text.encode() for text in build_figure(job)] for job in jobs]
    assert prepared == [1001]
    grid = operators._shared_grid(1001)
    assert operators._grid[0]() is grid and list(operators._grid[2][-1]) == [100]
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[1] = 0.5
    monkeypatch.setattr(figures, "_shared_grid", operators.uniform_grid)
    for job, want in zip(jobs, shared):
        assert [text.encode() for text in build_figure(job)] == want
    assert prepared == [1001] * 5


@pytest.mark.parametrize("fid,argv", [
    ("f1", "eval --function sin15 --n 50 --alpha 20 --beta 30 --grid 1001"),
    ("f3", "nodes --n 25 --alpha 17 --beta 100"),
])
def test_figure_csv_equals_the_matching_command(capsys, tmp_path, fid, argv):
    run_figure(capsys, tmp_path, fid)
    assert main(argv.split()) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / f"{fid}.csv").read_bytes()


@pytest.mark.parametrize("grid", [11, 4097])  # 4097: eval formats blocks of 4096 points
def test_eval_grid_cells(capsys, grid):
    p = StancuParams(250, 20.0, 30.0)
    assert main(["eval", "--n", "250", "--alpha", "20", "--beta", "30", "--grid", str(grid)]) == 0
    out = capsys.readouterr().out
    f = FunctionSpec.builtin("sin15")
    xs = np.linspace(0.0, 1.0, grid)
    cols = [xs, f(xs), evaluate(f, StancuParams(250), xs), evaluate(f, p, xs)]
    assert_cells(data_rows(out), cols)


def assert_int_led(csv_text, ints, cols):
    """Each row is ``str(int)`` of its int, then ``repr`` of each float."""
    rows = data_rows(csv_text)
    assert [row[0] for row in rows] == [str(int(k)) for k in ints]
    assert_cells([row[1:] for row in rows], cols)


@pytest.mark.parametrize("shift", [("20", "30"), ("1e300", "1e301")])
def test_check_t1_cells(capsys, shift):
    degrees = [25, 50, 100, 250]
    argv = ["check", "t1", "--alpha", shift[0], "--beta", shift[1],
            "--n-list", ",".join(map(str, degrees))]
    assert main(argv) == 0
    ps = [StancuParams(n, *map(float, shift)) for n in degrees]
    max_gaps = [np.abs(node_table(p)[2]).max() for p in ps]
    assert_int_led(capsys.readouterr().out.split("t1: ")[0], degrees,
                   [max_gaps, [p.displacement_bound() for p in ps]])


def test_check_t3_cells(capsys):
    pairs = [(4.7, 10.0), (47.0, 100.0), (470.0, 1000.0)]
    argv = ["check", "t3", "--n", "100"] + [f"--pair={a},{b}" for a, b in pairs]
    assert main(argv) == 0
    cols = []
    for a, b in pairs:
        nodes = node_table(StancuParams(100, a, b))[1]
        cols += [nodes, np.abs(nodes - pairs[0][0] / pairs[0][1])]
    assert_int_led(capsys.readouterr().out.split("t3: ")[0], range(101), cols)


@pytest.mark.parametrize("function", ["sin15", "e0"])  # e0: exponent cells near 1e-15
def test_check_t4_cells(capsys, function):
    argv = ["check", "t4", "--function", function, "--n", "100", "--alpha", "4.7",
            "--beta", "10", "--scales", "1,10,100"]
    assert main(argv) == 0
    fam = RatioFamily(4.7, 10.0, (1.0, 10.0, 100.0))
    _, alphas, betas, distances, bounds = theorem4_experiment(
        FunctionSpec.builtin(function), 100, fam).columns
    assert (alphas, betas) == tuple(zip(*fam.levels()))
    assert_int_led(capsys.readouterr().out.split("t4: ")[0], range(3),
                   [alphas, betas, distances, bounds])


def test_converge_cells(capsys):
    degrees = [50, 100, 250]
    argv = ["converge", "--function", "sin15", "--alpha", "20", "--beta", "30",
            "--n-list", ",".join(map(str, degrees))]
    assert main(argv) == 0
    f = FunctionSpec.builtin("sin15")
    rows = []
    for n in degrees:
        p = StancuParams(n, 20.0, 30.0)
        rows.append((*sup_error_and_distance(f, p), corollary2_bound(f, p), p.displacement_bound()))
    assert_int_led(capsys.readouterr().out, degrees, list(zip(*rows)))


def repr_rows(cols):
    """The reference CSV text: every cell is ``repr`` of its value as a Python
    number, every row ends in a newline."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in cols]
    return "".join(",".join(map(repr, row)) + "\n" for row in zip(*cols))


# cells the shortest round-trip writer lays out unlike repr (subnormals,
# exponents, positional values below 1e-4) next to cells it lays out alike
EDGE_FLOATS = [5e-324, 1e-4, 9.9e-05, 1e16, 2.0**53 + 2, 1.7976931348623157e308,
               -0.0, 9.547918011776346e-15]
# the ends of the range csv_rows leaves to orjson, [1e-4, 1e16), and their neighbours
RANGE_ENDS = [v for e in (1e-4, 1e16) for s in (1.0, -1.0)
              for v in (math.nextafter(s * e, 0.0), s * e, math.nextafter(s * e, s * math.inf))]
# any 64-bit pattern: subnormals, -0.0, NaN payloads and +-inf included
BIT_FLOATS = st.integers(0, 2**64 - 1).map(lambda u: struct.unpack("<d", struct.pack("<Q", u))[0])


@st.composite
def tables(draw):
    """An optional int column (a range, a list or an int64 array) and 0-4
    columns of any floats (lists or float64 arrays); at least one column."""
    size = draw(st.integers(0, 30))
    cols = []
    form = draw(st.sampled_from(["none", "range", "list", "array"]))
    if form == "range":
        start = draw(st.integers(-(2**63), 2**63))
        cols.append(range(start, start + size))
    elif form != "none":
        top = 2**63 - 1 if form == "array" else 2**63
        ints = draw(st.lists(st.integers(-(2**63), top), min_size=size, max_size=size))
        cols.append(np.array(ints, dtype=np.int64) if form == "array" else ints)
    floats = st.one_of(st.floats(), BIT_FLOATS, st.sampled_from(EDGE_FLOATS + RANGE_ENDS))
    for _ in range(draw(st.integers(0 if cols else 1, 4))):
        col = draw(st.lists(floats, min_size=size, max_size=size))
        cols.append(np.array(col, dtype=float) if draw(st.booleans()) else col)
    return cols


@given(tables())
@example([range(8), EDGE_FLOATS, [-v for v in EDGE_FLOATS]])
@example([range(2), [math.nan, 0.5], [1e-07, -math.inf]])
@example([np.arange(12), np.array(RANGE_ENDS), RANGE_ENDS[::-1]])
@example([[2**63, -(2**63)], np.array([math.nan, -0.0]), [math.inf, 5e-324]])
@example([np.array([-(2**63), 2**63 - 1], dtype=np.int64), np.array([-math.inf, 1e-05])])
@settings(max_examples=300, deadline=None)
def test_csv_rows_equal_repr(cols):
    text = csv_rows(cols)
    assert text == repr_rows(cols)
    assert "np." not in text  # NaN and +-inf print as nan, inf, -inf


def test_csv_rows_of_empty_and_one_column_tables():
    for cols in ([], [[]], [[], range(0)], [np.empty(0)], [range(0), np.empty(0)],
                 [EDGE_FLOATS], [np.array(EDGE_FLOATS)], [range(3)], [[-7, 2**63]],
                 [np.arange(-1, 2)]):
        assert csv_rows(cols) == repr_rows(cols)
    assert csv_rows([np.array([math.nan, math.inf, -math.inf])]) == "nan\ninf\n-inf\n"


@st.composite
def charts(draw):
    """Shared x in [0, 1] and 1-5 finite y-series, some of them constant."""
    size = draw(st.integers(1, 40))
    xs = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    series = st.one_of(
        st.lists(finite, min_size=size, max_size=size),
        finite.map(lambda v: [v] * size),
    )
    return xs, draw(st.lists(series, min_size=1, max_size=5))


@given(charts())
# a constant beyond 2**53 keeps a zero y range; a range beyond the float maximum is inf
@example(([0.0, 1.0], [[9007199254740996.0] * 2]))
@example(([0.0, 1.0], [[-1e308, 1e308]]))
@settings(max_examples=200, deadline=None)
def test_line_chart_points_match_the_scalar_formula(chart):
    xs, series = chart
    expected = scalar_polylines(xs, series)
    args = (xs, series, ["s"] * len(series), ["red"] * len(series), "t")
    if expected is None:
        with pytest.raises(ValueError, match="y range"):
            svg.line_chart(*args)
    else:
        assert re.findall(r'<polyline points="([^"]*)"', svg.line_chart(*args)) == expected


@given(
    st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300), min_size=1, max_size=4),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
)
@settings(max_examples=100, deadline=None)
def test_node_chart_markers_match_the_scalar_formula(families, guide):
    k = len(families)
    text = svg.node_chart(families, ["s"] * k, ["blue"] * k, "t", guide_x=guide)
    rows = [svg._num(svg._BOTTOM - (i + 1) / (k + 1) * (svg._BOTTOM - svg._TOP)) for i in range(k)]
    expected = [(svg._num(svg._fx(x)), cy) for fam, cy in zip(families, rows) for x in fam]
    assert re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', text) == expected


# v = (k + 1/2)/100 lies next to a tie of '%.2f'; fl(100 v) can land on the
# half-integer itself, where rint alone rounds half to even
half_hundredths = st.integers(0, 999_998).map(lambda k: (k + 0.5) / 100)
coordinates = st.one_of(
    half_hundredths,
    half_hundredths.map(lambda v: float(np.nextafter(v, 0.0))),
    half_hundredths.map(lambda v: float(np.nextafter(v, math.inf))),
    st.floats(0.0, 9999.995, exclude_max=True),
    st.sampled_from([0.0, 9999.99, float(np.nextafter(9999.995, 0.0)), 56.125, 0.005]),
)


@given(st.lists(st.tuples(coordinates, st.sampled_from(", \n\t")), max_size=60))
@settings(max_examples=500, deadline=None)
def test_coords_equal_the_scalar_format(cells):
    values = np.array([v for v, _ in cells], dtype=float)
    seps = "".join(s for _, s in cells)
    expected = "".join(f"{v:.2f}{s}" for v, s in cells)[:-1]
    assert svg._coords(values, seps) == expected


# '%.2f' writes -0.0 as '-0.00'; 9999.995 is the first float written 10000.00
@pytest.mark.parametrize("bad", [-0.0, -5e-324, -1.0, 9999.995, 1e4, 1e300,
                                 math.inf, -math.inf, math.nan])
def test_coords_reject_values_outside_their_domain(bad):
    with pytest.raises(ValueError, match="SVG coordinates"):
        svg._coords(np.array([1.0, bad]), "  ")


@pytest.mark.parametrize("x", [-5e-324, -0.5, 1.0000000000000002, 2.0, math.nan, math.inf])
def test_charts_reject_positions_outside_the_unit_interval(x):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        svg.line_chart([0.0, x], [[0.0, 1.0]], ["s"], ["red"], "t")
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        svg.node_chart([[0.5], [0.5, x]], ["s", "s"], ["blue", "red"], "t")
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        svg.node_chart([[0.5]], ["s"], ["blue"], "t", guide_x=x)


def test_near_tie_patch_runs_on_the_f10_grid_2001_positions():
    px = svg._fx(np.linspace(0.0, 1.0, 2001))
    t = px * 100.0
    near = np.abs(t - np.rint(t)) >= 0.5 - svg._TIE_BAND
    # the x of every 10th point sits next to a tie, and rint(fl(100 v)) misses some
    assert near.sum() == 200
    assert any(f"{v:.2f}" != f"{k / 100:.2f}" for v, k in zip(px[near], np.rint(t[near])))
    assert svg._coords(px, " " * px.size) == " ".join(f"{v:.2f}" for v in px.tolist())
