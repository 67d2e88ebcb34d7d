"""CLI surface tests: schemas, exit codes, determinism, output files, closed pipes."""

import io
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stancu_lab
from stancu_lab import StancuParams
from stancu_lab.cli import _BLOCK, _emit, main
from stancu_lab.nodes import node_table


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def module_command(*argv):
    """``python -m stancu_lab`` and the environment of a child that imports
    this same package copy."""
    src = str(Path(stancu_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return [sys.executable, "-m", "stancu_lab", *argv], {**os.environ, "PYTHONPATH": path}


def run_module(*argv):
    cmd, env = module_command(*argv)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def csv_rows(out):
    lines = [ln for ln in out.strip().split("\n") if "," in ln]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ----------------------------------------------------------------- eval


def test_eval_constant_point(capsys):
    rc, out, _ = run(capsys, "eval", "--function", "e0", "--n", "10",
                     "--alpha", "1", "--beta", "2", "--x", "0.3")
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["x", "f", "bernstein", "stancu"]
    assert abs(float(rows[0][3]) - 1.0) <= 1e-12


def test_eval_linear_balanced_point(capsys):
    rc, out, _ = run(capsys, "eval", "--function", "e1", "--n", "10",
                     "--alpha", "1", "--beta", "2", "--x", "0.5")
    assert rc == 0
    _, rows = csv_rows(out)
    assert float(rows[0][3]) == pytest.approx(0.5, abs=1e-12)


def test_eval_grid_mode(capsys):
    argv = ["eval", "--function", "sin15", "--n", "20", "--alpha", "2", "--beta", "5"]
    rc, out, _ = run(capsys, *argv, "--grid", "11")
    assert rc == 0
    _, rows = csv_rows(out)
    assert len(rows) == 11
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0
    # each grid row is byte for byte the row of a single-point evaluation
    for line in out.splitlines()[1:]:
        rc, point_out, _ = run(capsys, *argv, "--x", line.split(",")[0])
        assert rc == 0
        assert point_out.splitlines()[1:] == [line]


def test_eval_rejects_grid_below_two(capsys):
    for grid in ("0", "1", "-3"):
        rc, out, err = run(capsys, "eval", "--n", "5", "--grid", grid)
        assert rc == 2
        assert out == ""
        assert "--grid" in err


def test_eval_memory_does_not_grow_with_the_grid(capsys, tmp_path):
    # points are evaluated, formatted and written one block at a time; the
    # whole CSV held at once would take about 15 MiB here
    target = tmp_path / "eval.csv"
    tracemalloc.start()
    try:
        rc = main(["eval", "--n", "5", "--grid", "50001", "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 4 * 2**20
    with target.open() as fh:
        assert sum(1 for _ in fh) == 50002


@pytest.mark.parametrize("where", ["stdout", "out"])
def test_eval_degree_error_writes_nothing(capsys, tmp_path, where):
    # at n = 1100 the first blocks of this grid evaluate and the block
    # around 1/2 underflows; the error must come before any line
    target = tmp_path / "eval.csv"
    argv = ["eval", "--n", "1100", "--grid", "100001"]
    rc, out, err = run(capsys, *argv, *(["--out", str(target)] if where == "out" else []))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: degree n=1100")
    assert not target.exists()


def test_eval_rejects_swapped_shifts(capsys):
    rc, _, err = run(capsys, "eval", "--function", "e1", "--n", "10",
                     "--alpha", "3", "--beta", "2", "--x", "0.5")
    assert rc == 2
    assert "alpha <= beta" in err


@pytest.mark.parametrize("shift", [("--beta", "inf"), ("--alpha", "nan", "--beta", "1")])
def test_eval_rejects_non_finite_shifts(capsys, shift):
    rc, out, err = run(capsys, "eval", "--n", "5", *shift, "--x", "0.5")
    assert (rc, out) == (2, "")
    assert err == "error: shift parameters must be finite and satisfy 0 <= alpha <= beta\n"


def test_eval_rejects_point_outside_domain(capsys):
    rc, _, err = run(capsys, "eval", "--function", "e1", "--n", "10", "--x", "1.5")
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("x", ["nan", "inf", "-0.5", "1.5"])
def test_eval_bad_point_names_the_flag(capsys, tmp_path, x):
    target = tmp_path / "eval.csv"
    rc, out, err = run(capsys, "eval", "--n", "50", "--x", x, "--out", str(target))
    assert rc == 2
    assert out == ""
    assert err == "error: --x must lie in [0, 1]\n"
    assert not target.exists()


def test_eval_point_is_evaluated_once(capsys, monkeypatch):
    import stancu_lab.figures as figures

    # eval builds its columns with the curve-figure builder
    calls, evaluate = [], figures.evaluate

    def counted(f, ps, xs):
        calls.append(len(xs))
        return evaluate(f, ps, xs)

    monkeypatch.setattr(figures, "evaluate", counted)
    rc, out, _ = run(capsys, "eval", "--n", "50", "--alpha", "20", "--beta", "30", "--x", "0.5")
    assert rc == 0
    assert len(out.splitlines()) == 2
    assert calls == [1]


# ---------------------------------------------------------------- nodes


def test_nodes_plain_family(capsys):
    rc, out, _ = run(capsys, "nodes", "--n", "4")
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["k", "bernstein_node", "stancu_node", "gap",
                      "dist_bern_to_m", "dist_stancu_to_m"]
    assert len(rows) == 5
    for row in rows:
        assert row[1] == row[2]
        assert row[4] == "" and row[5] == ""  # beta = 0: no ratio m


def test_nodes_crossing_row(capsys):
    rc, out, _ = run(capsys, "nodes", "--n", "100", "--alpha", "47", "--beta", "100")
    assert rc == 0
    _, rows = csv_rows(out)
    assert float(rows[47][3]) == 0.0


def test_nodes_shifted_first_node(capsys):
    rc, out, _ = run(capsys, "nodes", "--n", "25", "--alpha", "17", "--beta", "100")
    assert rc == 0
    _, rows = csv_rows(out)
    assert float(rows[0][2]) == pytest.approx(0.136, abs=1e-15)


# ---------------------------------------------------------------- check


def test_check_t1_trivial_and_sweep(capsys):
    rc, out, _ = run(capsys, "check", "t1", "--alpha", "0", "--beta", "0", "--n", "10")
    assert rc == 0
    assert "t1: OK" in out
    rc, out, _ = run(capsys, "check", "t1", "--alpha", "20", "--beta", "30",
                     "--n-list", "25,50,100,250")
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ("check", "t1", "--n-list", "5"),
    ("converge", "--n-list", "5,10", "--function", "e1"),
])
def test_shifts_near_the_float_maximum_keep_a_finite_bound(capsys, argv):
    # alpha + beta overflows; (alpha + beta)/(n + beta) is still 2
    rc, out, _ = run(capsys, *argv, "--alpha", "1e308", "--beta", "1e308")
    assert rc == 0
    header, rows = csv_rows(out)
    column = header.index("bound" if argv[0] == "check" else "t1_bound")
    assert [float(r[column]) for r in rows] == [2.0] * len(rows)


@pytest.mark.parametrize("alpha,beta,degrees", [
    ("1e300", "1e301", "5,10"), ("4.7e16", "1e17", "99,100"), ("1e308", "1e308", "5,6"),
])
def test_check_t1_tied_float_bounds_still_fall(capsys, alpha, beta, degrees):
    # neighbouring float bounds print alike; the exact sequence falls
    rc, out, err = run(capsys, "check", "t1", "--alpha", alpha, "--beta", beta,
                       "--n-list", degrees)
    assert rc == 0 and "t1: OK" in out and err == ""
    _, rows = csv_rows(out)
    assert rows[0][2] == rows[1][2]


def test_check_t1_needs_degrees(capsys):
    proc = run_module("check", "t1", "--alpha", "1", "--beta", "2")
    assert proc.returncode == 2 and "--n" in proc.stderr
    rc, out, err = run(capsys, "check", "t1", "--alpha", "1", "--beta", "2", "--n-list", ",")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "--n-list" in err


def test_check_t2(capsys):
    rc, out, _ = run(capsys, "check", "t2", "--n", "25", "--alpha", "17", "--beta", "100")
    assert rc == 0
    assert "t2: OK" in out
    rc, out, _ = run(capsys, "check", "t2", "--n", "100", "--alpha", "47", "--beta", "100")
    assert rc == 0
    assert "k=47" in out


def test_check_t2_requires_positive_beta(capsys):
    rc, _, err = run(capsys, "check", "t2", "--n", "10", "--alpha", "0", "--beta", "0")
    assert rc == 2


def test_check_t3(capsys):
    rc, out, _ = run(capsys, "check", "t3", "--n", "100",
                     "--pair", "4.7,10", "--pair", "47,100")
    assert rc == 0
    assert "t3: OK" in out


def test_check_t3_ratio_mismatch(capsys):
    rc, _, err = run(capsys, "check", "t3", "--n", "100",
                     "--pair", "4.7,10", "--pair", "48,100")
    assert rc == 2
    assert "ratio" in err


def test_check_t3_columns_come_from_the_node_table(capsys):
    pairs = [(4.7, 10.0), (47.0, 100.0), (470.0, 1000.0)]
    argv = ["check", "t3", "--n", "100"]
    for a, b in pairs:
        argv += ["--pair", f"{a},{b}"]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["k", "node_0", "dist_0", "node_1", "dist_1", "node_2", "dist_2"]
    for i, (a, b) in enumerate(pairs):
        # every distance column is taken to the first pair's m
        nodes = node_table(StancuParams(100, a, b))[1]
        dist = np.abs(nodes - 4.7 / 10.0)
        assert [row[1 + 2 * i] for row in rows] == list(map(repr, nodes.tolist()))
        assert [row[2 + 2 * i] for row in rows] == list(map(repr, dist.tolist()))


def test_check_t3_validates_every_pair_before_writing(capsys):
    for pairs in (("0,0", "0,0"), ("4.7,10", "47,100", "48,100")):
        argv = ["check", "t3", "--n", "10"]
        for pair in pairs:
            argv += ["--pair", pair]
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")


def test_check_t4_bound_and_epsilon(capsys):
    rc, out, _ = run(capsys, "check", "t4", "--function", "sin15", "--n", "100",
                     "--alpha", "4.7", "--beta", "10", "--scales", "1,10,100,1000")
    assert rc == 0
    assert "t4: OK" in out
    # the final distance at these scales is ~0.0545; a 0.01 target must fail
    rc, _, err = run(capsys, "check", "t4", "--function", "sin15", "--n", "100",
                     "--alpha", "4.7", "--beta", "10", "--scales", "1,10,100,1000",
                     "--epsilon", "0.01")
    assert rc == 1
    assert "epsilon" in err


@pytest.mark.parametrize("flag,value", [
    ("--epsilon", "nan"), ("--epsilon", "0"), ("--epsilon", "-0.5"), ("--epsilon", "inf"),
    ("--scales", "1,nan"), ("--scales", "1,inf"), ("--scales", "nan"), ("--n", "0"),
])
def test_check_t4_rejects_invalid_input(capsys, flag, value):
    rc, out, err = run(capsys, "check", "t4", "--n", "10", "--alpha", "1", "--beta", "2",
                       flag, value)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_check_t4_names_an_overflowing_scale(capsys):
    rc, out, err = run(capsys, "check", "t4", "--n", "10", "--alpha", "1", "--beta", "2",
                       "--scales", "1e308,1.7e308")
    assert rc == 2
    assert out == ""
    assert err == "error: scale factor 1e+308 overflows the pair to (1e+308, inf)\n"


def test_check_t4_failing_level_uses_the_bound_tolerance(capsys, monkeypatch):
    import stancu_lab.bounds as bounds
    import stancu_lab.nodes as nodes

    # each check applies its tolerance once, in its flag array, and its FAIL
    # line names the first entry that breaks it. A tolerance moved below the
    # margin of the second entry, and above that of the first, fails only
    # the second: t4 margins 0.82 and 0.10, t1 0.17 and 0.09.
    monkeypatch.setattr(bounds, "NOISE_FLOOR", -0.5)
    rc, out, err = run(capsys, "check", "t4", "--function", "sin15", "--n", "10",
                       "--alpha", "1", "--beta", "2", "--scales", "1,10")
    assert (rc, err) == (1, "t4: FAIL at level 1: distance exceeds its bound\n")
    assert out.startswith("level,alpha,beta,distance,bound\n0,1.0,2.0,")

    # t1 and t2 take their tolerance from the rounding allowance alone
    monkeypatch.setattr(nodes, "_allowance", lambda count, v: -0.1)
    rc, out, err = run(capsys, "check", "t1", "--n-list", "10,20", "--alpha", "1", "--beta", "2")
    assert (rc, err) == (1, "t1: FAIL at n=20: max_gap exceeds bound\n")
    assert out.startswith("n,max_gap,bound\n10,")

    # node k lies 0.08, 0.07, 0.05, 0.03, 0.017 inside its interval for
    # k = 0..4: a tolerance of -0.02 fails k = 4 first
    monkeypatch.setattr(nodes, "_allowance", lambda count, v: -0.02)
    rc, out, err = run(capsys, "check", "t2", "--n", "10", "--alpha", "1", "--beta", "2")
    assert (rc, err) == (1, "t2: FAIL at k=4\n")
    monkeypatch.undo()
    assert out == run(capsys, "nodes", "--n", "10", "--alpha", "1", "--beta", "2")[1]


def test_check_t3_names_the_pair_of_a_chain_that_breaks(capsys):
    # the first link nests; in the second, beta = 1e16 swamps n = 100 and the
    # nodes collapse onto 0.3333333333333, 3.3e-14 below m = 1/3: far beyond
    # rounding, so node 34, the first above m, is not between m and node_1
    pairs = ("1,3", "10,30", "3.333333333333e15,1e16")
    argv = ["check", "t3", "--n", "100"]
    for pair in pairs:
        argv += ["--pair", pair]
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert err == "t3: FAIL for pairs (10.0,30.0) -> (3333333333333000.0,1e+16) at k=34\n"
    header, rows = csv_rows(out)
    assert header == ["k", "node_0", "dist_0", "node_1", "dist_1", "node_2", "dist_2"]
    assert [row[0] for row in rows] == [str(k) for k in range(101)]
    rc, _, err = run(capsys, *argv[:-2])
    assert (rc, err) == (0, "")


# the README presets and the console-step checks, each with its whole status
# line; converge prints none
STATUS_LINES = [
    (("check", "t1", "--alpha", "20", "--beta", "30", "--n-list", "25,50,100,250"), "t1: OK"),
    (("check", "t2", "--n", "100", "--alpha", "47", "--beta", "100"),
     "t2: OK (contraction 0.5, crossings at k=47)"),
    (("check", "t2", "--n", "100", "--alpha", "4.7", "--beta", "10"),
     "t2: OK (contraction 0.9090909090909091, crossings at k=47)"),
    (("check", "t2", "--n", "25", "--alpha", "17", "--beta", "100"),
     "t2: OK (contraction 0.2, crossings at k=none)"),
    (("check", "t3", "--n", "100", "--pair", "4.7,10", "--pair", "47,100", "--pair", "470,1000"),
     "t3: OK (m=0.47000000000000003)"),
    # the float nodes move by less than their rounding; the crossings are the
    # plain nodes at m, not the gaps below 1e-12 (all of them at 1e-13, 1e-12)
    (("check", "t2", "--n", "100", "--alpha", "4.7e16", "--beta", "1e17"),
     "t2: OK (contraction 9.99999999999999e-16, crossings at k=47)"),
    (("check", "t2", "--n", "10", "--alpha", "1e-320", "--beta", "1e-310"),
     "t2: OK (contraction 1.0, crossings at k=none)"),
    (("check", "t3", "--n", "100", "--pair", "4.7e15,1e16", "--pair", "4.7e16,1e17"),
     "t3: OK (m=0.47)"),
    (("check", "t2", "--n", "10", "--alpha", "1e-13", "--beta", "1e-12"),
     "t2: OK (contraction 0.9999999999999, crossings at k=1)"),
    (("check", "t4", "--function", "sin15", "--n", "100", "--alpha", "4.7", "--beta", "10",
      "--scales", "1,10,100,1000", "--epsilon", "0.3"),
     "t4: OK (final distance 0.05447622394157359 at f(m)=0.6938449449297643)"),
    (("check", "t4", "--function", "e0", "--n", "100", "--alpha", "4.7", "--beta", "10",
      "--scales", "1,10,100"), "t4: OK (final distance 9.547918011776346e-15 at f(m)=1.0)"),
    (("converge", "--function", "sin15", "--alpha", "20", "--beta", "30",
      "--n-list", "50,100,250"), None),
]


@pytest.mark.parametrize("argv,status", STATUS_LINES)
def test_check_status_line_is_pinned(capsys, argv, status):
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    *table, last = out.splitlines()
    if status is None:
        assert "OK" not in out and last.startswith("250,")
    else:
        assert last == status and all(line.count(",") for line in table)


def test_check_t2_names_the_node_that_breaks_the_sign_pattern(capsys, monkeypatch):
    # with alpha and beta swapped in the node formula, (k + 2)/11 overshoots
    # m = 1/2 first at node 4. Stdout is the node table.
    monkeypatch.setattr(StancuParams, "node_values",
                        lambda p: (np.arange(p.n + 1) + p.beta) / (p.n + p.alpha))
    argv = ("--n", "10", "--alpha", "1", "--beta", "2")
    rc, out, err = run(capsys, "check", "t2", *argv)
    assert rc == 1
    assert err == "t2: FAIL at k=4\n"
    assert out == run(capsys, "nodes", *argv)[1]


@pytest.mark.parametrize("argv", [
    ("eval", "--n", "5", "--x", "0.5"),
    ("nodes", "--n", "5"),
    ("check", "t1", "--n", "10"),
    ("check", "t2", "--n", "25", "--alpha", "17", "--beta", "100"),
    ("check", "t3", "--n", "10", "--pair", "1,2", "--pair", "2,4"),
    ("check", "t4", "--n", "10", "--alpha", "1", "--beta", "2"),
    ("converge", "--n-list", "5,10"),
], ids=["eval", "nodes", "t1", "t2", "t3", "t4", "converge"])
def test_out_to_missing_directory_is_a_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.csv"
    rc, out, err = run(capsys, *argv, "--out", str(target))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: cannot write ")
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", [
    ("nodes", "--n", "1000000000000000"),
    ("eval", "--n", "1000000000000000", "--x", "0.5"),
    ("check", "t1", "--n-list", "5,1000000000000000"),
], ids=["nodes", "eval-x", "t1"])
def test_degree_too_large_to_allocate_is_a_usage_error(capsys, tmp_path, argv):
    # a 7 PiB node table is refused at once, before --out is opened
    target = tmp_path / "x.csv"
    rc, out, err = run(capsys, *argv, "--out", str(target))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "allocate" in err
    assert not target.exists()


@pytest.mark.parametrize("flag,argv", [
    ("--alpha", ("check", "t3", "--n", "10", "--pair", "1,2", "--pair", "2,4",
                 "--alpha", "5", "--beta", "1")),
    ("--n-list", ("check", "t1", "--n", "10", "--n-list", "25,50")),
    ("--function", ("check", "t1", "--n", "10", "--function", "e2")),
    ("--epsilon", ("check", "t2", "--n", "10", "--alpha", "1", "--beta", "2",
                   "--epsilon", "-1")),
    ("--grid", ("eval", "--n", "5", "--x", "0.5", "--grid", "1")),
    ("--grid", ("eval", "--n", "5", "--x", "0.5", "--grid", "101")),
    ("--pair", ("check", "t4", "--n", "10", "--alpha", "1", "--beta", "2", "--pair", "1,2")),
], ids=["t3-shifts", "t1-both-degrees", "t1-function", "t2-epsilon", "eval-x-grid",
        "eval-x-default-grid", "t4-pair"])
def test_flag_the_command_does_not_read_is_a_usage_error(flag, argv):
    # argparse exits in process, so each argv runs in a child
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert flag in proc.stderr.splitlines()[-1]


# --------------------------------------------------------------- figure


def test_figure_presets_round_trip():
    from stancu_lab.figures import FIGURES, build_figure

    assert (FIGURES["f1"].kind, FIGURES["f1"].n, FIGURES["f1"].pairs) == (
        "curve", 50, ((20.0, 30.0),))
    assert FIGURES["f2"].n == 250
    for fid, alpha in (("f3", 17.0), ("f4", 47.0), ("f5", 77.0)):
        assert FIGURES[fid].kind == "nodes"
        assert (FIGURES[fid].n, FIGURES[fid].pairs) == (25, ((alpha, 100.0),))
    for fid, alpha in (("f6", 17.0), ("f7", 47.0), ("f8", 77.0)):
        assert (FIGURES[fid].n, FIGURES[fid].pairs) == (100, ((alpha, 100.0),))
    for fid in ("f9", "f10"):
        assert FIGURES[fid].n == 100
        assert FIGURES[fid].pairs == ((4.7, 10.0), (47.0, 100.0), (470.0, 1000.0))
    # f9 draws its guide line at the ratio its pairs share
    assert ">m=0.47</text>" in build_figure(FIGURES["f9"])[1]


def test_figure_f1_files_and_schema(tmp_path, capsys):
    import math

    rc, out, _ = run(capsys, "figure", "f1", "--out", str(tmp_path))
    assert rc == 0
    csv_text = (tmp_path / "f1.csv").read_text()
    svg_text = (tmp_path / "f1.svg").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "x,f,bernstein,stancu"
    assert len(lines) == 1002
    # shifted series starts at f(alpha/(n+beta)) = sin(15 * 20/80)
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(math.sin(3.75), abs=1e-12)
    assert svg_text.startswith("<svg ") and svg_text.rstrip().endswith("</svg>")
    assert "polyline" in svg_text


def test_figure_f1_is_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "figure", "f1", "--out", str(d1))[0] == 0
    assert run(capsys, "figure", "f1", "--out", str(d2))[0] == 0
    assert (d1 / "f1.csv").read_bytes() == (d2 / "f1.csv").read_bytes()
    assert (d1 / "f1.svg").read_bytes() == (d2 / "f1.svg").read_bytes()


def test_figure_f3_degree_override(tmp_path, capsys):
    rc, _, _ = run(capsys, "figure", "f3", "--out", str(tmp_path))
    assert rc == 0
    assert len((tmp_path / "f3.csv").read_text().strip().split("\n")) == 27  # header + 26
    rc, _, _ = run(capsys, "figure", "f3", "--n", "100", "--out", str(tmp_path))
    assert rc == 0
    assert len((tmp_path / "f3.csv").read_text().strip().split("\n")) == 102


def test_figure_f9_multi_family_schema(tmp_path, capsys):
    rc, _, _ = run(capsys, "figure", "f9", "--out", str(tmp_path))
    assert rc == 0
    lines = (tmp_path / "f9.csv").read_text().strip().split("\n")
    assert lines[0] == ("alpha,beta,k,bernstein_node,stancu_node,gap,"
                        "dist_bern_to_m,dist_stancu_to_m")
    assert len(lines) == 1 + 3 * 101
    svg_text = (tmp_path / "f9.svg").read_text()
    assert svg_text.count("circle") >= 4 * 101


def test_figure_f10_multi_curve_schema(tmp_path, capsys):
    rc, _, _ = run(capsys, "figure", "f10", "--out", str(tmp_path))
    assert rc == 0
    lines = (tmp_path / "f10.csv").read_text().strip().split("\n")
    assert lines[0] == "x,f,bernstein,stancu,stancu2,stancu3"


def test_figure_rejects_unknown_id(capsys):
    rc, _, err = run(capsys, "figure", "f11")
    assert rc == 2 and "f11" in err


def test_figure_rejects_pair_override_on_multi(capsys, tmp_path):
    rc, _, err = run(capsys, "figure", "f9", "--alpha", "1", "--out", str(tmp_path))
    assert rc == 2


def test_figure_rejects_grid_on_node_figures(capsys, tmp_path):
    for fid in ("f3", "f4", "f5", "f9"):
        rc, _, err = run(capsys, "figure", fid, "--grid", "11", "--out", str(tmp_path))
        assert rc == 2
        assert "--grid" in err
    assert list(tmp_path.iterdir()) == []


def test_figure_validates_overrides_before_creating_the_directory(capsys, tmp_path):
    out = tmp_path / "new"
    # 10**15 is a degree whose node table cannot be allocated
    for override in (("--grid", "1"), ("--n", "0"), ("--alpha", "5", "--beta", "1"),
                     ("--n", "1000000000000000")):
        rc, _, err = run(capsys, "figure", "f1", *override, "--out", str(out))
        assert rc == 2
        assert err.startswith("error:")
        assert not out.exists()


# ------------------------------------------------------------- converge


def test_converge_constant(capsys):
    rc, out, _ = run(capsys, "converge", "--function", "e0", "--alpha", "1",
                     "--beta", "2", "--n-list", "5,10")
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["n", "sup_error", "operator_distance", "corollary2_bound", "t1_bound"]
    assert all(float(r[1]) <= 1e-12 for r in rows)


def test_converge_quadratic_rate(capsys):
    rc, out, _ = run(capsys, "converge", "--function", "e2", "--alpha", "0",
                     "--beta", "0", "--n-list", "10,20,40")
    assert rc == 0
    _, rows = csv_rows(out)
    sups = [float(r[1]) for r in rows]
    for n, s in zip((10, 20, 40), sups):
        assert s == pytest.approx(1.0 / (4 * n), abs=1e-6)
    # bound column dominates row-wise
    assert all(float(r[1]) <= float(r[3]) + 1e-9 for r in rows)


def test_converge_sin15_improves(capsys):
    rc, out, _ = run(capsys, "converge", "--function", "sin15", "--alpha", "20",
                     "--beta", "30", "--n-list", "50,100,250")
    assert rc == 0
    _, rows = csv_rows(out)
    sups = [float(r[1]) for r in rows]
    assert sups[2] < sups[1] < sups[0]


def test_converge_fails_when_sup_error_exceeds_the_bound(capsys, monkeypatch):
    import stancu_lab.bounds as bounds

    argv = ("converge", "--n-list", "50,100", "--alpha", "20", "--beta", "30")
    _, real, _ = run(capsys, *argv)
    monkeypatch.setattr(bounds, "corollary2_bound", lambda f, p: 0.0)
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert err == "converge: FAIL at n=50: sup_error exceeds corollary2_bound\n"
    # the table is written before the verdict; only its bound column moved
    header, rows = csv_rows(out)
    assert header == csv_rows(real)[0] and len(rows) == 2
    for row, want in zip(rows, csv_rows(real)[1]):
        assert row[3] == "0.0" and row[:3] + row[4:] == want[:3] + want[4:]


def test_converge_validates_degree_list(capsys):
    rc, _, err = run(capsys, "converge", "--function", "e1", "--n-list", "20,10")
    assert rc == 2


@pytest.mark.parametrize("flag", ["--n", "--n-l"])
def test_converge_rejects_degree_flag(flag):
    # --n-list is the only degree input: --n must neither be ignored nor
    # read as an abbreviation of --n-list
    proc = run_module("converge", "--n-list", "10,20", flag, "7")
    assert proc.returncode == 2
    assert proc.stdout == "" and "unrecognized arguments" in proc.stderr


# --------------------------------------------------------- output files

# each writer: its argv for the output directory d, and the files it writes there
WRITERS = {
    "figure": (lambda d: ["figure", "f1", "--out", str(d)], ["f1.csv", "f1.svg"]),
    "eval": (lambda d: ["eval", "--n", "50", "--grid", "11", "--out", str(d / "eval.csv")],
             ["eval.csv"]),
}


def fresh_outputs(capsys, d, writer):
    argv, names = WRITERS[writer]
    d.mkdir()
    assert run(capsys, *argv(d))[0] == 0
    return {name: (d / name).read_bytes() for name in names}


@pytest.mark.parametrize("scale", [0.5, 3.0], ids=["shorter", "longer"])
@pytest.mark.parametrize("writer", WRITERS)
def test_rewrite_over_an_old_file_equals_a_fresh_run(capsys, tmp_path, writer, scale):
    want = fresh_outputs(capsys, tmp_path / "fresh", writer)
    d = tmp_path / "old"
    d.mkdir()
    for name, data in want.items():
        (d / name).write_bytes(b"~" * int(len(data) * scale))
    assert run(capsys, *WRITERS[writer][0](d))[0] == 0
    assert {name: (d / name).read_bytes() for name in want} == want


@pytest.mark.parametrize("writer", WRITERS)
def test_rewrite_follows_a_symlink_and_keeps_it(capsys, tmp_path, writer):
    want = fresh_outputs(capsys, tmp_path / "fresh", writer)
    d, targets = tmp_path / "links", tmp_path / "targets"
    d.mkdir()
    targets.mkdir()
    for name, data in want.items():
        (targets / name).write_bytes(b"~" * (2 * len(data)))
        (d / name).symlink_to(targets / name)
    assert run(capsys, *WRITERS[writer][0](d))[0] == 0
    for name, data in want.items():
        assert (d / name).is_symlink() and (d / name).resolve() == targets / name
        assert (targets / name).read_bytes() == data


@pytest.mark.parametrize("writer", WRITERS)
def test_rewrite_keeps_the_file_and_its_mode(capsys, tmp_path, writer):
    # a new file gets 0o666 less the umask, like open(path, "w")
    umask = os.umask(0o022)
    try:
        fresh_outputs(capsys, tmp_path / "fresh", writer)
    finally:
        os.umask(umask)
    names = WRITERS[writer][1]
    assert all(stat.S_IMODE((tmp_path / "fresh" / n).stat().st_mode) == 0o644 for n in names)
    d = tmp_path / "old"
    d.mkdir()
    for name in names:
        (d / name).write_text("old\n" * 50_000)
        (d / name).chmod(0o604)
    before = [(d / name).stat().st_ino for name in names]
    assert run(capsys, *WRITERS[writer][0](d))[0] == 0
    after = [(d / name).stat() for name in names]
    assert [st.st_ino for st in after] == before
    assert all(stat.S_IMODE(st.st_mode) == 0o604 for st in after)


def test_out_to_dev_null_writes_and_cuts_nothing(capsys):
    assert run(capsys, "nodes", "--n", "10", "--out", os.devnull) == (0, "", "")


@pytest.mark.parametrize("kind", ["directory", "read-only", "full"])
@pytest.mark.parametrize("writer", WRITERS)
def test_output_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, writer, kind):
    argv, names = WRITERS[writer]
    path = tmp_path / names[0]
    if kind == "directory":
        path.mkdir()
    elif kind == "read-only":
        if os.geteuid() == 0:
            pytest.skip("root may write a read-only file")
        path.write_text("old\n")
        path.chmod(0o444)
    else:
        path.symlink_to("/dev/full")
    rc, out, err = run(capsys, *argv(tmp_path))
    assert (rc, out) == (2, "")
    name = "figure outputs" if writer == "figure" else path
    assert err.startswith(f"error: cannot write {name}: ")
    if kind == "read-only":
        assert path.read_text() == "old\n"


def test_a_stream_cut_short_leaves_only_the_lines_written(tmp_path):
    # each chunk is written as it comes; the error comes while the third is
    # built, and the file ends where the second ended
    target = tmp_path / "cut.csv"
    target.write_text("stale\n" * (3 * _BLOCK))
    lines = [f"{i}\n" for i in range(_BLOCK + 10)]

    def chunks():
        yield "".join(lines[:_BLOCK])
        yield "".join(lines[_BLOCK:])
        raise RuntimeError("cut")

    with pytest.raises(RuntimeError, match="cut"):
        _emit(chunks(), str(target))
    assert target.read_text() == "".join(lines)


@pytest.mark.parametrize("argv,names", [
    (lambda d: ["figure", "f1", "--out", str(d)], ["f1.csv", "f1.svg"]),
    (lambda d: ["eval", "--n", "50", "--grid", "1001", "--out", str(d / "eval.csv")],
     ["eval.csv"]),
], ids=["figure", "eval"])
def test_short_writes_are_retried_until_every_byte_is_written(capsys, tmp_path, monkeypatch,
                                                              argv, names):
    # like a pipe or an interrupted write: each os.write takes at most 4096 bytes
    (tmp_path / "whole").mkdir()
    assert run(capsys, *argv(tmp_path / "whole"))[0] == 0
    write, asked = os.write, []

    def short_write(fd, data):
        asked.append(len(data))
        return write(fd, data[:4096])

    monkeypatch.setattr(os, "write", short_write)
    (tmp_path / "short").mkdir()
    assert run(capsys, *argv(tmp_path / "short"))[0] == 0
    monkeypatch.undo()
    assert max(asked) > 4096  # some write was cut short, or this test shows nothing
    for name in names:
        assert (tmp_path / "short" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


class ShortRaw(io.RawIOBase):
    """An unbuffered stdout's raw layer that takes at most 100 bytes a write."""

    def __init__(self):
        self.taken = bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.taken += data[:100]
        return min(len(data), 100)


@pytest.mark.parametrize("argv", [
    ("nodes", "--n", "50"),
    ("check", "t2", "--n", "100", "--alpha", "47", "--beta", "100"),
], ids=["nodes", "t2"])
def test_short_writes_to_an_unbuffered_stdout_are_retried(monkeypatch, argv):
    # under -u or PYTHONUNBUFFERED, stdout is a write-through TextIOWrapper on
    # a raw stream, and the wrapper drops what a short raw write leaves over
    text = io.StringIO()
    monkeypatch.setattr(sys, "stdout", text)
    assert main(list(argv)) == 0
    raw = ShortRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8",
                                                        write_through=True))
    assert main(list(argv)) == 0
    assert len(text.getvalue()) > 1000  # some write was cut short, or this test shows nothing
    assert raw.taken.decode() == text.getvalue()


def test_figure_creates_the_missing_directories(capsys, tmp_path):
    (tmp_path / "old").mkdir()
    assert run(capsys, "figure", "f3", "--out", str(tmp_path / "old"))[0] == 0
    target = tmp_path / "a" / "b" / "c"
    rc, out, err = run(capsys, "figure", "f3", "--out", str(target))
    assert (rc, out, err) == (0, f"{target / 'f3.csv'}\n{target / 'f3.svg'}\n", "")
    for name in ("f3.csv", "f3.svg"):
        assert (target / name).read_bytes() == (tmp_path / "old" / name).read_bytes()


def test_figure_into_a_regular_file_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "f1.first.csv"
    target.write_bytes(b"k,old\n" * 100)
    rc, out, err = run(capsys, "figure", "f1", "--out", str(target))
    assert (rc, out) == (2, "")
    assert err.startswith("error: cannot write figure outputs: ")
    assert target.read_bytes() == b"k,old\n" * 100


# -------------------------------------------------------------- process


@pytest.mark.parametrize("header,argv", [
    ("x,", ("eval", "--function", "sin15", "--n", "50", "--grid", "200001")),
    ("k,", ("nodes", "--n", "100000")),
], ids=["eval-grid", "nodes"])
def test_closed_stdout_is_a_usage_error_without_traceback(header, argv):
    # like `... | head -n 1`: the reader leaves after one line of megabytes
    cmd, env = module_command(*argv)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert first.startswith(header)
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error: cannot write stdout")


def run_reader_gone(cmd, env, cwd, stderr):
    """Run cmd with stdout on a pipe whose reader is gone before the child
    starts; ``stderr=None`` puts stderr on that pipe too."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(cmd, stdout=write, stderr=write if stderr is None else stderr,
                              text=True, env=env, cwd=cwd)
    finally:
        os.close(write)


T2_OUT = ("check", "t2", "--n", "10", "--alpha", "1", "--beta", "2", "--out", "t2.csv")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,written,shared", [
    (T2_OUT, ["t2.csv"], False),
    (("check", "t4", "--function", "sin15", "--n", "20", "--alpha", "4.7", "--beta", "10",
      "--out", "t4.csv"), ["t4.csv"], False),
    (("figure", "f2", "--out", "."), ["f2.csv", "f2.svg"], False),
    (T2_OUT, ["t2.csv"], True),
], ids=["t2", "t4", "figure", "t2-stderr-on-the-pipe"])
def test_status_line_to_a_closed_stdout_is_a_usage_error(tmp_path, argv, written, shared,
                                                         unbuffered):
    # the files are written; only the status line after them has no reader
    cmd, env = module_command(*argv)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        env.pop("PYTHONUNBUFFERED", None)
    # with stderr on the same pipe, the error line is lost but not the exit code
    proc = run_reader_gone(cmd, env, tmp_path, None if shared else subprocess.PIPE)
    assert proc.returncode == 2
    if not shared:
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write stdout")
    assert all((tmp_path / name).stat().st_size > 0 for name in written)


@pytest.mark.parametrize("stderr,argv,code", [
    (None, ("eval", "--function", "sin15", "--n", "5000", "--x", "0.5"), 2),
    ("/dev/full", ("eval", "--function", "sin15", "--n", "5000", "--x", "0.5"), 2),
    (None, ("check", "t4", "--function", "sin15", "--n", "100", "--alpha", "4.7", "--beta", "10",
            "--scales", "1,10", "--epsilon", "1e-9", "--out", "t4.csv"), 1),
], ids=["error-to-the-pipe", "error-to-dev-full", "t4-fail-to-the-pipe"])
def test_a_lost_stderr_line_keeps_the_exit_code(tmp_path, stderr, argv, code):
    # an error stays exit 2 and a failed check exit 1 when stderr cannot be written
    if stderr is not None and not os.path.exists(stderr):
        pytest.skip(f"no {stderr}")
    cmd, env = module_command(*argv)
    if stderr is None:
        proc = run_reader_gone(cmd, env, tmp_path, None)
    else:
        with open(stderr, "w") as sink:
            proc = run_reader_gone(cmd, env, tmp_path, sink)
    assert proc.returncode == code
    if "--out" in argv:
        assert (tmp_path / argv[-1]).stat().st_size > 0


def test_module_entry_point():
    proc = run_module("eval", "--function", "e0", "--n", "5", "--x", "0.5")
    assert proc.returncode == 0
    assert proc.stdout.startswith("x,f,bernstein,stancu")


def test_usage_error_exit_code():
    proc = run_module("frobnicate")
    assert proc.returncode == 2
