"""CLI surface tests: schemas, exit codes, determinism, env override."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stancu_lab
from stancu_lab.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_module(*argv):
    """``python -m stancu_lab`` in a child that imports this same package copy."""
    src = str(Path(stancu_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "stancu_lab", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


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


def test_eval_rejects_point_outside_domain(capsys):
    rc, _, err = run(capsys, "eval", "--function", "e1", "--n", "10", "--x", "1.5")
    assert rc == 2
    assert err.startswith("error:")


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
    ("--scales", "1,nan"), ("--scales", "1,inf"), ("--scales", "nan"),
])
def test_check_t4_rejects_invalid_input(capsys, flag, value):
    rc, out, err = run(capsys, "check", "t4", "--n", "10", "--alpha", "1", "--beta", "2",
                       flag, value)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_check_t4_failing_level_uses_the_bound_tolerance(capsys, monkeypatch):
    import stancu_lab.cli as cli
    from stancu_lab import ClusterReport, StancuParams, Theorem1Report, Theorem3Report, Theorem4Report

    # each check applies its tolerance once and stores the first failing
    # entry; the message names that entry
    fake = Theorem4Report(
        ratio_m=0.5, f_at_m=0.0, levels=((1.0, 2.0), (10.0, 20.0)),
        distances=np.array([1.0 + 5e-13, 2.0]), bounds=np.array([1.0, 1.0]),
        failing_index=1, monotone_decreasing=False,
    )
    monkeypatch.setattr(cli, "theorem4_experiment", lambda *a, **k: fake)
    rc, _, err = run(capsys, "check", "t4", "--function", "sin15", "--n", "10",
                     "--alpha", "1", "--beta", "2", "--scales", "1,10")
    assert rc == 1
    assert "FAIL at level 1" in err

    fake1 = Theorem1Report(
        degrees=(10, 20), max_gaps=np.array([1.0 + 5e-13, 2.0]),
        bounds=np.array([1.0, 1.0]), failing_index=1,
    )
    monkeypatch.setattr(cli, "check_theorem1", lambda *a, **k: fake1)
    rc, _, err = run(capsys, "check", "t1", "--n-list", "10,20", "--alpha", "1", "--beta", "2")
    assert rc == 1
    assert err == "t1: FAIL at n=20: max_gap exceeds bound\n"

    fake2 = ClusterReport(
        ratio_m=0.5, bernstein_dist=np.array([0.5, 0.5]),
        stancu_dist=np.array([0.5 + 5e-16, 0.75]), max_gap=0.0, crossing_indices=(),
        contraction=10.0 / 12.0, identity_error=0.0, failing_index=1,
    )
    monkeypatch.setattr(cli, "check_theorem2", lambda *a, **k: fake2)
    rc, _, err = run(capsys, "check", "t2", "--n", "10", "--alpha", "1", "--beta", "2")
    assert rc == 1
    assert "FAIL at k=1" in err

    p1, p2 = StancuParams(10, 1.0, 2.0), StancuParams(10, 2.0, 4.0)
    fake3 = Theorem3Report(
        params1=p1, params2=p2, ratio_m=0.5, dist1=np.full(11, 0.5), dist2=np.full(11, 0.5),
        shrink_factor=12.0 / 14.0, difference_identity_error=0.0, distance_identity_error=0.0,
        failing_index=3,
    )
    monkeypatch.setattr(cli, "check_theorem3", lambda *a, **k: fake3)
    rc, out, err = run(capsys, "check", "t3", "--n", "10", "--pair", "1,2", "--pair", "2,4")
    assert rc == 1
    assert err == "t3: FAIL for pairs (1.0,2.0) -> (2.0,4.0) at k=3\n"
    assert out.startswith("k,node_0,dist_0,node_1,dist_1\n")


def test_check_t2_names_the_node_that_breaks_the_sign_pattern(capsys):
    # k/(10 + 1e-300) rounds to k/10; node 0 sits at m = 0, node 1 is the
    # first that does not move strictly toward m. Stdout is the node table.
    argv = ("--n", "10", "--alpha", "0", "--beta", "1e-300")
    rc, out, err = run(capsys, "check", "t2", *argv)
    assert rc == 1
    assert err == "t2: FAIL at k=1\n"
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

    assert (FIGURES["f1"].function, FIGURES["f1"].n, FIGURES["f1"].pairs) == (
        "sin15", 50, ((20.0, 30.0),))
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
    for override in (("--grid", "1"), ("--n", "0"), ("--alpha", "5", "--beta", "1")):
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


# ------------------------------------------------------------------ env


def test_env_grid_override_changes_measurement(capsys, monkeypatch):
    argv = ["converge", "--function", "sin15", "--alpha", "2", "--beta", "5",
            "--n-list", "10,20"]
    rc, out_default, _ = run(capsys, *argv)
    assert rc == 0
    monkeypatch.setenv("STANCU_LAB_GRID", "2001,101")
    rc, out_coarse, _ = run(capsys, *argv)
    assert rc == 0
    assert out_default != out_coarse


def test_env_grid_malformed_rejected(capsys, monkeypatch):
    monkeypatch.setenv("STANCU_LAB_GRID", "2001")
    rc, _, err = run(capsys, "converge", "--function", "e1", "--n-list", "5,10")
    assert rc == 2 and "STANCU_LAB_GRID" in err


def test_module_entry_point():
    proc = run_module("eval", "--function", "e0", "--n", "5", "--x", "0.5")
    assert proc.returncode == 0
    assert proc.stdout.startswith("x,f,bernstein,stancu")


def test_usage_error_exit_code():
    proc = run_module("frobnicate")
    assert proc.returncode == 2
