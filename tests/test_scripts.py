"""The scripts under scripts/: exit codes of their ``main`` and their output."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stancu_lab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shift_sensitivity_default_preset(capsys):
    assert load_script("shift_sensitivity").main([]) == 0
    out = capsys.readouterr().out
    assert out.startswith("function=sin15 n=100\n")
    assert out.endswith("within bound at every level: True\n")


@pytest.mark.parametrize("argv", [["--function", "sin16"], ["--n", "0"], ["--n", "2000"]])
def test_shift_sensitivity_rejects_bad_input_with_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        load_script("shift_sensitivity").main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_shift_sensitivity_tables_repeat_in_one_process(capsys):
    # the second run reads the measurement samples the first one cached
    script = load_script("shift_sensitivity")
    script.print_tables("sin15", 100)
    first = capsys.readouterr().out
    script.print_tables("sin15", 100)
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("shared", [False, True], ids=["stderr", "stderr-on-the-pipe"])
def test_shift_sensitivity_to_a_closed_stdout_exits_2_without_traceback(tmp_path, shared,
                                                                         unbuffered):
    # like `... | true`: stdout is a pipe whose reader is gone before the first
    # write; with stderr on that pipe too, the error line is lost, not the exit code
    src = str(Path(stancu_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, str(SCRIPTS / "shift_sensitivity.py")],
                              stdout=write, stderr=write if shared else subprocess.PIPE,
                              text=True, env=env, cwd=tmp_path)
    finally:
        os.close(write)
    assert proc.returncode == 2
    if not shared:
        assert proc.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"
