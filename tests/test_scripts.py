"""The scripts under scripts/: exit codes of their ``main`` and their output."""

import importlib.util
from pathlib import Path

import pytest

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
