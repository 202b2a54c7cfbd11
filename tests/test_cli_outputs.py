"""The clean-run judgement of ``scripts/cli_outputs.py``, on run directories written here."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_outputs.py"
SUMMARY = '{"k_star": 12, "dist": 0.5}\n'


@pytest.fixture(scope="module")
def cli_outputs():
    spec = importlib.util.spec_from_file_location("cli_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(run_dir, exit_code=0, stdout=SUMMARY, stderr=""):
    """The three files ``run_command`` writes beside a command's outputs."""
    run_dir.mkdir(parents=True)
    (run_dir / "exit_code.json").write_text(json.dumps({"exit_code": exit_code}) + "\n")
    (run_dir / "stdout.json").write_text(stdout)
    (run_dir / "stderr.txt").write_text(stderr)
    return run_dir


def test_a_clean_run_has_no_fault(cli_outputs, tmp_path):
    assert cli_outputs.faults(write_run(tmp_path / "solve")) == []


@pytest.mark.parametrize("run, fault", [
    ({"exit_code": 1}, "exit code 1"),
    ({"exit_code": -9}, "exit code -9"),
    ({"stderr": "UserWarning: loadtxt: input contained no data\n"}, "wrote to stderr"),
    ({"stdout": '{"worst_gap_ratio": NaN}\n'}, "not strict JSON: it holds NaN"),
    ({"stdout": '{"worst_gap_ratio": Infinity}\n'}, "not strict JSON: it holds Infinity"),
    ({"stdout": '{"worst_gap_ratio": -Infinity}\n'}, "not strict JSON: it holds -Infinity"),
    ({"stdout": ""}, "not strict JSON"),
])
def test_each_fault_is_flagged_on_its_own_and_names_its_run(cli_outputs, tmp_path, run, fault):
    run_dir = write_run(tmp_path / "bounds-flags", **run)
    (found,) = cli_outputs.faults(run_dir)
    assert found.startswith(f"{run_dir}: ") and fault in found


def test_the_two_passes_are_sixteen_runs_of_the_eight_commands(cli_outputs):
    runs = cli_outputs.DEFAULT_RUNS + cli_outputs.FLAG_RUNS
    assert len({name for name, _, _ in runs}) == len(runs) == 16
    for passed in (cli_outputs.DEFAULT_RUNS, cli_outputs.FLAG_RUNS):
        assert [cmd for _, cmd, _ in passed] == list(cli_outputs.COMMANDS)


def test_main_exits_1_and_prints_the_faults_of_an_unclean_run(cli_outputs, tmp_path, monkeypatch,
                                                              capsys):
    def fake_run_command(src, out, name, cmd, flags):
        dirty = name == "solve-flags"
        write_run(out / name, stderr="a warning\n" if dirty else "")
        return 0

    monkeypatch.setattr(cli_outputs, "run_command", fake_run_command)
    src = tmp_path / "src"
    (src / "iterreg").mkdir(parents=True)
    (src / "iterreg" / "cli.py").touch()
    assert cli_outputs.main([str(src), str(tmp_path / "out")]) == 1
    printed = capsys.readouterr().out
    assert f"{tmp_path / 'out' / 'solve-flags'}: wrote to stderr" in printed
    assert printed.rstrip().endswith("16 runs; faults: 1")
