import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def write_tree(root, k_star=7, dist=0.5, violations=0, extra=None):
    (root / "run").mkdir(parents=True)
    (root / "run" / "summary.csv").write_text(
        "# iterreg-csv v1\ndelta,k_star,dist_star,interior\n"
        f"0.5,{k_star},{dist!r},1\n1.0,3,0.25,\n")
    (root / "cert_w.csv").write_text(f"{dist:.18e}\n{2 * dist:.18e}\n")
    (root / "bounds_summary.json").write_text(json.dumps(
        {"violations": violations, "worst_gap_ratio": dist, "per_delta": {"k": [1, 2]}}))
    (root / "plot.svg").write_text(f"<svg>{dist}</svg>")
    if extra:
        (root / extra).write_text("x")


def test_identical_trees(tmp_path, compare, capsys):
    write_tree(tmp_path / "a")
    write_tree(tmp_path / "b")
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert out.count(": identical") == 4
    assert "largest relative deviation of a float column: 0.000e+00" in out
    assert out.endswith("integer columns and structure agree\n")


def test_float_deviation_is_relative_to_the_column_and_passes(tmp_path, compare, capsys):
    write_tree(tmp_path / "a", dist=0.5)
    write_tree(tmp_path / "b", dist=0.5 + 1e-10)
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "run/summary.csv: max relative deviation 2.000e-10 in column dist_star\n" in out
    assert "cert_w.csv: max relative deviation 2.000e-10 in column 0\n" in out
    assert "plot.svg: differs (not compared by column)" in out


def test_a_wide_matrix_is_one_line_naming_its_worst_column(tmp_path, compare, capsys):
    X = np.arange(1.0, 1001.0).reshape(2, 500)
    Y = X * (1.0 + 1e-12)
    Y[1, 317] = X[1, 317] * (1.0 + 3e-9)
    for side, matrix in (("a", X), ("b", Y)):
        (tmp_path / side).mkdir()
        np.savetxt(tmp_path / side / "X.csv", matrix, delimiter=",")
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("X.csv: max relative deviation 3.000e-09 in column 317")
    assert lines[1].endswith("(X.csv:317)")


@pytest.mark.parametrize("change", [dict(k_star=8), dict(violations=1)])
def test_integer_difference_fails(tmp_path, compare, capsys, change):
    write_tree(tmp_path / "a")
    write_tree(tmp_path / "b", **change)
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "integer column differs in 1 rows" in capsys.readouterr().out


def test_structural_difference_fails(tmp_path, compare, capsys):
    write_tree(tmp_path / "a")
    write_tree(tmp_path / "b", extra="new.txt")
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "new.txt: only in" in capsys.readouterr().out
