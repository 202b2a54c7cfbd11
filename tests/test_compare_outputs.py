import importlib.util
import json
from pathlib import Path

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
    assert "run/summary.csv: dist_star: max relative deviation 2.000e-10" in out
    assert "cert_w.csv: 0: max relative deviation 2.000e-10" in out
    assert "plot.svg: differs (not compared by column)" in out


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
