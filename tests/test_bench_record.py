import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(wall, rss, failed=0, attempted=6):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "ops_per_s": {"value": rss, "unit": "1/s"}}}


BETTER = {"wall_s": "lower", "ops_per_s": "higher"}


def test_summary_of_two_sides(bench_record):
    results = {
        "head": {"w": [result(1.0, 5.0), result(2.0, 5.0), result(3.0, 7.0), result(4.0, 1.0)]},
        "base": {"w": [result(2.0, 4.0), result(2.0, 6.0), result(5.0, 6.0),
                       result(6.0, 2.0, failed=1)]},
    }
    entry = bench_record.summarize(results, BETTER)["w"]
    head = entry["head"]
    assert head["correct"] and head["failed"] == 0 and head["attempted"] == 24
    assert entry["base"]["correct"] is False and entry["base"]["failed"] == 1
    wall = head["metrics"]["wall_s"]
    assert wall["values"] == [1.0, 2.0, 3.0, 4.0] and wall["unit"] == "s"
    assert (wall["q1"], wall["median"], wall["q3"]) == (1.25, 2.5, 3.75)
    # the tie at seed 2 counts for neither side; "higher" is better for ops_per_s
    assert entry["head_wins"] == {"wall_s": 3, "ops_per_s": 2}
    assert entry["median_ratio"]["wall_s"] == pytest.approx(2.5 / 3.5)


def test_summary_of_one_side_and_one_seed(bench_record):
    entry = bench_record.summarize({"head": {"w": [result(1.5, 3.0)]}}, BETTER)["w"]
    wall = entry["head"]["metrics"]["wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"]) == (1.5, 1.5, 1.5)
    assert "base" not in entry and "head_wins" not in entry


def ten_pairs(head_rss, base_rss):
    """The results of ten seed pairs of one workload with the given peak RSS values."""
    def rss(value):
        return {"correct": True, "attempted": 6, "failed": 0,
                "metrics": {"peak_rss_mb": {"value": value, "unit": "MB"}}}
    return {"head": {"w": [rss(v) for v in head_rss]}, "base": {"w": [rss(v) for v in base_rss]}}


# quartiles 44.6175 and 44.6325, median 44.625
BASE_RSS = [44.60, 44.61, 44.62, 44.62, 44.62, 44.63, 44.63, 44.63, 44.64, 44.65]
RSS = {"peak_rss_mb": "lower"}


def test_a_gain_is_shown_by_nine_wins_in_ten_and_a_median_past_the_quartiles(bench_record):
    head = [42.96] * 9 + [44.70]  # loses the last pair
    entry = bench_record.summarize(ten_pairs(head, BASE_RSS), RSS)["w"]
    assert entry["head_wins"] == {"peak_rss_mb": 9}
    assert entry["shown"] == {"peak_rss_mb": True}


def test_eight_wins_in_ten_show_no_gain(bench_record):
    head = [42.96] * 8 + [44.70] * 2
    entry = bench_record.summarize(ten_pairs(head, BASE_RSS), RSS)["w"]
    assert entry["head_wins"] == {"peak_rss_mb": 8}
    assert entry["shown"] == {"peak_rss_mb": False}


def test_a_median_gain_within_the_base_quartile_distance_shows_no_gain(bench_record):
    head = [v - 0.01 for v in BASE_RSS]  # ten wins, but the medians are 0.01 MB apart
    entry = bench_record.summarize(ten_pairs(head, BASE_RSS), RSS)["w"]
    base = entry["base"]["metrics"]["peak_rss_mb"]
    gain = base["median"] - entry["head"]["metrics"]["peak_rss_mb"]["median"]
    assert entry["head_wins"] == {"peak_rss_mb": 10}
    assert gain == pytest.approx(0.01) and base["q3"] - base["q1"] == pytest.approx(0.015)
    assert entry["shown"] == {"peak_rss_mb": False}


def fake_checkouts(bench_record, tmp_path, monkeypatch, wrong_side=None):
    """Two checkouts whose benchmark a fake ``subprocess.run`` runs, ``wrong_side`` incorrectly.

    Returns the two checkouts and, per checkout, the bytecode prefixes its runs were given.
    """
    head, base = (tmp_path / "head").resolve(), (tmp_path / "base").resolve()
    checkouts = {"head": head, "base": base}
    for checkout in (head, base):
        (checkout / "benchmark").mkdir(parents=True)
        (checkout / "benchmark" / "run.py").touch()
    (head / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], "end_to_end": [{"name": "wall_s", "better": "lower"}],
         "run_seconds": 1}))
    prefixes = {}

    def fake_run(cmd, cwd, env, **kwargs):
        assert env["PATH"] == os.environ["PATH"]  # the rest of the environment is inherited
        assert "PYTHONDONTWRITEBYTECODE" not in env
        prefixes.setdefault(cwd, set()).add(Path(env["PYTHONPYCACHEPREFIX"]))
        results = cwd / ".bench_out" / "results"
        results.mkdir(parents=True, exist_ok=True)
        seed = cmd[cmd.index("--seed") + 1]
        (results / f"w-seed{seed}-trace0.json").write_text(
            json.dumps({"git_revision": "x", "env": {}, "pinned": {}}))
        failed = int(seed == "2" and cwd == checkouts.get(wrong_side))
        return subprocess.CompletedProcess(
            cmd, 0, stdout=json.dumps(result(1.0, 1.0, failed=failed)) + "\n")

    monkeypatch.setattr(bench_record, "ROOT", head)
    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--out", str(tmp_path / "out.json"),
                                      "--base", str(base), "--seeds", "1", "2", "3"])
    return head, base, prefixes


def test_each_side_runs_with_its_own_fresh_bytecode_prefix(bench_record, tmp_path, monkeypatch):
    """Python reads a checkout's ``__pycache__`` even under PYTHONDONTWRITEBYTECODE.

    So each side writes its bytecode under its own temporary PYTHONPYCACHEPREFIX,
    outside both checkouts, and a stale cache in one of them favours neither side.
    """
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    head, base, prefixes = fake_checkouts(bench_record, tmp_path, monkeypatch)
    bench_record.main()
    assert set(prefixes) == {head, base}
    (head_prefix,), (base_prefix,) = prefixes[head], prefixes[base]
    assert head_prefix != base_prefix
    for prefix in (head_prefix, base_prefix):
        assert not (prefix.is_relative_to(head) or prefix.is_relative_to(base))
        assert not prefix.exists()  # a temporary directory, removed with the record


@pytest.mark.parametrize("wrong_side, status", [(None, 0), ("base", 0), ("head", 1)])
def test_exits_1_after_writing_the_record_when_a_round_of_this_checkout_is_incorrect(
        bench_record, tmp_path, monkeypatch, wrong_side, status):
    fake_checkouts(bench_record, tmp_path, monkeypatch, wrong_side)
    assert bench_record.main() == status
    entry = json.loads((tmp_path / "out.json").read_text())["workloads"]["w"]
    assert entry["head"]["correct"] is (wrong_side != "head")
    assert entry["base"]["correct"] is (wrong_side != "base")
