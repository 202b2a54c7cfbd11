import importlib.util
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
