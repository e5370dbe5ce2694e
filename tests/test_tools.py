"""Tests of tools/bench_pairs.py, the script that writes the BENCH_*.json files."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "rate", "better": "higher", "bound": 0.2},
]


def _runs(parent, change, failed=(0, 0), correct=(True, True)):
    """Synthetic run summaries; each metric takes the same values."""
    def summary(value, fail, ok):
        return {
            "failed": fail,
            "attempted": 10,
            "correct": ok,
            "metrics": {m["name"]: {"value": value} for m in METRICS},
        }

    return {
        "parent": [summary(v, failed[0], correct[0]) for v in parent],
        "change": [summary(v, failed[1], correct[1]) for v in change],
    }


def test_summarise_quartiles_ratio_and_spread():
    out = bench_pairs.summarise(_runs([4, 2, 3, 5, 1], [2, 2, 1, 6, 1]), [1, 2, 3, 4, 5], METRICS)
    wall = out["wall_s"]
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert wall["change"] == {"median": 2.0, "q1": 1.0, "q3": 2.0}
    assert wall["ratio_change_over_parent"] == 0.6667
    assert wall["parent_iqr_over_median"] == 0.6667
    assert wall["change_iqr_over_median"] == 0.5
    assert wall["pairs"] == 5 and wall["bound"] == 0.25


def test_summarise_quartiles_interpolate_linearly():
    out = bench_pairs.summarise(_runs([1, 2, 3, 10], [1, 1, 1, 1]), [1, 2, 3, 4], METRICS)
    assert out["wall_s"]["parent"] == {"median": 2.5, "q1": 1.75, "q3": 4.75}
    assert out["wall_s"]["parent_iqr_over_median"] == 1.2


def test_summarise_wins_count_neither_side_on_ties():
    # pairs (parent, change): (4, 2) (2, 2) (3, 1) (5, 6) (1, 1)
    out = bench_pairs.summarise(_runs([4, 2, 3, 5, 1], [2, 2, 1, 6, 1]), [1, 2, 3, 4, 5], METRICS)
    assert out["wall_s"]["change_wins"] == 2  # lower is better
    assert out["rate"]["change_wins"] == 1  # higher is better
    tied = bench_pairs.summarise(_runs([1, 2, 3], [1, 2, 3]), [1, 2, 3], METRICS)
    assert tied["wall_s"]["change_wins"] == 0 and tied["rate"]["change_wins"] == 0


def test_summarise_totals_failures_and_correctness():
    runs = _runs([1, 2], [1, 2], failed=(0, 3), correct=(True, False))
    out = bench_pairs.summarise(runs, [7, 8], METRICS)
    assert out["seeds"] == [7, 8]
    assert out["failed"] == {"parent": 0, "change": 6}
    assert out["attempted"] == {"parent": 20, "change": 20}
    assert out["correct"] == {"parent": True, "change": False}


def test_parse_args_seed_range():
    args = bench_pairs.parse_args(
        ["a", "b", "--workload", "tree-sweep", "--seeds", "101:103", "--out", "x.json"]
    )
    assert args.seeds == [101, 102, 103]
    assert args.workload == ["tree-sweep"]


def test_parse_args_rejects_empty_seed_range(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(
            ["a", "b", "--workload", "tree-sweep", "--seeds", "5:4", "--out", "x.json"]
        )
    assert exc.value.code == 2
    assert "empty seed range 5:4" in capsys.readouterr().err
