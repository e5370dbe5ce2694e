"""Tests of tools/bench_pairs.py and tools/cli_diff.py, the scripts that write
the BENCH_*.json files, and of tools/cli_commands.txt, the command list."""

import hashlib
import importlib.util
import json
import shlex
import shutil
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


# --- tools/cli_diff.py ----------------------------------------------------------

_CLI_DIFF_PATH = _PATH.parent / "cli_diff.py"
_CLI_DIFF_SPEC = importlib.util.spec_from_file_location("cli_diff", _CLI_DIFF_PATH)
cli_diff = importlib.util.module_from_spec(_CLI_DIFF_SPEC)
_CLI_DIFF_SPEC.loader.exec_module(cli_diff)

_SRC = _PATH.parents[1] / "src"


def _tree(root: Path, version=None, edit=None) -> Path:
    """A copy of this checkout's package under ``root/src``, optionally
    with another version string, or with ``edit = (module, old, new)``
    replacing one text in one of its modules."""
    shutil.copytree(_SRC / "rmfperc", root / "src" / "rmfperc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if version is not None:
        edit = ("__init__.py", '__version__ = "', f'__version__ = "{version}')
    if edit is not None:
        module, old, new = edit
        path = root / "src" / "rmfperc" / module
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
    return root


def test_cli_diff_digest_covers_stdout_exit_code_and_out_file(tmp_path, monkeypatch, capsysbinary):
    # stderr is digested too, after the exit code
    from rmfperc.cli import main

    tree = _tree(tmp_path / "a")
    assert main(["critical", "--theta", "0.75"]) == 0
    payload = capsysbinary.readouterr().out
    expected = hashlib.sha256(payload + b"\nexit=0\n").hexdigest()[:16]
    assert cli_diff.digest(tree, "critical --theta 0.75") == expected
    with_file = hashlib.sha256(b"\nexit=0\n" + b"c.json\n" + payload).hexdigest()[:16]
    assert cli_diff.digest(tree, "critical --theta 0.75 --out c.json") == with_file
    assert main(["critical", "--theta", "1.7"]) == 2
    message = capsysbinary.readouterr().err
    assert message == b"parameter error: theta must lie in (0, 1], got 1.7\n"
    bad = hashlib.sha256(b"\nexit=2\n" + message).hexdigest()[:16]
    assert cli_diff.digest(tree, "critical --theta 1.7") == bad
    # a seed from the environment would fail this command; the tool unsets it
    monkeypatch.setenv("RMFPERC_SEED", "not-a-seed")
    command = "lattice-sim --radius 3 --replicas 2"
    assert main(command.split()) == 2
    failed = capsysbinary.readouterr()
    refused = hashlib.sha256(failed.out + b"\nexit=2\n" + failed.err).hexdigest()[:16]
    assert cli_diff.digest(tree, command) != refused


def test_cli_diff_sees_a_changed_error_message(tmp_path):
    # the two trees differ only in the text of one refusal, written to stderr
    parent = _tree(tmp_path / "p")
    change = _tree(tmp_path / "c", edit=("analytic.py", "theta must lie in (0, 1]",
                                         "theta must lie in the interval (0, 1]"))
    commands = tmp_path / "commands.txt"
    commands.write_text("critical --theta 0.75\ncritical --theta 1.7\n")
    out = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--commands", str(commands), "--out", str(out)]
    assert cli_diff.main(argv) == 1
    record = json.loads(out.read_text())["cli_diff"]
    assert record["identical"] is False
    assert isinstance(record["commands"]["critical --theta 0.75"], str)
    digests = record["commands"]["critical --theta 1.7"]
    assert digests["parent"] != digests["change"]


def test_cli_diff_record_and_merge(tmp_path):
    parent, same, other = _tree(tmp_path / "p"), _tree(tmp_path / "s"), _tree(tmp_path / "o", "9.")
    commands = tmp_path / "commands.txt"
    commands.write_text("# analytic\ncritical --theta 0.75\n\npathbound --horizon 4 --theta 0\n")
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"workloads": {"tree-sweep": {}}}))
    argv = [str(parent), str(same), "--commands", str(commands), "--out", str(out)]
    assert cli_diff.main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["workloads"] == {"tree-sweep": {}}
    record = doc["cli_diff"]
    assert record["identical"] is True
    assert list(record["commands"]) == ["critical --theta 0.75", "pathbound --horizon 4 --theta 0"]
    assert all(isinstance(d, str) and len(d) == 16 for d in record["commands"].values())
    # the version string is in every output, so each command differs
    assert cli_diff.main([str(parent), str(other), "--commands", str(commands), "--out", str(out)]) == 1
    record = json.loads(out.read_text())["cli_diff"]
    assert record["identical"] is False
    for command, digests in record["commands"].items():
        assert set(digests) == {"parent", "change"}
        assert digests["parent"] != digests["change"]


def test_committed_command_list_parses():
    # every line of the byte-identity list must stay a valid rmfperc command
    from rmfperc.cli import build_parser

    commands = cli_diff.read_commands(_PATH.parent / "cli_commands.txt")
    assert len(commands) == len(set(commands))
    parser = build_parser()
    for command in commands:
        args = parser.parse_args(shlex.split(command))
        assert callable(args.func), command
