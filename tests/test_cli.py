import json
import math
import os
from importlib import resources

import jsonschema
import pytest

from rmfperc.cli import main, build_parser, DEFAULT_SEED, SEED_ENV_VAR


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def load_schema(name):
    with resources.files("rmfperc.schemas").joinpath(f"{name}.json").open() as fh:
        return json.load(fh)


def validate(name, payload):
    jsonschema.validate(json.loads(payload), load_schema(name))


def test_critical_endpoint(tmp_path):
    code, payload = run_cli(["critical", "--theta", "1.0"], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    assert doc["m_c"] == 1.0
    validate("critical", payload)


def test_bounds_subcommand(tmp_path):
    code, payload = run_cli(["bounds", "--m", "2"], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    assert doc["lower"] == pytest.approx(0.18394, abs=1e-5)
    assert doc["upper"] == pytest.approx(0.29289, abs=1e-5)
    assert doc["lower"] <= doc["exact"] <= doc["upper"]
    validate("bounds", payload)


def test_pathbound_subcommand(tmp_path):
    code, payload = run_cli(["pathbound", "--horizon", "4", "--theta", "0"], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    assert doc["bound"] == pytest.approx(1 / 120, rel=1e-12)
    validate("pathbound", payload)


def test_tree_sim_replay_byte_identical(tmp_path):
    args = ["tree-sim", "--theta", "0.5", "--m", "2", "--offspring", "poisson",
            "--horizon", "15", "--replicas", "50", "--cap", "2000", "--seed", "5"]
    _, first = run_cli(args, tmp_path, "a.json")
    _, second = run_cli(args, tmp_path, "b.json")
    assert first == second
    validate("tree-sim", first)


def test_tree_sim_grid(tmp_path):
    code, payload = run_cli(
        ["tree-sim", "--grid", "0.1:0.5:0.2", "--m", "2", "--offspring",
         "deterministic", "--horizon", "10", "--replicas", "40", "--seed", "3"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(payload)
    assert len(doc["rows"]) == 3
    validate("tree-sim", payload)


def test_tree_martingale(tmp_path):
    code, payload = run_cli(
        ["tree-martingale", "--theta", "0.4", "--m", "2", "--generations", "4",
         "--replicas", "500", "--seed", "2"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(payload)
    assert len(doc["rows"]) == 5
    validate("tree-martingale", payload)
    # per-generation records are also available as CSV
    code, csv_payload = run_cli(
        ["tree-martingale", "--theta", "0.4", "--m", "2", "--generations", "4",
         "--replicas", "500", "--seed", "2", "--format", "csv"],
        tmp_path, "mart.csv",
    )
    assert code == 0
    lines = csv_payload.decode().strip().splitlines()
    assert lines[0] == "generation,w_mean,w_stderr,frontier_mean"
    assert len(lines) == 6


def test_lattice_sim_and_sweep(tmp_path):
    code, payload = run_cli(
        ["lattice-sim", "--theta", "1.0", "--radius", "20", "--replicas", "10"],
        tmp_path,
    )
    assert code == 0
    assert json.loads(payload)["crossing"] == 1.0
    validate("lattice-sim", payload)

    code, payload = run_cli(
        ["lattice-sweep", "--grid", "0:1:0.5", "--radius", "15", "--replicas", "10"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(payload)
    assert [r["theta"] for r in doc["rows"]] == [0.0, 0.5, 1.0]
    validate("lattice-sweep", payload)


def test_lattice_sweep_csv(tmp_path):
    code, payload = run_cli(
        ["lattice-sweep", "--grid", "0:1:1", "--radius", "10", "--replicas", "5",
         "--format", "csv"],
        tmp_path, "out.csv",
    )
    assert code == 0
    lines = payload.decode().strip().splitlines()
    assert lines[0] == "theta,crossing,stderr"
    assert len(lines) == 3


def test_lattice_export_json(tmp_path):
    code, payload = run_cli(
        ["lattice-export", "--theta", "0.6", "--radius", "10", "--q", "2"],
        tmp_path,
    )
    assert code == 0
    validate("lattice-export", payload)
    doc = json.loads(payload)
    assert any(rec["coords"] == [0, 0] for rec in doc["sites"])


def test_lattice_export_min_theta_csv(tmp_path):
    code, payload = run_cli(
        ["lattice-export", "--q", "4", "--radius", "12", "--grid", "0.5:0.6:0.05",
         "--format", "csv", "--seed", "2"],
        tmp_path, "sets.csv",
    )
    assert code == 0
    lines = payload.decode().strip().splitlines()
    assert lines[0] == "c0,c1,label,min_theta"
    assert len(lines) > 1


def test_bricklayer_subcommand(tmp_path):
    code, payload = run_cli(
        ["bricklayer", "--q", "inf", "--n-brick", "16", "--depth", "8",
         "--replicas", "20", "--seed", "4", "--records"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(payload)
    assert 0.0 <= doc["frequency"] <= 1.0
    assert len(doc["replicas_detail"]) == 20
    rec = doc["replicas_detail"][0]
    assert {"replica", "percolates", "good_rle", "witness"} <= set(rec)
    validate("bricklayer", payload)


def test_bricklayer_check_subcommand(tmp_path):
    code, payload = run_cli(
        ["bricklayer-check", "--q", "2", "--n-brick", "64", "--theta", "0.9995",
         "--samples", "5", "--x-max", "3", "--radius", "50", "--seed", "6"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(payload)
    assert doc["distance_gap_ok"] and doc["open_implies_increasing_ok"]
    assert doc["oriented_coupling_ok"]
    assert doc["distance_threshold"] == 81
    validate("bricklayer-check", payload)


def test_parameter_error_exit_code(tmp_path):
    code, _ = run_cli(["critical", "--theta", "1.7"], tmp_path)
    assert code == 2
    code = main(["tree-sim", "--m", "2"])  # neither --theta nor --grid
    assert code == 2


def test_deterministic_offspring_rejects_non_integer_mean(tmp_path):
    base = ["tree-sim", "--offspring", "deterministic", "--theta", "0.3",
            "--horizon", "3", "--replicas", "5"]
    code, payload = run_cli(base + ["--m", "2.6"], tmp_path)
    assert code == 2 and payload == b""
    code, payload = run_cli(base + ["--m", "3"], tmp_path)
    assert code == 0 and json.loads(payload)["mean"] == 3.0


@pytest.mark.parametrize(
    "args",
    [
        ["tree-martingale", "--m", "3", "--theta", "0.3", "--generations", "2",
         "--replicas", "0"],
        ["tree-martingale", "--m", "3", "--theta", "0.3", "--generations", "-1",
         "--replicas", "5"],
        ["tree-sim", "--m", "2", "--offspring", "deterministic", "--theta", "0.3",
         "--cap", "0", "--replicas", "5", "--horizon", "3"],
        ["lattice-sweep", "--grid", "0.9:1.2:0.1", "--radius", "10"],
        ["lattice-sweep", "--grid", "0.3:0.4:0.1", "--radius", "10", "--replicas", "0"],
        ["bricklayer-check", "--theta", "0.9995", "--samples", "0"],
        ["bricklayer-check", "--theta", "0.9995", "--samples", "-2"],
        ["bricklayer-check", "--theta", "0.9995", "--x-max", "1.5"],
        ["bricklayer-check", "--q", "inf", "--theta", "0.9999", "--x-max", "1.5"],
        ["bricklayer-check", "--radius", "0"],
        ["bricklayer-check", "--radius", "-3"],
        ["bricklayer-check", "--q", "3", "--n-brick", "64", "--radius", "20"],
        ["tree-sim", "--m", "2", "--offspring", "binomial", "--trials", "0", "--theta", "0.3",
         "--replicas", "5", "--horizon", "3"],
        ["tree-martingale", "--m", "2", "--offspring", "binomial", "--trials", "0",
         "--theta", "0.3", "--replicas", "5"],
        ["tree-sim", "--m", "2", "--theta", "0.3", "--grid", "0.1:0.2:0.1", "--replicas", "5"],
    ],
)
def test_bad_sizes_exit_code(tmp_path, args):
    assert run_cli(args, tmp_path) == (2, b"")


def test_resource_guard_exit_code(tmp_path):
    code, _ = run_cli(["lattice-sim", "--radius", "9999", "--replicas", "1"], tmp_path)
    assert code == 3


def test_oversized_coupling_box_exit_code(tmp_path):
    assert run_cli(["bricklayer-check", "--radius", "6000"], tmp_path) == (3, b"")


def test_unknown_subcommand_exit_code():
    assert main(["no-such-command"]) == 2


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "777")
    parser = build_parser()
    args = parser.parse_args(["lattice-sim"])
    assert args.seed == 777
    monkeypatch.delenv(SEED_ENV_VAR)
    args = build_parser().parse_args(["lattice-sim"])
    assert args.seed == DEFAULT_SEED


def test_float_serialization_round_trips(tmp_path):
    _, payload = run_cli(["bounds", "--m", "3"], tmp_path)
    doc = json.loads(payload)
    import rmfperc

    assert doc["exact"] == rmfperc.theta_critical(3.0)


def test_partial_results_never_written(tmp_path):
    out = tmp_path / "never.json"
    code = main(["critical", "--theta", "2.0", "--out", str(out)])
    assert code == 2
    assert not out.exists()
