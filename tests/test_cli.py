import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources

import jsonschema
import pytest

import rmfperc
from rmfperc import theta_critical
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


def test_pathbound_past_the_float_range(tmp_path):
    code, payload = run_cli(["pathbound", "--horizon", "10000", "--theta", "0.5"], tmp_path)
    assert code == 0 and json.loads(payload)["bound"] == "inf"
    validate("pathbound", payload)


def assert_replays(args, tmp_path, capsysbinary):
    """Two runs give the same bytes, and ``--out`` gets the bytes stdout does.
    Returns them."""
    code, first = run_cli(args, tmp_path, "a.out")
    assert code == 0 and first
    assert run_cli(args, tmp_path, "b.out") == (0, first)
    capsysbinary.readouterr()
    assert main(args) == 0
    assert capsysbinary.readouterr().out == first
    return first


def test_tree_sim_replay_byte_identical(tmp_path, capsysbinary):
    args = ["tree-sim", "--theta", "0.5", "--m", "2", "--offspring", "poisson",
            "--horizon", "15", "--replicas", "50", "--cap", "2000", "--seed", "5"]
    validate("tree-sim", assert_replays(args, tmp_path, capsysbinary))


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["tree-martingale", "--theta", "0.4", "--m", "2", "--generations", "4",
                      "--replicas", "200", "--seed", "2"], id="tree-martingale"),
        pytest.param(["lattice-sim", "--theta", "0.45", "--radius", "10", "--replicas", "6",
                      "--seed", "3"], id="lattice-sim"),
        pytest.param(["lattice-sweep", "--grid", "0.3:0.5:0.1", "--radius", "10",
                      "--replicas", "6", "--seed", "4"], id="lattice-sweep-nb"),
        pytest.param(["lattice-sweep", "--mode", "all", "--q", "2", "--grid", "0.3:0.5:0.1",
                      "--radius", "8", "--replicas", "4", "--seed", "4"], id="lattice-sweep-all"),
        pytest.param(["lattice-export", "--q", "2", "--radius", "8", "--grid", "0.5:0.7:0.1",
                      "--seed", "2"], id="lattice-export-grid-json"),
        pytest.param(["lattice-export", "--q", "2", "--mode", "all", "--radius", "8",
                      "--grid", "0.5:0.7:0.1", "--format", "csv", "--seed", "2"],
                     id="lattice-export-grid-csv"),
        pytest.param(["bricklayer", "--q", "inf", "--n-brick", "16", "--depth", "6",
                      "--replicas", "5", "--records", "--seed", "4"], id="bricklayer-records"),
        pytest.param(["bricklayer-check", "--q", "2", "--n-brick", "64", "--theta", "0.9995",
                      "--samples", "3", "--x-max", "3", "--radius", "20", "--seed", "6"],
                     id="bricklayer-check-theta"),
    ],
)
def test_seeded_command_replay_byte_identical(tmp_path, capsysbinary, args):
    assert_replays(args, tmp_path, capsysbinary)


def test_bricklayer_records_good_rle_decodes_to_goodness_grid(tmp_path):
    from rmfperc import BrickConfig, LabelField
    from rmfperc.bricklayer import _goodness_grid
    from oracles import key_of

    seed, depth = 8, 5
    code, payload = run_cli(
        ["bricklayer", "--q", "2", "--n-brick", "64", "--depth", str(depth),
         "--replicas", "4", "--records", "--seed", str(seed)],
        tmp_path,
    )
    assert code == 0
    cfg = BrickConfig(64, 2.0)
    for r, rec in enumerate(json.loads(payload)["replicas_detail"]):
        assert rec["replica"] == r
        field = LabelField(key_of(LabelField(seed), (0x626C, r)))  # the (seed, 0x626C, r) stream
        good = _goodness_grid(field, cfg, depth)[0]
        assert len(rec["good_rle"]) == good.shape[1] == 2 * depth + 1
        for y, (value, *runs) in enumerate(rec["good_rle"]):
            assert sum(runs) == good.shape[0]
            decoded = []
            for run in runs:
                decoded += [value] * run
                value = not value
            assert decoded == good[:, y].tolist()


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


def test_tree_martingale_independent_of_unhit_cap(tmp_path):
    # no replica comes near either cap, so the output must not see it
    base = ["tree-martingale", "--m", "3", "--theta", "0.3", "--generations", "10",
            "--replicas", "2000", "--seed", "1"]
    docs = []
    for cap in ("1000000", "20000"):
        code, payload = run_cli(base + ["--cap", cap], tmp_path)
        assert code == 0
        doc = json.loads(payload)
        doc.pop("cap", None)
        docs.append(doc)
    assert docs[0] == docs[1]


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
        ["tree-sim", "--m", "2", "--horizon", "5", "--replicas", "5", "--theta", "1.5"],
        ["tree-sim", "--m", "2", "--horizon", "5", "--replicas", "5", "--theta", "-0.5"],
        ["tree-sim", "--m", "2", "--offspring", "geometric", "--trials", "3", "--theta", "0.3"],
        ["lattice-sweep", "--grid", "0:inf:0.1", "--radius", "5", "--replicas", "1"],
        ["bricklayer-check", "--x-max", "inf"],
        ["tree-sim", "--m", "inf", "--offspring", "poisson", "--theta", "0.3",
         "--replicas", "2", "--horizon", "2"],
        ["bounds", "--m", "2", "--br", "nan"],
        ["tree-sim", "--m", "2", "--grid", "0.9:1.5:0.3", "--horizon", "3", "--replicas", "5"],
        # 100,001 grid points, one over the limit; the grid is refused before it is built
        ["lattice-sweep", "--grid", "0:1:0.00001", "--radius", "5", "--replicas", "1"],
        ["tree-sim", "--m", "2", "--grid", "0:1:1e-9", "--horizon", "3", "--replicas", "5"],
        ["bricklayer-check", "--q", "inf", "--x-max", "inf"],
        ["bricklayer-check", "--q", "inf", "--x-max", "nan"],
        # a sweep's drifts come from its grid: a --theta it would not read is refused
        ["lattice-sweep", "--grid", "0.3:0.4:0.1", "--radius", "5", "--replicas", "1",
         "--theta", "0.9"],
        ["lattice-export", "--grid", "0.3:0.5:0.1", "--theta", "0.9", "--radius", "5"],
        ["lattice-export", "--theta", "0.5", "--grid", "0.3:0.5:0.1", "--radius", "5"],
        # binomial coefficients past the float range, from 1030 trials on
        ["tree-sim", "--offspring", "binomial", "--trials", "2000", "--m", "2", "--theta", "0.3",
         "--replicas", "1", "--horizon", "1"],
        # integer q whose corner power sum dim * r^q passes the float range
        ["lattice-sim", "--q", "154", "--replicas", "1"],
        ["lattice-sim", "--q", "1000", "--radius", "5"],
        ["lattice-export", "--q", "500", "--radius", "5"],
        ["lattice-sim", "--q", "1e308", "--radius", "5", "--replicas", "2"],
        # past the byte guard: a resource error, not a parameter error
        ["bricklayer", "--depth", "100000"],
        # non-integer q: a float power, or the corner's sum of them, past the range
        ["lattice-sim", "--q", "1100.5", "--radius", "2", "--replicas", "1"],
        ["lattice-sim", "--q", "1023.5", "--radius", "2", "--replicas", "1"],
        ["lattice-export", "--q", "700.5", "--radius", "3"],
    ],
)
def test_bad_sizes_exit_code(tmp_path, args):
    expected = 3 if args == ["bricklayer", "--depth", "100000"] else 2
    assert run_cli(args, tmp_path) == (expected, b"")


@pytest.mark.parametrize("q", ["154", "1e308"])
def test_power_range_refused_before_any_power(tmp_path, capsys, monkeypatch, q):
    # the refusal comes from logs: no power key of the box is computed
    from rmfperc.core import Metric

    def no_powers(self, coords):
        raise AssertionError("a power key was computed")

    monkeypatch.setattr(Metric, "power_key_array", no_powers)
    assert run_cli(["lattice-sim", "--q", q, "--replicas", "2"], tmp_path) == (2, b"")
    err = capsys.readouterr().err
    assert err.startswith(f"parameter error: q={float(q):g} at radius 100 in dimension 2")


def test_power_range_limit_is_exact():
    # dim * r^q is refused exactly where float() of it overflows for integer
    # q, and where the fsum of the corner's float powers does otherwise
    from rmfperc.core import Metric
    from rmfperc.lattice import _check_power_range

    for dim, r in [(1, 2), (2, 2), (3, 2), (2, 3), (2, 10), (3, 100), (4, 4096)]:
        top = int((1024 - math.log2(dim)) / math.log2(r))
        for q in [top + k for k in range(-2, 3)] + [top + k / 8 for k in range(-16, 17, 3)]:
            try:
                if float(q).is_integer():
                    float(dim * r ** int(q))
                else:
                    math.fsum([float(r) ** q] * dim)
                fits = True
            except OverflowError:
                fits = False
            try:
                _check_power_range(Metric(float(q)), r, dim)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == fits, (dim, r, q)


def test_huge_integer_q_runs_on_the_radius_one_box(tmp_path):
    # q >= 2^63: the radius-1 box's power sums hold powers of 0 and 1 only
    code, payload = run_cli(["lattice-sim", "--q", "1e308", "--radius", "1", "--replicas", "1"],
                            tmp_path)
    assert code == 0
    assert json.loads(payload)["q"] == 1e308


@pytest.mark.parametrize("make_out", [
    lambda tmp: tmp / "missing" / "x.json",  # no such directory
    lambda tmp: tmp / "taken",  # an existing directory
])
@pytest.mark.parametrize("args", [
    ["critical", "--theta", "0.75"],
    ["lattice-export", "--radius", "5"],
])
def test_unwritable_out_is_a_parameter_error(tmp_path, capsys, make_out, args):
    (tmp_path / "taken").mkdir()
    out = make_out(tmp_path)
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"parameter error: cannot write --out {out}: ")
    assert list(tmp_path.rglob("*.tmp")) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_cli_runs_without_scipy():
    # scipy and mpmath are test dependencies only: the CLI neither needs
    # nor loads them
    src = os.path.dirname(os.path.dirname(rmfperc.__file__))
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    blocked = subprocess.run(
        [sys.executable, "-c", 'import sys; sys.modules["scipy"] = sys.modules["mpmath"] = None\n'
         'from rmfperc.cli import main; sys.exit(main(["bounds", "--m", "2"]))'],
        env=env, capture_output=True, text=True,
    )
    assert blocked.returncode == 0, blocked.stderr
    assert json.loads(blocked.stdout)["exact"] == theta_critical(2.0)
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, rmfperc.cli\n"
         "print(sorted(k for k in sys.modules if k.split('.')[0] in ('scipy', 'mpmath')))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert loaded.stdout == "[]\n"


def test_grid_at_the_point_limit_is_accepted():
    from rmfperc.cli import _MAX_GRID_POINTS, _parse_grid

    grid = _parse_grid(f"0:{_MAX_GRID_POINTS - 1}:1")
    assert len(grid) == _MAX_GRID_POINTS and grid[-1] == _MAX_GRID_POINTS - 1


@pytest.mark.parametrize("m", ["600", "1e300", "inf"])
def test_bounds_below_drift_floor_exit_code(tmp_path, capsys, m):
    assert run_cli(["bounds", "--m", m], tmp_path) == (2, b"")
    assert "below the supported drift floor 1e-3" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["100", "300", "360"])
def test_bounds_near_drift_floor(tmp_path, m):
    # Q_theta has further real roots ~5*theta above its minimal one here
    code, payload = run_cli(["bounds", "--m", m], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    assert doc["lower"] <= doc["exact"] <= doc["upper"]


def test_resource_guard_exit_code(tmp_path):
    code, _ = run_cli(["lattice-sim", "--radius", "9999", "--replicas", "1"], tmp_path)
    assert code == 3


def test_oversized_coupling_box_exit_code(tmp_path):
    assert run_cli(["bricklayer-check", "--radius", "6000"], tmp_path) == (3, b"")


def test_oversized_brick_range_exit_code(tmp_path):
    # the brick count is found in closed form: nothing is built before the guard
    tracemalloc.start()
    try:
        code = run_cli(["bricklayer-check", "--x-max", "100000"], tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == (3, b"")
    assert peak < 1e6


def test_bricklayer_check_memory_is_bounded(tmp_path):
    # the A_q(n) scan runs in blocks: whole-window arrays peaked at about 25 MB
    args = ["bricklayer-check", "--q", "2", "--n-brick", "64", "--theta", "0.9995", "--samples", "20"]
    tracemalloc.start()
    try:
        code, _ = run_cli(args, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4e6


def test_bricklayer_check_finds_the_threshold_once(tmp_path, monkeypatch):
    # both checks read A_q(n) from the one BrickConfig, which computes it once
    import rmfperc.bricklayer as bricklayer

    compute_A, calls = bricklayer.compute_A, []

    def counting(config):
        calls.append(config)
        return compute_A(config)

    monkeypatch.setattr(bricklayer, "compute_A", counting)
    args = ["bricklayer-check", "--q", "2", "--n-brick", "64", "--theta", "0.9995", "--samples", "2"]
    code, payload = run_cli(args, tmp_path)
    assert code == 0 and json.loads(payload)["distance_threshold"] == 81
    assert len(calls) == 1
    # a new config computes it again: no memo outlives its BrickConfig
    assert bricklayer.BrickConfig(64, 2.0)._threshold == 81
    assert len(calls) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["tree-sim", "--m", "2", "--theta", "0.3", "--cap", "100000000"],
        ["tree-sim", "--m", "2", "--theta", "0.3", "--replicas", "10000000000"],
        ["tree-sim", "--m", "2", "--grid", "0.1:0.3:0.1", "--replicas", "10000000000"],
        ["tree-martingale", "--m", "3", "--theta", "0.3", "--cap", "100000000"],
        ["tree-martingale", "--m", "3", "--theta", "0.3", "--replicas", "100000000"],
        ["bricklayer", "--q", "inf", "--depth", "100000"],
        # the children of one parent, and the count table of a Poisson law
        ["tree-sim", "--offspring", "deterministic", "--m", "1e9", "--theta", "0.3"],
        ["tree-sim", "--offspring", "poisson", "--m", "1e9", "--theta", "0.3"],
        ["tree-sim", "--offspring", "geometric", "--m", "1e9", "--theta", "0.3"],
        # the site dicts of an export, at 320 bytes per box site
        ["lattice-export", "--radius", "2000"],
    ],
)
def test_guards_refuse_before_allocating(tmp_path, args):
    # the need is found in closed form: nothing is built before the guard
    tracemalloc.start()
    try:
        code = run_cli(args, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == (3, b"")
    assert peak < 1e6


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


def test_bad_seed_env_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV_VAR, "abc")
    assert run_cli(["critical", "--theta", "0.5"], tmp_path) == (2, b"")
    assert capsys.readouterr().err == f"parameter error: {SEED_ENV_VAR} must be an integer, got 'abc'\n"


def test_float_serialization_round_trips(tmp_path):
    _, payload = run_cli(["bounds", "--m", "3"], tmp_path)
    assert json.loads(payload)["exact"] == theta_critical(3.0)


def test_partial_results_never_written(tmp_path):
    out = tmp_path / "never.json"
    code = main(["critical", "--theta", "2.0", "--out", str(out)])
    assert code == 2
    assert not out.exists()
