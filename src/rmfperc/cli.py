"""Command-line interface: every run echoes its full parameter set, seed
and library version, and identical invocations produce byte-identical
output.  JSON is the default format; CSV is available for curve and set
exports.  Exit codes: 0 success, 2 parameter error, 3 resource guard.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analytic import (
    m_critical,
    path_increase_upper_bound,
    theta_bounds,
    theta_critical,
)
from .bricklayer import (
    BrickConfig,
    distance_gap_check,
    goodness_probability,
    open_implies_increasing_check,
    simulate_bricklayer,
    _brick_ids_up_to,
)
from .core import Metric
from .lattice import (
    LatticeConfig,
    ResourceGuardError,
    accessible_set,
    crossing_probability,
    export_accessible,
    oriented_coupling_check,
    sweep_accessible_min_theta,
    sweep_theta,
)
from .tree import (
    OffspringDistribution,
    estimate_theta_c_tree,
    martingale_trace,
    survival_probability,
)

DEFAULT_SEED = 1729
SEED_ENV_VAR = "RMFPERC_SEED"

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_RESOURCE = 3


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _parse_q(text: str) -> float:
    if text.lower() in ("inf", "infinity", "max"):
        return math.inf
    return float(text)


def _parse_grid(text: str) -> list:
    try:
        lo, hi, step = (float(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like lo:hi:step, got {text!r}"
        ) from None
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad grid bounds {text!r}")
    n = int(round((hi - lo) / step)) + 1
    return [lo + i * step for i in range(n) if lo + i * step <= hi + 1e-12]


def _offspring_from_args(args) -> OffspringDistribution:
    kind = args.offspring
    if kind == "deterministic":
        if not float(args.m).is_integer():
            raise ValueError(f"deterministic offspring needs an integer --m, got {args.m}")
        return OffspringDistribution.deterministic(int(args.m))
    if kind == "poisson":
        return OffspringDistribution.poisson(args.m)
    if kind == "geometric":
        return OffspringDistribution.geometric(args.m)
    if kind == "binomial":
        if args.trials is None or args.trials < 1:
            raise ValueError(f"binomial offspring needs --trials >= 1, got {args.trials}")
        return OffspringDistribution.binomial(args.trials, args.m / args.trials)
    raise ValueError(f"unknown offspring kind {kind!r}")


def _fmt_float(x):
    return float(f"{x:.17g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        if math.isinf(obj):
            return "inf"
        return _fmt_float(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _emit(doc: dict, args) -> None:
    doc = {"version": __version__, **doc}
    if getattr(args, "format", "json") == "csv":
        rows = doc.get("rows")
        if rows is None:
            raise ValueError("csv format is only available for curve/set outputs")
        buf = io.StringIO()
        cols = list(rows[0].keys())
        buf.write(",".join(cols) + "\n")
        for row in rows:
            buf.write(",".join(f"{row[c]:.17g}" if isinstance(row[c], float) else str(row[c]) for c in cols) + "\n")
        payload = buf.getvalue().encode()
    else:
        payload = (json.dumps(_jsonable(doc), indent=1, sort_keys=True) + "\n").encode()
    _write(payload, getattr(args, "out", None))


def _write(payload: bytes, out) -> None:
    """Write to ``out`` atomically (temp file, then rename), or to stdout."""
    if out:
        tmp = out + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, out)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _cmd_critical(args):
    doc = {
        "command": "critical",
        "theta": _fmt_float(args.theta),
        "m_c": m_critical(args.theta),
    }
    _emit(doc, args)


def _cmd_bounds(args):
    report = theta_bounds(args.m, br=args.br)
    doc = {
        "command": "bounds",
        "m": _fmt_float(args.m),
        "br": None if args.br is None else _fmt_float(args.br),
        "lower": report.lower,
        "upper": report.upper,
        "exact": report.exact,
    }
    _emit(doc, args)


def _cmd_pathbound(args):
    doc = {
        "command": "pathbound",
        "h": args.horizon,
        "theta": _fmt_float(args.theta),
        "bound": path_increase_upper_bound(args.horizon, args.theta),
    }
    _emit(doc, args)


def _cmd_tree_sim(args):
    offspring = _offspring_from_args(args)
    if args.grid is not None:
        curve = estimate_theta_c_tree(
            offspring, args.grid, args.horizon, args.replicas, cap=args.cap, seed=args.seed
        )
        doc = {
            "command": "tree-sim",
            "offspring": args.offspring,
            "mean": _fmt_float(offspring.mean),
            "horizon": args.horizon,
            "replicas": args.replicas,
            "cap": args.cap,
            "seed": args.seed,
            "crossing": curve.crossing,
            "rows": curve.rows(),
        }
    else:
        est = survival_probability(
            args.theta, offspring, args.horizon, args.replicas, cap=args.cap, seed=args.seed
        )
        doc = {
            "command": "tree-sim",
            "offspring": args.offspring,
            "mean": _fmt_float(offspring.mean),
            "theta": _fmt_float(args.theta),
            "horizon": args.horizon,
            "replicas": args.replicas,
            "cap": args.cap,
            "seed": args.seed,
            "survival": est.estimate,
            "stderr": est.stderr,
            "truncated_replicas": est.truncated,
        }
    _emit(doc, args)


def _cmd_tree_martingale(args):
    offspring = _offspring_from_args(args)
    trace = martingale_trace(
        offspring.mean,
        args.theta,
        offspring,
        args.generations,
        args.replicas,
        cap=args.cap,
        seed=args.seed,
    )
    doc = {
        "command": "tree-martingale",
        "offspring": args.offspring,
        "m": _fmt_float(offspring.mean),
        "theta": _fmt_float(args.theta),
        "lambda": trace.lam,
        "replicas": args.replicas,
        "seed": args.seed,
        "rows": [
            {
                "generation": g,
                "w_mean": float(trace.means[g]),
                "w_stderr": float(trace.stderrs[g]),
                "frontier_mean": float(trace.frontier_means[g]),
            }
            for g in range(len(trace.means))
        ],
    }
    _emit(doc, args)


def _lattice_config(args) -> LatticeConfig:
    return LatticeConfig(
        dimension=args.dim,
        metric=Metric(args.q),
        mode=args.mode,
        box_radius=args.radius,
        theta=args.theta,
        seed=args.seed,
    )


def _cmd_lattice_sim(args):
    cfg = _lattice_config(args)
    est = crossing_probability(cfg, args.replicas)
    doc = {
        "command": "lattice-sim",
        "dim": cfg.dimension,
        "q": _fmt_float(cfg.metric.q),
        "mode": cfg.mode,
        "radius": cfg.box_radius,
        "theta": _fmt_float(cfg.theta),
        "replicas": args.replicas,
        "seed": cfg.seed,
        "crossing": est.estimate,
        "stderr": est.stderr,
    }
    _emit(doc, args)


def _cmd_lattice_sweep(args):
    cfg = _lattice_config(args)
    rows = sweep_theta(cfg, args.grid, args.replicas)
    doc = {
        "command": "lattice-sweep",
        "dim": cfg.dimension,
        "q": _fmt_float(cfg.metric.q),
        "mode": cfg.mode,
        "radius": cfg.box_radius,
        "replicas": args.replicas,
        "seed": cfg.seed,
        "rows": rows,
    }
    _emit(doc, args)


def _cmd_lattice_export(args):
    cfg = _lattice_config(args)
    if args.grid is not None:
        aset = sweep_accessible_min_theta(cfg, args.grid)
    else:
        aset = accessible_set(cfg)
    _write(export_accessible(aset, args.format), args.out)


def _cmd_bricklayer(args):
    cfg = BrickConfig(args.n_brick, args.q)
    res = simulate_bricklayer(
        cfg, args.depth, args.replicas, seed=args.seed, keep_records=args.records
    )
    doc = {
        "command": "bricklayer",
        "n": cfg.n,
        "q": _fmt_float(cfg.q),
        "depth": args.depth,
        "replicas": args.replicas,
        "seed": args.seed,
        "frequency": res.frequency,
        "stderr": res.stderr,
        "good_probability": goodness_probability(cfg),
        "good_fraction_observed": res.good_fraction,
        "witness_verified": res.witness_verified,
    }
    if args.records:
        doc["replicas_detail"] = list(res.replica_records)
    _emit(doc, args)


def _cmd_bricklayer_check(args):
    cfg = BrickConfig(args.n_brick, args.q)
    ids = [b for b in _brick_ids_up_to(args.x_max) if b.x >= 2]
    doc = {
        "command": "bricklayer-check",
        "n": cfg.n,
        "q": _fmt_float(cfg.q),
        "seed": args.seed,
    }
    if cfg.q != math.inf:
        gap = distance_gap_check(cfg, ids)
        doc["distance_threshold"] = gap.threshold
        doc["distance_gap_ok"] = gap.ok
        doc["distance_gap_min"] = gap.min_gap
        doc["distance_gap_bound"] = gap.bound
    if args.theta is not None:
        rep = open_implies_increasing_check(
            args.theta, cfg, args.samples, seed=args.seed, x_max=args.x_max
        )
        doc["theta"] = _fmt_float(args.theta)
        doc["open_implies_increasing_ok"] = rep.ok
        doc["horizontal_edges_checked"] = rep.horizontal_checked
        doc["vertical_edges_checked"] = rep.vertical_checked
    coupling = oriented_coupling_check(
        args.theta if args.theta is not None else 0.5, args.seed, args.radius
    )
    doc["oriented_coupling_ok"] = coupling.ok
    _emit(doc, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmfperc",
        description="Rough Mount Fuji accessibility percolation: thresholds, "
        "bounds and Monte Carlo simulators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=True):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=_default_seed())

    p = sub.add_parser("critical", help="critical offspring mean m_c(theta)")
    p.add_argument("--theta", type=float, required=True)
    common(p, seed=False)
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("bounds", help="bracket and exact value of theta_c(m)")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--br", type=float, default=None, help="branching number for the general-tree lower bound")
    common(p, seed=False)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("pathbound", help="single-path increasing-probability bound")
    p.add_argument("--horizon", "--h", dest="horizon", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    common(p, seed=False)
    p.set_defaults(func=_cmd_pathbound)

    p = sub.add_parser("tree-sim", help="branching-tree survival probability")
    drift = p.add_mutually_exclusive_group(required=True)
    drift.add_argument("--theta", type=float)
    drift.add_argument("--grid", type=_parse_grid, help="lo:hi:step sweep over theta")
    p.add_argument("--m", type=float, required=True, help="offspring mean")
    p.add_argument("--offspring", choices=("deterministic", "poisson", "binomial", "geometric"), default="poisson")
    p.add_argument("--trials", type=int, default=None, help="binomial trial count")
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--replicas", type=int, default=1000)
    p.add_argument("--cap", type=int, default=10**6)
    common(p)
    p.set_defaults(func=_cmd_tree_sim)

    p = sub.add_parser("tree-martingale", help="additive-martingale trace")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--offspring", choices=("deterministic", "poisson", "binomial", "geometric"), default="poisson")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--generations", type=int, default=10)
    p.add_argument("--replicas", type=int, default=10000)
    p.add_argument("--cap", type=int, default=10**6)
    common(p)
    p.set_defaults(func=_cmd_tree_martingale)

    def lattice_common(p):
        p.add_argument("--theta", type=float, default=0.5)
        p.add_argument("--q", type=_parse_q, default=1.0)
        p.add_argument("--radius", type=int, default=100)
        p.add_argument("--mode", choices=("nb", "all"), default="nb")
        p.add_argument("--dim", type=int, default=2)

    p = sub.add_parser("lattice-sim", help="lattice crossing probability")
    lattice_common(p)
    p.add_argument("--replicas", type=int, default=200)
    common(p)
    p.set_defaults(func=_cmd_lattice_sim)

    p = sub.add_parser("lattice-sweep", help="crossing probability over a theta grid")
    lattice_common(p)
    p.add_argument("--grid", type=_parse_grid, required=True)
    p.add_argument("--replicas", type=int, default=100)
    common(p)
    p.set_defaults(func=_cmd_lattice_sweep)

    p = sub.add_parser("lattice-export", help="export one accessible set (or a min-theta sweep)")
    lattice_common(p)
    p.add_argument("--grid", type=_parse_grid, default=None)
    common(p)
    p.set_defaults(func=_cmd_lattice_export)

    p = sub.add_parser("bricklayer", help="simulate n-bricklayer percolation")
    p.add_argument("--q", type=_parse_q, default=math.inf)
    p.add_argument("--n-brick", type=int, default=64)
    p.add_argument("--depth", type=int, default=50)
    p.add_argument("--replicas", type=int, default=200)
    p.add_argument("--records", action="store_true", help="include per-replica goodness maps")
    common(p)
    p.set_defaults(func=_cmd_bricklayer)

    p = sub.add_parser("bricklayer-check", help="deterministic coupling checks")
    p.add_argument("--q", type=_parse_q, default=2.0)
    p.add_argument("--n-brick", type=int, default=64)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--x-max", type=float, default=4.0)
    p.add_argument("--radius", type=int, default=100)
    common(p)
    p.set_defaults(func=_cmd_bricklayer_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARAM if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, RuntimeError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
