"""Compare two source checkouts on the benchmark, pair by pair.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload tree-sweep \
        --seeds 61:70 --out BENCH_7.json

For each seed in A:B (inclusive) it runs ``python3 perfbench/run.py
--workload W --seed N --seconds S --trace 0`` once in each checkout, one
run at a time; the side that runs first alternates with the seed.  Each
run uses its own checkout's ``perfbench/`` and ``src/``.  The run length
S, the end-to-end metrics and their bounds come from ``BENCHMARK.json``
of the parent checkout.

Per workload and metric the output records the parent and change medians
and quartiles (numpy.percentile, linear), change median / parent median,
IQR / median of each side, and the number of pairs the change wins.
``--workload`` may be repeated; an existing ``--out`` file keeps the
workloads this run does not measure.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="A:B, both included")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split(":"))
    if hi < lo:
        parser.error(f"empty seed range {args.seeds}")
    args.seeds = list(range(lo, hi + 1))
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The summary line of one benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_sha(checkout: Path):
    """HEAD of a git checkout; None for an exported tree."""
    if not (checkout / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6), "q3": round(float(q3), 6)}


def summarise(runs: dict, seeds: list, metrics: list) -> dict:
    """``runs[side]`` lists the summaries of the paired runs, in seed order."""
    out = {
        "seeds": seeds,
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
    }
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        stats = {side: quartiles(values[side]) for side in runs}
        lower = metric["better"] == "lower"
        out[name] = {
            "parent": stats["parent"],
            "change": stats["change"],
            "ratio_change_over_parent": round(stats["change"]["median"] / stats["parent"]["median"], 4),
            "parent_iqr_over_median": round((stats["parent"]["q3"] - stats["parent"]["q1"]) / stats["parent"]["median"], 4),
            "change_iqr_over_median": round((stats["change"]["q3"] - stats["change"]["q1"]) / stats["change"]["median"], 4),
            "change_wins": sum(
                (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
            ),
            "pairs": len(seeds),
            "bound": metric["bound"],
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({
        "what": "rmfperc benchmark, parent commit against this change: alternating pairs of "
                f"`python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace 0` "
                "(the side that runs first alternates with the seed), one run at a time, "
                "quartiles by numpy.percentile (linear)",
        "parent_sha": git_sha(checkouts["parent"]),
        "change_sha": git_sha(checkouts["change"]),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    })
    workloads = doc.setdefault("workloads", {})
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in order:
                summary = run_once(checkouts[side], workload, seed, seconds)
                runs[side].append(summary)
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{m['name']} {summary['metrics'][m['name']]['value']:.4g}"
                                  for m in spec["end_to_end"]), flush=True)
        workloads[workload] = summarise(runs, args.seeds, spec["end_to_end"])
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
