"""The benchmark's workloads: lists of README CLI jobs built from a seed.

Every job is one ``rmfperc`` command line.  The workload seed becomes each
stochastic job's ``--seed``; the analytic jobs take no seed and are the
same for every seed.  Sizes are scaled down from the README examples so
that one pass over a job list takes two to three seconds on a 2-core
machine, which lets a run repeat the list and report a median.

This module imports nothing heavy: building the job list is part of the
timed set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import checks

WORKLOADS = ("tree-sweep", "lattice-sweep", "bricklayer", "fixed-theta")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the checks its output must pass."""

    argv: tuple
    check: checks.Check
    out: Optional[str] = None  # file name for --out; None captures stdout

    @property
    def command(self) -> str:
        return self.argv[0]


def _seeded(seed: int, *argv) -> tuple:
    return tuple(str(a) for a in argv) + ("--seed", str(seed))


def jobs(workload: str, seed: int) -> list:
    """The job list of ``workload`` for workload seed ``seed``."""
    if workload == "tree-sweep":
        return [
            Job(
                _seeded(seed, "tree-sim", "--m", 2, "--offspring", "deterministic",
                        "--grid", "0.14:0.30:0.01", "--horizon", 50,
                        "--cap", 1000, "--replicas", 800),
                checks.TreeSweep(m=2),
            )
        ]
    if workload == "lattice-sweep":
        return [
            Job(
                _seeded(seed, "lattice-sweep", "--q", 1, "--mode", "nb",
                        "--radius", 30, "--grid", "0.25:0.43:0.03", "--replicas", 60),
                checks.LatticeSweep(),
            )
        ]
    if workload == "bricklayer":
        return [
            Job(
                _seeded(seed, "bricklayer", "--q", "inf", "--n-brick", 64,
                        "--depth", 50, "--replicas", 40),
                checks.Bricklayer(),
            ),
            Job(
                _seeded(seed, "bricklayer-check", "--q", 2, "--n-brick", 64,
                        "--theta", 0.9995, "--samples", 20),
                checks.BricklayerCheck(),
            ),
        ]
    if workload == "fixed-theta":
        grid = "0.45:0.54:0.03"
        return [
            Job(("critical", "--theta", "0.75"), checks.Critical(theta=0.75)),
            *(Job(("bounds", "--m", str(m)), checks.Bounds()) for m in (2, 5, 10, 20, 50)),
            Job(("pathbound", "--horizon", "10", "--theta", "0.3"), checks.Check()),
            Job(
                _seeded(seed, "tree-sim", "--m", 2, "--offspring", "deterministic",
                        "--theta", 0.25, "--replicas", 300, "--cap", 20000),
                checks.TreeSim(),
            ),
            # default cap: the replica chunk shrinks to 32, the chunk-size cliff
            Job(
                _seeded(seed, "tree-sim", "--m", 2, "--offspring", "deterministic",
                        "--theta", 0.2, "--replicas", 2000),
                checks.TreeSim(),
            ),
            Job(
                _seeded(seed, "tree-martingale", "--m", 3, "--theta", 0.3,
                        "--generations", 10, "--replicas", 2000),
                checks.Martingale(),
            ),
            Job(
                _seeded(seed, "lattice-export", "--q", 2, "--mode", "all",
                        "--radius", 60, "--grid", grid, "--format", "csv"),
                checks.ExportCsv(grid=grid, dimension=2),
                out="sets.csv",
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
