"""Output checks for the benchmark's jobs.

A check raises ``CheckError`` when a job's output bytes break the
command's JSON schema (``src/rmfperc/schemas``) or an invariant that holds
for every seed.  rmfperc and jsonschema are imported on first use, so that
importing this module stays out of the timed set-up.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

# a statistical check fails only beyond this many standard errors
SIGMAS = 5.0


class CheckError(Exception):
    """A job's output is malformed or breaks an invariant."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@functools.lru_cache(maxsize=None)
def _validator(command: str):
    import jsonschema
    import rmfperc

    path = Path(rmfperc.__file__).parent / "schemas" / f"{command}.json"
    require(path.is_file(), f"no schema for command {command!r}")
    return jsonschema.Draft202012Validator(json.loads(path.read_text()))


def _nondecreasing(values) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


class Check:
    """Base check: output is a JSON object valid against its command's
    schema.  Subclasses add invariants on the parsed document."""

    def __call__(self, payload: bytes) -> None:
        try:
            doc = json.loads(payload)
        except ValueError as exc:
            raise CheckError(f"output is not JSON: {exc}") from None
        require(isinstance(doc, dict), "output is not a JSON object")
        for error in _validator(str(doc.get("command"))).iter_errors(doc):
            raise CheckError(f"schema: {error.message}")
        self.invariants(doc)

    def invariants(self, doc: dict) -> None:
        pass


class TreeSweep(Check):
    """Survival is nondecreasing in theta (replica streams are shared across
    the grid) and the crossing lies in the bracket
    [1/(e m), 1 - sqrt(1 - 1/m)] that contains theta_c(m)."""

    def __init__(self, m: float):
        self.lower = 1.0 / (math.e * m)
        self.upper = 1.0 - math.sqrt(1.0 - 1.0 / m)

    def invariants(self, doc):
        thetas = [row["theta"] for row in doc["rows"]]
        require(thetas == sorted(thetas), "grid is not increasing")
        survival = [row["survival"] for row in doc["rows"]]
        require(_nondecreasing(survival), f"survival decreases in theta: {survival}")
        crossing = doc["crossing"]
        require(crossing is not None, "no crossing found on the grid")
        require(
            self.lower <= crossing <= self.upper,
            f"crossing {crossing} outside [{self.lower}, {self.upper}]",
        )


class LatticeSweep(Check):
    """Crossing probability is nondecreasing in theta: nb-mode accessible
    sets are nested in theta and replica fields are shared."""

    def invariants(self, doc):
        crossing = [row["crossing"] for row in doc["rows"]]
        require(_nondecreasing(crossing), f"crossing decreases in theta: {crossing}")


def bricks_up_to(depth: int) -> int:
    """Number of bricks (k, y) with k + y/2 <= depth."""
    return sum(depth - (y + 1) // 2 + 1 for y in range(2 * depth + 1))


class Bricklayer(Check):
    """Every percolating replica has a verified witness, and the observed
    good-brick fraction agrees with the closed-form goodness probability."""

    def invariants(self, doc):
        percolating = round(doc["frequency"] * doc["replicas"])
        require(
            doc["witness_verified"] == percolating,
            f"{doc['witness_verified']} witnesses verified for {percolating} percolating replicas",
        )
        p = doc["good_probability"]
        bricks = doc["replicas"] * bricks_up_to(doc["depth"])
        sigma = math.sqrt(p * (1.0 - p) / bricks)
        observed = doc["good_fraction_observed"]
        require(
            abs(observed - p) <= SIGMAS * sigma,
            f"good fraction {observed} is more than {SIGMAS} sigma from {p}",
        )


class BricklayerCheck(Check):
    """Every coupling check reports ok."""

    def invariants(self, doc):
        flags = {k: v for k, v in doc.items() if k.endswith("_ok")}
        require(bool(flags), "no *_ok flags in output")
        failed = sorted(k for k, v in flags.items() if v is not True)
        require(not failed, f"coupling checks failed: {failed}")


class Critical(Check):
    """For theta in (1/2, 1], Q_theta(x) = 1 - x + x^2 (1-theta)^2 / 2, whose
    minimal root is 2 / (1 + sqrt(1 - 2 (1-theta)^2))."""

    def __init__(self, theta: float):
        require(0.5 < theta <= 1.0, "closed form needs theta in (1/2, 1]")
        self.expected = 2.0 / (1.0 + math.sqrt(1.0 - 2.0 * (1.0 - theta) ** 2))

    def invariants(self, doc):
        require(
            abs(doc["m_c"] - self.expected) <= 1e-9,
            f"m_c {doc['m_c']} differs from closed form {self.expected}",
        )


class Bounds(Check):
    """The exact threshold lies inside its closed-form bracket."""

    def invariants(self, doc):
        require(
            doc["lower"] <= doc["exact"] <= doc["upper"],
            f"exact {doc['exact']} outside [{doc['lower']}, {doc['upper']}]",
        )


class TreeSim(Check):
    """Survival is a probability and truncated replicas count as survivors."""

    def invariants(self, doc):
        survival = doc["survival"]
        require(0.0 <= survival <= 1.0, f"survival {survival} is not a probability")
        survivors = round(survival * doc["replicas"])
        require(
            doc["truncated_replicas"] <= survivors,
            f"{doc['truncated_replicas']} truncated replicas but {survivors} survivors",
        )


class Martingale(Check):
    """The additive martingale's mean stays within its standard-error band
    of the generation-0 mean."""

    def invariants(self, doc):
        rows = doc["rows"]
        first = rows[0]
        for row in rows[1:]:
            band = SIGMAS * math.hypot(row["w_stderr"], first["w_stderr"])
            require(
                abs(row["w_mean"] - first["w_mean"]) <= band,
                f"generation {row['generation']}: mean {row['w_mean']} drifts from "
                f"{first['w_mean']} by more than {band}",
            )


def grid_values(text: str) -> list:
    """Grid points of ``lo:hi:step`` exactly as the CLI generates them."""
    lo, hi, step = (float(part) for part in text.split(":"))
    n = int(round((hi - lo) / step)) + 1
    return [lo + i * step for i in range(n) if lo + i * step <= hi + 1e-12]


class ExportCsv(Check):
    """A min-theta CSV export: it round-trips through ``parse_accessible``
    and ``export_accessible`` byte for byte, contains the origin, and every
    ``min_theta`` is a grid value."""

    def __init__(self, grid: str, dimension: int):
        self.grid = grid_values(grid)
        self.dimension = dimension

    def __call__(self, payload: bytes) -> None:
        from rmfperc.lattice import AccessibleSet, LatticeConfig, export_accessible, parse_accessible

        try:
            parsed = parse_accessible(payload, "csv")
        except (ValueError, IndexError) as exc:
            raise CheckError(f"export does not parse: {exc}") from None
        require((0,) * self.dimension in parsed, "origin missing from the export")
        labels = {site: label for site, (label, _) in parsed.items()}
        min_theta = {site: mt for site, (_, mt) in parsed.items()}
        off_grid = [
            mt for mt in set(min_theta.values())
            if not any(math.isclose(mt, g, rel_tol=0.0, abs_tol=1e-12) for g in self.grid)
        ]
        require(not off_grid, f"min_theta values off the grid: {sorted(off_grid)[:5]}")
        aset = AccessibleSet(LatticeConfig(dimension=self.dimension), labels, {}, False, min_theta)
        require(export_accessible(aset, "csv") == payload, "export does not round-trip")
