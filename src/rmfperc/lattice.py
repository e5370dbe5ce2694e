"""Accessible-set computation and crossing-probability estimation on Z^n.

A site v is accessible when some lattice path from the origin reaches it
with strictly increasing labels X = U + theta * ||.||_q.  In
non-backtracking mode each step must also move strictly further from the
origin, decided on exact integer ||v||_q^q for integer q.  Since labels
strictly increase along every edge of the reachability graph, the graph is
acyclic and a plain breadth-first closure finalises each site exactly once.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field as dc_field, replace
from collections import deque
from typing import Optional

import numpy as np

from .core import LabelField, Metric

__all__ = [
    "LatticeConfig",
    "AccessibleSet",
    "CrossingEstimate",
    "accessible_set",
    "crossing_probability",
    "sweep_theta",
    "sweep_accessible_min_theta",
    "oriented_coupling_check",
    "lattice_first_moment_bound",
    "export_accessible",
    "parse_accessible",
]

# guard against runaway memory: sites in the bounding box, sized so that
# radius 5000 in 2D is the largest admissible square box
_MAX_BOX_SITES = (2 * 5000 + 1) ** 2


class ResourceGuardError(RuntimeError):
    """Raised when a requested box would exceed the memory guard."""


@dataclass(frozen=True)
class LatticeConfig:
    """Exploration parameters for one accessible-set computation.

    ``mode`` is "nb" (non-backtracking: each step strictly increases the
    l^q distance to the origin) or "all" (any simple path).  The box is
    the sup-norm ball of radius ``box_radius``; crossing means touching
    ||v||_q >= box_radius.  ``first_orthant`` restricts exploration to
    nonnegative coordinates.
    """

    dimension: int = 2
    metric: Metric = dc_field(default_factory=lambda: Metric(1.0))
    mode: str = "nb"
    box_radius: int = 50
    theta: float = 0.5
    seed: int = 0
    first_orthant: bool = False

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.mode not in ("nb", "all"):
            raise ValueError(f"mode must be 'nb' or 'all', got {self.mode!r}")
        if self.box_radius < 1:
            raise ValueError(f"box_radius must be >= 1, got {self.box_radius}")
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0,1], got {self.theta}")
        if (2 * self.box_radius + 1) ** self.dimension > _MAX_BOX_SITES:
            raise ResourceGuardError(
                f"box with radius {self.box_radius} in dimension "
                f"{self.dimension} exceeds the site guard of {_MAX_BOX_SITES}"
            )


@dataclass
class AccessibleSet:
    """Sites reachable from the origin by an increasing path in the box.

    ``labels`` maps each site to its RMF label and ``predecessors`` to the
    in-neighbour through which it was first reached (None at the origin),
    so every membership carries a verifiable increasing witness chain.
    ``min_theta`` is filled by sweeps: the smallest grid drift at which
    the site became accessible.
    """

    config: LatticeConfig
    labels: dict
    predecessors: dict
    frontier_reached: bool
    min_theta: Optional[dict] = None

    @property
    def sites(self):
        return self.labels.keys()

    def __len__(self):
        return len(self.labels)

    def witness_path(self, site) -> list:
        path = [site]
        while self.predecessors[path[-1]] is not None:
            path.append(self.predecessors[path[-1]])
        path.reverse()
        return path


def _steps(dimension: int):
    steps = []
    for axis in range(dimension):
        for delta in (1, -1):
            e = [0] * dimension
            e[axis] = delta
            steps.append(tuple(e))
    return steps


def accessible_set(
    config: LatticeConfig,
    field: Optional[LabelField] = None,
    stop_at_crossing: bool = False,
) -> AccessibleSet:
    """Forward reachability closure from the origin.

    Edge u -> v exists iff u, v are lattice neighbours inside the box,
    X_u < X_v, and in "nb" mode v is strictly further from the origin
    under the exact distance comparison.  ``stop_at_crossing`` ends the
    expansion once any site with ||v||_q >= box_radius is reached (used
    by crossing-probability estimation).
    """
    if field is None:
        field = LabelField(config.seed)
    metric = config.metric
    theta = config.theta
    radius = config.box_radius
    dim = config.dimension
    nb = config.mode == "nb"
    steps = _steps(dim)

    origin = (0,) * dim
    u0 = field.uniform_at(origin)
    labels = {origin: u0}
    power_keys = {origin: metric.power_key(origin)}
    predecessors = {origin: None}
    frontier_reached = radius <= 0
    queue = deque([origin])
    while queue:
        u = queue.popleft()
        xu = labels[u]
        pu = power_keys[u]
        for step in steps:
            v = tuple(a + b for a, b in zip(u, step))
            if v in labels:
                continue
            if config.first_orthant and any(c < 0 for c in v):
                continue
            if any(abs(c) > radius for c in v):
                continue
            pv = metric.power_key(v)
            if nb and not pv > pu:
                continue
            nv = metric.norm(v)
            xv = field.uniform_at(v) + theta * nv
            if not xv > xu:
                continue
            labels[v] = xv
            power_keys[v] = pv
            predecessors[v] = u
            if nv >= radius:
                frontier_reached = True
                if stop_at_crossing:
                    queue.clear()
                    break
            queue.append(v)
    return AccessibleSet(config, labels, predecessors, frontier_reached)


@dataclass(frozen=True)
class CrossingEstimate:
    config: LatticeConfig
    replicas: int
    crossings: int

    @property
    def estimate(self) -> float:
        return self.crossings / self.replicas

    @property
    def stderr(self) -> float:
        p = self.estimate
        return math.sqrt(p * (1.0 - p) / self.replicas)


def crossing_probability(config: LatticeConfig, replicas: int) -> CrossingEstimate:
    """Fraction of independent label fields whose accessible set touches
    ||v||_q >= box_radius.  Replica i uses the field derived from
    (config.seed, i)."""
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    base = LabelField(config.seed)
    crossings = 0
    for i in range(replicas):
        field = LabelField(base.key_of((0x6C61, i)))
        aset = accessible_set(config, field=field, stop_at_crossing=True)
        crossings += aset.frontier_reached
    return CrossingEstimate(config, replicas, crossings)


def sweep_theta(config: LatticeConfig, theta_grid, replicas: int):
    """Crossing estimate per grid drift, sharing replica fields across the
    grid.  Returns a list of dicts (theta, crossing, stderr)."""
    rows = []
    for th in theta_grid:
        est = crossing_probability(replace(config, theta=float(th)), replicas)
        rows.append(
            {"theta": float(th), "crossing": est.estimate, "stderr": est.stderr}
        )
    return rows


def sweep_accessible_min_theta(config: LatticeConfig, theta_grid) -> AccessibleSet:
    """Accessible set at the largest grid drift, annotated per site with
    the smallest grid drift at which it was already accessible (well
    defined in "nb" mode, where sets are nested in theta)."""
    thetas = sorted(float(t) for t in theta_grid)
    field = LabelField(config.seed)
    min_theta = {}
    final = None
    for th in thetas:
        final = accessible_set(replace(config, theta=th), field=field)
        for site in final.labels:
            min_theta.setdefault(site, th)
    final.min_theta = min_theta
    return final


def oriented_reach(open_: np.ndarray) -> np.ndarray:
    """Sites of a 2-D boolean grid reachable from [0, 0] through open sites
    by unit steps that increase either index:

        reach[i, j] = open[i, j] & (reach[i-1, j] | reach[i, j-1]).

    Column j is one vectorised scan: a site is reached iff some seed (an
    open site entered from column j-1, or the origin) lies after the last
    closed site at or above it.
    """
    reach = np.zeros(open_.shape, dtype=bool)
    rows = np.arange(open_.shape[0])
    entered = np.zeros(open_.shape[0], dtype=bool)
    entered[:1] = True  # the origin seeds column 0
    for j in range(open_.shape[1]):
        col = open_[:, j]
        last_seed = np.maximum.accumulate(np.where(col & entered, rows, -1))
        last_closed = np.maximum.accumulate(np.where(col, -1, rows))
        reach[:, j] = last_seed > last_closed
        entered = reach[:, j]
    return reach


@dataclass(frozen=True)
class CouplingCheckReport:
    ok: bool
    theta: float
    seed: int
    box_radius: int
    open_sites: int
    cluster_size: int
    violation: Optional[tuple] = None


def oriented_coupling_check(theta: float, seed: int, box_radius: int) -> CouplingCheckReport:
    """Deterministic check of the open-site coupling on the first quadrant
    of Z^2 with the graph (l^1) distance: a site is open iff U_v < theta,
    and every up/right step out of an open site must increase the RMF
    label.  Also grows the oriented open cluster from the origin and
    confirms every edge used is label-increasing.  Contractually returns
    ok=True; a violation would come with an explicit witness edge.
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0,1], got {theta}")
    field = LabelField(seed)
    r = box_radius
    coords = np.stack(np.meshgrid(np.arange(r + 2), np.arange(r + 2), indexing="ij"), axis=-1)
    u = field.uniform_array(coords.reshape(-1, 2)).reshape(r + 2, r + 2)
    dist = coords[..., 0] + coords[..., 1]
    x = u + theta * dist

    inner = np.s_[: r + 1, : r + 1]
    open_site = u[inner] < theta
    right_ok = x[1 : r + 2, : r + 1] > x[inner]
    up_ok = x[: r + 1, 1 : r + 2] > x[inner]
    bad = open_site & ~(right_ok & up_ok)
    violation = None
    if bad.any():
        i, j = np.argwhere(bad)[0]
        violation = (int(i), int(j))

    return CouplingCheckReport(
        ok=violation is None,
        theta=theta,
        seed=seed,
        box_radius=box_radius,
        open_sites=int(open_site.sum()),
        cluster_size=int(oriented_reach(open_site).sum()),
        violation=violation,
    )


def lattice_first_moment_bound(
    h: int,
    theta: float,
    max_degree: Optional[int] = None,
    out_degree: Optional[int] = None,
) -> float:
    """First-moment bound on the probability of an increasing path of
    length h on a bounded-degree graph:

        Delta * (Delta-1)^(h-1) * (1 + theta*h)^(h+1) / (h+1)!

    With ``out_degree`` given instead, the path count is out_degree^h
    (non-backtracking paths in one orthant of Z^n have out-degree n).
    """
    if (max_degree is None) == (out_degree is None):
        raise ValueError("supply exactly one of max_degree or out_degree")
    if h < 1:
        raise ValueError("h must be >= 1")
    if max_degree is not None:
        if max_degree < 2:
            raise ValueError("max_degree must be >= 2")
        log_count = math.log(max_degree) + (h - 1) * math.log(max_degree - 1)
    else:
        if out_degree < 1:
            raise ValueError("out_degree must be >= 1")
        log_count = h * math.log(out_degree)
    return math.exp(log_count + (h + 1) * math.log1p(theta * h) - math.lgamma(h + 2))


def export_accessible(aset: AccessibleSet, fmt: str = "json") -> bytes:
    """Serialise an accessible set, one record per site (coordinates,
    label, and the sweep's min-theta annotation when present)."""
    cfg = aset.config
    has_min = aset.min_theta is not None
    sites = sorted(aset.labels)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        header = [f"c{i}" for i in range(cfg.dimension)] + ["label"]
        if has_min:
            header.append("min_theta")
        writer.writerow(header)
        for site in sites:
            row = list(site) + [repr(aset.labels[site])]
            if has_min:
                row.append(repr(aset.min_theta[site]))
            writer.writerow(row)
        return buf.getvalue().encode()
    if fmt == "json":
        doc = {
            "dimension": cfg.dimension,
            "q": "inf" if cfg.metric.q == math.inf else cfg.metric.q,
            "mode": cfg.mode,
            "box_radius": cfg.box_radius,
            "theta": cfg.theta,
            "seed": cfg.seed,
            "frontier_reached": aset.frontier_reached,
            "sites": [
                {
                    "coords": list(site),
                    "label": aset.labels[site],
                    **({"min_theta": aset.min_theta[site]} if has_min else {}),
                }
                for site in sites
            ],
        }
        return json.dumps(doc, indent=1).encode()
    raise ValueError(f"unknown format {fmt!r}")


def parse_accessible(data: bytes, fmt: str = "json"):
    """Inverse of export_accessible: site -> (label, min_theta or None)."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        header, body = rows[0], rows[1:]
        ncoord = sum(1 for name in header if name.startswith("c"))
        has_min = "min_theta" in header
        return {
            tuple(int(c) for c in row[:ncoord]): (
                float(row[ncoord]),
                float(row[ncoord + 1]) if has_min else None,
            )
            for row in body
        }
    if fmt == "json":
        doc = json.loads(data.decode())
        return {
            tuple(rec["coords"]): (rec["label"], rec.get("min_theta"))
            for rec in doc["sites"]
        }
    raise ValueError(f"unknown format {fmt!r}")
