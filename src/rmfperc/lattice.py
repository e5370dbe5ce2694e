"""Accessible-set computation and crossing-probability estimation on Z^n.

A site v is accessible when some lattice path from the origin reaches it
with strictly increasing labels X = U + theta * ||.||_q.  In
non-backtracking ("nb") mode each step must also move strictly further
from the origin, decided on exact power keys ||v||_q^q.  One array engine,
``_levels``, decides accessibility on the whole box for a sorted grid of
drifts; with one drift it is the plain closure.  Non-backtracking sets are
nested in theta, so one call serves a whole grid; sets of mode "all" are
not, so each drift takes its own call.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field as dc_field, replace
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
    "export_accessible",
    "parse_accessible",
]

# guard against runaway memory, in bytes.  The engine holds the whole box.
# tracemalloc peaks per box site at q = 1 and 2, dimensions 2-4 and 10^4 to
# 10^6 sites: 85-120 bytes while ``_Box.of`` builds the distances (157 at
# q = 1.5, 303 at q = 40), 61-81 in ``_levels``, 78 for a whole
# ``crossing_probability`` on a fully reached 2-D box (r = 150, theta = 1).
# ``accessible_set`` adds Python dicts of the reached sites and peaks at
# about 300 there, over this budget.
_BYTES_PER_SITE = 128
_MAX_BOX_BYTES = 2**32


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
        side = self.box_radius + 1 if self.first_orthant else 2 * self.box_radius + 1
        need = side**self.dimension * _BYTES_PER_SITE
        if need > _MAX_BOX_BYTES:
            raise ResourceGuardError(
                f"box with radius {self.box_radius} in dimension "
                f"{self.dimension} needs about {need} bytes, over the guard "
                f"of {_MAX_BOX_BYTES} bytes"
            )


@dataclass
class AccessibleSet:
    """Sites reachable from the origin by an increasing path in the box.

    ``labels`` maps each site to its RMF label and ``predecessors`` to a
    reached in-neighbour over an open edge (None at the origin), so every
    membership carries a verifiable increasing witness chain.
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


def accessible_set(config: LatticeConfig, field: Optional[LabelField] = None) -> AccessibleSet:
    """Forward reachability closure from the origin.

    Edge u -> v exists iff u, v are lattice neighbours inside the box,
    X_u < X_v, and in "nb" mode v is strictly further from the origin
    under the exact distance comparison.
    """
    if field is None:
        field = LabelField(config.seed)
    return _accessible(config, field, [config.theta])[0]


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
    crossings = _crossings(config, [config.theta], replicas)
    return CrossingEstimate(config, replicas, crossings[config.theta])


def _checked_grid(theta_grid) -> list:
    grid = [float(t) for t in theta_grid]
    for th in grid:
        if not (0.0 <= th <= 1.0):
            raise ValueError(f"theta must lie in [0,1], got {th}")
    return grid


def _distinct_sorted(grid: list) -> list:
    """The grid sorted, keeping the first of each run of equal drifts."""
    thetas = sorted(grid)
    return [t for i, t in enumerate(thetas) if i == 0 or t != thetas[i - 1]]


def _edge_views(arr: np.ndarray, step: tuple):
    """Views (at u, at v) of box array ``arr`` over every edge u -> v = u + step."""
    axis = next(i for i, c in enumerate(step) if c)
    lo = [slice(None)] * arr.ndim
    hi = [slice(None)] * arr.ndim
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    lo, hi = tuple(lo), tuple(hi)
    return (arr[lo], arr[hi]) if step[axis] > 0 else (arr[hi], arr[lo])


@dataclass(frozen=True)
class _Box:
    """Geometry shared across label fields: the box's sites in C order,
    their distances, per step direction the edges a path may take (in
    "nb" mode those that move strictly further from the origin under exact
    power keys, in mode "all" every edge), and the crossing sites
    (||v||_q >= box_radius)."""

    coords: np.ndarray
    offset: int
    norms: np.ndarray
    further: tuple
    crossing: np.ndarray

    @classmethod
    def of(cls, config: LatticeConfig) -> "_Box":
        r, dim = config.box_radius, config.dimension
        offset = 0 if config.first_orthant else r
        shape = (r + 1 + offset,) * dim
        coords = np.indices(shape).reshape(dim, -1).T - offset
        if config.mode == "nb":
            keys = config.metric.power_key_array(coords).reshape(shape)
            further = [kv > ku for ku, kv in (_edge_views(keys, s) for s in _steps(dim))]
        else:
            anywhere = np.ones(shape, dtype=bool)
            further = [_edge_views(anywhere, s)[0] for s in _steps(dim)]
        norms = config.metric.norm_array(coords).reshape(shape)
        return cls(coords, offset, norms, tuple(further), norms >= r)

    def uniforms(self, field: LabelField) -> np.ndarray:
        return field.uniform_array(self.coords).reshape(self.norms.shape)


def _levels(box: _Box, u: np.ndarray, thetas: list):
    """For every site of the box, the smallest index k into the sorted
    distinct drifts ``thetas`` at which the site is accessible, or K =
    len(thetas) if it never is; also, per step direction, each edge's
    level.  ``u`` holds the box's uniforms.

    Edge u -> v is open at theta_k iff ``box.further`` allows it and
    fl(U_v + theta_k*n_v) > fl(U_u + theta_k*n_u).  Its level is the
    number of grid drifts at which it is closed; a site's level is the min
    over paths from the origin of the max edge level, relaxed to a
    fixpoint.  Raises if an edge's openness is not monotone in theta over
    the grid, as it can be in mode "all", whose sets are not nested in
    theta and so take one drift per call.
    """
    shape = u.shape
    steps = _steps(len(shape))
    dtype = np.min_scalar_type(len(thetas))
    edges = [np.zeros(f.shape, dtype=dtype) for f in box.further]
    for k, th in enumerate(thetas):
        x = u + th * box.norms
        for step, further, level in zip(steps, box.further, edges):
            xu, xv = _edge_views(x, step)
            closed = ~((xv > xu) & further)
            if (closed & (level != k)).any():
                raise RuntimeError(
                    f"an edge open at a smaller grid drift is closed at theta={th}: "
                    "openness is not monotone over the grid"
                )
            level += closed
    lvl = np.full(shape, len(thetas), dtype=dtype)
    lvl[(box.offset,) * len(shape)] = 0
    while True:
        before = lvl.copy()
        for step, level in zip(steps, edges):
            lu, lv = _edge_views(lvl, step)
            np.minimum(lv, np.maximum(lu, level), out=lv)
        if np.array_equal(before, lvl):
            return lvl, edges


def _accessible(config: LatticeConfig, field: LabelField, thetas: list):
    """The accessible set at drift ``thetas[-1]`` = ``config.theta`` and,
    in the set's order, each site's smallest index into the sorted
    distinct drifts ``thetas`` at which it was accessible.  The drifts
    take the batches of ``_crossings``: one ``_levels`` call in "nb" mode,
    one per drift in mode "all"; the set is built once, from the last.

    A site's predecessor is a reached in-neighbour over an edge open at
    the last drift, picked by one pass per step direction (a later
    direction replaces an earlier one); the labels strictly decrease along
    predecessors, so every chain ends at the origin.
    """
    box = _Box.of(config)
    u = box.uniforms(field)
    first = np.full(box.norms.shape, len(thetas), dtype=np.min_scalar_type(len(thetas)))
    done = 0
    for batch in [thetas] if config.mode == "nb" else [[th] for th in thetas]:
        lvl, edges = _levels(box, u, batch)
        np.minimum(first, done + lvl.astype(first.dtype), out=first, where=lvl < len(batch))
        done += len(batch)
    top = len(batch) - 1
    reached = lvl <= top
    steps = _steps(config.dimension)
    came_by = np.full(lvl.shape, len(steps), dtype=np.uint8)  # index into moves
    for d, (step, level) in enumerate(zip(steps, edges)):
        _edge_views(came_by, step)[1][_edge_views(reached, step)[0] & (level <= top)] = d
    moves = np.array(steps + [(0,) * config.dimension])
    at = np.flatnonzero(reached)  # C order: sorted coordinates
    coords = box.coords[at]
    came_from = np.searchsorted(
        at, np.ravel_multi_index((coords - moves[came_by.ravel()[at]] + box.offset).T, lvl.shape)
    )
    x = u.ravel()[at] + thetas[-1] * box.norms.ravel()[at]
    levels = first.ravel()[at]
    frontier_reached = bool(box.crossing.ravel()[at].any())
    # the site dicts dominate the peak: release the box arrays first
    del box, u, first, lvl, edges, reached, came_by, at

    sites = list(zip(*coords.T.tolist()))
    labels = dict(zip(sites, x.tolist()))
    predecessors = dict(zip(sites, map(sites.__getitem__, came_from)))
    predecessors[(0,) * config.dimension] = None  # its zero move pointed at itself
    return AccessibleSet(config, labels, predecessors, frontier_reached), levels


def _crossings(config: LatticeConfig, thetas: list, replicas: int) -> dict:
    """Per sorted distinct drift, the number of replicas whose accessible
    set touches ||v||_q >= box_radius.  Replica i uses the field derived
    from (config.seed, i).  "nb" sets are nested in theta, so one
    ``_levels`` call per replica decides every drift: the replica crosses
    at theta_k iff some crossing site has level <= k.  Mode "all" takes
    one call per drift."""
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    box = _Box.of(config)
    base = LabelField(config.seed)
    batches = [thetas] if config.mode == "nb" else [[th] for th in thetas]
    crossings = dict.fromkeys(thetas, 0)
    for i in range(replicas):
        u = box.uniforms(LabelField(base.key_of((0x6C61, i))))
        for batch in batches:
            lvl, _ = _levels(box, u, batch)
            for th in batch[lvl[box.crossing].min(initial=len(batch)):]:
                crossings[th] += 1
    return crossings


def sweep_theta(config: LatticeConfig, theta_grid, replicas: int):
    """Crossing estimate per grid drift, sharing replica fields across the
    grid (and with ``crossing_probability``).  Returns a list of dicts
    (theta, crossing, stderr) in grid order."""
    grid = _checked_grid(theta_grid)
    crossings = _crossings(config, _distinct_sorted(grid), replicas)
    ests = [CrossingEstimate(config, replicas, crossings[th]) for th in grid]
    return [
        {"theta": th, "crossing": est.estimate, "stderr": est.stderr}
        for th, est in zip(grid, ests)
    ]


def sweep_accessible_min_theta(config: LatticeConfig, theta_grid) -> AccessibleSet:
    """Accessible set at the largest grid drift, annotated per site with
    the smallest grid drift at which it was already accessible (well
    defined in "nb" mode, where sets are nested in theta).

    In "nb" mode one ``_levels`` call over the grid supplies the set at
    the largest drift and every site's min drift; mode "all" takes one
    call per grid drift on the same box and uniforms.
    """
    thetas = _distinct_sorted(_checked_grid(theta_grid))
    if not thetas:
        raise ValueError("theta grid must be nonempty")
    field = LabelField(config.seed)
    final, levels = _accessible(replace(config, theta=thetas[-1]), field, thetas)
    final.min_theta = dict(zip(final.labels, [thetas[k] for k in levels.tolist()]))
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
    LatticeConfig(dimension=2, metric=Metric(1), box_radius=box_radius, theta=theta,
                  seed=seed, first_orthant=True)  # validates the inputs and the box size
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
