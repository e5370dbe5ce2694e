"""Accessible-set computation and crossing-probability estimation on Z^n.

A site v is accessible when some lattice path from the origin reaches it
with strictly increasing labels X = U + theta * ||.||_q.  In
non-backtracking ("nb") mode each step must also move strictly further
from the origin, decided from the coordinate it changes.  One array engine,
``_levels``, decides accessibility on the whole box for a sorted grid of
drifts and a batch of replicas stacked along a leading axis; with one
drift and one replica it is the plain closure.  Non-backtracking sets are
nested in theta, so one call serves a whole grid, and every allowed step
raises ||v||_1 by one, so one pass over the l1 shells settles the box,
stopping at the first shell no replica reaches.  Sets of mode "all" are
neither nested nor graded: each drift takes its own call, relaxed to a
fixpoint.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .core import LabelField, Metric, _guard_bytes

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

# bytes per box site for the memory guard: the engine holds the whole box
# and one replica's arrays.  tracemalloc peaks per box site at q = 1, 1.5,
# 2, 40 and inf, dimensions 2-4 and 2*10^5 to 10^6 sites: ``_Box.of``
# peaks at 56-60 bytes in 2-D, 66-70 in 3-D and 76-80 in 4-D in "nb" mode
# (17-50 in mode "all"), as ``Metric.norm_array`` takes its power sums in
# blocks of 2^14 sites; a box of 10^4 sites peaks higher, up to 236, on one
# block's lists.  An "nb" box then keeps 33 in 2-D, 43 in 3-D and 53 in 4-D
# with its int32 shell tables (9 in mode "all"), and ``crossing_probability``
# with one replica peaks at 73, 83 and 93-102 (49-58 in mode "all").
# ``accessible_set`` adds Python dicts of the reached sites and peaks at
# about 300 on a fully reached 2-D box, so ``_accessible`` budgets 320 per
# box site.
_BYTES_PER_SITE = 128

# replica batches of ``_crossings``: at most BATCH_BYTES of per-replica
# arrays (uniforms, drifted labels, edge and site levels) per batch, and at
# least one replica.  A replica-site peaks at 19-26 bytes over the first
# replica (tracemalloc, 2-D and 3-D, 1-300 drifts, uint16 levels included);
# the budget counts 32.  Timed on 2 cores over budgets of 1-128 MiB
# (lattice-sweep job, r = 100 at theta = 0.25 and 0.45 with 100 replicas, a
# 3-D sweep, a mode-"all" sweep), 32 MiB was fastest or within noise of it
# everywhere; 1 MiB, one replica per batch at r = 100, took 2-3 times as
# long.
BATCH_BYTES = 2**25
_BYTES_PER_REPLICA_SITE = 32

# hash-stream tag of the replicas of crossing estimates and sweeps
_CROSSING_TAG = 0x6C61


@dataclass(frozen=True)
class LatticeConfig:
    """The box and label field of a lattice computation; the drift is an
    argument of each engine.

    ``mode`` is "nb" (non-backtracking: each step strictly increases the
    l^q distance to the origin) or "all" (any simple path).  The box is
    the sup-norm ball of Z^dimension of radius ``box_radius`` about the
    origin, every orthant included; crossing means touching
    ||v||_q >= box_radius.  The engines raise ``ResourceGuardError`` when
    the box would pass the memory guard.
    """

    dimension: int = 2
    metric: Metric = dc_field(default_factory=lambda: Metric(1.0))
    mode: str = "nb"
    box_radius: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.mode not in ("nb", "all"):
            raise ValueError(f"mode must be 'nb' or 'all', got {self.mode!r}")
        if self.box_radius < 1:
            raise ValueError(f"box_radius must be >= 1, got {self.box_radius}")


@dataclass
class AccessibleSet:
    """Sites reachable from the origin by an increasing path in the box.

    ``labels`` maps each site to its RMF label and ``predecessors`` to a
    reached in-neighbour over an open edge (None at the origin), so every
    membership carries a verifiable increasing witness chain.
    ``min_theta`` is filled by sweeps: the smallest grid drift at which
    the site became accessible.  ``theta`` is the drift it was built at.
    """

    config: LatticeConfig
    labels: dict
    predecessors: dict
    frontier_reached: bool
    min_theta: Optional[dict] = None
    theta: Optional[float] = None

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


def accessible_set(config: LatticeConfig, theta: float,
                   field: Optional[LabelField] = None) -> AccessibleSet:
    """Forward reachability closure from the origin at drift ``theta``.

    Edge u -> v exists iff u, v are lattice neighbours inside the box,
    X_u < X_v, and in "nb" mode v is strictly further from the origin:
    the step raises the |coordinate| it changes (max|coordinate| for
    q = inf).
    """
    thetas = _checked_grid([theta])
    if field is None:
        field = LabelField(config.seed)
    return _accessible(config, field, thetas)[0]


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


def crossing_probability(config: LatticeConfig, theta: float, replicas: int) -> CrossingEstimate:
    """Fraction of independent label fields whose accessible set at drift
    ``theta`` touches ||v||_q >= box_radius.  Replica i uses the field
    derived from (config.seed, i)."""
    thetas = _checked_grid([theta])
    crossings = _crossings(config, thetas, replicas)
    return CrossingEstimate(config, replicas, crossings[thetas[0]])


def _checked_grid(theta_grid) -> list:
    """The drifts as floats; the one drift check of the lattice engines."""
    grid = [float(t) for t in theta_grid]
    for th in grid:
        if not (0.0 <= th <= 1.0):
            raise ValueError(f"theta must lie in [0,1], got {th}")
    return grid


def _distinct_sorted(grid: list) -> list:
    """The grid sorted, keeping the first of each run of equal drifts."""
    thetas = sorted(grid)
    return [t for i, t in enumerate(thetas) if i == 0 or t != thetas[i - 1]]


def _batches(mode: str, thetas: list) -> list:
    """The drifts of each ``_levels`` call: all of them in "nb" mode, whose
    sets are nested in theta, and one per call in mode "all"."""
    return [thetas] if mode == "nb" else [[th] for th in thetas]


def _edge_views(arr: np.ndarray, step: tuple):
    """Views (at u, at v) of ``arr`` over every edge u -> v = u + step of the
    box spanned by its last len(step) axes; leading axes (replicas,
    directions) are kept."""
    i = next(i for i, c in enumerate(step) if c)
    axis = arr.ndim - len(step) + i
    lo = [slice(None)] * arr.ndim
    hi = [slice(None)] * arr.ndim
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    lo, hi = tuple(lo), tuple(hi)
    return (arr[lo], arr[hi]) if step[i] > 0 else (arr[hi], arr[lo])


@dataclass(frozen=True)
class _Box:
    """Geometry shared across label fields: the box's sites in C order,
    their distances, the crossing sites (||v||_q >= box_radius) and, in
    "nb" mode, per step direction the edges a path may take: those that
    move strictly further from the origin.  A unit step changes one
    coordinate, so for finite q it moves further iff it raises that
    |coordinate|, and for q = inf iff it raises max|coordinate|; no power
    sum is compared.  ``offset`` is the box radius, the origin's index
    along every axis.  In mode "all", where a path may take every edge of
    the box, ``further`` and the shell tables are None.

    An "nb" box is graded by l1 shells: every allowed step raises ||v||_1
    by one.  ``order`` lists the sites' flat indices shell by shell, shell
    t at ``order[shells[t] : shells[t + 1]]``, and ``into[d, j]`` is the
    flat index of the tail of the allowed edge in direction d into site
    ``order[j]``, or of the site itself where none enters.
    """

    offset: int
    norms: np.ndarray
    crossing: np.ndarray
    further: Optional[tuple] = None
    order: Optional[np.ndarray] = None
    shells: Optional[list] = None
    into: Optional[np.ndarray] = None

    @classmethod
    def of(cls, config: LatticeConfig, per_site: int = _BYTES_PER_SITE) -> "_Box":
        """The box of ``config``.  Before anything is built, raises
        ``ResourceGuardError`` if it needs more than the memory guard at
        ``per_site`` bytes per site."""
        r, dim = config.box_radius, config.dimension
        shape = (2 * r + 1,) * dim
        _guard_bytes(math.prod(shape) * per_site, f"box with radius {r} in dimension {dim}")
        _check_power_range(config.metric, r, dim)
        a = np.abs(np.indices(shape, dtype=np.int32) - r)  # |coordinate|, axis first
        norms = config.metric.norm_array(a.reshape(dim, -1).T).reshape(shape)
        if config.mode == "all":
            return cls(r, norms, norms >= r)
        shell = a.sum(axis=0, dtype=np.int32)
        key = shell if config.metric.q != math.inf else a.max(axis=0)
        del a
        further = tuple(kv > ku for ku, kv in (_edge_views(key, s) for s in _steps(dim)))
        # int32 indices: the memory guard keeps a box far below 2^31 sites
        flat = np.arange(norms.size, dtype=np.int32).reshape(shape)
        order = np.argsort(shell.ravel(), kind="stable").astype(np.int32)
        into = np.empty((len(further), norms.size), dtype=np.int32)
        for row, step, allowed in zip(into, _steps(dim), further):
            tail = flat.copy()
            _edge_views(tail, step)[1][allowed] = _edge_views(flat, step)[0][allowed]
            np.take(tail.ravel(), order, out=row)
        shells = np.searchsorted(shell.ravel()[order], np.arange(shell.max() + 2))
        return cls(r, norms, norms >= r, further, order, shells.tolist(), into)

    def uniforms(self, fields) -> np.ndarray:
        """The uniforms of each label field on the box, stacked along a
        leading replica axis."""
        axis = np.arange(-self.offset, self.offset + 1)
        u = np.empty((len(fields),) + self.norms.shape)
        for row, field in zip(u, fields):
            row[...] = field.uniform_grid([axis] * self.norms.ndim)
        return u


def _check_power_range(metric: Metric, r: int, dim: int) -> None:
    """Raise ValueError if the box's largest power sum, dim * r^q at a
    corner, passes the float range.  It is found from its log2 before any
    power is taken; only within a bit of the limit is the sum computed, as
    ``Metric.power_key_array`` computes it: exact for integer q, from float
    powers otherwise."""
    if metric.q == math.inf:
        return
    bits = math.log2(dim) + metric.q * math.log2(r)
    q = int(metric.q) if metric.is_integer else metric.q
    try:
        fits = bits <= 1023 or (bits <= 1025 and math.isfinite(dim * r**q))
    except OverflowError:  # a float power past the range, or an int float() cannot take
        fits = False
    if not fits:
        raise ValueError(
            f"q={metric.q:g} at radius {r} in dimension {dim}: the corner power sum "
            f"{dim}*{r}^q passes the float range"
        )


def _edge_levels(box: _Box, u: np.ndarray, thetas: list) -> np.ndarray:
    """Per replica of the stack ``u`` of uniforms, per step direction d and
    per site v, the level of the edge into v along d: the number of sorted
    distinct grid drifts ``thetas`` at which it is closed, K = len(thetas)
    where no edge enters v.

    Edge u -> v is open at theta_k iff ``box.further`` allows it and
    fl(U_v + theta_k*n_v) > fl(U_u + theta_k*n_u).  Raises if an edge's
    openness is not monotone in theta over the grid, as it can be in mode
    "all", whose sets are not nested in theta and so take one drift per
    call.
    """
    steps = _steps(u.ndim - 1)
    edges = np.full((len(u), len(steps)) + u.shape[1:], len(thetas),
                    dtype=np.min_scalar_type(len(thetas)))
    levels = [_edge_views(edges[:, d], step)[1] for d, step in enumerate(steps)]
    for level in levels:
        level[...] = 0
    blocked = [None] * len(steps) if box.further is None else [~f for f in box.further]
    x = np.empty_like(u)
    for k, th in enumerate(thetas):
        np.add(u, th * box.norms, out=x)
        for step, shut, level in zip(steps, blocked, levels):
            xu, xv = _edge_views(x, step)
            closed = xv <= xu
            if shut is not None:
                closed |= shut
            if k and (closed & (level != k)).any():
                raise RuntimeError(
                    f"an edge open at a smaller grid drift is closed at theta={th}: "
                    "openness is not monotone over the grid"
                )
            level += closed
    return edges


def _levels(box: _Box, u: np.ndarray, thetas: list):
    """For each replica of the stack ``u`` of uniforms (replica first, then
    the box) and each site, the smallest index k into the sorted distinct
    drifts ``thetas`` at which the site is accessible, or K = len(thetas)
    if it never is; also the edge levels of ``_edge_levels``.  A site's
    level is the min over paths from the origin of the max edge level.

    In "nb" mode the levels are settled in one pass over the l1 shells
    t = 1, 2, ...: every allowed edge into shell t starts in shell t - 1,
    so shell t takes, per site, the min over its in-edges of max(tail
    level, edge level).  The pass stops after the first shell that no
    replica reaches; no edge leads past it.  Mode "all" is not graded by
    shells and relaxes the whole stack to a fixpoint.
    """
    edges = _edge_levels(box, u, thetas)
    origin = (slice(None),) + (box.offset,) * box.norms.ndim
    lvl = np.full(u.shape, len(thetas), dtype=edges.dtype)
    lvl[origin] = 0
    if box.further is None:
        steps = _steps(box.norms.ndim)
        levels = [_edge_views(edges[:, d], step)[1] for d, step in enumerate(steps)]
        while True:
            before = lvl.copy()
            for step, level in zip(steps, levels):
                lu, lv = _edge_views(lvl, step)
                np.minimum(lv, np.maximum(lu, level), out=lv)
            if np.array_equal(before, lvl):
                return lvl, edges
    flat = lvl.reshape(len(u), -1)
    flat_edges = edges.reshape(len(u), len(box.into), -1)
    for a, b in zip(box.shells[1:-1], box.shells[2:]):
        sites = box.order[a:b]
        via = flat[:, box.into[:, a:b]]
        np.maximum(via, flat_edges[:, :, sites], out=via)
        reach = via.min(axis=1)
        flat[:, sites] = reach
        if reach.min() == len(thetas):
            break
    return lvl, edges


def _accessible(config: LatticeConfig, field: LabelField, thetas: list):
    """The accessible set at drift ``thetas[-1]`` and, in the set's order,
    each site's smallest index into the sorted distinct drifts ``thetas``
    at which it was accessible.  This is a batch of one replica for the
    engine of ``_crossings``: one ``_levels`` call in "nb" mode, one per
    drift in mode "all"; the set is built once, from the last.

    A site's predecessor is a reached in-neighbour over an edge open at
    the last drift, picked by one pass per step direction (a later
    direction replaces an earlier one); the labels strictly decrease along
    predecessors, so every chain ends at the origin.
    """
    box = _Box.of(config, per_site=320)  # the box and the site dicts built from it
    u = box.uniforms([field])
    first = np.full(box.norms.shape, len(thetas), dtype=np.min_scalar_type(len(thetas)))
    done = 0
    for batch in _batches(config.mode, thetas):
        lvl, edges = _levels(box, u, batch)
        lvl, edges = lvl[0], edges[0]
        np.minimum(first, done + lvl.astype(first.dtype), out=first, where=lvl < len(batch))
        done += len(batch)
    top = len(batch) - 1
    reached = lvl <= top
    steps = _steps(config.dimension)
    came_by = np.full(lvl.shape, len(steps), dtype=np.uint8)  # index into moves
    for d, (step, level) in enumerate(zip(steps, edges)):
        open_ = _edge_views(reached, step)[0] & (_edge_views(level, step)[1] <= top)
        _edge_views(came_by, step)[1][open_] = d
    dim, width = config.dimension, 2 * box.offset + 1
    moves = np.array(steps + [(0,) * dim]) @ width ** np.arange(dim - 1, -1, -1)  # flat offsets
    at = np.flatnonzero(reached)  # C order: sorted coordinates
    came_from = np.searchsorted(at, at - moves[came_by.ravel()[at]])
    coords = [c - box.offset for c in np.unravel_index(at, lvl.shape)]
    x = u.ravel()[at] + thetas[-1] * box.norms.ravel()[at]
    levels = first.ravel()[at]
    frontier_reached = bool(box.crossing.ravel()[at].any())
    # the site dicts dominate the peak: release the box arrays first
    del box, u, first, lvl, edges, reached, came_by, at

    sites = list(zip(*(c.tolist() for c in coords)))
    labels = dict(zip(sites, x.tolist()))
    predecessors = dict(zip(sites, map(sites.__getitem__, came_from)))
    predecessors[(0,) * dim] = None  # its zero move pointed at itself
    return AccessibleSet(config, labels, predecessors, frontier_reached, theta=thetas[-1]), levels


def _crossings(config: LatticeConfig, thetas: list, replicas: int) -> dict:
    """Per sorted distinct drift, the number of replicas whose accessible
    set touches ||v||_q >= box_radius.  Replica i uses the field of the
    (config.seed, _CROSSING_TAG, i) stream.  The replicas run in batches
    of at most ``BATCH_BYTES`` of per-replica arrays (at least one
    replica), stacked along a leading axis.  "nb" sets are nested in
    theta, so one ``_levels`` call per batch decides every drift: a
    replica crosses at theta_k iff some crossing site has level <= k.
    Mode "all" takes one call per batch and drift."""
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    box = _Box.of(config)
    base = LabelField(config.seed)
    batches = _batches(config.mode, thetas)
    size = max(1, BATCH_BYTES // (box.norms.size * _BYTES_PER_REPLICA_SITE))
    crossings = dict.fromkeys(thetas, 0)
    for start in range(0, replicas, size):
        stop = min(start + size, replicas)
        u = box.uniforms(list(base.replicas(_CROSSING_TAG, range(start, stop))))
        for batch in batches:
            lvl, _ = _levels(box, u, batch)
            first = lvl[:, box.crossing].min(axis=1, initial=len(batch))
            for k, th in enumerate(batch):
                crossings[th] += int(np.count_nonzero(first <= k))
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
    final, levels = _accessible(config, LabelField(config.seed), thetas)
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
    if box_radius < 1:
        raise ValueError(f"box_radius must be >= 1, got {box_radius}")
    (theta,) = _checked_grid([theta])
    r = box_radius
    _guard_bytes((r + 2) ** 2 * _BYTES_PER_SITE, f"box with radius {r} in dimension 2")
    field = LabelField(seed)
    axis = np.arange(r + 2)
    u = field.uniform_grid([axis, axis])
    dist = axis[:, None] + axis
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
            "theta": aset.theta,
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
