"""Two-scale "bricklayer" coupling between RMF labels on the first quadrant
of Z^2 and an inhomogeneous dependent oriented percolation model.

The bricklayer lattice has vertices V_L = {(x, y): y in Z+, x - y/2 in Z+}
with oriented edges (x,y)->(x+1,y) and (x,y)->(x+1/2,y+1).  Each vertex is
blown up into a brick: 3 rows x (n+1) columns of Z+^2 sites.  A horizontal
edge ((a,b),(a+1,b)) is open iff the source uniform lies in a window
(3*5^q/n^q, 1-3*5^q/n^q) (or (n^-2, 1-n^-2) for q = inf); a vertical edge
((a,b),(a,b+1)) is open iff U_(a,b) < U_(a,b+1).  A brick is good when all
its horizontal edges are open and at least one left-vertical and one
right-vertical edge are open.  A directed path of good bricks yields an
explicit open-edge path, and for drifts close enough to 1 every open edge
far enough from the origin is label-increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import LabelField, Metric
from .lattice import oriented_reach

__all__ = [
    "BrickId",
    "BrickConfig",
    "goodness_probability",
    "compute_A",
    "distance_gap_check",
    "open_implies_increasing_check",
    "simulate_bricklayer",
]

_A_SCAN_MAX = 10**6


@dataclass(frozen=True)
class BrickId:
    """Vertex (x, y) of the bricklayer lattice; x is a half-integer with
    x - y/2 a nonnegative integer."""

    x: Fraction
    y: int

    def __post_init__(self):
        x = Fraction(self.x)
        object.__setattr__(self, "x", x)
        if self.y < 0:
            raise ValueError(f"y must be >= 0, got {self.y}")
        k = x - Fraction(self.y, 2)
        if k.denominator != 1 or k < 0:
            raise ValueError(f"({x}, {self.y}) is not a bricklayer vertex")

    @property
    def k(self) -> int:
        """Oriented-grid coordinate: (x, y) <-> (k, y) with x = k + y/2."""
        return int(self.x - Fraction(self.y, 2))

    @classmethod
    def from_grid(cls, k: int, y: int) -> "BrickId":
        return cls(Fraction(k) + Fraction(y, 2), y)


@dataclass(frozen=True)
class BrickConfig:
    """Brick width n and the metric exponent q in (1, inf].

    Operations that consult horizontal-edge openness need a nonempty
    window, i.e. 6*5^q < n^q for finite q, and raise otherwise; geometric
    operations (brick sets, the distance threshold and gap) work for any
    n.  Quarter-based edge sets additionally need 4 | n, enforced where
    they are built.
    """

    n: int
    q: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not self.q > 1:
            raise ValueError(f"q must lie in (1, inf], got {self.q}")

    @property
    def slack(self) -> float:
        """(5/n)^q, or n^-2 for q = inf: the horizontal window is
        (margin, 1-margin) with margin 3*slack (slack for q = inf), the
        drift window of the coupling is (1-slack, 1) and the distance gap
        bound 1 - 2*slack."""
        if self.q == math.inf:
            return self.n ** -2.0
        return (5.0 / self.n) ** self.q

    @property
    def window_margin(self) -> float:
        """Horizontal edges are open iff U is in (margin, 1-margin)."""
        if self.q == math.inf:
            return self.slack
        margin = 3.0 * self.slack
        if margin >= 0.5:
            raise ValueError(
                f"openness window is empty for n={self.n}, q={self.q}: "
                "need 6*(5/n)^q < 1"
            )
        return margin

    @property
    def metric(self) -> Metric:
        return Metric(self.q)


def _brick_sites(ks, ys, n: int) -> np.ndarray:
    """Sites of the bricks (k, y) as a (B, 3, n + 1, 2) array: per brick,
    rows 2y + 0..2, then columns k*n + y*n/2 + 0..n, then (a, b)."""
    ks, ys = np.broadcast_arrays(np.asarray(ks, dtype=np.int64), np.asarray(ys, dtype=np.int64))
    if (ys * n % 2).any():
        raise ValueError(f"x*n must be integral; y*n is odd for some y with n={n}")
    cols = (ks * n + ys * n // 2)[:, None, None] + np.arange(n + 1)
    rows = 2 * ys[:, None, None] + np.arange(3)[:, None]
    return np.stack(np.broadcast_arrays(cols, rows), axis=-1)


def goodness_probability(config: BrickConfig) -> float:
    """Closed form for P(brick is good):

        (1 - 2*margin)^(2n) * (1 - 2^(-n/4))^2,

    margin = 3*5^q/n^q for finite q and n^-2 for q = inf.
    """
    if config.n % 4 != 0:
        raise ValueError(f"goodness needs n divisible by 4, got {config.n}")
    w = config.window_margin
    n = config.n
    horizontal = math.exp(2 * n * math.log1p(-2.0 * w))
    vertical = (1.0 - 2.0 ** (-n / 4)) ** 2
    return horizontal * vertical


def compute_A(config: BrickConfig) -> int:
    """Distance threshold A_q(n): the smallest a0 such that

        (1 + q/a)^(1/q) >= 1 + (1 - 5^q/n^q)/a

    holds for every a in [a0, _A_SCAN_MAX].  The window is verified rather
    than assuming the inequality is monotone in a.
    """
    if config.q == math.inf:
        raise ValueError("the distance threshold applies to finite q only")
    if config.n <= 5:
        raise ValueError(f"need n > 5, got {config.n}")
    q = config.q
    eps = config.slack
    a = np.arange(1, _A_SCAN_MAX + 1, dtype=np.float64)
    # expm1/log1p keep precision when both sides are within 1e-6 of 1
    lhs = np.expm1(np.log1p(q / a) / q)
    holds = lhs >= (1.0 - eps) / a
    failures = np.nonzero(~holds)[0]
    if len(failures) == len(a):
        raise RuntimeError(f"inequality never holds for a <= {_A_SCAN_MAX}")
    a0 = int(failures[-1]) + 2 if len(failures) else 1
    if a0 > _A_SCAN_MAX:
        raise RuntimeError(f"no threshold found within scan window {_A_SCAN_MAX}")
    return a0


@dataclass(frozen=True)
class GapCheckReport:
    ok: bool
    config: BrickConfig
    threshold: int
    bricks_checked: int
    sites_checked: int
    min_gap: float
    bound: float
    violations: tuple = ()


def _far_sites(config: BrickConfig, brick_range):
    """Sites of the bricks in ``brick_range`` (see ``_brick_sites``), the
    distance threshold A_q(n) (0 for q = inf, where no column threshold
    applies) and the mask of sites with column a >= A_q(n).  Raises
    unless the range holds bricks, all with x >= 2, and a site at or
    beyond A_q(n): a check of no site would pass vacuously."""
    ids = list(brick_range)
    if not ids:
        raise ValueError("the brick range holds no brick with x >= 2")
    near = [b.x for b in ids if b.x < 2]
    if near:
        raise ValueError(f"distance gap lemma needs x >= 2, got {near[0]}")
    sites = _brick_sites([b.k for b in ids], [b.y for b in ids], config.n)
    a_min = 0 if config.q == math.inf else compute_A(config)
    far = sites[..., 0] >= a_min
    if not far.any():
        raise ValueError(
            f"no site of the brick range lies at or beyond A_q(n) = {a_min} "
            f"(last column {int(sites[..., 0].max())})"
        )
    return sites, a_min, far


def distance_gap_check(config: BrickConfig, brick_range) -> GapCheckReport:
    """Verify, for every site (a, b) of every brick in ``brick_range``
    with a >= A_q(n), that a unit step right increases the l^q distance by
    more than 1 - 2*5^q/n^q.  Brick ids must have x >= 2, and the range
    must hold at least one site at or beyond A_q(n).

    For q = inf there is no column threshold: below the diagonal the gap
    is exactly 1, so the check uses bound 1 - 2/n^2 at every column.
    """
    sites, a_min, far = _far_sites(config, brick_range)
    bound = 1.0 - 2.0 * config.slack
    # brick, then column, then row
    ab = sites.transpose(0, 2, 1, 3)[far.transpose(0, 2, 1)]
    far_norm, near_norm = config.metric.norm_array(np.stack([ab + (1, 0), ab]))
    gaps = far_norm - near_norm
    bad = ~(gaps > bound)
    violations = [(a, b, g) for (a, b), g in zip(ab[bad].tolist(), gaps[bad].tolist())]
    return GapCheckReport(
        ok=not violations,
        config=config,
        threshold=a_min,
        bricks_checked=len(sites),
        sites_checked=len(ab),
        min_gap=float(gaps.min()),
        bound=bound,
        violations=tuple(violations),
    )


def _brick_ids_up_to(x_max: float):
    """All bricklayer vertices with x <= x_max, in grid order."""
    if not math.isfinite(x_max):
        raise ValueError(f"x_max must be finite, got {x_max}")
    out = []
    for y in range(0, int(2 * x_max) + 1):
        k = 0
        while k + y / 2 <= x_max:
            out.append(BrickId.from_grid(k, y))
            k += 1
    return out


@dataclass(frozen=True)
class ImplicationReport:
    ok: bool
    theta: float
    samples: int
    horizontal_checked: int
    vertical_checked: int
    threshold: Optional[int]
    violations: tuple = ()


def open_implies_increasing_check(
    theta: float,
    config: BrickConfig,
    samples: int,
    seed: int = 0,
    x_max: float = 4.0,
) -> ImplicationReport:
    """Sampled verification that open edges carry increasing RMF labels.

    Requires theta in (1 - (5/n)^q, 1) for finite q and in (1 - n^-2, 1)
    for q = inf, at least one sample and a brick with x >= 2 up to
    ``x_max`` with a site at or beyond A_q(n).  Horizontal edges are
    checked in eligible bricks (x >= 2 and source column >= A_q(n));
    vertical edges are checked everywhere, since U_bottom < U_top together
    with the weakly growing distance already forces the labels up.
    Violations list, per sample, brick, row and kind ("hor" before
    "ver"), the first bad source column.
    """
    lo = 1.0 - config.slack
    if not (lo < theta < 1.0):
        raise ValueError(f"theta must lie in ({lo}, 1) for n={config.n}, q={config.q}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    w = config.window_margin
    sites, a_min, far = _far_sites(config, [b for b in _brick_ids_up_to(x_max) if b.x >= 2])
    dist = config.metric.norm_array(sites)
    hor_checked = ver_checked = 0
    violations = []
    base = LabelField(seed)
    for s in range(samples):
        u = LabelField(base.key_of((0x6272, s))).uniform_array(sites)
        x = u + theta * dist
        # edges leave rows 2y and 2y+1: horizontal ones from all but the last
        # column to the right neighbour, vertical ones to the row above
        src, x_src = u[:, :2], x[:, :2]
        hor = np.zeros(src.shape, dtype=bool)
        hor[..., :-1] = (src[..., :-1] > w) & (src[..., :-1] < 1.0 - w) & far[:, :2, :-1]
        ver = src < u[:, 1:]
        hor_checked += int(hor.sum())
        ver_checked += int(ver.sum())
        bad = np.stack(
            [hor & ~(np.roll(x_src, -1, axis=-1) > x_src), ver & ~(x[:, 1:] > x_src)], axis=2
        )  # (brick, row, kind, column)
        first = bad.argmax(axis=-1)
        for i, r, kind in np.argwhere(bad.any(axis=-1)).tolist():
            col, row = sites[i, r, first[i, r, kind]].tolist()
            violations.append((("hor", "ver")[kind], col, row, s))
    return ImplicationReport(
        ok=not violations,
        theta=theta,
        samples=samples,
        horizontal_checked=hor_checked,
        vertical_checked=ver_checked,
        threshold=a_min or None,  # None for q = inf
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# n-bricklayer percolation simulation


def _goodness_grid(field: LabelField, config: BrickConfig, depth: int):
    """Goodness of all bricks with x <= depth on the (k, y) grid, evaluated
    vectorised: rows y in [0, 2*depth], columns k in [0, depth].

    Returns (good, lcol, rcol): the boolean goodness grid and, per brick,
    the site column of its first open left-vertical and right-vertical
    edge (meaningful where the brick is good).
    """
    n = config.n
    w = config.window_margin
    ny, nk = 2 * depth + 1, depth + 1
    good = np.zeros((nk, ny), dtype=bool)
    lcol = np.full((nk, ny), -1, dtype=np.int64)
    rcol = np.full((nk, ny), -1, dtype=np.int64)
    lv = slice(n // 4, n // 2)
    rv = slice(n // 2, 3 * n // 4)
    for y in range(ny):
        ks = np.arange(nk - (y + 1) // 2)  # x = k + y/2 <= depth
        sites = _brick_sites(ks, y, n)[:, :, :n]  # edge sources: all but the last column
        u = field.uniform_array(sites)
        hor_ok = ((u[:, :2] > w) & (u[:, :2] < 1 - w)).all(axis=(1, 2))
        lver_open = u[:, 0, lv] < u[:, 1, lv]
        rver_open = u[:, 1, rv] < u[:, 2, rv]
        c0 = sites[:, 0, 0, 0]
        good[ks, y] = hor_ok & lver_open.any(axis=1) & rver_open.any(axis=1)
        lcol[ks, y] = c0 + lv.start + lver_open.argmax(axis=1)
        rcol[ks, y] = c0 + rv.start + rver_open.argmax(axis=1)
    return good, lcol, rcol


def _witness_brick_path(reach: np.ndarray, target) -> list:
    """Backtrack one directed path of good bricks from (0,0) to target."""
    k, y = target
    path = [(k, y)]
    while (k, y) != (0, 0):
        if k > 0 and reach[k - 1, y]:
            k -= 1
        else:
            y -= 1
        path.append((k, y))
    path.reverse()
    return path


def _witness_open_path(brick_path, config: BrickConfig, lcol, rcol) -> list:
    """Explicit open-edge path through a directed chain of good bricks, as
    a list of sites.

    Enters each brick on its bottom row within the first column quarter,
    walks right to its first open left-vertical column, climbs, walks
    right to its first open right-vertical column, climbs again (diagonal
    brick step) or just walks the bottom row through (horizontal brick
    step); finishes at the middle-right vertex of the last brick.  The
    open columns are the ones ``_goodness_grid`` recorded, so nothing is
    hashed here; ``_verify_open_path`` re-hashes the result.
    """
    n = config.n
    k0, y0 = brick_path[0]
    corners = [(k0 * n + (y0 * n) // 2, 2 * y0)]  # bottom-left corner
    for i, (k, y) in enumerate(brick_path):
        c0 = k * n + (y * n) // 2
        r0 = 2 * y
        if i == len(brick_path) - 1:
            lc = int(lcol[k, y])
            corners += [(lc, r0), (lc, r0 + 1), (c0 + n, r0 + 1)]  # middle-right vertex
        elif brick_path[i + 1][1] == y + 1:
            lc, rc = int(lcol[k, y]), int(rcol[k, y])
            corners += [(lc, r0), (lc, r0 + 1), (rc, r0 + 1), (rc, r0 + 2)]
        else:
            corners.append((c0 + n, r0))  # shared corner with brick (k+1, y)
    # expand the straight runs between corners into unit steps
    path = [corners[0]]
    for a, b in corners[1:]:
        pa, pb = path[-1]
        path += [(c, pb) for c in range(pa + 1, a + 1)]
        path += [(a, r) for r in range(pb + 1, b + 1)]
    return path


@dataclass(frozen=True)
class BricklayerResult:
    config: BrickConfig
    depth: int
    replicas: int
    percolating: int
    seed: int
    good_fraction: float
    witness_verified: int
    replica_records: tuple

    @property
    def frequency(self) -> float:
        return self.percolating / self.replicas

    @property
    def stderr(self) -> float:
        p = self.frequency
        return math.sqrt(p * (1.0 - p) / self.replicas)


def _rle(bits) -> list:
    """Run-length encode a boolean sequence as [first_value, run1, run2, ...]."""
    bits = list(bool(b) for b in bits)
    if not bits:
        return [False]
    runs = [bits[0]]
    count = 1
    for prev, cur in zip(bits, bits[1:]):
        if cur == prev:
            count += 1
        else:
            runs.append(count)
            count = 1
    runs.append(count)
    return runs


def simulate_bricklayer(
    config: BrickConfig,
    depth: int,
    replicas: int,
    seed: int = 0,
    keep_records: bool = False,
) -> BricklayerResult:
    """Frequency of replicas with a directed path of good bricks from
    (0, 0) out to x >= depth.

    On every percolating replica the implied open-edge path is built from
    the witness brick chain and the open vertical columns recorded by the
    goodness pass, then verified independently: every site on it is
    re-hashed and every edge checked against the coupling's openness
    rules.
    """
    if depth < 1 or replicas < 1:
        raise ValueError("depth and replicas must be >= 1")
    if config.n % 4 != 0:
        raise ValueError(f"bricks need n divisible by 4, got {config.n}")
    base = LabelField(seed)
    percolating = 0
    verified = 0
    good_sum = 0
    brick_sum = 0
    records = []
    ks = np.arange(depth + 1)
    ys = np.arange(2 * depth + 1)
    valid = ks[:, None] + ys[None, :] / 2 <= depth
    far = ks[:, None] + ys[None, :] / 2 >= depth
    for r in range(replicas):
        field = LabelField(base.key_of((0x626C, r)))
        good, lcol, rcol = _goodness_grid(field, config, depth)
        good_sum += int(good[valid].sum())
        brick_sum += int(valid.sum())
        reach = oriented_reach(good)
        hits = np.argwhere(reach & far)
        perc = bool(len(hits))
        witness = None
        if perc:
            percolating += 1
            brick_path = _witness_brick_path(reach, tuple(hits[0].tolist()))
            vertex_path = _witness_open_path(brick_path, config, lcol, rcol)
            _verify_open_path(vertex_path, config, field)
            verified += 1
            witness = {
                "bricks": brick_path,
                "start": vertex_path[0],
                "end": vertex_path[-1],
            }
        if keep_records:
            records.append(
                {
                    "replica": r,
                    "percolates": perc,
                    "good_rle": [_rle(good[:, y]) for y in range(good.shape[1])],
                    "witness": witness,
                }
            )
    return BricklayerResult(
        config=config,
        depth=depth,
        replicas=replicas,
        percolating=percolating,
        seed=seed,
        good_fraction=good_sum / brick_sum,
        witness_verified=verified,
        replica_records=tuple(records),
    )


def _verify_open_path(vertex_path, config: BrickConfig, field: LabelField):
    """Independent check of a witness: re-hash every site of the path in
    one batch and require each consecutive pair to be an oriented edge
    that is open under the coupling's rules (the scalar reference is
    ``edge_open`` in ``tests/oracles.py``)."""
    path = np.asarray(vertex_path, dtype=np.int64)
    step = np.diff(path, axis=0)
    hor = (step[:, 0] == 1) & (step[:, 1] == 0)
    ver = (step[:, 0] == 0) & (step[:, 1] == 1)
    if not (hor | ver).all():
        i = int(np.argmin(hor | ver))
        raise ValueError(f"not a brick edge: {path[i].tolist()} -> {path[i + 1].tolist()}")
    u = field.uniform_array(path)
    src, dst = u[:-1], u[1:]
    w = config.window_margin
    is_open = np.where(hor, (w < src) & (src < 1.0 - w), src < dst)
    if not is_open.all():
        i = int(np.argmin(is_open))
        raise AssertionError(f"witness edge {path[i].tolist()} -> {path[i + 1].tolist()} is not open")
