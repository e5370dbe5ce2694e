"""Two-scale "bricklayer" coupling between RMF labels on the first quadrant
of Z^2 and an inhomogeneous dependent oriented percolation model.

The bricklayer lattice has vertices V_L = {(x, y): y in Z+, x - y/2 in Z+}
with oriented edges (x,y)->(x+1,y) and (x,y)->(x+1/2,y+1).  The module
works on the grid indices (k, y) = (x - y/2, y), a bijection of V_L onto
Z+^2 that makes both edge kinds unit steps, (k,y)->(k+1,y) and
(k,y)->(k,y+1); a brick's x is recovered as k + y/2.  Each vertex is
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

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LabelField, Metric, ResourceGuardError, _guard_bytes
from .lattice import oriented_reach

__all__ = [
    "BrickConfig",
    "goodness_probability",
    "compute_A",
    "distance_gap_check",
    "open_implies_increasing_check",
    "simulate_bricklayer",
]

_A_SCAN_MAX = 10**6
# points per block of the A_q(n) scan: its arrays stay near 128 kB each
_A_BLOCK = 2**14
# bytes of uniforms per slab of the goodness pass: small enough to stay in cache
_SLAB_BYTES = 440_000
# tracemalloc peaks of one replica of ``simulate_bricklayer``, for the memory
# guard (q = 2 and inf, n = 16 to 256, depths 25 to 400): about 76 bytes per
# cell of its (depth+1) x (2*depth+1) brick grids, and 2.6 to 4.7 slabs of
# uniforms more: the goodness pass's key, scratch and uniform buffers, held
# for the whole run, and the temporaries of the pass and of the witness
_BYTES_PER_GRID_CELL = 80
_SLAB_COPIES = 5

# hash-stream tags of the bricklayer replicas and of the implication samples
_BRICK_TAG = 0x626C
_SAMPLE_TAG = 0x6272


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

    @functools.cached_property
    def _threshold(self) -> int:
        """A_q(n), or 0 for q = inf, where no column threshold applies;
        computed on first use.  It is not a dataclass field, so equality,
        hashing and repr do not see it."""
        return 0 if self.q == math.inf else compute_A(self)


def _brick_sites(ks, ys, n: int) -> np.ndarray:
    """Sites of the bricks (k, y) as a (B, 3, n + 1, 2) array: per brick,
    rows 2y + 0..2, then columns k*n + y*n/2 + 0..n, then (a, b)."""
    ks, ys = np.broadcast_arrays(np.asarray(ks, dtype=np.int64), np.asarray(ys, dtype=np.int64))
    if (ys * n % 2).any():
        raise ValueError(f"x*n must be integral; y*n is odd for some y with n={n}")
    cols = (ks * n + ys * n // 2)[:, None, None] + np.arange(n + 1)
    rows = 2 * ys[:, None, None] + np.arange(3)[:, None]
    return np.stack(np.broadcast_arrays(cols, rows), axis=-1)


def _bricks_up_to(x_max: float) -> np.ndarray:
    """Mask over the (k, y) grid of the bricks with x = k + y/2 <= ``x_max``:
    rows k in [0, floor(x_max)], columns y in [0, floor(2 x_max)]."""
    if not math.isfinite(x_max):
        raise ValueError(f"x_max must be finite, got {x_max}")
    k = np.arange(max(0, math.floor(x_max) + 1))
    y = np.arange(max(0, math.floor(2 * x_max) + 1))
    return k[:, None] + y / 2 <= x_max


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
    than assuming the inequality is monotone in a.  It is scanned in blocks
    of ``_A_BLOCK`` points, so that no array spans the whole window.
    """
    if config.q == math.inf:
        raise ValueError("the distance threshold applies to finite q only")
    if config.n <= 5:
        raise ValueError(f"need n > 5, got {config.n}")
    q = config.q
    eps = config.slack
    last_failure = 0  # the largest a where the inequality fails, 0 if none
    holds_somewhere = False
    for lo in range(1, _A_SCAN_MAX + 1, _A_BLOCK):
        a = np.arange(lo, min(lo + _A_BLOCK, _A_SCAN_MAX + 1), dtype=np.float64)
        # expm1/log1p keep precision when both sides are within 1e-6 of 1
        lhs = np.expm1(np.log1p(q / a) / q)
        failures = np.flatnonzero(~(lhs >= (1.0 - eps) / a))
        if len(failures):
            last_failure = lo + int(failures[-1])
        holds_somewhere = holds_somewhere or len(failures) < len(a)
    if not holds_somewhere:
        raise RuntimeError(f"inequality never holds for a <= {_A_SCAN_MAX}")
    a0 = last_failure + 1
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


def _guard_sites(config: BrickConfig, x_max: float) -> None:
    """Raise ``ResourceGuardError`` unless the int64 (bricks, 3, n+1, 2)
    site array of the bricks with x <= ``x_max`` fits the lattice byte
    guard.  The bricks are counted before anything is built: rows of even
    y hold floor(x_max) + 1 - y/2 of them, rows of odd y
    floor(x_max - 1/2) + 1 - (y-1)/2."""
    if not math.isfinite(x_max):
        raise ValueError(f"x_max must be finite, got {x_max}")
    tops = (max(math.floor(x_max - h), -1) for h in (0.0, 0.5))
    bricks = sum((f + 1) * (f + 2) // 2 for f in tops)
    need = bricks * 3 * (config.n + 1) * 2 * 8
    _guard_bytes(need, f"a brick range of {bricks} bricks up to x_max={x_max}")


def _far_sites(config: BrickConfig, x_max: float):
    """Sites of the bricks with 2 <= x <= ``x_max``, ordered by y and then
    k (see ``_brick_sites``), the distance threshold A_q(n) (0 for q = inf,
    where no column threshold applies) and the mask of sites with column
    a >= A_q(n).  Raises unless the range holds a brick and a site at or
    beyond A_q(n): a check of no site would pass vacuously."""
    _guard_sites(config, x_max)
    y, k = np.nonzero(_bricks_up_to(x_max).T)
    keep = k + y / 2 >= 2
    if not keep.any():
        raise ValueError("the brick range holds no brick with x >= 2")
    sites = _brick_sites(k[keep], y[keep], config.n)
    a_min = config._threshold
    far = sites[..., 0] >= a_min
    if not far.any():
        raise ValueError(
            f"no site of the brick range lies at or beyond A_q(n) = {a_min} "
            f"(last column {int(sites[..., 0].max())})"
        )
    return sites, a_min, far


def distance_gap_check(config: BrickConfig, x_max: float = 4.0) -> GapCheckReport:
    """Verify, for every site (a, b) of every brick with 2 <= x <= ``x_max``
    with a >= A_q(n), that a unit step right increases the l^q distance by
    more than 1 - 2*5^q/n^q.  The range must hold at least one site at or
    beyond A_q(n).

    For q = inf there is no column threshold: below the diagonal the gap
    is exactly 1, so the check uses bound 1 - 2/n^2 at every column.
    """
    sites, a_min, far = _far_sites(config, x_max)
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
    sites, a_min, far = _far_sites(config, x_max)
    dist = config.metric.norm_array(sites)
    hor_checked = ver_checked = 0
    violations = []
    for s, field in enumerate(LabelField(seed).replicas(_SAMPLE_TAG, range(samples))):
        u = field.uniform_array(sites)
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


def _guard_depth(config: BrickConfig, depth: int) -> None:
    """Raise ``ResourceGuardError`` unless one replica of depth ``depth``
    fits the memory guard: its brick grids, and one slab of the goodness
    pass, which holds at least one brick level, three lattice rows of
    (depth+1)*n uniforms each."""
    cells = (depth + 1) * (2 * depth + 1)
    slab = max(_SLAB_BYTES, 3 * (depth + 1) * config.n * 8)
    need = cells * _BYTES_PER_GRID_CELL + _SLAB_COPIES * slab
    _guard_bytes(need, f"a bricklayer replica of depth {depth} with n={config.n}")


def _slab_levels(config: BrickConfig, depth: int) -> int:
    """Brick levels per slab of the goodness pass: at most ``_SLAB_BYTES``
    of uniforms, (depth+1)*n per lattice row and two rows per level, or
    one level if that is larger."""
    return max(1, _SLAB_BYTES // (2 * 8 * (depth + 1) * config.n))


def _slab_buffers(config: BrickConfig, depth: int):
    """Key, scratch and uniform buffers (``LabelField.uniform_grid``'s
    ``out``) that hold every slab of the goodness pass at ``depth``: sized
    for the first slab, the largest.  A fresh slab-sized array per slab, or
    per replica, made glibc map and unmap it, or grow and trim the heap,
    again and again."""
    levels = min(_slab_levels(config, depth), 2 * depth + 1)
    size = (2 * levels + 1) * (depth + 1) * config.n
    return np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64), np.empty(size)


def _goodness_grid(field: LabelField, config: BrickConfig, depth: int, out=None):
    """Goodness of all bricks with x <= depth on the (k, y) grid: rows y in
    [0, 2*depth], columns k in [0, depth].

    Returns (good, lcol, rcol): the boolean goodness grid and, per brick,
    the site column of its first open left-vertical and right-vertical
    edge (meaningful where the brick is good; -1 where x > depth).

    Brick (k, y) spans the half blocks 2k+y and 2k+y+1 (n/2 columns each)
    of lattice rows 2y, 2y+1 and 2y+2.  Its left verticals are quarter
    block 2b+1 (n/4 columns) of row 2y, its right verticals quarter block
    2b+2 of row 2y+1, where b = 2k+y.  The strip is hashed in slabs of
    brick levels y0..y1-1, i.e. lattice rows 2*y0..2*y1 (a slab's top row
    is hashed again as the next slab's bottom row), and from column y0*n/2
    on, where level y0's first brick starts.  A slab holds at most
    ``_SLAB_BYTES`` of uniforms, so that it stays in cache, or one level
    if that is larger.  Every slab is hashed into the buffers ``out``, from
    ``_slab_buffers`` (allocated here unless given).  Per slab the window
    and vertical-order predicates are evaluated once and reduced over the
    blocks; the bricks then gather their blocks.
    """
    n = config.n
    w = config.window_margin
    half, quarter = n // 2, n // 4
    ny, nk = 2 * depth + 1, depth + 1
    nb = 2 * nk  # half blocks up to column nk*n, past every edge source
    hor = np.zeros((ny, nb), dtype=bool)  # [y, b]: rows 2y, 2y+1 in the window
    lany = np.zeros((ny, nb), dtype=bool)  # [y, b]: some left vertical open
    rany = np.zeros((ny, nb), dtype=bool)
    lfirst = np.zeros((ny, nb), dtype=np.int64)  # [y, b]: offset of the first one
    rfirst = np.zeros((ny, nb), dtype=np.int64)
    levels = _slab_levels(config, depth)
    if out is None:
        out = _slab_buffers(config, depth)
    for y0 in range(0, ny, levels):
        y1 = min(y0 + levels, ny)
        axes = [np.arange(y0 * half, nb * half), np.arange(2 * y0, 2 * y1 + 1)]
        u = field.uniform_grid(axes, out=out).T  # [row, column], the column axis contiguous
        src, dst = u[:-1], u[1:]
        win = ((src > w) & (src < 1.0 - w)).reshape(len(src), -1, half).all(axis=-1)
        hor[y0:y1, y0:] = win[0::2] & win[1::2]
        src = src.reshape(y1 - y0, 2, -1, quarter)
        dst = dst.reshape(y1 - y0, 2, -1, quarter)
        lver = src[:, 0, 1::2] < dst[:, 0, 1::2]  # [level, b - y0, column in quarter]
        rver = src[:, 1, 2::2] < dst[:, 1, 2::2]
        lany[y0:y1, y0:], lfirst[y0:y1, y0:] = lver.any(axis=-1), lver.argmax(axis=-1)
        rany[y0:y1, y0:-1], rfirst[y0:y1, y0:-1] = rver.any(axis=-1), rver.argmax(axis=-1)
    good = np.zeros((nk, ny), dtype=bool)
    lcol = np.full((nk, ny), -1, dtype=np.int64)
    rcol = np.full((nk, ny), -1, dtype=np.int64)
    k, y = np.nonzero(_bricks_up_to(depth))
    b = 2 * k + y
    good[k, y] = hor[y, b] & hor[y, b + 1] & lany[y, b] & rany[y, b]
    lcol[k, y] = (2 * b + 1) * quarter + lfirst[y, b]
    rcol[k, y] = (2 * b + 2) * quarter + rfirst[y, b]
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


def _witness_open_path(brick_path, config: BrickConfig, lcol, rcol) -> np.ndarray:
    """Explicit open-edge path through a directed chain of good bricks, as
    an (N, 2) int64 array of sites.

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
    # expand each run between corners into unit steps, right ones first
    corners = np.array(corners, dtype=np.int64)
    runs = np.diff(corners, axis=0)
    units = np.tile(np.eye(2, dtype=np.int64), (len(runs), 1))  # right, up, right, up, ...
    steps = np.repeat(units, runs.ravel(), axis=0)
    return np.concatenate([corners[:1], corners[0] + np.cumsum(steps, axis=0)])


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
    _guard_depth(config, depth)
    percolating = 0
    verified = 0
    good_sum = 0
    brick_sum = 0
    records = []
    valid = _bricks_up_to(depth)
    out = _slab_buffers(config, depth)  # one set for every replica
    for r, field in enumerate(LabelField(seed).replicas(_BRICK_TAG, range(replicas))):
        good, lcol, rcol = _goodness_grid(field, config, depth, out)
        good_sum += int(good[valid].sum())
        brick_sum += int(valid.sum())
        reach = oriented_reach(good)  # only bricks with x <= depth are good
        k, y = np.nonzero(reach)
        hits = np.flatnonzero(k + y / 2 >= depth)
        perc = bool(len(hits))
        witness = None
        if perc:
            percolating += 1
            brick_path = _witness_brick_path(reach, (int(k[hits[0]]), int(y[hits[0]])))
            vertex_path = _witness_open_path(brick_path, config, lcol, rcol)
            _verify_open_path(vertex_path, config, field)
            verified += 1
            witness = {
                "bricks": brick_path,
                "start": vertex_path[0].tolist(),
                "end": vertex_path[-1].tolist(),
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
    """Independent check of a witness, an (N, 2) array (or sequence) of
    sites: re-hash every site of the path in one batch and require each
    consecutive pair to be an oriented edge that is open under the
    coupling's rules (the scalar reference is ``edge_open`` in
    ``tests/oracles.py``)."""
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
