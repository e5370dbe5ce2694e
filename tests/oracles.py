"""Slow references for the tests.

``mix``, ``combine``, ``key_of``, ``uniform_at``, ``uniform_from_key``,
``power_key`` and ``norm`` are the scalar hash and distance, one Python
int, site or key at a time: the definitions the array forms of
``rmfperc.core`` are held to, bit for bit.  They are written here from the
splitmix64 constants and the l^q definition, and read nothing of
``rmfperc.core`` but the seed of a ``LabelField`` and the q of a ``Metric``.
``root_frontier`` and ``step_frontier`` evolve one replica's frontier a
generation at a time from the same hash streams as the batched engine in
``rmfperc.tree``, so the tests can compare the two replica by replica.
``step_oracle`` is one generation of a batch of parents, child by child
from the scalar hash, for the array kernel ``_step_arrays``.
``count_oracle`` draws offspring counts the way the engine did before
``OffspringDistribution.sample`` took keys: a count hash for every law,
then the inverse CDF with the table built afresh on each call.
``theta_sweep_oracle`` is the per-drift loop that re-simulates every
replica at every grid point.  ``survival_oracle`` integrates the survival
recursion on a grid, and ``minimal_root_oracle`` finds the minimal root of
Q_theta by a fine scan.  ``q_evaluator_oracle``, ``q_theta_eval_oracle``,
``m_critical_oracle`` and ``theta_critical_oracle`` are the mpmath
evaluator of Q_theta and the root finders built on it, as
``rmfperc.analytic`` had them before it evaluated Q_theta in ``decimal``;
the library is held to them bit for bit.  ``eigen_char_poly`` is a second, float route to
the lead eigenvalue: the roots of the characteristic polynomial, and
``eigenfunction_oracle`` evaluates the lead eigenfunction one boolean mask
per polynomial term; ``eigenfunction_sorted_oracle`` is the piece-sorted
evaluation as it was before its sums started from term 0's value of 1.0.
``first_moment_bound`` multiplies a path count into the single-path term
of ``rmfperc.analytic``, as the paper's cutset and Z^n bounds do.

``BrickId``, ``brick_ids_up_to``, ``Brick``, ``brick_build``,
``edge_open`` and ``brick_good`` are the scalar definitions of the
bricklayer coupling in the paper's (x, y) coordinates, one brick and one
edge at a time through ``uniform_at``; the brick masks, the
array goodness grid and the witness-path verification of
``rmfperc.bricklayer``, which work on (k, y) grid indices, are compared
against them.  ``compute_A_oracle`` finds the distance threshold A_q(n)
from whole-window arrays over every a of the scan at once, as
``compute_A`` did before it scanned in blocks.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from rmfperc.analytic import _brentq, _check_theta, _floor_one_over, _log_path_term
from rmfperc.bricklayer import BrickConfig
from rmfperc.core import LabelField, Metric
from rmfperc.tree import (
    DEFAULT_CAP,
    MIN_EVENTS,
    _CHILD_BASE,
    _COUNT_TAG,
    _TREE_TAG,
    OffspringDistribution,
    SurvivalCurve,
    _histories,
    _step_arrays,
)


_WORD = 2**64


def mix(z: int) -> int:
    """The splitmix64 finalizer of the 64-bit word ``z``."""
    z %= _WORD
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % _WORD
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % _WORD
    return z ^ (z >> 31)


def combine(key: int, value: int) -> int:
    """``key`` with the integer ``value`` folded in, as sites fold their
    coordinates and tree children their index: value mod 2^64 times the
    golden-ratio word G, xor the key and G, mixed."""
    golden = 0x9E3779B97F4A7C15
    return mix(key ^ (value % _WORD * golden % _WORD) ^ golden)


def key_of(field: LabelField, site_or_id) -> int:
    """The hash key of a site (a tuple of ints) or an int id: the field's
    root, mix(seed mod 2^64), with each coordinate folded in turn."""
    key = mix(field.seed)
    for c in (site_or_id,) if isinstance(site_or_id, (int, np.integer)) else site_or_id:
        key = combine(key, int(c))
    return key


def uniform_from_key(key: int) -> float:
    """The uniform of a hash key: its 53 high bits, offset by half a step.
    Values lie in (0, 1]; every key from 2^64 - 2^11 on gives 1.0."""
    return ((key >> 11) + 0.5) * 2.0**-53


def uniform_at(field, site_or_id) -> float:
    """The uniform of one site or id of a ``LabelField``; a test double
    such as ``conftest.FixedField`` gives its own."""
    if isinstance(field, LabelField):
        return uniform_from_key(key_of(field, site_or_id))
    return field.uniform_at(site_or_id)


def power_key(metric: Metric, site):
    """The exact comparison key ||site||_q^q: an int for integer q,
    max|coord| for q = inf, the ``math.fsum`` of the float powers otherwise."""
    if len(site) == 0:
        raise ValueError("a site needs at least one coordinate")
    a = [abs(int(c)) for c in site]
    if metric.q == math.inf:
        return max(a)
    if float(metric.q).is_integer():
        return sum(c ** int(metric.q) for c in a)
    return math.fsum(c**metric.q for c in a)


def norm(metric: Metric, site) -> float:
    """The l^q distance of one site: the exact power sum ``power_key`` as
    a float, to the power 1/q (the sum itself for q = inf)."""
    if metric.q == math.inf:
        return float(power_key(metric, site))
    return float(power_key(metric, site)) ** (1.0 / metric.q)


@dataclass
class Frontier:
    """Accessible vertices of one replica at a fixed generation: their
    uniform marks plus the hash keys that make children replayable."""

    generation: int
    uniforms: np.ndarray
    keys: np.ndarray
    truncated: bool = False

    @property
    def size(self) -> int:
        return len(self.uniforms)


def root_frontier(field: LabelField, replica: int = 0) -> Frontier:
    key = key_of(field, (_TREE_TAG, replica, _CHILD_BASE))
    return Frontier(
        generation=0,
        uniforms=np.array([uniform_from_key(key)]),
        keys=np.array([key], dtype=np.uint64),
    )


def step_frontier(
    frontier: Frontier,
    theta: float,
    offspring: OffspringDistribution,
    field: LabelField,
    cap: int = DEFAULT_CAP,
) -> Frontier:
    """Evolve one replica's frontier by one generation.

    A child with mark u' survives iff u' > u - theta, i.e. iff its full
    label exceeds the parent's.  If the new frontier would exceed ``cap``
    it is truncated and flagged.
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0,1], got {theta}")
    # one replica slot and no cap in the engine: the oracle truncates below
    child_u, child_keys, _, _ = _step_arrays(
        frontier.uniforms, frontier.keys, np.zeros(frontier.size, dtype=np.int64), 1,
        theta, offspring, field, math.inf,
    )
    truncated = frontier.truncated
    if len(child_u) > cap:
        child_u = child_u[:cap]
        child_keys = child_keys[:cap]
        truncated = True
    return Frontier(frontier.generation + 1, child_u, child_keys, truncated)


def step_oracle(uniforms, keys, replica, slots, theta, offspring, field, cap):
    """``tree._step_arrays`` one child at a time, from the scalar hash.

    Child i of parent j has key ``combine(keys[j], _CHILD_BASE + i)``
    and mark ``uniform_from_key`` of it; the offspring counts
    come from ``count_oracle``, and a child is kept iff u' > u - theta.
    Returns (child_uniforms, child_keys, child_replica, counts) with every
    slot's full kept count; the children of a slot whose count passes
    ``cap`` are left out, as the engine drops them.
    """
    counts = count_oracle(offspring, keys, field)
    children = []
    kept = np.zeros(slots, dtype=np.int64)
    for j in range(len(uniforms)):
        threshold = float(uniforms[j]) - theta
        for i in range(int(counts[j])):
            key = combine(int(keys[j]), _CHILD_BASE + i)
            u = uniform_from_key(key)
            if u > threshold:
                children.append((u, key, int(replica[j])))
                kept[replica[j]] += 1
    children = [child for child in children if kept[child[2]] <= cap]
    return (
        np.array([u for u, _, _ in children], dtype=np.float64),
        np.array([k for _, k, _ in children], dtype=np.uint64),
        np.array([r for _, _, r in children], dtype=np.int64),
        kept,
    )


def count_oracle(offspring: OffspringDistribution, keys, field: LabelField) -> np.ndarray:
    """Offspring counts of the parents with hash keys ``keys``."""
    u = field.uniform_from_key_array(field.derive_key_array(keys, np.uint64(_COUNT_TAG)))
    if offspring.kind == "deterministic":
        return np.full(u.shape, offspring.params[0], dtype=np.int64)
    if offspring.kind == "geometric":
        p = offspring.params[0] / (1.0 + offspring.params[0])
        return np.floor(np.log1p(-u) / math.log(p)).astype(np.int64)
    if offspring.kind == "poisson":
        m = offspring.params[0]
        ks = np.arange(int(m + 12.0 * math.sqrt(m) + 30) + 1)
        log_fact = np.array([math.lgamma(k + 1) for k in ks])
        cdf = np.cumsum(np.exp(ks * math.log(m) - m - log_fact))
    else:
        n, p = offspring.params
        ks = range(n + 1)
        cdf = np.cumsum([math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in ks])
    return np.searchsorted(cdf, u, side="left").astype(np.int64)


def theta_sweep_oracle(offspring, theta_grid, horizon_h, replicas, cap, seed) -> SurvivalCurve:
    """``estimate_theta_c_tree`` as one full simulation of every replica per
    grid point, in grid order."""
    thetas = np.asarray(list(theta_grid), dtype=np.float64)
    field = LabelField(seed)
    ests = np.empty(len(thetas))
    errs = np.empty(len(thetas))
    halves = np.empty(len(thetas))
    crossing = None
    mid = max(1, horizon_h // 2)
    for i, th in enumerate(thetas):
        extinct_at, _, _, _ = _histories(
            float(th), offspring, horizon_h, np.arange(replicas), cap, field
        )
        s_mid, s_end = (int((extinct_at > h).sum()) for h in (mid, horizon_h))
        p = s_end / replicas
        ests[i] = p
        errs[i] = math.sqrt(p * (1.0 - p) / replicas)
        halves[i] = s_mid / replicas
        if crossing is None and s_end >= MIN_EVENTS and s_end >= 0.5 * s_mid:
            crossing = float(th)
    return SurvivalCurve(thetas, ests, errs, halves, crossing, horizon_h, replicas)


def survival_oracle(pgf, theta: float, horizon: int, points: int = 20_000) -> float:
    """Exact probability that a replica's frontier is nonempty at ``horizon``.

    With s_h(u) the survival probability to h of a root with mark u,
    s_0 = 1 and s_h(u) = 1 - pgf(1 - int_{(u-theta)+}^1 s_{h-1}): each of
    the root's children is kept with its own subtree alive with that
    probability, independently.  ``pgf`` is the offspring generating
    function; s lives on a ``points``-point midpoint grid, and the root mark
    is uniform, so the result is the grid mean of s_horizon.
    """
    u = (np.arange(points) + 0.5) / points
    edges = np.arange(points + 1) / points
    s = np.ones(points)
    for _ in range(horizon):
        tail = np.append(np.cumsum(s[::-1])[::-1], 0.0) / points  # int_{edges[k]}^1 s
        s = 1.0 - pgf(1.0 - np.interp(np.maximum(u - theta, 0.0), edges, tail))
    return float(s.mean())


def minimal_root_oracle(theta: float) -> float:
    """Minimal root of Q_theta(x) = sum_j (-x)^j (1-(j-1)theta)^j / j!, the
    slow way, rounded to the nearest float.

    Q_theta is summed term by term at 60 + 1.5/theta digits and scanned in
    steps of theta/20, a quarter of the ~5*theta spacing of its real roots
    near the minimal one, up from the proven lower bound
    max(1, 1/(e*theta)); mpmath's bracketed solver then finds the root in
    the first cell where Q_theta is no longer positive.
    """
    ctx = mpmath.mp.clone()
    ctx.dps = 60 + int(1.5 / theta)
    th = ctx.mpf(theta)
    degree = math.floor(1 / Fraction(theta)) + 1
    coeffs = [(-1) ** j * (1 - (j - 1) * th) ** j / ctx.factorial(j) for j in range(degree + 1)]

    def q(x):
        terms, xp = [], ctx.mpf(1)
        for c in coeffs:
            terms.append(c * xp)
            xp *= x
        return ctx.fsum(terms)

    x = ctx.mpf(max(1.0, 1.0 / (math.e * theta)))
    q_x = q(x)
    assert q_x >= 0, f"Q_theta < 0 at the lower bound for theta={theta}"
    if q_x == 0:
        return float(x)
    step = th / 20
    while q(x + step) > 0:
        x += step
        assert x < 4 / th, f"no sign change of Q_theta for theta={theta}"
    if q(x + step) == 0:
        return float(x + step)
    scale = 1 / abs(q_x)
    return float(ctx.findroot(lambda m: q(m) * scale, (x, x + step), solver="anderson"))


def q_evaluator_oracle(theta: float):
    """Q_theta at fixed theta in mpmath: q(x) returns the unrounded mp value
    of the Horner sum over descending coefficients, at 30 + 0.9/theta
    digits in a cloned context."""
    ctx = mpmath.mp.clone()
    ctx.dps = 30 + int(0.9 / theta)
    th = ctx.mpf(theta)
    coeffs = [
        (-1) ** j * (1 - (j - 1) * th) ** j / ctx.factorial(j)
        for j in range(_floor_one_over(theta) + 1, -1, -1)
    ]
    return lambda x: ctx.polyval(coeffs, ctx.mpf(x))


def q_theta_eval_oracle(theta: float, x: float) -> float:
    """Q_theta(x) at a float drift, rounded once from the mpmath value."""
    _check_theta(theta)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return float(q_evaluator_oracle(float(theta))(float(x)))


def m_critical_oracle(theta: float) -> float:
    """The walk and brentq polish of ``rmfperc.analytic.m_critical`` on the
    mpmath evaluator, each value scaled by 2^-mag(Q_theta(start))."""
    _check_theta(theta)
    th = float(theta)
    if th < 1e-3:
        raise ValueError(f"theta={th} below supported floor 1e-3")
    q = q_evaluator_oracle(th)
    lo = max(1.0, 1.0 / (math.e * th))
    q_start = q(lo)
    if q_start < 0:
        raise RuntimeError(f"Q_theta < 0 at the lower bound m={lo} for theta={th}")
    if q_start == 0:
        return lo
    hi = 1.03 / (th * (2.0 - th))
    while True:
        x = min(lo + th / 2.0, hi)
        q_x = q(x)
        if q_x <= 0:
            break
        if x == hi:
            raise RuntimeError(f"no sign change of Q_theta up to m={hi} for theta={th}")
        lo = x
    if q_x == 0:
        return x
    shift = -mpmath.mag(q_start)
    return _brentq(
        lambda m: float(mpmath.ldexp(q(m), shift)), lo, x, xtol=1e-300, rtol=8.9e-16
    )


def theta_critical_oracle(m: float) -> float:
    """``rmfperc.analytic.theta_critical`` on ``m_critical_oracle``."""
    if not m >= 1.0:
        raise ValueError(f"theta_critical requires m >= 1, got {m}")
    if m == 1.0:
        return 1.0
    lo = max(1e-3, 0.98 / (math.e * m))
    hi = min(1.0, 1.02 * (1.0 - math.sqrt(1.0 - 1.0 / m)))
    if hi <= lo or (lo == 1e-3 and m_critical_oracle(lo) <= m):
        raise ValueError(
            f"theta_c({m}) lies below the supported drift floor 1e-3"
        )
    return _brentq(lambda t: m_critical_oracle(t) - m, lo, hi, xtol=1e-15, rtol=8.9e-16)


def first_moment_bound(log_count: float, h: int, theta: float) -> float:
    """count * (1 + theta*h)^(h+1) / (h+1)!, the first-moment bound on an
    increasing path of length h among count = exp(log_count) paths, summed
    in log space: the count or the power alone may leave the float range
    where their product does not."""
    return math.exp(log_count + _log_path_term(h, theta * h))


def eigen_char_poly(m: float, theta: float):
    """Characteristic polynomial of the eigenvalue problem, monic in lambda:

        lambda^(K+1) - sum_{i=0}^{K} (-1)^i/(i+1)! m^(i+1) (1-i*theta)^(i+1)
                       * lambda^(K-i),   K = floor(1/theta).

    Returns (coefficients in descending powers, sorted real roots); the
    largest real root is the lead eigenvalue.  Raises where 1/theta is an
    integer, since the constant coefficient vanishes there.
    """
    inv = 1.0 / theta
    if abs(inv - round(inv)) <= 1e-12 * max(1.0, inv):
        raise ValueError(f"1/theta is an integer ({round(inv)}): the constant coefficient vanishes")
    k = math.floor(inv)
    coeffs = np.zeros(k + 2)
    coeffs[0] = 1.0
    for i in range(k + 1):
        c = (-1.0) ** i / math.factorial(i + 1) * m ** (i + 1) * (1.0 - i * theta) ** (i + 1)
        coeffs[i + 1] = -c
    roots = np.roots(coeffs)
    scale = max(1.0, np.abs(roots).max())
    real = np.sort(roots.real[np.abs(roots.imag) <= 1e-9 * scale])
    return coeffs, real


def eigenfunction_oracle(m: float, theta: float, lam: float, u):
    """f_{m,theta,lambda} at u, one boolean mask per term: term i of the
    piece sum is added to every point with piece index j >= i."""
    scalar = np.isscalar(u)
    uu = np.atleast_1d(np.asarray(u, dtype=np.float64))
    kmax = _floor_one_over(theta)
    j = np.minimum(np.floor(uu / theta + 1e-12).astype(np.int64), kmax)
    out = np.zeros_like(uu)
    ratio = -m / lam
    coeff = 1.0
    for i in range(kmax + 1):
        mask = j >= i
        if not mask.any():
            break
        out[mask] += coeff * (uu[mask] - i * theta) ** i
        coeff *= ratio / (i + 1)
    return float(out[0]) if scalar else out


def eigenfunction_sorted_oracle(m: float, theta: float, lam: float, u):
    """``analytic.eigenfunction_eval`` as it was before its sums started
    from term 0's value: the points sorted by piece, and term i, power
    included, added to the run of points with piece index j >= i, each
    point's sum starting from 0.0."""
    scalar = np.isscalar(u)
    uu = np.atleast_1d(np.asarray(u, dtype=np.float64))
    kmax = _floor_one_over(theta)
    j = np.minimum(np.floor(uu / theta + 1e-12).astype(np.int64), kmax)
    order = np.argsort(j.astype(np.min_scalar_type(kmax)), kind="stable")
    us = uu[order]
    pieces = np.bincount(j, minlength=kmax + 1)
    starts = np.cumsum(pieces) - pieces
    acc = np.zeros_like(uu)
    ratio = -m / lam
    coeff = 1.0
    for i, s in enumerate(starts.tolist()):
        if s == len(us):
            break
        acc[s:] += coeff * (us[s:] - i * theta) ** i
        coeff *= ratio / (i + 1)
    out = np.empty_like(uu)
    out[order] = acc
    return float(out[0]) if scalar else out


def compute_A_oracle(config: BrickConfig, scan_max: int = 10**6) -> int:
    """A_q(n): one more than the last a in [1, ``scan_max``] where
    (1 + q/a)^(1/q) >= 1 + (1 - eps)/a fails, with eps = (5/n)^q, from
    float64 arrays over the whole window; ``compute_A``'s exceptions, with
    their messages, for q = inf, n <= 5, a window where it never holds, or
    one whose last point fails."""
    if config.q == math.inf:
        raise ValueError("the distance threshold applies to finite q only")
    if config.n <= 5:
        raise ValueError(f"need n > 5, got {config.n}")
    q, eps = config.q, (5.0 / config.n) ** config.q
    a = np.arange(1, scan_max + 1, dtype=np.float64)
    holds = np.expm1(np.log1p(q / a) / q) >= (1.0 - eps) / a
    failures = np.nonzero(~holds)[0]
    if len(failures) == len(a):
        raise RuntimeError(f"inequality never holds for a <= {scan_max}")
    a0 = int(failures[-1]) + 2 if len(failures) else 1
    if a0 > scan_max:
        raise RuntimeError(f"no threshold found within scan window {scan_max}")
    return a0


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


def brick_ids_up_to(x_max) -> list:
    """All bricklayer vertices with x <= x_max, ordered by y and then x,
    compared exactly."""
    x_max = Fraction(x_max)
    out = []
    for y in range(0, math.floor(2 * x_max) + 1):
        k = 0
        while Fraction(k) + Fraction(y, 2) <= x_max:
            out.append(BrickId.from_grid(k, y))
            k += 1
    return out


@dataclass(frozen=True)
class Brick:
    """Vertex and edge sets of one brick.

    Sites (a, b) with a in {x*n, ..., x*n + n} and b in {2y, 2y+1, 2y+2};
    horizontal edges run along the two lower rows, left-vertical edges sit
    in the second column quarter between the lower rows, right-vertical
    edges in the third quarter between the upper rows.  No two vertical
    edges share a vertex, which makes all edge states within a brick
    independent.
    """

    id: BrickId
    n: int
    vertices: frozenset
    hor: tuple
    lver: tuple
    rver: tuple

    @property
    def edges(self) -> tuple:
        return self.hor + self.lver + self.rver


def _col0(brick_id: BrickId, n: int) -> int:
    c = brick_id.x * n
    if c.denominator != 1:
        raise ValueError(f"x*n must be integral; got x={brick_id.x}, n={n}")
    return int(c)


def brick_build(brick_id: BrickId, config: BrickConfig) -> Brick:
    """Materialise the vertex set and the three directed edge sets."""
    n = config.n
    if n % 4 != 0:
        raise ValueError(f"brick subdivision requires n divisible by 4, got {n}")
    c0 = _col0(brick_id, n)
    r0 = 2 * brick_id.y
    vertices = frozenset(
        (a, b) for a in range(c0, c0 + n + 1) for b in (r0, r0 + 1, r0 + 2)
    )
    hor = tuple(
        ((a, b), (a + 1, b))
        for b in (r0, r0 + 1)
        for a in range(c0, c0 + n)
    )
    lver = tuple(
        ((a, r0), (a, r0 + 1)) for a in range(c0 + n // 4, c0 + n // 2)
    )
    rver = tuple(
        ((a, r0 + 1), (a, r0 + 2)) for a in range(c0 + n // 2, c0 + 3 * n // 4)
    )
    return Brick(id=brick_id, n=n, vertices=vertices, hor=hor, lver=lver, rver=rver)


def edge_open(edge, field: LabelField, config: BrickConfig) -> bool:
    """Openness of one directed edge of the coupling.

    Horizontal ((a,b),(a+1,b)): source uniform inside the window.
    Vertical ((a,b),(a,b+1)): source uniform below the target uniform.
    """
    (a, b), (a2, b2) = edge
    if a2 == a + 1 and b2 == b:
        w = config.window_margin
        return w < uniform_at(field, (a, b)) < 1.0 - w
    if a2 == a and b2 == b + 1:
        return uniform_at(field, (a, b)) < uniform_at(field, (a, b2))
    raise ValueError(f"not a brick edge: {edge}")


def brick_good(brick_id: BrickId, field: LabelField, config: BrickConfig) -> bool:
    """All horizontal edges open, at least one left-vertical open, and at
    least one right-vertical open."""
    brick = brick_build(brick_id, config)
    return (
        all(edge_open(e, field, config) for e in brick.hor)
        and any(edge_open(e, field, config) for e in brick.lver)
        and any(edge_open(e, field, config) for e in brick.rver)
    )
