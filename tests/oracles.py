"""Slow references for the tests.

``root_frontier`` and ``step_frontier`` evolve one replica's frontier a
generation at a time from the same hash streams as the batched engine in
``rmfperc.tree``, so the tests can compare the two replica by replica.
``theta_sweep_oracle`` is the per-drift loop that re-simulates every
replica at every grid point.  ``survival_oracle`` integrates the survival
recursion on a grid, and ``minimal_root_oracle`` finds the minimal root of
Q_theta by a fine scan.  ``eigen_char_poly`` is a second, float route to
the lead eigenvalue: the roots of the characteristic polynomial.
``first_moment_bound`` multiplies a path count into the single-path term
of ``rmfperc.analytic``, as the paper's cutset and Z^n bounds do.

``Brick``, ``brick_build``, ``edge_open`` and ``brick_good`` are the
scalar definitions of the bricklayer coupling, one brick and one edge at a
time through ``LabelField.uniform_at``; the array goodness grid and the
witness-path verification of ``rmfperc.bricklayer`` are compared against
them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from rmfperc.analytic import _log_path_term
from rmfperc.bricklayer import BrickConfig, BrickId
from rmfperc.core import LabelField
from rmfperc.tree import (
    DEFAULT_CAP,
    MIN_EVENTS,
    _CHILD_BASE,
    _TREE_TAG,
    OffspringDistribution,
    SurvivalCurve,
    _histories,
    _step_arrays,
)


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
    key = field.derive_key(field.derive_key(field.key_of(_TREE_TAG), replica), _CHILD_BASE)
    return Frontier(
        generation=0,
        uniforms=np.array([field.uniform_from_key(key)]),
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
    child_u, child_keys, _ = _step_arrays(
        frontier.uniforms, frontier.keys, theta, offspring, field
    )
    truncated = frontier.truncated
    if len(child_u) > cap:
        child_u = child_u[:cap]
        child_keys = child_keys[:cap]
        truncated = True
    return Frontier(frontier.generation + 1, child_u, child_keys, truncated)


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
        return w < field.uniform_at((a, b)) < 1.0 - w
    if a2 == a and b2 == b + 1:
        return field.uniform_at((a, b)) < field.uniform_at((a, b2))
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
