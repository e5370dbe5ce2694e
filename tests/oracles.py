"""Slow references for the tests.

``root_frontier`` and ``step_frontier`` evolve one replica's frontier a
generation at a time from the same hash streams as the batched engine in
``rmfperc.tree``, so the tests can compare the two replica by replica.
``theta_sweep_oracle`` is the per-drift loop that re-simulates every
replica at every grid point.  ``survival_oracle`` integrates the survival
recursion on a grid, and ``minimal_root_oracle`` finds the minimal root of
Q_theta by a fine scan.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

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
