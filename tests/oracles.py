"""Single-replica reference for the tree engine.

``root_frontier`` and ``step_frontier`` evolve one replica's frontier a
generation at a time from the same hash streams as the batched engine in
``rmfperc.tree``, so the tests can compare the two replica by replica.
"""

from dataclasses import dataclass

import numpy as np

from rmfperc.core import LabelField
from rmfperc.tree import DEFAULT_CAP, _CHILD_BASE, _TREE_TAG, OffspringDistribution, _step_arrays


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
