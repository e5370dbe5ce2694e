"""Monte Carlo simulation of increasing-path percolation on
Bienayme-Galton-Watson trees.

The frontier at generation h is the multiset of Uniform(0,1) marks of
vertices whose root path is increasing.  A parent with mark u keeps each
child with mark u' iff u' > u - theta, so the kept-children count given k
offspring is Bin(k, min(1-u+theta, 1)) and kept marks are uniform on
(max(u-theta,0), 1).

Every vertex mark is a pure function of (seed, replica, path from root),
derived by folding child indices into the parent's hash key.  Batched and
one-replica-at-a-time runs therefore produce bit-identical uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import eigenfunction_eval, lead_eigenvalue
from .core import LabelField

__all__ = [
    "OffspringDistribution",
    "Frontier",
    "SurvivalEstimate",
    "SurvivalCurve",
    "MartingaleTrace",
    "root_frontier",
    "step_frontier",
    "survival_probability",
    "estimate_theta_c_tree",
    "martingale_trace",
]

DEFAULT_CAP = 10**6

# replicas per batch; martingale_trace's float sums depend on its chunk,
# survivor counts do not
MARTINGALE_CHUNK = 2048
_SURVIVAL_CHUNK = 4096

# hash-stream tags; keep tree keys disjoint from raw site keys
_TREE_TAG = 0x7265_65
_COUNT_TAG = 0x636E_74
_CHILD_BASE = 0x1000_0000


@dataclass(frozen=True)
class OffspringDistribution:
    """Offspring law L for the branching tree.

    Kinds and their mean parameterisation:
      deterministic(k)      P(L=k)=1,                mean k
      poisson(m)            Poisson(m),              mean m
      binomial(n, p)        Bin(n, p),               mean n*p
      geometric(m)          P(L=k)=(1-p)p^k, k>=0,   p=m/(1+m), mean m

    Sampling is by inverse CDF applied to the counter-based uniforms, so
    offspring counts replay exactly.
    """

    kind: str
    params: tuple

    @classmethod
    def deterministic(cls, k: int) -> "OffspringDistribution":
        if k < 0:
            raise ValueError("offspring count must be >= 0")
        return cls("deterministic", (int(k),))

    @classmethod
    def poisson(cls, mean: float) -> "OffspringDistribution":
        if mean <= 0:
            raise ValueError("poisson mean must be > 0")
        return cls("poisson", (float(mean),))

    @classmethod
    def binomial(cls, n: int, p: float) -> "OffspringDistribution":
        if n < 0 or not (0.0 <= p <= 1.0):
            raise ValueError("binomial requires n >= 0 and p in [0,1]")
        return cls("binomial", (int(n), float(p)))

    @classmethod
    def geometric(cls, mean: float) -> "OffspringDistribution":
        if mean <= 0:
            raise ValueError("geometric mean must be > 0")
        return cls("geometric", (float(mean),))

    @property
    def mean(self) -> float:
        if self.kind == "deterministic":
            return float(self.params[0])
        if self.kind == "poisson":
            return self.params[0]
        if self.kind == "binomial":
            return self.params[0] * self.params[1]
        return self.params[0]

    def _cdf_table(self) -> np.ndarray:
        if self.kind == "poisson":
            m = self.params[0]
            kmax = int(m + 12.0 * math.sqrt(m) + 30)  # tail mass < 1e-18
            ks = np.arange(kmax + 1)
            log_fact = np.array([math.lgamma(k + 1) for k in ks])
            logpmf = ks * math.log(m) - m - log_fact
            return np.cumsum(np.exp(logpmf))
        if self.kind == "binomial":
            n, p = self.params
            ks = np.arange(n + 1)
            pmf = np.array([math.comb(n, int(k)) * p**int(k) * (1 - p) ** (n - int(k)) for k in ks])
            return np.cumsum(pmf)
        raise AssertionError(self.kind)

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF transform of uniforms in (0,1) to offspring counts."""
        if self.kind == "deterministic":
            return np.full(u.shape, self.params[0], dtype=np.int64)
        if self.kind == "geometric":
            p = self.params[0] / (1.0 + self.params[0])
            return np.floor(np.log1p(-u) / math.log(p)).astype(np.int64)
        cdf = self._cdf_table()
        return np.searchsorted(cdf, u, side="left").astype(np.int64)


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


def _step_arrays(uniforms, keys, theta, offspring, field):
    """One synchronous generation for a flat batch of parents.

    Returns (child_uniforms, child_keys, parent_index) for the kept
    children; parent_index maps each child to its parent's slot.
    """
    count_u = field.uniform_from_key_array(field.derive_key_array(keys, np.uint64(_COUNT_TAG)))
    counts = offspring.sample(count_u)
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0), np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    parent_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    child_ord = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    child_keys = field.derive_key_array(keys[parent_idx], _CHILD_BASE + child_ord)
    child_u = field.uniform_from_key_array(child_keys)
    keep = child_u > uniforms[parent_idx] - theta
    return child_u[keep], child_keys[keep], parent_idx[keep]


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


@dataclass(frozen=True)
class SurvivalEstimate:
    theta: float
    horizon: int
    replicas: int
    survivors: int
    truncated: int
    cap: int
    seed: int

    @property
    def estimate(self) -> float:
        return self.survivors / self.replicas

    @property
    def stderr(self) -> float:
        p = self.estimate
        return math.sqrt(p * (1.0 - p) / self.replicas)


class _BatchState:
    """Flat arrays for many replicas evolved in lockstep.  ``replica``
    holds positions 0..n-1 within the batch and stays sorted; keys derive
    from the global replica ids, so neither chunking nor group splitting
    can change any uniform."""

    # bound on children materialised at once; supercritical frontiers are
    # stepped in replica-contiguous groups of roughly this many members
    MEMBER_BUDGET = 4_000_000

    def __init__(self, field: LabelField, replica_ids: np.ndarray):
        n = len(replica_ids)
        base = field.key_of(_TREE_TAG)
        rkeys = field.derive_key_array(
            np.full(n, base, dtype=np.uint64), replica_ids
        )
        self.keys = field.derive_key_array(rkeys, np.uint64(_CHILD_BASE))
        self.uniforms = field.uniform_from_key_array(self.keys)
        self.replica = np.arange(n, dtype=np.int64)
        self.n = n

    def sizes(self) -> np.ndarray:
        return np.bincount(self.replica, minlength=self.n)

    def drop_replicas(self, dead_mask: np.ndarray):
        keep = ~dead_mask[self.replica]
        self.uniforms = self.uniforms[keep]
        self.keys = self.keys[keep]
        self.replica = self.replica[keep]

    def _group_bounds(self, per_group: int):
        """Member-index boundaries, aligned to replica boundaries so that
        each group is a whole number of replicas."""
        n_members = len(self.uniforms)
        bounds = [0]
        i = 0
        while i < n_members:
            j = min(i + per_group, n_members)
            if j < n_members:
                r = self.replica[j - 1]
                while j < n_members and self.replica[j] == r:
                    j += 1
            bounds.append(j)
            i = j
        return bounds

    def step(self, theta, offspring, field, cap=None) -> np.ndarray:
        """One generation for every live replica.  With ``cap`` given,
        replicas whose new frontier exceeds it are flagged in the returned
        mask and their members dropped (their survival is already decided).
        """
        capped = np.zeros(self.n, dtype=bool)
        n_members = len(self.uniforms)
        if n_members == 0:
            return capped
        per_group = max(1, int(self.MEMBER_BUDGET / max(offspring.mean, 1.0)))
        bounds = self._group_bounds(per_group)
        new_u, new_k, new_r = [], [], []
        kept_counts = np.zeros(self.n, dtype=np.int64)
        for s, e in zip(bounds, bounds[1:]):
            live = ~capped[self.replica[s:e]]
            child_u, child_keys, parent_idx = _step_arrays(
                self.uniforms[s:e][live],
                self.keys[s:e][live],
                theta,
                offspring,
                field,
            )
            child_rep = self.replica[s:e][live][parent_idx]
            if cap is not None and len(child_rep):
                kept_counts += np.bincount(child_rep, minlength=self.n)
                newly = (kept_counts > cap) & ~capped
                if newly.any():
                    capped |= newly
                    keep = ~capped[child_rep]
                    child_u, child_keys, child_rep = (
                        child_u[keep],
                        child_keys[keep],
                        child_rep[keep],
                    )
            new_u.append(child_u)
            new_k.append(child_keys)
            new_r.append(child_rep)
        self.uniforms = np.concatenate(new_u)
        self.keys = np.concatenate(new_k)
        self.replica = np.concatenate(new_r)
        if capped.any():
            self.drop_replicas(capped)
        return capped


def _replica_batches(field: LabelField, replicas: int, cap: int, chunk: int):
    """Yield one fresh batch state per chunk of consecutive replica ids.

    The chunk shrinks with ``cap`` to keep resting frontiers bounded:
    replicas can each legitimately grow to ~cap members before being
    declared survived.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    chunk = min(chunk, max(16, 8 * _BatchState.MEMBER_BUDGET // cap))
    for start in range(0, replicas, chunk):
        yield _BatchState(field, np.arange(start, min(start + chunk, replicas)))


def _survivor_counts(theta, offspring, horizons, replicas, cap, field):
    """Survivor counts at each generation in ``horizons`` from one pass,
    plus the number of replicas truncated by ``cap`` before the last one.

    A replica survives to h when its frontier is nonempty at generation h
    or it hit the cap at or before h.
    """
    if min(horizons) < 1 or replicas < 1:
        raise ValueError("horizon_h and replicas must be >= 1")
    last = max(horizons)
    counts = np.zeros(len(horizons), dtype=np.int64)
    truncated = 0
    for state in _replica_batches(field, replicas, cap, _SURVIVAL_CHUNK):
        extinct_at = np.full(state.n, last + 1)  # generation the frontier emptied
        alive = np.ones(state.n, dtype=bool)
        for gen in range(1, last + 1):
            capped = state.step(theta, offspring, field, cap=cap) & alive
            truncated += int(capped.sum())
            alive &= ~capped
            died = alive & (state.sizes() == 0)
            extinct_at[died] = gen
            alive &= ~died
            if not alive.any():
                break
        counts += [int((extinct_at > h).sum()) for h in horizons]
    return counts.tolist(), truncated


def survival_probability(
    theta: float,
    offspring: OffspringDistribution,
    horizon_h: int,
    replicas: int,
    cap: int = DEFAULT_CAP,
    field: Optional[LabelField] = None,
    seed: int = 0,
) -> SurvivalEstimate:
    """Fraction of replicas whose frontier is nonempty at ``horizon_h``.

    A replica whose frontier exceeds ``cap`` is declared survived and
    flagged as truncated (supercritical frontiers explode; stopping them
    early cannot misclassify an extinction).
    """
    if field is None:
        field = LabelField(seed)
    (survivors,), truncated = _survivor_counts(
        theta, offspring, (horizon_h,), replicas, cap, field
    )
    return SurvivalEstimate(
        theta=theta,
        horizon=horizon_h,
        replicas=replicas,
        survivors=survivors,
        truncated=truncated,
        cap=cap,
        seed=field.seed,
    )


@dataclass(frozen=True)
class SurvivalCurve:
    thetas: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    estimates_half: np.ndarray
    crossing: Optional[float]
    horizon: int
    replicas: int

    def rows(self):
        return [
            {"theta": float(t), "survival": float(p), "stderr": float(s)}
            for t, p, s in zip(self.thetas, self.estimates, self.stderrs)
        ]


def estimate_theta_c_tree(
    offspring: OffspringDistribution,
    theta_grid,
    horizon_h: int,
    replicas: int,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    min_events: int = 10,
) -> SurvivalCurve:
    """Survival estimate per grid point plus a crossing estimate for the
    critical drift.

    The crossing is the first grid theta where survival to the full
    horizon is at least half the survival to half the horizon (with at
    least ``min_events`` surviving replicas).  Subcritically that ratio
    vanishes geometrically, critically it tends to 1/2 (survival decays
    like 1/h there), and supercritically it tends to 1, so the rule
    brackets the threshold tightly once horizons are long enough.

    Replica streams are shared across grid points, so the per-replica
    survival indicator is monotone in theta and the curve is nondecreasing
    pathwise.
    """
    thetas = np.asarray(list(theta_grid), dtype=np.float64)
    if np.any((thetas < 0) | (thetas > 1)):
        raise ValueError("theta grid must lie within [0,1]")
    field = LabelField(seed)
    ests = np.empty(len(thetas))
    errs = np.empty(len(thetas))
    halves = np.empty(len(thetas))
    crossing = None
    mid = max(1, horizon_h // 2)
    for i, th in enumerate(thetas):
        (s_mid, s_end), _ = _survivor_counts(
            float(th), offspring, (mid, horizon_h), replicas, cap, field
        )
        p = s_end / replicas
        ests[i] = p
        errs[i] = math.sqrt(p * (1.0 - p) / replicas)
        halves[i] = s_mid / replicas
        if crossing is None and s_end >= min_events and s_end >= 0.5 * s_mid:
            crossing = float(th)
    return SurvivalCurve(thetas, ests, errs, halves, crossing, horizon_h, replicas)


@dataclass(frozen=True)
class MartingaleTrace:
    """Per-generation sample means and standard errors of
    W_n = sum over frontier of lambda^{-n} f(U_v)."""

    m: float
    theta: float
    lam: float
    means: np.ndarray
    stderrs: np.ndarray
    frontier_means: np.ndarray
    replicas: int


def martingale_trace(
    m: float,
    theta: float,
    offspring: OffspringDistribution,
    generations: int,
    replicas: int,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
) -> MartingaleTrace:
    """Monte Carlo trace of the additive martingale built from the lead
    eigenfunction: constant in expectation across generations.

    Raises if any replica hits the frontier cap, since truncation would
    bias the trace.
    """
    if replicas < 1 or generations < 0:
        raise ValueError("replicas must be >= 1 and generations >= 0")
    if abs(offspring.mean - m) > 1e-9 * max(1.0, m):
        raise ValueError(
            f"offspring mean {offspring.mean} does not match m={m}"
        )
    lam = lead_eigenvalue(m, theta)
    field = LabelField(seed)
    n_gen = generations + 1
    w_sum = np.zeros(n_gen)
    w_sqsum = np.zeros(n_gen)
    size_sum = np.zeros(n_gen)
    for state in _replica_batches(field, replicas, cap, MARTINGALE_CHUNK):
        for gen in range(n_gen):
            if gen > 0:
                capped = state.step(theta, offspring, field, cap=cap)
                if capped.any():
                    raise RuntimeError(
                        "frontier cap exceeded; martingale trace would be biased"
                    )
            w = np.bincount(
                state.replica,
                weights=eigenfunction_eval(m, theta, lam, state.uniforms),
                minlength=state.n,
            ) * lam ** (-gen)
            w_sum[gen] += w.sum()
            w_sqsum[gen] += (w * w).sum()
            size_sum[gen] += len(state.uniforms)
    means = w_sum / replicas
    var = np.maximum(w_sqsum - replicas * means**2, 0.0) / max(replicas - 1, 1)
    stderrs = np.sqrt(var / replicas)
    return MartingaleTrace(
        m=m,
        theta=theta,
        lam=lam,
        means=means,
        stderrs=stderrs,
        frontier_means=size_sum / replicas,
        replicas=replicas,
    )
