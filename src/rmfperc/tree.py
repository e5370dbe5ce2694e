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

import copy
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import eigenfunction_eval, lead_eigenvalue
from .core import _GOLDEN_W, LabelField, _guard_bytes, _mix_np

__all__ = [
    "OffspringDistribution",
    "SurvivalEstimate",
    "SurvivalCurve",
    "MartingaleTrace",
    "survival_probability",
    "estimate_theta_c_tree",
    "martingale_trace",
]

DEFAULT_CAP = 10**6

# expected children of one batch step, and the most children one slice of
# a step makes (one parent may pass it alone).  Only live members count.
# 2^14 children make 128 kB temporaries: a step's working set stays in a
# 2 MB L2 cache (README, "Numerical notes", for the sweep).  They live in
# the run's ``_StepBuffers``, not in fresh arrays at each step
MEMBER_BUDGET = 16_384

# tracemalloc peaks of the engine, for the memory guard: about 64 bytes per
# frontier member of one replica stepped near the cap (64 MB for a ternary
# replica at theta = 0.6 passing the cap 10^6, whose input and output
# buffers each hold up to cap members; 3.1, 19.5 and 167 MB for the 3^10,
# 3^12 and 3^14 members of an uncapped ternary tree at theta = 1), 90-98
# per replica for the arrays ``_histories`` and the sweep build before
# they step, and 32 per replica and generation for the
# martingale's (replicas, generations + 1) weight sums; it reduces them one
# generation at a time and peaks at about 8 per cell (183 and 503 bytes per
# replica at 10 and 50 generations, m = 2, theta = 0.15, 20,000 replicas).
# The guard keeps 32, so that it refuses the same runs
_BYTES_PER_MEMBER = 64
_BYTES_PER_REPLICA = 100
_BYTES_PER_TRACE_CELL = 32

# surviving replicas the threshold crossing needs at the full horizon
MIN_EVENTS = 10

# cells of the guide table that maps a count uniform to its count (indexed
# search, Chen and Asau 1974); a power of two, so u * _GUIDE_CELLS is exact
_GUIDE_CELLS = 1024

# 1 minus the largest uniform below 1.0 (the hash also gives 1.0 itself)
_BELOW_ONE_GAP = 2.0**-52

# hash-stream tags; keep tree keys disjoint from raw site keys
_TREE_TAG = 0x7265_65
_COUNT_TAG = 0x636E_74
_CHILD_BASE = 0x1000_0000


def _whole(value, what: str) -> int:
    """``value`` as an int: an integer, or a real number with an integral
    value such as 2.0.  Anything else, 2.5, inf and nan included, raises
    ``ValueError`` rather than being rounded."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{what} must be a whole number, got {value!r}")


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
        k = _whole(k, "offspring count")
        if k < 0:
            raise ValueError("offspring count must be >= 0")
        return cls("deterministic", (k,))

    @classmethod
    def poisson(cls, mean: float) -> "OffspringDistribution":
        if not 0 < mean < math.inf:
            raise ValueError(f"poisson mean must be finite and > 0, got {mean}")
        return cls("poisson", (float(mean),))

    @classmethod
    def binomial(cls, n: int, p: float) -> "OffspringDistribution":
        n = _whole(n, "binomial trial count")
        if n < 0 or not (0.0 <= p <= 1.0):
            raise ValueError("binomial requires n >= 0 and p in [0,1]")
        return cls("binomial", (n, float(p)))

    @classmethod
    def geometric(cls, mean: float) -> "OffspringDistribution":
        if not 0 < mean < math.inf:
            raise ValueError(f"geometric mean must be finite and > 0, got {mean}")
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

    @property
    def _table_length(self) -> int:
        """Entries of the Poisson or binomial CDF table, 0 for the other
        laws; in closed form, so the guard reads it before the table is
        built."""
        if self.kind == "poisson":
            m = self.params[0]
            return int(m + 12.0 * math.sqrt(m) + 30) + 1  # tail mass < 1e-18
        return self.params[0] + 1 if self.kind == "binomial" else 0

    @property
    def _widest(self) -> float:
        """The most children one parent can have: k, n, the Poisson table
        length (a uniform above its last entry counts that many), or the
        geometric count at the largest uniform below 1, 1 - 2^-52, where
        log(1 - u) is log(2^-52) (``sample`` counts u = 1.0 as that
        uniform); inf where p rounds to 1."""
        if self.kind == "poisson":
            return self._table_length
        if self.kind != "geometric":
            return self.params[0]
        log_p = math.log(self.params[0] / (1.0 + self.params[0]))
        return math.floor(math.log(_BELOW_ONE_GAP) / log_p) if log_p else math.inf

    @functools.cached_property
    def _cdf(self) -> np.ndarray:
        """The Poisson or binomial CDF table, built on first use.  It is
        not a dataclass field, so equality, hashing and repr do not see it."""
        if self.kind == "poisson":
            m = self.params[0]
            ks = np.arange(self._table_length)
            log_fact = np.array([math.lgamma(k + 1) for k in ks])
            logpmf = ks * math.log(m) - m - log_fact
            return np.cumsum(np.exp(logpmf))
        if self.kind == "binomial":
            n, p = self.params
            try:  # C(n, n // 2) passes the float range from n = 1030 on
                pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
            except OverflowError:
                raise ValueError(
                    f"binomial offspring of {n} trials: C(n, k) passes the float range"
                ) from None
            return np.cumsum(pmf)
        raise AssertionError(self.kind)

    @functools.cached_property
    def _guide(self):
        """Per cell [g/G, (g+1)/G), g = 0..G, with G = ``_GUIDE_CELLS``: the
        number of CDF entries below g/G, and whether an entry lies in the
        cell.  Every entry below g/G is below a uniform u of the cell and
        none from (g+1)/G on is, so where no entry lies in the cell, the
        first number is the count of entries below u.  The cell g = G holds
        the uniform 1.0, which the hash also gives."""
        edges = np.searchsorted(self._cdf, np.arange(_GUIDE_CELLS + 2) / _GUIDE_CELLS, side="left")
        return edges[:-1].astype(np.int64), edges[1:] > edges[:-1]

    def sample(self, keys: np.ndarray, field: LabelField) -> np.ndarray:
        """Offspring counts of the parents with hash keys ``keys``: the
        inverse CDF of a uniform hashed from each key.  A deterministic law
        needs no uniform and hashes nothing.  Poisson and binomial counts
        are ``np.searchsorted(cdf, u, side="left")``, read off the guide
        table except in the cells that hold a CDF entry."""
        if self.kind == "deterministic":
            return np.full(keys.shape, self.params[0], dtype=np.int64)
        u = field.uniform_from_key_array(field.derive_key_array(keys, np.uint64(_COUNT_TAG)))
        if self.kind == "geometric":
            p = self.params[0] / (1.0 + self.params[0])
            u = np.minimum(u, 1.0 - _BELOW_ONE_GAP)  # u = 1.0 would count inf children
            return np.floor(np.log1p(-u) / math.log(p)).astype(np.int64)
        below, split = self._guide
        cell = (u * _GUIDE_CELLS).astype(np.intp)
        counts = below[cell]
        hard = np.flatnonzero(split[cell])
        counts[hard] = np.searchsorted(self._cdf, u[hard], side="left")
        return counts


def _slices(counts, offspring, total):
    """The parent slices of one step with ``total`` children, as (lo, hi)
    bounds: runs of at most ``MEMBER_BUDGET`` children (one parent may pass
    it alone), all parents at once when the step fits.  A deterministic law
    with m children per parent has fixed runs of ``MEMBER_BUDGET // m``
    parents, and at least one."""
    n = len(counts)
    if total <= MEMBER_BUDGET:
        return [(0, n)]
    if offspring.kind == "deterministic":
        step = max(MEMBER_BUDGET // offspring.params[0], 1)
        return [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    ends = np.cumsum(counts)
    bounds = []
    lo = 0
    while lo < n:
        hi = max(int(np.searchsorted(ends, ends[lo] - counts[lo] + MEMBER_BUDGET, "right")), lo + 1)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _by_row(op, column, other, out):
    """``op(column[:, None], other, out=out)`` for a (parents, m) ``out``,
    with ``other`` a row of m values or a (parents, m) block.  numpy's
    broadcast loop runs along the last axis and pays for each row, so a
    block of fewer than 8 columns is filled column by column: the key xor
    of 16,384 children took 16 us that way at m = 2, against 110 us
    broadcast, and the two met near m = 8 (2 cores)."""
    if out.shape[1] < 8:
        for i in range(out.shape[1]):
            op(column, other[..., i], out=out[:, i])
    else:
        op(column[:, None], other, out=out)
    return out


class _StepBuffers:
    """The arrays of the generation steps of one tree run.  A public call
    makes one set and every step of every batch and drift reuses it: fresh
    temporaries at each step made glibc hand the heap top back to the OS
    and fault its pages in again on the next step.  Each group grows to the
    largest step it has seen and never shrinks:

    - per parent of one slice: ``pre`` (keys ^ G) and ``thr`` (u - theta);
    - per child of one slice: the word table ``words[i] = (_CHILD_BASE +
      i)·G``, the child keys, ``_mix_np``'s scratch (later the gathered
      thresholds, then the kept children's replicas), the child uniforms,
      the kept mask and the kept children's parents;
    - per member: two sides of step outputs (uniforms, keys, replica), so a
      step never writes into the side its input lies in, and
      ``renumbered``, the replica slots after a batch drops replicas.

    Batches that ``_BatchState.split`` pushes own fresh arrays; only the
    batch being stepped holds views of these."""

    def __init__(self):
        self.pre = self.thr = np.empty(0)
        self._children(0)
        self.sides = [self._outputs(0), self._outputs(0)]
        self.renumbered = np.empty(0, dtype=np.int64)

    def _children(self, n):
        """Make the per-child group for ``n`` children, letting the old one
        go first."""
        self.words = self.child_keys = self.scratch = self.child_u = self.mask = self.index = None
        self.words = np.arange(_CHILD_BASE, _CHILD_BASE + n, dtype=np.uint64)
        self.words *= _GOLDEN_W
        self.child_keys, self.scratch = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)
        self.child_u, self.mask, self.index = np.empty(n), np.empty(n, bool), np.empty(n, np.int64)

    @staticmethod
    def _outputs(n):
        return np.empty(n), np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.int64)

    def fit(self, keys, parents, children, members):
        """Grow the groups to ``parents`` parents and ``children`` children
        of one slice and ``members`` outputs, and return the output side
        that ``keys``, the step's input, does not lie in.  Old arrays are
        let go before larger ones are made."""
        if parents > len(self.pre):
            del self.pre, self.thr
            self.pre, self.thr = np.empty(parents, dtype=np.uint64), np.empty(parents)
        if children > len(self.words):
            self._children(children)
        i = int(np.may_share_memory(keys, self.sides[0][1]))
        if members > len(self.sides[i][0]):
            self.sides[i] = ()
            self.sides[i] = self._outputs(members)
        return self.sides[i]


def _drop_runs(gone, stored, outputs):
    """Remove the entries at the increasing positions ``gone`` from the
    first ``stored`` of each array of ``outputs``, in place, and return the
    count left.  The members of one replica lie together, so ``gone`` is a
    few runs, and each stretch between them moves left once."""
    cut = np.flatnonzero(np.diff(gone) > 1) + 1
    firsts = gone[np.concatenate(([0], cut))].tolist()
    ends = (gone[np.concatenate((cut - 1, [-1]))] + 1).tolist()
    write = firsts[0]
    for lo, hi in zip(ends, firsts[1:] + [stored]):
        for a in outputs:
            a[write : write + hi - lo] = a[lo:hi]
        write += hi - lo
    return write


def _step_arrays(uniforms, keys, replica, slots, theta, offspring, field, cap, buffers=None):
    """One synchronous generation for a flat batch of parents, where
    ``replica`` maps each parent to its replica's slot in ``range(slots)``.

    Returns (child_uniforms, child_keys, child_replica, counts): the kept
    children in parent order and, per slot, the number of kept children.
    The parents are walked in slices of at most ``MEMBER_BUDGET`` children
    (one parent may pass it alone).  A replica stops stepping once its
    kept count passes ``cap``: its count is then some value above ``cap``
    and none of its children is returned, since the caller drops it.

    Child i of the parent with key k has key ``derive_key_array(k,
    _CHILD_BASE + i)`` = mix(k ^ (_CHILD_BASE + i)·G ^ G), computed as
    mix(pre[parent] ^ words[i]) from ``pre = keys ^ G``, taken once per
    parent, and the word table ``words[i] = (_CHILD_BASE + i)·G``.  A
    deterministic law lays each slice's children out as a (parents, m)
    block.  The others number the slice's children j = 0, 1, ... and take
    child j, sibling j - s of the parent whose first child is j = s, as
    words[j] - s·G, which is words[j - s] modulo 2^64.

    The temporaries and the children are written into ``buffers``, a
    ``_StepBuffers`` (a new one unless given), and the children returned
    are views of it, valid until the step after next.  Gathers into them
    are ``take(..., mode="clip")``, which numpy writes into ``out``
    unbuffered (every index is valid, so nothing is clipped).
    """
    counts = offspring.sample(keys, field)
    kept = np.zeros(slots, dtype=np.int64)
    block = offspring.kind == "deterministic"
    width = offspring.params[0] if block else int(counts.max(initial=0))
    total = len(keys) * width if block else int(counts.sum())
    if total == 0:
        return np.empty(0), np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64), kept
    bounds = _slices(counts, offspring, total)
    b = _StepBuffers() if buffers is None else buffers
    # no replica holds more than cap members of the outputs
    outputs = b.fit(
        keys, max(hi - lo for lo, hi in bounds), min(total, max(MEMBER_BUDGET, width)),
        int(min(total, slots * cap)),
    )
    out_u, out_k, out_r = outputs
    capped = False  # whether a replica has passed the cap in this step
    stored = 0  # children written to the outputs
    for lo, hi in bounds:
        parents = slice(lo, hi)
        if capped:  # skip the parents of replicas already over the cap
            ids = np.arange(lo, hi)
            parents = ids[kept[replica[lo:hi]] <= cap]
        rep_p = replica[parents]
        pre_p = np.bitwise_xor(keys[parents], _GOLDEN_W, out=b.pre[: len(rep_p)])
        thr_p = np.subtract(uniforms[parents], theta, out=b.thr[: len(rep_p)])  # fl(u - theta)
        if block:
            shape = (len(pre_p), width)
            size = shape[0] * width
            child_keys = b.child_keys[:size]
            _by_row(np.bitwise_xor, pre_p, b.words[:width], child_keys.reshape(shape))
            scratch = b.scratch[:size]
            _mix_np(child_keys, scratch)
            child_u = field.uniform_from_key_array(child_keys, b.child_u[:size], scratch)
            # kept children by index: whether a child is kept is a coin
            # flip, and a boolean mask of random pattern copies slower
            # than a gather; u > thr is thr < u
            mask = b.mask[:size]
            _by_row(np.less, thr_p, child_u.reshape(shape), mask.reshape(shape))
            keep = mask.nonzero()[0]  # np.flatnonzero, without its wrapper
            parent_of = np.floor_divide(keep, width, out=b.index[: len(keep)])
        else:
            c = counts[parents]
            size = int(c.sum())
            if size == 0:
                continue
            local = np.arange(len(c)).repeat(c)  # each child's parent in the slice
            first = (c.cumsum() - c).view(np.uint64)  # each parent's first child
            first *= _GOLDEN_W  # wraps modulo 2^64, as the words do
            scratch = first.take(local, out=b.scratch[:size], mode="clip")
            child_keys = np.subtract(b.words[:size], scratch, out=b.child_keys[:size])
            child_keys ^= pre_p.take(local, out=scratch, mode="clip")
            _mix_np(child_keys, scratch)
            child_u = field.uniform_from_key_array(child_keys, b.child_u[:size], scratch)
            mask = b.mask[:size]
            np.less(thr_p.take(local, out=scratch.view(np.float64), mode="clip"), child_u, out=mask)
            keep = mask.nonzero()[0]
            parent_of = local.take(keep, out=b.index[: len(keep)], mode="clip")
        child_rep = rep_p.take(parent_of, out=scratch.view(np.int64)[: len(keep)], mode="clip")
        added = np.bincount(child_rep, minlength=slots)
        kept += added
        # drop the children of the replicas that passed the cap in this slice
        if kept.max() > cap and (passed := (kept > cap) & (added > 0)).any():
            capped = True
            within = ~passed[child_rep]
            keep, child_rep = keep[within], child_rep[within]
            gone = np.flatnonzero(passed[out_r[:stored]])
            if len(gone):
                stored = _drop_runs(gone, stored, outputs)
        end = stored + len(keep)
        child_u.take(keep, out=out_u[stored:end], mode="clip")
        child_keys.take(keep, out=out_k[stored:end], mode="clip")
        out_r[stored:end] = child_rep
        stored = end
    return out_u[:stored], out_k[:stored], out_r[:stored], kept


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
    """Flat arrays for a batch of live replicas evolved in lockstep.
    ``rows`` holds each replica's index in the id array the batch was
    built from, in increasing order, and ``replica`` maps each member to
    its slot in ``rows``; members are in slot order, since children follow
    their parents.  Keys derive from the global replica ids, so no split
    of the replicas into batches can change any uniform.  The steps write
    into ``buffers``, the run's ``_StepBuffers`` (a new one unless given)."""

    def __init__(self, field: LabelField, replica_ids: np.ndarray, buffers=None):
        self.buffers = _StepBuffers() if buffers is None else buffers
        n = len(replica_ids)
        rows = np.column_stack(np.broadcast_arrays(_TREE_TAG, replica_ids, _CHILD_BASE))
        self.keys = field.key_array(rows)
        self.uniforms = field.uniform_from_key_array(self.keys)
        self.replica = np.arange(n, dtype=np.int64)
        self.rows = np.arange(n)

    def step(self, theta, offspring, field, cap) -> np.ndarray:
        """One generation for every replica; returns the new frontier sizes,
        where a size above ``cap`` leaves that replica without members."""
        self.uniforms, self.keys, self.replica, counts = _step_arrays(
            self.uniforms, self.keys, self.replica, len(self.rows), theta, offspring, field, cap,
            self.buffers,
        )
        return counts

    def keep(self, mask: np.ndarray):
        """Drop the replicas whose slot in ``mask`` is False, which have no
        members left after a step: the slots are renumbered into
        ``buffers.renumbered``."""
        b, n = self.buffers, len(self.replica)
        if n > len(b.renumbered):
            b.renumbered = np.empty(n, dtype=np.int64)
        slot = mask.cumsum() - 1
        self.rows = self.rows[mask]
        self.replica = slot.take(self.replica, out=b.renumbered[:n], mode="clip")

    def split(self) -> "_BatchState":
        """Move the second half of the replicas to a new batch, with arrays
        of its own; this batch keeps the first half's members, a prefix."""
        half = len(self.rows) // 2
        cut = int(np.searchsorted(self.replica, half))
        other = copy.copy(self)
        other.rows, self.rows = self.rows[half:], self.rows[:half]
        other.uniforms, self.uniforms = self.uniforms[cut:].copy(), self.uniforms[:cut]
        other.keys, self.keys = self.keys[cut:].copy(), self.keys[:cut]
        other.replica, self.replica = self.replica[cut:] - half, self.replica[:cut]
        return other


def _histories(theta, offspring, generations, replica_ids, cap, field, weight=None, buffers=None):
    """Evolve the replicas with global ids ``replica_ids`` for
    ``generations`` generations.

    Returns ``(extinct_at, capped_at, sums, totals)``, the first three with
    one row per id in the order of ``replica_ids``.  Per replica,
    ``extinct_at`` is the generation at which its frontier emptied and
    ``capped_at`` the one at which it passed ``cap`` (``generations + 1``
    for neither); a capped replica stops there.  With ``weight`` given,
    ``sums`` is the (replicas, generations + 1) array of the frontier sums
    of ``weight(uniforms)`` (else None).  ``totals`` holds, per generation,
    the frontier members of all replicas together.

    Only live members size the batches: before a step, a batch whose
    children could pass ``MEMBER_BUDGET`` hands half of its replicas to a
    stack.  Every output is per replica, so the split cannot change it.
    The steps share ``buffers``, a ``_StepBuffers`` (a new one unless
    given), which a caller that runs several drifts passes to each.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0,1], got {theta}")
    replicas = len(replica_ids)
    if replicas < 1 or generations < 0:
        raise ValueError(
            f"replicas must be >= 1 and generations >= 0, got {replicas} and {generations}"
        )
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    extinct_at = np.full(replicas, generations + 1)
    capped_at = np.full(replicas, generations + 1)
    sums = None if weight is None else np.zeros((replicas, generations + 1))
    totals = np.zeros(generations + 1, dtype=np.int64)
    growth = max(offspring.mean, 1.0)
    stack = [(0, _BatchState(field, replica_ids, buffers))]
    while stack:
        gen, state = stack.pop()
        while len(state.rows):
            while len(state.rows) > 1 and len(state.uniforms) * growth > MEMBER_BUDGET:
                stack.append((gen, state.split()))
            totals[gen] += len(state.replica)
            if weight is not None:
                sums[state.rows, gen] = np.bincount(
                    state.replica, weights=weight(state.uniforms), minlength=len(state.rows)
                )
            if gen == generations:
                break
            counts = state.step(theta, offspring, field, cap)
            gen += 1
            live = (counts > 0) & (counts <= cap)
            if not live.all():
                capped_at[state.rows[counts > cap]] = gen
                extinct_at[state.rows[counts == 0]] = gen
                state.keep(live)
    return extinct_at, capped_at, sums, totals


def _guard_run(replicas, cap, offspring, trace_cells=0):
    """Raise ``ResourceGuardError`` unless a replica's frontier near ``cap``,
    the children of the widest parent of ``offspring`` with its CDF table,
    and the per-replica arrays, with ``trace_cells`` trace entries per
    replica, fit the memory guard.  Nothing is allocated before it: a step
    builds every child of one parent at once, at about 46 bytes each, and
    the table takes about 48 bytes per entry while it is built, so both
    count ``_BYTES_PER_MEMBER``."""
    _guard_bytes(cap * _BYTES_PER_MEMBER, f"a frontier of up to cap={cap} members")
    _guard_bytes(
        (offspring._widest + offspring._table_length) * _BYTES_PER_MEMBER,
        f"the children of one parent under {offspring.kind} offspring of mean {offspring.mean}",
    )
    per_replica = _BYTES_PER_REPLICA + _BYTES_PER_TRACE_CELL * max(trace_cells, 0)
    _guard_bytes(replicas * per_replica, f"a run of {replicas} replicas")


def _check_run(replicas, horizon_h, cap, offspring):
    if replicas < 1 or horizon_h < 1:
        raise ValueError(
            f"replicas and horizon_h must be >= 1, got {replicas} and {horizon_h}"
        )
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    _guard_run(replicas, cap, offspring)


def survival_probability(
    theta: float,
    offspring: OffspringDistribution,
    horizon_h: int,
    replicas: int,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
) -> SurvivalEstimate:
    """Fraction of replicas whose frontier is nonempty at ``horizon_h``.

    A replica whose frontier exceeds ``cap`` is declared survived and
    flagged as truncated (supercritical frontiers explode; stopping them
    early cannot misclassify an extinction).
    """
    _check_run(replicas, horizon_h, cap, offspring)
    extinct_at, capped_at, _, _ = _histories(
        theta, offspring, horizon_h, np.arange(replicas), cap, LabelField(seed)
    )
    return SurvivalEstimate(
        theta=theta,
        horizon=horizon_h,
        replicas=replicas,
        survivors=int((extinct_at > horizon_h).sum()),
        truncated=int((capped_at <= horizon_h).sum()),
        cap=cap,
        seed=seed,
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
) -> SurvivalCurve:
    """Survival estimate per grid point plus a crossing estimate for the
    critical drift.

    The crossing is the first grid theta where survival to the full
    horizon is at least half the survival to half the horizon (with at
    least ``MIN_EVENTS`` surviving replicas).  Subcritically that ratio
    vanishes geometrically, critically it tends to 1/2 (survival decays
    like 1/h there), and supercritically it tends to 1, so the rule
    brackets the threshold tightly once horizons are long enough.

    Replica streams are shared across grid points, so the per-replica
    survival indicator is monotone in theta and the curve is nondecreasing
    pathwise.  The sweep uses that: it visits the distinct grid drifts in
    increasing order and simulates only the replicas that have not yet
    survived to the full horizon.  A child kept at theta is kept at any
    larger theta (``u' > fl(u - theta)`` and ``fl(u - theta)`` is
    nondecreasing in theta) and offspring counts do not depend on theta, so
    a replica alive or capped at a generation stays so at every larger
    theta, and counts as a survivor at both horizons from then on.
    """
    thetas = np.asarray(list(theta_grid), dtype=np.float64)
    outside = ~((thetas >= 0.0) & (thetas <= 1.0))
    if outside.any():
        raise ValueError(f"theta grid must lie in [0,1], got {thetas[outside].tolist()}")
    _check_run(replicas, horizon_h, cap, offspring)
    field = LabelField(seed)
    mid = max(1, horizon_h // 2)
    levels, level_of = np.unique(thetas, return_inverse=True)
    s_mid = np.full(len(levels), replicas)
    s_end = np.full(len(levels), replicas)
    pending = np.arange(replicas)
    buffers = _StepBuffers()  # one set for every drift
    for k, th in enumerate(levels):
        if not len(pending):
            break
        extinct_at, _, _, _ = _histories(
            float(th), offspring, horizon_h, pending, cap, field, buffers=buffers
        )
        done = replicas - len(pending)
        s_mid[k] = done + int((extinct_at > mid).sum())
        s_end[k] = done + int((extinct_at > horizon_h).sum())
        pending = pending[extinct_at <= horizon_h]
    ests = np.empty(len(thetas))
    errs = np.empty(len(thetas))
    halves = np.empty(len(thetas))
    crossing = None
    for i, k in enumerate(level_of):
        end, half = int(s_end[k]), int(s_mid[k])
        p = end / replicas
        ests[i] = p
        errs[i] = math.sqrt(p * (1.0 - p) / replicas)
        halves[i] = half / replicas
        if crossing is None and end >= MIN_EVENTS and end >= 0.5 * half:
            crossing = float(thetas[i])
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
    theta: float,
    offspring: OffspringDistribution,
    generations: int,
    replicas: int,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
) -> MartingaleTrace:
    """Monte Carlo trace of the additive martingale built from the lead
    eigenfunction, with m the offspring mean: constant in expectation
    across generations.

    Raises if any replica hits the frontier cap, since truncation would
    bias the trace.
    """
    _guard_run(replicas, cap, offspring, trace_cells=generations + 1)
    m = offspring.mean
    lam = lead_eigenvalue(m, theta)
    _, capped_at, sums, totals = _histories(
        theta, offspring, generations, np.arange(replicas), cap, LabelField(seed),
        weight=lambda u: eigenfunction_eval(m, theta, lam, u),
    )
    if (capped_at <= generations).any():
        raise RuntimeError("frontier cap exceeded; martingale trace would be biased")
    # correctly rounded, so independent of replica order and batching; one
    # generation's column of weights at a time
    w_sum, w_sqsum = np.empty(generations + 1), np.empty(generations + 1)
    for gen in range(generations + 1):
        w = sums[:, gen] * lam ** (-gen)
        w_sum[gen], w_sqsum[gen] = math.fsum(w), math.fsum(w * w)
    means = w_sum / replicas
    var = np.maximum(w_sqsum - replicas * means**2, 0.0) / max(replicas - 1, 1)
    stderrs = np.sqrt(var / replicas)
    return MartingaleTrace(
        m=m,
        theta=theta,
        lam=lam,
        means=means,
        stderrs=stderrs,
        frontier_means=totals / replicas,
        replicas=replicas,
    )
