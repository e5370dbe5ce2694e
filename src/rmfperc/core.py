"""Label substrate for Rough Mount Fuji landscapes: deterministic uniforms
and l^q distances.

A site's label is X_v = U_v + theta * d(0, v) where U_v is a Uniform(0,1)
variable attached to the site.  All randomness is derived from a stateless
counter-based hash keyed by (seed, site id), so any worker can evaluate any
site's uniform independently and replay is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Metric", "LabelField"]

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    """splitmix64 finalizer; full avalanche on 64-bit words."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _combine(key: int, value: int) -> int:
    """Fold one integer into a hash key."""
    return _mix(key ^ ((value & _MASK) * _GOLDEN & _MASK) ^ _GOLDEN)


def _mix_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _combine_np(key: np.ndarray, value: np.ndarray) -> np.ndarray:
    v = value.astype(np.uint64) * np.uint64(_GOLDEN)
    return _mix_np(key ^ v ^ np.uint64(_GOLDEN))


def _u01(key: int) -> float:
    # 53 high bits, offset by half a step: values lie strictly inside (0,1)
    return ((key >> 11) + 0.5) * 2.0**-53


def _u01_np(key: np.ndarray) -> np.ndarray:
    return ((key >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


@dataclass(frozen=True)
class Metric:
    """l^q norm parameter; q = math.inf selects the max norm.

    Integer q keeps an exact-integer path for ||v||_q^q so that
    "moves further from the origin" can be decided without rounding.
    Non-integer q falls back to floating-point powers with relative error
    below 1e-12 on integer sites; comparison ties break as not-further.
    """

    q: float

    def __post_init__(self):
        if not (self.q >= 1.0):
            raise ValueError(f"metric exponent must satisfy q >= 1, got {self.q}")

    @property
    def is_integer(self) -> bool:
        return self.q != math.inf and float(self.q).is_integer()

    def power_key(self, site: Sequence[int]):
        """Exact comparison key: ||site||_q^q as an int for integer q,
        max|coord| for q = inf, float fallback otherwise."""
        if self.q == math.inf:
            return max(abs(int(c)) for c in site)
        if self.is_integer:
            p = int(self.q)
            return sum(abs(int(c)) ** p for c in site)
        return math.fsum(abs(int(c)) ** self.q for c in site)

    def norm(self, site: Sequence[int]) -> float:
        if self.q == math.inf:
            return float(self.power_key(site))
        return float(self.power_key(site)) ** (1.0 / self.q)

    def power_key_array(self, coords: np.ndarray) -> np.ndarray:
        """Vectorised ``power_key`` of an (N, dim) integer array, equal to
        it key by key: int64 for q = inf and integer q (Python ints in an
        object array once the sums could pass int64), ``power_key`` of
        each site (fsum floats) otherwise."""
        a = np.abs(np.asarray(coords, dtype=np.int64))
        if self.q == math.inf:
            return a.max(axis=-1)
        if self.is_integer:
            p = int(self.q)
            if a.shape[-1] * int(a.max(initial=0)) ** p >= 2**63:
                a = a.astype(object)  # Python ints: exact past int64
            return (a**p).sum(axis=-1)
        keys = [self.power_key(site) for site in a.reshape(-1, a.shape[-1]).tolist()]
        return np.array(keys, dtype=np.float64).reshape(a.shape[:-1])

    def norm_array(self, coords: np.ndarray) -> np.ndarray:
        """Vectorised ``norm`` of an (N, dim) integer array, bit-identical
        to it: each exact power sum from ``power_key_array`` gets the same
        float root as ``norm``."""
        keys = self.power_key_array(coords)
        if self.q == math.inf:
            return keys.astype(np.float64)
        roots = [float(s) ** (1.0 / self.q) for s in keys.ravel().tolist()]
        return np.array(roots, dtype=np.float64).reshape(keys.shape)


@dataclass(frozen=True)
class LabelField:
    """Deterministic map (seed, id) -> Uniform(0,1).

    Ids are ints or tuples of ints.  The same id always yields the same
    value, values never hit 0 or 1 exactly, and distinct ids behave as
    independent uniforms.  Tree simulations derive per-node keys by folding
    child indices into the parent key, so lazily grown trees see stable
    uniforms in any evaluation order.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "_root", _mix(self.seed & _MASK))

    def key_of(self, site_or_id) -> int:
        key = self._root
        if isinstance(site_or_id, (int, np.integer)):
            return _combine(key, int(site_or_id))
        for c in site_or_id:
            key = _combine(key, int(c))
        return key

    def derive_key(self, key: int, value: int) -> int:
        return _combine(key, value)

    def uniform_at(self, site_or_id) -> float:
        return _u01(self.key_of(site_or_id))

    def uniform_from_key(self, key: int) -> float:
        return _u01(key)

    # vectorised variants used by the simulators

    def key_array(self, coords: np.ndarray) -> np.ndarray:
        """Keys for an (N, dim) array of integer coordinates."""
        coords = np.asarray(coords)
        key = np.full(coords.shape[:-1], self._root, dtype=np.uint64)
        for j in range(coords.shape[-1]):
            key = _combine_np(key, coords[..., j])
        return key

    def derive_key_array(self, keys: np.ndarray, values) -> np.ndarray:
        return _combine_np(keys, np.asarray(values, dtype=np.uint64))

    def uniform_array(self, coords: np.ndarray) -> np.ndarray:
        return _u01_np(self.key_array(coords))

    def uniform_from_key_array(self, keys: np.ndarray) -> np.ndarray:
        return _u01_np(keys)
