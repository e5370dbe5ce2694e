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

import numpy as np

__all__ = ["Metric", "LabelField", "ResourceGuardError"]

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# the constants and shifts as numpy words, made once: making one at each use
# cost about 0.3 us, and a hash of 64 keys takes 8 of them
_GOLDEN_W, _MIX1_W, _MIX2_W = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


# The hash works on arrays of 64-bit words with few temporaries: ``_mix_np``
# mixes the words it is given in place, so a caller passes only words it
# owns, and ``_combine_np`` and ``_u01_np`` read their inputs and write into
# arrays a caller may pass in.  ``tests/oracles.py`` holds a scalar
# splitmix64 written independently, one Python int at a time, that every
# key and uniform is held to bit for bit.


def _mix_np(z: np.ndarray, scratch=None) -> np.ndarray:
    """splitmix64's finaliser of the words ``z``, an array the caller owns,
    computed in ``z`` and returned.  ``scratch``, an array of z's shape, is
    the one temporary; it is allocated unless given."""
    if scratch is None:
        scratch = np.empty(z.shape, dtype=np.uint64)  # an array even for 0-d z
    t = np.right_shift(z, _S30, out=scratch)
    z ^= t
    z *= _MIX1_W
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _MIX2_W
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def _combine_np(key, value, out=None, scratch=None) -> np.ndarray:
    """The keys ``key`` with the integers ``value`` folded in, broadcast:
    mix(key ^ value*G ^ G).  ``key`` and ``value`` are read only; ``out``
    and ``scratch``, arrays of the broadcast shape, hold the result and
    ``_mix_np``'s temporary, and are allocated unless given."""
    # the unsafe cast wraps signed values as astype(np.uint64) does
    v = np.multiply(value, _GOLDEN_W, dtype=np.uint64, casting="unsafe",
                    out=np.empty(np.shape(value), dtype=np.uint64))
    if v.size <= np.size(key):  # ^ G on the smaller operand
        v ^= _GOLDEN_W
    else:
        key = key ^ _GOLDEN_W
    if out is None and v.shape == np.broadcast(key, v).shape:
        out = v  # v has the result's shape: the result goes into it
    return _mix_np(np.bitwise_xor(key, v, out=out), scratch)


def _u01_np(key, out=None, scratch=None) -> np.ndarray:
    """The uniforms of the keys ``key``, read only.  ``scratch`` (uint64)
    and ``out`` (float64), arrays of key's shape, receive the shifted words
    and the uniforms, and are allocated unless given; a caller that owns
    ``key`` may pass it as ``scratch``."""
    # 53 high bits, offset by half a step: values lie in (0, 1], from 2^-54
    # up.  From key 2^63 on the half step is a float tie and rounds to even,
    # so the largest value below 1 is 1 - 2^-52, and every key of 2^64 - 2^11
    # or more gives exactly 1.0.  np.add casts the words to float64 as
    # astype(np.float64) does, then adds the half step
    t = np.right_shift(key, _S11, out=scratch)
    u = np.add(t, 0.5, out=out)
    u *= 2.0**-53
    return u


_EMPTY_SITE = "a site needs at least one coordinate"

# replica fields hashed per array call by ``LabelField.replicas``
_REPLICA_BLOCK = 1024

# the most bytes one run may ask for, found in closed form before anything
# is allocated; the engines guard their boxes, grids and frontiers with it
_GUARD_BYTES = 2**32


class ResourceGuardError(RuntimeError):
    """Raised when a run would pass the memory guard."""


def _guard_bytes(need: int, what: str) -> None:
    """Raise ``ResourceGuardError`` if ``what`` needs more than the guard."""
    if need > _GUARD_BYTES:
        raise ResourceGuardError(
            f"{what} needs about {need} bytes, over the guard of {_GUARD_BYTES} bytes"
        )


@dataclass(frozen=True)
class Metric:
    """l^q norm parameter; q = math.inf selects the max norm.

    A distance is one float root of the power sum ||v||_q^q.  For integer
    q the sum is an exact integer, rounded once to a float; for non-integer
    q it is the correctly rounded ``math.fsum`` of the float powers, with
    relative error below 1e-12 on integer sites.  Whether a lattice step
    moves further from the origin needs no power sum: the step changes one
    coordinate, so it does iff it raises that |coordinate| (for q = inf,
    iff it raises max|coordinate|).
    """

    q: float

    def __post_init__(self):
        if not (self.q >= 1.0):
            raise ValueError(f"metric exponent must satisfy q >= 1, got {self.q}")

    @property
    def is_integer(self) -> bool:
        return self.q != math.inf and float(self.q).is_integer()

    def power_key_array(self, coords: np.ndarray) -> np.ndarray:
        """The power sum ||v||_q^q of each site of an (N, dim) integer
        array: int64 for q = inf (max|coord|) and integer q (Python ints in
        an object array once the sums could pass int64), otherwise the
        ``math.fsum`` of each site's Python float powers."""
        a = np.abs(np.asarray(coords, dtype=np.int64))
        if a.shape[-1] == 0:
            raise ValueError(_EMPTY_SITE)
        if self.q == math.inf:
            return a.max(axis=-1)
        if self.is_integer:
            p, top = int(self.q), int(a.max(initial=0))
            if top <= 1:
                return a.sum(axis=-1)  # 0^p = 0 and 1^p = 1, even for p >= 2^63
            if a.shape[-1] * top**p >= 2**63:
                a = a.astype(object)  # Python ints: exact past int64
            return (a**p).sum(axis=-1)
        keys = [math.fsum(c**self.q for c in site) for site in a.reshape(-1, a.shape[-1]).tolist()]
        return np.array(keys, dtype=np.float64).reshape(a.shape[:-1])

    def norm_array(self, coords: np.ndarray) -> np.ndarray:
        """The l^q distances of an (N, dim) integer array: each exact power
        sum from ``power_key_array`` as a float, to the power 1/q (the sum
        itself for q = inf).  The sites go in blocks of 2^14, which bounds
        the Python lists of sums and roots on a large array."""
        coords = np.asarray(coords)
        if coords.shape[-1] == 0:
            raise ValueError(_EMPTY_SITE)
        sites = coords.reshape(-1, coords.shape[-1])
        norms = np.empty(len(sites))
        for lo in range(0, len(sites), 2**14):
            block = slice(lo, lo + 2**14)
            keys = self.power_key_array(sites[block])
            if self.q != math.inf:
                keys = [float(s) ** (1.0 / self.q) for s in keys.tolist()]
            norms[block] = keys
        return norms.reshape(coords.shape[:-1])


@dataclass(frozen=True)
class LabelField:
    """Deterministic map (seed, id) -> Uniform(0,1).

    Ids are ints or tuples of ints; the seed counts modulo 2^64.  The same
    id always yields the same value, and distinct ids behave as independent
    uniforms.  Values lie in (0, 1]: 1.0 itself occurs, with probability
    2^-53, and the largest value below it is 1 - 2^-52.  Tree simulations
    derive per-node keys by folding child indices into the parent key, so
    lazily grown trees see stable uniforms in any evaluation order.
    """

    seed: int

    def __post_init__(self):
        root = _mix_np(np.array([self.seed & _MASK], dtype=np.uint64))
        object.__setattr__(self, "_root", int(root[0]))

    def replicas(self, tag: int, ids):
        """The fields of the replicas ``ids`` of the stream ``tag``: field i
        is seeded with the key of the id (tag, i), the (seed, tag, i) stream.
        The keys and the fields' roots are hashed in one array call per
        block of ``_REPLICA_BLOCK`` ids, not one per field."""
        for lo in range(0, len(ids), _REPLICA_BLOCK):
            block = np.asarray(ids[lo : lo + _REPLICA_BLOCK], dtype=np.int64)
            keys = self.key_array(np.column_stack(np.broadcast_arrays(tag, block)))
            seeds = keys.tolist()  # read before _mix_np overwrites the keys
            for key, root in zip(seeds, _mix_np(keys).tolist()):
                field = object.__new__(LabelField)
                object.__setattr__(field, "seed", key)
                object.__setattr__(field, "_root", root)
                yield field

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
        key = self.key_array(coords)
        return _u01_np(key, scratch=key)

    def uniform_grid(self, axes, out=None) -> np.ndarray:
        """Uniforms of the Cartesian product of the integer ``axes``,
        ij-indexed: entry [i0, i1, ...] is ``uniform_array`` of the site
        (axes[0][i0], axes[1][i1], ...), bit for bit, since the keys fold
        the coordinates in the same order.  Each prefix of coordinates is
        folded once, not once per site.  The result is in Fortran order:
        the first axis varies fastest in memory.

        ``out`` is None or three flat buffers of at least the grid's size,
        (keys, scratch) of uint64 and uniforms of float64: the last fold
        and the uniforms are written into them, and the result is a view
        of the third.  A caller that hashes grid after grid passes the
        same buffers each time, and no grid-sized array is allocated."""
        key = np.full((), self._root, dtype=np.uint64)
        keys = scratch = uniforms = None
        for i, axis in enumerate(axes):
            axis = np.asarray(axis).reshape((-1,) + (1,) * key.ndim)
            if out is not None and i == len(axes) - 1:
                shape = axis.shape[:1] + key.shape
                keys, scratch, uniforms = (b[: math.prod(shape)].reshape(shape) for b in out)
            key = _combine_np(key, axis, keys, scratch)  # the new axis goes outermost
        return _u01_np(key, uniforms, key).T

    def uniform_from_key_array(self, keys: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """The uniforms of the keys ``keys``, read only; ``out`` and
        ``scratch`` are ``_u01_np``'s."""
        return _u01_np(keys, out, scratch)
