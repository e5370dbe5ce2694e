import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rmfperc import LabelField, Metric
from conftest import grid_from_array
from rmfperc.core import _u01_np
from rmfperc.tree import _BatchState
from oracles import combine, key_of, mix, norm, power_key, uniform_at, uniform_from_key


def test_lp_distance_examples():
    for q, distance in ((1, 7), (2, 5), (math.inf, 4)):
        assert Metric(q).norm_array(np.array([(3, 4)])).tolist() == [distance]
        assert norm(Metric(q), (3, 4)) == distance


@pytest.mark.parametrize("q", [1, 1.5, 2, math.inf])
def test_metric_rejects_empty_site(q):
    m = Metric(q)
    calls = [
        (f, np.zeros(shape, dtype=np.int64))
        for f in (m.power_key_array, m.norm_array) for shape in ((0,), (3, 0))
    ]
    for call, site in calls:
        with pytest.raises(ValueError, match="at least one coordinate"):
            call(site)
    assert m.norm_array(np.zeros((0, 2), dtype=np.int64)).shape == (0,)


def test_metric_rejects_q_below_one():
    with pytest.raises(ValueError):
        Metric(0.5)
    with pytest.raises(ValueError):
        Metric(-1)


def test_power_key_integer_exactness():
    m = Metric(4)
    keys = m.power_key_array(np.array([(3, -2), (10**5, 10**5)])).tolist()
    assert keys == [3**4 + 2**4, 2 * 10**20]  # the second passes int64
    assert all(isinstance(k, int) for k in keys)
    assert Metric(math.inf).power_key_array(np.array([(-7, 3)])).tolist() == [7]


@pytest.mark.parametrize("q", [1, 2, 4, math.inf])
def test_norm_properties_random_pairs(q):
    # triangle inequality and invariance under negation, 10^4 pairs
    rng = np.random.default_rng(2024)
    m = Metric(q)
    a = rng.integers(-50, 51, size=(10_000, 3))
    b = rng.integers(-50, 51, size=(10_000, 3))
    na = m.norm_array(a)
    nb = m.norm_array(b)
    nab = m.norm_array(a + b)
    assert np.all(nab <= na + nb + 1e-9)
    assert np.allclose(m.norm_array(-a), na)


@pytest.mark.parametrize("q", [1, 1.5, 2, 3, math.inf])
@given(sites=st.lists(
    st.lists(st.integers(-10**4, 10**4), min_size=2, max_size=2), min_size=1, max_size=50,
))
def test_norm_array_bit_identical_to_norm(q, sites):
    m = Metric(q)
    assert m.norm_array(np.array(sites)).tolist() == [norm(m, tuple(s)) for s in sites]


@pytest.mark.parametrize("q", [1, 1.5, 2, 3, math.inf, 40])
@given(sites=st.lists(
    st.lists(st.integers(-10**4, 10**4), min_size=3, max_size=3), min_size=1, max_size=30,
))
def test_power_key_array_equals_power_key(q, sites):
    m = Metric(q)
    keys = m.power_key_array(np.array(sites)).tolist()
    assert keys == [power_key(m, s) for s in sites]
    assert all(type(k) is type(power_key(m, s)) for k, s in zip(keys, sites))


def test_norm_array_bit_identical_on_box():
    # a radius-60 box, where float power sums used to differ in the last ulp
    r = 60
    grid = np.stack(np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1)), axis=-1).reshape(-1, 2)
    for q in (1.5, 2, 3, 2.5):
        m = Metric(q)
        assert m.norm_array(grid).tolist() == [norm(m, tuple(s)) for s in grid.tolist()]


@pytest.mark.parametrize("q", [1.5, 3, 40])
def test_norm_array_bit_identical_higher_dimension(q):
    # three coordinates: fsum for non-integer q, Python ints past int64
    rng = np.random.default_rng(3)
    sites = rng.integers(-3000, 3001, size=(500, 3))
    m = Metric(q)
    assert m.norm_array(sites).tolist() == [norm(m, tuple(s)) for s in sites.tolist()]


@pytest.mark.parametrize("q", [1, 2, 4])
def test_exact_power_comparison_matches_float(q):
    # ordering by integer ||v||_q^q agrees with ordering by float norm
    rng = np.random.default_rng(7)
    m = Metric(q)
    a = rng.integers(-40, 41, size=(100_000, 2))
    b = rng.integers(-40, 41, size=(100_000, 2))
    pa = np.abs(a).astype(object) ** q
    pb = np.abs(b).astype(object) ** q
    exact = pa.sum(axis=1) > pb.sum(axis=1)
    floats = m.norm_array(a) > m.norm_array(b)
    assert np.array_equal(exact, floats)


def test_non_integer_q_matches_high_precision_reference():
    import mpmath

    rng = np.random.default_rng(12)
    for q in (1.5, 2.5, 3.7):
        m = Metric(q)
        for _ in range(200):
            site = tuple(int(c) for c in rng.integers(-60, 61, size=3))
            if site == (0, 0, 0):
                continue
            with mpmath.workdps(40):
                ref = float(
                    mpmath.power(
                        mpmath.fsum(mpmath.power(abs(c), q) for c in site), 1.0 / q
                    )
                )
            assert m.norm_array(np.array([site]))[0] == pytest.approx(ref, rel=1e-12)


def test_q1_first_quadrant_steps_increase_by_one():
    m = Metric(1)
    site = (5, 11, 2)
    for axis in range(3):
        step = tuple(1 if i == axis else 0 for i in range(3))
        moved = tuple(s + d for s, d in zip(site, step))
        assert m.norm_array(np.array([moved]))[0] == m.norm_array(np.array([site]))[0] + 1


def test_uniform_determinism_and_range():
    field = LabelField(123)
    ids = [(0, 0), (1, -5), (2, 3, 4), 17]
    for i in ids:
        first = uniform_at(field, i)
        assert first == uniform_at(field, i)
        assert 0.0 < first < 1.0


def test_uniform_array_matches_scalar_path():
    field = LabelField(31415)
    rng = np.random.default_rng(0)
    coords = rng.integers(-100, 100, size=(500, 2))
    vec = field.uniform_array(coords)
    scalars = np.array([uniform_at(field, tuple(int(c) for c in row)) for row in coords])
    assert np.array_equal(vec, scalars)


@given(
    seed=st.integers(-(2**63), 2**64 - 1),
    axes=st.lists(
        st.lists(st.integers(-(10**6), 10**6), max_size=6),  # unsorted, repeats allowed
        min_size=1, max_size=3,
    ),
)
def test_uniform_grid_matches_uniform_array_on_meshgrid(seed, axes):
    field = LabelField(seed)
    axes = [np.array(a, dtype=np.int64) for a in axes]
    grid = field.uniform_grid(axes)
    assert grid.shape == tuple(len(a) for a in axes)
    assert grid.flags.f_contiguous  # the first axis is contiguous
    assert np.array_equal(grid, grid_from_array(field.uniform_array, axes))


def test_uniform_moments():
    # 10^6 draws: mean within 3 sigma of 1/2, never exactly 0 or 1
    field = LabelField(8675309)
    coords = np.arange(1_000_000).reshape(-1, 1)
    u = field.uniform_array(coords)
    sigma = 1.0 / math.sqrt(12.0 * len(u))
    assert abs(u.mean() - 0.5) < 3 * sigma
    assert u.min() > 0.0 and u.max() < 1.0


def test_uniform_pair_correlation():
    field = LabelField(55)
    coords = np.arange(1_000_000).reshape(-1, 1)
    u = field.uniform_array(coords)
    x, y = u[:-1] - u[:-1].mean(), u[1:] - u[1:].mean()
    corr = float((x * y).mean() / (x.std() * y.std()))
    assert abs(corr) < 3.0 / math.sqrt(len(x))


def test_distinct_seeds_decorrelated():
    a = LabelField(1).uniform_array(np.arange(1000).reshape(-1, 1))
    b = LabelField(2).uniform_array(np.arange(1000).reshape(-1, 1))
    assert not np.array_equal(a, b)


@given(
    seed=st.integers(-(2**70), 2**70),
    sites=st.lists(
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=2, max_size=2), min_size=1
    ),
)
def test_keys_and_uniforms_equal_the_scalar_oracle(seed, sites):
    # the seed counts modulo 2^64; coordinates of either sign wrap the same way
    field = LabelField(seed)
    coords = np.array(sites, dtype=np.int64)
    assert field.key_array(coords).tolist() == [key_of(field, s) for s in sites]
    assert field.uniform_array(coords).tolist() == [uniform_at(field, s) for s in sites]


_COORDS = st.integers(-(2**63), 2**63 - 1)
_WORDS = st.integers(0, 2**64 - 1)


@given(seed=st.integers(-(2**70), 2**70), dim=st.integers(1, 3), data=st.data())
def test_hash_leaves_its_inputs_and_equals_the_scalar_oracle(seed, dim, data):
    # the array hash works in place on its own temporaries: every input,
    # single sites and 0-d keys included, reads the same afterwards, and
    # every result equals the oracle splitmix64 bit for bit
    field = LabelField(seed)
    sites = data.draw(st.lists(st.lists(_COORDS, min_size=dim, max_size=dim), min_size=1, max_size=5))
    words = data.draw(st.lists(_WORDS, min_size=1, max_size=5))
    value = data.draw(_WORDS)
    coords = np.array(sites, dtype=np.int64)
    keys = np.array(words, dtype=np.uint64)
    values = np.array(data.draw(st.lists(_WORDS, min_size=len(words), max_size=len(words))),
                      dtype=np.uint64)
    inputs = [coords, keys, values]
    before = [a.copy() for a in inputs]

    assert field.key_array(coords).tolist() == [key_of(field, s) for s in sites]
    assert field.uniform_array(coords).tolist() == [uniform_at(field, s) for s in sites]
    single = field.key_array(coords[0])  # a site of shape (dim,): 0-d keys
    assert single.shape == () and single.tolist() == key_of(field, sites[0])
    assert field.uniform_array(coords[0]).tolist() == uniform_at(field, sites[0])
    derived = field.derive_key_array(keys, values).tolist()
    assert derived == [combine(k, v) for k, v in zip(words, values.tolist())]
    assert field.derive_key_array(keys, value).tolist() == [combine(k, value) for k in words]
    assert field.derive_key_array(keys[0], value).tolist() == combine(words[0], value)
    assert field.uniform_from_key_array(keys).tolist() == [uniform_from_key(k) for k in words]
    assert field.uniform_from_key_array(keys[0]).tolist() == uniform_from_key(words[0])
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)

    axes = [np.array(a, dtype=np.int64) for a in data.draw(
        st.lists(st.lists(_COORDS, min_size=1, max_size=4), min_size=1, max_size=3))]
    before = [a.copy() for a in axes]
    expected = np.empty([len(a) for a in axes])
    for idx in np.ndindex(expected.shape):
        expected[idx] = uniform_at(field, tuple(int(a[i]) for a, i in zip(axes, idx)))
    size = expected.size + data.draw(st.integers(0, 3))  # buffers may be larger
    out = (np.full(size, 7, dtype=np.uint64), np.full(size, 9, dtype=np.uint64), np.full(size, 0.25))
    for buffers in (None, out, out):  # the second pass reuses filled buffers
        grid = field.uniform_grid(axes, out=buffers)
        assert np.array_equal(grid, expected)
        if buffers is not None:
            assert np.shares_memory(grid, out[2])
    for a, b in zip(axes, before):
        assert np.array_equal(a, b)

    ids = np.array(data.draw(st.lists(st.integers(0, 2**40), max_size=4)), dtype=np.int64)
    before = ids.copy()
    fields = list(field.replicas(3, ids))
    assert np.array_equal(ids, before)
    assert [f.seed for f in fields] == [key_of(field, (3, i)) for i in ids.tolist()]
    assert [f._root for f in fields] == [mix(f.seed) for f in fields]


@pytest.mark.parametrize("tag", [0x6C61, 0x626C, 0x6272, 0x67])
@pytest.mark.parametrize("seed", [1, -1, 2**64 - 1, 2**65])
def test_replica_fields_follow_the_stream_contract(monkeypatch, seed, tag):
    # field i of the stream is keyed by (seed, tag, i), across hash blocks
    monkeypatch.setattr("rmfperc.core._REPLICA_BLOCK", 3)
    base = LabelField(seed)
    for ids in (range(8), [5, 0, 11], np.arange(4, 9)):
        fields = list(base.replicas(tag, ids))
        assert [f.seed for f in fields] == [key_of(base, (tag, int(i))) for i in ids]
        for f in fields:
            fresh = LabelField(f.seed)
            assert f == fresh and f._root == fresh._root
    assert list(base.replicas(tag, range(0))) == []


def test_hash_known_answers():
    # pinned outputs of the one hash, extreme seeds and replica streams
    # included: a change to it fails here, not only in the CLI byte-identity list
    sites = np.array([(0, 0), (3, -4), (10**6, 10**6)])
    expected = {
        0: [0.014033029194275015, 0.686311379334628, 0.17211669911860988],
        1729: [0.4104091648745372, 0.7305252965978859, 0.8972208518701252],
        -1: [0.546088721789245, 0.6896762879512861, 0.35292743988701863],
        -(2**63): [0.4975440702296113, 0.44777705264033846, 0.394682812927806],
    }
    expected[2**64 - 1] = expected[-1]
    expected[2**65] = expected[0]
    for seed, u in expected.items():
        assert LabelField(seed).uniform_array(sites).tolist() == u
    streams = {
        0x6C61: (12362101476455660419, 0.18620760013513388),
        0x626C: (2432444421817481726, 0.3271842556342384),
        0x6272: (6718807030803050626, 0.7542001650743453),
    }
    for tag, (key, u) in streams.items():
        field = list(LabelField(1).replicas(tag, range(6)))[5]
        assert field.seed == key
        assert field.uniform_array(np.array([(1, 2)])).tolist() == [u]
    roots = _BatchState(LabelField(7), np.array([0, 3]))
    assert roots.keys.tolist() == [7078997235989723317, 6574777794988105199]
    assert roots.uniforms.tolist() == [0.383753209113947, 0.3564194184467779]


def test_uniform_range_ends():
    # 2^-54 at key 0; keys from 2^64 - 2^11 on round to exactly 1.0, and the
    # largest value below it is 1 - 2^-52
    keys = [0, 2**64 - 2**11 - 1, 2**64 - 2**11, 2**64 - 1]
    expected = [2.0**-54, 1.0 - 2.0**-52, 1.0, 1.0]
    assert _u01_np(np.array(keys, dtype=np.uint64)).tolist() == expected
    assert [uniform_from_key(k) for k in keys] == expected
