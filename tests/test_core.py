import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rmfperc import LabelField, Metric
from conftest import grid_from_array
from oracles import norm, uniform_at


def test_lp_distance_examples():
    for q, distance in ((1, 7), (2, 5), (math.inf, 4)):
        assert Metric(q).norm_array(np.array([(3, 4)])).tolist() == [distance]
        assert norm(Metric(q), (3, 4)) == distance


@pytest.mark.parametrize("q", [1, 1.5, 2, math.inf])
def test_metric_rejects_empty_site(q):
    m = Metric(q)
    calls = [(m.power_key, ()), (m.power_key, np.zeros(0, dtype=np.int64))]
    calls += [(f, np.zeros((3, 0), dtype=np.int64)) for f in (m.power_key_array, m.norm_array)]
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
    assert m.power_key((3, -2)) == 3**4 + 2**4
    assert isinstance(m.power_key((3, -2)), int)
    assert Metric(math.inf).power_key((-7, 3)) == 7


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
    assert keys == [m.power_key(tuple(s)) for s in sites]
    assert all(type(k) is type(m.power_key(tuple(s))) for k, s in zip(keys, sites))


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
