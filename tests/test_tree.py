import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from oracles import (
    Frontier,
    count_oracle,
    root_frontier,
    step_frontier,
    step_oracle,
    survival_oracle,
    theta_sweep_oracle,
)
from rmfperc import tree
from rmfperc.core import _u01_np
from rmfperc import (
    LabelField,
    OffspringDistribution,
    ResourceGuardError,
    eigenfunction_eval,
    eigenfunction_integral,
    estimate_theta_c_tree,
    lead_eigenvalue,
    m_critical,
    martingale_trace,
    path_increase_upper_bound,
    survival_probability,
    theta_critical,
)


def fixed_u_frontier(u, n, seed=3):
    keys = LabelField(seed).derive_key_array(
        np.arange(n, dtype=np.uint64), np.uint64(1)
    )
    return Frontier(0, np.full(n, u), keys.astype(np.uint64))


# --- offspring distributions --------------------------------------------------


def test_offspring_means():
    assert OffspringDistribution.deterministic(3).mean == 3.0
    assert OffspringDistribution.poisson(2.5).mean == 2.5
    assert OffspringDistribution.binomial(10, 0.3).mean == pytest.approx(3.0)
    assert OffspringDistribution.geometric(1.7).mean == 1.7


@pytest.mark.parametrize(
    "dist",
    [
        OffspringDistribution.poisson(2.5),
        OffspringDistribution.binomial(10, 0.3),
        OffspringDistribution.geometric(1.7),
    ],
)
def test_offspring_sample_moments(dist):
    keys = LabelField(77).key_array(np.arange(200_000).reshape(-1, 1))
    counts = dist.sample(keys, LabelField(5))
    se = counts.std() / math.sqrt(len(counts))
    assert abs(counts.mean() - dist.mean) < 4 * se


_LAWS = st.one_of(
    st.integers(0, 6).map(OffspringDistribution.deterministic),
    st.floats(0.05, 40.0).map(OffspringDistribution.poisson),
    st.tuples(st.integers(0, 30), st.floats(0.0, 1.0)).map(
        lambda np_: OffspringDistribution.binomial(*np_)
    ),
    st.floats(0.05, 40.0).map(OffspringDistribution.geometric),
)


@settings(max_examples=60, deadline=None)
@given(
    offspring=_LAWS,
    keys=st.lists(st.integers(0, 2**64 - 1), max_size=300),
    seed=st.integers(0, 2**32),
)
def test_offspring_sample_equals_count_oracle(offspring, keys, seed):
    keys = np.array(keys, dtype=np.uint64)
    field = LabelField(seed)
    for _ in range(2):  # the second call reads the cached table
        counts = offspring.sample(keys, field)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, count_oracle(offspring, keys, field))


class _NoHashField:
    def derive_key_array(self, keys, values):
        raise AssertionError("hashed a key")

    uniform_from_key_array = derive_key_array


def test_deterministic_sample_hashes_nothing():
    keys = np.arange(5, dtype=np.uint64)
    counts = OffspringDistribution.deterministic(3).sample(keys, _NoHashField())
    assert counts.tolist() == [3] * 5 and counts.dtype == np.int64
    with pytest.raises(AssertionError, match="hashed"):
        OffspringDistribution.poisson(3.0).sample(keys, _NoHashField())


class _GivenUniforms:
    """A field whose count uniforms are given: key i hashes to ``u[i]``."""

    def __init__(self, u):
        self.u = u

    def derive_key_array(self, keys, values):
        return keys

    def uniform_from_key_array(self, keys):
        return self.u[keys.astype(np.intp)]


@pytest.mark.parametrize(
    "dist",
    [
        OffspringDistribution.poisson(3.0),
        OffspringDistribution.poisson(40.0),
        OffspringDistribution.binomial(30, 0.1),
        OffspringDistribution.binomial(1, 0.5),
    ],
)
def test_guided_counts_exact_at_cdf_entries_and_cell_edges(dist):
    # the guide table reads a count off a cell only where no CDF entry lies
    # in it; uniforms on and next to every entry and cell edge test that
    cdf = dist._cdf
    edges = np.arange(1, tree._GUIDE_CELLS) / tree._GUIDE_CELLS
    points = np.concatenate([cdf, edges])
    u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    u = u[(u > 0.0) & (u < 1.0)]
    counts = dist.sample(np.arange(len(u), dtype=np.uint64), _GivenUniforms(u))
    assert np.array_equal(counts, np.searchsorted(cdf, u, side="left"))


# the largest uniform below 1 and 1.0 itself, which the hash gives for every
# key from 2^64 - 2^11 on
_TOP_UNIFORMS = np.array([1.0 - 2.0**-52, 1.0])


@pytest.mark.parametrize(
    "dist",
    [
        OffspringDistribution.poisson(3.0),
        OffspringDistribution.poisson(40.0),
        OffspringDistribution.binomial(4, 0.5),
        OffspringDistribution.binomial(1, 1.0),
    ],
)
def test_table_counts_at_the_top_uniforms(dist):
    # u = 1.0 reads the guide's last cell, past the cells of (0, 1)
    keys = np.arange(2, dtype=np.uint64)
    counts = dist.sample(keys, _GivenUniforms(_TOP_UNIFORMS))
    assert np.array_equal(counts, np.searchsorted(dist._cdf, _TOP_UNIFORMS, side="left"))


@pytest.mark.parametrize("mean", [0.05, 2.0, 1e5])
def test_geometric_count_at_uniform_one_is_the_widest(mean):
    # log1p(-1.0) is -inf: u = 1.0 counts as the largest uniform below 1,
    # a finite count that the memory guard budgets for
    assert _u01_np(np.array([2**64 - 1], dtype=np.uint64)).tolist() == [1.0]
    law = OffspringDistribution.geometric(mean)
    counts = law.sample(np.arange(2, dtype=np.uint64), _GivenUniforms(_TOP_UNIFORMS))
    assert counts.tolist() == [law._widest] * 2
    assert 0 <= law._widest < math.inf


def test_binomial_table_past_the_float_range_is_a_parameter_error():
    # C(1030, 515) does not convert to a float; 1029 trials still build
    assert len(OffspringDistribution.binomial(1029, 0.002)._cdf) == 1030
    law = OffspringDistribution.binomial(1030, 0.002)
    with pytest.raises(ValueError, match="1030 trials"):
        law.sample(np.zeros(1, dtype=np.uint64), LabelField(1))


@pytest.mark.parametrize(
    "dist", [OffspringDistribution.poisson(2.5), OffspringDistribution.binomial(10, 0.3)]
)
def test_cached_cdf_is_not_part_of_the_value(dist):
    fresh = dataclasses.replace(dist)
    before = (hash(dist), repr(dist))
    table, guide = dist._cdf, dist._guide
    assert dist._cdf is table and dist._guide is guide  # built once
    assert dist == fresh and fresh == dist
    assert (hash(dist), repr(dist)) == before == (hash(fresh), repr(fresh))
    twin = copy.copy(dist)
    assert twin == dist == fresh and hash(twin) == hash(fresh)


def test_offspring_validation():
    with pytest.raises(ValueError):
        OffspringDistribution.poisson(0.0)
    with pytest.raises(ValueError):
        OffspringDistribution.binomial(5, 1.2)
    with pytest.raises(ValueError):
        OffspringDistribution.deterministic(-1)


@pytest.mark.parametrize(
    "kind, args",
    [
        ("deterministic", (2.5,)),
        ("deterministic", (float("inf"),)),
        ("deterministic", (float("nan"),)),
        ("binomial", (3.7, 0.5)),
        ("binomial", (float("inf"), 0.5)),
        ("binomial", (float("nan"), 0.5)),
    ],
)
def test_offspring_counts_must_be_whole(kind, args):
    # rejected, not rounded: deterministic(2.5) once became deterministic(2)
    with pytest.raises(ValueError, match="whole number"):
        getattr(OffspringDistribution, kind)(*args)


def test_offspring_accepts_integral_floats():
    for law, same in (
        (OffspringDistribution.deterministic(2.0), OffspringDistribution.deterministic(2)),
        (OffspringDistribution.deterministic(np.int64(3)), OffspringDistribution.deterministic(3)),
        (OffspringDistribution.binomial(4.0, 0.5), OffspringDistribution.binomial(4, 0.5)),
    ):
        assert law == same and type(law.params[0]) is int


# --- frontier stepping --------------------------------------------------------


def test_step_keeps_all_children_at_theta_one():
    field = LabelField(7)
    fr = fixed_u_frontier(0.9, 1000)
    child = step_frontier(fr, 1.0, OffspringDistribution.deterministic(3), field)
    assert child.size == 3000
    assert child.generation == 1


def test_step_keeps_all_children_when_parent_below_theta():
    field = LabelField(7)
    fr = fixed_u_frontier(0.15, 1000)
    child = step_frontier(fr, 0.2, OffspringDistribution.deterministic(2), field)
    assert child.size == 2000


def test_step_binomial_keep_rate():
    # parent u=0.5, theta=0.2: each of k=3 children kept w.p. 0.7
    field = LabelField(7)
    n = 100_000
    fr = fixed_u_frontier(0.5, n)
    child = step_frontier(fr, 0.2, OffspringDistribution.deterministic(3), field, cap=10**7)
    sigma = math.sqrt(3 * 0.7 * 0.3 / n)
    assert abs(child.size / n - 2.1) < 3 * sigma


def test_kept_children_conditional_law():
    # kept child marks given parent u are Uniform((u - theta) v 0, 1)
    field = LabelField(13)
    u, theta = 0.6, 0.25
    fr = fixed_u_frontier(u, 60_000)
    child = step_frontier(fr, theta, OffspringDistribution.deterministic(2), field, cap=10**7)
    lo = u - theta
    stat = kstest(child.uniforms, lambda x: (x - lo) / (1.0 - lo)).statistic
    assert stat < 1.63 / math.sqrt(child.size)  # 1% critical value


def test_step_truncation_flag():
    field = LabelField(3)
    fr = fixed_u_frontier(0.1, 2000)
    child = step_frontier(fr, 1.0, OffspringDistribution.deterministic(4), field, cap=100)
    assert child.truncated
    assert child.size == 100


def test_step_frontier_validates_theta():
    field = LabelField(3)
    fr = fixed_u_frontier(0.5, 10)
    with pytest.raises(ValueError):
        step_frontier(fr, 1.2, OffspringDistribution.deterministic(2), field)


def test_root_frontier_replay():
    a = root_frontier(LabelField(5), replica=2)
    b = root_frontier(LabelField(5), replica=2)
    assert a.uniforms[0] == b.uniforms[0]
    c = root_frontier(LabelField(5), replica=3)
    assert c.uniforms[0] != a.uniforms[0]


def test_single_replica_matches_batched_engine():
    # evolving one replica via public steps reproduces its batched history
    field = LabelField(21)
    offspring = OffspringDistribution.poisson(2.0)
    fr = root_frontier(field, replica=4)
    for _ in range(6):
        fr = step_frontier(fr, 0.45, offspring, field)

    state = tree._BatchState(field, np.arange(10))
    for _ in range(6):
        state.step(0.45, offspring, field, tree.DEFAULT_CAP)
    batched = np.sort(state.uniforms[state.replica == 4])
    assert np.array_equal(np.sort(fr.uniforms), batched)


# --- survival ------------------------------------------------------------------


def test_survival_certain_at_theta_one():
    est = survival_probability(
        1.0, OffspringDistribution.deterministic(2), 25, 60, cap=2000, seed=5
    )
    assert est.estimate == 1.0


def test_survival_subcritical_dies():
    # m=1.02 < m_c(0.6) ~ 1.096
    est = survival_probability(
        0.6, OffspringDistribution.poisson(1.02), 60, 400, seed=5
    )
    assert est.estimate < 0.01


def test_survival_supercritical_persists():
    est = survival_probability(
        0.6, OffspringDistribution.poisson(1.3), 60, 400, cap=20_000, seed=5
    )
    assert est.estimate > 0.05


def test_survival_theta_zero_house_of_cards():
    est = survival_probability(
        0.0, OffspringDistribution.deterministic(2), 20, 200, seed=1
    )
    assert est.estimate == 0.0


def test_survival_monotone_in_theta_and_horizon():
    offspring = OffspringDistribution.deterministic(2)
    ests = [
        survival_probability(t, offspring, 25, 300, cap=10_000, seed=8).estimate
        for t in (0.15, 0.22, 0.3, 0.5)
    ]
    assert all(a <= b for a, b in zip(ests, ests[1:]))
    # same seed: survival to a longer horizon is pathwise contained
    s30 = survival_probability(0.25, offspring, 30, 300, cap=10_000, seed=8).estimate
    s60 = survival_probability(0.25, offspring, 60, 300, cap=10_000, seed=8).estimate
    assert s60 <= s30


def test_survival_first_moment_bound():
    # theta <= 1/(e*m): estimate below the union bound plus noise
    m, theta, h = 2.0, 1.0 / (2.0 * math.e), 12
    est = survival_probability(
        theta, OffspringDistribution.deterministic(2), h, 2000, cap=10_000, seed=77
    )
    bound = min(1.0, 2.0**h * path_increase_upper_bound(h, theta))
    assert est.estimate <= bound + 3 * est.stderr


def test_survival_replay_determinism():
    kwargs = dict(theta=0.4, offspring=OffspringDistribution.poisson(1.5),
                  horizon_h=25, replicas=150, cap=5000, seed=99)
    a = survival_probability(**kwargs)
    b = survival_probability(**kwargs)
    assert a.survivors == b.survivors and a.truncated == b.truncated


def test_survival_validation():
    with pytest.raises(ValueError):
        survival_probability(0.5, OffspringDistribution.poisson(2.0), 0, 10)


@pytest.mark.parametrize(
    "offspring, pgf, theta",
    [
        (OffspringDistribution.deterministic(2), lambda z: z * z, 0.2),
        (OffspringDistribution.deterministic(2), lambda z: z * z, 0.22),
        (OffspringDistribution.poisson(2.0), lambda z: np.exp(2.0 * (z - 1.0)), 0.2),
    ],
)
def test_survival_matches_exact_recursion(offspring, pgf, theta):
    # no replica reaches the default cap here, so the estimate is unbiased
    exact = survival_oracle(pgf, theta, 50)
    est = survival_probability(theta, offspring, 50, 20_000, seed=1)
    assert est.truncated == 0
    assert abs(est.estimate - exact) < 4 * math.sqrt(exact * (1 - exact) / 20_000)


def test_theta_out_of_range_rejected():
    offspring = OffspringDistribution.deterministic(2)
    for theta in (-0.5, 1.5):
        with pytest.raises(ValueError, match="theta"):
            survival_probability(theta, offspring, 5, 5)


def test_batches_do_not_depend_on_cap(monkeypatch):
    # an unhit cap must not shrink the batches: at the default cap the whole
    # run steps as one batch, one engine call per generation
    parents = []
    step = tree._step_arrays

    def recording(uniforms, *args):
        parents.append(len(uniforms))
        return step(uniforms, *args)

    monkeypatch.setattr(tree, "_step_arrays", recording)
    offspring = OffspringDistribution.deterministic(2)
    runs = []
    for cap in (tree.DEFAULT_CAP, 20_000):
        parents.clear()
        est = survival_probability(0.2, offspring, 50, 2000, cap=cap, seed=1)
        assert est.truncated == 0
        runs.append((est.survivors, list(parents)))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) <= 50


def test_single_replica_step_bounded_in_bytes():
    # both replicas pass the default cap at about a million members; one
    # step of a whole replica once held its ~3 million children (157 MB)
    tracemalloc.start()
    try:
        est = survival_probability(
            0.6, OffspringDistribution.deterministic(3), horizon_h=30, replicas=2
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est == tree.SurvivalEstimate(
        theta=0.6, horizon=30, replicas=2, survivors=2, truncated=2, cap=tree.DEFAULT_CAP, seed=0
    )
    assert peak < 80e6


def _traces_at_both_budgets(monkeypatch, offspring, generations, replicas):
    """The martingale trace and the parent count of every engine call, at
    the current ``MEMBER_BUDGET`` and at 250,000, the budget before it."""
    calls = []
    step = tree._step_arrays

    def recording(uniforms, *args):
        calls[-1].append(len(uniforms))
        return step(uniforms, *args)

    monkeypatch.setattr(tree, "_step_arrays", recording)
    traces = []
    for budget in (tree.MEMBER_BUDGET, 250_000):
        monkeypatch.setattr(tree, "MEMBER_BUDGET", budget)
        calls.append([])
        traces.append(martingale_trace(0.3, offspring, generations, replicas, seed=3))
    new, old = traces
    for field in dataclasses.fields(new):
        assert np.array_equal(getattr(new, field.name), getattr(old, field.name)), field.name
    return calls


def test_default_sizes_fit_the_guard():
    poisson = OffspringDistribution.poisson(3.0)
    tree._guard_run(10_000, tree.DEFAULT_CAP, poisson, trace_cells=11)  # tree-martingale defaults
    tree._guard_run(100_000, 200_000, poisson, trace_cells=11)  # acceptance 7
    tree._guard_run(2000, 20_000, OffspringDistribution.deterministic(2))  # acceptance 8
    tree._guard_run(1, 2**32 // tree._BYTES_PER_MEMBER, poisson)
    with pytest.raises(ResourceGuardError, match="cap"):
        tree._guard_run(1, 2**32 // tree._BYTES_PER_MEMBER + 1, poisson)


def test_guard_counts_the_widest_parent_and_the_table():
    most = 2**32 // tree._BYTES_PER_MEMBER  # children and table entries together
    fits = [
        OffspringDistribution.deterministic(most),
        OffspringDistribution.binomial((most - 1) // 2, 0.5),  # n children, n + 1 entries
        OffspringDistribution.poisson(3.0),
        OffspringDistribution.geometric(1e5),
    ]
    over = [
        OffspringDistribution.deterministic(most + 1),
        OffspringDistribution.binomial((most - 1) // 2 + 1, 0.5),
        OffspringDistribution.poisson(1e9),
        OffspringDistribution.geometric(1e9),  # 3.7e10 children at u = 1 - 2^-54
        OffspringDistribution.geometric(1e300),  # p rounds to 1
    ]
    for law in fits:
        tree._guard_run(1, 1, law)
    for law in over:
        with pytest.raises(ResourceGuardError, match="one parent"):
            tree._guard_run(1, 1, law)
    for law in fits + over:
        assert "_cdf" not in vars(law)  # the guard reads the table length in closed form
    law = OffspringDistribution.poisson(30.0)
    assert law._table_length == len(law._cdf)
    assert OffspringDistribution.binomial(7, 0.2)._table_length == 8


def test_martingale_trace_same_at_old_member_budget(monkeypatch):
    # more, smaller batches than under the old budget
    calls = _traces_at_both_budgets(monkeypatch, OffspringDistribution.poisson(3.0), 10, 200)
    assert len(calls[0]) > len(calls[1])


def test_martingale_trace_same_with_sliced_replica(monkeypatch):
    # one replica whose last step spans several slices, one under the old budget
    budget = tree.MEMBER_BUDGET
    calls = _traces_at_both_budgets(monkeypatch, OffspringDistribution.deterministic(3), 15, 1)
    assert calls[0] == calls[1]
    assert budget < 3 * max(calls[0]) <= 250_000


_OFFSPRING = [
    OffspringDistribution.deterministic(2),
    OffspringDistribution.deterministic(1),
    OffspringDistribution.deterministic(3),
    OffspringDistribution.poisson(1.5),
    OffspringDistribution.geometric(1.3),
    OffspringDistribution.binomial(3, 0.6),
]


def _tree_results(theta, offspring, generations, replicas, cap, seed):
    """Survivor and truncation counts at every horizon, and the martingale
    trace (None when the cap is hit)."""
    extinct_at, capped_at, _, _ = tree._histories(
        theta, offspring, generations, np.arange(replicas), cap, LabelField(seed)
    )
    counts = (
        [int((extinct_at > h).sum()) for h in range(1, generations + 1)],
        int((capped_at <= generations).sum()),
    )
    try:
        trace = martingale_trace(
            theta, offspring, generations, replicas, cap=cap, seed=seed
        )
    except RuntimeError:
        trace = None
    return counts, trace


def _same_trace(a, b):
    if a is None or b is None:
        return a is b
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("m", "theta", "lam", "means", "stderrs", "frontier_means", "replicas")
    )


def _law_and_depth(depth):
    """A law of ``_OFFSPRING`` and a number of generations from 1 to
    ``depth``, fewer for a mean above 2, so that no law's tree outgrows a
    binary tree ``depth`` generations deep."""

    def depths(law):
        top = depth if law.mean <= 2 else int(depth * math.log(2) / math.log(law.mean))
        return st.tuples(st.just(law), st.integers(1, top))

    return st.sampled_from(_OFFSPRING).flatmap(depths)


@settings(max_examples=60, deadline=None)
@given(
    law_depth=_law_and_depth(7),
    theta=st.sampled_from([0.1, 0.25, 0.45, 0.7, 1.0]),
    replicas=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    budget=st.one_of(st.integers(1, 100), st.integers(1, tree.MEMBER_BUDGET)),
    data=st.data(),
)
def test_results_independent_of_batching_and_unhit_cap(
    law_depth, theta, replicas, seed, budget, data
):
    offspring, generations = law_depth
    _, _, sizes, _ = tree._histories(
        theta, offspring, generations, np.arange(replicas), tree.DEFAULT_CAP, LabelField(seed),
        weight=np.ones_like,
    )
    peak = int(sizes.max())  # the largest frontier of one replica: no cap >= peak is passed
    unhit = data.draw(st.integers(peak, peak + 100), label="unhit cap")
    hit = data.draw(st.integers(1, peak - 1), label="hit cap") if peak > 1 else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "MEMBER_BUDGET", budget)
        b_free = _tree_results(theta, offspring, generations, replicas, unhit, seed)
        b_hit = hit and _tree_results(theta, offspring, generations, replicas, hit, seed)
    counts, trace = _tree_results(theta, offspring, generations, replicas, tree.DEFAULT_CAP, seed)
    assert counts[1] == 0 and trace is not None
    assert b_free[0] == counts
    assert _same_trace(b_free[1], trace)
    if hit:
        hit_counts, hit_trace = _tree_results(theta, offspring, generations, replicas, hit, seed)
        assert b_hit[0] == hit_counts and hit_counts[1] > 0
        assert b_hit[1] is None and hit_trace is None


_STEP_LAWS = [
    OffspringDistribution.deterministic(0),
    OffspringDistribution.deterministic(1),
    OffspringDistribution.deterministic(2),
    OffspringDistribution.deterministic(3),
    OffspringDistribution.poisson(1.5),
    OffspringDistribution.poisson(6.0),
    OffspringDistribution.geometric(1.3),
    OffspringDistribution.binomial(3, 0.6),
]


def _counting_sample(mp, calls):
    """Patch ``OffspringDistribution.sample`` to record its parent counts."""
    sample = OffspringDistribution.sample

    def counting(self, keys, field):
        calls.append(len(keys))
        return sample(self, keys, field)

    mp.setattr(OffspringDistribution, "sample", counting)


@settings(max_examples=200, deadline=None)
@given(
    offspring=st.sampled_from(_STEP_LAWS),
    parents=st.lists(
        st.tuples(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.integers(0, 2**64 - 1),
            st.integers(0, 4),
        ),
        max_size=40,
    ),
    theta=st.one_of(st.sampled_from([0.0, 0.3, 1.0]), st.floats(0.0, 1.0)),
    cap=st.one_of(st.integers(1, 40), st.just(tree.DEFAULT_CAP)),
    budget=st.one_of(st.integers(1, 4), st.integers(1, 100), st.just(tree.MEMBER_BUDGET)),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_arrays_equal_scalar_oracle(offspring, parents, theta, cap, budget, seed):
    # budgets below m put one parent in each slice; small caps are passed
    # mid-step, after which the slices skip the parents of capped slots
    uniforms = np.array([u for u, _, _ in parents], dtype=np.float64)
    keys = np.array([k for _, k, _ in parents], dtype=np.uint64)
    replica = np.array([r for _, _, r in parents], dtype=np.int64)
    field = LabelField(seed)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "MEMBER_BUDGET", budget)
        _counting_sample(mp, calls)
        got = tree._step_arrays(uniforms, keys, replica, 5, theta, offspring, field, cap)
    want = step_oracle(uniforms, keys, replica, 5, theta, offspring, field, cap)
    assert calls == [len(parents)]
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    live = want[3] <= cap
    assert np.array_equal(got[3] <= cap, live)
    assert np.array_equal(got[3][live], want[3][live])


@pytest.mark.parametrize("offspring", _STEP_LAWS[1:], ids=repr)
def test_step_ties_count_as_not_increasing(offspring):
    # at theta = 0 each parent's mark is its first child's mark, and a
    # child is kept only if its mark is strictly larger
    field = LabelField(11)
    keys = field.derive_key_array(np.arange(30, dtype=np.uint64), np.uint64(5))
    first = field.uniform_from_key_array(field.derive_key_array(keys, np.uint64(tree._CHILD_BASE)))
    replica = np.zeros(30, dtype=np.int64)
    got = tree._step_arrays(first, keys, replica, 1, 0.0, offspring, field, tree.DEFAULT_CAP)
    want = step_oracle(first, keys, replica, 1, 0.0, offspring, field, tree.DEFAULT_CAP)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert not np.isin(first, got[0]).any()


@pytest.mark.parametrize("offspring", _STEP_LAWS, ids=repr)
def test_sample_runs_once_per_step(monkeypatch, offspring):
    # the benchmark tracer counts members stepped through ``sample``
    steps, calls = [], []
    step = tree._step_arrays

    def recording(uniforms, *args):
        steps.append(len(uniforms))
        return step(uniforms, *args)

    monkeypatch.setattr(tree, "_step_arrays", recording)
    monkeypatch.setattr(tree, "MEMBER_BUDGET", 50)
    _counting_sample(monkeypatch, calls)
    survival_probability(0.3, offspring, 8, 60, cap=200, seed=4)
    assert steps and calls == steps


# --- crossing estimation --------------------------------------------------------


def test_theta_c_curve_binary_tree():
    offspring = OffspringDistribution.deterministic(2)
    grid = np.arange(0.14, 0.31, 0.02)
    curve = estimate_theta_c_tree(offspring, grid, 30, 400, cap=10_000, seed=2)
    assert curve.crossing is not None
    assert 0.16 <= curve.crossing <= 0.30
    # pathwise coupling makes the curve monotone without noise allowance
    assert all(a <= b + 1e-12 for a, b in zip(curve.estimates, curve.estimates[1:]))


@pytest.mark.parametrize(
    "offspring, horizon, cap",
    [
        (OffspringDistribution.deterministic(2), 20, 30),  # cap truncates replicas
        (OffspringDistribution.poisson(1.5), 7, 50),
        (OffspringDistribution.geometric(2.0), 12, 10**6),
        (OffspringDistribution.poisson(1.2), 1, 10**6),
    ],
)
def test_theta_c_curve_rows_equal_survival_probability(offspring, horizon, cap):
    grid = [0.1, 0.2, 0.3, 0.45]
    curve = estimate_theta_c_tree(offspring, grid, horizon, 300, cap=cap, seed=8)
    truncated = 0
    for th, full, half in zip(grid, curve.estimates, curve.estimates_half):
        est = survival_probability(th, offspring, horizon, 300, cap=cap, seed=8)
        mid = survival_probability(th, offspring, max(1, horizon // 2), 300, cap=cap, seed=8)
        assert full == est.estimate
        assert half == mid.estimate
        truncated += est.truncated
    if cap == 30:
        assert truncated > 0


def test_theta_c_curve_rejects_bad_grid():
    with pytest.raises(ValueError):
        estimate_theta_c_tree(OffspringDistribution.poisson(2.0), [0.5, 1.4], 10, 10)


def test_theta_c_curve_validates_whole_sweep_first():
    # every replica survives at theta = 1, so the sweep would never
    # simulate the bad point that follows it
    offspring = OffspringDistribution.deterministic(2)
    for grid in ([1.0, 1.4], [0.3, float("nan")], [0.3, -0.1]):
        with pytest.raises(ValueError, match="theta grid"):
            estimate_theta_c_tree(offspring, grid, 3, 5)
    for replicas, horizon in ((0, 3), (-2, 3), (5, 0)):
        with pytest.raises(ValueError, match="replicas and horizon_h"):
            estimate_theta_c_tree(offspring, [0.2, 0.3], horizon, replicas)


@settings(max_examples=80, deadline=None)
@given(
    law_horizon=_law_and_depth(12),
    grid=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=8
    ).flatmap(lambda g: st.permutations(g + g[: len(g) // 2])),
    cap=st.sampled_from([30, tree.DEFAULT_CAP]),
    replicas=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    budget=st.one_of(st.integers(1, 100), st.just(tree.MEMBER_BUDGET)),
)
def test_theta_c_curve_equals_per_drift_oracle(
    law_horizon, grid, cap, replicas, seed, budget
):
    offspring, horizon = law_horizon
    # unsorted grids with duplicates, truncating and unhit caps, any batching
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "MEMBER_BUDGET", budget)
        curve = estimate_theta_c_tree(offspring, grid, horizon, replicas, cap=cap, seed=seed)
        oracle = theta_sweep_oracle(offspring, grid, horizon, replicas, cap, seed)
    assert np.array_equal(curve.thetas, oracle.thetas)
    assert np.array_equal(curve.estimates, oracle.estimates)
    assert np.array_equal(curve.estimates_half, oracle.estimates_half)
    assert np.array_equal(curve.stderrs, oracle.stderrs)
    assert curve.crossing == oracle.crossing


@pytest.mark.slow
def test_theta_c_curve_ternary_tree():
    # prior simulations put the ternary threshold in [0.12, 0.14]
    offspring = OffspringDistribution.deterministic(3)
    grid = np.round(np.arange(0.10, 0.175, 0.01), 3)
    curve = estimate_theta_c_tree(offspring, grid, 50, 1200, cap=10_000, seed=7)
    theta_c = theta_critical(3.0)
    assert 0.12 <= theta_c <= 0.14
    assert abs(curve.crossing - theta_c) <= 0.02


# --- martingale -----------------------------------------------------------------


def test_martingale_generation_zero_mean():
    m, theta = 3.0, 0.3
    lam = lead_eigenvalue(m, theta)
    trace = martingale_trace(
        theta, OffspringDistribution.poisson(3.0), 3, 20_000, cap=100_000, seed=6
    )
    assert trace.lam == pytest.approx(lam)
    assert abs(trace.means[0] - lam / m) < 3 * trace.stderrs[0]


def test_martingale_constant_mean_short():
    trace = martingale_trace(
        0.4, OffspringDistribution.deterministic(2), 6, 20_000, cap=100_000, seed=14
    )
    for g in range(1, 7):
        band = 3 * math.sqrt(trace.stderrs[g] ** 2 + trace.stderrs[0] ** 2)
        assert abs(trace.means[g] - trace.means[0]) < band


def test_martingale_many_to_one_single_generation():
    # E[sum f(U_child) | U_root=u] = m * int_{(u-theta) v 0}^1 f, via stepping
    m, theta = 2.0, 0.3
    lam = lead_eigenvalue(m, theta)
    field = LabelField(31)
    offspring = OffspringDistribution.deterministic(2)
    for u in (0.1, 0.5, 0.9):
        n = 40_000
        fr = fixed_u_frontier(u, n, seed=17)
        child = step_frontier(fr, theta, offspring, field, cap=10**7)
        fvals = eigenfunction_eval(m, theta, lam, child.uniforms)
        per_root = fvals.sum() / n
        se = fvals.std() * math.sqrt(child.size) / n
        lo = max(u - theta, 0.0)
        expected = m * (1.0 - lo) * np.mean(
            eigenfunction_eval(m, theta, lam, np.linspace(lo + 1e-9, 1.0 - 1e-9, 20_001))
        )
        assert abs(per_root - expected) < 3 * se + 1e-3


def test_martingale_equals_single_replica_oracle():
    # per replica W_g from the one-replica frontier, summed in member order;
    # the trace is the correctly rounded mean over replicas
    m, theta, generations, replicas, seed = 2.0, 0.4, 6, 60, 9
    offspring = OffspringDistribution.poisson(m)
    lam = lead_eigenvalue(m, theta)
    field = LabelField(seed)
    w = np.empty((replicas, generations + 1))
    sizes = np.empty((replicas, generations + 1))
    for r in range(replicas):
        fr = root_frontier(field, replica=r)
        for g in range(generations + 1):
            if g:
                fr = step_frontier(fr, theta, offspring, field)
            f = eigenfunction_eval(m, theta, lam, fr.uniforms)
            w[r, g] = np.bincount(np.zeros(fr.size, dtype=np.int64), weights=f, minlength=1)[0]
            w[r, g] *= lam ** (-g)
            sizes[r, g] = fr.size
    means = np.array([math.fsum(col) for col in w.T]) / replicas
    sq = np.array([math.fsum(col) for col in (w * w).T])
    stderrs = np.sqrt(np.maximum(sq - replicas * means**2, 0.0) / (replicas - 1) / replicas)
    trace = martingale_trace(theta, offspring, generations, replicas, seed=seed)
    assert np.array_equal(trace.means, means)
    assert np.array_equal(trace.stderrs, stderrs)
    assert np.array_equal(trace.frontier_means, sizes.mean(axis=0))


def test_martingale_rejects_bad_sizes():
    offspring = OffspringDistribution.deterministic(3)
    with pytest.raises(ValueError, match="replicas"):
        martingale_trace(0.3, offspring, 2, 0)
    with pytest.raises(ValueError, match="generations"):
        martingale_trace(0.3, offspring, -1, 5)


def test_cap_below_one_rejected():
    offspring = OffspringDistribution.deterministic(2)
    for cap in (0, -3):
        with pytest.raises(ValueError, match="cap"):
            survival_probability(0.3, offspring, 3, 5, cap=cap)
        with pytest.raises(ValueError, match="cap"):
            estimate_theta_c_tree(offspring, [0.2, 0.3], 4, 5, cap=cap)
        with pytest.raises(ValueError, match="cap"):
            martingale_trace(0.3, offspring, 2, 5, cap=cap)


def test_martingale_cap_error():
    with pytest.raises(RuntimeError):
        martingale_trace(
            0.9, OffspringDistribution.deterministic(3), 12, 50, cap=200, seed=4
        )
