import dataclasses
import json
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rmfperc import (
    AccessibleSet,
    LabelField,
    LatticeConfig,
    Metric,
    ResourceGuardError,
    accessible_set,
    crossing_probability,
    export_accessible,
    oriented_coupling_check,
    parse_accessible,
    sweep_accessible_min_theta,
    sweep_theta,
)
from rmfperc import lattice
from rmfperc.core import _guard_bytes
from rmfperc.lattice import CrossingEstimate, _Box, _levels, oriented_reach
from conftest import FixedField, grid_from_array
from oracles import first_moment_bound, key_of, norm, power_key, uniform_at


def nb_config(**kw):
    defaults = dict(dimension=2, metric=Metric(1), mode="nb", box_radius=30, seed=0)
    defaults.update(kw)
    return LatticeConfig(**defaults)


def half_plateau_crossing(rows):
    ests = [r["crossing"] for r in rows]
    plateau = float(np.mean(sorted(ests)[-3:]))
    for r in rows:
        if r["crossing"] >= 0.5 * plateau:
            return r["theta"]
    return None


class TransformedField:
    """Wraps a field so every lookup sees transformed coordinates;
    ``transform`` maps an (N, dim) coordinate array."""

    def __init__(self, base, transform):
        self.base = base
        self.transform = transform
        self.seed = base.seed

    def uniform_array(self, coords):
        return self.base.uniform_array(self.transform(np.asarray(coords)))

    def uniform_grid(self, axes, out=None):
        return grid_from_array(self.uniform_array, axes)


def closure_oracle(config, theta, field=None):
    """Breadth-first reference closure at drift ``theta`` from the origin
    with scalar uniforms, power keys and norms.  Labels strictly increase
    along every edge, so the reachability graph is acyclic and each site
    is finalised once; predecessors record the in-neighbour through which
    a site was first reached."""
    if field is None:
        field = LabelField(config.seed)
    metric = config.metric
    radius = config.box_radius
    dim = config.dimension
    steps = [tuple(d if i == axis else 0 for i in range(dim))
             for axis in range(dim) for d in (1, -1)]
    origin = (0,) * dim
    labels = {origin: uniform_at(field, origin)}
    power_keys = {origin: power_key(metric, origin)}
    predecessors = {origin: None}
    frontier_reached = False
    queue = deque([origin])
    while queue:
        u = queue.popleft()
        for step in steps:
            v = tuple(a + b for a, b in zip(u, step))
            if v in labels:
                continue
            if any(abs(c) > radius for c in v):
                continue
            pv = power_key(metric, v)
            if config.mode == "nb" and not pv > power_keys[u]:
                continue
            nv = norm(metric, v)
            xv = uniform_at(field, v) + theta * nv
            if not xv > labels[u]:
                continue
            labels[v] = xv
            power_keys[v] = pv
            predecessors[v] = u
            frontier_reached |= nv >= radius
            queue.append(v)
    return AccessibleSet(config, labels, predecessors, frontier_reached, theta=theta)


def assert_witnesses(aset):
    """Every witness path starts at the origin, takes unit steps and has
    strictly increasing labels; in "nb" mode its power keys strictly
    increase too."""
    cfg = aset.config
    for site in aset.labels:
        path = aset.witness_path(site)
        assert path[0] == (0,) * cfg.dimension and path[-1] == site
        for u, v in zip(path, path[1:]):
            assert sum(abs(a - b) for a, b in zip(u, v)) == 1
            assert aset.labels[v] > aset.labels[u]
            if cfg.mode == "nb":
                assert power_key(cfg.metric, v) > power_key(cfg.metric, u)


def assert_same_closure(aset, oracle):
    """Same sites, bit-identical labels, same frontier flag."""
    assert {s: x.hex() for s, x in aset.labels.items()} == {
        s: x.hex() for s, x in oracle.labels.items()
    }
    assert aset.frontier_reached == oracle.frontier_reached


# --- accessible sets -----------------------------------------------------------


def test_origin_always_accessible():
    aset = accessible_set(nb_config(box_radius=10), 0.0)
    assert (0, 0) in aset.labels
    assert aset.predecessors[(0, 0)] is None


def test_theta_one_graph_distance_fills_quadrant():
    aset = accessible_set(nb_config(box_radius=12, seed=3), 1.0)
    for i in range(13):
        for j in range(13):
            assert (i, j) in aset.labels
    assert aset.frontier_reached


def test_house_of_cards_rarely_crosses():
    cfg = LatticeConfig(dimension=2, metric=Metric(1), mode="all", box_radius=50, seed=10)
    est = crossing_probability(cfg, 0.0, 500)
    assert est.estimate <= 0.01


def test_witness_chains_are_increasing():
    cfg = nb_config(box_radius=20, seed=8, metric=Metric(2))
    aset = accessible_set(cfg, 0.55)
    metric = cfg.metric
    for site in aset.labels:
        path = aset.witness_path(site)
        labels = [aset.labels[v] for v in path]
        assert all(b > a for a, b in zip(labels, labels[1:]))
        powers = [power_key(metric, v) for v in path]
        assert all(b > a for a, b in zip(powers, powers[1:]))
        assert path[0] == (0, 0)


def test_accessible_set_deterministic():
    cfg = nb_config(seed=123)
    a = accessible_set(cfg, 0.4)
    b = accessible_set(cfg, 0.4)
    assert a.labels == b.labels


@pytest.mark.parametrize("q", [1, 2, 4, math.inf])
def test_nested_in_theta_nonbacktracking(q):
    field = LabelField(44)
    cfg = nb_config(metric=Metric(q), box_radius=25)
    small = accessible_set(cfg, 0.35, field=field)
    large = accessible_set(cfg, 0.55, field=field)
    assert set(small.labels) <= set(large.labels)


def test_nonbacktracking_subset_of_all_paths():
    field = LabelField(91)
    nb = accessible_set(nb_config(box_radius=25), 0.45, field=field)
    al = accessible_set(nb_config(mode="all", box_radius=25), 0.45, field=field)
    assert set(nb.labels) <= set(al.labels)


class GuardPassed(Exception):
    """Stops a run right after its byte guard passes, before anything is built."""


def passes_guard(monkeypatch, run) -> bool:
    """Whether ``run()`` passes the lattice byte guard; it stops at the
    guard either way, so nothing is built."""
    def guard_then_stop(need, what):
        _guard_bytes(need, what)
        raise GuardPassed

    monkeypatch.setattr(lattice, "_guard_bytes", guard_then_stop)
    try:
        run()
    except GuardPassed:
        return True
    except ResourceGuardError:
        return False
    raise AssertionError("the run never reached the guard")


def test_resource_guard():
    with pytest.raises(ResourceGuardError):
        _Box.of(LatticeConfig(dimension=2, metric=Metric(1), box_radius=6000))
    with pytest.raises(ResourceGuardError):
        crossing_probability(LatticeConfig(dimension=4, metric=Metric(1), box_radius=200), 0.5, 1)


def test_resource_guard_counts_bytes_of_the_box(monkeypatch):
    with pytest.raises(ResourceGuardError, match="bytes"):
        _Box.of(LatticeConfig(dimension=3, metric=Metric(1), box_radius=200))
    for dim, r in ((3, 150), (2, 2000)):
        assert passes_guard(monkeypatch, lambda: _Box.of(nb_config(dimension=dim, box_radius=r)))


def test_accessible_set_guards_its_site_dicts(monkeypatch):
    # 320 bytes per box site: (2r + 1)^2 * 320 <= 2^32 up to r = 1831
    for r, ok in ((1831, True), (1832, False), (2000, False)):
        cfg = nb_config(box_radius=r)
        assert passes_guard(monkeypatch, lambda: accessible_set(cfg, 0.5)) == ok
        assert passes_guard(monkeypatch, lambda: sweep_accessible_min_theta(cfg, [0.5])) == ok
        assert passes_guard(monkeypatch, lambda: _Box.of(cfg))


ENTRY_POINTS = {
    "accessible_set": lambda cfg, th: accessible_set(cfg, th),
    "crossing_probability": lambda cfg, th: crossing_probability(cfg, th, 3),
    "sweep_theta": lambda cfg, th: sweep_theta(cfg, [0.5, th], 3),
    "sweep_accessible_min_theta": lambda cfg, th: sweep_accessible_min_theta(cfg, [th, 0.5]),
    "oriented_coupling_check": lambda cfg, th: oriented_coupling_check(th, cfg.seed, cfg.box_radius),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("theta", [1.5, -0.1, math.nan])
def test_every_entry_point_rejects_a_bad_drift(entry, theta):
    # the box is past the byte guard: the drift is checked first
    with pytest.raises(ValueError, match="theta"):
        ENTRY_POINTS[entry](nb_config(box_radius=6000), theta)


def test_three_dimensional_box():
    cfg = LatticeConfig(dimension=3, metric=Metric(1), mode="nb", box_radius=8, seed=5)
    aset = accessible_set(cfg, 1.0)
    assert aset.frontier_reached
    assert (1, 1, 1) in aset.labels


def test_non_integer_metric_exploration():
    cfg = nb_config(metric=Metric(1.5), box_radius=15, seed=12)
    aset = accessible_set(cfg, 0.6)
    metric = cfg.metric
    for site in aset.labels:
        path = aset.witness_path(site)
        powers = [power_key(metric, v) for v in path]
        assert all(b > a for a, b in zip(powers, powers[1:]))


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([1, 1.5, 2, 3, math.inf, 40]),
    mode=st.sampled_from(["nb", "all"]),
    shape=st.sampled_from([(2, 1), (2, 4), (2, 9), (3, 1), (3, 4)]),
    theta=st.sampled_from([0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 1.0]),
    seed=st.integers(0, 10**6),
)
def test_accessible_set_equals_closure_oracle(q, mode, shape, theta, seed):
    dim, r = shape
    cfg = LatticeConfig(dimension=dim, metric=Metric(q), mode=mode, box_radius=r, seed=seed)
    aset = accessible_set(cfg, theta)
    assert_same_closure(aset, closure_oracle(cfg, theta))
    assert_witnesses(aset)


@pytest.mark.parametrize("mode", ["nb", "all"])
@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 1.0])
def test_accessible_set_ties_count_as_not_increasing(mode, theta):
    # quarter-step uniforms and integer distances make exact label ties
    base = LabelField(5)
    field = FixedField(rule=lambda site: 0.125 + (key_of(base, site) % 4) / 4)
    cfg = nb_config(mode=mode, box_radius=6)
    aset = accessible_set(cfg, theta, field=field)
    assert_same_closure(aset, closure_oracle(cfg, theta, field=field))
    assert_witnesses(aset)


# --- crossing probability -------------------------------------------------------


def test_crossing_certain_at_theta_one():
    est = crossing_probability(nb_config(box_radius=40), 1.0, 25)
    assert est.estimate == 1.0


def test_crossing_brackets_reported_threshold():
    # theta_c ~ 0.33 for graph distance without backtracking
    cfg = nb_config(box_radius=60, seed=31)
    lo = crossing_probability(cfg, 0.25, 120)
    hi = crossing_probability(cfg, 0.45, 120)
    assert lo.estimate < 0.1
    assert hi.estimate > 0.5


def test_sweep_monotone_and_endpoints():
    cfg = nb_config(box_radius=40, seed=6)
    rows = sweep_theta(cfg, [0.0, 0.3, 0.6, 1.0], 40)
    assert rows[0]["crossing"] == 0.0
    assert rows[-1]["crossing"] == 1.0
    for a, b in zip(rows, rows[1:]):
        band = 3 * math.sqrt(a["stderr"] ** 2 + b["stderr"] ** 2)
        assert b["crossing"] >= a["crossing"] - band


def test_sweep_pseudo_critical_location_graph_distance():
    cfg = nb_config(box_radius=100, seed=42)
    rows = sweep_theta(cfg, [0.25, 0.28, 0.31, 0.34, 0.37, 0.40, 0.43], 60)
    crossing = half_plateau_crossing(rows)
    assert 0.28 <= crossing <= 0.40


def test_sweep_euclidean_all_paths_transition():
    cfg = LatticeConfig(dimension=2, metric=Metric(2), mode="all", box_radius=80, seed=11)
    rows = sweep_theta(cfg, [0.32, 0.36, 0.40, 0.44, 0.48, 0.52, 0.56], 40)
    crossing = half_plateau_crossing(rows)
    assert 0.40 < crossing < 0.60


def sweep_theta_oracle(config, theta_grid, replicas):
    """One reference closure per grid drift and replica."""
    base = LabelField(config.seed)
    # replica i reads the (seed, 0x6C61, i) stream of the output contract
    fields = [LabelField(key_of(base, (0x6C61, i))) for i in range(replicas)]
    rows = []
    for th in theta_grid:
        crossings = sum(closure_oracle(config, float(th), field=f).frontier_reached for f in fields)
        est = CrossingEstimate(config, replicas, crossings)
        rows.append({"theta": float(th), "crossing": est.estimate, "stderr": est.stderr})
    return rows


def min_theta_oracle(config, theta_grid):
    """The per-drift loop: one reference closure per sorted grid drift."""
    field = LabelField(config.seed)
    min_theta = {}
    for th in sorted(float(t) for t in theta_grid):
        final = closure_oracle(config, th, field=field)
        for site in final.labels:
            min_theta.setdefault(site, th)
    final.min_theta = min_theta
    return final


lattice_q = st.sampled_from([1, 1.5, 2, 3, math.inf, 40])
theta_grids = st.lists(
    st.sampled_from([0.0, 1.0, 0.15, 0.3, 0.3, 0.42, 0.5, 0.61, 0.75, 0.9]),
    min_size=1, max_size=7,
)


@settings(max_examples=40, deadline=None)
@given(
    q=lattice_q,
    shape=st.sampled_from([(2, 1), (2, 4), (2, 9), (3, 1), (3, 4)]),
    grid=theta_grids,
    seed=st.integers(0, 10**6),
)
def test_nb_levels_equal_closure_per_theta(q, shape, grid, seed):
    dim, r = shape
    cfg = LatticeConfig(dimension=dim, metric=Metric(q), mode="nb", box_radius=r,
                        seed=seed)
    thetas = sorted(set(grid))
    box = _Box.of(cfg)
    fields = [LabelField(seed + i) for i in range(3)]
    lvls, _ = _levels(box, box.uniforms(fields), thetas)
    assert_levels_equal_closures(cfg, box, fields, lvls, thetas)


def assert_levels_equal_closures(cfg, box, fields, lvls, thetas):
    """Replica i of the stacked levels ``lvls`` holds, per drift, the sites
    of the reference closure on ``fields[i]``."""
    assert len(lvls) == len(fields)
    for field, lvl in zip(fields, lvls):
        for k, th in enumerate(thetas):
            aset = closure_oracle(cfg, th, field=field)
            sites = {tuple(v) for v in (np.argwhere(lvl <= k) - box.offset).tolist()}
            assert sites == set(aset.labels)


@settings(max_examples=15, deadline=None)
@given(
    q=lattice_q,
    mode=st.sampled_from(["nb", "all"]),
    shape=st.sampled_from([(2, 2), (2, 6), (3, 3)]),
    grid=theta_grids,
    seed=st.integers(0, 10**6),
)
def test_sweep_theta_equals_crossing_probability(q, mode, shape, grid, seed):
    dim, r = shape
    cfg = LatticeConfig(dimension=dim, metric=Metric(q), mode=mode, box_radius=r,
                        seed=seed)
    rows = sweep_theta(cfg, grid, 12)
    assert rows == sweep_theta_oracle(cfg, grid, 12)
    for row in rows:
        est = crossing_probability(cfg, row["theta"], 12)
        assert (row["crossing"], row["stderr"]) == (est.estimate, est.stderr)


@pytest.mark.parametrize("mode", ["nb", "all"])
def test_sweep_theta_rejects_bad_grid_and_replicas(mode):
    cfg = nb_config(mode=mode, box_radius=5)
    with pytest.raises(ValueError, match="theta"):
        sweep_theta(cfg, [0.5, 1.1], 5)
    with pytest.raises(ValueError, match="theta"):
        sweep_theta(cfg, [-0.1], 5)
    with pytest.raises(ValueError, match="replicas"):
        sweep_theta(cfg, [0.5], 0)


@pytest.mark.parametrize("q", [1, math.inf])
def test_nb_levels_ties_count_as_not_increasing(q):
    # quarter-step uniforms and integer distances make exact label ties
    base = LabelField(5)
    field = FixedField(rule=lambda site: 0.125 + (key_of(base, site) % 4) / 4)
    cfg = nb_config(metric=Metric(q), box_radius=6)
    thetas = [0.0, 0.25, 0.5, 1.0]
    box = _Box.of(cfg)
    fields = [field, LabelField(6), field]
    lvls, _ = _levels(box, box.uniforms(fields), thetas)
    assert_levels_equal_closures(cfg, box, fields, lvls, thetas)
    lvl = lvls[0]
    assert 1 < np.count_nonzero(lvl == 0) < np.count_nonzero(lvl < len(thetas))


def test_nb_levels_reject_non_monotone_openness():
    # at q = 40, (5, 0) -> (5, 1) moves further but keeps the float
    # distance; U one ulp apart is increasing at theta = 0 and a tie at 1
    values = {(i, 0): 0.1 + 0.1 * i for i in range(5)}
    values[(5, 0)] = 0.65
    values[(5, 1)] = math.nextafter(0.65, 1.0)
    field = FixedField(values, default=0.01)
    cfg = nb_config(metric=Metric(40), box_radius=5)
    for fields in ([field], [LabelField(1), field]):  # alone, and second in a batch
        with pytest.raises(RuntimeError, match="monotone"):
            box = _Box.of(cfg)
            _levels(box, box.uniforms(fields), [0.0, 1.0])


def exact_power_sums(q, coords):
    """||v||_q^q of each site of ``coords`` from the definition: Python ints
    for integer q, max|coord| for q = inf, 60-digit mpmath values
    otherwise."""
    import mpmath

    if q == math.inf:
        return [max(map(abs, site)) for site in coords]
    if float(q).is_integer():
        return [sum(abs(c) ** int(q) for c in site) for site in coords]
    top = max(abs(c) for site in coords for c in site)
    with mpmath.workdps(60):
        powers = [mpmath.mpf(c) ** q for c in range(top + 1)]
        return [mpmath.fsum(powers[abs(c)] for c in site) for site in coords]


@pytest.mark.parametrize("dim, r", [(2, 50), (3, 8)])
@pytest.mark.parametrize("q", [1, 1.5, 2, 3, 10.5, 40, math.inf])
def test_nb_steps_raise_exact_power_sums_one_shell_out(q, dim, r):
    # the allowed steps are those that raise ||v||_q^q in exact arithmetic
    # (at q = 10.5, r = 50 the float sums of some neighbours far out tie),
    # and each goes from an l1 shell t to t + 1, as the shell tables say
    box = _Box.of(nb_config(dimension=dim, metric=Metric(q), box_radius=r))
    shape = box.norms.shape
    coords = np.indices(shape).reshape(dim, -1).T - r
    keys = np.empty(len(coords), dtype=object)
    keys[:] = exact_power_sums(q, coords.tolist())
    keys = keys.reshape(shape)
    shell = np.abs(coords).sum(axis=1)
    for step, allowed in zip(lattice._steps(dim), box.further):
        ku, kv = lattice._edge_views(keys, step)
        assert np.array_equal(allowed, (kv > ku).astype(bool))
        su, sv = lattice._edge_views(shell.reshape(shape), step)
        assert (sv[allowed] == su[allowed] + 1).all()

    assert sorted(box.order.tolist()) == list(range(len(coords)))
    for t, (a, b) in enumerate(zip(box.shells, box.shells[1:])):
        assert (shell[box.order[a:b]] == t).all()
    assert box.shells[-1] == len(coords)
    for tails, step, allowed in zip(box.into, lattice._steps(dim), box.further):
        entered = tails != box.order
        assert np.count_nonzero(entered) == np.count_nonzero(allowed)
        heads = box.order[entered]
        assert (shell[tails[entered]] == shell[heads] - 1).all()
        assert (coords[heads] - coords[tails[entered]] == step).all()


@pytest.mark.parametrize("mode", ["nb", "all"])
@pytest.mark.parametrize("q", [1, 1.5, 40, math.inf])
def test_box_takes_one_power_sum_per_site(monkeypatch, q, mode):
    # the distances take each site's power sum once; "nb" steps take none
    sizes = []
    power_key_array = Metric.power_key_array

    def counting(self, coords):
        sizes.append(len(coords))
        return power_key_array(self, coords)

    monkeypatch.setattr(Metric, "power_key_array", counting)
    box = _Box.of(nb_config(metric=Metric(q), mode=mode, box_radius=100))
    assert sum(sizes) == box.norms.size
    assert "coords" not in {f.name for f in dataclasses.fields(_Box)}
    assert "__post_init__" not in vars(_Box)


@pytest.mark.parametrize("mode", ["nb", "all"])
@pytest.mark.parametrize("q", [1, 1.5, 2, 3, 40, math.inf])
def test_box_build_stays_under_its_byte_guard(q, mode):
    # tracemalloc peak of building a 2-D box of radius 150, per site, against
    # the guard's bytes per box site; the power sums go in bounded blocks
    cfg = nb_config(metric=Metric(q), mode=mode, box_radius=150)
    tracemalloc.start()
    try:
        box = _Box.of(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / box.norms.size <= lattice._BYTES_PER_SITE


def crossing_results(cfg, grid, replicas):
    """Sweep rows and per-drift crossing estimates, and the replica count
    of every ``_levels`` call."""
    calls = []
    levels = lattice._levels

    def recording(box, u, thetas):
        calls.append(len(u))
        return levels(box, u, thetas)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_levels", recording)
        rows = sweep_theta(cfg, grid, replicas)
        ests = [crossing_probability(cfg, th, replicas) for th in grid]
    return rows, [(e.crossings, e.estimate, e.stderr) for e in ests], calls


@pytest.mark.parametrize("mode", ["nb", "all"])
@pytest.mark.parametrize("q", [1, math.inf])
@pytest.mark.parametrize("dim, r", [(2, 8), (3, 3)])
def test_crossings_independent_of_replica_batches(monkeypatch, mode, q, dim, r):
    cfg = LatticeConfig(dimension=dim, metric=Metric(q), mode=mode, box_radius=r, seed=11)
    grid = [0.5, 0.1, 0.2, 0.3, 0.4, 0.6]
    sites = (2 * r + 1) ** dim
    results = {}
    for batch, budget in [
        (1, 1),
        (3, 3 * sites * lattice._BYTES_PER_REPLICA_SITE + 5),
        (7, lattice.BATCH_BYTES),
    ]:
        monkeypatch.setattr(lattice, "BATCH_BYTES", budget)
        rows, ests, calls = crossing_results(cfg, grid, 7)
        sizes = [batch] * (7 // batch) + [7 % batch] * (7 % batch > 0)
        # sweep_theta: one call per replica batch in "nb" mode, one per
        # batch and drift in mode "all"; then one per batch for each drift
        sweep = sizes if mode == "nb" else [n for n in sizes for _ in grid]
        assert calls == sweep + sizes * len(grid)
        results[batch] = rows, ests
    assert results[1] == results[3] == results[7]
    assert any(0 < crossings < 7 for crossings, _, _ in results[7][1])


def test_symmetry_under_reflection():
    # reachability law is invariant under coordinate permutation + sign flip
    base_cfg = nb_config(box_radius=40)
    n = 80
    plain, reflected = 0, 0
    for i in range(n):
        field = LabelField(1000 + i)
        plain += accessible_set(base_cfg, 0.38, field=field).frontier_reached
        tfield = TransformedField(field, lambda c: np.stack([-c[:, 1], c[:, 0]], axis=-1))
        reflected += accessible_set(base_cfg, 0.38, field=tfield).frontier_reached
    p1, p2 = plain / n, reflected / n
    band = 3 * math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / n + 1e-12)
    assert abs(p1 - p2) <= band + 1e-9


# --- first-moment bound -----------------------------------------------------------


def test_lattice_bound_values():
    # log path counts: out_degree^h non-backtracking paths in one orthant,
    # and Delta (Delta-1)^(h-1) self-avoiding walks at maximum degree Delta
    def nb(h):
        return h * math.log(2)

    def walks(h):
        return math.log(4) + (h - 1) * math.log(3)

    assert first_moment_bound(walks(1), 1, 0.0) == pytest.approx(2.0)
    # at the boundary drift 1/(out_degree * e) the decay is only ~1/sqrt(h):
    # the h=200 value is ~1.13 and the sequence creeps down toward zero
    theta = 1.0 / (2 * math.e)
    assert first_moment_bound(nb(200), 200, theta) == pytest.approx(1.1321933, rel=1e-6)
    nb_vals = [first_moment_bound(nb(h), h, theta) for h in (200, 800, 3200)]
    assert all(a > b for a, b in zip(nb_vals, nb_vals[1:]))
    # strictly inside the subcritical region the decay is exponential
    assert first_moment_bound(nb(200), 200, 0.8 * theta) < 1e-6
    theta = 1.0 / (3 * math.e)
    vals = [first_moment_bound(walks(h), h, theta) for h in (100, 400, 1600, 6400)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert first_moment_bound(walks(400), 400, 0.8 * theta) < 1e-6


# --- oriented coupling -------------------------------------------------------------


def reach_oracle(open_):
    """Scalar reference for oriented reachability from [0, 0]: steps
    (i, j) -> (i+1, j) and (i, j) -> (i, j+1) between open sites."""
    ni, nj = open_.shape
    reach = np.zeros_like(open_, dtype=bool)
    for j in range(nj):
        for i in range(ni):
            if not open_[i, j]:
                continue
            if i == 0 and j == 0:
                reach[i, j] = True
            else:
                reach[i, j] = (i > 0 and reach[i - 1, j]) or (j > 0 and reach[i, j - 1])
    return reach


@given(
    arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))),
)
def test_oriented_reach_matches_oracle(open_):
    assert np.array_equal(oriented_reach(open_), reach_oracle(open_))


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (40, 25)])
@pytest.mark.parametrize("density", [0.3, 0.6, 0.9])
def test_oriented_reach_matches_oracle_thin_and_dense(shape, density):
    rng = np.random.default_rng(11)
    for _ in range(5):
        open_ = rng.random(shape) < density
        assert np.array_equal(oriented_reach(open_), reach_oracle(open_))


def test_oriented_coupling_cluster_matches_oracle():
    for theta, seed in ((0.5, 0), (0.55, 4), (0.7, 9)):
        rep = oriented_coupling_check(theta, seed, 40)
        field = LabelField(seed)
        grid = np.stack(np.meshgrid(np.arange(41), np.arange(41), indexing="ij"), axis=-1)
        open_ = field.uniform_array(grid.reshape(-1, 2)).reshape(41, 41) < theta
        assert rep.open_sites == int(open_.sum())
        assert rep.cluster_size == int(reach_oracle(open_).sum())


def test_oriented_coupling_holds_on_samples():
    for seed in range(5):
        rep = oriented_coupling_check(0.5, seed, 200)
        assert rep.ok and rep.violation is None


def test_oriented_coupling_validates_inputs():
    for radius in (0, -3):
        with pytest.raises(ValueError, match="box_radius"):
            oriented_coupling_check(0.5, 1, radius)
    with pytest.raises(ResourceGuardError):
        oriented_coupling_check(0.5, 1, 6000)
    # the guard counts the (r + 2)^2 sites the check hashes: 5793^2 * 128 > 2^32
    with pytest.raises(ResourceGuardError, match="radius 5791"):
        oriented_coupling_check(0.5, 1, 5791)


def test_oriented_coupling_trivial_drifts():
    rep0 = oriented_coupling_check(0.0, 3, 50)
    assert rep0.ok and rep0.open_sites == 0 and rep0.cluster_size == 0
    rep1 = oriented_coupling_check(1.0, 3, 50)
    assert rep1.ok and rep1.open_sites == 51 * 51


# --- export ---------------------------------------------------------------------


def test_export_origin_only_round_trip():
    aset = accessible_set(nb_config(box_radius=5, seed=1000), 0.0)
    if len(aset) > 1:  # keep only the origin for the minimal-record case
        aset.labels = {(0, 0): aset.labels[(0, 0)]}
    for fmt in ("csv", "json"):
        parsed = parse_accessible(export_accessible(aset, fmt), fmt)
        assert set(parsed) == {(0, 0)}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_round_trip_exact(fmt):
    aset = accessible_set(nb_config(box_radius=15, seed=4, metric=Metric(2)), 0.5)
    payload = export_accessible(aset, fmt)
    parsed = parse_accessible(payload, fmt)
    assert set(parsed) == set(aset.labels)
    assert aset.theta == 0.5
    if fmt == "json":
        assert json.loads(payload)["theta"] == 0.5
    for site, (label, min_theta) in parsed.items():
        assert label == aset.labels[site]
        assert min_theta is None


def test_min_theta_sweep_nested_sets():
    # larger drift contains the smaller on a shared field (quartic metric)
    cfg = LatticeConfig(dimension=2, metric=Metric(4), mode="nb", box_radius=30, seed=9)
    annotated = sweep_accessible_min_theta(cfg, [0.53, 0.62])
    small = accessible_set(cfg, 0.53)
    assert set(small.labels) <= set(annotated.labels)
    for site in small.labels:
        assert annotated.min_theta[site] == 0.53
    parsed = parse_accessible(export_accessible(annotated, "csv"), "csv")
    assert all(parsed[s][1] in (0.53, 0.62) for s in parsed)


@pytest.mark.parametrize(
    "q, dim, radius, grid",
    [
        (1, 2, 20, [0.3, 0.36, 0.42, 0.48]),
        (2, 2, 25, [0.62, 0.45, 0.5, 0.45, 0.56]),
        (1.5, 2, 15, [0.0, 0.4, 0.6, 1.0]),
        (math.inf, 2, 15, [0.3, 0.5, 0.7, 0.9]),
        (40, 2, 10, [0.2, 0.5, 0.8]),
        (1, 3, 6, [0.1, 0.25, 0.4]),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_min_theta_export_equals_per_theta_loop(q, dim, radius, grid, fmt):
    for mode in ("nb", "all"):
        cfg = LatticeConfig(dimension=dim, metric=Metric(q), mode=mode, box_radius=radius,
                            seed=17)
        new = sweep_accessible_min_theta(cfg, grid)
        old = min_theta_oracle(cfg, grid)
        assert export_accessible(new, fmt) == export_accessible(old, fmt)
        assert_witnesses(new)


def test_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(dimension=0, metric=Metric(1))
    with pytest.raises(ValueError):
        nb_config(mode="diagonal")
    with pytest.raises(ValueError):
        nb_config(box_radius=0)
