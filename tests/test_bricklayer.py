import math
from fractions import Fraction

import numpy as np
import pytest

from rmfperc import (
    BrickConfig,
    BrickId,
    LabelField,
    compute_A,
    distance_gap_check,
    goodness_probability,
    open_implies_increasing_check,
    simulate_bricklayer,
)
from rmfperc import bricklayer
from rmfperc.bricklayer import _brick_ids_up_to, _brick_sites
from conftest import FixedField
from oracles import brick_build, brick_good, edge_open


def enumerate_brick(x, y, n):
    """Independent oracle: build the vertex/edge sets straight from the
    set-builder definitions."""
    c = int(x * n)
    vertices = {
        (a, b)
        for a in range(c, c + n + 1)
        for b in (2 * y, 2 * y + 1, 2 * y + 2)
    }
    hor = {
        ((a, b), (a + 1, b))
        for a, b in vertices
        if (a + 1, b) in vertices and b in (2 * y, 2 * y + 1)
    }
    lver = {
        ((a, 2 * y), (a, 2 * y + 1))
        for a in range(c + n // 4, c + n // 2)
    }
    rver = {
        ((a, 2 * y + 1), (a, 2 * y + 2))
        for a in range(c + n // 2, c + 3 * n // 4)
    }
    return vertices, hor, lver, rver


# --- geometry -------------------------------------------------------------------


def test_brick_id_membership():
    BrickId(Fraction(3), 0)
    BrickId(Fraction(7, 2), 1)
    BrickId(Fraction(5), 4)
    with pytest.raises(ValueError):
        BrickId(Fraction(1, 2), 0)  # x - y/2 not an integer
    with pytest.raises(ValueError):
        BrickId(Fraction(1), 4)  # x - y/2 negative
    with pytest.raises(ValueError):
        BrickId(Fraction(1), -1)


def test_brick_id_grid_coordinates():
    b = BrickId.from_grid(3, 5)
    assert b.x == Fraction(11, 2) and b.y == 5 and b.k == 3


def test_smallest_brick_counts():
    brick = brick_build(BrickId(Fraction(0), 0), BrickConfig(4, math.inf))
    assert len(brick.vertices) == 15
    assert len(brick.hor) == 8
    assert len(brick.lver) == 1
    assert len(brick.rver) == 1


@pytest.mark.parametrize("x,y,n", [(0, 0, 4), (Fraction(1, 2), 1, 8), (3, 2, 16), (Fraction(5, 2), 3, 8)])
def test_brick_sets_match_enumeration_oracle(x, y, n):
    brick = brick_build(BrickId(Fraction(x), y), BrickConfig(n, math.inf))
    vertices, hor, lver, rver = enumerate_brick(Fraction(x), y, n)
    assert brick.vertices == vertices
    assert set(brick.hor) == hor
    assert set(brick.lver) == lver
    assert set(brick.rver) == rver
    assert len(brick.vertices) == 3 * (n + 1)
    assert len(brick.hor) == 2 * n
    assert len(brick.lver) == n // 4
    assert len(brick.rver) == n // 4
    sites = _brick_sites([brick.id.k], [y], n)
    assert sites.shape == (1, 3, n + 1, 2)
    assert set(map(tuple, sites.reshape(-1, 2).tolist())) == brick.vertices


def test_brick_sites_reject_half_columns():
    with pytest.raises(ValueError, match="integral"):
        _brick_sites([0, 0], [0, 1], 5)


def test_brick_build_half_offset_example():
    brick = brick_build(BrickId(Fraction(1, 2), 1), BrickConfig(8, math.inf))
    cols = sorted({a for a, _ in brick.vertices})
    rows = sorted({b for _, b in brick.vertices})
    assert cols[0] == 4 and cols[-1] == 12
    assert rows == [2, 3, 4]


def test_bricks_share_no_edges():
    # exhaustive pairwise check over a 5x5 grid patch of the brick lattice
    cfg = BrickConfig(8, math.inf)
    ids = [BrickId.from_grid(k, y) for k in range(5) for y in range(5)]
    edge_sets = [set(brick_build(i, cfg).edges) for i in ids]
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            assert not (edge_sets[i] & edge_sets[j])


def test_vertical_edges_never_adjacent_within_brick():
    # independence precondition: no uniform feeds two vertical edges
    brick = brick_build(BrickId(Fraction(2), 2), BrickConfig(16, math.inf))
    vertical = brick.lver + brick.rver
    seen = set()
    for e in vertical:
        for v in e:
            assert v not in seen
            seen.add(v)


def test_brick_build_requires_divisibility():
    with pytest.raises(ValueError):
        brick_build(BrickId(Fraction(0), 0), BrickConfig(10, math.inf))


# --- edge openness ----------------------------------------------------------------


def test_vertical_edge_probability_half():
    field = LabelField(12)
    cfg = BrickConfig(64, math.inf)
    n = 100_000
    a = np.arange(n)
    u_bot = field.uniform_array(np.stack([a, np.zeros_like(a)], axis=-1))
    u_top = field.uniform_array(np.stack([a, np.ones_like(a)], axis=-1))
    p = float((u_bot < u_top).mean())
    assert abs(p - 0.5) < 3 * math.sqrt(0.25 / n)
    # spot check against edge_open on a few columns
    for col in range(50):
        assert edge_open(((col, 0), (col, 1)), field, cfg) == (
            field.uniform_at((col, 0)) < field.uniform_at((col, 1))
        )


def test_horizontal_window_q2():
    cfg = BrickConfig(4096, 2.0)
    w = 3.0 * (5.0 / 4096) ** 2
    field = FixedField({(0, 0): w * 1.01, (5, 0): w * 0.99, (9, 0): 1.0 - w * 0.99})
    assert edge_open(((0, 0), (1, 0)), field, cfg)
    assert not edge_open(((5, 0), (6, 0)), field, cfg)
    assert not edge_open(((9, 0), (10, 0)), field, cfg)
    # empirical openness close to 1 - 6*(5/n)^2
    lf = LabelField(3)
    n = 100_000
    u = lf.uniform_array(np.arange(n).reshape(-1, 1))
    p_hat = float(((u > w) & (u < 1 - w)).mean())
    p = 1.0 - 2 * w
    assert abs(p_hat - p) <= 3 * math.sqrt(p * (1 - p) / n)
    assert p == pytest.approx(0.99999106, abs=5e-9)


def test_horizontal_window_qinf():
    cfg = BrickConfig(10, math.inf)
    assert cfg.window_margin == pytest.approx(0.01)
    field = FixedField(default=0.5)
    assert edge_open(((3, 1), (4, 1)), field, cfg)
    field_low = FixedField(default=0.005)
    assert not edge_open(((3, 1), (4, 1)), field_low, cfg)


def test_edge_open_rejects_non_edges():
    with pytest.raises(ValueError):
        edge_open(((0, 0), (2, 0)), LabelField(1), BrickConfig(8, math.inf))


# --- goodness ----------------------------------------------------------------------


def test_brick_good_constructed_fields():
    cfg = BrickConfig(8, math.inf)
    bid = BrickId(Fraction(1), 0)
    # monotone in the row index: all horizontal open, all vertical open
    good_field = FixedField(rule=lambda s: 0.2 + 0.25 * s[1])
    assert brick_good(bid, good_field, cfg)
    # one horizontal uniform outside the window kills goodness
    bad = FixedField(rule=lambda s: 0.2 + 0.25 * s[1])
    bad.values[(10, 0)] = 1.0 - 0.5 * cfg.window_margin
    assert not brick_good(bid, bad, cfg)
    # closed vertical quarters kill goodness too
    no_lver = FixedField(rule=lambda s: 0.5 - 0.1 * (s[1] % 3))
    assert not brick_good(bid, no_lver, cfg)


def test_goodness_probability_values():
    assert goodness_probability(BrickConfig(64, math.inf)) == pytest.approx(
        (1 - 2 / 4096) ** 128 * (1 - 2**-16) ** 2, rel=1e-12
    )
    assert goodness_probability(BrickConfig(64, math.inf)) == pytest.approx(0.9394, abs=1e-4)
    assert goodness_probability(BrickConfig(4096, 2.0)) == pytest.approx(0.9294, abs=1e-4)
    assert goodness_probability(BrickConfig(2**16, 2.0)) > 0.995


def test_goodness_probability_empty_window():
    with pytest.raises(ValueError):
        goodness_probability(BrickConfig(12, 2.0))


def test_empirical_goodness_matches_closed_form():
    cfg = BrickConfig(64, math.inf)
    p = goodness_probability(cfg)
    base = LabelField(200)
    n = 4000
    good = 0
    ids = _brick_ids_up_to(0)  # just (0,0); independence comes from fresh fields
    for i in range(n):
        field = LabelField(base.key_of((0x67, i)))
        good += brick_good(ids[0], field, cfg)
    p_hat = good / n
    assert abs(p_hat - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_empirical_goodness_wide_euclidean_brick():
    # n=4096, q=2 at 100 replicas
    cfg = BrickConfig(4096, 2.0)
    p = goodness_probability(cfg)
    base = LabelField(201)
    n = 100
    origin = _brick_ids_up_to(0)[0]
    good = sum(
        brick_good(origin, LabelField(base.key_of((0x68, i))), cfg) for i in range(n)
    )
    assert abs(good / n - p) <= 3 * math.sqrt(p * (1 - p) / n)


# --- distance threshold and gap -----------------------------------------------------


def test_compute_A_known_values():
    assert compute_A(BrickConfig(10, 2.0)) == 2
    assert compute_A(BrickConfig(16, 2.0)) == 5
    assert compute_A(BrickConfig(64, 2.0)) == 81


def test_compute_A_matches_brute_force_oracle():
    for n, q in [(10, 2.0), (16, 2.0), (12, 3.0), (32, 1.5)]:
        cfg = BrickConfig(n, q)
        a0 = compute_A(cfg)
        eps = (5.0 / n) ** q

        def holds(a):
            return (1 + q / a) ** (1 / q) >= 1 + (1 - eps) / a

        assert holds(a0) and holds(a0 + 1)
        if a0 > 1:
            assert not holds(a0 - 1)
        assert all(holds(a) for a in range(a0, 5000))


def test_compute_A_grows_with_n():
    # the threshold scales like (q-1) n^q / (2 * 5^q) for finite q
    values = [compute_A(BrickConfig(n, 2.0)) for n in (16, 32, 64, 128)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(128**2 / 50.0, rel=0.1)


def test_compute_A_rejects_invalid():
    with pytest.raises(ValueError):
        compute_A(BrickConfig(10, math.inf))
    with pytest.raises(ValueError):
        compute_A(BrickConfig(4, 2.0))


def test_distance_gap_axis_and_sample_values():
    m2 = BrickConfig(10, 2.0)
    # on-axis step increases the distance by exactly 1
    assert math.dist((0, 0), (5, 0)) + 1 == math.dist((0, 0), (6, 0))
    # (4,3) illustration: sqrt(34) - 5 > 1 - 2 * 25/100
    gap = math.hypot(5, 3) - math.hypot(4, 3)
    assert gap == pytest.approx(0.83095, abs=1e-5)
    assert gap > 1 - 2 * (5.0 / m2.n) ** m2.q


def test_distance_gap_exhaustive_scan():
    cfg = BrickConfig(16, 2.0)
    ids = [b for b in _brick_ids_up_to(6) if b.x >= 2]
    report = distance_gap_check(cfg, ids)
    assert report.ok
    assert report.violations == ()
    assert report.min_gap > report.bound
    assert report.bricks_checked == len(ids)


def distance_gap_oracle(config, brick_range):
    """The scalar double loop: (sites, min gap, violations) from Metric.norm."""
    metric = config.metric
    if config.q == math.inf:
        a_min, bound = 0, 1.0 - 2.0 * config.n**-2.0
    else:
        a_min, bound = compute_A(config), 1.0 - 2.0 * (5.0 / config.n) ** config.q
    sites, min_gap, violations = 0, math.inf, []
    for brick_id in brick_range:
        c0 = int(brick_id.x * config.n)
        r0 = 2 * brick_id.y
        for a in range(max(c0, a_min), c0 + config.n + 1):
            for b in (r0, r0 + 1, r0 + 2):
                gap = metric.norm((a + 1, b)) - metric.norm((a, b))
                sites += 1
                min_gap = min(min_gap, gap)
                if not gap > bound:
                    violations.append((a, b, gap))
    return sites, min_gap, tuple(violations)


@pytest.mark.parametrize(
    "n, q, x_max",
    [(16, 2.0, 6), (64, 2.0, 4), (64, 3.0, 4), (32, 1.5, 4), (8, math.inf, 4), (4, math.inf, 6),
     (16, 2.0, 1.5), (128, 2.0, 4), (2, math.inf, 3)],
)
def test_distance_gap_equals_scalar_loop(n, q, x_max):
    cfg = BrickConfig(n, q)
    ids = [b for b in _brick_ids_up_to(x_max) if b.x >= 2]
    if not ids:  # x_max < 2: a check of no brick would pass vacuously
        with pytest.raises(ValueError, match="no brick"):
            distance_gap_check(cfg, ids)
        return
    sites, min_gap, violations = distance_gap_oracle(cfg, ids)
    if not sites:  # A_3(64) = 2096 lies past the last column, 320: no site to check
        with pytest.raises(ValueError, match="beyond A_q"):
            distance_gap_check(cfg, ids)
        return
    report = distance_gap_check(cfg, ids)
    assert (report.sites_checked, report.min_gap, report.violations) == (
        sites, min_gap, violations
    )
    assert report.ok == (not violations)
    if n == 4:  # bricks reach above the diagonal, where a right step keeps the max norm
        assert len(violations) == 27
    if n == 128:  # A_2(128) = 327 cuts through the bricks at x = 2
        assert 0 < sites < 3 * (n + 1) * len(ids)


def test_distance_gap_rejects_near_origin_bricks():
    cfg = BrickConfig(16, 2.0)
    with pytest.raises(ValueError):
        distance_gap_check(cfg, [BrickId(Fraction(1), 0)])


def test_distance_gap_max_norm():
    # below the diagonal a right step moves the max norm by exactly 1
    cfg = BrickConfig(8, math.inf)
    ids = [b for b in _brick_ids_up_to(4) if b.x >= 2]
    report = distance_gap_check(cfg, ids)
    assert report.ok
    assert report.min_gap == 1.0


# --- open-implies-increasing ---------------------------------------------------------


def test_open_implies_increasing_qinf():
    rep = open_implies_increasing_check(0.995, BrickConfig(10, math.inf), 20, seed=5)
    assert rep.ok
    assert rep.horizontal_checked > 0 and rep.vertical_checked > 0


def test_open_implies_increasing_q2():
    rep = open_implies_increasing_check(0.9995, BrickConfig(64, 2.0), 20, seed=5)
    assert rep.ok
    assert rep.threshold == 81


def test_open_implies_increasing_theta_range():
    with pytest.raises(ValueError):
        open_implies_increasing_check(0.5, BrickConfig(10, math.inf), 5)
    with pytest.raises(ValueError):
        open_implies_increasing_check(0.9, BrickConfig(64, 2.0), 5)


@pytest.mark.parametrize("cfg, theta", [(BrickConfig(10, math.inf), 0.995),
                                        (BrickConfig(64, 2.0), 0.9995)])
def test_open_implies_increasing_rejects_vacuous_checks(cfg, theta):
    for samples in (0, -2):
        with pytest.raises(ValueError, match="samples"):
            open_implies_increasing_check(theta, cfg, samples)
    with pytest.raises(ValueError, match="no brick"):
        open_implies_increasing_check(theta, cfg, 5, x_max=1.5)


def implication_oracle(theta, config, samples, seed, x_max):
    """The per-brick, per-row loop with scalar ``uniform_at`` and
    ``Metric.norm``: (horizontal checked, vertical checked, violations)."""
    n, w, metric = config.n, config.window_margin, config.metric
    a_min = 0 if config.q == math.inf else compute_A(config)
    ids = [b for b in _brick_ids_up_to(x_max) if b.x >= 2]
    hor = ver = 0
    violations = []
    base = LabelField(seed)
    for s in range(samples):
        field = LabelField(base.key_of((0x6272, s)))

        def label(site):
            return field.uniform_at(site) + theta * metric.norm(site)

        for brick_id in ids:
            c0, r0 = int(brick_id.x * n), 2 * brick_id.y
            for b in (r0, r0 + 1):
                bad_hor, bad_ver = [], []
                for a in range(c0, c0 + n):
                    if a >= a_min and w < field.uniform_at((a, b)) < 1.0 - w:
                        hor += 1
                        if not label((a + 1, b)) > label((a, b)):
                            bad_hor.append(a)
                for a in range(c0, c0 + n + 1):
                    if field.uniform_at((a, b)) < field.uniform_at((a, b + 1)):
                        ver += 1
                        if not label((a, b + 1)) > label((a, b)):
                            bad_ver.append(a)
                violations += [(kind, bad[0], b, s) for kind, bad in
                               (("hor", bad_hor), ("ver", bad_ver)) if bad]
    return hor, ver, tuple(violations)


@pytest.mark.parametrize(
    "n, q, theta, x_max",
    [(4, math.inf, 0.97, 6), (16, math.inf, 0.999, 6), (64, 2.0, 0.9995, 4),
     (128, 1.5, 0.9999, 4), (128, 2.0, 0.9999, 4)],
)
def test_open_implies_increasing_equals_scalar_loop(n, q, theta, x_max):
    cfg = BrickConfig(n, q)
    rep = open_implies_increasing_check(theta, cfg, 3, seed=7, x_max=x_max)
    hor, ver, violations = implication_oracle(theta, cfg, 3, 7, x_max)
    assert (rep.horizontal_checked, rep.vertical_checked, rep.violations) == (hor, ver, violations)
    assert rep.ok == (not violations)
    if n == 4:  # a right step above the diagonal keeps the max norm
        assert violations


def test_open_implies_increasing_rejects_range_left_of_threshold():
    # A_3(64) = 2096, beyond the last column (320) of the bricks with x <= 4
    with pytest.raises(ValueError, match="beyond A_q"):
        open_implies_increasing_check(0.9999, BrickConfig(64, 3.0), 5, x_max=4)


# --- percolation simulation -----------------------------------------------------------


def test_simulate_forced_good_field(monkeypatch):
    cfg = BrickConfig(8, math.inf)
    depth = 6
    bmax = 2 * (2 * depth) + 3

    class MonotoneRows:
        def __init__(self, seed):
            self.seed = seed

        def key_of(self, obj):
            return -1

        def uniform_at(self, site):
            return 0.05 + 0.9 * (site[1] + 0.5) / bmax

        def uniform_array(self, coords):
            coords = np.asarray(coords)
            return 0.05 + 0.9 * (coords[..., 1] + 0.5) / bmax

    monkeypatch.setattr(bricklayer, "LabelField", MonotoneRows)
    res = simulate_bricklayer(cfg, depth, 3, seed=1)
    assert res.frequency == 1.0
    assert res.good_fraction == 1.0
    assert res.witness_verified == 3


def test_simulate_bricklayer_statistics():
    cfg = BrickConfig(64, math.inf)
    res = simulate_bricklayer(cfg, depth=20, replicas=60, seed=3, keep_records=True)
    p = goodness_probability(cfg)
    assert abs(res.good_fraction - p) <= 4 * math.sqrt(p * (1 - p) / (60 * 400))
    assert res.frequency > 0.7
    assert res.witness_verified == res.percolating
    rec = res.replica_records[0]
    assert {"replica", "percolates", "good_rle", "witness"} <= set(rec)


def test_simulate_frequency_nondecreasing_in_n():
    freqs = []
    errs = []
    for n in (16, 32, 64):
        res = simulate_bricklayer(BrickConfig(n, math.inf), depth=30, replicas=150, seed=9)
        freqs.append(res.frequency)
        errs.append(res.stderr)
    for i in range(len(freqs) - 1):
        band = 3 * math.sqrt(errs[i] ** 2 + errs[i + 1] ** 2)
        assert freqs[i + 1] >= freqs[i] - band


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate_bricklayer(BrickConfig(10, math.inf), 5, 5)
    with pytest.raises(ValueError):
        simulate_bricklayer(BrickConfig(8, math.inf), 0, 5)


def test_goodness_grid_matches_scalar_op():
    # the simulator's vectorised goodness agrees with brick_good per brick,
    # and its recorded vertical columns are the first open ones
    from rmfperc.bricklayer import _goodness_grid

    cfg = BrickConfig(8, math.inf)
    field = LabelField(61)
    depth = 4
    grid, lcol, rcol = _goodness_grid(field, cfg, depth)
    for k in range(depth + 1):
        for y in range(2 * depth + 1):
            if k + y / 2 > depth:
                continue
            brick_id = BrickId.from_grid(k, y)
            assert grid[k, y] == brick_good(brick_id, field, cfg)
            if grid[k, y]:
                brick = brick_build(brick_id, cfg)
                first_l = next(e for e in brick.lver if edge_open(e, field, cfg))
                first_r = next(e for e in brick.rver if edge_open(e, field, cfg))
                assert (lcol[k, y], rcol[k, y]) == (first_l[0][0], first_r[0][0])


def test_witness_path_edges_open_under_scalar_rule():
    from rmfperc.bricklayer import (
        _goodness_grid,
        _verify_open_path,
        _witness_brick_path,
        _witness_open_path,
    )
    from rmfperc.lattice import oriented_reach

    cfg = BrickConfig(16, math.inf)
    depth = 6
    checked = 0
    for seed in range(6):
        field = LabelField(seed)
        good, lcol, rcol = _goodness_grid(field, cfg, depth)
        reach = oriented_reach(good)
        hits = [(k, y) for k, y in np.argwhere(reach) if k + y / 2 >= depth]
        if not hits:
            continue
        bricks = _witness_brick_path(reach, hits[0])
        path = [tuple(int(c) for c in site) for site in _witness_open_path(bricks, cfg, lcol, rcol)]
        _verify_open_path(path, cfg, field)
        assert path[0] == (0, 0)
        assert all(edge_open(e, field, cfg) for e in zip(path, path[1:]))
        checked += 1
    assert checked > 0


def test_verify_open_path_rejects_closed_edge_and_non_edge():
    from rmfperc.bricklayer import _verify_open_path

    cfg = BrickConfig(8, math.inf)  # window (1/64, 63/64)
    field = FixedField({(0, 0): 0.5, (1, 0): 0.4, (1, 1): 0.9, (2, 1): 0.5})
    _verify_open_path([(0, 0), (1, 0), (1, 1), (2, 1)], cfg, field)
    closed_vertical = FixedField({(0, 0): 0.5, (1, 0): 0.4, (1, 1): 0.3})
    with pytest.raises(AssertionError):
        _verify_open_path([(0, 0), (1, 0), (1, 1)], cfg, closed_vertical)
    closed_horizontal = FixedField({(0, 0): 0.5, (1, 0): 0.001, (2, 0): 0.5})
    with pytest.raises(AssertionError):
        _verify_open_path([(0, 0), (1, 0), (2, 0)], cfg, closed_horizontal)
    for bad_step in ([(0, 0), (2, 0)], [(1, 0), (0, 0)], [(0, 0), (1, 1)], [(0, 1), (0, 0)]):
        with pytest.raises(ValueError):
            _verify_open_path(bad_step, cfg, field)
