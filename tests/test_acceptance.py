"""Release acceptance suite: one test per criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import rmfperc as rp
from oracles import BrickId, brick_good, eigen_char_poly


@contextmanager
def criterion(num, desc, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL - {desc}")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit_s
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s "
          f"/ limit {limit_s}s] - {desc}")
    assert ok, f"runtime {elapsed:.1f}s exceeded the {limit_s}s budget"


pytestmark = pytest.mark.acceptance


def test_01_critical_closed_form():
    with criterion(1, "m_c matches the quadratic closed form on (1/2,1)", 1.0):
        for theta in np.linspace(0.505, 0.995, 20):
            th = float(theta)
            expected = (1.0 - math.sqrt(1.0 - 2.0 * (1.0 - th) ** 2)) / (1.0 - th) ** 2
            assert abs(rp.m_critical(th) - expected) < 1e-9


def test_02_endpoint_and_asymptote():
    with criterion(2, "m_c(1) = 1 and m*theta_c(m) -> 1/e", 10.0):
        assert abs(rp.m_critical(1.0) - 1.0) < 1e-12
        assert abs(50.0 * rp.theta_critical(50.0) - 1.0 / math.e) < 0.05


def test_03_bracket_consistency():
    with criterion(3, "theta_c(m) inside [1/(em), 1-sqrt(1-1/m)]", 10.0):
        for m in np.linspace(1.02, 50.0, 50):
            m = float(m)
            theta = rp.theta_critical(m)
            assert 1.0 / (math.e * m) <= theta <= 1.0 - math.sqrt(1.0 - 1.0 / m)


def test_04_eigen_consistency():
    with criterion(4, "char-poly root, normalisation, and Q identity", 30.0):
        from numpy.polynomial.legendre import leggauss

        xs, ws = leggauss(24)

        def quad_integral(m, theta, lam):
            k = math.floor(1.0 / theta)
            bps = sorted({min(j * theta, 1.0) for j in range(k + 2)} | {1.0})
            total = 0.0
            for a, b in zip(bps, bps[1:]):
                if b > a:
                    mid, half = (a + b) / 2.0, (b - a) / 2.0
                    total += half * float(
                        np.sum(ws * rp.eigenfunction_eval(m, theta, lam, mid + half * xs))
                    )
            return total

        rng = np.random.default_rng(2718)
        for _ in range(30):
            m = float(rng.uniform(0.5, 6.0))
            theta = float(rng.uniform(0.09, 0.98))
            if abs(1.0 / theta - round(1.0 / theta)) < 1e-3:
                theta += 5e-3
            _, roots = eigen_char_poly(m, theta)
            lam = rp.lead_eigenvalue(m, theta)
            assert abs(roots[-1] - lam) < 1e-8
            assert abs((m / lam) * quad_integral(m, theta, lam) - 1.0) < 1e-9
            lhs = m * quad_integral(m, theta, 1.0) - 1.0
            assert abs(lhs - (-rp.q_theta_eval(theta, m))) < 1e-8


def test_05_path_bound_validity():
    with criterion(5, "Monte Carlo increasing-path probability below bound", 120.0):
        rng = np.random.default_rng(1000003)
        n = 1_000_000
        for theta in (0.1, 0.3, 0.5):
            for h in (3, 6, 10):
                u = rng.random((n, h + 1)) + theta * np.arange(h + 1)
                p_hat = float(np.all(np.diff(u, axis=1) > 0, axis=1).mean())
                bound = rp.path_increase_upper_bound(h, theta)
                sigma = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n)
                assert p_hat <= bound + 3 * sigma
        for h in (3, 6, 10):
            u = rng.random((n, h + 1))
            p_hat = float(np.all(np.diff(u, axis=1) > 0, axis=1).mean())
            p = 1.0 / math.factorial(h + 1)
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(p_hat - p) <= 3 * sigma


def test_06_telescoping_collapse():
    with criterion(6, "exact rational collapse of out-of-order sums", 1.0):
        for theta in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 3)):
            for h in range(1, 13):
                total = sum(
                    math.comb(h, n) * rp.out_of_order_bound(n, h, theta)
                    for n in range(h + 1)
                )
                assert total == rp.path_increase_upper_bound(h, theta)


def test_07_martingale_constancy():
    with criterion(7, "additive martingale constant over 10 generations", 300.0):
        trace = rp.martingale_trace(
            0.3, rp.OffspringDistribution.poisson(3.0),
            generations=10, replicas=100_000, cap=200_000, seed=11,
        )
        for g in range(1, 11):
            band = 3.0 * math.sqrt(trace.stderrs[g] ** 2 + trace.stderrs[0] ** 2)
            assert abs(trace.means[g] - trace.means[0]) < band


def test_08_tree_phase_transition():
    with criterion(8, "binary-tree survival crossing matches theta_c(2)", 600.0):
        grid = np.round(np.arange(0.14, 0.305, 0.01), 3)
        curve = rp.estimate_theta_c_tree(
            rp.OffspringDistribution.deterministic(2),
            grid, horizon_h=50, replicas=2000, cap=20_000, seed=123,
        )
        theta_c = rp.theta_critical(2.0)
        assert curve.crossing is not None
        assert abs(curve.crossing - theta_c) <= 0.02
        assert 0.18 <= curve.crossing <= 0.30


def test_09_lattice_transition():
    with criterion(9, "graph-distance lattice crossing brackets theta_c~0.33", 600.0):
        cfg = rp.LatticeConfig(dimension=2, metric=rp.Metric(1), mode="nb", box_radius=100, seed=20)
        lo = rp.crossing_probability(cfg, 0.25, 500)
        hi = rp.crossing_probability(cfg, 0.45, 500)
        assert lo.estimate < 0.1
        assert hi.estimate > 0.5


def test_10_coupling_implications():
    with criterion(10, "deterministic coupling checks with zero tolerance", 300.0):
        for theta in (0.3, 0.7):
            for seed in range(100):
                assert rp.oriented_coupling_check(theta, seed, 200).ok
        rep_inf = rp.open_implies_increasing_check(
            0.995, rp.BrickConfig(10, math.inf), samples=100, seed=30
        )
        assert rep_inf.ok and rep_inf.violations == ()
        rep_two = rp.open_implies_increasing_check(
            0.9995, rp.BrickConfig(64, 2.0), samples=100, seed=31
        )
        assert rep_two.ok and rep_two.violations == ()
        gap = rp.distance_gap_check(rp.BrickConfig(16, 2.0), x_max=6)
        assert gap.ok and gap.violations == ()


def test_11_brick_statistics():
    with criterion(11, "brick goodness statistics and percolation frequency", 600.0):
        cfg = rp.BrickConfig(64, math.inf)
        p = rp.goodness_probability(cfg)
        base = rp.LabelField(404)
        n = 10_000
        good = 0
        origin = BrickId.from_grid(0, 0)
        for field in base.replicas(0x67, range(n)):
            good += brick_good(origin, field, cfg)
        assert abs(good / n - p) <= 3 * math.sqrt(p * (1 - p) / n)

        res = rp.simulate_bricklayer(cfg, depth=50, replicas=200, seed=0)
        assert res.frequency > 0.9
        assert res.witness_verified == res.percolating
