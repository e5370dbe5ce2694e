import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import brentq as scipy_brentq

import rmfperc.analytic as analytic
from rmfperc import (
    eigenfunction_eval,
    eigenfunction_integral,
    lead_eigenvalue,
    m_critical,
    out_of_order_bound,
    path_increase_upper_bound,
    q_theta_eval,
    theta_bounds,
    theta_critical,
)
from oracles import (
    eigen_char_poly,
    eigenfunction_oracle,
    eigenfunction_sorted_oracle,
    first_moment_bound,
    m_critical_oracle,
    minimal_root_oracle,
    q_theta_eval_oracle,
    theta_critical_oracle,
)


def closed_form_mc(theta):
    """Minimal root of 1 - m + m^2 (1-theta)^2 / 2 for theta in (1/2, 1)."""
    return (1.0 - math.sqrt(1.0 - 2.0 * (1.0 - theta) ** 2)) / (1.0 - theta) ** 2


def gauss_integral(f, a, b, order=24):
    xs, ws = leggauss(order)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return half * float(np.sum(ws * f(mid + half * xs)))


def eigen_integral_quadrature(m, theta, lam):
    """Piecewise Gauss quadrature of the eigenfunction; independent of the
    closed-form series."""
    k = math.floor(1.0 / theta)
    bps = sorted({min(j * theta, 1.0) for j in range(k + 2)} | {1.0})
    total = 0.0
    for a, b in zip(bps, bps[1:]):
        if b > a:
            total += gauss_integral(lambda u: eigenfunction_eval(m, theta, lam, u), a, b)
    return total


# --- critical polynomial ----------------------------------------------------


def test_q_theta_trivial_values():
    assert q_theta_eval(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert q_theta_eval(0.6, 0.0) == 1.0


def test_q_theta_matches_quadratic_form_above_half():
    for theta in np.linspace(0.52, 0.99, 12):
        for x in (0.0, 0.7, 1.3, 2.5):
            expected = 1.0 - x + x**2 * (1.0 - theta) ** 2 / 2.0
            assert q_theta_eval(float(theta), x) == pytest.approx(expected, abs=1e-12)


def test_q_theta_at_quadratic_root():
    root = (1 - math.sqrt(1 - 2 * 0.25**2)) / 0.25**2  # theta = 0.75
    assert root == pytest.approx(1.03337, abs=1e-4)
    assert q_theta_eval(0.75, 1.03337) == pytest.approx(0.0, abs=1e-4)


def test_q_theta_rejects_bad_theta():
    with pytest.raises(ValueError):
        q_theta_eval(0.0, 1.0)
    with pytest.raises(ValueError):
        q_theta_eval(1.2, 1.0)


@pytest.mark.parametrize("theta", [0.5, Fraction(1, 2)])
def test_q_theta_rejects_non_finite_x(theta):
    for x in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(ValueError, match="finite"):
            q_theta_eval(theta, x)


def test_m_critical_endpoint():
    assert m_critical(1.0) == pytest.approx(1.0, abs=1e-12)


def test_m_critical_closed_form_values():
    assert m_critical(0.75) == pytest.approx(1.03337, abs=2e-5)
    assert m_critical(0.6) == pytest.approx(1.09612, abs=2e-5)
    for theta in np.linspace(0.51, 0.99, 15):
        assert m_critical(float(theta)) == pytest.approx(
            closed_form_mc(float(theta)), abs=1e-9
        )


def test_m_critical_strictly_decreasing():
    grid = np.linspace(0.05, 1.0, 100)
    values = [m_critical(float(t)) for t in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_m_critical_drift_floor():
    assert m_critical(0.01) > 1.0
    assert m_critical(1e-3) >= 1.0 / (math.e * 1e-3)
    with pytest.raises(ValueError, match="below supported floor 1e-3"):
        m_critical(9e-4)


@pytest.mark.parametrize(
    "theta", [0.0012, 0.003, 0.002879, 0.0043507, 0.08, 0.0837, 0.21, 0.5, 0.75, 1.0]
)
def test_m_critical_matches_minimal_root_oracle(theta):
    # below theta ~ 0.005 Q_theta has real roots ~5*theta apart next to the
    # minimal one, and near 0.0028790 four of them within 0.1
    expected = minimal_root_oracle(theta)
    assert abs(m_critical(theta) - expected) <= math.ulp(expected)


def test_q_theta_exact_rational():
    # theta = 1/2: 1 - 2x/2... at x = 2 the terms are 1, -2, 1/2, 0
    assert q_theta_eval(Fraction(1, 2), 2) == Fraction(-1, 2)
    assert isinstance(q_theta_eval(Fraction(1, 3), 1), Fraction)


def test_theta_critical_endpoint_and_bracket():
    assert theta_critical(1.0) == 1.0
    th2 = theta_critical(2.0)
    assert 1.0 / (2 * math.e) <= th2 <= 1.0 - math.sqrt(0.5)
    assert 0.18394 <= th2 <= 0.29289 + 1e-9
    with pytest.raises(ValueError):
        theta_critical(0.9)


def test_theta_critical_roundtrip():
    # theta_critical is one bracketed root of m_critical(t) - m, so the
    # round trip is as accurate as m_critical itself
    for m in (1.2, 2.0, 3.7, 5.0, 8.0, 10.0, 15.0, 20.0, 31.0, 50.0):
        assert m_critical(theta_critical(m)) == pytest.approx(m, abs=1e-9)


def test_theta_critical_binary_tree_reference():
    # minimal root of Q_theta(2) = 0 in theta, from a 60-digit mpmath solve
    reference = 0.21059299650515106215
    assert abs(theta_critical(2.0) - reference) <= 1e-15 * reference


@pytest.mark.parametrize("m", [600.0, 1e300, math.inf])
def test_theta_critical_below_drift_floor(m):
    with pytest.raises(ValueError, match="below the supported drift floor 1e-3"):
        theta_critical(m)


def test_theta_critical_rejects_nan():
    with pytest.raises(ValueError, match="m >= 1"):
        theta_critical(math.nan)


def test_theta_critical_asymptote():
    assert abs(50.0 * theta_critical(50.0) - 1.0 / math.e) < 0.05


# --- the decimal evaluator against the mpmath one it replaced ----------------


def _hex_or_error(f, *args):
    """The float.hex of f(*args), or the exception's type and message."""
    try:
        return f(*args).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _assert_mpmath_bits(theta, xs):
    assert _hex_or_error(m_critical, theta) == _hex_or_error(m_critical_oracle, theta)
    for x in xs:
        assert _hex_or_error(q_theta_eval, theta, x) == _hex_or_error(q_theta_eval_oracle, theta, x)


@pytest.mark.parametrize("theta", [1.0 / k for k in range(1, 21)] + [0.0012, 0.0049])
def test_root_finders_keep_mpmath_bits_at_listed_drifts(theta):
    # at theta = 1, Q_1(0.2575) = 1 - 0.2575 is a tie between two doubles
    walk_top = 1.03 / (theta * (2.0 - theta))
    _assert_mpmath_bits(theta, [-1.0, 0.0, 0.2575, 1.0, 1.0 / (math.e * theta), walk_top])


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(math.log(1e-3), 0.0).map(math.exp),
    u=st.lists(st.floats(-0.5, 1.0), min_size=1, max_size=3),
)
def test_root_finders_keep_mpmath_bits(theta, u):
    # theta log-uniform on [1e-3, 1]; x up to the top of m_critical's walk
    _assert_mpmath_bits(theta, [v * 1.03 / (theta * (2.0 - theta)) for v in u])


@settings(max_examples=25, deadline=None)
@given(m=st.floats(0.0, math.log(368.0), exclude_min=True).map(math.exp))
def test_theta_critical_keeps_mpmath_bits(m):
    # m log-uniform on (1, 368]; m = 368 is refused at the drift floor
    assert _hex_or_error(theta_critical, m) == _hex_or_error(theta_critical_oracle, m)


def test_evaluator_neither_reads_nor_changes_the_decimal_context():
    def values():
        return [m_critical(1e-3).hex(), m_critical(0.3).hex(), theta_critical(2.0).hex(),
                q_theta_eval(0.01, 30.0).hex(), q_theta_eval(0.5, -1e300).hex()]

    expected = values()
    hostile = decimal.Context(prec=5, traps=list(decimal.Context().flags))
    with decimal.localcontext(hostile):
        before = repr(decimal.getcontext())
        assert values() == expected
        assert repr(decimal.getcontext()) == before


def test_theta_bounds_values():
    rep = theta_bounds(2.0)
    assert rep.lower == pytest.approx(0.18394, abs=1e-5)
    assert rep.upper == pytest.approx(0.29289, abs=1e-5)
    assert rep.lower <= rep.exact <= rep.upper
    # upper bound tends to 1 as m drops to 1
    rep = theta_bounds(1.0 + 1e-9)
    assert rep.upper > 0.99
    assert rep.lower <= rep.exact <= rep.upper
    # general-tree lower bound from the branching number
    assert theta_bounds(2.0, br=2.0).lower == pytest.approx(
        1.0 / (2.0 * math.e)
    )
    with pytest.raises(ValueError):
        theta_bounds(1.0)


# --- single-path bounds -----------------------------------------------------


def test_path_bound_examples():
    assert path_increase_upper_bound(4, 0.0) == pytest.approx(1.0 / 120.0, rel=1e-15)
    assert path_increase_upper_bound(0, 0.7) == 1.0
    assert path_increase_upper_bound(5, 0.2) == pytest.approx(2.0**6 / 720.0, rel=1e-12)
    for h in (2.5, 4.0, "4"):
        with pytest.raises(ValueError, match="integer"):
            path_increase_upper_bound(h, 0.3)


def test_path_bounds_reject_theta_outside_unit_interval_exact_or_float():
    # an exact-rational theta outside [0, 1] used to pass: 16807/120 and -31/3840
    for theta in (Fraction(3, 2), Fraction(-1, 2), 1.5, -0.5, math.nan):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            path_increase_upper_bound(4, theta)
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            out_of_order_bound(1, 4, theta)
    assert path_increase_upper_bound(4, Fraction(0)) == Fraction(1, 120)
    assert out_of_order_bound(1, 4, Fraction(1)) >= 0


def test_path_bound_large_h_log_space():
    v = path_increase_upper_bound(500, 1.0 / (2 * math.e))
    assert 0.0 < v < 1e-10
    assert np.isfinite(v)


def test_path_bound_overflowing_power_goes_to_log_space():
    # (1 + 150)^151 passes the float range while the bound is about 1.2e64
    v = path_increase_upper_bound(150, 1.0)
    assert math.isfinite(v)
    log_v = 151 * math.log(151) - math.lgamma(152)
    assert math.log(v) == pytest.approx(log_v, rel=1e-12)
    assert path_increase_upper_bound(10_000, 0.5) == math.inf


def test_path_bound_monte_carlo_oracle():
    # oracle: direct simulation of P(U_0 < U_1 + t < ... < U_h + h t)
    rng = np.random.default_rng(42)
    for theta, h in [(0.1, 4), (0.3, 6), (0.5, 8)]:
        u = rng.random((200_000, h + 1)) + theta * np.arange(h + 1)
        p_hat = float(np.all(np.diff(u, axis=1) > 0, axis=1).mean())
        bound = path_increase_upper_bound(h, theta)
        sigma = math.sqrt(max(p_hat, 1e-12) * (1 - p_hat) / len(u))
        assert p_hat <= bound + 3 * sigma


def test_out_of_order_examples():
    assert out_of_order_bound(0, 4, 0.9) == pytest.approx(1.0 / 120.0, rel=1e-12)
    for n in (1, 2, 3):
        assert out_of_order_bound(n, 8, 0.0) == pytest.approx(0.0, abs=1e-18)
    with pytest.raises(ValueError):
        out_of_order_bound(5, 4, 0.5)
    for n, h in ((1, 2.5), (1.0, 4), (0.5, 4)):
        with pytest.raises(ValueError, match="integer"):
            out_of_order_bound(n, h, 0.3)


def test_out_of_order_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(200):
        h = int(rng.integers(1, 40))
        n = int(rng.integers(0, h + 1))
        theta = float(rng.random())
        assert out_of_order_bound(n, h, theta) >= 0.0


@pytest.mark.parametrize("theta", [Fraction(1, 4), Fraction(1, 3), Fraction(2, 3)])
def test_telescoping_collapse_exact(theta):
    # binomial-weighted sum over the out-of-order count collapses exactly
    for h in range(1, 13):
        total = sum(
            math.comb(h, n) * out_of_order_bound(n, h, theta) for n in range(h + 1)
        )
        assert total == path_increase_upper_bound(h, theta)
        assert isinstance(total, Fraction)


def test_cutset_bound_values():
    # the level-h cutset of a binary tree holds 2^h paths
    assert first_moment_bound(0.0, 1, 0.0) == pytest.approx(0.5, rel=1e-12)
    expected = 2**10 * 2**11 / math.factorial(11)  # level 10 at theta = 0.1
    assert first_moment_bound(10 * math.log(2), 10, 0.1) == pytest.approx(expected, rel=1e-12)


def test_cutset_bound_vanishes_below_threshold():
    # boundary drift 1/(e*m): decay is only ~1/sqrt(h), so check the trend;
    # strictly inside the subcritical region the decay is exponential
    theta = 1.0 / (2.0 * math.e)
    values = [first_moment_bound(h * math.log(2), h, theta) for h in (50, 100, 200, 400, 800)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < values[0] / 3.0
    assert first_moment_bound(400 * math.log(2), 400, 0.9 * theta) < 1e-6


# --- eigenfunctions ----------------------------------------------------------


def test_eigenfunction_flat_below_theta():
    for u in (0.0, 0.1, 0.49):
        assert eigenfunction_eval(2.0, 0.5, 1.7, u) == 1.0


def test_eigenfunction_closed_form_above_half():
    lam = 1.0 + math.sqrt(0.875)  # lead eigenvalue for m=2, theta=0.75
    got = eigenfunction_eval(2.0, 0.75, lam, 0.9)
    assert got == pytest.approx(1.0 - (2.0 / lam) * 0.15, rel=1e-12)
    assert got == pytest.approx(0.84498, abs=1e-4)


def test_eigenfunction_continuity_at_breakpoints():
    for m, theta in [(2.0, 0.3), (1.5, 0.17), (4.0, 0.52)]:
        lam = lead_eigenvalue(m, theta)
        for bp in np.minimum(np.arange(1, math.floor(1 / theta) + 2) * theta, 1.0):
            below = eigenfunction_eval(m, theta, lam, max(bp - 1e-12, 0.0))
            above = eigenfunction_eval(m, theta, lam, min(bp + 1e-12, 1.0))
            assert abs(above - below) < 1e-10


def test_lead_eigenfunction_decreasing_positive():
    for m, theta in [(2.0, 0.21), (3.0, 0.3), (1.5, 0.45)]:
        lam = lead_eigenvalue(m, theta)
        us = np.linspace(0.0, 1.0, 1000)
        vals = eigenfunction_eval(m, theta, lam, us)
        assert np.all(np.diff(vals) <= 1e-12)
        assert vals[-1] > 0.0


def test_eigenfunction_normalisation_at_lead():
    for m, theta in [(2.0, 0.75), (3.0, 0.3), (1.7, 0.12)]:
        lam = lead_eigenvalue(m, theta)
        assert (m / lam) * eigenfunction_integral(m, theta, lam) == pytest.approx(
            1.0, abs=1e-9
        )
        # quadrature route agrees
        assert (m / lam) * eigen_integral_quadrature(m, theta, lam) == pytest.approx(
            1.0, abs=1e-9
        )


def test_eigen_integral_identity_with_critical_polynomial():
    # m * int f_{m,theta,1} - 1 == -Q_theta(m), quadrature route
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = float(rng.uniform(0.3, 5.0))
        theta = float(rng.uniform(0.09, 0.99))
        lhs = m * eigen_integral_quadrature(m, theta, 1.0) - 1.0
        assert lhs == pytest.approx(-q_theta_eval(theta, m), abs=1e-8)


def test_lead_eigenvalue_values():
    lam = lead_eigenvalue(2.0, 0.75)
    assert lam == pytest.approx(1.0 + math.sqrt(0.875), abs=1e-6)
    # critical mean has eigenvalue exactly 1
    for theta in (0.3, 0.6, 0.9):
        assert lead_eigenvalue(m_critical(theta), theta) == pytest.approx(1.0, abs=1e-12)


def test_lead_eigenvalue_scaling():
    # two independent root extractions confirm the linear scaling in m
    for theta in (0.3, 0.6, 0.9):
        assert lead_eigenvalue(2.0, theta) == pytest.approx(
            2.0 * lead_eigenvalue(1.0, theta), rel=1e-12
        )
        if abs(1.0 / theta - round(1.0 / theta)) > 1e-6:
            _, roots2 = eigen_char_poly(2.0, theta)
            _, roots1 = eigen_char_poly(1.0, theta)
            assert roots2[-1] == pytest.approx(2.0 * roots1[-1], rel=1e-9)


def _piece_edges(theta):
    """0, 1 and every breakpoint i*theta in [0, 1] with its neighbours
    one ulp away, inside [0, 1]."""
    bps = np.arange(math.floor(1 / theta) + 2) * theta
    pts = np.concatenate([[0.0, 1.0], bps, np.nextafter(bps, -1.0), np.nextafter(bps, 2.0)])
    return pts[(pts >= 0.0) & (pts <= 1.0)]


@settings(max_examples=80, deadline=None)
@given(
    theta=st.one_of(st.sampled_from([1.0, 0.5, 0.25, 0.3, 0.05, 0.002]), st.floats(0.002, 1.0)),
    m=st.floats(0.5, 5.0),
    lam=st.floats(0.3, 4.0),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 400),
    data=st.data(),
)
def test_eigenfunction_eval_equals_mask_oracle(theta, m, lam, seed, size, data):
    # bit for bit, on any array, on any slice of one and on scalars
    rng = np.random.default_rng(seed)
    u = rng.permutation(np.concatenate([_piece_edges(theta), rng.random(size)]))
    whole = eigenfunction_eval(m, theta, lam, u)
    assert np.array_equal(whole, eigenfunction_oracle(m, theta, lam, u))
    lo = data.draw(st.integers(0, len(u)), label="lo")
    hi = data.draw(st.integers(lo, len(u)), label="hi")
    step = data.draw(st.integers(1, 5), label="step")
    assert np.array_equal(eigenfunction_eval(m, theta, lam, u[lo:hi:step]), whole[lo:hi:step])
    for x in u[:: max(1, len(u) // 8)].tolist():
        got = eigenfunction_eval(m, theta, lam, x)
        assert isinstance(got, float)
        assert got == eigenfunction_oracle(m, theta, lam, x)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 40),
    m=st.floats(0.5, 5.0),
    lam=st.floats(0.3, 4.0),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 400),
)
def test_eigenfunction_eval_keeps_the_bits_of_zero_started_sums(k, m, lam, seed, size):
    # theta = 1/k puts a breakpoint at 1; u at 0, 1 and every breakpoint
    theta = 1.0 / k
    rng = np.random.default_rng(seed)
    u = rng.permutation(np.concatenate([_piece_edges(theta), rng.random(size)]))
    got = eigenfunction_eval(m, theta, lam, u)
    assert got.tobytes() == eigenfunction_sorted_oracle(m, theta, lam, u).tobytes()
    for x in _piece_edges(theta).tolist():
        want = eigenfunction_sorted_oracle(m, theta, lam, x)
        assert eigenfunction_eval(m, theta, lam, x).hex() == want.hex()


def test_eigenfunction_validation():
    with pytest.raises(ValueError):
        eigenfunction_eval(2.0, 0.5, 0.0, 0.3)
    with pytest.raises(ValueError):
        eigenfunction_eval(-1.0, 0.5, 1.0, 0.3)
    with pytest.raises(ValueError):
        eigenfunction_eval(2.0, 0.5, 1.0, 1.5)
    nan, inf = math.nan, math.inf
    for m, theta, lam, u in [
        (nan, 0.5, 1.0, 0.3), (inf, 0.5, 1.0, 0.3), (2.0, nan, 1.0, 0.3),
        (2.0, 0.5, nan, 0.3), (2.0, 0.5, inf, 0.3), (2.0, 0.5, 1.0, nan),
    ]:
        with pytest.raises(ValueError):
            eigenfunction_eval(m, theta, lam, u)
    with pytest.raises(ValueError):
        eigenfunction_eval(2.0, 0.5, 1.0, np.array([0.2, nan]))
    with pytest.raises(ValueError):
        eigenfunction_integral(2.0, 0.5, inf)
    with pytest.raises(ValueError):
        eigenfunction_integral(nan, 0.5, 1.0)
    for m in (nan, inf, 0.0):
        with pytest.raises(ValueError):
            lead_eigenvalue(m, 0.5)


# --- characteristic polynomial ----------------------------------------------


def test_char_poly_quadratic_regime():
    coeffs, roots = eigen_char_poly(2.0, 0.75)
    assert np.allclose(coeffs, [1.0, -2.0, 2.0**2 * 0.25**2 / 2.0])
    assert roots[-1] == pytest.approx(1.0 + math.sqrt(0.875), abs=1e-10)
    assert roots[0] == pytest.approx(1.0 - math.sqrt(0.875), abs=1e-10)
    assert roots.sum() == pytest.approx(2.0, rel=1e-12)


def test_char_poly_lead_root_matches_eigenvalue():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = float(rng.uniform(0.5, 6.0))
        theta = float(rng.uniform(0.09, 0.98))
        if abs(1.0 / theta - round(1.0 / theta)) < 1e-3:
            theta += 5e-3
        _, roots = eigen_char_poly(m, theta)
        assert roots[-1] == pytest.approx(lead_eigenvalue(m, theta), abs=1e-8)


def test_char_poly_unit_mean_inverts_critical_mean():
    for theta in (0.3, 0.55, 0.8):
        _, roots = eigen_char_poly(1.0, theta)
        assert roots[-1] * m_critical(theta) == pytest.approx(1.0, abs=1e-8)


def test_char_poly_degenerate_drift_raises():
    # 1/theta integral: the constant coefficient vanishes
    for theta in (0.5, 0.25, 1.0):
        with pytest.raises(ValueError, match="integer"):
            eigen_char_poly(2.0, theta)


# --- proof-level integral identity -------------------------------------------


def test_shifted_power_integral_identity():
    # int_{u-t}^{u} (1-v+c)^a / a! dv telescopes into (a+1)-power differences
    rng = np.random.default_rng(9)
    for _ in range(50):
        u = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 1.0))
        c = float(rng.uniform(0.0, 3.0))
        a = int(rng.integers(0, 8))
        lhs, _ = quad(lambda v: (1 - v + c) ** a / math.factorial(a), u - t, u)
        rhs = ((1 - u + t + c) ** (a + 1) - (1 - u + c) ** (a + 1)) / math.factorial(
            a + 1
        )
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def _root_or_error(solver, f, a, b, **kwargs):
    """The root's float.hex, or the exception's type and message."""
    try:
        return solver(f, a, b, **kwargs).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


_EPS = np.finfo(float).eps


@settings(max_examples=400, deadline=None)
@given(
    shape=st.sampled_from(["poly", "tanh", "exp"]),
    c=st.lists(st.floats(-4, 4), min_size=4, max_size=4),
    a=st.floats(-4, 4),
    b=st.floats(-4, 4),
    tol=st.sampled_from([
        (1e-300, 8.9e-16),  # m_critical
        (1e-15, 8.9e-16),  # theta_critical
        (2e-12, 4 * _EPS),  # the defaults
        (1e-3, 1e-6), (5e-324, 1e-15), (1e-12, 0.5),
        (0.0, 8.9e-16), (-1.0, 8.9e-16), (1e-12, 1e-16),  # refused
    ]),
    maxiter=st.one_of(st.just(100), st.integers(0, 6)),
    end=st.one_of(st.none(), st.tuples(
        st.booleans(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))),
)
def test_brentq_port_matches_scipy(shape, c, a, b, tol, maxiter, end):
    # bit for bit: the same root, or the same exception type and message
    def f(x):
        if end is not None and x == (b if end[0] else a):
            return end[1]
        if shape == "poly":
            return ((c[3] * x + c[2]) * x + c[1]) * x + c[0]
        if shape == "tanh":
            return math.tanh(c[0] * (x - c[1])) + 1e-3 * c[2]
        return math.exp(c[0] * x) - abs(c[1]) - 0.1

    xtol, rtol = tol
    kwargs = dict(xtol=xtol, rtol=rtol, maxiter=maxiter)
    assert _root_or_error(analytic._brentq, f, a, b, **kwargs) == _root_or_error(
        scipy_brentq, f, a, b, **kwargs)


def test_root_finders_keep_scipy_bits(monkeypatch):
    thetas = np.geomspace(1e-3, 1.0, 40).tolist()
    ms = [1.0000001, 1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 7.5, 10.0, 20.0, 50.0, 100.0, 200.0,
          300.0, 360.0]
    port = [m_critical(t).hex() for t in thetas], [theta_critical(m).hex() for m in ms]
    monkeypatch.setattr(analytic, "_brentq", scipy_brentq)
    assert port == ([m_critical(t).hex() for t in thetas], [theta_critical(m).hex() for m in ms])
