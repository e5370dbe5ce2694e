"""Critical thresholds, eigenfunctions and closed-form probability bounds
for increasing-path (accessibility) percolation under the Rough Mount Fuji
label model on trees.

The central object is the polynomial

    Q_theta(x) = sum_{j=0}^{floor(1/theta)+1} (-x)^j / j! * (1-(j-1)theta)^j

whose minimal root m_c(theta) is the critical offspring mean: a branching
tree with mean m carries an infinite increasing path with positive
probability iff m > m_c(theta).  Everything else here is built around that
root: its inverse theta_c(m), the reproduction operator's eigenfunctions
f_{m,theta,lambda} (piecewise polynomials with breakpoints at j*theta), the
lead eigenvalue lambda = m / m_c(theta), and first-moment upper bounds on
the probability that a single path of length h is increasing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import mpmath
import numpy as np
from scipy.optimize import brentq

__all__ = [
    "BoundsReport",
    "q_theta_eval",
    "m_critical",
    "theta_critical",
    "theta_bounds",
    "path_increase_upper_bound",
    "out_of_order_bound",
    "eigenfunction_eval",
    "eigenfunction_integral",
    "lead_eigenvalue",
]

ThetaLike = Union[float, Fraction]


def _floor_one_over(theta: ThetaLike) -> int:
    """floor(1/theta) with a 1e-14 relative guard band against misclassifying
    values where 1/theta is an integer (the polynomial degree jumps there)."""
    if isinstance(theta, Fraction):
        return (1 / theta).__floor__()
    r = 1.0 / float(theta)
    nearest = round(r)
    if abs(r - nearest) <= 1e-14 * max(1.0, r):
        return nearest
    return math.floor(r)


def _check_theta(theta: ThetaLike) -> None:
    if not (0 < theta <= 1):
        raise ValueError(f"theta must lie in (0, 1], got {theta}")


def q_theta_eval(theta: ThetaLike, x) -> float:
    """Q_theta(x), rounded once from the high-precision evaluator (exact
    over Fractions)."""
    _check_theta(theta)
    if isinstance(theta, Fraction):
        xq = Fraction(x)
        return sum(
            (-xq) ** j * (1 - (j - 1) * theta) ** j / math.factorial(j)
            for j in range(_floor_one_over(theta) + 2)
        )
    _, q = _q_evaluator(float(theta))
    return float(q(float(x)))


def _q_evaluator(theta: float):
    """Q_theta at fixed theta in mpmath: (descending coefficients, q), where
    q(x) returns the unrounded mp value.

    The digits (30 + 0.9/theta) absorb the alternating-sum cancellation:
    the largest term grows like e^x while Q_theta near its minimal root is
    exponentially small.  The context is a clone, so global mpmath
    precision is never touched and the evaluator stays reentrant."""
    ctx = mpmath.mp.clone()
    ctx.dps = 30 + int(0.9 / theta)
    th = ctx.mpf(theta)
    coeffs = [
        (-1) ** j * (1 - (j - 1) * th) ** j / ctx.factorial(j)
        for j in range(_floor_one_over(theta) + 1, -1, -1)
    ]
    return coeffs, lambda x: ctx.polyval(coeffs, ctx.mpf(x))


def m_critical(theta: ThetaLike) -> float:
    """Minimal root of Q_theta(m) = 0; the critical offspring mean.

    The walk starts at the proven lower bound m_c >= 1/(e*theta) (and
    m_c >= 1), where Q_theta is positive, and climbs in steps of theta/2,
    shorter than the ~5*theta spacing of the real roots near m_c, up to
    the first point with Q_theta <= 0; brentq polishes the one root of
    that cell on the mp value scaled by 2^-mag(Q_theta(start)), so no
    value underflows the float range.  The walk gives up at
    1.03/(theta*(2-theta)), above the upper bound on m_c."""
    _check_theta(theta)
    th = float(theta)
    if th < 1e-3:
        raise ValueError(f"theta={th} below supported floor 1e-3")
    _, q = _q_evaluator(th)
    lo = max(1.0, 1.0 / (math.e * th))
    q_start = q(lo)
    if q_start < 0:
        raise RuntimeError(f"Q_theta < 0 at the lower bound m={lo} for theta={th}")
    if q_start == 0:
        return lo
    hi = 1.03 / (th * (2.0 - th))
    while True:
        x = min(lo + th / 2.0, hi)
        q_x = q(x)
        if q_x <= 0:
            break
        if x == hi:
            raise RuntimeError(f"no sign change of Q_theta up to m={hi} for theta={th}")
        lo = x
    if q_x == 0:
        return x
    # the relative tolerance, scipy's floor of 4 eps, is the binding one
    shift = -mpmath.mag(q_start)
    return brentq(
        lambda m: float(mpmath.ldexp(q(m), shift)), lo, x, xtol=1e-300, rtol=8.9e-16
    )


def theta_critical(m: float) -> float:
    """The unique theta with m_critical(theta) = m (m_c is strictly
    decreasing in theta, so the inverse is well defined for m >= 1).

    One bracketed root of the monotone m_critical(t) - m on a padded
    version of the bracket 1/(e*m) <= theta_c(m) <= 1 - sqrt(1 - 1/m);
    the drift floor is checked before any evaluator is built below it."""
    if not m >= 1.0:
        raise ValueError(f"theta_critical requires m >= 1, got {m}")
    if m == 1.0:
        return 1.0
    lo = max(1e-3, 0.98 / (math.e * m))
    hi = min(1.0, 1.02 * (1.0 - math.sqrt(1.0 - 1.0 / m)))
    if hi <= lo or (lo == 1e-3 and m_critical(lo) <= m):
        raise ValueError(
            f"theta_c({m}) lies below the supported drift floor 1e-3"
        )
    return brentq(lambda t: m_critical(t) - m, lo, hi, xtol=1e-15, rtol=8.9e-16)


@dataclass(frozen=True)
class BoundsReport:
    """Closed-form bracket and exact value of theta_c(m)."""

    m: float
    lower: float
    upper: float
    exact: float
    br: Optional[float] = None


def theta_bounds(m: float, br: Optional[float] = None) -> BoundsReport:
    """Bracket for the critical drift of a mean-m branching tree,
    1/(e*m) <= theta_c(m) <= 1 - sqrt(1 - 1/m), and its exact value.

    With ``br`` given, the lower bound is the general-tree form 1/(e*br T)
    based on the branching number instead.
    """
    if not m > 1.0:
        raise ValueError(f"theta_bounds requires m > 1, got {m}")
    if br is not None and not 1.0 <= br < math.inf:
        raise ValueError(f"branching number must be finite and >= 1, got {br}")
    lower = 1.0 / (math.e * (br if br is not None else m))
    upper = 1.0 - math.sqrt(1.0 - 1.0 / m)
    return BoundsReport(m=m, lower=lower, upper=upper, exact=theta_critical(m), br=br)


def _check_integer(name: str, value) -> None:
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _log_path_term(h: int, t: float) -> float:
    """log of (1 + t)^(h+1) / (h+1)!, the first-moment term of a path of
    length h: t = theta*h gives the single-path bound, t = j*theta the
    terms of the out-of-order sum."""
    return (h + 1) * math.log1p(t) - math.lgamma(h + 2)


def path_increase_upper_bound(h: int, theta: ThetaLike):
    """Upper bound (1 + theta*h)^(h+1) / (h+1)! on the probability that one
    fixed path of length h has increasing labels.  Exact over Fractions;
    in float mode log-space wherever the direct form would overflow, and
    math.inf once even the log form leaves the float range."""
    _check_integer("path length", h)
    if h < 0:
        raise ValueError(f"path length must be >= 0, got {h}")
    if isinstance(theta, Fraction):
        return (1 + theta * h) ** (h + 1) / Fraction(math.factorial(h + 1))
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0,1], got {theta}")
    try:
        return (1.0 + theta * h) ** (h + 1) / math.factorial(h + 1)
    except OverflowError:
        pass
    try:
        return math.exp(_log_path_term(h, theta * h))
    except OverflowError:
        return math.inf


def out_of_order_bound(n: int, h: int, theta: ThetaLike):
    """Upper bound on the probability that a fixed path of length h is
    increasing with n specified adjacent uniform pairs out of order:

        sum_{j=0}^{n} C(n,j) (-1)^(n-j) (1+j*theta)^(h+1) / (h+1)!

    Nonnegative for all valid inputs.  Exact over Fractions.
    """
    _check_integer("h", h)
    _check_integer("n", n)
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if not (0 <= n <= h):
        raise ValueError(f"n must lie in [0, h]={h}, got {n}")
    if isinstance(theta, Fraction):
        fact = Fraction(math.factorial(h + 1))
        return sum(
            math.comb(n, j) * (-1) ** (n - j) * (1 + j * theta) ** (h + 1) / fact
            for j in range(n + 1)
        )
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0,1], got {theta}")
    terms = [
        math.comb(n, j) * (-1) ** (n - j) * math.exp(_log_path_term(h, j * theta))
        for j in range(n + 1)
    ]
    return max(math.fsum(terms), 0.0)


# ---------------------------------------------------------------------------
# eigenfunctions of the increasing-offspring reproduction operator


def _check_mean(m: float) -> None:
    if not 0 < m < math.inf:
        raise ValueError(f"m must be finite and > 0, got {m}")


def _check_eigen(m: float, theta: float, lam: float) -> None:
    _check_mean(m)
    _check_theta(theta)
    if lam == 0 or not math.isfinite(lam):
        raise ValueError(f"lambda must be finite and nonzero, got {lam}")


def eigenfunction_eval(m: float, theta: float, lam: float, u):
    """Evaluate f_{m,theta,lambda} at u in [0,1] (scalar or array)."""
    _check_eigen(m, theta, lam)
    scalar = np.isscalar(u)
    uu = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if not ((uu >= 0) & (uu <= 1)).all():  # NaN fails both tests
        raise ValueError("u must lie in [0, 1]")
    kmax = _floor_one_over(theta)
    j = np.minimum(np.floor(uu / theta + 1e-12).astype(np.int64), kmax)
    out = np.zeros_like(uu)
    ratio = -m / lam
    coeff = 1.0
    for i in range(kmax + 1):
        mask = j >= i
        if not mask.any():
            break
        out[mask] += coeff * (uu[mask] - i * theta) ** i
        coeff *= ratio / (i + 1)
    return float(out[0]) if scalar else out


def eigenfunction_integral(m: float, theta: float, lam: float) -> float:
    """Closed form for int_0^1 f_{m,theta,lambda}(s) ds:

        sum_{i=0}^{floor(1/theta)} (-m/lambda)^i (1 - i*theta)^(i+1) / (i+1)!
    """
    _check_eigen(m, theta, lam)
    kmax = _floor_one_over(theta)
    ratio = -m / lam
    terms = []
    coeff = 1.0  # (-m/lam)^i / i!
    for i in range(kmax + 1):
        terms.append(coeff * (1.0 - i * theta) ** (i + 1) / (i + 1))
        coeff *= ratio / (i + 1)
    return math.fsum(terms)


def lead_eigenvalue(m: float, theta: float) -> float:
    """Largest real eigenvalue of the increasing-offspring operator:
    lambda_{m,theta} = m / m_critical(theta).  Equals 1 exactly at the
    critical mean and scales linearly in m."""
    _check_mean(m)
    return m / m_critical(theta)
