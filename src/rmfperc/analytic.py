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
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import mpmath
import numpy as np
from scipy.optimize import brentq

__all__ = [
    "CriticalPolynomial",
    "EigenFunction",
    "BoundsReport",
    "q_theta_eval",
    "m_critical",
    "theta_critical",
    "theta_bounds",
    "path_increase_upper_bound",
    "out_of_order_bound",
    "cutset_first_moment_bound",
    "eigenfunction_eval",
    "eigenfunction_integral",
    "lead_eigenvalue",
    "eigen_char_poly",
]

ThetaLike = Union[float, Fraction]

# Hard floor for the explicit float64 backend (degree <= 51).
FLOAT_THETA_FLOOR = 0.02
# Where "auto" hands over to the high-precision backend.  Near its minimal
# root Q_theta lives on an exponentially small scale (~e^-2m) while its
# largest term grows like e^m, so float64 root error scales like
# eps * e^(2 m_c); keeping m_c <= ~5 (theta >= 0.08) holds that below 1e-11.
_AUTO_MP_THETA = 0.08


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


@dataclass(frozen=True)
class CriticalPolynomial:
    """Q_theta as a concrete coefficient vector (ascending powers)."""

    theta: float

    def __post_init__(self):
        _check_theta(self.theta)

    @property
    def degree(self) -> int:
        return _floor_one_over(self.theta) + 1

    @property
    def coefficients(self) -> np.ndarray:
        return np.array(_q_coefficients(float(self.theta)))

    def __call__(self, x: float) -> float:
        return q_theta_eval(self.theta, x)


def _q_coefficients(theta: float) -> list:
    """Float coefficients of Q_theta in ascending powers."""
    return [
        (-1.0) ** j * (1.0 - (j - 1) * theta) ** j / math.factorial(j)
        for j in range(_floor_one_over(theta) + 2)
    ]


def q_theta_eval(theta: ThetaLike, x) -> float:
    """Q_theta(x) via compensated summation (exact over Fractions)."""
    _check_theta(theta)
    if isinstance(theta, Fraction):
        xq = Fraction(x)
        return sum(
            (-xq) ** j * (1 - (j - 1) * theta) ** j / math.factorial(j)
            for j in range(_floor_one_over(theta) + 2)
        )
    return _q_evaluator(float(theta), use_mp=False)(float(x))


def _q_evaluator(theta: float, use_mp: bool):
    """Fixed-theta evaluator of Q_theta with coefficients computed once.

    The float branch pairs each exact-rational-derived coefficient with
    compensated (fsum) accumulation; the mp branch carries enough digits
    to absorb the alternating-sum cancellation, which grows like e^x."""
    if not use_mp:
        coeffs = _q_coefficients(theta)

        def f(x: float) -> float:
            xp = 1.0
            terms = []
            for c in coeffs:
                terms.append(c * xp)
                xp *= x
            return math.fsum(terms)

        return f

    # cloned context: global mpmath precision is never touched, so the
    # evaluator stays reentrant
    ctx = mpmath.mp.clone()
    ctx.dps = 30 + int(0.9 / theta)
    th = ctx.mpf(theta)
    coeffs = [
        (-1) ** j * (1 - (j - 1) * th) ** j / ctx.factorial(j)
        for j in range(_floor_one_over(theta) + 2)
    ]

    def f(x: float) -> float:
        xm = ctx.mpf(x)
        xp = ctx.mpf(1)
        total = ctx.mpf(0)
        for c in coeffs:
            total += c * xp
            xp *= xm
        return float(total)

    return f


def _first_root(f, grid: np.ndarray) -> Optional[float]:
    """First sign change of f along an increasing grid, polished by brentq.
    Assumes f starts positive; returns None if no crossing is found."""
    prev_x = grid[0]
    prev_v = f(prev_x)
    if prev_v == 0.0:
        return float(prev_x)
    for x in grid[1:]:
        v = f(x)
        if v == 0.0:
            return float(x)
        if prev_v > 0.0 > v:
            return brentq(f, prev_x, x, xtol=1e-14, rtol=1e-15)
        prev_x, prev_v = x, v
    return None


def m_critical(theta: ThetaLike, method: str = "auto") -> float:
    """Minimal root of Q_theta(m) = 0; the critical offspring mean.

    Located by a sign-change scan upward from m = 1 followed by bracketed
    root polishing.  ``method`` selects the evaluation backend: "float"
    (compensated float64, requires theta >= 0.02), "mp" (arbitrary
    precision) or "auto".
    """
    _check_theta(theta)
    th = float(theta)
    if method not in ("auto", "float", "mp"):
        raise ValueError(f"unknown method {method!r}")
    if method == "float" and th < FLOAT_THETA_FLOOR:
        raise ValueError(
            f"theta={th} is below the float-precision floor {FLOAT_THETA_FLOOR}; "
            "alternating-sum cancellation would corrupt the root. "
            "Use method='mp' (or 'auto')."
        )
    if method == "auto":
        method = "float" if th >= _AUTO_MP_THETA else "mp"
    if th < 1e-3:
        raise ValueError(f"theta={th} below supported floor 1e-3")

    f = _q_evaluator(th, use_mp=method == "mp")
    if method == "float":
        root = _first_root(f, np.arange(1.0, 4.0 / th + 0.01, 0.01))
    else:
        # m_c lies in [1/(e*theta), 1/(theta*(2-theta))]; scan a padded
        # version of that bracket, falling back to a full scan if needed
        lo = max(1.0, 0.97 / (math.e * th))
        hi = 1.03 / (th * (2.0 - th))
        root = _first_root(f, np.linspace(lo, hi, 257))
        if root is None:
            root = _first_root(f, np.linspace(1.0, 4.0 / th, 2049))
    if root is None:
        raise RuntimeError(f"no sign change of Q_theta found for theta={th}")
    return root


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
    """Closed-form bracket (and optional exact value) for theta_c(m)."""

    m: float
    lower: float
    upper: float
    exact: Optional[float] = None
    br: Optional[float] = None


def theta_bounds(m: float, br: Optional[float] = None, compute_exact: bool = True) -> BoundsReport:
    """Bracket for the critical drift of a mean-m branching tree:
    1/(e*m) <= theta_c(m) <= 1 - sqrt(1 - 1/m).

    With ``br`` given, the lower bound is the general-tree form 1/(e*br T)
    based on the branching number instead.
    """
    if not m > 1.0:
        raise ValueError(f"theta_bounds requires m > 1, got {m}")
    if br is not None and br < 1.0:
        raise ValueError(f"branching number must be >= 1, got {br}")
    lower = 1.0 / (math.e * (br if br is not None else m))
    upper = 1.0 - math.sqrt(1.0 - 1.0 / m)
    exact = theta_critical(m) if compute_exact else None
    return BoundsReport(m=m, lower=lower, upper=upper, exact=exact, br=br)


def path_increase_upper_bound(h: int, theta: ThetaLike):
    """Upper bound (1 + theta*h)^(h+1) / (h+1)! on the probability that one
    fixed path of length h has increasing labels.  Exact over Fractions;
    in float mode log-space wherever the direct form would overflow, and
    math.inf once even the log form leaves the float range."""
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
        return math.exp((h + 1) * math.log1p(theta * h) - math.lgamma(h + 2))
    except OverflowError:
        return math.inf


def out_of_order_bound(n: int, h: int, theta: ThetaLike):
    """Upper bound on the probability that a fixed path of length h is
    increasing with n specified adjacent uniform pairs out of order:

        sum_{j=0}^{n} C(n,j) (-1)^(n-j) (1+j*theta)^(h+1) / (h+1)!

    Nonnegative for all valid inputs.  Exact over Fractions.
    """
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
    fact = math.lgamma(h + 2)
    terms = [
        math.comb(n, j) * (-1) ** (n - j)
        * math.exp((h + 1) * math.log1p(j * theta) - fact)
        for j in range(n + 1)
    ]
    return max(math.fsum(terms), 0.0)


def cutset_first_moment_bound(depth_counts: dict, theta: float) -> float:
    """First-moment bound over a cutset: sum over depths d of
    count(d) * (1 + theta*d)^(d+1) / (d+1)!.

    For the level-h cutset of an m-ary tree (count m^h at depth h) this is
    the familiar m^h (1+theta*h)^(h+1)/(h+1)! bound.
    """
    total = 0.0
    for depth, count in depth_counts.items():
        if depth < 1:
            raise ValueError(f"cutset depths must be >= 1, got {depth}")
        if count < 0:
            raise ValueError(f"counts must be >= 0, got {count}")
        if count == 0:
            continue
        log_term = math.log(count) + (depth + 1) * math.log1p(theta * depth) \
            - math.lgamma(depth + 2)
        total += math.exp(log_term)
    return total


# ---------------------------------------------------------------------------
# eigenfunctions of the increasing-offspring reproduction operator


def _check_eigen(m: float, theta: float, lam: float) -> None:
    if m <= 0:
        raise ValueError(f"m must be > 0, got {m}")
    _check_theta(theta)
    if lam == 0:
        raise ValueError("lambda must be nonzero")


@dataclass(frozen=True)
class EigenFunction:
    """Piecewise polynomial f_{m,theta,lambda} on [0,1]:

        f(u) = sum_{i=0}^{j} (-1)^i m^i (u - i*theta)^i / (lambda^i i!)

    on [j*theta, (j+1)*theta); identically 1 below theta, continuous at
    every breakpoint.
    """

    m: float
    theta: float
    lam: float

    def __post_init__(self):
        _check_eigen(self.m, self.theta, self.lam)

    @property
    def breakpoints(self) -> np.ndarray:
        k = _floor_one_over(self.theta)
        return np.minimum(np.arange(k + 2) * self.theta, 1.0)

    def __call__(self, u):
        return eigenfunction_eval(self.m, self.theta, self.lam, u)

    def integral(self) -> float:
        return eigenfunction_integral(self.m, self.theta, self.lam)


def eigenfunction_eval(m: float, theta: float, lam: float, u):
    """Evaluate f_{m,theta,lambda} at u in [0,1] (scalar or array)."""
    _check_eigen(m, theta, lam)
    scalar = np.isscalar(u)
    uu = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if np.any((uu < 0) | (uu > 1)):
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
    if m <= 0:
        raise ValueError(f"m must be > 0, got {m}")
    return m / m_critical(theta)


def eigen_char_poly(m: float, theta: float):
    """Characteristic polynomial of the eigenvalue problem, monic in lambda:

        lambda^(K+1) - sum_{i=0}^{K} (-1)^i/(i+1)! m^(i+1) (1-i*theta)^(i+1)
                       * lambda^(K-i),   K = floor(1/theta).

    Returns (coefficients in descending powers, sorted real roots).  The
    largest real root is the lead eigenvalue.  Degenerate drifts with
    1/theta integral are perturbed to theta - 1e-12 with a warning, since
    the constant coefficient vanishes there.
    """
    if m <= 0:
        raise ValueError(f"m must be > 0, got {m}")
    _check_theta(theta)
    inv = 1.0 / theta
    if abs(inv - round(inv)) <= 1e-12 * max(1.0, inv):
        warnings.warn(
            f"1/theta is an integer ({round(inv)}); evaluating the "
            "characteristic polynomial at theta - 1e-12",
            RuntimeWarning,
            stacklevel=2,
        )
        theta = theta - 1e-12
    k = _floor_one_over(theta)
    coeffs = np.zeros(k + 2)
    coeffs[0] = 1.0
    for i in range(k + 1):
        c = (-1.0) ** i / math.factorial(i + 1) * m ** (i + 1) * (1.0 - i * theta) ** (i + 1)
        coeffs[i + 1] = -c
    roots = np.roots(coeffs)
    scale = max(1.0, np.abs(roots).max())
    real = np.sort(roots.real[np.abs(roots.imag) <= 1e-9 * scale])
    return coeffs, real
