"""Conditional retention probabilities under Matern type-II thinning and the
contact-distance CDF machinery built on top of them.

The closed forms all follow one pattern: a point survives thinning when it
carries the smallest mark inside its competition region, so survival
probabilities are uniform-mark averages of exp(-intensity * exposed area),
with the exposed areas supplied by :mod:`.geometry`.

The first-order profiles (:func:`pair_retention` over :func:`mhc_retention`,
and :func:`retention_ppp_to_mhc`) condition on a void of *parent* points.
:class:`RetentionFunction`, which feeds :func:`contact_cdf`, corrects them to
the hazard ratio of the Mecke/Hanisch identity,
lambda_p * eta(r) = lambda_t * g(r) * P^{o,x}(void) / P^{o}(void), with the
pair correlation g in closed form and the void ratio from a one-step closure
on the first-order hazard (see :class:`RetentionFunction`).

The kernels below :class:`RetentionFunction` are array-only building blocks
for delta > 0: they take node arrays of any shape and return arrays of the
same shape. :class:`RetentionFunction` is the one place that takes scalars and
handles delta = 0, where every case is a plain Poisson process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.polynomial.chebyshev import chebint
from numpy.polynomial.legendre import leggauss

from .geometry import FloatOrArray, lens_asymmetric, lens_symmetric, piecewise

__all__ = [
    "CdfCurve",
    "ContactCase",
    "ProcessParams",
    "QuadratureError",
    "RetentionFunction",
    "contact_cdf",
    "default_r_grid",
    "extend_curve",
    "mhc_intensity",
]

TWO_PI = 2.0 * math.pi

# Masks only where a branch is mixed: nearly every node array reaching a
# kernel takes one branch throughout, so a kernel computes straight on its
# input then (see geometry.piecewise), and only a mixed array pays for the
# zero fill, the gather and the scatter. The tests marked "speed guard" skip
# work on empty or one-sided masks; removing a dozen of them together slowed
# the analytic-sweep benchmark by 30% on a 2-core machine, so keep them.

# Below this the two-term series for (1 - exp(-x))/x is already exact to
# double precision; expm1 covers everything above.
_SERIES_CUTOFF = 1e-12


class QuadratureError(ArithmeticError):
    """Numerical integration failed to reach the requested tolerance."""


@dataclass(frozen=True)
class ProcessParams:
    """Parent Poisson intensity and hard-core distance.

    ``delta = 0`` degenerates to a plain Poisson process (no thinning). A
    ``delta > 0`` must leave pi * delta**2 and lambda_p * pi * delta**2
    finite normal doubles, which every closed form divides by.
    """

    lambda_p: float
    delta: float

    def __post_init__(self) -> None:
        lam = float(self.lambda_p)
        delta = float(self.delta)
        if not (math.isfinite(lam) and lam > 0.0):
            raise ValueError(f"lambda_p must be finite and > 0, got {self.lambda_p!r}")
        if not (math.isfinite(delta) and delta >= 0.0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta!r}")
        # multiplied, not squared: a float power raises OverflowError
        ball = math.pi * delta * delta
        normal = [np.finfo(float).tiny <= x < math.inf for x in (ball, lam * ball)]
        if delta > 0.0 and not all(normal):
            raise ValueError(
                f"delta = {self.delta!r} with lambda_p = {self.lambda_p!r}: pi*delta**2 "
                "and lambda_p*pi*delta**2 must be finite normal doubles"
            )
        object.__setattr__(self, "lambda_p", lam)
        object.__setattr__(self, "delta", delta)

    @property
    def ball_area(self) -> float:
        """Area of the hard-core disk, pi * delta**2."""
        return math.pi * self.delta**2


class ContactCase(str, Enum):
    """Source -> target process pair of a contact-distance experiment."""

    MHC_TO_MHC = "mhc-mhc"
    PPP_TO_MHC = "ppp-mhc"
    CMHC_TO_MHC = "cmhc-mhc"
    PPP_TO_PPP = "ppp-ppp"


def expm1_ratio(x: FloatOrArray) -> FloatOrArray:
    """Stable evaluation of (1 - exp(-x)) / x, the uniform-mark average of
    exp(-x*t) over t in [0, 1]. Returns 1 at x = 0."""
    if np.ndim(x) == 0:
        x = float(x)
        return 1.0 - 0.5 * x if abs(x) < _SERIES_CUTOFF else -math.expm1(-x) / x
    arr = np.asarray(x, dtype=float)
    if arr.size and arr.min() >= _SERIES_CUTOFF:  # speed guard: all large
        return -np.expm1(-arr) / arr
    small = np.abs(arr) < _SERIES_CUTOFF
    safe = np.where(small, 1.0, arr)
    return np.where(small, 1.0 - 0.5 * arr, -np.expm1(-safe) / safe)


def mhc_retention(params: ProcessParams) -> float:
    """Probability that a parent point survives the type-II thinning,
    (1 - exp(-lambda_p * pi * delta**2)) / (lambda_p * pi * delta**2)."""
    return float(expm1_ratio(params.lambda_p * params.ball_area))


def mhc_intensity(params: ProcessParams) -> float:
    """Intensity of the thinned hard-core process,
    (1 - exp(-lambda_p * pi * delta**2)) / (pi * delta**2)."""
    return params.lambda_p * mhc_retention(params)


def _pair_retention_active(r: np.ndarray, params: ProcessParams) -> np.ndarray:
    """Joint survival probability for r strictly above the hard-core distance."""
    lam = params.lambda_p
    ball = params.ball_area
    l1 = lens_symmetric(r, params.delta)
    l2 = lens_asymmetric(r, params.delta)
    # on r > delta, l1 <= l2 < ball, so this bounds all four denominators
    # below; the lens areas cancel at r >> delta and can break it
    if not np.all(ball - l2 > 1e-14 * ball):
        raise ValueError(
            f"lens areas lost their precision at radii up to {float(np.max(r))!r} "
            f"(lambda_p = {lam!r}, delta = {params.delta!r})"
        )
    a = lam * ball  # reference-point exposure
    b = lam * (ball - l2)  # candidate exposure when its mark is the lower one
    c = lam * (ball + l1 - l2)  # candidate exposure when its mark is the higher one
    d = lam * (ball - l1)  # reference exposure outside the shared lens
    low = _quotient(expm1_ratio, _E_SERIES, a, b, _SPARSE)
    high = _quotient(expm1_ratio, _E_SERIES, c, d, _SPARSE)
    return low + high


def pair_retention(r: np.ndarray, params: ProcessParams) -> np.ndarray:
    """Probability that a candidate point at distance ``r`` and the reference
    point both survive thinning, given the annulus between the hard-core disk
    and the candidate is void of parent points. Exactly 0 for r <= delta;
    over :func:`mhc_retention`, the first-order mhc-mhc profile."""
    return piecewise(r > params.delta, lambda x: _pair_retention_active(x, params), r)


def _void_lens(r: np.ndarray, delta: float) -> np.ndarray:
    """lens_asymmetric(r, delta), and 0 at r = 0, where it is undefined."""
    return piecewise(r > 0.0, lambda x: lens_asymmetric(x, delta), r)


def retention_ppp_to_mhc(r: np.ndarray, params: ProcessParams) -> np.ndarray:
    """Conditional retention probability of a candidate at distance ``r`` from
    an independent observer whose ball of radius ``r`` is void of parent
    points. Tends to the unconditional retention probability as r -> 0."""
    return expm1_ratio(params.lambda_p * (params.ball_area - _void_lens(r, params.delta)))


def _pair_free(l1: np.ndarray, params: ProcessParams) -> np.ndarray:
    """Matern II two-point retention k(r) for r > delta, from the shared lens
    area ``l1`` = lens_symmetric(r, delta): the probability that two parent
    points at distance r both survive thinning, with no void conditioning.
    k(r) is 0 for r <= delta and mhc_retention**2 once the competition disks
    separate (r > 2 * delta, l1 = 0)."""
    a = params.lambda_p * params.ball_area
    b = params.lambda_p * (params.ball_area - l1)
    return 2.0 * _quotient(expm1_ratio, _E_SERIES, a, b, _SPARSE)


# Taylor coefficients of E(c) = (1 - exp(-c)) / c and of the rival-mark
# average W(c) = (c - 1 + exp(-c)) / c**2; below c = 1 the series is exact to
# double precision after _SERIES_TERMS terms
_SERIES_TERMS = 24
_E_SERIES = np.array([(-1.0) ** k / math.factorial(k + 1) for k in range(_SERIES_TERMS + 1)])
_W_SERIES = np.array([(-1.0) ** k / math.factorial(k + 2) for k in range(_SERIES_TERMS + 1)])


def _below_rival(c: FloatOrArray) -> np.ndarray:
    """W(c): integral of (1 - t) * exp(-c * t) over t in [0, 1], the
    uniform-mark average of survival at exposure c for a point whose mark must
    also stay below one competing uniform mark."""
    c = np.asarray(c, dtype=float)
    small = c < 0.1
    if not small.any():  # speed guard
        return (c + np.expm1(-c)) / (c * c)
    safe = np.where(small, 1.0, c)
    series = np.zeros(c.shape)
    for coeff in _W_SERIES[:10][::-1]:
        series = series * c + coeff
    return np.where(small, series, (safe + np.expm1(-safe)) / (safe * safe))


def _homogeneous_sums(a: FloatOrArray, z: np.ndarray) -> list[np.ndarray]:
    """h_k = sum_{j <= k} a**j * z**(k - j) for k <= _SERIES_TERMS, so that
    (a**(k+1) - z**(k+1)) / (a - z) = h_k without cancellation."""
    h = [np.ones(z.shape)]
    a_k = 1.0
    for _ in range(_SERIES_TERMS):
        a_k *= a
        h.append(h[-1] * z + a_k)
    return h


# exposure below which the mhc-mhc difference quotients are summed from their
# series; above it the direct form keeps at least 12 digits
_SPARSE = 1e-3


def _quotient(f, coeffs: np.ndarray, x: FloatOrArray, y: np.ndarray, switch: float):
    """(f(x) - f(x + y)) / y for f = E or W with Taylor coefficients ``coeffs``.
    The difference cancels at small exposures, so where x + y <= ``switch``
    the quotient is summed from the series, -sum_k coeffs[k] h_{k-1}(x, x + y)."""
    z = x + y
    value = (f(x) - f(z)) / y
    if np.min(z) <= switch:  # speed guard
        small = z <= switch
        h = _homogeneous_sums(x if np.ndim(x) == 0 else x[small], z[small])
        value[small] = -sum(coeffs[k] * h[k - 1] for k in range(1, len(h)))
    return value


def cmhc_pair_retention(s: np.ndarray, params: ProcessParams) -> np.ndarray:
    """Probability that two parent points at distance ``s``, both within
    ``delta`` of a third parent o, survive thinning while o competes with
    each: 2 * (W(a) - W(a + b)) / b with W the rival-mark average
    (c - 1 + exp(-c)) / c**2, a = lambda_p * pi * delta**2 and
    b = lambda_p * (pi * delta**2 - lens_symmetric(s, delta)). Exactly 0 for
    s <= delta, where the two points compete with each other."""
    a = params.lambda_p * params.ball_area

    def active(s):
        b = params.lambda_p * (params.ball_area - lens_symmetric(s, params.delta))
        return 2.0 * _quotient(_below_rival, _W_SERIES, a, b, 1.0)

    return piecewise(s > params.delta, active, s)


def _removed_pair_correlation(u: np.ndarray, params: ProcessParams) -> np.ndarray:
    """(p - k(u)) / (1 - p) for u > delta: the density of survivors at
    distance u from a removed point, over lambda_p. Equals p once the
    competition disks separate (u >= 2 delta), where k = p**2."""
    p = mhc_retention(params)
    a = params.lambda_p * params.ball_area

    def near(u):
        b = params.lambda_p * (params.ball_area - lens_symmetric(u, params.delta))
        z = a + b
        diff = p - 2.0 * (expm1_ratio(a) - expm1_ratio(z)) / b
        small = z <= 1.0
        if np.any(small):  # speed guard
            # p - k cancels for small exposures: sum its series
            h = _homogeneous_sums(a, z[small])
            diff[small] = sum(
                _E_SERIES[k] * (a**k - 2.0 * h[k] / (k + 2)) for k in range(1, len(h))
            )
        # 1 - p = a * W(a) keeps its precision at small a
        return diff / (a * _below_rival(a))

    return piecewise(u < 2.0 * params.delta, near, u, other=lambda u: np.full(u.shape, p))


def _weighted_rows(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise sum of values[:, j] * weights[j], taken in column order. A
    BLAS product may change its summation order with the number of rows, so
    a row's sum would depend on what it is batched with; this one does not."""
    total = values[:, 0] * weights[0]
    for j in range(1, len(weights)):
        total += values[:, j] * weights[j]
    return total


# The inner integrals of eta are fixed functions of one radius for given
# case and parameters, so each RetentionFunction tabulates them once (_Table)
# and eta looks them up; contact_cdf tabulates the hazard density the same
# way. Nodes and fit of the panels' Chebyshev series: first-kind points, so
# that no density is evaluated at a panel edge, where some of them jump;
# cos(k theta_j) with the angle reduced in integers, since rounding
# k * theta_j would put errors of ~1e-15 into every coefficient.
_CHEB_NODES = 17
_CHEB_POINTS = np.cos(math.pi * (np.arange(_CHEB_NODES) + 0.5) / _CHEB_NODES)
_CHEB_FIT = (2.0 / _CHEB_NODES) * np.cos(
    (math.pi / (2 * _CHEB_NODES))
    * (np.outer(np.arange(_CHEB_NODES), 2 * np.arange(_CHEB_NODES) + 1) % (4 * _CHEB_NODES))
)
_CHEB_FIT[0] *= 0.5
# Fejer's first rule on the same points: the integral over [-1, 1] of the
# series through the values, with positive weights
_CHEB_WEIGHTS = (2.0 / (1.0 - np.arange(0, _CHEB_NODES, 2) ** 2.0)) @ _CHEB_FIT[::2]
# a panel is bisected until the last two coefficients of its series fall
# below this share of its largest value
_TAIL_TOL = 1e-15
_MAX_DEPTH = 40


def _chebyshev_fit(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of each row of values at _CHEB_POINTS. Each
    coefficient is a sum over its own row only, so a row's coefficients do
    not depend on the rows it is fitted with."""
    return np.sum(values[:, None, :] * _CHEB_FIT, axis=2)


def _clenshaw(rows: np.ndarray, at: np.ndarray, t: np.ndarray) -> np.ndarray:
    """S(t[i]) for the series S with coefficients rows[:, at[i]]."""
    b1 = np.zeros(t.shape)
    b2 = np.zeros(t.shape)
    two_t = 2.0 * t
    for row in rows[:0:-1]:
        b1, b2 = two_t * b1 - b2 + row[at], b1
    return t * b1 - b2 + rows[0][at]


def _clenshaw_difference(rows, at, x: np.ndarray, y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """S(x[i]) - S(y[i]) for the series S with coefficients rows[:, at[i]],
    given dx = x - y: Clenshaw's recurrence run on the difference of the two
    points' recurrences, which scales with dx instead of cancelling when x
    and y are close."""
    b1 = np.zeros(x.shape)
    b2 = np.zeros(x.shape)
    d1 = np.zeros(x.shape)
    d2 = np.zeros(x.shape)
    two_x, two_y, two_dx = 2.0 * x, 2.0 * y, 2.0 * dx
    for row in rows[:0:-1]:
        d1, d2 = two_x * d1 + two_dx * b1 - d2, d1
        b1, b2 = two_y * b1 - b2 + row[at], b1
    return x * d1 + dx * b1 - d2


class _Table:
    """Piecewise Chebyshev table of a density f(u) from edges[0] on, and of
    its integral from there, built out to the largest radius asked for.

    Top-level panel k spans [edges[k], edges[k + 1]] and runs in
    v = sqrt(|u - cuts[k]|), in which the density is smooth up to a panel
    edge at cuts[k], where lens areas behave like |u - cut|**1.5. Past the
    last edge the panels double in length and keep the last cut. A panel is
    bisected in v until the last two coefficients of its series fall below
    _TAIL_TOL of its largest value, or stop falling, at the noise floor of the
    density. The layout thus depends on (density, edges, cuts) alone, never on
    the order or the extent of the requests, and so does every value and
    integral it returns: eta and F are pure functions of (r, case, params).

    The error estimate of a panel's integral is twice the tail of its series.
    With ``density_error`` the density returns its values and their own error
    estimates, and a panel's estimate adds the integral of the latter.
    """

    def __init__(self, density, edges, cuts, density_error: bool = False):
        self._density = density
        self._density_error = density_error
        self._edges = edges
        self._cuts = cuts
        self._count = 0  # top-level panels built
        self._end = edges[0]
        # per panel, in the order of u: left edge, v-centre and half-width,
        # sign of u - cut, cut, series of f and of its integral (coefficient
        # by row), integral over the panel, error estimates of both series
        self._left = self._mid = self._half = self._sign = self._cut = np.zeros(0)
        self._values = np.zeros((_CHEB_NODES, 0))
        self._anti = np.zeros((_CHEB_NODES + 1, 0))
        self._integral = self._value_err = self._integral_err = np.zeros(0)
        # integral and its error estimate at every panel's left edge, and at
        # the table's end
        self._offset = self._cum_err = np.zeros(1)

    def _edge(self, k: int) -> float:
        extra = k - len(self._edges) + 1
        return self._edges[k] if extra <= 0 else self._edges[-1] * 2.0**extra

    def _extend(self, x_max: float) -> None:
        top = []
        while self._end < x_max:
            k = self._count
            top.append((self._end, self._edge(k + 1), self._cuts[min(k, len(self._cuts) - 1)]))
            self._count += 1
            self._end = top[-1][1]
        if not top:
            return
        lo, hi, cut = (np.array(x) for x in zip(*top))
        sign = np.where(lo >= cut, 1.0, -1.0)
        a, b = np.sqrt(np.abs(lo - cut)), np.sqrt(np.abs(hi - cut))
        pending = (np.minimum(a, b), np.maximum(a, b), sign, cut, lo, np.full(lo.shape, np.inf))
        kept = []
        for depth in range(_MAX_DEPTH + 1):
            a, b, sign, cut, left, prev = pending
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            v = mid[:, None] + half[:, None] * _CHEB_POINTS
            out = self._density((cut[:, None] + sign[:, None] * v * v).ravel())
            f, f_err = out if self._density_error else (out, None)
            f = f.reshape(v.shape)
            du_dt = (2.0 * sign * half)[:, None] * v
            # the integrand in t, f du/dt
            values = np.concatenate([f, f * du_dt])
            coeffs = _chebyshev_fit(values)
            tail = np.abs(coeffs[:, -1]) + np.abs(coeffs[:, -2])
            scale = np.max(np.abs(values), axis=1)
            ratio = np.divide(tail, scale, out=np.zeros(tail.shape), where=scale > 0.0)
            n = len(f)
            integral_err = 2.0 * tail[n:]
            if f_err is not None:
                f_err = np.abs(f_err.reshape(v.shape) * du_dt)
                integral_err += np.sum(f_err * _CHEB_WEIGHTS, axis=1)
            ratio = np.maximum(ratio[:n], ratio[n:])
            # a NaN ratio compares false and is kept, never split
            split = (ratio > _TAIL_TOL) & (ratio <= 0.5 * prev) & (depth < _MAX_DEPTH)
            panels = (left, mid, half, sign, cut, coeffs[:n], coeffs[n:], tail[:n], integral_err)
            kept.append(tuple(x[~split] for x in panels))
            if not split.any():
                break
            a, b, sign, cut, left, m = (x[split] for x in (a, b, sign, cut, left, mid))
            # the child nearer in u to the parent's left edge keeps it
            m_u = cut + sign * m * m
            near = sign > 0.0
            pending = (
                np.concatenate([a, m]),
                np.concatenate([m, b]),
                np.concatenate([sign, sign]),
                np.concatenate([cut, cut]),
                np.concatenate([np.where(near, left, m_u), np.where(near, m_u, left)]),
                np.tile(ratio[split], 2),
            )
        panels = [np.concatenate(x) for x in zip(*kept)]
        order = np.argsort(panels[0])
        left, mid, half, sign, cut, fc, hc, value_err, integral_err = (x[order] for x in panels)
        # integral from the panel's left end in u: t = -1 where u grows with
        # t, t = 1 where it falls
        anti = chebint(hc, lbnd=-1.0, axis=1)
        anti[sign < 0.0, 0] -= np.sum(anti[sign < 0.0], axis=1)
        self._left = np.concatenate([self._left, left])
        self._mid = np.concatenate([self._mid, mid])
        self._half = np.concatenate([self._half, half])
        self._sign = np.concatenate([self._sign, sign])
        self._cut = np.concatenate([self._cut, cut])
        self._values = np.concatenate([self._values, fc.T], axis=1)
        self._anti = np.concatenate([self._anti, anti.T], axis=1)
        integral = _clenshaw(anti.T, np.arange(len(anti)), sign)
        self._integral = np.concatenate([self._integral, integral])
        self._value_err = np.concatenate([self._value_err, value_err])
        self._integral_err = np.concatenate([self._integral_err, integral_err])
        self._offset = np.concatenate([[0.0], np.cumsum(self._integral)])
        self._cum_err = np.concatenate([[0.0], np.cumsum(self._integral_err)])

    def _locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Panel index, v and panel coordinate t of each radius."""
        if x.size:
            self._extend(float(np.max(x)))
        at = np.clip(np.searchsorted(self._left, x, side="right") - 1, 0, None)
        v = np.sqrt(np.abs(x - self._cut[at]))
        return at, v, (v - self._mid[at]) / self._half[at]

    def _span(self, at, x, vx, tx, y, vy, ty) -> np.ndarray:
        """Integral of panel ``at``'s series from radius y to radius x, given
        their v and t. t_x - t_y is taken from x - y, which is exact for
        close radii, where the difference of the rounded t's is not."""
        dv = np.divide(x - y, vx + vy, out=np.zeros(x.shape), where=vx + vy > 0.0)
        return _clenshaw_difference(self._anti, at, tx, ty, self._sign[at] * dv / self._half[at])

    def value(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The density at x and its error estimate."""
        at, _, t = self._locate(x)
        return _clenshaw(self._values, at, t), self._value_err[at]

    def integral(self, hi: np.ndarray, lo: np.ndarray | None = None):
        """Integral of the density from ``lo`` (default: the table's start)
        to ``hi`` >= ``lo``, and its error estimate: the estimates of every
        panel the integral touches."""
        j, vj, tj = self._locate(hi)
        sj = self._sign[j]
        # the left edge of hi's panel, in u, v and t
        left, left_v = self._left[j], self._mid[j] - sj * self._half[j]
        if lo is None:
            value = self._span(j, hi, vj, tj, left, left_v, -sj)
            return self._offset[j] + value, self._cum_err[j + 1]
        i, vi, ti = self._locate(lo)
        same = i == j
        start = (np.where(same, lo, left), np.where(same, vi, left_v), np.where(same, ti, -sj))
        value = self._span(j, hi, vj, tj, *start)
        cross = ~same
        if cross.any():  # speed guard: lo in an earlier panel
            k = i[cross]
            sk = self._sign[k]
            right_v = self._mid[k] + sk * self._half[k]
            head = self._span(k, self._left[k + 1], right_v, sk, lo[cross], vi[cross], ti[cross])
            value[cross] += head + (self._offset[j[cross]] - self._offset[k + 1])
        return value, self._cum_err[j + 1] - self._cum_err[i]


# the inner rule of the second factorial moment at the removed-observer table's
# nodes: 24 points reach rounding at every exposure from 1e-8 to 3e4
_MOMENT_X, _MOMENT_W = leggauss(24)


def _moment_density(rho: np.ndarray, params: ProcessParams) -> np.ndarray:
    """m2'(rho) / 2 for the second factorial moment m2 of :func:`_removed_cdf`,
    0 for rho <= delta/2, where no pair fits. The pair distance s runs in
    v = sqrt(2 rho - s), which smooths the lens edge at s = 2 rho."""
    lam, d = params.lambda_p, params.delta
    # 1 - p = a * W(a) keeps its precision at small a
    a = lam * params.ball_area
    scale = lam * lam / (a * _below_rival(a))

    def pairs(rho):
        half = 0.5 * np.sqrt(2.0 * rho - d)
        v = half[:, None] * (1.0 + _MOMENT_X)
        s = 2.0 * rho[:, None] - v * v
        # d/drho lens_symmetric(s, rho) = 4 rho arccos(s / (2 rho))
        arc = np.arccos(np.minimum(s / (2.0 * rho[:, None]), 1.0))
        weight = scale * 2.0 * v * TWO_PI * s * cmhc_pair_retention(s, params)
        return 0.5 * half * _weighted_rows(weight * 4.0 * rho[:, None] * arc, _MOMENT_W)

    return piecewise(rho > 0.5 * d, pairs, rho)


def _case_tables(case: ContactCase, params: ProcessParams) -> dict[str, _Table]:
    """The unbuilt tables of one case: "h0", the density of the first-order
    hazard in eta's void ratio, or for a removed observer "tail", the density
    2 pi u lambda_p g(u) beyond delta, and "moment", :func:`_moment_density`.
    A moment panel runs about delta/2 below 3 delta/4 and about delta above:
    the moment has a (delta - rho)**3 log(delta - rho) term, which a panel in
    v = sqrt(rho - delta/2) resolves only after eight bisections."""
    lam, d = params.lambda_p, params.delta
    if case is ContactCase.PPP_TO_MHC:
        h0 = lambda u: TWO_PI * lam * u * retention_ppp_to_mhc(u, params)  # noqa: E731
        return {"h0": _Table(h0, (0.0, 0.5 * d, d, 2.0 * d), (0.5 * d,))}
    if case is ContactCase.MHC_TO_MHC:
        p = mhc_retention(params)
        h0 = lambda u: TWO_PI * lam * u * (pair_retention(u, params) / p)  # noqa: E731
        return {"h0": _Table(h0, (d, 2.0 * d), (2.0 * d,))}
    if case is ContactCase.CMHC_TO_MHC:
        tail = lambda u: TWO_PI * lam * u * _removed_pair_correlation(u, params)  # noqa: E731
        moment = lambda rho: _moment_density(rho, params)  # noqa: E731
        return {
            "tail": _Table(tail, (d, 2.0 * d), (2.0 * d,)),
            "moment": _Table(moment, (0.0, 0.5 * d, 0.75 * d, d), (0.5 * d, 0.5 * d, d)),
        }
    return {}


def _eta_ppp_to_mhc(r: np.ndarray, params: ProcessParams, tables: dict[str, _Table]):
    """p * exp(H0(r) - H0(r_e)): pair correlation 1, and the void ratio from
    the first-order hazard H0 over the part of the ball that the candidate's
    own disk does not already keep free of survivors (area pi * r_e**2)."""
    d = params.delta
    r_e = np.sqrt(np.maximum(r * r - _void_lens(r, d) / math.pi, 0.0))
    dh, dh_err = tables["h0"].integral(r, r_e)
    eta = mhc_retention(params) * np.exp(dh)
    return eta, eta * dh_err


def _eta_mhc_to_mhc(r: np.ndarray, params: ProcessParams, tables: dict[str, _Table]):
    """(k(r) / p) * exp(H0(r) - H0(r_e)) above delta, 0 below: pair
    correlation from the unconditional two-point retention, and the void
    ratio over the part of the annulus outside both hard-core disks."""
    d = params.delta
    eta = np.zeros(r.shape)
    err = np.zeros(r.shape)
    active = r > d
    if not np.any(active):  # speed guard
        return eta, err
    ra = r[active]
    l1 = lens_symmetric(ra, d)
    l2 = lens_asymmetric(ra, d)
    r_e = np.sqrt(np.maximum(ra * ra - (l2 - l1) / math.pi, d * d))
    dh, dh_err = tables["h0"].integral(ra, r_e)
    eta[active] = _pair_free(l1, params) / mhc_retention(params) * np.exp(dh)
    err[active] = eta[active] * dh_err
    return eta, err


def _removed_cdf(rho: np.ndarray, params: ProcessParams, moment: _Table):
    """Contact CDF F(rho) of a removed point, its void probability 1 - F(rho)
    and their error estimate, for 0 <= rho <= delta.

    Every survivor within delta of a removed point o beats o's mark, so the
    survivor count N in b(o, rho) has mean (rho/delta)**2 exactly, and
    F = E[N] - E[N(N-1)]/2 up to the rare triples. The second factorial
    moment m2 is the pair density lambda_p**2 * cmhc_pair_retention / (1 - p)
    integrated over point pairs in the ball: over their distance s in
    (delta, 2 rho) with weight 2 pi s * lens_symmetric(s, rho). ``moment``
    tabulates m2'(rho) / 2 (:func:`_moment_density`).
    """
    d = params.delta
    half_m2, err = moment.integral(rho)
    # the void factored so that it keeps full relative precision as rho -> delta
    return (rho / d) ** 2 - half_m2, (d - rho) * (d + rho) / (d * d) + half_m2, err


def _eta_cmhc_to_mhc(r: np.ndarray, params: ProcessParams, tables: dict[str, _Table]):
    """Removed observer. Up to delta, the hazard F'(r) / (1 - F(r)) of
    :func:`_removed_cdf`. Beyond it, g(r) * exp(H0(r) - H0(r_e)) with the
    exact pair correlation lambda_t * g / lambda_p = (p - k(r)) / (1 - p) of
    a removed point and a survivor, and H0 the zeroth-order hazard: that of
    :func:`_removed_cdf` up to delta, then 2 pi u lambda_p g(u)."""
    lam, d = params.lambda_p, params.delta
    moment = tables["moment"]
    eta = np.empty(r.shape)
    err = np.zeros(r.shape)
    inner = r <= d
    if np.any(inner):  # speed guard
        ri = r[inner]
        _, void, void_err = _removed_cdf(ri, params, moment)
        half_dm2, fp_err = moment.value(ri)
        fp = 2.0 * ri / (d * d) - half_dm2
        # F'(r) / (2 pi r lambda_p), whose limit at r = 0 is 1 / (lambda_p pi delta**2)
        positive = ri > 0.0
        rate = np.where(
            positive,
            fp / (TWO_PI * lam * np.where(positive, ri, 1.0)),
            1.0 / (lam * params.ball_area),
        )
        eta[inner] = rate / void
        fp_rel = np.divide(fp_err, fp, out=np.zeros(fp.shape), where=fp_err > 0.0)
        err[inner] = eta[inner] * (fp_rel + void_err / void)
    outer = ~inner
    if np.any(outer):  # speed guard
        ro = r[outer]
        r_e = np.sqrt(np.maximum(ro * ro - lens_asymmetric(ro, d) / math.pi, 0.0))
        dh = np.zeros(ro.shape)
        dh_err = np.zeros(ro.shape)
        back = r_e < d
        if np.any(back):  # speed guard
            # H0(delta) = -log(1 - F(delta)), then back down to r_e
            _, void, void_err = _removed_cdf(np.append(r_e[back], d), params, moment)
            dh[back] = -np.log(void[-1]) + np.log(void[:-1])
            dh_err[back] = void_err[-1] / void[-1] + void_err[:-1] / void[:-1]
        tail, tail_err = tables["tail"].integral(ro, np.maximum(r_e, d))
        g = _removed_pair_correlation(ro, params)
        eta[outer] = g * np.exp(dh + tail)
        err[outer] = eta[outer] * (dh_err + tail_err)
    return eta, err


_EVALUATORS = {
    ContactCase.MHC_TO_MHC: _eta_mhc_to_mhc,
    ContactCase.PPP_TO_MHC: _eta_ppp_to_mhc,
    ContactCase.CMHC_TO_MHC: _eta_cmhc_to_mhc,
}


@dataclass(frozen=True)
class RetentionFunction:
    """Case-dispatched hazard profile eta(r) of the contact distance, with
    hazard 2 pi r lambda_p eta(r).

    By the Mecke/Hanisch identity, lambda_p * eta(r) equals
    lambda_t * g(r) * P^{o,x}(void) / P^{o}(void): the target intensity, the
    source-target pair correlation at distance r, and the ratio of the
    probabilities that b(o, r) holds no target point with and without a
    target at x, |x| = r. The pair correlation is exact for each case. The
    void ratio comes from a one-step closure, exp(H0(r) - H0(r_e)), with H0
    the case's first-order hazard and pi * r_e**2 the area of b(o, r) that the
    target at x does not already keep free of survivors; iterating the closure
    to a fixed point is less accurate and diverges once lambda_p pi delta**2
    exceeds about 1.3. A removed observer is treated exactly up to the
    second factorial moment of its survivor count within delta (see
    :func:`_removed_cdf`). eta is a hazard ratio, not a probability, and
    exceeds 1 where the source attracts targets (removed observers).

    The inner integrals, H0 and the removed observer's second factorial
    moment, depend on one radius each, so every instance tabulates them on
    first use, as piecewise Chebyshev series out to the largest radius asked
    for (see :class:`_Table`), and eta looks them up. The tables belong to
    the instance and their layout depends on (case, params) only, so eta is
    a pure function of (r, case, params), whatever the order of the calls.
    :func:`contact_cdf` tabulates the hazard density 2 pi r lambda_p eta(r)
    the same way, from eta's values at the table's nodes, and reads the
    removed observer's CDF below delta from the moment table directly.

    ``eta(r)`` takes a scalar or an array of any shape and is 1 for ppp-ppp
    and at delta = 0; ``eta(r, with_error=True)`` also returns an error
    estimate: the tail estimates of the table panels that its lookups touch,
    propagated to eta. :func:`contact_cdf` integrates it into ``abs_error``.
    """

    case: ContactCase
    params: ProcessParams
    _tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_tables", _case_tables(self.case, self.params))

    @property
    def lower_support(self) -> float:
        """Radius below which the contact distance has zero probability."""
        if self.case is ContactCase.MHC_TO_MHC:
            return self.params.delta
        return 0.0

    @property
    def target_intensity(self) -> float:
        """Intensity of the process the contact distance is measured to."""
        if self.case is ContactCase.PPP_TO_PPP:
            return self.params.lambda_p
        return mhc_intensity(self.params)

    def __call__(self, r: FloatOrArray, with_error: bool = False):
        scalar = np.ndim(r) == 0
        flat = np.atleast_1d(np.asarray(r, dtype=float)).ravel()
        if self.case is ContactCase.PPP_TO_PPP or self.params.delta == 0.0:
            values, errors = np.ones(flat.shape), np.zeros(flat.shape)
        else:
            evaluate = _EVALUATORS[self.case]
            values, errors = evaluate(flat, self.params, self._tables)
        if scalar:
            values, errors = float(values[0]), float(errors[0])
        else:
            values, errors = values.reshape(np.shape(r)), errors.reshape(np.shape(r))
        return (values, errors) if with_error else values


@dataclass(frozen=True)
class CdfCurve:
    """Sampled analytic contact-distance CDF with error estimates.

    ``hazard`` holds the hazard H(R) at each radius, as :func:`contact_cdf`
    reads it from its table, and ``hazard_error`` its error estimate. The CDF
    ``values``, F = 1 - exp(-H), and ``abs_error``, the error estimate
    propagated to F, exp(-H) * hazard_error, are computed from them on
    access. Each radius's entries depend on that radius alone, never on the
    others in the curve. :meth:`cdf` reads F at any other radii from the same
    table.
    """

    case: ContactCase
    params: ProcessParams
    radii: np.ndarray
    hazard: np.ndarray
    hazard_error: np.ndarray
    abs_tol: float
    _hazard_at: _Hazard = field(repr=False, compare=False)

    @property
    def values(self) -> np.ndarray:
        return -np.expm1(-self.hazard)

    @property
    def abs_error(self) -> np.ndarray:
        return np.exp(-self.hazard) * self.hazard_error

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """F at any radii, read from the table the curve was built from: to
        the bit, the values of a curve built on those radii. 0 below the
        lower support.

        Raises:
            QuadratureError: if the error estimate of F exceeds the curve's
                ``abs_tol`` at any of the radii.
        """
        x = np.asarray(x, dtype=float)
        hazard, herr = self._hazard_at(x)
        _check_error(x, hazard, herr, self.abs_tol)
        return -np.expm1(-hazard)

    def to_dict(self) -> dict:
        """The curve's ``radii``, ``F`` and ``abs_error`` as JSON lists."""
        return {
            "radii": self.radii.tolist(),
            "F": self.values.tolist(),
            "abs_error": self.abs_error.tolist(),
        }


# The radii, in delta units, where eta is not smooth in any case: the lens
# breakpoints 1/2, 1 and 2, and the radii whose r_e reaches them, where
# r_e**2 = r**2 - lens_asymmetric(r, delta) / pi and H0(r_e) changes form
_KINKS = (0.5, 0.7793057626307204, 1.0, 1.186981892266404, 2.0, 2.1093627037391927)


def _lens_breakpoints(params: ProcessParams, lo: float, hi: float) -> list[float]:
    """The lens breakpoints delta/2, delta and 2 delta strictly between lo and hi."""
    d = params.delta
    return sorted(c for c in (0.5 * d, d, 2.0 * d) if lo < c < hi)


def _hazard_table(eta: RetentionFunction, start: float) -> _Table:
    """Table of the hazard density 2 pi u lambda_p eta(u) from ``start`` on.

    Its edges are eta's kinks above ``start`` (a Poisson curve has none, and
    its first edges sit at the mean spacing), and each stretch between two
    of them is split at its midpoint, so that every top-level panel runs in
    sqrt(|u - c|) about its singular end c."""
    params = eta.params
    lam, d = params.lambda_p, params.delta
    if eta.case is ContactCase.PPP_TO_PPP or d == 0.0:
        kinks = [1.0 / math.sqrt(lam)]
    else:
        kinks = [k * d for k in _KINKS]
    points = [start] + [k for k in kinks if k > start]
    edges, cuts = [start], []
    for a, b in zip(points[:-1], points[1:]):
        edges += [0.5 * (a + b), b]
        cuts += [a, b]

    def density(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, errors = eta(u, with_error=True)
        return TWO_PI * lam * u * values, TWO_PI * lam * u * errors

    return _Table(density, tuple(edges), tuple(cuts), density_error=True)


def _removed_hazard(rho: np.ndarray, params: ProcessParams, moment: _Table):
    """Hazard -log(1 - F(rho)) of a removed point and its error estimate, for
    0 <= rho <= delta, with F in closed form (:func:`_removed_cdf`)."""
    f, void, err = _removed_cdf(rho, params, moment)
    # log1p keeps the relative precision of a small F, log that of a small void
    hazard = -np.log(void)
    small = f < 0.5
    hazard[small] = -np.log1p(-f[small])
    return hazard, err / void


class _Hazard:
    """The hazard H(r) of one curve and its error estimate at any radii,
    read from one table of the hazard density (:func:`_hazard_table`) that
    grows out to the largest radius read. H starts at the case's lower
    support. A removed observer (cmhc-mhc) needs no table up to delta: there
    H is read in closed form (:func:`_removed_hazard`), and the table starts
    at delta from H(delta)."""

    def __init__(self, eta: RetentionFunction):
        self._params = eta.params
        self._start = eta.lower_support
        self._moment = None
        if eta.case is ContactCase.CMHC_TO_MHC and eta.params.delta > 0.0:
            self._start = eta.params.delta
            self._moment = eta._tables["moment"]
        self._table = _hazard_table(eta, self._start)

    def __call__(self, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hazard = np.zeros(radii.shape)
        herr = np.zeros(radii.shape)
        offset = offset_err = 0.0
        if self._moment is not None:
            inner = (radii > 0.0) & (radii <= self._start)
            at = np.append(radii[inner], self._start)
            h, e = _removed_hazard(at, self._params, self._moment)
            hazard[inner], herr[inner] = h[:-1], e[:-1]
            offset, offset_err = h[-1], e[-1]
        outer = radii > self._start
        h, e = self._table.integral(radii[outer])
        hazard[outer] = offset + h
        herr[outer] = offset_err + e
        return hazard, herr


def _check_error(radii: np.ndarray, hazard: np.ndarray, herr: np.ndarray, abs_tol: float):
    """Raise :class:`QuadratureError` where the error estimate of F exceeds
    ``abs_tol``."""
    error = np.exp(-hazard) * herr
    if not np.all(error <= abs_tol):
        worst = int(np.argmax(np.where(np.isnan(error), np.inf, error)))
        raise QuadratureError(
            f"quadrature stalled at r = {float(radii[worst])!r}: the hazard table's error "
            f"estimate {error[worst]:.3e} of F exceeds the tolerance {abs_tol:.3e}"
        )


def contact_cdf(eta: RetentionFunction, r_grid: FloatOrArray, abs_tol: float = 1e-9) -> CdfCurve:
    """Contact-distance CDF F(R) = 1 - exp(-H(R)) at each radius of an
    ascending grid, with hazard H(R) = integral of 2*pi*r*lambda_p*eta(r).

    H starts at the case's lower support (the hard-core distance when both
    endpoints live in the thinned process, zero otherwise), so the returned
    curve is monotone by construction. One piecewise Chebyshev table of the
    hazard density (:class:`_Table`), with edges at eta's kinks (the lens
    breakpoints delta/2, delta, 2 delta and the radii whose r_e reaches
    them), is built out to the last radius, and H is read from it at every
    radius in one lookup. A removed observer (cmhc-mhc) needs no hazard up
    to delta: there F = (r/delta)**2 - m2/2 in closed form
    (:func:`_removed_cdf`), and the table starts at delta from H(delta). The
    table's layout depends on (case, params) alone, so F at a radius is the
    same, to the bit, on any grid that holds it and at any tolerance. The
    curve keeps its table, and :meth:`CdfCurve.cdf` reads F at any other
    radii from it.

    ``abs_error`` is exp(-H) times the error estimate of H: the tails of the
    table panels up to each radius, plus the integral of eta's own error
    estimate (see :class:`RetentionFunction`). Both are built to about 1e-15
    of their own scale, so the estimate bounds table error, not the rounding
    inside eta's closed forms.

    Raises:
        QuadratureError: if ``abs_error`` exceeds ``abs_tol`` at any radius.
    """
    grid = np.asarray(r_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("r_grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(grid)) or np.any(grid < 0.0):
        raise ValueError("r_grid must be finite and non-negative")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("r_grid must be strictly ascending")
    if not (math.isfinite(abs_tol) and abs_tol > 0.0):
        raise ValueError(f"abs_tol must be > 0, got {abs_tol!r}")

    hazard_at = _Hazard(eta)
    hazard, herr = hazard_at(grid)
    _check_error(grid, hazard, herr, abs_tol)
    return CdfCurve(eta.case, eta.params, grid, hazard, herr, abs_tol, hazard_at)


def _spaced(lo: float, hi: float, step: float | None) -> np.ndarray:
    """Radii from ``lo`` to ``hi``, both included, at most ``step`` apart;
    eight steps when there is no step to keep."""
    step = (hi - lo) / 8.0 if step is None else step
    return np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / step)) + 1))


def extend_curve(curve: CdfCurve, r_max: float, r_min: float | None = None) -> CdfCurve:
    """The curve on its own radii and more: out to ``r_max`` and, when
    ``r_min`` lies below its first radius, down from its lower support, where
    F is 0, with the lens breakpoints below its last radius (the curve itself
    when it already spans both). New radii keep the curve's median step. F
    is a lookup, so the curve's own radii keep their values to the bit."""
    steps = np.diff(curve.radii)
    positive = steps[steps > 0.0]
    step = float(np.median(positive)) if positive.size else None
    eta = RetentionFunction(curve.case, curve.params)
    radii = curve.radii
    first, last = float(radii[0]), float(radii[-1])
    if r_min is not None and float(r_min) < first and first > eta.lower_support:
        below = _spaced(eta.lower_support, first, step)[:-1]
        cuts = _lens_breakpoints(curve.params, eta.lower_support, last)
        radii = np.union1d(np.concatenate([below, radii]), cuts)
    if float(r_max) > last:
        radii = np.concatenate([radii, _spaced(last, float(r_max), step)[1:]])
    return curve if radii is curve.radii else contact_cdf(eta, radii, curve.abs_tol)


def default_r_grid(
    case: ContactCase,
    params: ProcessParams,
    points: int = 200,
    r_min: float | None = None,
    r_max: float | None = None,
) -> np.ndarray:
    """Uniform radius grid from ``r_min`` (default: the lower support) to
    ``r_max`` (default: 4 mean target spacings further), covering the
    visually interesting range of the CDF."""
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    eta = RetentionFunction(case, params)
    lo = eta.lower_support if r_min is None else float(r_min)
    hi = lo + 4.0 / math.sqrt(eta.target_intensity) if r_max is None else float(r_max)
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"radius range [{lo!r}, {hi!r}] must be finite and non-empty")
    return np.linspace(lo, hi, points)
