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

Every case's eta and F depend on (r, lambda_p, delta) only through r / delta
and lambda_p * delta**2, so the kernels below :class:`RetentionFunction`
work in delta units, on radii rho = r / delta and one parameter
``lam`` = lambda_p * delta * delta (exposure lam * pi). They take node arrays
of any shape and return the same shape. Only :class:`RetentionFunction` and
:class:`_Hazard` know delta: they keep their tables in delta units, at
``lam``, and read them at r / delta. Only they take scalars and read
Poisson curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.polynomial.chebyshev import chebval
from numpy.polynomial.legendre import leggauss

from .geometry import FloatOrArray, _validated, lens_asymmetric, lens_symmetric, piecewise

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
    ``delta > 0`` must leave pi * delta * delta finite and the exposure
    lambda_p * delta * delta * pi, formed as the delta-unit model forms it, a
    finite normal double: the closed forms divide by it.
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
        normal = np.finfo(float).tiny <= lam * delta * delta * math.pi < math.inf
        if delta > 0.0 and not (normal and math.pi * delta * delta < math.inf):
            raise ValueError(
                f"delta = {self.delta!r} with lambda_p = {self.lambda_p!r}: pi*delta**2 "
                "must be finite and lambda_p*delta**2*pi a finite normal double"
            )
        object.__setattr__(self, "lambda_p", lam)
        object.__setattr__(self, "delta", delta)


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
    return float(expm1_ratio(params.lambda_p * (math.pi * params.delta**2)))


def mhc_intensity(params: ProcessParams) -> float:
    """Intensity of the thinned hard-core process,
    (1 - exp(-lambda_p * pi * delta**2)) / (pi * delta**2)."""
    return params.lambda_p * mhc_retention(params)


def pair_retention(r: np.ndarray, lam: float) -> np.ndarray:
    """Probability that a candidate point at distance ``r`` and the reference
    point both survive thinning, given the annulus between the hard-core disk
    and the candidate is void of parent points. Exactly 0 for r <= 1; over
    :func:`mhc_retention`, the first-order mhc-mhc profile. On r > 1, l1 <=
    l2 <= pi/2, so every exposure below is at least lam * pi / 2."""

    def active(r):
        l1 = lens_symmetric(r)
        l2 = lens_asymmetric(r)
        a = lam * math.pi  # reference-point exposure
        b = lam * (math.pi - l2)  # candidate exposure when its mark is the lower one
        c = lam * (math.pi + l1 - l2)  # candidate exposure when its mark is the higher one
        d = lam * (math.pi - l1)  # reference exposure outside the shared lens
        low = _quotient(expm1_ratio, _E_SERIES, a, b, _SPARSE)
        high = _quotient(expm1_ratio, _E_SERIES, c, d, _SPARSE)
        return low + high

    return piecewise(r > 1.0, active, r)


def retention_ppp_to_mhc(r: np.ndarray, lam: float) -> np.ndarray:
    """Conditional retention probability of a candidate at distance ``r`` from
    an independent observer whose ball of radius ``r`` is void of parent
    points. Tends to the unconditional retention probability as r -> 0."""
    return expm1_ratio(lam * (math.pi - lens_asymmetric(r)))


def _pair_free(l1: np.ndarray, lam: float) -> np.ndarray:
    """Matern II two-point retention k(r) for r > 1, from the shared lens
    area ``l1`` = lens_symmetric(r): the probability that two parent
    points at distance r both survive thinning, with no void conditioning.
    k(r) is 0 for r <= 1 and mhc_retention**2 once the competition disks
    separate (r > 2, l1 = 0)."""
    a = lam * math.pi
    b = lam * (math.pi - l1)
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


def cmhc_pair_retention(s: np.ndarray, lam: float) -> np.ndarray:
    """Probability that two parent points at distance ``s``, both within
    distance 1 of a third parent o, survive thinning while o competes with
    each: 2 * (W(a) - W(a + b)) / b with W the rival-mark average
    (c - 1 + exp(-c)) / c**2, a = lam * pi and
    b = lam * (pi - lens_symmetric(s)). Exactly 0 for s <= 1, where the
    two points compete with each other."""
    a = lam * math.pi

    def active(s):
        b = lam * (math.pi - lens_symmetric(s))
        return 2.0 * _quotient(_below_rival, _W_SERIES, a, b, 1.0)

    return piecewise(s > 1.0, active, s)


def _removed_pair_correlation(u: np.ndarray, lam: float) -> np.ndarray:
    """(p - k(u)) / (1 - p) for u > 1: the density of survivors at
    distance u from a removed point, over lam. Equals p once the
    competition disks separate (u >= 2), where k = p**2."""
    p = expm1_ratio(lam * math.pi)
    a = lam * math.pi

    def near(u):
        b = lam * (math.pi - lens_symmetric(u))
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

    return piecewise(u < 2.0, near, u, other=lambda u: np.full(u.shape, p))


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
    coefficient is an elementwise sum over its own row only, so every element
    goes through the same operations in the same order whatever rows it is
    fitted with; a BLAS product would not keep that order (see
    :func:`_weighted_rows`)."""
    return np.sum(values[:, None, :] * _CHEB_FIT, axis=2)


# 2k for k = 1, ..., _CHEB_NODES: the divisors of an integral's coefficients
_TWO_K = 2.0 * np.arange(1, _CHEB_NODES + 1)


def _chebyshev_integral(coeffs: np.ndarray) -> np.ndarray:
    """chebint(coeffs, lbnd=-1.0, axis=1): the coefficients of the integral
    from -1 of each row's series, in closed form on whole columns instead of
    numpy's loop over them. t_1 = c_0 - c_2 / 2, t_k = c_{k-1} / (2k) -
    c_{k+1} / (2k) for k >= 2, and t_0 = c_0 * 0 minus the same chebval at
    -1. Each element goes through chebint's operations in chebint's order,
    and the result has its memory layout, so every bit is chebint's."""
    c = coeffs.T
    n = len(c)
    t = np.empty((n + 1, c.shape[1]))
    t[0] = c[0] * 0
    t[1] = c[0]
    t[2:] = c[1:] / _TWO_K[1:n, None]
    t[1 : n - 1] -= c[2:] / _TWO_K[: n - 2, None]
    t[0] += 0 - chebval(-1.0, t)
    return t.T


def _clenshaw(rows: np.ndarray, at: np.ndarray, t: np.ndarray) -> np.ndarray:
    """S(t[i]) for the series S with coefficients rows[:, at[i]]: the
    recurrence b1, b2 = 2t * b1 - b2 + c_k, b1, updated in place. Its bits
    rest on three facts. A gather does not change a value. The in-place
    updates take each element through the same operations in the same order.
    All are elementwise, so an entry depends on its own coefficients and t
    alone; a BLAS product would not keep that (see :func:`_weighted_rows`).
    Each row is gathered as the recurrence reaches it: a gather of all rows
    at once holds every coefficient of every entry, which leaves the cache at
    large sizes."""
    b1 = np.zeros(t.shape)
    b2 = np.zeros(t.shape)
    scratch = np.empty(t.shape)
    two_t = 2.0 * t
    for row in rows[:0:-1]:
        np.multiply(two_t, b1, out=scratch)
        np.subtract(scratch, b2, out=b2)
        b2 += row[at]
        b1, b2 = b2, b1
    return t * b1 - b2 + rows[0][at]


def _clenshaw_difference(rows, at, x: np.ndarray, y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """S(x[i]) - S(y[i]) for the series S with coefficients rows[:, at[i]],
    given dx = x - y: Clenshaw's recurrence run on the difference of the two
    points' recurrences, which scales with dx instead of cancelling when x
    and y are close: d1, d2 = 2x * d1 + 2dx * b1 - d2, d1, then
    b1, b2 = 2y * b1 - b2 + c_k, b1. As in :func:`_clenshaw`, row gathers,
    which change no value, and elementwise updates in place, which take each
    element through the same operations in the same order."""
    b1 = np.zeros(x.shape)
    b2 = np.zeros(x.shape)
    d1 = np.zeros(x.shape)
    d2 = np.zeros(x.shape)
    scratch = np.empty(x.shape)
    step = np.empty(x.shape)
    two_x, two_y, two_dx = 2.0 * x, 2.0 * y, 2.0 * dx
    for row in rows[:0:-1]:
        np.multiply(two_x, d1, out=scratch)
        np.multiply(two_dx, b1, out=step)
        scratch += step
        np.subtract(scratch, d2, out=d2)
        d1, d2 = d2, d1
        np.multiply(two_y, b1, out=scratch)
        np.subtract(scratch, b2, out=b2)
        b2 += row[at]
        b1, b2 = b2, b1
    return x * d1 + dx * b1 - d2


class _Table:
    """Piecewise Chebyshev table of the integral of a density f(u) from
    edges[0] on, built out to the largest radius asked for. Each panel fits
    f only to decide whether to bisect, and stores only the series of the
    integral: the table holds no density series.

    Top-level panel k spans [edges[k], edges[k + 1]] and runs in
    v = sqrt(|u - cuts[k]|), in which the density is smooth up to a panel
    edge at cuts[k], where lens areas behave like |u - cut|**1.5. Past the
    last edge the panels double in length and keep the last cut. A panel is
    bisected in v until the last two coefficients of its series fall below
    _TAIL_TOL of its largest value, or stop falling, at the noise floor of the
    density. The layout thus depends on (density, edges, cuts) alone, never on
    the order or the extent of the requests, and so does every integral it
    returns: eta and F are pure functions of (r, case, params).

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
        # sign of u - cut, cut, series of the integral (coefficient by row),
        # integral over the panel and its error estimate
        self._left = self._mid = self._half = self._sign = self._cut = np.zeros(0)
        self._anti = np.zeros((_CHEB_NODES + 1, 0))
        self._integral = self._integral_err = np.zeros(0)
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
        # by row: the ends of each panel in v, sign of u - cut, cut, left
        # edge in u, and the tail ratio of its parent
        ends = (np.minimum(a, b), np.maximum(a, b))
        pending = np.stack([*ends, sign, cut, lo, np.full(lo.shape, np.inf)])
        levels, kept = [], []
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
            panels = (left, mid, half, sign, cut, coeffs[n:], integral_err)
            levels.append(panels)
            kept.append(~split)
            if not split.any():
                break
            parent = pending[:, split]
            parent[5] = ratio[split]
            m = mid[split]
            # the child nearer in u to the parent's left edge keeps it
            m_u = parent[3] + parent[2] * m * m
            near = parent[2] > 0.0
            pending = np.concatenate([parent, parent], axis=1)
            lower, upper = pending[:, : len(m)], pending[:, len(m) :]
            lower[1] = upper[0] = m
            lower[4], upper[4] = np.where(near, parent[4], m_u), np.where(near, m_u, parent[4])
        panels = [np.concatenate(x) for x in zip(*levels)]
        keep = np.flatnonzero(np.concatenate(kept))
        order = keep[np.argsort(panels[0][keep])]
        left, mid, half, sign, cut, hc, integral_err = (x[order] for x in panels)
        # integral from the panel's left end in u: t = -1 where u grows with
        # t, t = 1 where it falls
        anti = _chebyshev_integral(hc)
        anti[sign < 0.0, 0] -= np.sum(anti[sign < 0.0], axis=1)
        self._left = np.concatenate([self._left, left])
        self._mid = np.concatenate([self._mid, mid])
        self._half = np.concatenate([self._half, half])
        self._sign = np.concatenate([self._sign, sign])
        self._cut = np.concatenate([self._cut, cut])
        self._anti = np.concatenate([self._anti, anti.T], axis=1)
        integral = _clenshaw(anti.T, np.arange(len(anti)), sign)
        self._integral = np.concatenate([self._integral, integral])
        self._integral_err = np.concatenate([self._integral_err, integral_err])
        self._offset = np.concatenate([[0.0], np.cumsum(self._integral)])
        self._cum_err = np.concatenate([[0.0], np.cumsum(self._integral_err)])

    def _locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Panel index, v and panel coordinate t of each radius."""
        if x.size:
            self._extend(float(np.max(x)))
        at = np.maximum(np.searchsorted(self._left, x, side="right") - 1, 0)
        v = np.sqrt(np.abs(x - self._cut[at]))
        return at, v, (v - self._mid[at]) / self._half[at]

    def _span(self, at, width, vx, tx, vy, ty) -> np.ndarray:
        """Integral of panel ``at``'s series from radius y to radius x, given
        their v and t and the ``width`` x - y, from which t_x - t_y is taken:
        the difference of the rounded t's of close radii is not precise."""
        dv = np.divide(width, vx + vy, out=np.zeros(width.shape), where=vx + vy > 0.0)
        return _clenshaw_difference(self._anti, at, tx, ty, self._sign[at] * dv / self._half[at])

    def integral(self, hi: np.ndarray, width: np.ndarray | None = None):
        """Integral of the density over the ``width`` >= 0 below ``hi``, taken
        as given within hi's panel (default: from the table's start), and its
        error estimate: the estimates of every panel the integral touches."""
        j, vj, tj = self._locate(hi)
        sj = self._sign[j]
        # the left edge of hi's panel, in u, v and t
        left, left_v = self._left[j], self._mid[j] - sj * self._half[j]
        if width is None:
            value = self._span(j, hi - left, vj, tj, left_v, -sj)
            return self._offset[j] + value, self._cum_err[j + 1]
        lo = hi - width
        i, vi, ti = self._locate(lo)
        same = i == j
        start = (np.where(same, width, hi - left), vj, tj, np.where(same, vi, left_v),
                 np.where(same, ti, -sj))
        cross = ~same
        if not cross.any():  # speed guard: lo in hi's panel throughout
            return self._span(j, *start), self._cum_err[j + 1] - self._cum_err[i]
        # the span in hi's panel and, where lo lies in an earlier panel k, the
        # head of k from lo to k's right edge, in one run over both
        k = i[cross]
        sk = self._sign[k]
        right_v = self._mid[k] + sk * self._half[k]
        head = (k, self._left[k + 1] - lo[cross], right_v, sk, vi[cross], ti[cross])
        spans = self._span(*map(np.concatenate, zip((j, *start), head)))
        value = spans[: len(hi)]
        value[cross] += spans[len(hi) :] + (self._offset[j[cross]] - self._offset[k + 1])
        return value, self._cum_err[j + 1] - self._cum_err[i]


# the inner rule of the second factorial moment at the removed-observer table's
# nodes: 24 points reach rounding at every exposure from 1e-8 to 3e4
_MOMENT_X, _MOMENT_W = leggauss(24)


def _moment_density(rho: np.ndarray, lam: float) -> np.ndarray:
    """m2'(rho) / 2 for the second factorial moment m2 of :func:`_removed_hazard`,
    0 for rho <= 1/2, where no pair fits. The pair distance s runs in
    v = sqrt(2 rho - s), which smooths the lens edge at s = 2 rho."""
    # lam**2 / (1 - p), 1 - p = a W(a) at a = lam pi, without lam**2's underflow
    scale = lam / (math.pi * _below_rival(lam * math.pi))

    def pairs(rho):
        half = 0.5 * np.sqrt(2.0 * rho - 1.0)
        v = half[:, None] * (1.0 + _MOMENT_X)
        s = 2.0 * rho[:, None] - v * v
        # d/drho rho**2 lens_symmetric(s / rho) = 4 rho arccos(s / (2 rho))
        arc = np.arccos(s / (2.0 * rho[:, None]))
        weight = scale * 2.0 * v * TWO_PI * s * cmhc_pair_retention(s, lam)
        return 0.5 * half * _weighted_rows(weight * 4.0 * rho[:, None] * arc, _MOMENT_W)

    return piecewise(rho > 0.5, pairs, rho)


def _case_tables(case: ContactCase, lam: float) -> dict[str, _Table]:
    """The unbuilt tables of one hard-core case, a set per RetentionFunction:
    "h0", the density of the first-order hazard H0 in eta's void ratio (for
    a removed observer its density 2 pi u lam g(u) beyond 1), and for a
    removed observer also "moment", :func:`_moment_density`, which only
    :func:`_removed_hazard` reads. A moment panel runs about 1/2 below 3/4
    and about 1 above: the moment has a (1 - rho)**3 log(1 - rho) term, which
    a panel in v = sqrt(rho - 1/2) resolves only after eight bisections."""
    if case is ContactCase.PPP_TO_MHC:
        h0 = lambda u: TWO_PI * lam * u * retention_ppp_to_mhc(u, lam)  # noqa: E731
        return {"h0": _Table(h0, (0.0, 0.5, 1.0, 2.0), (0.5,))}
    if case is ContactCase.MHC_TO_MHC:
        p = expm1_ratio(lam * math.pi)
        h0 = lambda u: TWO_PI * lam * u * (pair_retention(u, lam) / p)  # noqa: E731
        return {"h0": _Table(h0, (1.0, 2.0), (2.0,))}
    h0 = lambda u: TWO_PI * lam * u * _removed_pair_correlation(u, lam)  # noqa: E731
    moment = _Table(lambda rho: _moment_density(rho, lam), (0.0, 0.5, 0.75, 1.0), (0.5, 0.5, 1.0))
    return {"h0": _Table(h0, (1.0, 2.0), (2.0,)), "moment": moment}


def _void_radius(r: np.ndarray, kept: np.ndarray, floor: float):
    """r_e = sqrt(r**2 - kept), and the width r - max(r_e, ``floor``) that the
    void ratio integrates over, as min(kept / (r + r_e), r - floor): that
    keeps the relative precision which r minus the rounded r_e loses."""
    r_e = np.sqrt(np.maximum(r * r - kept, 0.0))
    width = np.divide(kept, r + r_e, out=np.zeros(r.shape), where=r > 0.0)
    return r_e, np.minimum(width, r - floor)


def _removed_hazard(rho: np.ndarray, moment: _Table):
    """Contact hazard H(rho) = -log(1 - F(rho)) of a removed point, its error
    estimate and the void probability 1 - F(rho), for 0 <= rho <= 1.

    Every survivor within distance 1 of a removed point o beats o's mark, so
    the survivor count N in b(o, rho) has mean rho**2 exactly, and
    F = E[N] - E[N(N-1)]/2 up to the rare triples. The second factorial
    moment m2 is the pair density lam**2 * cmhc_pair_retention / (1 - p)
    integrated over point pairs in the ball: over their distance s in
    (1, 2 rho) with weight 2 pi s * rho**2 lens_symmetric(s / rho), the lens
    of two disks of radius rho. ``moment`` tabulates m2'(rho) / 2
    (:func:`_moment_density`). H takes log1p of F below F = 1/2, which keeps
    the relative precision of a small F, and the log of the void above it,
    factored so that it keeps full relative precision as rho -> 1.
    """
    half_m2, err = moment.integral(rho)
    f = rho**2 - half_m2
    void = (1.0 - rho) * (1.0 + rho) + half_m2
    h = -np.log(void)
    small = f < 0.5
    h[small] = -np.log1p(-f[small])
    return h, err / void, void


def _eta(case: ContactCase, rho: np.ndarray, lam: float, tables: dict[str, _Table]):
    """eta(rho) of a hard-core case at exposure lam * pi, and its error
    estimate: g(rho) * exp(H0(rho) - H0(r_e)), the pair correlation times the
    one-step closure of the void ratio (see :class:`RetentionFunction`), with
    H0 from the "h0" table of :func:`_case_tables`. g is p for ppp-mhc,
    k(rho) / p for mhc-mhc and (p - k(rho)) / (1 - p), that of a removed
    point and a survivor, for cmhc-mhc. pi (rho**2 - r_e**2) is the area of
    b(o, rho) that the target's own disk keeps free of survivors,
    lens_asymmetric, less the lens l1 of o's disk for mhc-mhc; r_e's floor
    is 0 for ppp-mhc, 1 for the others. mhc-mhc's eta is 0 up to 1. A
    removed observer's H0 is H of :func:`_removed_hazard` up to 1, and up to
    1 its eta is that closed form's hazard rate F' / (1 - F), with H's error
    estimate."""
    eta, err = np.zeros(rho.shape), np.zeros(rho.shape)
    floor = 0.0 if case is ContactCase.PPP_TO_MHC else 1.0
    outer = rho > 1.0 if floor else slice(None)
    if case is ContactCase.CMHC_TO_MHC and not outer.all():  # speed guard
        inner = ~outer
        ri = rho[inner]
        _, e, void = _removed_hazard(ri, tables["moment"])
        fp = 2.0 * ri - _moment_density(ri, lam)
        # F'(r) / (2 pi r lam), whose limit at r = 0 is 1 / (lam pi)
        limit = np.full(ri.shape, 1.0 / (lam * math.pi))
        rate = np.divide(fp, TWO_PI * lam * ri, out=limit, where=ri > 0.0)
        # about 1 / (lam pi (1 - rho**2)), past the largest double at a
        # vanishing exposure and rho near 1: eta is inf there
        with np.errstate(over="ignore"):
            rate /= void
        eta[inner] = rate
        # an exact eta keeps an error of 0 where it is inf, not inf * 0
        err[inner] = np.multiply(rate, e, out=np.zeros(ri.shape), where=e != 0.0)
    ro = rho[outer]
    if not ro.size:  # speed guard
        return eta, err
    kept = lens_asymmetric(ro)
    if case is ContactCase.PPP_TO_MHC:
        g = expm1_ratio(lam * math.pi)
    elif case is ContactCase.MHC_TO_MHC:
        l1 = lens_symmetric(ro)
        kept = kept - l1
        g = _pair_free(l1, lam) / expm1_ratio(lam * math.pi)
    else:
        g = _removed_pair_correlation(ro, lam)
    r_e, width = _void_radius(ro, kept / math.pi, floor)
    dh, dh_err = tables["h0"].integral(ro, width)
    if case is ContactCase.CMHC_TO_MHC:
        back = r_e < 1.0
        if np.any(back):  # speed guard
            # H0(1) = -log(1 - F(1)), then back down to r_e
            h, e, _ = _removed_hazard(np.append(r_e[back], 1.0), tables["moment"])
            dh[back] += h[-1] - h[:-1]
            dh_err[back] += e[-1] + e[:-1]
    eta[outer] = g * np.exp(dh)
    err[outer] = eta[outer] * dh_err
    return eta, err


def _check_case(case: ContactCase, params: ProcessParams) -> None:
    """Raise ValueError for cmhc-mhc at delta 0, where no point is removed."""
    if case is ContactCase.CMHC_TO_MHC and params.delta == 0.0:
        raise ValueError("cmhc-mhc needs delta > 0: thinning at delta 0 removes no point")


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
    :func:`_removed_hazard`). eta is a hazard ratio, not a probability, and
    exceeds 1 where the source attracts targets (removed observers).

    eta is a pure function of (r / delta, case, lambda_p delta**2), so an
    instance keeps its tables in delta units, at lam = lambda_p * delta *
    delta, and evaluates eta (:func:`_eta`) at r / delta, or at r itself
    when delta = 1. The tables hold the inner integrals, H0 and the removed
    observer's second factorial moment, which depend on one radius each.
    Each is built on first use as piecewise Chebyshev series out to the
    largest radius asked for (see :class:`_Table`), and eta looks them up,
    whatever the order of the calls.

    ``eta(r)`` takes a scalar or an array of any shape and is 1 for ppp-ppp
    and at delta = 0, which have no tables; ``eta(r, with_error=True)`` also
    returns an error estimate: the tail estimates of the table panels that
    its lookups touch, propagated to eta. :func:`contact_cdf` integrates it
    into ``abs_error``.

    Raises:
        ValueError: for cmhc-mhc at delta = 0, which has no removed observer.
        DomainError: when called at a negative, NaN or infinite radius.
    """

    case: ContactCase
    params: ProcessParams
    # the tables of eta at (lambda_p * delta * delta, 1), none for a Poisson curve
    _tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_case(self.case, self.params)
        d = self.params.delta
        poisson = self.case is ContactCase.PPP_TO_PPP or d == 0.0
        tables = {} if poisson else _case_tables(self.case, self.params.lambda_p * d * d)
        object.__setattr__(self, "_tables", tables)

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
        flat = _validated(r).ravel()
        d = self.params.delta
        if self._tables:
            rho = flat if d == 1.0 else flat / d
            values, errors = _eta(self.case, rho, self.params.lambda_p * d * d, self._tables)
        else:
            values, errors = np.ones(flat.shape), np.zeros(flat.shape)
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
        lower support, and so at every negative radius.

        Raises:
            ValueError: at a NaN radius.
            QuadratureError: if the error estimate of F exceeds the curve's
                ``abs_tol`` at any of the radii.
        """
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise ValueError("F is not defined at a NaN radius")
        return -np.expm1(-self._hazard_at(np.maximum(x, 0.0), self.abs_tol)[0])

    def to_dict(self) -> dict:
        """The curve's ``radii``, ``F`` and ``abs_error`` as JSON lists."""
        return {
            "radii": self.radii.tolist(),
            "F": self.values.tolist(),
            "abs_error": self.abs_error.tolist(),
        }


# The radii, in delta units, where eta is not smooth in any case: the lens
# breakpoints 1/2, 1 and 2, and the radii whose r_e reaches them, where
# r_e**2 = r**2 - lens_asymmetric(r) / pi and H0(r_e) changes form
_KINKS = (0.5, 0.7793057626307204, 1.0, 1.186981892266404, 2.0, 2.1093627037391927)

# Dense curves saturate, so each case reads the curve at its saturation
# exposure beyond it. mhc-mhc and ppp-mhc: the curves at exposures 1e4 to
# 1e150 lie within 2.2e-16 of the exposure-60 curve (50 is 5.6e-15 away), and
# near 3e200 the mhc-mhc closed forms lose every digit and F reads 0.
# cmhc-mhc approaches its limit as ~0.133 / exposure: every curve from 1e16
# to 1e150 lies within 1.2e-16 of the exposure-1e150 curve, and from 1e154
# the rival-mark average overflows.
_SATURATED_EXPOSURE = {
    ContactCase.MHC_TO_MHC: 60.0,
    ContactCase.PPP_TO_MHC: 60.0,
    ContactCase.CMHC_TO_MHC: 1e16,
}

# The largest r / delta a curve is read at: beyond it, the doubling table
# panels and the squares of their radii leave the range of doubles. Default
# grids reach it only at exposures below about 5e-305.
_MAX_RHO = 1e153


class _Hazard:
    """The hazard H(r) of one curve and its error estimate at any radii.

    A Poisson curve has no delta to scale by: H = lambda_p pi r**2, with error
    estimate 0. Any other is H(r) = H1(r / delta), from one table of the
    hazard density 2 pi u lam eta1(u), grown out to the largest radius read.
    eta1 is eta of a RetentionFunction of its own at (lambda_p delta**2, 1),
    or at exposure _SATURATED_EXPOSURE of its case for dense curves. The table
    starts at eta1's lower support, with edges at the kinks above it and the
    midpoints between them, so that every top-level panel runs in
    sqrt(|u - c|) about its singular end c. A removed observer needs no table
    up to 1: there H1 is :func:`_removed_hazard`, and the table starts at 1
    from H1(1). H(inf) = inf with error 0 on every curve; a finite r beyond
    _MAX_RHO * delta raises ValueError. A call raises
    :class:`QuadratureError` where exp(-H) times the error estimate of H, that
    of F, exceeds ``abs_tol``."""

    def __init__(self, eta: RetentionFunction):
        self._params = eta.params
        self._table = None
        if not eta._tables:
            return
        lam = eta.params.lambda_p * eta.params.delta * eta.params.delta
        saturated = _SATURATED_EXPOSURE[eta.case]
        if lam * math.pi > saturated:
            lam = saturated / math.pi
        unit = RetentionFunction(eta.case, ProcessParams(lam, 1.0))
        self._moment = unit._tables.get("moment")
        self._start = 1.0 if self._moment is not None else unit.lower_support
        points = [self._start] + [k for k in _KINKS if k > self._start]
        edges, cuts = [self._start], []
        for a, b in zip(points[:-1], points[1:]):
            edges += [0.5 * (a + b), b]
            cuts += [a, b]

        def density(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            values, errors = unit(u, with_error=True)
            return TWO_PI * lam * u * values, TWO_PI * lam * u * errors

        self._table = _Table(density, tuple(edges), tuple(cuts), density_error=True)

    def __call__(self, radii: np.ndarray, abs_tol: float) -> tuple[np.ndarray, np.ndarray]:
        if self._table is None:
            # an overflow to inf is exact: F = 1 there, with error 0
            with np.errstate(over="ignore"):
                hazard = math.pi * self._params.lambda_p * radii * radii
            return hazard, np.zeros(radii.shape)
        far = radii == math.inf
        rho = np.where(far, 0.0, radii) / self._params.delta
        if rho.size and rho.max() > _MAX_RHO:
            raise ValueError(f"r / delta = {rho.max():.3g} is beyond the model's {_MAX_RHO:g}")
        hazard = np.zeros(rho.shape)
        herr = np.zeros(rho.shape)
        offset = offset_err = 0.0
        if self._moment is not None:
            inner = (rho > 0.0) & (rho <= 1.0)
            h, e, _ = _removed_hazard(np.append(rho[inner], 1.0), self._moment)
            hazard[inner], herr[inner] = h[:-1], e[:-1]
            offset, offset_err = h[-1], e[-1]
        outer = rho > self._start
        h, e = self._table.integral(rho[outer])
        hazard[outer] = offset + h
        herr[outer] = offset_err + e
        hazard[far] = math.inf
        error = np.exp(-hazard) * herr
        if not np.all(error <= abs_tol):
            worst = int(np.argmax(np.where(np.isnan(error), np.inf, error)))
            raise QuadratureError(
                f"quadrature stalled at r = {float(radii[worst])!r}: the hazard table's error "
                f"estimate {error[worst]:.3e} of F exceeds the tolerance {abs_tol:.3e}"
            )
        return hazard, herr


def contact_cdf(eta: RetentionFunction, r_grid: FloatOrArray, abs_tol: float = 1e-9) -> CdfCurve:
    """Contact-distance CDF F(R) = 1 - exp(-H(R)) at each radius of an
    ascending grid, with hazard H(R) = integral of 2*pi*r*lambda_p*eta(r).

    H starts at the case's lower support (the hard-core distance when both
    endpoints live in the thinned process, zero otherwise), so the returned
    curve is monotone by construction. A Poisson curve (ppp-ppp, or mhc-mhc
    and ppp-mhc at delta = 0) is the closed form H = lambda_p pi R**2; any
    other is H1(R / delta), with H1 the hazard at (lambda_p delta**2, 1) read
    in one lookup from one table of its density (see :class:`_Hazard`). It
    reads only ``eta``'s case and parameters. The table's layout depends on
    (case, lambda_p delta**2) alone, so F at a radius is the same, to the bit,
    on any grid that holds it and at any tolerance. The curve keeps its table,
    and :meth:`CdfCurve.cdf` reads F at any other radii from it.

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
    hazard, herr = hazard_at(grid, abs_tol)
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
        d = curve.params.delta
        cuts = [c for c in (0.5 * d, d, 2.0 * d) if eta.lower_support < c < last]
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
