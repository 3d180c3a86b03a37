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
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np
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


class _RulePair:
    """A fine Gauss-Legendre rule and a coarse one whose difference estimates
    the fine rule's error, with the nodes of both in one array, fine first."""

    def __init__(self, fine: int, coarse: int):
        fine_x, self.fine_w = leggauss(fine)
        coarse_x, self.coarse_w = leggauss(coarse)
        self.x = np.concatenate([fine_x, coarse_x])

    def nodes(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The nodes of both rules, one row per interval, and the half-widths."""
        half = 0.5 * (hi - lo)
        return (0.5 * (lo + hi))[:, None] + half[:, None] * self.x, half

    def fine(self, values: np.ndarray, half: np.ndarray) -> np.ndarray:
        """Row-wise fine-rule integral; reads only the fine columns."""
        return half * _weighted_rows(values[:, : len(self.fine_w)], self.fine_w)

    def integral(self, values: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise fine-rule integral and its error estimate."""
        fine = self.fine(values, half)
        coarse = half * _weighted_rows(values[:, len(self.fine_w) :], self.coarse_w)
        return fine, np.abs(fine - coarse)


# the integrals inside eta, and the hazard panels of contact_cdf
_INNER = _RulePair(12, 8)
_PANEL = _RulePair(21, 10)


def _inner_gauss(fn, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nodes, half = _INNER.nodes(lo, hi)
    return _INNER.integral(fn(nodes), half)


def _split_integral(
    fn, lo: np.ndarray, hi: np.ndarray, cut: float, singular_above: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise integral of ``fn`` over [lo, hi] with error estimates. On the
    side of ``cut`` where the lens areas behave like |u - cut|**1.5 the
    integral runs in v = sqrt(|u - cut|), where the integrand is smooth, so one
    fixed Gauss rule converges fast on both sides."""
    value = np.zeros(lo.shape)
    err = np.zeros(lo.shape)
    # a side no row reaches is skipped: without this the analytic sweep ran 5% slower
    rows = lo < cut
    if np.any(rows):
        a, b = lo[rows], np.minimum(hi[rows], cut)
        if singular_above:
            v, e = _inner_gauss(fn, a, b)
        else:
            v, e = _inner_gauss(
                lambda t: 2.0 * t * fn(cut - t * t), np.sqrt(cut - b), np.sqrt(cut - a)
            )
        value[rows] += v
        err[rows] += e
    rows = hi > cut
    if np.any(rows):
        a, b = np.maximum(lo[rows], cut), hi[rows]
        if singular_above:
            v, e = _inner_gauss(
                lambda t: 2.0 * t * fn(cut + t * t), np.sqrt(a - cut), np.sqrt(b - cut)
            )
        else:
            v, e = _inner_gauss(fn, a, b)
        value[rows] += v
        err[rows] += e
    return value, err


def _eta_ppp_to_mhc(r: np.ndarray, params: ProcessParams) -> tuple[np.ndarray, np.ndarray]:
    """p * exp(H0(r) - H0(r_e)): pair correlation 1, and the void ratio from
    the first-order hazard H0 over the part of the ball that the candidate's
    own disk does not already keep free of survivors (area pi * r_e**2)."""
    lam, d = params.lambda_p, params.delta
    r_e = np.sqrt(np.maximum(r * r - _void_lens(r, d) / math.pi, 0.0))

    def density(u):
        return TWO_PI * lam * u * retention_ppp_to_mhc(u, params)

    dh, dh_err = _split_integral(density, r_e, r, 0.5 * d, True)
    eta = mhc_retention(params) * np.exp(dh)
    return eta, eta * dh_err


def _eta_mhc_to_mhc(r: np.ndarray, params: ProcessParams) -> tuple[np.ndarray, np.ndarray]:
    """(k(r) / p) * exp(H0(r) - H0(r_e)) above delta, 0 below: pair
    correlation from the unconditional two-point retention, and the void
    ratio over the part of the annulus outside both hard-core disks."""
    lam, d = params.lambda_p, params.delta
    eta = np.zeros(r.shape)
    err = np.zeros(r.shape)
    active = r > d
    if not np.any(active):  # speed guard
        return eta, err
    ra = r[active]
    l1 = lens_symmetric(ra, d)
    l2 = lens_asymmetric(ra, d)
    r_e = np.sqrt(np.maximum(ra * ra - (l2 - l1) / math.pi, d * d))

    def density(u):
        return TWO_PI * lam * u * (pair_retention(u, params) / mhc_retention(params))

    dh, dh_err = _split_integral(density, r_e, ra, 2.0 * d, False)
    eta[active] = _pair_free(l1, params) / mhc_retention(params) * np.exp(dh)
    err[active] = eta[active] * dh_err
    return eta, err


def _removed_contact(
    rho: np.ndarray, params: ProcessParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Void probability 1 - F(rho) of a removed point, the derivative F'(rho),
    and their error estimates, for 0 <= rho <= delta.

    Every survivor within delta of a removed point o beats o's mark, so the
    survivor count N in b(o, rho) has mean (rho/delta)**2 exactly, and
    F = E[N] - E[N(N-1)]/2 up to the rare triples. The second factorial
    moment is the pair density lambda_p**2 * cmhc_pair_retention / (1 - p)
    integrated over point pairs in the ball: over their distance s in
    (delta, 2 rho) with weight 2 pi s * lens_symmetric(s, rho).
    """
    lam, d = params.lambda_p, params.delta
    # factored so that the void keeps full relative precision as rho -> delta
    void = (d - rho) * (d + rho) / (d * d)
    fp = 2.0 * rho / (d * d)
    void_err = np.zeros(rho.shape)
    fp_err = np.zeros(rho.shape)
    pairs = rho > 0.5 * d
    if np.any(pairs):  # speed guard
        rp = rho[pairs]
        # s = 2 rho - v**2 smooths the lens edge at s = 2 rho
        v, half = _INNER.nodes(np.zeros(rp.shape), np.sqrt(2.0 * rp - d))
        s = 2.0 * rp[:, None] - v * v
        # 1 - p = a * W(a) keeps its precision at small a
        a = lam * params.ball_area
        scale = lam * lam / (a * _below_rival(a))
        weight = scale * 2.0 * v * TWO_PI * s * cmhc_pair_retention(s, params)
        m2, m2_err = _INNER.integral(weight * lens_symmetric(s, rp[:, None]), half)
        # d/drho lens_symmetric(s, rho) = 4 rho arccos(s / (2 rho))
        arc = np.arccos(np.minimum(s / (2.0 * rp[:, None]), 1.0))
        dm2, dm2_err = _INNER.integral(weight * 4.0 * rp[:, None] * arc, half)
        void[pairs] += 0.5 * m2
        fp[pairs] -= 0.5 * dm2
        void_err[pairs] = 0.5 * m2_err
        fp_err[pairs] = 0.5 * dm2_err
    return void, fp, void_err, fp_err


# every block of a cmhc-mhc curve needs this; uncached, the analytic sweep ran 9% slower
@lru_cache(maxsize=64)
def _removed_hazard_at_delta(params: ProcessParams) -> tuple[float, float]:
    """-log(1 - F(delta)) of the removed-point case and its error estimate."""
    void, _, void_err, _ = _removed_contact(np.array([params.delta]), params)
    return float(-np.log(void[0])), float(void_err[0] / void[0])


def _eta_cmhc_to_mhc(r: np.ndarray, params: ProcessParams) -> tuple[np.ndarray, np.ndarray]:
    """Removed observer. Up to delta, the hazard of :func:`_removed_contact`.
    Beyond it, g(r) * exp(H0(r) - H0(r_e)) with the exact pair correlation
    lambda_t * g / lambda_p = (p - k(r)) / (1 - p) of a removed point and a
    survivor, and H0 the zeroth-order hazard: the hazard of
    :func:`_removed_contact` up to delta, then 2 pi u lambda_p g(u)."""
    lam, d = params.lambda_p, params.delta
    eta = np.empty(r.shape)
    err = np.zeros(r.shape)
    inner = r <= d
    if np.any(inner):  # speed guard
        ri = r[inner]
        void, fp, void_err, fp_err = _removed_contact(ri, params)
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
        h_delta, h_delta_err = _removed_hazard_at_delta(params)
        dh = np.zeros(ro.shape)
        dh_err = np.zeros(ro.shape)
        back = r_e < d
        if np.any(back):  # speed guard
            void, _, void_err, _ = _removed_contact(r_e[back], params)
            dh[back] = h_delta + np.log(void)
            dh_err[back] = h_delta_err + void_err / void

        def density(u):
            return TWO_PI * lam * u * _removed_pair_correlation(u, params)

        tail, tail_err = _split_integral(density, np.maximum(r_e, d), ro, 2.0 * d, False)
        g = _removed_pair_correlation(ro, params)
        eta[outer] = g * np.exp(dh + tail)
        err[outer] = eta[outer] * (dh_err + tail_err)
    return eta, err


_EVALUATORS = {
    ContactCase.MHC_TO_MHC: _eta_mhc_to_mhc,
    ContactCase.PPP_TO_MHC: _eta_ppp_to_mhc,
    ContactCase.CMHC_TO_MHC: _eta_cmhc_to_mhc,
}
# points per evaluation block: bounds the inner-rule scratch when a whole
# curve's quadrature nodes arrive in one call; no result depends on it
_EVAL_BLOCK = 512


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
    :func:`_removed_contact`). eta is a hazard ratio, not a probability, and
    exceeds 1 where the source attracts targets (removed observers).

    ``eta(r)`` takes a scalar or an array of any shape and is 1 for ppp-ppp
    and at delta = 0; ``eta(r, with_error=True)`` also returns an error
    estimate for the inner integrals it evaluates.
    """

    case: ContactCase
    params: ProcessParams

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
            # one block at least, so that an empty input gives empty arrays
            blocks = [
                evaluate(flat[i : i + _EVAL_BLOCK], self.params)
                for i in range(0, max(flat.size, 1), _EVAL_BLOCK)
            ]
            values = np.concatenate([v for v, _ in blocks])
            errors = np.concatenate([e for _, e in blocks])
        if scalar:
            values, errors = float(values[0]), float(errors[0])
        else:
            values, errors = values.reshape(np.shape(r)), errors.reshape(np.shape(r))
        return (values, errors) if with_error else values


@dataclass(frozen=True)
class CdfCurve:
    """Sampled analytic contact-distance CDF with quadrature error estimates.

    ``hazard`` holds the accumulated integral I(R) at each radius and
    ``hazard_error`` its error estimate. The CDF ``values``,
    F = 1 - exp(-I), and ``abs_error``, the error estimate propagated to F,
    exp(-I) * hazard_error, are computed from them on access.
    """

    case: ContactCase
    params: ProcessParams
    radii: np.ndarray
    hazard: np.ndarray
    hazard_error: np.ndarray
    abs_tol: float

    @property
    def values(self) -> np.ndarray:
        return -np.expm1(-self.hazard)

    @property
    def abs_error(self) -> np.ndarray:
        return np.exp(-self.hazard) * self.hazard_error

    def evaluate(self, x: FloatOrArray) -> FloatOrArray:
        """Monotone (linear) interpolation of F on the curve's grid; 0 below it."""
        scalar = np.ndim(x) == 0
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if arr.size and np.max(arr) > self.radii[-1]:
            raise ValueError(
                f"evaluation point {float(np.max(arr))!r} beyond curve range "
                f"{float(self.radii[-1])!r}; extend the curve first"
            )
        out = np.interp(arr, self.radii, self.values, left=0.0)
        return float(out[0]) if scalar else out

    def to_dict(self) -> dict:
        """The curve's ``radii``, ``F`` and ``abs_error`` as JSON lists."""
        return {
            "radii": self.radii.tolist(),
            "F": self.values.tolist(),
            "abs_error": self.abs_error.tolist(),
        }

    def restricted(self, radii: np.ndarray) -> CdfCurve:
        """The curve at ``radii``, a subset of its own radii."""
        if not np.all(np.isin(radii, self.radii)):
            raise ValueError("radii must be a subset of the curve's radii")
        at = np.searchsorted(self.radii, radii)
        return replace(
            self,
            radii=self.radii[at],
            hazard=self.hazard[at],
            hazard_error=self.hazard_error[at],
        )


_MAX_BISECTIONS = 48
# exp(-H) underflows F's complement long before this hazard
_MAX_HAZARD = 700.0
# panels whose nodes go to eta in one call: every panel of a grid of up to
# about a thousand radii, while longer grids keep their node arrays small
_PANEL_BLOCK = 1024


def _panel_rules(
    fn, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fine-rule value, an error estimate from a coarser rule, and the
    fine-rule integral of the integrand's own error estimate, for each panel
    [lo[i], hi[i]]. ``fn`` maps nodes to (values, errors) and sees the nodes
    of both rules on every panel in one array."""
    nodes, half = _PANEL.nodes(lo, hi)
    values, errors = fn(nodes.ravel())
    fine, err = _PANEL.integral(values.reshape(nodes.shape), half)
    inner = _PANEL.fine(errors.reshape(nodes.shape), half)
    return fine, err, inner


def _integrate_panel(
    fn, lo: float, hi: float, tol: float, offset: float, rules: tuple[float, float, float]
) -> tuple[float, float]:
    """Adaptively bisected panel integral of the hazard density with
    accumulated error estimate; ``offset`` is the hazard at ``lo`` and
    ``rules`` the panel's own :func:`_panel_rules` entry, evaluated with the
    other panels of its curve. :func:`_accumulate_hazard` accepts runs of
    panels in bulk by this function's first test and hands it only a panel
    that test rejects, so this is the one bisection path.

    Sub-panels are taken left to right, and each one's rule error is held to
    its share of ``tol`` times exp(H) at its right end. A panel's error reaches
    F = 1 - exp(-H) only at radii beyond it, multiplied there by exp(-H), so
    this bounds the error of F by ``tol`` without asking for absolute hazard
    precision where F is already near 1. Bisection is driven by the rule
    error alone: the integrand's own error shrinks with the panel as fast as
    the tolerance does, so it is added to the estimate but never bisected
    on. Only a rejected panel is split; its two halves are evaluated in one
    call, and no panel is evaluated twice."""
    total = 0.0
    total_err = 0.0
    stack = [(lo, hi, tol, 0, rules)]
    while stack:
        a, b, t, depth, (value, err, inner_err) = stack.pop()
        allowed = t * math.exp(min(offset + total + value, _MAX_HAZARD))
        if err <= allowed:
            total += value
            total_err += err + inner_err
            continue
        if depth >= _MAX_BISECTIONS or (b - a) <= 64.0 * np.spacing(max(abs(a), abs(b))):
            raise QuadratureError(
                f"adaptive quadrature stalled on panel [{a!r}, {b!r}] "
                f"(error estimate {err:.3e} > tolerance {allowed:.3e})"
            )
        m = 0.5 * (a + b)
        left, right = zip(*_panel_rules(fn, np.array([a, m]), np.array([m, b])))
        stack.append((m, b, 0.5 * t, depth + 1, right))
        stack.append((a, m, 0.5 * t, depth + 1, left))
    return total, total_err


def _lens_breakpoints(params: ProcessParams, lo: float, hi: float) -> list[float]:
    """Radii where the lens areas switch branch; panels must not straddle them."""
    d = params.delta
    return sorted(c for c in (0.5 * d, d, 2.0 * d) if lo < c < hi)


def _accumulate_hazard(
    eta: RetentionFunction,
    start: float,
    targets: np.ndarray,
    abs_tol: float,
    offset: float = 0.0,
    breakpoints: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative integral of 2*pi*r*lambda_p*eta(r) from ``start`` to each
    ascending target radius above it; ``offset`` is the hazard already
    accumulated at ``start``. Returns the radii, the hazard there and its
    error estimate: at the targets, or with ``breakpoints`` at every panel
    edge, the targets and the lens breakpoints among them.

    The panels run between consecutive edges. Their nodes go to eta
    together, up to _PANEL_BLOCK panels per call. The walk then tests every
    panel at once against the tolerance of :func:`_integrate_panel`, with
    the hazard before it summed left to right by np.cumsum, which adds in
    sequence as the per-panel walk did, and with math.exp as there, so each
    decision is the per-panel walk's to the bit. It accepts the run of
    passing panels in one step and hands the first rejected panel to
    :func:`_integrate_panel` to bisect. The hazard and its error are the
    running sums of the panel integrals and of the error each one adds."""
    lam = eta.params.lambda_p

    def integrand(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, errors = eta(r, with_error=True)
        return TWO_PI * lam * r * values, TWO_PI * lam * r * errors

    cuts = _lens_breakpoints(eta.params, start, float(targets[-1]))
    tol_segment = abs_tol / max(1, len(targets) + len(cuts))
    edges = np.union1d(targets, cuts)
    lows = np.concatenate(([start], edges[:-1]))
    value = np.empty(edges.shape)
    spent = np.empty(edges.shape)
    for first in range(0, len(edges), _PANEL_BLOCK):
        block = slice(first, first + _PANEL_BLOCK)
        value[block], err, inner = _panel_rules(integrand, lows[block], edges[block])
        spent[block] = err + inner
        end = first + len(err)
        i = first
        while i < end:
            before = offset + np.cumsum(np.concatenate(([0.0], value[: end - 1])))
            exponent = np.minimum(before[i:] + value[i:end], _MAX_HAZARD).tolist()
            passed = err[i - first :] <= [tol_segment * math.exp(x) for x in exponent]
            i += int(np.argmin(np.append(passed, False)))  # the passing run
            if i < end:
                rule = (value[i], err[i - first], inner[i - first])
                value[i], spent[i] = _integrate_panel(
                    integrand, float(lows[i]), float(edges[i]), tol_segment, before[i], rule
                )
                i += 1
    hazard = np.cumsum(value)
    herr = np.cumsum(spent)
    if breakpoints:
        return edges, hazard, herr
    at = np.searchsorted(edges, targets)
    return targets, hazard[at], herr[at]


def contact_cdf(
    eta: RetentionFunction,
    r_grid: FloatOrArray,
    abs_tol: float = 1e-9,
    breakpoints: bool = False,
) -> CdfCurve:
    """Contact-distance CDF F(R) = 1 - exp(-integral(2*pi*r*lambda_p*eta(r)))
    accumulated over an ascending radius grid.

    Integration starts at the case's lower support (the hard-core distance
    when both endpoints live in the thinned process, zero otherwise), so the
    returned curve is monotone by construction. The quadrature panels run
    between the grid radii and the lens breakpoints delta/2, delta and
    2 delta, where eta changes form and F has kinks; the nodes of all panels
    are evaluated in a few batched eta calls (see :func:`_accumulate_hazard`).
    With ``breakpoints`` the curve also holds F at the breakpoints inside
    the grid, at no extra cost; F at the grid radii is the same either way.

    The quadrature holds the error of F, not of the hazard, to ``abs_tol``.
    The reported ``abs_error`` adds the error estimates of the integrals
    that eta evaluates internally; these do not shrink with the panels, so
    for a removed observer in a dense process (lambda_p pi delta**2 above
    about 30) they exceed tolerances below about 1e-11. ``abs_error`` bounds
    quadrature error only, not the rounding inside eta's closed forms.
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

    s = eta.lower_support
    below = grid[grid <= s]
    radii = grid[grid > s]
    hazard = herr = np.zeros(0)
    if radii.size:
        radii, hazard, herr = _accumulate_hazard(
            eta, s, radii, abs_tol, breakpoints=breakpoints
        )
    zeros = np.zeros(below.size)
    return CdfCurve(
        eta.case,
        eta.params,
        np.concatenate([below, radii]),
        np.concatenate([zeros, hazard]),
        np.concatenate([zeros, herr]),
        abs_tol,
    )


def _spaced(lo: float, hi: float, step: float | None) -> np.ndarray:
    """Radii from ``lo`` to ``hi``, both included, at most ``step`` apart;
    eight steps when there is no step to keep."""
    step = (hi - lo) / 8.0 if step is None else step
    return np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / step)) + 1))


def extend_curve(curve: CdfCurve, r_max: float, r_min: float | None = None) -> CdfCurve:
    """Continue a curve's accumulated integral out to ``r_max`` and, when
    ``r_min`` lies below its first radius, down to its lower support, where
    F is 0 (no-op when the curve already spans both). New radii keep the
    curve's median step; a curve extended down is recomputed from its lower
    support, lens breakpoints included."""
    steps = np.diff(curve.radii)
    positive = steps[steps > 0.0]
    step = float(np.median(positive)) if positive.size else None
    eta = RetentionFunction(curve.case, curve.params)
    first = float(curve.radii[0])
    if r_min is not None and float(r_min) < first and first > eta.lower_support:
        below = _spaced(eta.lower_support, first, step)[:-1]
        radii = np.concatenate([below, curve.radii])
        curve = contact_cdf(eta, radii, curve.abs_tol, breakpoints=True)
    r_max = float(r_max)
    last = float(curve.radii[-1])
    if r_max <= last:
        return curve
    extra = _spaced(last, r_max, step)[1:]
    _, hz, he = _accumulate_hazard(eta, last, extra, curve.abs_tol, float(curve.hazard[-1]))
    return CdfCurve(
        curve.case,
        curve.params,
        np.concatenate([curve.radii, extra]),
        np.concatenate([curve.hazard, curve.hazard[-1] + hz]),
        np.concatenate([curve.hazard_error, curve.hazard_error[-1] + he]),
        curve.abs_tol,
    )


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
