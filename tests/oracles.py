"""Independent brute-force oracles shared across the test suite.

Everything here is deliberately written from first principles (plain
minimum-image arithmetic, O(n^2) scans, midpoint rasterisation) so it shares
no code path with the package implementations it checks. The exceptions
judge one layer of the package against its own earlier form:
``per_node_eta`` is eta with its inner integrals taken at every node, the
reference for the tables that replaced them (``quad_contact_cdf``
integrates it, independently of the hazard table), and
``serial_pooled_distances`` is the plain replication loop that the pipelined
``pooled_distances`` replaced, and ``clenshaw_per_row`` and
``clenshaw_difference_per_row`` are the table lookups' recurrences as they
were before they updated in place: fresh arrays at every step.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate

from matern_contact import (
    ContactCase,
    InsufficientDataError,
    PointLabel,
    ProcessParams,
    QuadratureError,
    RetentionFunction,
    analytic,
    nn_distances_cross,
    nn_distances_within,
)
from matern_contact.estimate import replication_patterns


def lens_area_two_circles(d: float, r1: float, r2: float) -> float:
    """Standard intersection area of two circles with radii r1, r2 and centre
    separation d."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return math.pi * min(r1, r2) ** 2
    alpha = math.acos((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))
    beta = math.acos((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))
    root = math.sqrt(
        max((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2), 0.0)
    )
    return r1 * r1 * alpha + r2 * r2 * beta - 0.5 * root


def lens_area_raster(d: float, r1: float, r2: float, cells: int = 1600) -> float:
    """Midpoint-grid rasterisation of the two-circle intersection; centres at
    (0, 0) and (d, 0)."""
    xmin = max(-r1, d - r2)
    xmax = min(r1, d + r2)
    ylim = min(r1, r2)
    if xmin >= xmax:
        return 0.0
    xs = np.linspace(xmin, xmax, cells + 1)
    ys = np.linspace(-ylim, ylim, cells + 1)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    in1 = cx[:, None] ** 2 + cy[None, :] ** 2 <= r1 * r1
    in2 = (cx[:, None] - d) ** 2 + cy[None, :] ** 2 <= r2 * r2
    return float(np.count_nonzero(in1 & in2)) * hx * hy


def pair_retention_quadrature(
    r: float, params: ProcessParams, abs_tol: float = 1e-10
) -> float:
    """``pair_retention`` evaluated by nested 2-D quadrature of the raw mark
    integrals; serves as the independent cross-check for the closed form.

    Raises:
        QuadratureError: if the integrator's error estimate exceeds ``abs_tol``.
    """
    r = float(r)
    if params.delta == 0.0:
        return 1.0 if r > 0.0 else 0.0
    if r <= params.delta:
        return 0.0
    lam = params.lambda_p
    ball = math.pi * params.delta**2
    l1 = lens_area_two_circles(r, params.delta, params.delta)
    # the candidate's disk against the void ball, its centre on the boundary
    l2 = lens_area_two_circles(r, r, params.delta)
    a = lam * ball
    b = lam * (ball - l2)
    c = lam * (ball + l1 - l2)
    d = lam * (ball - l1)
    # candidate mark below the reference mark
    low, err_low = integrate.dblquad(
        lambda t, t_o: math.exp(-a * t_o - b * t),
        0.0,
        1.0,
        0.0,
        lambda t_o: t_o,
        epsabs=0.25 * abs_tol,
        epsrel=1e-11,
    )
    # candidate mark above the reference mark
    high, err_high = integrate.dblquad(
        lambda t_o, t: math.exp(-c * t - d * t_o),
        0.0,
        1.0,
        0.0,
        lambda t: t,
        epsabs=0.25 * abs_tol,
        epsrel=1e-11,
    )
    if err_low + err_high > abs_tol:
        raise QuadratureError(
            f"mark-integral error estimate {err_low + err_high:.3e} exceeds "
            f"{abs_tol:.3e} at r={r}, params={params}"
        )
    return low + high


class ResolutionError(ValueError):
    """Annulus discretisation too coarse for the requested radius."""


def void_probability_discretized(
    eta: RetentionFunction, radius: float, n_annuli: int
) -> float:
    """First-order annulus-product approximation of the void probability
    1 - F(radius), the paper's discretised form and an independent check of
    the adaptive quadrature in ``contact_cdf``: the product over ``n_annuli``
    annuli of (1 - 2*pi*r_n*lambda_p*eta(r_n)*dr) with r_n the left endpoint
    of each annulus. Converges to exp(-I(radius)) as the annulus count grows.

    Raises:
        ResolutionError: if any factor is negative before clamping (the
            discretisation is too coarse for this radius and intensity).
    """
    if n_annuli < 2:
        raise ValueError(f"n_annuli must be >= 2, got {n_annuli}")
    radius = float(radius)
    s = eta.lower_support
    if radius < s:
        raise ValueError(f"radius {radius!r} below lower support {s!r}")
    if radius == s:
        return 1.0
    dr = (radius - s) / n_annuli
    r = s + dr * np.arange(n_annuli)
    hazard = 2.0 * math.pi * eta.params.lambda_p * r * np.asarray(eta(r), float)
    factors = 1.0 - hazard * dr
    if np.any(factors < 0.0):
        raise ResolutionError(
            f"annulus factor below zero at n_annuli={n_annuli}, radius={radius}; "
            "increase the annulus count"
        )
    np.clip(factors, 0.0, 1.0, out=factors)
    return float(np.prod(factors))


def on_the_seam(
    rng: np.random.Generator, coords: np.ndarray, side: float
) -> tuple[np.ndarray, np.ndarray]:
    """Put a few coordinates on the window's seam: exactly at ``side``, or a
    hair below 0 (where ``np.mod`` rounds to ``side``). Returns the pattern's
    copy and the oracle's copy, which holds 0, the same torus position."""
    at = rng.choice(len(coords), size=min(3, len(coords)), replace=False)
    seam = coords.copy()
    seam[at] = side
    seam[at[:1]] = -1e-20
    wrapped = coords.copy()
    wrapped[at] = 0.0
    return seam, wrapped


def _min_image(a: np.ndarray, b: np.ndarray, period: float) -> np.ndarray:
    d = np.abs(a - b)
    return np.minimum(d, period - d)


def brute_nn_within(x: np.ndarray, y: np.ndarray, width: float, height: float) -> np.ndarray:
    dx = _min_image(x[:, None], x[None, :], width)
    dy = _min_image(y[:, None], y[None, :], height)
    d2 = dx * dx + dy * dy
    np.fill_diagonal(d2, np.inf)
    return np.sqrt(d2.min(axis=1))


def brute_nn_cross(
    qx: np.ndarray,
    qy: np.ndarray,
    tx: np.ndarray,
    ty: np.ndarray,
    width: float,
    height: float,
) -> np.ndarray:
    dx = _min_image(qx[:, None], tx[None, :], width)
    dy = _min_image(qy[:, None], ty[None, :], height)
    return np.sqrt((dx * dx + dy * dy).min(axis=1))


def brute_sup_distance(samples, cdf) -> float:
    """Sup distance between the step CDF of ``samples`` and a continuous
    CDF, taken at every distinct sample against both the count of samples
    <= x and the count of samples < x; ``cdf`` maps the ascending distinct
    samples to F there."""
    xs = [float(v) for v in samples]
    distinct = sorted(set(xs))
    n = len(xs)
    worst = 0.0
    for x, f in zip(distinct, cdf(np.array(distinct))):
        at_most = sum(1 for v in xs if v <= x)
        below = sum(1 for v in xs if v < x)
        worst = max(worst, abs(at_most / n - f), abs(below / n - f))
    return worst


def brute_mhc_mask(
    x: np.ndarray,
    y: np.ndarray,
    mark: np.ndarray,
    width: float,
    height: float,
    delta: float,
) -> np.ndarray:
    """Survivor mask of the type-II thinning computed by an O(n^2) scan with
    the same (mark, index) tie-break contract as the package."""
    n = len(x)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        dx = _min_image(x, x[i], width)
        dy = _min_image(y, y[i], height)
        within = dx * dx + dy * dy <= delta * delta
        within[i] = False
        if not np.any(within):
            continue
        mj = mark[within]
        jj = np.flatnonzero(within)
        if np.any((mj < mark[i]) | ((mj == mark[i]) & (jj < i))):
            keep[i] = False
    return keep


def pair_survival_quadrature(r: float, lam: float, delta: float) -> float:
    """Probability that two parents at distance ``r`` > ``delta`` both survive
    type-II thinning, with no void conditioning, by 2-D quadrature over their
    two marks: the higher mark must clear its whole competition disk, the lower
    mark only the part of its own disk outside the other one."""
    ball = math.pi * delta * delta
    shared = lens_area_two_circles(r, delta, delta)
    value, err = integrate.dblquad(
        lambda lower, higher: math.exp(-lam * (ball * higher + (ball - shared) * lower)),
        0.0,
        1.0,
        0.0,
        lambda higher: higher,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    assert err < 1e-11
    return 2.0 * value


def rival_pair_survival_monte_carlo(
    s: float, lam: float, delta: float, trials: int, rng: np.random.Generator
) -> float:
    """Direct Monte-Carlo of the event that parents x and y at distance ``s``
    both survive type-II thinning when a third parent o lies within ``delta``
    of each (o at the origin, x and y at (-s/2, 0) and (s/2, 0)), against a
    Poisson background of intensity ``lam``."""
    half = 0.5 * s
    width, height = s + 2.0 * delta, 2.0 * delta
    counts = rng.poisson(lam * width * height, size=trials)
    trial = np.repeat(np.arange(trials), counts)
    bx = rng.uniform(-half - delta, half + delta, size=trial.size)
    by = rng.uniform(-delta, delta, size=trial.size)
    bmark = rng.uniform(size=trial.size)
    t_o, t_x, t_y = rng.uniform(size=(3, trials))
    survive = np.ones(trials, dtype=bool)
    for cx, own, other in ((-half, t_x, t_y), (half, t_y, t_x)):
        near = (bx - cx) ** 2 + by**2 <= delta * delta
        lowest = np.full(trials, np.inf)
        np.minimum.at(lowest, trial[near], bmark[near])
        rivals = np.minimum(lowest, t_o)
        if s <= delta:
            rivals = np.minimum(rivals, other)
        survive &= own < rivals
    return float(survive.mean())


def cumulative_quad(fn, edges) -> tuple[np.ndarray, float]:
    """Integral of the scalar function ``fn`` from edges[0] to every later
    edge, by scipy's adaptive QUADPACK rule on each stretch between
    consecutive edges; returns the integrals and their summed error
    estimate."""
    total = 0.0
    error = 0.0
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        value, err = integrate.quad(fn, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)
        total += value
        error += err
        out.append(total)
    return np.array(out), error


class _GaussPair:
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

    def integral(self, values: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise fine-rule integral and its error estimate."""
        n = len(self.fine_w)
        fine = half * analytic._weighted_rows(values[:, :n], self.fine_w)
        coarse = half * analytic._weighted_rows(values[:, n:], self.coarse_w)
        return fine, np.abs(fine - coarse)


# the per-node inner rule that eta used before it tabulated its inner
# integrals: a 12-point Gauss rule, with an 8-point one for its error estimate
_INNER = _GaussPair(12, 8)


def _inner_gauss(fn, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nodes, half = _INNER.nodes(lo, hi)
    return _INNER.integral(fn(nodes), half)


def _split_integral(fn, lo, hi, cut: float, singular_above: bool):
    """Row-wise integral of ``fn`` over [lo, hi] with error estimates; on the
    side of ``cut`` where the lens areas behave like |u - cut|**1.5 it runs
    in v = sqrt(|u - cut|)."""
    value = np.zeros(lo.shape)
    err = np.zeros(lo.shape)
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


def _removed_contact(rho: np.ndarray, lam: float):
    """1 - F(rho) and F'(rho) of a removed point with their error estimates,
    in delta units (``lam`` = lambda_p delta**2), the second factorial moment
    and its derivative integrated point by point."""
    void = (1.0 - rho) * (1.0 + rho)
    fp = 2.0 * rho
    void_err = np.zeros(rho.shape)
    fp_err = np.zeros(rho.shape)
    pairs = rho > 0.5
    if np.any(pairs):
        rp = rho[pairs]
        v, half = _INNER.nodes(np.zeros(rp.shape), np.sqrt(2.0 * rp - 1.0))
        s = 2.0 * rp[:, None] - v * v
        a = lam * math.pi
        scale = lam * lam / (a * analytic._below_rival(a))
        weight = scale * 2.0 * v * analytic.TWO_PI * s * analytic.cmhc_pair_retention(s, lam)
        # the lens of two disks of radius rho at distance s
        lens = rp[:, None] ** 2 * analytic.lens_symmetric(s / rp[:, None])
        m2, m2_err = _INNER.integral(weight * lens, half)
        arc = np.arccos(np.minimum(s / (2.0 * rp[:, None]), 1.0))
        dm2, dm2_err = _INNER.integral(weight * 4.0 * rp[:, None] * arc, half)
        void[pairs] += 0.5 * m2
        fp[pairs] -= 0.5 * dm2
        void_err[pairs] = 0.5 * m2_err
        fp_err[pairs] = 0.5 * dm2_err
    return void, fp, void_err, fp_err


def per_node_eta(case, params: ProcessParams, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eta(r) of a curved case at delta > 0, and its error estimate, with
    every inner integral taken at each node by the fixed 12/8 Gauss pair:
    the package's rule before it tabulated them. It shares the closed-form
    kernels with the package, so it judges only the tables. Like them, it
    works in delta units: at r / delta, with lam = lambda_p delta**2."""
    lam = params.lambda_p * params.delta * params.delta
    p = analytic.expm1_ratio(lam * math.pi)
    r = np.asarray(r, dtype=float) / params.delta
    if case is analytic.ContactCase.PPP_TO_MHC:
        r_e = np.sqrt(np.maximum(r * r - analytic.lens_asymmetric(r) / math.pi, 0.0))
        dh, dh_err = _split_integral(
            lambda u: analytic.TWO_PI * lam * u * analytic.retention_ppp_to_mhc(u, lam),
            r_e, r, 0.5, True,
        )
        eta = p * np.exp(dh)
        return eta, eta * dh_err
    eta = np.zeros(r.shape)
    err = np.zeros(r.shape)
    if case is analytic.ContactCase.MHC_TO_MHC:
        active = r > 1.0
        ra = r[active]
        l1 = analytic.lens_symmetric(ra)
        l2 = analytic.lens_asymmetric(ra)
        r_e = np.sqrt(np.maximum(ra * ra - (l2 - l1) / math.pi, 1.0))
        dh, dh_err = _split_integral(
            lambda u: analytic.TWO_PI * lam * u * (analytic.pair_retention(u, lam) / p),
            r_e, ra, 2.0, False,
        )
        eta[active] = analytic._pair_free(l1, lam) / p * np.exp(dh)
        err[active] = eta[active] * dh_err
        return eta, err
    inner = r <= 1.0
    ri = r[inner]
    void, fp, void_err, fp_err = _removed_contact(ri, lam)
    positive = ri > 0.0
    rate = np.where(
        positive,
        fp / (analytic.TWO_PI * lam * np.where(positive, ri, 1.0)),
        1.0 / (lam * math.pi),
    )
    eta[inner] = rate / void
    fp_rel = np.divide(fp_err, fp, out=np.zeros(fp.shape), where=fp_err > 0.0)
    err[inner] = eta[inner] * (fp_rel + void_err / void)
    outer = ~inner
    ro = r[outer]
    r_e = np.sqrt(np.maximum(ro * ro - analytic.lens_asymmetric(ro) / math.pi, 0.0))
    void_d, _, void_d_err, _ = _removed_contact(np.array([1.0]), lam)
    h_delta, h_delta_err = float(-np.log(void_d[0])), float(void_d_err[0] / void_d[0])
    dh = np.zeros(ro.shape)
    dh_err = np.zeros(ro.shape)
    back = r_e < 1.0
    void, _, void_err, _ = _removed_contact(r_e[back], lam)
    dh[back] = h_delta + np.log(void)
    dh_err[back] = h_delta_err + void_err / void
    tail, tail_err = _split_integral(
        lambda u: analytic.TWO_PI * lam * u * analytic._removed_pair_correlation(u, lam),
        np.maximum(r_e, 1.0), ro, 2.0, False,
    )
    eta[outer] = analytic._removed_pair_correlation(ro, lam) * np.exp(dh + tail)
    err[outer] = eta[outer] * (dh_err + tail_err)
    return eta, err


def quad_contact_cdf(case, params: ProcessParams, radii) -> np.ndarray:
    """F at ascending ``radii`` by a route that shares no table with the
    package: the closed form 1 - exp(-pi lambda_p r**2) for ppp-ppp, and
    otherwise the hazard density 2 pi u lambda_p eta(u), with eta from
    :func:`per_node_eta`, integrated by :func:`cumulative_quad` from the
    lower support, with the radii and the lens breakpoints as edges. A
    removed observer's F up to delta is 1 minus its per-node void
    probability, and its integral starts at delta from the hazard there."""
    lam, d = params.lambda_p, params.delta
    radii = np.asarray(radii, dtype=float)
    if case is ContactCase.PPP_TO_PPP:
        return -np.expm1(-math.pi * lam * radii**2)
    out = np.zeros(radii.shape)
    start, offset = (d, 0.0) if case is ContactCase.MHC_TO_MHC else (0.0, 0.0)
    if case is ContactCase.CMHC_TO_MHC:
        inner = radii <= d
        unit = lam * d * d
        out[inner] = 1.0 - _removed_contact(radii[inner] / d, unit)[0]
        start, offset = d, float(-np.log(_removed_contact(np.array([1.0]), unit)[0][0]))
    beyond = radii > start
    if np.any(beyond):
        cuts = [c for c in (0.5 * d, d, 2.0 * d) if start < c < radii[-1]]
        edges = np.union1d([start, *cuts], radii[beyond])
        hazard, _ = cumulative_quad(
            lambda u: 2.0 * math.pi * lam * u * per_node_eta(case, params, np.array([u]))[0][0],
            edges,
        )
        at = np.searchsorted(edges[1:], radii[beyond])
        out[beyond] = -np.expm1(-(offset + hazard[at]))
    return out


def serial_pooled_distances(config, on_pattern=None) -> np.ndarray:
    """The distances ``pooled_distances`` pools, unsorted and in pooling order,
    from a plain loop on the calling thread: each replication's patterns are
    drawn, their NN distances taken, and then the patterns handed to
    ``on_pattern``. A replication with too few points raises
    ``InsufficientDataError`` naming its index."""
    chunks = []
    for rep in range(config.replications):
        patterns = replication_patterns(config, rep)
        try:
            if config.case is ContactCase.PPP_TO_MHC:
                chunk = nn_distances_cross(patterns["source"], PointLabel.PARENT,
                                           patterns["target"], PointLabel.MHC)
            elif config.case is ContactCase.CMHC_TO_MHC:
                chunk = nn_distances_cross(patterns["pattern"], PointLabel.CMHC,
                                           patterns["pattern"], PointLabel.MHC)
            elif config.case is ContactCase.MHC_TO_MHC:
                chunk = nn_distances_within(patterns["pattern"], PointLabel.MHC)
            else:
                chunk = nn_distances_within(patterns["pattern"], PointLabel.PARENT)
        except InsufficientDataError as exc:
            raise InsufficientDataError(f"replication {rep} failed: {exc}") from exc
        chunks.append(chunk)
        if on_pattern is not None:
            for role, pattern in patterns.items():
                on_pattern(rep, role, pattern)
    return np.concatenate(chunks)


def clenshaw_per_row(rows: np.ndarray, at: np.ndarray, t: np.ndarray) -> np.ndarray:
    """S(t[i]) for the series with coefficients rows[:, at[i]], gathering one
    coefficient row at a time into fresh arrays."""
    b1 = np.zeros(t.shape)
    b2 = np.zeros(t.shape)
    two_t = 2.0 * t
    for row in rows[:0:-1]:
        b1, b2 = two_t * b1 - b2 + row[at], b1
    return t * b1 - b2 + rows[0][at]


def clenshaw_difference_per_row(rows, at, x: np.ndarray, y: np.ndarray, dx: np.ndarray):
    """S(x[i]) - S(y[i]) from the difference of the two points' Clenshaw
    recurrences, gathering one coefficient row at a time into fresh arrays."""
    b1 = np.zeros(x.shape)
    b2 = np.zeros(x.shape)
    d1 = np.zeros(x.shape)
    d2 = np.zeros(x.shape)
    two_x, two_y, two_dx = 2.0 * x, 2.0 * y, 2.0 * dx
    for row in rows[:0:-1]:
        d1, d2 = two_x * d1 + two_dx * b1 - d2, d1
        b1, b2 = two_y * b1 - b2 + row[at], b1
    return x * d1 + dx * b1 - d2
