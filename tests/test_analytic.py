"""Unit and property tests for the retention probabilities and CDF machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from matern_contact import analytic
from matern_contact.analytic import (
    CdfCurve,
    ContactCase,
    ProcessParams,
    QuadratureError,
    RetentionFunction,
    _pair_free,
    _removed_pair_correlation,
    _void_lens,
    cmhc_pair_retention,
    contact_cdf,
    default_r_grid,
    expm1_ratio,
    extend_curve,
    mhc_intensity,
    mhc_retention,
    pair_retention,
    retention_ppp_to_mhc,
)
from matern_contact.geometry import lens_asymmetric, lens_symmetric
from oracles import (
    ResolutionError,
    cumulative_quad,
    pair_retention_quadrature,
    pair_survival_quadrature,
    per_panel_walk,
    rival_pair_survival_monte_carlo,
    void_probability_discretized,
)

P11 = ProcessParams(1.0, 1.0)

# frozen from the 1-D mark-integral quadrature oracle below
ETA_PPP_MHC_AT_UNIT = 0.4455288911010169


def mark_integral_oracle(exposure: float) -> float:
    value, err = integrate.quad(
        lambda t: math.exp(-t * exposure), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13
    )
    assert err < 1e-12
    return value


class TestExpm1Ratio:
    def test_matches_naive_form_away_from_zero(self):
        # the naive difference form is only trustworthy for moderate x
        for x in (0.1, 1.0, 10.0, 50.0):
            naive = (1.0 - math.exp(-x)) / x
            assert expm1_ratio(x) == pytest.approx(naive, rel=1e-13)

    def test_small_argument_series(self):
        # three-term series oracle where the naive form cancels catastrophically
        for x in (1e-6, 1e-9):
            series = 1.0 - x / 2.0 + x * x / 6.0
            assert expm1_ratio(x) == pytest.approx(series, rel=1e-15)
        assert expm1_ratio(0.0) == 1.0
        assert expm1_ratio(1e-13) == pytest.approx(1.0 - 5e-14, rel=1e-15)

    def test_matches_mark_integral(self):
        for x in (1e-9, 1e-4, 0.5, 3.0):
            assert expm1_ratio(x) == pytest.approx(mark_integral_oracle(x), rel=1e-12)

    def test_vectorized(self):
        x = np.array([0.0, 1e-13, 1.0, 5.0])
        out = expm1_ratio(x)
        assert out.shape == x.shape
        assert out[0] == 1.0


class TestIntensityAndRetention:
    def test_unit_parameters(self):
        exact = (1.0 - math.exp(-math.pi)) / math.pi
        assert mhc_retention(P11) == pytest.approx(exact, rel=1e-15)
        assert mhc_intensity(P11) == pytest.approx(exact, rel=1e-15)

    def test_zero_delta_limits(self):
        p = ProcessParams(3.5, 0.0)
        assert mhc_retention(p) == 1.0
        assert mhc_intensity(p) == 3.5

    def test_saturation_density(self):
        # exponential term vanishes at huge parent intensity
        p = ProcessParams(1e9, 1.0)
        assert mhc_intensity(p) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_retention_against_mark_integral(self):
        p = ProcessParams(2.0, 1.0)
        assert mhc_retention(p) == pytest.approx(
            mark_integral_oracle(2.0 * math.pi), rel=1e-12
        )
        assert mhc_retention(p) == pytest.approx(
            (1.0 - math.exp(-2.0 * math.pi)) / (2.0 * math.pi), rel=1e-14
        )

    def test_retention_is_intensity_over_lambda(self):
        for lam, delta in [(0.5, 0.25), (2.0, 1.0), (4.0, 2.0)]:
            p = ProcessParams(lam, delta)
            assert mhc_intensity(p) == pytest.approx(lam * mhc_retention(p), rel=1e-15)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ProcessParams(0.0, 1.0)
        with pytest.raises(ValueError):
            ProcessParams(1.0, -0.5)
        with pytest.raises(ValueError):
            ProcessParams(math.nan, 1.0)


class TestPairRetention:
    def test_zero_on_hard_core_range(self):
        assert np.array_equal(pair_retention(np.array([0.5, 1.0]), P11), [0.0, 0.0])

    def test_matches_quadrature_on_subset(self):
        for r_ratio in (1.01, 1.5, 3.0):
            for delta in (0.5, 1.0):
                for lam in (1.0, 4.0):
                    p = ProcessParams(lam, delta)
                    closed = pair_retention(np.array([r_ratio * delta]), p)[0]
                    numeric = pair_retention_quadrature(r_ratio * delta, p)
                    assert abs(closed - numeric) < 1e-8

    def test_far_field_approaches_independent_product(self):
        # at huge separation the joint survival factorises; the shared lens is
        # gone and the void ball removes half of the candidate's disk
        lam, delta = 1.0, 1.0
        p = ProcessParams(lam, delta)
        ball = math.pi * delta**2
        limit = expm1_ratio(lam * ball) * expm1_ratio(lam * ball / 2.0)
        near, far, farther = pair_retention(np.array([1e3, 1e4, 1e5]), p)
        assert far == pytest.approx(limit, abs=1e-4)
        assert abs(farther - limit) < abs(near - limit)

    def test_quadrature_tolerance_gate(self):
        with pytest.raises(QuadratureError):
            pair_retention_quadrature(1.5, P11, abs_tol=1e-30)


class TestRetentionProfiles:
    def test_mhc_zero_below_delta_and_ratio_above(self):
        # zero on the hard-core range; just above delta the void ratio is 1,
        # so eta is the pair-correlation ratio k(r) / p there
        r = np.array([0.9, 1.0, 1.0 + 1e-12])
        assert np.array_equal((pair_retention(r, P11) / mhc_retention(P11))[:2], [0.0, 0.0])
        eta = RetentionFunction(ContactCase.MHC_TO_MHC, P11)(r)
        assert np.array_equal(eta[:2], [0.0, 0.0])
        ratio = _pair_free(lens_symmetric(r[2:], 1.0), P11)[0] / mhc_retention(P11)
        assert eta[2] == pytest.approx(ratio, rel=1e-9)

    def test_ppp_small_r_limit_is_retention(self):
        assert retention_ppp_to_mhc(np.array([1e-12]), P11)[0] == pytest.approx(
            mhc_retention(P11), rel=1e-9
        )

    def test_ppp_unit_value_against_oracle(self):
        l2 = lens_asymmetric(1.0, 1.0)
        oracle = mark_integral_oracle(math.pi - l2)
        value = retention_ppp_to_mhc(np.array([1.0]), P11)[0]
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(ETA_PPP_MHC_AT_UNIT, rel=1e-12)

    def test_ppp_dominates_unconditional_retention(self):
        r = np.linspace(1e-3, 8.0, 200)
        rho = mhc_retention(P11)
        assert np.all(retention_ppp_to_mhc(r, P11) >= rho - 1e-12)

    def test_zero_delta_degenerates_to_one(self):
        # delta = 0 is a plain Poisson process in every case; eta returns
        # ones before any kernel runs
        p = ProcessParams(2.0, 0.0)
        r = np.linspace(0.0, 3.0, 12).reshape(3, 4)
        reference = contact_cdf(
            RetentionFunction(ContactCase.PPP_TO_PPP, p),
            default_r_grid(ContactCase.PPP_TO_PPP, p),
        )
        for case in ContactCase:
            eta = RetentionFunction(case, p)
            values, errors = eta(r, with_error=True)
            assert values.shape == r.shape and np.all(values == 1.0) and np.all(errors == 0.0)
            assert eta(0.7) == 1.0 and isinstance(eta(0.7), float)
            curve = contact_cdf(eta, default_r_grid(case, p))
            for field in ("radii", "values", "abs_error", "hazard", "hazard_error"):
                assert getattr(curve, field).tobytes() == getattr(reference, field).tobytes()

    def test_lower_support_and_target_intensity(self):
        eta = RetentionFunction(ContactCase.MHC_TO_MHC, P11)
        assert eta.lower_support == 1.0
        assert eta.target_intensity == mhc_intensity(P11)
        eta2 = RetentionFunction(ContactCase.PPP_TO_PPP, P11)
        assert eta2.lower_support == 0.0
        assert eta2.target_intensity == 1.0
        for case in (ContactCase.PPP_TO_MHC, ContactCase.CMHC_TO_MHC):
            assert RetentionFunction(case, P11).lower_support == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        ratio=st.floats(min_value=1e-3, max_value=20.0),
        delta=st.floats(min_value=1e-2, max_value=3.0),
        lam=st.floats(min_value=0.1, max_value=8.0),
    )
    def test_all_profiles_are_probabilities(self, ratio, delta, lam):
        # the first-order profiles are conditional survival probabilities;
        # RetentionFunction is a conditional-intensity ratio, which exceeds 1
        # where the source attracts targets (removed observers), so it is
        # only held to being a finite, non-negative hazard profile
        p = ProcessParams(lam, delta)
        r = np.array([ratio * delta])
        for profile in (pair_retention(r, p) / mhc_retention(p), retention_ppp_to_mhc(r, p)):
            assert -1e-12 <= profile[0] <= 1.0 + 1e-12
        for case in ContactCase:
            value, error = RetentionFunction(case, p)(ratio * delta, with_error=True)
            assert math.isfinite(value) and value >= 0.0
            assert math.isfinite(error) and 0.0 <= error <= 1e-9 * max(1.0, value)


def test_single_branch_arrays_match_mixed_ones():
    # a kernel computes straight on an array whose elements all take one
    # branch; each element must get the bits it gets inside a mixed array
    p = ProcessParams(1.0, 0.5)
    kernels = [
        # (kernel, elements on the computed branch, elements on the other)
        (lambda r: pair_retention(r, p), np.linspace(0.5001, 3.0, 41), [0.0, 0.2, 0.5]),
        (lambda r: _void_lens(r, p.delta), np.linspace(0.01, 3.0, 41), [0.0]),
        (lambda s: cmhc_pair_retention(s, p), np.linspace(0.5001, 1.0, 41), [0.3, 0.5]),
        (lambda u: _removed_pair_correlation(u, p), np.linspace(0.5001, 0.999, 41), [1.0, 2.5]),
    ]
    for kernel, branch, other in kernels:
        mixed = kernel(np.concatenate([other, branch]))
        assert kernel(branch).tobytes() == mixed[len(other) :].tobytes()
        assert kernel(branch.reshape(-1, 1)).tobytes() == kernel(branch).tobytes()
        assert kernel(np.empty(0)).shape == (0,)


class TestSparseProcesses:
    """At exposure a = lambda_p pi delta**2 -> 0 every case tends to the
    Poisson curve, at a distance O(a)."""

    EXPOSURES = (1e-14, 1e-12, 1e-10, 1e-8)

    def test_curves_stay_within_ten_exposures_of_the_poisson_curve(self):
        for a in self.EXPOSURES:
            p = ProcessParams(1.0, math.sqrt(a / math.pi))
            poisson = RetentionFunction(ContactCase.PPP_TO_PPP, p)
            for case in (ContactCase.MHC_TO_MHC, ContactCase.PPP_TO_MHC):
                eta = RetentionFunction(case, p)
                # radii in units of the target spacing
                radii = np.linspace(0.25, 2.0, 8) / math.sqrt(eta.target_intensity)
                curve = contact_cdf(eta, radii, 1e-14)
                exact = contact_cdf(poisson, radii, 1e-14)
                assert np.max(np.abs(curve.values - exact.values)) <= 10.0 * a, (a, case)

    def test_pair_retention_factorises_once_the_disks_separate(self):
        # k(r) = p**2 exactly beyond 2 delta; the difference quotient behind
        # k cancels unless it is summed from its series at small exposure
        for a in self.EXPOSURES:
            p = ProcessParams(1.0, math.sqrt(a / math.pi))
            r = np.array([2.0 + 1e-9, 3.0, 1e3]) * p.delta
            k = _pair_free(lens_symmetric(r, p.delta), p)
            assert np.max(np.abs(k / mhc_retention(p) ** 2 - 1.0)) <= 1e-14, a


class TestPairCorrelationTerms:
    """Closed forms inside the mended profiles, each against an oracle that
    shares no code with it."""

    def test_unconditional_pair_retention_against_quadrature(self):
        worst = 0.0
        for ratio in (1.01, 1.1, 1.5, 1.99, 2.5):
            for delta in (0.25, 1.0, 2.0):
                for lam in (0.5, 1.0, 4.0):
                    r = ratio * delta
                    l1 = lens_symmetric(np.array([r]), delta)
                    closed = _pair_free(l1, ProcessParams(lam, delta))[0]
                    worst = max(worst, abs(closed - pair_survival_quadrature(r, lam, delta)))
        assert worst < 1e-9

    def test_unconditional_pair_retention_limits(self):
        # k = p**2 once the competition disks separate and share no lens
        p = ProcessParams(1.5, 0.8)
        l1 = lens_symmetric(np.array([1.7]), 0.8)
        assert l1[0] == 0.0
        assert _pair_free(l1, p)[0] == pytest.approx(mhc_retention(p) ** 2, rel=1e-14)

    def test_rival_pair_retention_against_monte_carlo(self):
        rng = np.random.default_rng(20260808)
        for lam, delta, s in ((1.0, 1.0, 1.2), (1.0, 1.0, 1.8), (2.0, 0.5, 0.7)):
            p = ProcessParams(lam, delta)
            trials = 100_000
            estimate = rival_pair_survival_monte_carlo(s, lam, delta, trials, rng)
            closed = cmhc_pair_retention(np.array([s]), p)[0]
            stderr = math.sqrt(closed * (1.0 - closed) / trials)
            assert abs(estimate - closed) < 4.0 * stderr
        assert cmhc_pair_retention(np.array([0.9]), P11)[0] == 0.0

    def test_removed_observer_is_exact_below_half_delta(self):
        # at most one survivor fits in a disk of radius delta/2, and every
        # survivor within delta of a removed point beats its mark, so
        # F(r) = E[N] = (r / delta)**2 there exactly
        for lam, delta in ((1.0, 1.0), (0.5, 0.5), (4.0, 1.5)):
            p = ProcessParams(lam, delta)
            grid = np.linspace(0.0, 0.5 * delta, 40)
            curve = contact_cdf(RetentionFunction(ContactCase.CMHC_TO_MHC, p), grid, 1e-10)
            assert np.max(np.abs(curve.values - (grid / delta) ** 2)) < 1e-9

    def test_removed_observer_profile_is_continuous_away_from_delta(self):
        # eta jumps only at the hard-core distance, where the pair
        # correlation of a removed point and a survivor does
        p = ProcessParams(1.0, 1.0)
        eta = RetentionFunction(ContactCase.CMHC_TO_MHC, p)
        for r in (0.5, 1.5, 2.0, 2.2):
            assert eta(r * (1.0 - 1e-9)) == pytest.approx(eta(r * (1.0 + 1e-9)), rel=1e-6)

    def test_removed_observer_in_sparse_and_dense_processes(self):
        # lambda_p pi delta**2 from 3e-5 to 226: a removed observer's hazard
        # near delta grows like 1 / (1 - F), which is steep when thinning is
        # rare; the curve must still come out within tolerance
        for lam, delta in ((0.1, 0.01), (1.0, 1e-3), (8.0, 3.0)):
            p = ProcessParams(lam, delta)
            case = ContactCase.CMHC_TO_MHC
            curve = contact_cdf(RetentionFunction(case, p), default_r_grid(case, p, points=50))
            assert np.all(np.diff(curve.values) >= 0.0)
            assert curve.values[-1] == pytest.approx(1.0, abs=1e-9)
            assert np.all(curve.abs_error <= 1e-9)

    def test_error_estimates_within_tolerance_for_every_case(self):
        for case in ContactCase:
            for delta in (0.5, 1.0):
                p = ProcessParams(1.0, delta)
                eta = RetentionFunction(case, p)
                curve = contact_cdf(eta, default_r_grid(case, p, points=300), 1e-10)
                assert np.all(curve.abs_error <= 1e-10)
                extended = extend_curve(curve, 3.0 * float(curve.radii[-1]))
                assert np.all(extended.abs_error <= 1e-10)


class TestContactCdf:
    def test_ppp_reduction_closed_form(self):
        for lam in (1.0, 2.5):
            p = ProcessParams(lam, 0.7)
            grid = np.linspace(0.0, 2.0, 200)
            curve = contact_cdf(RetentionFunction(ContactCase.PPP_TO_PPP, p), grid)
            exact = 1.0 - np.exp(-math.pi * lam * grid**2)
            assert np.max(np.abs(curve.values - exact)) < 1e-9

    def test_monotone_and_bounded(self):
        grid = default_r_grid(ContactCase.MHC_TO_MHC, P11)
        curve = contact_cdf(RetentionFunction(ContactCase.MHC_TO_MHC, P11), grid)
        assert np.all(np.diff(curve.values) >= 0.0)
        assert curve.values[0] == 0.0
        assert np.all((curve.values >= 0.0) & (curve.values <= 1.0))

    def test_zero_below_hard_core(self):
        grid = np.array([0.2, 0.6, 1.0, 1.5, 2.0])
        curve = contact_cdf(RetentionFunction(ContactCase.MHC_TO_MHC, P11), grid)
        assert np.all(curve.values[grid <= 1.0] == 0.0)
        assert curve.values[-1] > 0.0

    def test_reaches_one_in_the_tail(self):
        p = ProcessParams(1.0, 1.0)
        big = 5.0 / math.sqrt(mhc_intensity(p))
        curve = contact_cdf(
            RetentionFunction(ContactCase.PPP_TO_MHC, p), np.array([big])
        )
        assert curve.values[-1] > 0.999

    def test_error_estimates_within_tolerance(self):
        grid = default_r_grid(ContactCase.PPP_TO_MHC, P11)
        curve = contact_cdf(RetentionFunction(ContactCase.PPP_TO_MHC, P11), grid, 1e-9)
        assert np.all(curve.abs_error <= 1e-9)

    def test_small_delta_matches_ppp_curve(self):
        p = ProcessParams(1.0, 1e-3)
        grid = np.linspace(0.0, 4.0, 200)
        curve = contact_cdf(RetentionFunction(ContactCase.PPP_TO_MHC, p), grid)
        exact = 1.0 - np.exp(-math.pi * grid**2)
        assert np.max(np.abs(curve.values - exact)) < 1e-2

    def test_grid_validation(self):
        eta = RetentionFunction(ContactCase.PPP_TO_PPP, P11)
        with pytest.raises(ValueError):
            contact_cdf(eta, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            contact_cdf(eta, np.array([-1.0, 0.5]))
        with pytest.raises(ValueError):
            contact_cdf(eta, np.array([0.0, 1.0]), abs_tol=0.0)

    def test_quadrature_failure_is_reported(self):
        class NoisyEta:
            case = ContactCase.PPP_TO_PPP
            params = P11
            lower_support = 0.0

            def __call__(self, r, with_error=False):
                rng = np.random.default_rng(len(np.atleast_1d(r)))
                values = rng.random(np.shape(r))
                return (values, np.zeros(np.shape(r))) if with_error else values

        with pytest.raises(QuadratureError):
            contact_cdf(NoisyEta(), np.array([0.0, 1.0]), abs_tol=1e-12)

    def test_deterministic_across_calls(self):
        p = ProcessParams(1.0, 0.5)
        for case in ContactCase:
            eta = RetentionFunction(case, p)
            grid = default_r_grid(case, p, points=300)
            first, second = contact_cdf(eta, grid), contact_cdf(eta, grid)
            for field in ("radii", "values", "abs_error", "hazard", "hazard_error"):
                assert getattr(first, field).tobytes() == getattr(second, field).tobytes()

    def test_breakpoints_add_radii_without_moving_the_grid_values(self):
        p = ProcessParams(0.5, 0.25)
        eta = RetentionFunction(ContactCase.CMHC_TO_MHC, p)
        grid = default_r_grid(ContactCase.CMHC_TO_MHC, p)
        plain = contact_cdf(eta, grid)
        kinked = contact_cdf(eta, grid, breakpoints=True)
        extra = np.setdiff1d(kinked.radii, grid)
        assert np.array_equal(extra, [0.125, 0.25, 0.5])
        on_grid = kinked.restricted(grid)
        for field in ("radii", "values", "abs_error", "hazard", "hazard_error"):
            assert getattr(on_grid, field).tobytes() == getattr(plain, field).tobytes()
        with pytest.raises(ValueError):
            kinked.restricted(np.array([0.3]))

    def test_extend_curve_matches_direct_construction(self):
        eta = RetentionFunction(ContactCase.PPP_TO_MHC, P11)
        short = contact_cdf(eta, np.linspace(0.0, 2.0, 50))
        extended = extend_curve(short, 4.0)
        direct = contact_cdf(eta, extended.radii)
        assert np.max(np.abs(extended.values - direct.values)) < 1e-8
        assert extend_curve(short, 1.5) is short

    def test_evaluate_interpolates_and_guards_range(self):
        eta = RetentionFunction(ContactCase.PPP_TO_PPP, P11)
        curve = contact_cdf(eta, np.linspace(0.0, 2.0, 100))
        assert curve.evaluate(1.0) == pytest.approx(
            1.0 - math.exp(-math.pi), abs=1e-4
        )
        assert curve.evaluate(-0.5) == 0.0
        with pytest.raises(ValueError):
            curve.evaluate(3.0)


class RecordingEta:
    """Duck-typed eta that keeps a copy of every node array it receives."""

    def __init__(self, eta: RetentionFunction):
        self.eta = eta
        self.case = eta.case
        self.params = eta.params
        self.lower_support = eta.lower_support
        self.calls: list[np.ndarray] = []

    def __call__(self, r, with_error=False):
        self.calls.append(np.array(r, dtype=float))
        return self.eta(r, with_error=with_error)


class TestBatchedQuadrature:
    def test_eta_does_not_depend_on_batch_size(self):
        r = np.linspace(0.0, 3.0, 5003)
        for case in ContactCase:
            eta = RetentionFunction(case, ProcessParams(1.0, 0.5))
            values, errors = eta(r, with_error=True)
            for size in (31, 1000):
                parts = [eta(r[i : i + size], with_error=True) for i in range(0, r.size, size)]
                assert np.concatenate([v for v, _ in parts]).tobytes() == values.tobytes()
                assert np.concatenate([e for _, e in parts]).tobytes() == errors.tobytes()

    # a sparse removed observer's hazard is steep just below delta, so on a
    # coarse grid with a tight tolerance the top-level panels are rejected
    BISECTED = (
        (0.1, 1.0, (0.3, 0.99, 1.5)),
        (0.05, 1.0, (0.5, 0.999, 2.5)),
        (0.1, 0.5, (0.2, 0.5, 1.0)),
    )

    @staticmethod
    def panel_edges(delta, radii):
        """0, the radii and the lens breakpoints below the last radius."""
        cuts = {c for c in (0.5 * delta, delta, 2.0 * delta) if c < radii[-1]}
        return sorted({0.0, *radii} | cuts)

    def test_bisected_panels_match_an_independent_quadrature(self):
        tol = 1e-12
        for lam, delta, radii in self.BISECTED:
            eta = RetentionFunction(ContactCase.CMHC_TO_MHC, ProcessParams(lam, delta))
            curve = contact_cdf(eta, np.array(radii), tol)
            assert np.all(curve.abs_error <= tol)
            edges = self.panel_edges(delta, radii)
            hazard, quad_err = cumulative_quad(
                lambda r: 2.0 * math.pi * lam * r * eta(r), edges
            )
            oracle = -np.expm1(-hazard[np.isin(edges[1:], radii)])
            assert np.max(np.abs(curve.values - oracle)) <= tol + quad_err

    def test_bulk_walk_matches_the_per_panel_walk(self, monkeypatch):
        configs = [
            (ContactCase.CMHC_TO_MHC, ProcessParams(lam, delta), np.array(radii), 1e-12, False)
            for lam, delta, radii in self.BISECTED
        ]
        for case in (ContactCase.MHC_TO_MHC, ContactCase.PPP_TO_MHC, ContactCase.CMHC_TO_MHC):
            p = ProcessParams(1.0, 0.75)
            configs.append((case, p, default_r_grid(case, p, points=1000), 1e-10, True))
        integrate_panel = analytic._integrate_panel
        ran = []
        for case, p, grid, tol, breakpoints in configs:
            eta = RetentionFunction(case, p)
            s = eta.lower_support
            reference = per_panel_walk(eta, s, grid[grid > s], tol, breakpoints)
            # every panel the bulk walk hands on must be one it rejected,
            # that is, one whose bisection evaluates eta
            recording = RecordingEta(eta)
            bisected = []

            def counting(fn, *args):
                calls = len(recording.calls)
                out = integrate_panel(fn, *args)
                bisected.append(len(recording.calls) > calls)
                return out

            monkeypatch.setattr(analytic, "_integrate_panel", counting)
            curve = contact_cdf(recording, grid, tol, breakpoints=breakpoints)
            monkeypatch.undo()
            n = len(reference[0])
            for field, expected in zip(("radii", "hazard", "hazard_error"), reference):
                assert getattr(curve, field)[-n:].tobytes() == expected.tobytes(), (case, field)
            assert all(bisected), case
            ran.append(bool(bisected))
        # the bisection path ran on every coarse grid, and between accepted
        # runs on a 1000-radius one
        assert all(ran[: len(self.BISECTED)]) and any(ran[len(self.BISECTED) :])

    def test_no_panel_is_evaluated_twice(self):
        for lam, delta, radii in self.BISECTED:
            eta = RetentionFunction(ContactCase.CMHC_TO_MHC, ProcessParams(lam, delta))
            recording = RecordingEta(eta)
            contact_cdf(recording, np.array(radii), 1e-12)
            assert all(nodes.size % 31 == 0 for nodes in recording.calls)
            rows = np.concatenate([nodes.reshape(-1, 31) for nodes in recording.calls])
            # more rows than top-level panels: the bisection path ran
            assert len(rows) > len(self.panel_edges(delta, radii)) - 1
            assert len({row.tobytes() for row in rows}) == len(rows)


class TestDiscretizedVoidProbability:
    def test_ppp_product_converges_to_closed_form(self):
        eta = RetentionFunction(ContactCase.PPP_TO_PPP, P11)
        value = void_probability_discretized(eta, 1.0, 10**6)
        assert value == pytest.approx(math.exp(-math.pi), rel=1e-4)

    def test_first_order_convergence(self):
        eta = RetentionFunction(ContactCase.PPP_TO_PPP, P11)
        exact = math.exp(-math.pi)
        gaps = [
            abs(void_probability_discretized(eta, 1.0, n) - exact)
            for n in (20_000, 40_000, 80_000)
        ]
        ratios = [gaps[i] / gaps[i + 1] for i in range(2)]
        for ratio in ratios:
            assert 1.8 < ratio < 2.2

    def test_consistency_with_quadrature(self):
        p = ProcessParams(1.0, 0.5)
        for case in ContactCase:
            eta = RetentionFunction(case, p)
            prod = void_probability_discretized(eta, 2.0, 10**5)
            curve = contact_cdf(eta, np.array([2.0]))
            assert abs(prod - (1.0 - curve.values[-1])) < 1e-3

    def test_lower_support_returns_one(self):
        eta = RetentionFunction(ContactCase.MHC_TO_MHC, P11)
        assert void_probability_discretized(eta, 1.0, 100) == 1.0

    def test_too_coarse_raises(self):
        eta = RetentionFunction(ContactCase.PPP_TO_PPP, P11)
        with pytest.raises(ResolutionError):
            void_probability_discretized(eta, 100.0, 2)
        with pytest.raises(ValueError):
            void_probability_discretized(eta, 1.0, 1)
        with pytest.raises(ValueError):
            void_probability_discretized(eta, -1.0, 100)


def test_default_r_grid_span():
    grid = default_r_grid(ContactCase.MHC_TO_MHC, P11, points=200)
    assert len(grid) == 200
    assert grid[0] == 1.0
    assert grid[-1] == pytest.approx(1.0 + 4.0 / math.sqrt(mhc_intensity(P11)))
    with pytest.raises(ValueError):
        default_r_grid(ContactCase.PPP_TO_PPP, P11, points=1)
    shifted = default_r_grid(ContactCase.MHC_TO_MHC, P11, points=200, r_min=2.0)
    assert shifted[-1] - shifted[0] == pytest.approx(grid[-1] - grid[0])
    assert np.array_equal(
        default_r_grid(ContactCase.MHC_TO_MHC, P11, points=3, r_min=0.5, r_max=1.5),
        [0.5, 1.0, 1.5],
    )
    for r_min, r_max in ((2.0, 2.0), (1.0, float("inf")), (float("nan"), None)):
        with pytest.raises(ValueError, match="finite and non-empty"):
            default_r_grid(ContactCase.MHC_TO_MHC, P11, r_min=r_min, r_max=r_max)


def test_curve_dataclass_round_trip_fields():
    grid = np.linspace(0.0, 1.0, 10)
    curve = contact_cdf(RetentionFunction(ContactCase.PPP_TO_PPP, P11), grid)
    assert isinstance(curve, CdfCurve)
    assert curve.radii.shape == curve.values.shape == curve.abs_error.shape
