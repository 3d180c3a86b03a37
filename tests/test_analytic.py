"""Unit and property tests for the retention probabilities and CDF machinery."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebint
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
from matern_contact.geometry import DomainError, lens_asymmetric, lens_symmetric
from oracles import (
    ResolutionError,
    clenshaw_difference_per_row,
    clenshaw_per_row,
    cumulative_quad,
    pair_retention_quadrature,
    pair_survival_quadrature,
    per_node_eta,
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
        assert np.array_equal(pair_retention(np.array([0.5, 1.0]), 1.0), [0.0, 0.0])

    def test_matches_quadrature_on_subset(self):
        # the kernel in delta units against the oracle in radii
        for r_ratio in (1.01, 1.5, 3.0):
            for delta in (0.5, 1.0):
                for lam in (1.0, 4.0):
                    p = ProcessParams(lam, delta)
                    closed = pair_retention(np.array([r_ratio]), lam * delta * delta)[0]
                    numeric = pair_retention_quadrature(r_ratio * delta, p)
                    assert abs(closed - numeric) < 1e-8

    def test_far_field_approaches_independent_product(self):
        # at huge separation the joint survival factorises; the shared lens is
        # gone and the void ball removes half of the candidate's disk
        lam = 1.0
        limit = expm1_ratio(lam * math.pi) * expm1_ratio(lam * math.pi / 2.0)
        near, far, farther = pair_retention(np.array([1e3, 1e4, 1e5]), lam)
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
        assert np.array_equal((pair_retention(r, 1.0) / mhc_retention(P11))[:2], [0.0, 0.0])
        eta = RetentionFunction(ContactCase.MHC_TO_MHC, P11)(r)
        assert np.array_equal(eta[:2], [0.0, 0.0])
        ratio = _pair_free(lens_symmetric(r[2:]), 1.0)[0] / mhc_retention(P11)
        assert eta[2] == pytest.approx(ratio, rel=1e-9)

    def test_ppp_small_r_limit_is_retention(self):
        assert retention_ppp_to_mhc(np.array([1e-12]), 1.0)[0] == pytest.approx(
            mhc_retention(P11), rel=1e-9
        )

    def test_ppp_unit_value_against_oracle(self):
        l2 = lens_asymmetric(1.0)
        oracle = mark_integral_oracle(math.pi - l2)
        value = retention_ppp_to_mhc(np.array([1.0]), 1.0)[0]
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(ETA_PPP_MHC_AT_UNIT, rel=1e-12)

    def test_ppp_dominates_unconditional_retention(self):
        r = np.linspace(1e-3, 8.0, 200)
        rho = mhc_retention(P11)
        assert np.all(retention_ppp_to_mhc(r, 1.0) >= rho - 1e-12)

    def test_zero_delta_degenerates_to_one(self):
        # delta = 0 is a plain Poisson process in every case that has a model
        # there; eta returns ones before any kernel runs. cmhc-mhc has none:
        # thinning at delta 0 removes no point
        p = ProcessParams(2.0, 0.0)
        r = np.linspace(0.0, 3.0, 12).reshape(3, 4)
        reference = contact_cdf(
            RetentionFunction(ContactCase.PPP_TO_PPP, p),
            default_r_grid(ContactCase.PPP_TO_PPP, p),
        )
        with pytest.raises(ValueError, match="cmhc-mhc needs delta > 0"):
            RetentionFunction(ContactCase.CMHC_TO_MHC, p)
        for case in (ContactCase.PPP_TO_PPP, ContactCase.MHC_TO_MHC, ContactCase.PPP_TO_MHC):
            eta = RetentionFunction(case, p)
            values, errors = eta(r, with_error=True)
            assert values.shape == r.shape and np.all(values == 1.0) and np.all(errors == 0.0)
            assert eta(0.7) == 1.0 and isinstance(eta(0.7), float)
            curve = contact_cdf(eta, default_r_grid(case, p))
            for field in ("radii", "values", "abs_error", "hazard", "hazard_error"):
                assert getattr(curve, field).tobytes() == getattr(reference, field).tobytes()

    @pytest.mark.parametrize("case", list(ContactCase))
    def test_eta_rejects_negative_nan_and_infinite_radii(self, case):
        # one check for every case, Poisson curves at delta 0 included, before
        # any lookup: no case may return 0 or 1 there, or fail in a table
        for p in (ProcessParams(1.0, 0.5), P11, ProcessParams(2.0, 0.0)):
            if case is ContactCase.CMHC_TO_MHC and p.delta == 0.0:
                continue
            eta = RetentionFunction(case, p)
            for bad in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError):
                    eta(bad)
                with pytest.raises(DomainError):
                    eta(np.array([[0.5, 2.0], [bad, 1.0]]), with_error=True)
            assert eta(np.array([0.0, 0.5, 2.0])).shape == (3,)

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
        rho, unit = np.array([ratio]), lam * delta * delta
        profiles = (pair_retention(rho, unit) / mhc_retention(p), retention_ppp_to_mhc(rho, unit))
        for profile in profiles:
            assert -1e-12 <= profile[0] <= 1.0 + 1e-12
        for case in ContactCase:
            value, error = RetentionFunction(case, p)(ratio * delta, with_error=True)
            assert math.isfinite(value) and value >= 0.0
            assert math.isfinite(error) and 0.0 <= error <= 1e-9 * max(1.0, value)


def test_single_branch_arrays_match_mixed_ones():
    # a kernel computes straight on an array whose elements all take one
    # branch; each element must get the bits it gets inside a mixed array
    lam = 0.25  # lambda_p 1 at delta 0.5, in delta units
    kernels = [
        # (kernel, elements on the computed branch, elements on the other)
        (lambda r: pair_retention(r, lam), np.linspace(1.0002, 6.0, 41), [0.0, 0.4, 1.0]),
        (lens_asymmetric, np.linspace(0.02, 6.0, 41), [0.0, 0.2]),
        (lambda s: cmhc_pair_retention(s, lam), np.linspace(1.0002, 2.0, 41), [0.6, 1.0]),
        (lambda u: _removed_pair_correlation(u, lam), np.linspace(1.0002, 1.998, 41), [2.0, 5.0]),
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

    def test_removed_observer_curves_in_sparse_processes(self):
        # a removed observer's dominator is alone in its hard-core disk at
        # a -> 0, so F -> (r/delta)**2 there; beyond delta the hazard table
        # starts from the closed form at delta
        began = time.perf_counter()
        for a in self.EXPOSURES:
            p = ProcessParams(1.0, math.sqrt(a / math.pi))
            eta = RetentionFunction(ContactCase.CMHC_TO_MHC, p)
            inner = np.linspace(0.0, 1.0, 9) * p.delta
            outer = np.concatenate(
                [np.array([1.2, 1.5, 2.0, 3.0]) * p.delta, np.linspace(0.25, 2.0, 8)]
            )
            curve = contact_cdf(eta, np.concatenate([inner, outer]), 1e-14)
            assert np.all(curve.abs_error <= 1e-14), a
            gap = np.abs(curve.values[: inner.size] - (inner / p.delta) ** 2)
            assert np.max(gap) <= 10.0 * a, a
            assert_matches_quadrature(eta, outer, curve.values[inner.size :])
        assert time.perf_counter() - began < 10.0

    def test_pair_retention_factorises_once_the_disks_separate(self):
        # k(r) = p**2 exactly beyond 2 delta; the difference quotient behind
        # k cancels unless it is summed from its series at small exposure
        for a in self.EXPOSURES:
            lam = a / math.pi
            k = _pair_free(lens_symmetric(np.array([2.0 + 1e-9, 3.0, 1e3])), lam)
            assert np.max(np.abs(k / expm1_ratio(lam * math.pi) ** 2 - 1.0)) <= 1e-14, a


class TestPairCorrelationTerms:
    """Closed forms inside the mended profiles, each against an oracle that
    shares no code with it."""

    def test_unconditional_pair_retention_against_quadrature(self):
        worst = 0.0
        for ratio in (1.01, 1.1, 1.5, 1.99, 2.5):
            for delta in (0.25, 1.0, 2.0):
                for lam in (0.5, 1.0, 4.0):
                    l1 = lens_symmetric(np.array([ratio]))
                    closed = _pair_free(l1, lam * delta * delta)[0]
                    oracle = pair_survival_quadrature(ratio * delta, lam, delta)
                    worst = max(worst, abs(closed - oracle))
        assert worst < 1e-9

    def test_unconditional_pair_retention_limits(self):
        # k = p**2 once the competition disks separate and share no lens
        p = ProcessParams(1.5, 0.8)
        l1 = lens_symmetric(np.array([1.7 / 0.8]))
        assert l1[0] == 0.0
        k = _pair_free(l1, 1.5 * 0.8 * 0.8)[0]
        assert k == pytest.approx(mhc_retention(p) ** 2, rel=1e-14)

    def test_rival_pair_retention_against_monte_carlo(self):
        rng = np.random.default_rng(20260808)
        for lam, delta, s in ((1.0, 1.0, 1.2), (1.0, 1.0, 1.8), (2.0, 0.5, 0.7)):
            trials = 100_000
            estimate = rival_pair_survival_monte_carlo(s, lam, delta, trials, rng)
            closed = cmhc_pair_retention(np.array([s / delta]), lam * delta * delta)[0]
            stderr = math.sqrt(closed * (1.0 - closed) / trials)
            assert abs(estimate - closed) < 4.0 * stderr
        assert cmhc_pair_retention(np.array([0.9]), 1.0)[0] == 0.0

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

    @pytest.mark.parametrize("case", list(ContactCase))
    def test_cdf_is_zero_at_negative_radii_and_rejects_nan(self, case):
        # F is 0 below the lower support, so at every negative radius, where
        # the Poisson closed form 1 - exp(-lambda_p pi r**2) is not
        for p in (ProcessParams(1.0, 0.5), ProcessParams(1.0, 0.0)):
            if case is ContactCase.CMHC_TO_MHC and p.delta == 0.0:
                continue
            curve = contact_cdf(RetentionFunction(case, p), np.linspace(0.0, 2.0, 9))
            below = curve.cdf(np.array([-1.0, -1e-300, -0.0, -math.inf]))
            assert below.tobytes() == np.zeros(4).tobytes(), (case, p)
            assert curve.cdf(curve.radii).tobytes() == curve.values.tobytes()
            with pytest.raises(ValueError, match="NaN"):
                curve.cdf(np.array([0.5, math.nan]))

    @pytest.mark.parametrize("case", list(ContactCase))
    def test_cdf_is_one_at_infinity(self, case):
        # F(inf) = 1 with error 0 on every curve, and it grows no table to
        # get there; a finite radius beyond the model still raises
        curve = contact_cdf(RetentionFunction(case, ProcessParams(1.0, 0.5)), np.array([0.75]))
        assert curve.cdf(np.array([math.inf])).tobytes() == np.ones(1).tobytes()
        hazard, herr = curve._hazard_at(np.array([0.5, math.inf, 1.0]), curve.abs_tol)
        assert hazard[1] == math.inf and herr[1] == 0.0
        both = curve.cdf(np.array([0.5, math.inf, 1.0]))
        assert both[[0, 2]].tobytes() == curve.cdf(np.array([0.5, 1.0])).tobytes()
        assert both[1] == 1.0
        table = curve._hazard_at._table
        if table is not None:
            assert table._end < 4.0
            with pytest.raises(ValueError, match="beyond the model"):
                curve.cdf(np.array([1e160]))

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

    def test_quadrature_failure_is_reported(self, monkeypatch):
        # a hard-core case: a Poisson curve is a closed form and builds no table
        def noisy_eta(self, r, with_error=False):
            rng = np.random.default_rng(len(np.atleast_1d(r)))
            values = rng.random(np.shape(r))
            return (values, np.zeros(np.shape(r))) if with_error else values

        eta = RetentionFunction(ContactCase.PPP_TO_MHC, P11)
        monkeypatch.setattr(RetentionFunction, "__call__", noisy_eta)
        with pytest.raises(QuadratureError):
            contact_cdf(eta, np.array([0.0, 1.0]), abs_tol=1e-12)

    def test_deterministic_across_calls(self):
        p = ProcessParams(1.0, 0.5)
        for case in ContactCase:
            eta = RetentionFunction(case, p)
            grid = default_r_grid(case, p, points=300)
            first, second = contact_cdf(eta, grid), contact_cdf(eta, grid)
            for field in ("radii", "values", "abs_error", "hazard", "hazard_error"):
                assert getattr(first, field).tobytes() == getattr(second, field).tobytes()

    def test_cdf_reads_the_curves_table_at_any_radius(self):
        # below the support, inside and beyond the grid, and across delta,
        # where a removed observer's closed form hands over to the table
        radii = np.array([0.0, 0.1, 0.25, 0.49, 0.5, 0.77, 1.3, 2.0, 9.0])
        for case in ContactCase:
            eta = RetentionFunction(case, ProcessParams(1.0, 0.5))
            curve = contact_cdf(eta, np.linspace(0.6, 1.2, 7))
            direct = contact_cdf(RetentionFunction(case, eta.params), radii)
            assert curve.cdf(radii).tobytes() == direct.values.tobytes(), case
            if case is ContactCase.CMHC_TO_MHC:
                # a read is held to the curve's tolerance, as its grid is
                strict = replace(curve, abs_tol=1e-300)
                with pytest.raises(QuadratureError, match="exceeds the tolerance"):
                    strict.cdf(np.array([1.0]))

    def test_extend_curve_matches_direct_construction(self):
        eta = RetentionFunction(ContactCase.PPP_TO_MHC, P11)
        short = contact_cdf(eta, np.linspace(0.0, 2.0, 50))
        extended = extend_curve(short, 4.0)
        direct = contact_cdf(eta, extended.radii)
        for field in ("radii", "values", "abs_error", "hazard", "hazard_error"):
            assert getattr(extended, field).tobytes() == getattr(direct, field).tobytes()
        assert extend_curve(short, 1.5) is short


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

    # coarse grids of a sparse removed observer, whose hazard is steep just
    # below delta
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


CURVED = (ContactCase.MHC_TO_MHC, ContactCase.PPP_TO_MHC, ContactCase.CMHC_TO_MHC)


def r_e_preimage(c: float) -> float:
    """The radius rho > delta/2, in delta units, at which
    r_e(rho)**2 = rho**2 - lens_asymmetric(rho) / pi reaches c**2, by
    bisection until the bracket is one ulp wide."""
    lo, hi = 0.5, 4.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if mid * mid - lens_asymmetric(mid) / math.pi < c * c:
            lo = mid
        else:
            hi = mid


# eta's kinks in delta units: the lens breakpoints and their r_e preimages
KINKS = sorted((0.5, 1.0, 2.0, *(r_e_preimage(c) for c in (0.5, 1.0, 2.0))))


def quad_cdf(eta, radii, start: float, offset: float = 0.0):
    """F at ascending radii above ``start`` from ``cumulative_quad`` of the
    hazard density with the radii and every kink of eta as edges, given the
    hazard ``offset`` at ``start``; and the quadrature's error estimate."""
    lam, d = eta.params.lambda_p, eta.params.delta
    kinks = [k * d for k in KINKS if start < k * d < radii[-1]]
    edges = np.union1d([start, *kinks], radii)
    hazard, err = cumulative_quad(lambda r: 2.0 * math.pi * lam * r * eta(r), edges)
    return -np.expm1(-(offset + hazard[np.searchsorted(edges[1:], radii)])), err


def assert_matches_quadrature(eta, radii, values, bound: float = 2e-13):
    """F at ascending radii against :func:`quad_cdf`. A removed observer's
    table starts at delta, so there the oracle starts from the curve's own
    hazard at delta; its closed form below delta is checked against the
    quadrature from 0 unless the process is sparse, where the hazard has a
    near-pole at delta."""
    start = eta.lower_support
    checks = [(radii > start, start, 0.0)]
    if eta.case is ContactCase.CMHC_TO_MHC:
        d = eta.params.delta
        at_delta = contact_cdf(eta, np.array([d])).hazard[0]
        checks = [(radii > d, d, at_delta)]
        if eta.params.lambda_p * math.pi * eta.params.delta**2 >= 1e-3:
            checks.append(((radii > 0.0) & (radii <= d), 0.0, 0.0))
    for mask, lo, offset in checks:
        if mask.any():
            oracle, err = quad_cdf(eta, radii[mask], lo, offset)
            # an error dH of the hazard moves F by (1 - F) dH
            gap = np.max(np.abs(values[mask] - oracle) - err * (1.0 - oracle))
            assert gap <= bound, (eta.case, eta.params, lo, gap)


class TestHazardTable:
    """contact_cdf reads the hazard from one table of its density per curve."""

    def test_kinks_are_where_r_e_reaches_the_lens_breakpoints(self):
        assert analytic._KINKS == pytest.approx(KINKS, rel=1e-15, abs=0.0)
        # mhc-mhc's r_e also subtracts the shared lens, which is 0 beyond 2
        # delta, so its preimage of 2 delta is the same
        rho = KINKS[-1]
        r_e_squared = rho * rho - (
            lens_asymmetric(rho) - lens_symmetric(rho)
        ) / math.pi
        assert r_e_squared == pytest.approx(4.0, rel=1e-14)

    def configs(self):
        """(case, params, grid): the coarse BISECTED grids, the benchmark's
        sweep grids and curves at exposures 1e-8, 1 and 226."""
        out = []
        for case in CURVED:
            for lam, delta, radii in TestBatchedQuadrature.BISECTED:
                out.append((case, ProcessParams(lam, delta), np.array(radii)))
            for delta in (0.5, 0.75, 1.0):
                p = ProcessParams(1.0, delta)
                out.append((case, p, default_r_grid(case, p, points=1000)))
            for lam, delta in ((1.0, 5.64e-5), (1.0, 1.0 / math.sqrt(math.pi)), (8.0, 3.0)):
                p = ProcessParams(lam, delta)
                out.append((case, p, default_r_grid(case, p, points=50)))
        return out

    def test_table_cdf_matches_an_independent_quadrature(self):
        for case, p, grid in self.configs():
            eta = RetentionFunction(case, p)
            curve = contact_cdf(eta, grid, 1e-13)
            assert np.all(curve.abs_error <= 1e-13)
            # about 12 radii of a long grid: its table is the same
            every = max(1, len(grid) // 12)
            assert_matches_quadrature(eta, curve.radii[::every], curve.values[::every])

    def test_cdf_at_a_radius_does_not_depend_on_the_grid(self):
        # exposure 1; a coarse grid whose one stretch holds the kink at
        # 1.1869819 delta, where eta's void ratio changes form
        p = ProcessParams(1.0, 0.5641895835477563)
        eta = RetentionFunction(ContactCase.CMHC_TO_MHC, p)
        coarse = contact_cdf(eta, np.array([0.6289, 0.8463]), 1e-13)
        fine = contact_cdf(eta, np.linspace(0.6289, 0.8463, 40), 1e-13)
        assert coarse.values[-1] == fine.values[-1]
        at_delta = contact_cdf(eta, np.array([p.delta])).hazard[0]
        oracle, err = quad_cdf(eta, np.array([0.8463]), p.delta, at_delta)
        assert abs(coarse.values[-1] - oracle[0]) <= 2e-13 + err
        # a radius keeps its bits on every grid, at every tolerance
        radii = np.array([0.3, 0.6, 1.0, 1.7, 2.6])
        for case in CURVED + (ContactCase.PPP_TO_PPP,):
            eta = RetentionFunction(case, ProcessParams(1.0, 0.5))
            alone = contact_cdf(eta, radii, 1e-13)
            grids = [
                np.union1d(radii, np.linspace(0.0, 4.0, 1000)),
                np.union1d(radii, [0.25, 0.5, 1.0, 7.5]),
                radii[1:],
            ]
            for grid in grids:
                for tol in (1e-6, 1e-13):
                    curve = contact_cdf(RetentionFunction(case, eta.params), grid, tol)
                    at = np.isin(curve.radii, radii)
                    theirs = np.isin(radii, curve.radii)
                    for field in ("hazard", "hazard_error"):
                        got = getattr(curve, field)[at].tobytes()
                        assert got == getattr(alone, field)[theirs].tobytes(), (case, field)

    def test_empty_lookups_before_the_first_extension(self):
        table = analytic._Table(np.cos, (0.0, 1.0), (0.0,))
        value, err = table.integral(np.zeros(0))
        assert value.shape == err.shape == (0,)
        value, err = table.integral(np.zeros(0), np.zeros(0))
        assert value.shape == err.shape == (0,)


class TestDeltaUnits:
    """Every curve is solved at delta = 1: eta(r) and H(r) are the twin's at
    (lambda_p delta**2, 1), read at r / delta."""

    @pytest.mark.parametrize("case", CURVED)
    def test_curves_and_eta_equal_their_delta_unit_twins_bit_for_bit(self, case):
        for lam in (1.0, 2.5):
            for delta in (0.5, 0.75, 0.981234, 7.3):
                p = ProcessParams(lam, delta)
                twin = ProcessParams(lam * delta * delta, 1.0)
                r = np.concatenate([[0.0], default_r_grid(case, p, points=300)[1:]])
                rho = r / delta
                curve = contact_cdf(RetentionFunction(case, p), r, 1e-12)
                unit = contact_cdf(RetentionFunction(case, twin), rho, 1e-12)
                for field in ("values", "abs_error"):
                    got, want = getattr(curve, field), getattr(unit, field)
                    assert got.tobytes() == want.tobytes(), (case, lam, delta, field)
                values, errors = RetentionFunction(case, p)(r, with_error=True)
                unit_values, unit_errors = RetentionFunction(case, twin)(rho, with_error=True)
                assert values.tobytes() == unit_values.tobytes(), (case, lam, delta)
                assert errors.tobytes() == unit_errors.tobytes(), (case, lam, delta)

    def test_poisson_curves_are_the_closed_form(self):
        # ppp-ppp, and mhc-mhc and ppp-mhc at delta 0, have no delta to scale by
        # and no table: H = lambda_p pi r**2 with error estimate 0
        r = np.linspace(0.0, 3.0, 50)
        for case, p in (
            (ContactCase.PPP_TO_PPP, ProcessParams(2.5, 0.7)),
            (ContactCase.MHC_TO_MHC, ProcessParams(2.5, 0.0)),
        ):
            curve = contact_cdf(RetentionFunction(case, p), r)
            assert curve._hazard_at._table is None
            assert curve.hazard.tobytes() == (math.pi * 2.5 * r * r).tobytes()
            assert np.all(curve.hazard_error == 0.0) and np.all(curve.abs_error == 0.0)

    def test_dense_curves_read_the_saturated_curve(self, capsys, monkeypatch):
        from matern_contact.cli import main

        # exposure 3e200: mhc-mhc used to print F = 0 at every radius
        argv = ["analytic", "--case", "mhc-mhc", "--points", "3", "--delta", "1e100"]
        assert main(argv + ["--format", "json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        radii = np.array(printed["radii"])
        saturated = {
            case: ProcessParams(exposure / math.pi, 1.0)
            for case, exposure in analytic._SATURATED_EXPOSURE.items()
        }
        unit = RetentionFunction(ContactCase.MHC_TO_MHC, saturated[ContactCase.MHC_TO_MHC])
        curve = contact_cdf(unit, radii / 1e100)
        assert printed["F"] == curve.values.tolist()
        assert printed["F"][1:] == [1.0, 1.0]
        # the clamp against direct evaluation at two larger exposures
        for case, exposures in (
            (ContactCase.MHC_TO_MHC, (1e4, 1e8)),
            (ContactCase.PPP_TO_MHC, (1e4, 1e8)),
            (ContactCase.CMHC_TO_MHC, (1e30, 1e100)),
        ):
            unit = RetentionFunction(case, saturated[case])
            rho = np.linspace(unit.lower_support, 6.0, 2000)
            clamped = contact_cdf(unit, rho).values
            with monkeypatch.context() as patch:
                patch.setattr(analytic, "_SATURATED_EXPOSURE", dict.fromkeys(ContactCase, math.inf))
                for a in exposures:
                    eta = RetentionFunction(case, ProcessParams(a / math.pi, 1.0))
                    gap = np.max(np.abs(contact_cdf(eta, rho).values - clamped))
                    assert gap <= np.finfo(float).eps, (case, a, gap)


class TestTables:
    """eta looks its inner integrals up in piecewise Chebyshev tables that
    each RetentionFunction builds on first use."""

    def test_eta_agrees_with_the_per_node_rule(self):
        # (1, 5.64e-5) has exposure 1e-8 and (8, 3) exposure 226
        for lam, delta in ((1.0, 0.5), (1.0, 1.0), (1.0, 5.64e-5), (8.0, 3.0)):
            p = ProcessParams(lam, delta)
            cuts = (0.5 * delta, delta, 2.0 * delta)
            near = [np.nextafter(c, side) for c in cuts for side in (0.0, math.inf)]
            for case in CURVED:
                top = default_r_grid(case, p, points=2)[-1]
                r = np.concatenate([np.linspace(0.0, top, 2000 - 9), cuts, near])
                values, errors = RetentionFunction(case, p)(r, with_error=True)
                expected, expected_err = per_node_eta(case, p, r)
                assert np.all(np.isfinite(errors)), (lam, delta, case)
                gap = np.abs(values - expected) - (expected_err + 1e-13 * expected)
                assert np.all(gap <= 0.0), (lam, delta, case, r[np.argmax(gap)])

    def test_tables_do_not_depend_on_the_order_of_requests(self):
        p = ProcessParams(1.0, 0.5)
        near = np.linspace(0.0, 1.2, 301)
        for case in CURVED:
            warmed = RetentionFunction(case, p)
            warmed(np.linspace(5.0, 40.0, 7))
            values, errors = warmed(near, with_error=True)
            fresh_values, fresh_errors = RetentionFunction(case, p)(near, with_error=True)
            assert values.tobytes() == fresh_values.tobytes(), case
            assert errors.tobytes() == fresh_errors.tobytes(), case

    def test_table_integrals_match_the_antiderivative(self):
        # panels on both sides of a cut, spans within and across panels,
        # against sin(hi) - sin(lo); spans of a few ulp keep their relative
        # precision, which a difference of rounded panel coordinates loses
        table = analytic._Table(np.cos, (0.0, 0.5, 1.0, 2.0), (0.5,))
        rng = np.random.default_rng(5)
        lo = np.concatenate([rng.uniform(0.0, 9.0, 400), [0.0, 0.5, 1.0, 2.0]])
        hi = lo + np.concatenate([rng.uniform(0.0, 3.0, 400), [0.5, 1.0, 1.0, 2.0]])
        value, err = table.integral(hi, hi - lo)
        exact = 2.0 * np.cos(0.5 * (hi + lo)) * np.sin(0.5 * (hi - lo))
        assert np.max(np.abs(value - exact)) <= 1e-14
        assert np.all((err >= 0.0) & (err <= 1e-13))
        tiny = lo[:400] + np.spacing(lo[:400]) * rng.integers(1, 5, 400)
        value, _ = table.integral(tiny, tiny - lo[:400])
        assert np.max(np.abs(value / (np.cos(lo[:400]) * (tiny - lo[:400])) - 1.0)) <= 1e-12
        start, _ = table.integral(hi)
        assert np.max(np.abs(start - np.sin(hi))) <= 1e-14


def awkward_coefficients(rng, rows: int, panels: int) -> np.ndarray:
    """Random Chebyshev coefficients at every scale from subnormal to 1e300,
    with signed zeros and subnormals sown in."""
    scale = 10.0 ** rng.uniform(-320.0, 300.0, (rows, panels))
    block = rng.standard_normal((rows, panels)) * scale
    block[:, : panels // 4] = rng.standard_normal((rows, panels // 4)) * 1e300
    sown = rng.integers(0, 5, block.shape)
    block[sown == 0] = 0.0
    block[sown == 1] = -0.0
    block[sown == 2] = 5e-324 * rng.integers(-4096, 4096, np.count_nonzero(sown == 2))
    return block


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestKernelBits:
    """The table kernels against the forms they replaced, bit for bit: the
    closed-form integral against numpy's chebint, the Clenshaw runs against
    per-row loops (tests/oracles.py)."""

    def test_closed_form_integral_is_chebint(self):
        rng = np.random.default_rng(22)
        for panels in (0, 1, 2, 7, 64):
            coeffs = awkward_coefficients(rng, panels, analytic._CHEB_NODES)
            mine = analytic._chebyshev_integral(coeffs)
            reference = chebint(coeffs, lbnd=-1.0, axis=1)
            assert mine.shape == reference.shape == (panels, analytic._CHEB_NODES + 1)
            assert same_bits(mine, reference), panels
            # the layout too: the sums over a row that _extend takes next
            # depend on it
            assert mine.strides == reference.strides, panels
        # rows of signed zeros, the smallest subnormals and ones, where the
        # constant's 0 - chebval and -chebval differ in the sign of a zero
        tiny = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0], (20000, analytic._CHEB_NODES))
        assert same_bits(analytic._chebyshev_integral(tiny), chebint(tiny, lbnd=-1.0, axis=1))

    def test_clenshaw_runs_equal_the_per_row_loops(self):
        rng = np.random.default_rng(23)
        rows = awkward_coefficients(rng, analytic._CHEB_NODES, 40)
        for size in (0, 1, 5, 300):
            at = rng.integers(0, rows.shape[1], size)
            x = rng.uniform(-1.0, 1.0, size)
            y = rng.uniform(-1.0, 1.0, size)
            x[: size // 3] = rng.choice([-1.0, -0.0, 0.0, 1.0], size // 3)
            y[: size // 5] = x[: size // 5]
            dx = x - y
            value = analytic._clenshaw(rows, at, x)
            assert value.shape == (size,)
            assert same_bits(value, clenshaw_per_row(rows, at, x)), size
            diff = analytic._clenshaw_difference(rows, at, x, y, dx)
            assert same_bits(diff, clenshaw_difference_per_row(rows, at, x, y, dx)), size


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
