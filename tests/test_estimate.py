"""Tests for empirical distances, step CDFs, the sup-distance statistic, and
the experiment pipeline."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from matern_contact import (
    CapacityError,
    ContactCase,
    ExperimentConfig,
    InsufficientDataError,
    MarkedPattern,
    PointLabel,
    ProcessParams,
    RetentionFunction,
    Window,
    WindowFloorError,
    contact_cdf,
    nn_distances_cross,
    nn_distances_within,
    run_experiment,
    sample_ppp,
    thin_mhc_type2,
)
from matern_contact.analytic import default_r_grid, extend_curve
from matern_contact.estimate import empirical_cdf, ks_sup_distance, replication_patterns
from oracles import brute_nn_cross, brute_nn_within, brute_sup_distance, on_the_seam

P11 = ProcessParams(1.0, 1.0)


def labelled_pattern(window, x, y, labels, seed=0):
    n = len(x)
    return MarkedPattern(
        window,
        np.asarray(x, float),
        np.asarray(y, float),
        np.zeros(n),
        np.asarray(labels, dtype=np.uint8),
        seed,
    )


class TestNearestNeighbourDistances:
    def test_two_points_give_symmetric_distance(self):
        # neighbours across the wrap boundary
        pat = labelled_pattern(Window(10, 10), [0.5, 9.5], [5.0, 5.0], [1, 1])
        d = nn_distances_within(pat, PointLabel.MHC)
        assert d == pytest.approx([1.0, 1.0])

    def test_single_source_single_target(self):
        src = labelled_pattern(Window(10, 10), [5.0], [5.0], [0])
        tgt = labelled_pattern(Window(10, 10), [5.0], [8.0], [1])
        d = nn_distances_cross(src, PointLabel.PARENT, tgt, PointLabel.MHC)
        assert d == pytest.approx([3.0])

    def test_mhc_distances_exceed_delta(self):
        out = thin_mhc_type2(sample_ppp(1.0, Window(50, 50), 21), 1.0)
        assert nn_distances_within(out, PointLabel.MHC).min() > 1.0

    def test_cmhc_to_mhc_can_be_below_delta(self):
        out = thin_mhc_type2(sample_ppp(1.0, Window(50, 50), 22), 1.0)
        d = nn_distances_cross(out, PointLabel.CMHC, out, PointLabel.MHC)
        assert d.min() < 1.0

    def test_within_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            w = Window(float(rng.uniform(5, 20)), float(rng.uniform(5, 20)))
            n = int(rng.integers(2, 400))
            x, ox = on_the_seam(rng, rng.uniform(0, w.width, n), w.width)
            y, oy = on_the_seam(rng, rng.uniform(0, w.height, n), w.height)
            pat = labelled_pattern(w, x, y, [1] * n)
            fast = nn_distances_within(pat, PointLabel.MHC)
            brute = brute_nn_within(ox, oy, w.width, w.height)
            assert np.array_equal(fast, brute)

    def test_cross_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            w = Window(float(rng.uniform(5, 20)), float(rng.uniform(5, 20)))
            ns = int(rng.integers(1, 300))
            nt = int(rng.integers(1, 300))
            sx, osx = on_the_seam(rng, rng.uniform(0, w.width, ns), w.width)
            sy, osy = on_the_seam(rng, rng.uniform(0, w.height, ns), w.height)
            tx, otx = on_the_seam(rng, rng.uniform(0, w.width, nt), w.width)
            ty, oty = on_the_seam(rng, rng.uniform(0, w.height, nt), w.height)
            src = labelled_pattern(w, sx, sy, [0] * ns)
            tgt = labelled_pattern(w, tx, ty, [1] * nt)
            fast = nn_distances_cross(src, PointLabel.PARENT, tgt, PointLabel.MHC)
            brute = brute_nn_cross(osx, osy, otx, oty, w.width, w.height)
            assert np.array_equal(fast, brute)

    def test_permuting_the_points_permutes_the_distances(self):
        # generated patterns come in spatial order, but any other order, as
        # in a loaded or hand-built pattern, must give the same distances in
        # its own order
        rng = np.random.default_rng(3)
        w = Window(60.0, 40.0)
        src = sample_ppp(1.0, w, 23)
        tgt = sample_ppp(0.3, w, 24)
        ps = rng.permutation(src.n)
        pt = rng.permutation(tgt.n)
        a = labelled_pattern(w, src.x, src.y, [1] * src.n)
        a_perm = labelled_pattern(w, src.x[ps], src.y[ps], [1] * src.n)
        b = labelled_pattern(w, tgt.x, tgt.y, [2] * tgt.n)
        b_perm = labelled_pattern(w, tgt.x[pt], tgt.y[pt], [2] * tgt.n)
        within = nn_distances_within(a, PointLabel.MHC)
        assert np.array_equal(nn_distances_within(a_perm, PointLabel.MHC), within[ps])
        cross = nn_distances_cross(a, PointLabel.MHC, b, PointLabel.CMHC)
        assert np.array_equal(
            nn_distances_cross(a_perm, PointLabel.MHC, b_perm, PointLabel.CMHC),
            cross[ps],
        )

    def test_insufficient_data_errors(self):
        lone = labelled_pattern(Window(10, 10), [1.0], [1.0], [1])
        with pytest.raises(InsufficientDataError):
            nn_distances_within(lone, PointLabel.MHC)
        empty_target = labelled_pattern(Window(10, 10), [1.0], [1.0], [0])
        with pytest.raises(InsufficientDataError):
            nn_distances_cross(lone, PointLabel.MHC, empty_target, PointLabel.MHC)
        with pytest.raises(InsufficientDataError):
            nn_distances_cross(lone, PointLabel.CMHC, lone, PointLabel.MHC)

    def test_window_mismatch(self):
        a = labelled_pattern(Window(10, 10), [1.0], [1.0], [1])
        b = labelled_pattern(Window(12, 10), [1.0], [1.0], [1])
        with pytest.raises(ValueError):
            nn_distances_cross(a, PointLabel.MHC, b, PointLabel.MHC)


class TestEmpiricalCdf:
    def test_step_values(self):
        emp = empirical_cdf([3.0, 1.0, 2.0])
        assert emp.cdf(2.0) == pytest.approx(2.0 / 3.0)
        assert emp.cdf(0.5) == 0.0
        assert emp.cdf(3.0) == 1.0
        assert emp.cdf(99.0) == 1.0
        assert emp.cdf_left(2.0) == pytest.approx(1.0 / 3.0)

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(InsufficientDataError):
            empirical_cdf([])
        with pytest.raises(ValueError):
            empirical_cdf([1.0, math.nan])

    def test_pooling_associativity(self):
        rng = np.random.default_rng(4)
        chunks = [rng.exponential(1.0, rng.integers(1, 50)) for _ in range(5)]
        pooled = empirical_cdf(np.concatenate(chunks))
        resorted = np.sort(np.concatenate([np.sort(c) for c in chunks]))
        assert np.array_equal(pooled.samples, resorted)


class TestKsSupDistance:
    def test_exact_quantile_samples(self):
        # samples placed at exact quantiles leave only the half-jump 1/(2n)
        n = 1000
        u = (np.arange(1, n + 1) - 0.5) / n
        samples = np.sqrt(-np.log1p(-u) / math.pi)
        curve = contact_cdf(
            RetentionFunction(ContactCase.PPP_TO_PPP, P11),
            np.linspace(0.0, float(samples[-1]) * 1.01, 4000),
        )
        d = ks_sup_distance(empirical_cdf(samples), curve)
        assert d == pytest.approx(0.5 / n, abs=1e-4)

    def test_mass_concentrated_far_in_the_tail(self):
        curve = contact_cdf(
            RetentionFunction(ContactCase.PPP_TO_PPP, P11), np.linspace(0.0, 6.0, 50)
        )
        d = ks_sup_distance(empirical_cdf([5.0, 5.5, 6.0]), curve)
        assert d > 0.999

    def test_inverse_sampling_self_consistency(self):
        rng = np.random.default_rng(271828)
        n = 100_000
        samples = np.sqrt(-np.log1p(-rng.random(n)) / math.pi)
        curve = contact_cdf(
            RetentionFunction(ContactCase.PPP_TO_PPP, P11),
            np.linspace(0.0, float(samples.max()) * 1.01, 2000),
        )
        assert ks_sup_distance(empirical_cdf(samples), curve) < 0.006

    def test_extends_curve_when_samples_overrun(self):
        from matern_contact.analytic import extend_curve

        eta = RetentionFunction(ContactCase.PPP_TO_PPP, P11)
        curve = contact_cdf(eta, np.linspace(0.0, 1.0, 100))
        emp = empirical_cdf([0.5, 0.9, 1.6])
        # the extension must agree with a from-scratch curve on the same radii
        extended = extend_curve(curve, 1.6)
        direct = contact_cdf(eta, extended.radii)
        assert ks_sup_distance(emp, curve) == pytest.approx(
            ks_sup_distance(emp, direct), abs=1e-9
        )

    def test_extends_curve_down_when_samples_underrun(self):
        # a curve that starts above its lower support is continued down to
        # it: the sup sits at the sample 0.5, below the curve's first radius
        curve = contact_cdf(
            RetentionFunction(ContactCase.PPP_TO_PPP, P11), np.linspace(1.0, 2.0, 50)
        )
        d = ks_sup_distance(empirical_cdf([0.5, 1.5]), curve)
        assert d == pytest.approx(-math.expm1(-math.pi * 0.25), abs=1e-3)


def _mutual_nn_distances():
    # two mutual nearest-neighbour pairs give two tied pairs of distances
    x, y = [1.0, 1.5, 5.0, 5.0, 8.0], [1.0, 1.0, 5.0, 6.0, 8.0]
    pattern = labelled_pattern(Window(10.0, 10.0), x, y, [0] * 5)
    return nn_distances_within(pattern, PointLabel.PARENT)


def _thinned_nn_distances():
    pattern = thin_mhc_type2(sample_ppp(1.0, Window(20.0, 20.0), 7), 0.5)
    return nn_distances_within(pattern, PointLabel.MHC)


P_HALF = ProcessParams(1.0, 0.5)
PPP_PPP = RetentionFunction(ContactCase.PPP_TO_PPP, P11)
MHC_MHC = RetentionFunction(ContactCase.MHC_TO_MHC, P_HALF)


@pytest.mark.parametrize(
    "eta, grid, samples",
    [
        (PPP_PPP, np.linspace(0.0, 4.0, 41), [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]),
        # the lone point's distance overruns the grid
        (PPP_PPP, np.linspace(0.0, 2.0, 21), _mutual_nn_distances()),
        (PPP_PPP, np.linspace(0.0, 0.4, 9), np.sqrt(np.linspace(0.01, 1.5, 60))),
        # the curve starts at delta; a sample below it and one on it
        (MHC_MHC, default_r_grid(ContactCase.MHC_TO_MHC, P_HALF, 50), [0.2, 0.5, 0.5, 0.7]),
        (MHC_MHC, default_r_grid(ContactCase.MHC_TO_MHC, P_HALF, 50), _thinned_nn_distances()),
        # the grid starts above delta and the samples below it
        (
            MHC_MHC,
            default_r_grid(ContactCase.MHC_TO_MHC, P_HALF, 50, r_min=0.7),
            _thinned_nn_distances(),
        ),
    ],
    ids=[
        "ties",
        "mutual-nn-beyond-grid",
        "beyond-grid",
        "mhc-at-support",
        "mhc-thinned",
        "mhc-below-grid",
    ],
)
def test_sup_distance_matches_the_brute_force_oracle(eta, grid, samples):
    curve = contact_cdf(eta, grid)
    full = extend_curve(curve, float(np.max(samples)), float(np.min(samples)))
    assert float(full.radii[0]) == full.lower_support
    # ppp-ppp has the closed form F = 1 - exp(-pi r**2) at the nodes
    nodes = full.values if eta is MHC_MHC else -np.expm1(-math.pi * full.radii**2)
    expected = brute_sup_distance(samples, full.radii, nodes)
    assert ks_sup_distance(empirical_cdf(samples), curve) == pytest.approx(expected, abs=1e-8)


class TestExperimentConfig:
    def test_round_trip(self):
        config = ExperimentConfig(
            case=ContactCase.MHC_TO_MHC,
            params=ProcessParams(2.0, 0.5),
            window=Window(30.0, 40.0),
            replications=3,
            seed=9,
            r_max=2.5,
            r_points=50,
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_grid_defaults(self):
        config = ExperimentConfig(case=ContactCase.MHC_TO_MHC, params=P11)
        grid = config.r_grid()
        assert grid[0] == 1.0
        assert len(grid) == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(case=ContactCase.PPP_TO_PPP, params=P11, replications=0)
        with pytest.raises(ValueError):
            ExperimentConfig(
                case=ContactCase.PPP_TO_PPP, params=P11, r_min=2.0, r_max=1.0
            ).r_grid()
        # a config whose patterns cannot be generated or thinned fails when
        # it is built, not in its first replication
        with pytest.raises(CapacityError):
            ExperimentConfig(
                case=ContactCase.PPP_TO_PPP, params=P11, window=Window(1e5, 1e5)
            )
        small = Window(5.0, 5.0)
        for case in (ContactCase.MHC_TO_MHC, ContactCase.PPP_TO_MHC,
                     ContactCase.CMHC_TO_MHC):
            with pytest.raises(WindowFloorError):
                ExperimentConfig(case=case, params=P11, window=small)
        # no thinning, no floor
        ExperimentConfig(case=ContactCase.PPP_TO_PPP, params=P11, window=small)


class TestRunExperiment:
    def test_ppp_case_is_accurate_and_deterministic(self):
        config = ExperimentConfig(
            case=ContactCase.PPP_TO_PPP,
            params=P11,
            window=Window(30.0, 30.0),
            replications=5,
            seed=123,
        )
        report = run_experiment(config)
        assert report.sup_distance < 0.05
        again = run_experiment(config)
        assert report.sup_distance == again.sup_distance
        assert np.array_equal(report.empirical.samples, again.empirical.samples)
        a, b = report.to_dict(), again.to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_mhc_empirical_cdf_is_zero_on_hard_core_range(self):
        config = ExperimentConfig(
            case=ContactCase.MHC_TO_MHC,
            params=P11,
            window=Window(30.0, 30.0),
            replications=2,
            seed=5,
        )
        report = run_experiment(config)
        assert report.empirical.cdf(1.0) == 0.0
        assert report.empirical.samples.min() > 1.0

    def test_ppp_to_mhc_uses_two_independent_parents(self):
        config = ExperimentConfig(
            case=ContactCase.PPP_TO_MHC,
            params=P11,
            window=Window(30.0, 30.0),
            replications=1,
            seed=5,
        )
        roles = []
        run_experiment(config, on_pattern=lambda rep, role, pat: roles.append(role))
        assert roles == ["source", "target"]

    def test_replication_failures_carry_the_index(self):
        config = ExperimentConfig(
            case=ContactCase.MHC_TO_MHC,
            params=ProcessParams(0.001, 1.0),  # ~0.1 points: no NN distance
            window=Window(10.0, 10.0),
            replications=2,
            seed=5,
        )
        with pytest.raises(InsufficientDataError, match="replication 0"):
            run_experiment(config)

    @pytest.mark.parametrize("case", list(ContactCase))
    def test_replication_patterns_follow_the_seed_scheme(self, case):
        config = ExperimentConfig(case, P11, Window(30.0, 30.0), replications=3, seed=8)
        patterns = replication_patterns(config, 2)
        if case is ContactCase.PPP_TO_MHC:
            assert list(patterns) == ["source", "target"]
            expected = [sample_ppp(1.0, config.window, (8, 2, 0)),
                        thin_mhc_type2(sample_ppp(1.0, config.window, (8, 2, 1)), 1.0)]
        else:
            assert list(patterns) == ["pattern"]
            parents = sample_ppp(1.0, config.window, (8, 2, 0))
            thinned = case is not ContactCase.PPP_TO_PPP
            expected = [thin_mhc_type2(parents, 1.0) if thinned else parents]
        for got, want in zip(patterns.values(), expected):
            assert got.seed == want.seed
            for column in ("x", "y", "mark", "label"):
                assert np.array_equal(getattr(got, column), getattr(want, column))

    def test_sup_distance_sees_the_kink_at_delta(self):
        # a removed observer's F bends sharply at delta; interpolated linearly
        # between grid radii it read 0.055 here, against 0.021 on a dense grid
        config = ExperimentConfig(
            case=ContactCase.CMHC_TO_MHC,
            params=ProcessParams(0.5, 0.25),
            window=Window(100.0, 100.0),
            replications=10,
            seed=11,
        )
        report = run_experiment(config)
        dense = run_experiment(replace(config, r_points=4000))
        assert abs(report.sup_distance - dense.sup_distance) < 0.005
        # the report itself stays on the configured grid
        assert np.array_equal(report.analytic.radii, config.r_grid())

    def test_report_dict_shape(self):
        config = ExperimentConfig(
            case=ContactCase.CMHC_TO_MHC,
            params=P11,
            window=Window(30.0, 30.0),
            replications=2,
            seed=6,
        )
        report = run_experiment(config)
        data = report.to_dict()
        assert data["config"]["case"] == "cmhc-mhc"
        assert data["empirical"]["pooled_samples"] == report.empirical.n
        assert len(data["analytic"]["radii"]) == len(data["analytic"]["F"])
        assert "runtime" not in json.dumps(data)
        assert 0.0 <= data["sup_distance"] <= 1.0
