"""Tests for empirical distances, step CDFs, the sup-distance statistic, and
the experiment pipeline."""

import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
    estimate,
    nn_distances_cross,
    nn_distances_within,
    run_experiment,
    sample_ppp,
    simulate,
    thin_mhc_type2,
)
from matern_contact.analytic import default_r_grid
from matern_contact.estimate import (
    _periodic_tree,
    empirical_cdf,
    ks_sup_distance,
    pooled_distances,
    replication_patterns,
)
from matern_contact.simulate import _band_count
from oracles import (
    brute_nn_cross,
    brute_nn_within,
    brute_sup_distance,
    on_the_seam,
    quad_contact_cdf,
    serial_pooled_distances,
)

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

    def test_cross_rejects_a_pattern_against_itself(self):
        # one label on one pattern would pair every point with itself, at 0
        pat = thin_mhc_type2(sample_ppp(1.0, Window(20, 20), 25), 1.0)
        for target_label in (PointLabel.MHC, 1):
            with pytest.raises(ValueError, match="nn_distances_within"):
                nn_distances_cross(pat, PointLabel.MHC, pat, target_label)
        # the same points in another pattern object are the caller's business
        twin = labelled_pattern(pat.window, pat.x, pat.y, pat.label)
        assert np.all(nn_distances_cross(pat, PointLabel.MHC, twin, PointLabel.MHC) == 0.0)

    def test_worker_thread_distances_equal_the_main_thread_ones(self):
        window = Window(80.0, 50.0)
        thinned = thin_mhc_type2(sample_ppp(1.0, window, 26), 0.8)
        observers = sample_ppp(1.0, window, 27)
        calls = [
            (nn_distances_within, thinned, PointLabel.MHC),
            (nn_distances_cross, observers, PointLabel.PARENT, thinned, PointLabel.MHC),
            (nn_distances_cross, thinned, PointLabel.CMHC, thinned, PointLabel.MHC),
        ]
        with ThreadPoolExecutor(1) as worker:
            for fn, *args in calls:
                off_main = worker.submit(fn, *args).result(timeout=60)
                assert np.array_equal(off_main, fn(*args))

    def test_queries_that_miss_the_first_bound_are_searched_again(self):
        # 20 points clustered in a corner of a 100 x 100 torus and one far
        # off: the first query's bound, 2 mean spacings (~44), holds every
        # clustered point's neighbour but not the lone point's
        rng = np.random.default_rng(12)
        w = Window(100.0, 100.0)
        x = np.append(rng.uniform(0.0, 3.0, 20), 50.0)
        y = np.append(rng.uniform(0.0, 3.0, 20), 50.0)
        tree = _periodic_tree(x, y, w)
        bounded = tree.query(tree.data, k=[2], distance_upper_bound=44.0)[0][:, 0]
        assert np.sum(np.isinf(bounded)) == 1
        within = nn_distances_within(labelled_pattern(w, x, y, [1] * 21), PointLabel.MHC)
        assert within.tobytes() == tree.query(tree.data, k=[2])[0][:, 0].tobytes()
        assert np.array_equal(within, brute_nn_within(x, y, w.width, w.height))

    def test_every_query_can_miss_the_first_bound(self):
        # 100 targets clustered near the origin (bound 2 * 10 = 20) and
        # sources about 60 away: every source is searched twice
        rng = np.random.default_rng(13)
        w = Window(100.0, 100.0)
        tx, ty = rng.uniform(0.0, 2.0, 100), rng.uniform(0.0, 2.0, 100)
        sx, sy = rng.uniform(40.0, 60.0, 30), rng.uniform(40.0, 60.0, 30)
        tree = _periodic_tree(tx, ty, w)
        queries = np.column_stack((sx, sy))
        assert np.all(np.isinf(tree.query(queries, distance_upper_bound=20.0)[0]))
        src = labelled_pattern(w, sx, sy, [0] * 30)
        tgt = labelled_pattern(w, tx, ty, [1] * 100)
        cross = nn_distances_cross(src, PointLabel.PARENT, tgt, PointLabel.MHC)
        assert cross.tobytes() == tree.query(queries)[0].tobytes()
        assert np.array_equal(cross, brute_nn_cross(sx, sy, tx, ty, w.width, w.height))

    def test_windows_at_the_floor_send_many_queries_to_the_strip(self):
        # on sides of 10 delta about a third of the queries find their plain
        # hit beyond their edge distance
        settled = np.zeros(3, dtype=int)
        for seed, (side, delta) in enumerate([(10.0, 1.0), (5.0, 0.5), (8.0, 0.8)] * 8):
            w = Window(side, side * 1.25)
            pat = thin_mhc_type2(sample_ppp(1.0, w, (31, seed)), delta)
            observers = sample_ppp(1.0, w, (32, seed))
            mhc, cmhc = pat.indices_of(PointLabel.MHC), pat.indices_of(PointLabel.CMHC)
            mx, my = pat.x[mhc], pat.y[mhc]
            within = nn_distances_within(pat, PointLabel.MHC)
            assert np.array_equal(within, brute_nn_within(mx, my, w.width, w.height))
            cross = nn_distances_cross(observers, PointLabel.PARENT, pat, PointLabel.MHC)
            brute = brute_nn_cross(observers.x, observers.y, mx, my, w.width, w.height)
            assert np.array_equal(cross, brute)
            cross = nn_distances_cross(pat, PointLabel.CMHC, pat, PointLabel.MHC)
            brute = brute_nn_cross(pat.x[cmhc], pat.y[cmhc], mx, my, w.width, w.height)
            assert np.array_equal(cross, brute)
            targets = np.column_stack((mx, my))
            settled += estimate._nearest(targets, w)[1]
            settled += estimate._nearest(targets, w, np.column_stack((observers.x, observers.y)))[1]
        plain, strip, _ = settled
        assert strip > plain / 3

    def test_sparse_tiny_windows_cap_the_reach_at_half_a_side(self):
        # 2 mean spacings of at most 8 points exceed half the shorter side
        rng = np.random.default_rng(14)
        for _ in range(200):
            w = Window(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0)))
            n = int(rng.integers(3, 9))
            shorter = min(w.width, w.height)
            assert estimate.NN_BOUND_SPACINGS * math.sqrt(w.area / n) > shorter / 2
            x, ox = on_the_seam(rng, rng.uniform(0, w.width, n), w.width)
            y, oy = on_the_seam(rng, rng.uniform(0, w.height, n), w.height)
            pat = labelled_pattern(w, x, y, [1] * (n - 1) + [0])
            within = nn_distances_within(pat, PointLabel.MHC)
            assert np.array_equal(within, brute_nn_within(ox[:-1], oy[:-1], w.width, w.height))
            cross = nn_distances_cross(pat, PointLabel.PARENT, pat, PointLabel.MHC)
            brute = brute_nn_cross(ox[-1:], oy[-1:], ox[:-1], oy[:-1], w.width, w.height)
            assert np.array_equal(cross, brute)

    def test_a_target_across_the_seam_beats_a_plain_one_just_farther(self):
        # reach = half a side = 2. From q on the left edge the plain target
        # lies one ulp inside the reach, and the other one 4 ulps inside it
        # across the seam: that one is 4 ulps inside the reach from an edge
        # too, less than the slack, so a strip that stopped the slack short
        # of the reach would miss it
        w = Window(4.0, 4.0)
        across = np.nextafter(np.nextafter(2.0, 3.0), 3.0)
        targets = np.array([[np.nextafter(2.0, 0.0), 2.0], [across, 2.0]])
        q = np.array([[0.0, 2.0]])
        dist, settled = estimate._nearest(targets, w, q)
        assert settled == (0, 1, 0)
        assert dist[0] == 4.0 - across < targets[0, 0]
        brute = brute_nn_cross(q[:, 0], q[:, 1], targets[:, 0], targets[:, 1], 4.0, 4.0)
        assert np.array_equal(dist, brute)
        src = labelled_pattern(w, q[:, 0], q[:, 1], [0])
        tgt = labelled_pattern(w, targets[:, 0], targets[:, 1], [1, 1])
        assert np.array_equal(nn_distances_cross(src, PointLabel.PARENT, tgt, PointLabel.MHC), brute)

    def test_a_hit_one_ulp_inside_its_edge_distance_goes_to_the_strip(self):
        # the query lies 0.75 from the nearest edge and its plain hit one
        # ulp nearer: the hit is within the slack, so the strip settles it
        w = Window(10.0, 10.0)
        hit = np.nextafter(0.75, 0.0)
        targets = np.array([[0.75 - hit, 5.0]])
        q = np.array([[0.75, 5.0]])
        dist, settled = estimate._nearest(targets, w, q)
        assert settled == (0, 1, 0)
        assert dist[0] == hit
        brute = brute_nn_cross(q[:, 0], q[:, 1], targets[:, 0], targets[:, 1], 10.0, 10.0)
        assert np.array_equal(dist, brute)

    def test_a_point_in_the_strip_finds_its_neighbour_across_the_seam(self):
        # each end point's plain neighbour lies 0.35 or 0.9 in, the other
        # end 0.3 across the seam; the two inner points settle on the plain
        # tree
        w = Window(10.0, 10.0)
        x = np.array([0.2, 9.9, 0.55, 9.0])
        y = np.full(4, 5.0)
        dist, settled = estimate._nearest(np.column_stack((x, y)), w)
        assert settled == (2, 2, 0)
        brute = brute_nn_within(x, y, 10.0, 10.0)
        assert np.array_equal(dist, brute)
        assert dist[0] == dist[1] == brute[0] < 0.35
        pat = labelled_pattern(w, x, y, [1] * 4)
        assert np.array_equal(nn_distances_within(pat, PointLabel.MHC), brute)

    def test_one_and_every_query_thread_give_the_same_distances(self):
        # pooled_distances sets a replication's queries to one thread or to
        # every core; on a window 10 high a quarter of them reach a seam
        w = Window(200.0, 10.0)
        pat = thin_mhc_type2(sample_ppp(1.0, w, 33), 1.0)
        observers = sample_ppp(1.0, w, 34)
        mhc = pat.indices_of(PointLabel.MHC)
        calls = [
            (nn_distances_within, pat, PointLabel.MHC),
            (nn_distances_cross, observers, PointLabel.PARENT, pat, PointLabel.MHC),
            (nn_distances_cross, pat, PointLabel.CMHC, pat, PointLabel.MHC),
        ]
        runs = {}
        for workers in (1, -1):
            estimate._query_threads.workers = workers
            try:
                runs[workers] = [fn(*args) for fn, *args in calls]
            finally:
                del estimate._query_threads.workers
        for one, every in zip(runs[1], runs[-1]):
            assert np.array_equal(one, every)
        brute = brute_nn_within(pat.x[mhc], pat.y[mhc], w.width, w.height)
        assert np.array_equal(runs[1][0], brute)
        _, strip, _ = estimate._nearest(np.column_stack((pat.x[mhc], pat.y[mhc])), w)[1]
        assert strip > len(mhc) / 5

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

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(InsufficientDataError):
            empirical_cdf([])
        with pytest.raises(ValueError):
            empirical_cdf([1.0, math.nan])

    def test_rejects_nan_radius(self):
        emp = empirical_cdf([1.0, 2.0])
        for x in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="NaN"):
                emp.cdf(x)
        assert emp.cdf(np.array([0.5, math.inf])).tolist() == [0.0, 1.0]

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
        d, _ = ks_sup_distance(empirical_cdf(samples), curve)
        assert d == pytest.approx(0.5 / n, abs=1e-4)

    def test_mass_concentrated_far_in_the_tail(self):
        curve = contact_cdf(
            RetentionFunction(ContactCase.PPP_TO_PPP, P11), np.linspace(0.0, 6.0, 50)
        )
        d, _ = ks_sup_distance(empirical_cdf([5.0, 5.5, 6.0]), curve)
        assert d > 0.999

    def test_inverse_sampling_self_consistency(self):
        rng = np.random.default_rng(271828)
        n = 100_000
        samples = np.sqrt(-np.log1p(-rng.random(n)) / math.pi)
        curve = contact_cdf(
            RetentionFunction(ContactCase.PPP_TO_PPP, P11),
            np.linspace(0.0, float(samples.max()) * 1.01, 2000),
        )
        assert ks_sup_distance(empirical_cdf(samples), curve)[0] < 0.006

    def test_extends_curve_when_samples_overrun(self):
        # F is read past the curve's grid from its own table, as a curve
        # built on a longer grid reads it
        eta = RetentionFunction(ContactCase.PPP_TO_PPP, P11)
        curve = contact_cdf(eta, np.linspace(0.0, 1.0, 100))
        emp = empirical_cdf([0.5, 0.9, 1.6])
        direct = contact_cdf(eta, np.linspace(0.0, 2.0, 7))
        assert ks_sup_distance(emp, curve) == ks_sup_distance(emp, direct)
        assert ks_sup_distance(emp, curve) == (
            pytest.approx(-math.expm1(-math.pi * 0.81) - 1.0 / 3.0, abs=1e-15),
            0.9,
        )

    def test_extends_curve_down_when_samples_underrun(self):
        # a curve that starts above its lower support is continued down to
        # it: the sup sits at the sample 0.5, below the curve's first radius
        curve = contact_cdf(
            RetentionFunction(ContactCase.PPP_TO_PPP, P11), np.linspace(1.0, 2.0, 50)
        )
        sup, radius = ks_sup_distance(empirical_cdf([0.5, 1.5]), curve)
        assert sup == pytest.approx(-math.expm1(-math.pi * 0.25), abs=1e-15)
        assert radius == 0.5

    def test_a_single_distinct_sample(self):
        # the step from 0 to 1 at x: the sup is F(x) or 1 - F(x)
        curve = contact_cdf(PPP_PPP, np.linspace(0.0, 2.0, 5))
        for x in (0.2, 0.7):
            f = -math.expm1(-math.pi * x * x)
            for copies in (1, 7):
                emp = empirical_cdf([x] * copies)
                sup, radius = ks_sup_distance(emp, curve)
                assert sup == pytest.approx(max(f, 1.0 - f), abs=1e-15)
                assert radius == x

    def test_ties_report_the_smallest_radius(self):
        # F is 0 below the hard core and rounds to 1 far out, so both gaps
        # are exactly 1/2
        sup, radius = ks_sup_distance(
            empirical_cdf([50.0, 0.3]), contact_cdf(MHC_MHC, np.linspace(0.5, 2.0, 5))
        )
        assert (sup, radius) == (0.5, 0.3)


def _mutual_nn_distances():
    # two mutual nearest-neighbour pairs give two tied pairs of distances
    x, y = [1.0, 1.5, 5.0, 5.0, 8.0], [1.0, 1.0, 5.0, 6.0, 8.0]
    pattern = labelled_pattern(Window(10.0, 10.0), x, y, [0] * 5)
    return nn_distances_within(pattern, PointLabel.PARENT)


def _thinned_nn_distances():
    pattern = thin_mhc_type2(sample_ppp(1.0, Window(20.0, 20.0), 7), 0.5)
    return nn_distances_within(pattern, PointLabel.MHC)


def _cross_nn_distances(case):
    window = Window(20.0, 20.0)
    thinned = thin_mhc_type2(sample_ppp(1.0, window, 7), 0.5)
    if case is ContactCase.PPP_TO_MHC:
        source, label = sample_ppp(1.0, window, 8), PointLabel.PARENT
    else:
        source, label = thinned, PointLabel.CMHC
    return nn_distances_cross(source, label, thinned, PointLabel.MHC)


P_HALF = ProcessParams(1.0, 0.5)
PPP_PPP = RetentionFunction(ContactCase.PPP_TO_PPP, P11)
MHC_MHC = RetentionFunction(ContactCase.MHC_TO_MHC, P_HALF)
PPP_MHC = RetentionFunction(ContactCase.PPP_TO_MHC, P_HALF)
CMHC_MHC = RetentionFunction(ContactCase.CMHC_TO_MHC, P_HALF)


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
        (
            PPP_MHC,
            default_r_grid(ContactCase.PPP_TO_MHC, P_HALF, 10),
            _cross_nn_distances(PPP_MHC.case),
        ),
        # samples on both sides of delta, where the closed form hands over
        (
            CMHC_MHC,
            default_r_grid(ContactCase.CMHC_TO_MHC, P_HALF, 10),
            _cross_nn_distances(CMHC_MHC.case),
        ),
    ],
    ids=[
        "ties",
        "mutual-nn-beyond-grid",
        "beyond-grid",
        "mhc-at-support",
        "mhc-thinned",
        "mhc-below-grid",
        "ppp-mhc",
        "cmhc-mhc",
    ],
)
def test_sup_distance_matches_the_brute_force_oracle(eta, grid, samples):
    # F at every distinct sample from the closed form (ppp-ppp) or from
    # adaptive quadrature of the per-node eta; no table is shared
    expected = brute_sup_distance(samples, lambda x: quad_contact_cdf(eta.case, eta.params, x))
    got, _ = ks_sup_distance(empirical_cdf(samples), contact_cdf(eta, grid))
    assert got == pytest.approx(expected, abs=1e-12)


def _sup_at_every_sample(emp, curve):
    """The sup distance and its smallest radius from F at every distinct
    sample, read from the curve's table in one go."""
    radii, counts = np.unique(emp.samples, return_counts=True)
    at_most = np.cumsum(counts) / emp.n
    below = np.append(0.0, at_most[:-1])
    f = curve.cdf(radii)
    gaps = np.maximum(np.abs(at_most - f), np.abs(below - f))
    return float(gaps.max()), float(radii[gaps == gaps.max()].min())


# cmhc-mhc at lambda_p 0.5, delta 0.25 has a sharp kink at delta; most of
# its samples lie between delta/sqrt(3) and delta, where F comes from the
# truncated closed form
@pytest.mark.parametrize(
    "case, params, side",
    [(case, P_HALF, 30.0) for case in ContactCase]
    + [(ContactCase.CMHC_TO_MHC, ProcessParams(0.5, 0.25), 60.0)],
    ids=[case.value for case in ContactCase] + ["cmhc-mhc-sharp-kink"],
)
@pytest.mark.parametrize("stride", [estimate.SUP_STRIDE, 2])
def test_two_stages_equal_f_at_every_sample_bit_for_bit(case, params, side, stride, monkeypatch):
    # stride 2 cuts the samples into many short bins, so that many are
    # pruned and many searched
    monkeypatch.setattr(estimate, "SUP_STRIDE", stride)
    config = ExperimentConfig(case, params, Window(side, side), replications=2, seed=5)
    emp = pooled_distances(config)
    curve = contact_cdf(RetentionFunction(case, params), config.r_grid())
    assert ks_sup_distance(emp, curve) == _sup_at_every_sample(emp, curve)


@pytest.mark.parametrize(
    "params",
    [
        ProcessParams(0.5, 0.25),
        ProcessParams(1.0, 0.1),
        P_HALF,
        ProcessParams(1.0, 1.0),
        ProcessParams(2.0, 1.25),
        ProcessParams(1.0, 3.0),
    ],
    ids=lambda p: f"lam{p.lambda_p}-delta{p.delta}",
)
def test_removed_observer_cdf_is_monotone_where_the_closed_form_truncates(params):
    # the sup prunes bins on the premise that F is monotone. The table's F is
    # by construction; cmhc-mhc's closed form below delta drops the triples,
    # which is exact only up to delta/sqrt(3), so its monotonicity is tested
    # from there on, across the hand-over to the table at delta
    d = params.delta
    curve = contact_cdf(RetentionFunction(ContactCase.CMHC_TO_MHC, params), np.array([d]))
    f = curve.cdf(np.linspace(d / math.sqrt(3.0), 1.5 * d, 20_001))
    assert np.diff(f).min() >= -estimate.SUP_SLACK


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

    def test_cmhc_mhc_at_delta_zero_fails_before_any_pattern_is_drawn(self, monkeypatch):
        # thinning at delta 0 removes no point, so there is no removed
        # observer: the config used to build, and its run failed on
        # replication 0 after drawing the pattern, while eta was Poisson
        def draw(*args):
            raise AssertionError("a pattern was drawn")

        monkeypatch.setattr(estimate, "sample_ppp", draw)
        params = ProcessParams(1.0, 0.0)
        for build in (
            lambda: RetentionFunction(ContactCase.CMHC_TO_MHC, params),
            lambda: ExperimentConfig(ContactCase.CMHC_TO_MHC, params, Window(20.0, 20.0), 1),
            lambda: run_experiment(
                ExperimentConfig(ContactCase.CMHC_TO_MHC, params, Window(20.0, 20.0), 1)
            ),
        ):
            with pytest.raises(ValueError, match="cmhc-mhc needs delta > 0"):
                build()


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

    @pytest.mark.parametrize("case", [ContactCase.PPP_TO_MHC, ContactCase.CMHC_TO_MHC])
    def test_replication_patterns_are_the_same_on_bands_and_a_helper(self, case, monkeypatch):
        config = ExperimentConfig(case, P11, Window(30.0, 30.0), replications=1, seed=8)
        one = replication_patterns(config, 0)
        monkeypatch.setattr(simulate, "BAND_PARENTS", 50)
        with ThreadPoolExecutor(1) as helper:
            runs = [replication_patterns(config, 0), replication_patterns(config, 0, helper)]
        for banded in runs:
            assert list(banded) == list(one)
            for role, pattern in banded.items():
                assert _band_count(pattern.n) == 8
                assert np.array_equal(pattern.label, one[role].label)

    def test_sup_distance_sees_the_kink_at_delta(self):
        # a removed observer's F bends sharply at delta; interpolated linearly
        # between grid radii it read 0.055 here. The sup reads F at the
        # samples, so the report grid does not move it at all
        config = ExperimentConfig(
            case=ContactCase.CMHC_TO_MHC,
            params=ProcessParams(0.5, 0.25),
            window=Window(100.0, 100.0),
            replications=10,
            seed=11,
        )
        report = run_experiment(config)
        dense = run_experiment(replace(config, r_points=4000))
        assert report.sup_distance == dense.sup_distance < 0.03
        assert report.sup_radius == dense.sup_radius
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
        # the sup is attained at a pooled sample
        assert data["sup_radius"] in report.empirical.samples


# lambda 0.01 on a 20 x 20 torus thins to ~2 points: replication 0 finds its
# neighbour pair, replication 3 is the first to have fewer than two points
SPARSE = ExperimentConfig(
    case=ContactCase.MHC_TO_MHC,
    params=ProcessParams(0.01, 1.0),
    window=Window(20.0, 20.0),
    replications=6,
    seed=1,
)


def record_threads(monkeypatch, on_search=lambda: None):
    """Lists filled by pooled_distances' calls: (replication, thread ident,
    query workers) per NN search, and the executor of each thinning call."""
    searches, executors = [], []
    thin = estimate.thin_mhc_type2

    def thinning(pattern, delta, executor=None):
        executors.append(executor)
        return thin(pattern, delta, executor)

    def searching(search):
        def recorded(source, *args):
            searches.append((source.seed[1], threading.get_ident(), estimate._query_workers()))
            on_search()
            return search(source, *args)

        return recorded

    monkeypatch.setattr(estimate, "thin_mhc_type2", thinning)
    for name in ("nn_distances_within", "nn_distances_cross"):
        monkeypatch.setattr(estimate, name, searching(getattr(estimate, name)))
    return searches, executors


def meet_once():
    """A hook by which each thread's first call waits for the other thread's,
    so that both threads run a replication."""
    arrived, barrier = set(), threading.Barrier(2, timeout=30)

    def meet():
        if threading.get_ident() not in arrived:
            arrived.add(threading.get_ident())
            barrier.wait()

    return meet


class TestPooledDistances:
    @pytest.mark.parametrize("case", list(ContactCase))
    @pytest.mark.parametrize("reps", [1, 2, 3, 5])
    def test_equals_the_serial_loop_bit_for_bit(self, case, reps, monkeypatch):
        config = ExperimentConfig(case, P11, Window(30.0, 30.0), replications=reps, seed=12)
        serial = serial_pooled_distances(config)
        pooled = []

        def recording(samples):
            pooled.append(samples)
            return empirical_cdf(samples)

        monkeypatch.setattr(estimate, "empirical_cdf", recording)
        emp = pooled_distances(config)
        # pooled in replication order, before the sort
        assert np.array_equal(pooled[0], serial)
        assert np.array_equal(emp.samples, np.sort(serial))

    @pytest.mark.parametrize("case", [ContactCase.PPP_TO_MHC, ContactCase.CMHC_TO_MHC])
    def test_each_pattern_reaches_the_sink_once_from_the_worker_that_ran_it(
        self, case, monkeypatch
    ):
        config = ExperimentConfig(case, P11, Window(30.0, 30.0), replications=4, seed=13)
        seen, expected = [], []

        def sink(calls):
            def record(rep, role, pat):
                calls.append((rep, role, pat.seed, threading.get_ident()))

            return record

        serial_pooled_distances(config, sink(expected))
        searches, _ = record_threads(monkeypatch, meet_once())
        pooled_distances(config, sink(seen))
        assert sorted(call[:3] for call in seen) == sorted(call[:3] for call in expected)
        for rep in range(config.replications):
            # roles in replication_patterns order, from the thread that searched
            roles = [role for r, role, _, _ in seen if r == rep]
            assert roles == [role for r, role, _, _ in expected if r == rep]
            searched = {ident for r, ident, _ in searches if r == rep}
            assert {ident for r, _, _, ident in seen if r == rep} == searched
        idents = {call[3] for call in seen}
        assert len(idents) == 2 and threading.get_ident() in idents

    def test_a_sink_error_on_the_lane_is_raised(self, monkeypatch):
        before = threading.active_count()
        caller = threading.get_ident()

        class SinkError(Exception):
            pass

        def sink(rep, role, pat):
            if threading.get_ident() != caller:
                raise SinkError(f"replication {rep}")

        record_threads(monkeypatch, meet_once())
        config = ExperimentConfig(ContactCase.PPP_TO_MHC, P11, Window(30.0, 30.0),
                                  replications=4, seed=13)
        with pytest.raises(SinkError):
            pooled_distances(config, sink)
        assert threading.active_count() == before

    @pytest.mark.parametrize("reps", [4, 6])  # replication 3 last, or on the lane
    def test_a_later_failure_names_its_replication(self, reps):
        config = replace(SPARSE, replications=reps)
        assert len(serial_pooled_distances(replace(config, replications=3))) > 0
        with pytest.raises(InsufficientDataError) as serial:
            serial_pooled_distances(config)
        assert str(serial.value).startswith("replication 3 failed:")
        with pytest.raises(InsufficientDataError) as pooled:
            pooled_distances(config)
        assert str(pooled.value) == str(serial.value)

    def test_a_failure_on_the_other_thread_does_not_hide_an_earlier_one(self, monkeypatch):
        # replication 4 draws replication 3's too-sparse patterns and fails on
        # one thread while replication 3 waits on the other; 3 fails after it
        later_failed = threading.Event()
        patterns_of, within = estimate.replication_patterns, estimate.nn_distances_within

        def delayed(config, rep, executor=None):
            if rep == 3:
                later_failed.wait(timeout=30)
                time.sleep(0.05)  # while the other thread records its failure
            return patterns_of(config, 3 if rep == 4 else rep, executor)

        def flagging(pattern, label):
            try:
                return within(pattern, label)
            except InsufficientDataError:
                later_failed.set()
                raise

        monkeypatch.setattr(estimate, "replication_patterns", delayed)
        monkeypatch.setattr(estimate, "nn_distances_within", flagging)
        with pytest.raises(InsufficientDataError, match="^replication 3 failed:"):
            pooled_distances(SPARSE)
        assert later_failed.is_set()

    def test_replications_run_whole_on_the_caller_and_the_lane(self, monkeypatch):
        before = threading.active_count()
        searches, executors = record_threads(monkeypatch, meet_once())
        config = ExperimentConfig(ContactCase.PPP_TO_MHC, P11, Window(30.0, 30.0),
                                  replications=4, seed=15)
        pooled_distances(config)
        # no thinning call gets the lane: it is busy with its own replications
        assert executors == [None] * 4
        idents = {ident for _, ident, _ in searches}
        assert len(idents) == 2 and threading.get_ident() in idents
        # one query core each, but for the last replication
        assert sorted((rep, workers) for rep, _, workers in searches) == [
            (0, 1), (1, 1), (2, 1), (3, -1)]
        assert estimate._query_workers() == -1
        assert threading.active_count() == before

    @pytest.mark.parametrize("case", list(ContactCase))
    @pytest.mark.parametrize("reps", [1, 3])
    def test_banded_thinning_pools_the_serial_loop_distances(self, case, reps, monkeypatch):
        config = ExperimentConfig(case, P11, Window(30.0, 30.0), replications=reps, seed=12)
        serial = serial_pooled_distances(config)  # one band per pattern
        monkeypatch.setattr(simulate, "BAND_PARENTS", 50)
        pooled = []

        def recording(samples):
            pooled.append(samples)
            return empirical_cdf(samples)

        monkeypatch.setattr(estimate, "empirical_cdf", recording)
        pooled_distances(config)
        assert np.array_equal(pooled[0], serial)

    def test_a_single_replication_thins_with_the_lane_and_queries_on_every_core(
        self, monkeypatch
    ):
        monkeypatch.setattr(simulate, "BAND_PARENTS", 50)
        before = threading.active_count()
        searches, executors = record_threads(monkeypatch)
        config = ExperimentConfig(ContactCase.PPP_TO_MHC, P11, Window(30.0, 30.0),
                                  replications=1, seed=15)
        pooled_distances(config)
        assert len(executors) == 1 and isinstance(executors[0], ThreadPoolExecutor)
        assert searches == [(0, threading.get_ident(), -1)]
        assert threading.active_count() == before

    def test_one_banded_replication_starts_the_lane_for_the_call_only(self, monkeypatch):
        before = threading.active_count()
        config = ExperimentConfig(ContactCase.PPP_TO_MHC, P11, Window(30.0, 30.0),
                                  replications=1, seed=15)
        alive = []
        pooled_distances(config, lambda rep, role, pat: alive.append(threading.active_count()))
        assert alive == [before] * 2  # one band per pattern: no thread at all
        monkeypatch.setattr(simulate, "BAND_PARENTS", 50)
        alive.clear()
        pooled_distances(config, lambda rep, role, pat: alive.append(threading.active_count()))
        assert alive == [before + 1] * 2
        assert threading.active_count() == before

    def test_a_failing_replication_is_raised_before_a_failing_curve(self):
        # r / delta = 1e200 is beyond the model, so the curve task fails too
        beyond = replace(SPARSE, r_max=1e200)
        with pytest.raises(InsufficientDataError, match="^replication 3 failed:"):
            run_experiment(beyond)
        with pytest.raises(ValueError, match="beyond the model"):
            run_experiment(replace(beyond, replications=3))

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        pooled_distances(ExperimentConfig(ContactCase.MHC_TO_MHC, P11, Window(30.0, 30.0),
                                          replications=3, seed=14))
        assert threading.active_count() == before
        with pytest.raises(InsufficientDataError, match="replication 3"):
            pooled_distances(SPARSE)
        assert threading.active_count() == before


def sweep(jobs, curves=True):
    """The results estimate._sweep delivers, in delivery order, with their
    job indices."""
    delivered = []
    estimate._sweep(jobs, curves, lambda job, result: delivered.append((job, result)))
    return delivered


# cmhc-mhc at lambda 0.1 on a 10 x 10 torus: every replication at delta 1
# has a removed point, and replication 3 at delta 0.5 is the first without
SWEEP_FAILS_LATER = [
    ExperimentConfig(ContactCase.CMHC_TO_MHC, ProcessParams(0.1, delta), Window(10.0, 10.0),
                     replications=4, seed=40)
    for delta in (1.0, 0.5)
]


class TestSweep:
    @pytest.mark.parametrize("reps", [1, 2, 5])
    @pytest.mark.parametrize("deltas", [[1.0], [0.5, 1.0], [1.0, 0.5, 0.75]])
    def test_reports_equal_one_config_runs_and_each_pattern_reaches_its_sink_once(
        self, reps, deltas
    ):
        configs = [ExperimentConfig(ContactCase.PPP_TO_MHC, ProcessParams(1.0, delta),
                                    Window(20.0, 20.0), replications=reps, seed=21)
                   for delta in deltas]
        calls = []

        def sink(job):
            return lambda rep, role, pat: calls.append((job, rep, role, pat))

        reports = sweep([(config, sink(job)) for job, config in enumerate(configs)])
        assert [job for job, _ in reports] == list(range(len(configs)))
        assert [report.to_dict() for _, report in reports] == [
            run_experiment(config).to_dict() for config in configs]
        distances = sweep([(config, None) for config in configs], curves=False)
        for (_, emp), config in zip(distances, configs):
            assert np.array_equal(emp.samples, pooled_distances(config).samples)
        keys = [(job, rep, role) for job, rep, role, _ in calls]
        assert sorted(keys) == [(job, rep, role) for job in range(len(configs))
                                for rep in range(reps) for role in ("source", "target")]
        for job, rep, role, pat in calls:
            # the delta's own pattern: the target is thinned at that delta
            want = replication_patterns(configs[job], rep)[role]
            assert pat.seed == want.seed and np.array_equal(pat.label, want.label)

    @pytest.mark.parametrize("reps", [1, 2])
    def test_query_threads_are_one_per_replication_but_the_sweeps_last(self, reps, monkeypatch):
        monkeypatch.setattr(simulate, "BAND_PARENTS", 50)
        before = threading.active_count()
        _, executors = record_threads(monkeypatch)
        within, searches = estimate.nn_distances_within, []

        def searching(pattern, label):
            searches.append((*pattern.seed[:2], estimate._query_workers()))
            return within(pattern, label)

        monkeypatch.setattr(estimate, "nn_distances_within", searching)
        configs = [ExperimentConfig(ContactCase.MHC_TO_MHC, ProcessParams(1.0, delta),
                                    Window(30.0, 30.0), replications=reps, seed=seed)
                   for seed, delta in ((1, 0.5), (2, 1.0))]
        sweep([(config, None) for config in configs])
        if reps == 1:
            # the caller alone, on every core, with the lane thinning
            assert searches == [(1, 0, -1), (2, 0, -1)]
            assert all(isinstance(executor, ThreadPoolExecutor) for executor in executors)
        else:
            assert sorted(searches) == [(1, 0, 1), (1, 1, 1), (2, 0, 1), (2, 1, -1)]
            assert executors == [None] * 4
        assert threading.active_count() == before

    def test_each_config_is_delivered_once_and_in_order_under_fast_thread_switches(self):
        # the per-config task counts and the delivery order are shared by the
        # two workers: a lost update would drop or repeat a delivery
        configs = [ExperimentConfig(ContactCase.PPP_TO_PPP, P11, Window(8.0, 8.0),
                                    replications=3, seed=seed) for seed in range(8)]
        expected = [pooled_distances(config).samples for config in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rounds = [sweep([(config, None) for config in configs], curves=False)
                      for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for delivered in rounds:
            assert [job for job, _ in delivered] == list(range(len(configs)))
            for (_, emp), samples in zip(delivered, expected):
                assert np.array_equal(emp.samples, samples)

    def test_replication_0_searches_end_in_config_order(self, monkeypatch):
        # the benchmark pairs each delta's replication-0 search with its
        # report in config order, so a slow replication 0 holds the next
        # config's back
        patterns_of = estimate.replication_patterns
        ended = []

        def slowed(config, rep, executor=None):
            if (config.seed, rep) == (1, 0):
                time.sleep(0.3)
            return patterns_of(config, rep, executor)

        def recording(search):
            def recorded(pattern, *args):
                out = search(pattern, *args)
                ended.append(pattern.seed[:2])
                return out

            return recorded

        monkeypatch.setattr(estimate, "replication_patterns", slowed)
        monkeypatch.setattr(estimate, "nn_distances_within",
                            recording(estimate.nn_distances_within))
        configs = [ExperimentConfig(ContactCase.MHC_TO_MHC, P11, Window(20.0, 20.0),
                                    replications=2, seed=seed) for seed in (1, 2, 3)]
        sweep([(config, None) for config in configs])
        assert [seed for seed, rep in ended if rep == 0] == [1, 2, 3]

    def test_a_later_deltas_failure_waits_for_every_earlier_replication(self, monkeypatch):
        # delta 1's last replication waits until delta 0.5's replication 3
        # has failed on the other thread, and still reaches its sink and its
        # report before the failure is raised
        later_failed = threading.Event()
        patterns_of, cross = estimate.replication_patterns, estimate.nn_distances_cross

        def delayed(config, rep, executor=None):
            if (config.params.delta, rep) == (1.0, 3):
                later_failed.wait(timeout=30)
                time.sleep(0.05)  # while the other thread records its failure
            return patterns_of(config, rep, executor)

        def flagging(*args):
            try:
                return cross(*args)
            except InsufficientDataError:
                later_failed.set()
                raise

        monkeypatch.setattr(estimate, "replication_patterns", delayed)
        monkeypatch.setattr(estimate, "nn_distances_cross", flagging)
        sunk, delivered = [], []
        jobs = [(config, lambda rep, role, pat, job=job: sunk.append((job, rep)))
                for job, config in enumerate(SWEEP_FAILS_LATER)]
        with pytest.raises(InsufficientDataError, match="^replication 3 failed:"):
            estimate._sweep(jobs, True, lambda job, report: delivered.append(job))
        assert later_failed.is_set()
        assert sorted(rep for job, rep in sunk if job == 0) == [0, 1, 2, 3]
        assert sorted(rep for job, rep in sunk if job == 1) == [0, 1, 2]
        assert delivered == [0]

    def test_a_delivery_error_is_raised_and_stops_later_deliveries(self):
        class DeliveryError(Exception):
            pass

        delivered = []

        def deliver(job, report):
            delivered.append(job)
            if job == 0:
                raise DeliveryError

        before = threading.active_count()
        configs = [replace(config, case=ContactCase.MHC_TO_MHC) for config in SWEEP_FAILS_LATER]
        with pytest.raises(DeliveryError):
            estimate._sweep([(config, None) for config in configs], True, deliver)
        assert delivered == [0]
        assert threading.active_count() == before
