"""Tests for Poisson sampling, type-II thinning, and pattern dump round trips."""

import math

import numpy as np
import pytest

from matern_contact import (
    CapacityError,
    MarkedPattern,
    PointLabel,
    ProcessParams,
    Window,
    load_pattern,
    sample_ppp,
    thin_mhc_type2,
)
from matern_contact.analytic import mhc_retention
from matern_contact.simulate import _periodic_tree, _spatial_order, dump_pattern
from oracles import brute_mhc_mask, brute_nn_within, on_the_seam

W100 = Window(100.0, 100.0)
W50 = Window(50.0, 50.0)


def make_pattern(window, x, y, mark, seed=0):
    n = len(x)
    return MarkedPattern(
        window,
        np.asarray(x, float),
        np.asarray(y, float),
        np.asarray(mark, float),
        np.zeros(n, dtype=np.uint8),
        seed,
    )


class TestSamplePpp:
    def test_seed_determinism(self):
        a = sample_ppp(1.0, W100, 42)
        b = sample_ppp(1.0, W100, 42)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.mark, b.mark)
        c = sample_ppp(1.0, W100, 43)
        assert not np.array_equal(a.x, c.x)

    def test_tuple_seeds_give_independent_streams(self):
        a = sample_ppp(1.0, W50, (1, 0, 0))
        b = sample_ppp(1.0, W50, (1, 0, 1))
        assert not np.array_equal(a.x, b.x)

    def test_stores_the_raw_draws_in_strip_order(self):
        window = Window(60.0, 40.0)
        pat = sample_ppp(1.0, window, (7, 1))
        # sorting the stored points again leaves them where they are
        assert np.array_equal(_spatial_order(pat.x, pat.y, window), np.arange(pat.n))
        rng = np.random.default_rng(np.random.SeedSequence((7, 1)))
        n = int(rng.poisson(window.area))
        raw = (rng.uniform(0, 60.0, n), rng.uniform(0, 40.0, n), rng.random(n))
        assert not np.array_equal(raw[0], pat.x)

        def rows(x, y, mark):
            return np.column_stack((x, y, mark))[np.lexsort((mark, y, x))]

        assert np.array_equal(rows(*raw), rows(pat.x, pat.y, pat.mark))

    def test_positions_and_marks_in_range(self):
        pat = sample_ppp(1.0, W50, 7)
        assert np.all((pat.x >= 0) & (pat.x < 50))
        assert np.all((pat.y >= 0) & (pat.y < 50))
        assert np.all((pat.mark >= 0) & (pat.mark < 1))
        assert np.all(pat.label == int(PointLabel.PARENT))

    def test_poisson_moments(self):
        counts = np.array(
            [sample_ppp(1.0, W50, (99, rep)).n for rep in range(200)], dtype=float
        )
        mean = counts.mean()
        # mean 2500, sd 50; 4 sigma window on the mean estimate
        assert abs(mean - 2500.0) < 4.0 * 50.0 / math.sqrt(200)
        assert 0.75 < counts.var(ddof=1) / 2500.0 < 1.25

    def test_tiny_intensity_is_empty(self):
        for seed in range(20):
            assert sample_ppp(1e-9, Window(1.0, 1.0), seed).n == 0

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            sample_ppp(1e9, Window(1000.0, 1000.0), 0)

    def test_invalid_intensity(self):
        with pytest.raises(ValueError):
            sample_ppp(0.0, W50, 0)


class TestThinning:
    def test_two_point_rule(self):
        # the second pair sits exactly delta apart across the seam: the
        # competition ball is closed
        for y in ([1.0, 1.5], [0.5, 9.5]):
            pat = make_pattern(Window(10, 10), [1.0, 1.0], y, [0.2, 0.7])
            out = thin_mhc_type2(pat, 1.0)
            assert list(out.label) == [int(PointLabel.MHC), int(PointLabel.CMHC)]

    def test_three_collinear_simultaneous_flagging(self):
        # middle point loses to the first even though the third loses to the
        # middle: flags are decided before any removal
        pat = make_pattern(
            Window(10, 10), [1.0, 1.8, 2.6], [5.0, 5.0, 5.0], [0.1, 0.2, 0.3]
        )
        out = thin_mhc_type2(pat, 1.0)
        assert list(out.label) == [
            int(PointLabel.MHC),
            int(PointLabel.CMHC),
            int(PointLabel.CMHC),
        ]

    def test_wraparound_competition(self):
        pat = make_pattern(Window(10, 10), [0.1, 9.95], [5.0, 5.0], [0.6, 0.3])
        out = thin_mhc_type2(pat, 0.5)
        assert list(out.label) == [int(PointLabel.CMHC), int(PointLabel.MHC)]

    @pytest.mark.parametrize("y", [[0.2, 9.9], [9.9, 0.2]])
    def test_corner_competition(self, y):
        # the two points compete across both seams at once, from diagonally
        # opposite corners
        pat = make_pattern(Window(10, 10), [0.2, 9.9], y, [0.6, 0.3])
        out = thin_mhc_type2(pat, 0.5)
        assert list(out.label) == [int(PointLabel.CMHC), int(PointLabel.MHC)]

    def test_zero_delta_keeps_everything(self):
        pat = sample_ppp(1.0, W50, 5)
        out = thin_mhc_type2(pat, 0.0)
        assert out.count(PointLabel.MHC) == pat.n

    def test_requires_unthinned_pattern(self):
        pat = thin_mhc_type2(sample_ppp(1.0, W50, 5), 1.0)
        with pytest.raises(ValueError):
            thin_mhc_type2(pat, 1.0)

    def test_window_floor(self):
        pat = sample_ppp(1.0, Window(5.0, 5.0), 5)
        with pytest.raises(ValueError):
            thin_mhc_type2(pat, 1.0)

    def test_hard_core_invariant(self):
        for seed, delta in [(1, 0.5), (2, 1.0), (3, 1.0)]:
            out = thin_mhc_type2(sample_ppp(1.0, W50, seed), delta)
            idx = out.indices_of(PointLabel.MHC)
            nn = brute_nn_within(out.x[idx], out.y[idx], 50.0, 50.0)
            assert nn.min() > delta

    def test_partition_invariant(self):
        pat = sample_ppp(1.0, W50, 11)
        out = thin_mhc_type2(pat, 0.5)
        assert out.count(PointLabel.MHC) + out.count(PointLabel.CMHC) == pat.n
        assert out.count(PointLabel.PARENT) == 0

    def test_permutation_invariance(self):
        pat = sample_ppp(1.0, W50, 13)
        out = thin_mhc_type2(pat, 1.0)
        rng = np.random.default_rng(0)
        perm = rng.permutation(pat.n)
        shuffled = MarkedPattern(
            pat.window, pat.x[perm], pat.y[perm], pat.mark[perm],
            pat.label[perm], pat.seed,
        )
        out_shuffled = thin_mhc_type2(shuffled, 1.0)
        assert np.array_equal(out_shuffled.label, out.label[perm])

    def test_leaves_its_input_unchanged(self):
        parents = sample_ppp(1.0, W50, 5)
        x, y, mark = parents.x.copy(), parents.y.copy(), parents.mark.copy()
        out = thin_mhc_type2(parents, 1.0)
        assert out.count(PointLabel.CMHC) > 0
        assert np.all(parents.label == PointLabel.PARENT)
        for before, parent_array, out_array in (
            (x, parents.x, out.x), (y, parents.y, out.y), (mark, parents.mark, out.mark)
        ):
            assert np.array_equal(parent_array, before)
            assert np.array_equal(out_array, before)

    def test_periodic_tree_stores_the_wrapped_points_in_its_order(self):
        # row k of the tree is input point k, seam points wrapped to 0
        rng = np.random.default_rng(5)
        window = Window(12.0, 15.0)
        x, ox = on_the_seam(rng, rng.uniform(0, 12, 500), 12.0)
        y, oy = on_the_seam(rng, rng.uniform(0, 15, 500), 15.0)
        tree = _periodic_tree(x, y, window)
        assert np.any((x != ox) | (y != oy))
        assert np.array_equal(tree.data, np.column_stack((ox, oy)))

    def test_matches_brute_force_on_small_patterns(self):
        rng = np.random.default_rng(17)
        for k in range(25):
            window = Window(12.0, 15.0)
            n = int(rng.integers(2, 120))
            x, ox = on_the_seam(rng, rng.uniform(0, 12, n), 12.0)
            y, oy = on_the_seam(rng, rng.uniform(0, 15, n), 15.0)
            mark = rng.random(n)
            if k % 2:  # four mark values: ties go to the lower index
                mark = np.floor(mark * 4.0) / 4.0
            pat = make_pattern(window, x, y, mark)
            delta = float(rng.uniform(0.2, 1.2))
            out = thin_mhc_type2(pat, delta)
            keep = brute_mhc_mask(ox, oy, pat.mark, 12.0, 15.0, delta)
            assert np.array_equal(out.label == int(PointLabel.MHC), keep)

    def test_matches_brute_force_at_the_window_floor(self):
        # sides of exactly 10 delta; every point lies within delta of a seam,
        # a third of them within delta of a corner, with four mark values
        rng = np.random.default_rng(29)
        delta, width, height = 1.0, 10.0, 13.0

        def near_seam(side, n):
            u = rng.uniform(-delta, delta, n)
            return np.where(u < 0.0, u + side, u)

        for _ in range(10):
            n = int(rng.integers(2, 90))
            near = rng.integers(0, 3, n)  # 0: x seam, 1: y seam, 2: corner
            x = np.where(near != 1, near_seam(width, n), rng.uniform(0, width, n))
            y = np.where(near != 0, near_seam(height, n), rng.uniform(0, height, n))
            x, ox = on_the_seam(rng, x, width)
            y, oy = on_the_seam(rng, y, height)
            pat = make_pattern(Window(width, height), x, y, np.floor(rng.random(n) * 4.0) / 4.0)
            out = thin_mhc_type2(pat, delta)
            keep = brute_mhc_mask(ox, oy, pat.mark, width, height, delta)
            assert np.array_equal(out.label == int(PointLabel.MHC), keep)

    def test_retained_fraction_matches_retention_probability(self):
        rho = mhc_retention(ProcessParams(1.0, 1.0))
        fractions = []
        for rep in range(30):
            pat = sample_ppp(1.0, W50, (400, rep))
            out = thin_mhc_type2(pat, 1.0)
            fractions.append(out.count(PointLabel.MHC) / pat.n)
        assert abs(np.mean(fractions) - rho) < 0.01


class TestDump:
    def test_round_trip(self, tmp_path):
        pat = thin_mhc_type2(sample_ppp(1.0, Window(20.0, 20.0), (9, 1)), 1.0)
        path = tmp_path / "pattern.txt"
        dump_pattern(pat, path, ProcessParams(1.0, 1.0))
        loaded, params = load_pattern(path)
        assert loaded.window == pat.window
        assert loaded.seed == pat.seed
        assert params == ProcessParams(1.0, 1.0)
        assert np.array_equal(loaded.x, pat.x)
        assert np.array_equal(loaded.y, pat.y)
        assert np.array_equal(loaded.mark, pat.mark)
        assert np.array_equal(loaded.label, pat.label)

    def test_round_trip_without_params(self, tmp_path):
        pat = sample_ppp(0.5, Window(10.0, 10.0), 3)
        path = tmp_path / "pattern.txt"
        dump_pattern(pat, path)
        loaded, params = load_pattern(path)
        assert params is None
        assert loaded.n == pat.n

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0 0.5 PARENT\n")
        with pytest.raises(ValueError):
            load_pattern(path)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0.0, 1.0)
    with pytest.raises(ValueError):
        Window(1.0, math.inf)
    assert Window(2.0, 3.0).area == 6.0
