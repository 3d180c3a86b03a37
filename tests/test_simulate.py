"""Tests for Poisson sampling, type-II thinning, and pattern dump round trips."""

import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.spatial

from matern_contact import (
    CapacityError,
    MarkedPattern,
    PointLabel,
    ProcessParams,
    Window,
    load_pattern,
    sample_ppp,
    simulate,
    thin_mhc_type2,
)
from matern_contact.analytic import mhc_retention
from matern_contact.estimate import _periodic_tree
from matern_contact.simulate import _band_count, _spatial_order, dump_pattern
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


@pytest.fixture
def helper():
    """A one-thread executor whose thread has started, as the lane's has."""
    with ThreadPoolExecutor(1) as executor:
        executor.submit(int).result()
        yield executor


def banded(monkeypatch, band_parents: int, max_bands: int = simulate.MAX_BANDS) -> None:
    """Split even small patterns into row bands of about ``band_parents``."""
    monkeypatch.setattr(simulate, "BAND_PARENTS", band_parents)
    monkeypatch.setattr(simulate, "MAX_BANDS", max_bands)


class TestRowBands:
    def test_band_count_follows_the_pattern_size(self):
        floor = 2 * simulate.BAND_PARENTS
        assert [_band_count(n) for n in (0, 2, floor - 1)] == [1] * 3
        assert _band_count(floor) == _band_count(2 * floor - 1) == 2
        assert _band_count(3 * floor) == 6
        assert _band_count(10**6) == _band_count(10**8) == simulate.MAX_BANDS == 8
        # compare's 100 x 100 torus and the large 500 x 500 one at lambda_p 1
        assert _band_count(10_000) == 1 and _band_count(250_000) == 8

    @pytest.mark.parametrize("band_parents, max_bands", [(1, 8), (3, 8), (10, 8), (1, 32)])
    @pytest.mark.parametrize("threaded", [False, True], ids=["serial", "helper"])
    def test_matches_one_band_and_brute_force(self, monkeypatch, helper, band_parents,
                                              max_bands, threaded):
        rng = np.random.default_rng(31)
        for k in range(12):
            width, height = 12.0, float(rng.choice([10.0, 15.0]))
            n = int(rng.integers(2, 150))
            x, ox = on_the_seam(rng, rng.uniform(0, width, n), width)
            y, oy = on_the_seam(rng, rng.uniform(0, height, n), height)
            mark = rng.random(n)
            if k % 2:  # four mark values: ties go to the lower index
                mark = np.floor(mark * 4.0) / 4.0
            pat = make_pattern(Window(width, height), x, y, mark)
            delta = float(rng.uniform(0.2, 1.0))
            one = thin_mhc_type2(pat, delta).label
            with monkeypatch.context() as m:
                banded(m, band_parents, max_bands)
                assert _band_count(n) > 1 or n < 2 * band_parents
                out = thin_mhc_type2(pat, delta, helper if threaded else None)
            assert np.array_equal(out.label, one)
            keep = brute_mhc_mask(ox, oy, mark, width, height, delta)
            assert np.array_equal(out.label == int(PointLabel.MHC), keep)

    @pytest.mark.parametrize("threaded", [False, True], ids=["serial", "helper"])
    def test_a_sampled_pattern_thins_alike_on_eight_bands(self, monkeypatch, helper, threaded):
        pat = sample_ppp(1.0, W50, 21)
        one = thin_mhc_type2(pat, 1.0).label
        banded(monkeypatch, 300)
        assert _band_count(pat.n) == 8
        out = thin_mhc_type2(pat, 1.0, helper if threaded else None)
        assert np.array_equal(out.label, one)
        assert np.array_equal(out.label == int(PointLabel.MHC),
                              brute_mhc_mask(pat.x, pat.y, pat.mark, 50.0, 50.0, 1.0))

    @pytest.mark.parametrize(
        "band_parents, max_bands", [(10**6, 8), (1, 8), (1, 32)], ids=["1", "8", "12"]
    )
    @pytest.mark.parametrize("threaded", [False, True], ids=["serial", "helper"])
    def test_pairs_exactly_delta_apart_at_band_edges_and_the_seam(
        self, monkeypatch, helper, band_parents, max_bands, threaded
    ):
        # a 10 x 10 torus at delta 1, the window floor: with 12 points, eight
        # bands have their edges at the multiples of 1.25. One pair per
        # column, each exactly delta apart: straddling the edge at 5, from
        # the edge at 2.5 up, from below up to the edge at 7.5 and at 8.75,
        # and across the y seam, which is the lowest band's edge, from y = 0
        # and from y = 9.5. The columns sit 1.5 apart, the first on the x seam
        columns = [(4.5, 5.5), (2.5, 3.5), (6.5, 7.5), (0.0, 9.0), (9.5, 0.5), (7.75, 8.75)]
        x = np.repeat(1.5 * np.arange(len(columns)), 2)
        y = np.ravel(columns)
        mark = np.random.default_rng(3).permutation(len(y)) / len(y)
        pat = make_pattern(Window(10.0, 10.0), x, y, mark)
        banded(monkeypatch, band_parents, max_bands)
        out = thin_mhc_type2(pat, 1.0, helper if threaded else None)
        # in each pair the larger mark loses, and nothing else
        loses = (mark.reshape(-1, 2) == mark.reshape(-1, 2).max(axis=1, keepdims=True)).ravel()
        assert np.array_equal(out.label, np.where(loses, PointLabel.CMHC, PointLabel.MHC))
        assert np.array_equal(~loses, brute_mhc_mask(x, y, mark, 10.0, 10.0, 1.0))

    def test_bands_on_many_threads_lose_no_label(self, monkeypatch):
        # every band writes into one label array; with more threads than
        # cores and a short switch interval, a lost write would show
        pat = sample_ppp(1.0, W50, 9)
        one = thin_mhc_type2(pat, 1.0).label
        banded(monkeypatch, 150)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                for _ in range(20):
                    assert np.array_equal(thin_mhc_type2(pat, 1.0, pool).label, one)
        finally:
            sys.setswitchinterval(interval)

    def test_a_failing_helper_band_raises_in_the_caller(self, monkeypatch, helper):
        class BandFailure(Exception):
            pass

        real = scipy.spatial.cKDTree

        def tree(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise BandFailure("helper band")
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", tree)
        banded(monkeypatch, 100)
        with pytest.raises(BandFailure, match="helper band"):
            thin_mhc_type2(sample_ppp(1.0, W50, 5), 1.0, helper)
        # the helper is free again, and the serial path never calls it
        assert helper.submit(int).result() == 0
        assert thin_mhc_type2(sample_ppp(1.0, W50, 5), 1.0).count(PointLabel.CMHC) > 0

    def test_a_failing_calling_thread_band_ends_every_helper_band_first(
        self, monkeypatch, helper
    ):
        class BandFailure(Exception):
            pass

        real = scipy.spatial.cKDTree
        helper_bands = []  # [ended] per band started on the helper
        started = threading.Event()

        def tree(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                # fail while the helper is inside its first band
                assert started.wait(timeout=30)
                raise BandFailure("calling thread band")
            ended = [False]
            helper_bands.append(ended)
            started.set()
            time.sleep(0.2)
            ended[0] = True
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", tree)
        banded(monkeypatch, 100)
        with pytest.raises(BandFailure, match="calling thread band"):
            thin_mhc_type2(sample_ppp(1.0, W50, 5), 1.0, helper)
        # the band under way ended before the call did; the helper's three
        # others were dropped
        assert [ended for ended, in helper_bands] == [True]

    def test_starts_no_thread_of_its_own(self, monkeypatch, helper):
        banded(monkeypatch, 100)
        pat = sample_ppp(1.0, W50, 5)
        before = threading.active_count()
        thin_mhc_type2(pat, 1.0)
        assert threading.active_count() == before
        thin_mhc_type2(pat, 1.0, helper)
        assert threading.active_count() == before


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

    def test_round_trip_keeps_every_label_and_float(self, tmp_path):
        below_w, below_h, below_1 = (float(np.nextafter(x, 0.0)) for x in (7.0, 3.0, 1.0))
        pat = MarkedPattern(
            Window(7.0, 3.0),
            np.array([5e-324, 0.1, below_w]),
            np.array([0.1, below_h, 5e-324]),
            np.array([0.1, 5e-324, below_1]),
            np.array([PointLabel.PARENT, PointLabel.MHC, PointLabel.CMHC]),
            (4, 2),
        )
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        dump_pattern(pat, first, ProcessParams(2.0, 0.5))
        rows = first.read_text().splitlines()[-3:]
        assert rows == [
            "5e-324 0.1 0.1 PARENT",
            f"0.1 {below_h!r} 5e-324 MHC",
            f"{below_w!r} 5e-324 {below_1!r} CMHC",
        ]
        loaded, params = load_pattern(first)
        for name in ("x", "y", "mark", "label"):
            assert getattr(loaded, name).tobytes() == getattr(pat, name).tobytes(), name
        dump_pattern(loaded, second, params)
        assert second.read_bytes() == first.read_bytes()

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
