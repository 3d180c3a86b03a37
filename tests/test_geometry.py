"""Lens-area unit and property tests against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matern_contact import DomainError
from matern_contact.geometry import lens_asymmetric, lens_symmetric
from oracles import lens_area_raster, lens_area_two_circles

FULL_OVERLAP = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0  # unit disks, unit separation


def test_symmetric_vanishes_beyond_two_delta():
    assert lens_symmetric(2.0) == 0.0
    assert lens_symmetric(2.0000001) == 0.0
    assert lens_symmetric(50.0) == 0.0


def test_symmetric_coincident_limit_is_disk_area():
    assert lens_symmetric(1e-9) == pytest.approx(math.pi, abs=1e-6)


def test_symmetric_unit_configuration():
    assert lens_symmetric(1.0) == pytest.approx(FULL_OVERLAP, rel=1e-14)
    assert lens_symmetric(1.0) == pytest.approx(lens_area_raster(1.0, 1.0, 1.0), abs=1e-3)


def test_asymmetric_contained_branch():
    assert lens_asymmetric(0.2) == pytest.approx(math.pi * 0.04, rel=1e-14)


def test_asymmetric_branch_agreement_at_half_delta():
    # the segment branch reproduces the containment value at r = delta/2
    for delta in (0.3, 1.0, 2.2):
        half = 0.5 * delta
        assert delta * delta * lens_asymmetric(half / delta) == pytest.approx(
            math.pi * half * half, rel=1e-12
        )
    # one-ulp probes sit on a square-root cusp, so evaluation conditioning
    # near the branch point is ~sqrt(eps), not eps
    at = lens_asymmetric(0.5)
    assert lens_asymmetric(np.nextafter(0.5, 0.0)) == pytest.approx(at, rel=1e-7)
    assert lens_asymmetric(np.nextafter(0.5, 1.0)) == pytest.approx(at, rel=1e-7)


def test_symmetric_continuity_at_two_delta():
    inside = lens_symmetric(np.nextafter(2.0, 0.0))
    assert abs(inside - 0.0) < 1e-12


def test_equal_radius_equal_separation_identity():
    for delta in (0.25, 1.0, 3.7):
        assert delta * delta * lens_asymmetric(delta / delta) == pytest.approx(
            delta * delta * lens_symmetric(delta / delta), rel=1e-13
        )
    assert lens_asymmetric(1.0) == pytest.approx(lens_area_raster(1.0, 1.0, 1.0), abs=1e-3)


def test_symmetric_monotone_non_increasing():
    r = np.linspace(1e-6, 2.0, 500)
    areas = lens_symmetric(r)
    assert np.all(np.diff(areas) <= 1e-15)


def test_asymmetric_far_field_is_half_disk():
    assert lens_asymmetric(1e6) == pytest.approx(math.pi / 2.0, rel=1e-6)
    assert lens_asymmetric(1e6) < math.pi / 2.0


def test_oracle_equivalence_random_configurations():
    # a lens between disks of radius delta is delta**2 times the unit lens
    rng = np.random.default_rng(314159)
    for _ in range(60):
        delta = rng.uniform(0.3, 2.5)
        r = rng.uniform(1e-3, 4.0) * delta
        sym = delta * delta * lens_symmetric(r / delta)
        asym = delta * delta * lens_asymmetric(r / delta)
        sym_generic = lens_area_two_circles(r, delta, delta)
        asym_generic = lens_area_two_circles(r, r, delta)
        assert sym == pytest.approx(sym_generic, rel=1e-12, abs=1e-300)
        assert asym == pytest.approx(asym_generic, rel=1e-12)
        assert sym == pytest.approx(lens_area_raster(r, delta, delta), abs=1e-3)
        assert asym == pytest.approx(lens_area_raster(r, r, delta), abs=1e-3)


@pytest.mark.parametrize("bad", [-1.0, -5e-324, math.nan, math.inf])
def test_domain_errors(bad):
    with pytest.raises(DomainError):
        lens_symmetric(bad)
    with pytest.raises(DomainError):
        lens_asymmetric(bad)
    with pytest.raises(DomainError):
        lens_symmetric(np.array([0.5, bad]))


def test_zero_radius_is_the_coincident_limit():
    # two coincident unit disks, and a void ball of radius 0
    assert lens_symmetric(0.0) == math.pi
    assert same_bits(lens_asymmetric(0.0), 0.0)


def extreme_radii() -> np.ndarray:
    """Subnormals, 1e-300 to 1e153, and the one-ulp neighbours of the branch
    points 0.5, 1 and 2."""
    tiny = np.finfo(float).tiny
    subnormal = [5e-324, 1e-320, 1e-310, float(np.nextafter(tiny, 0.0)), tiny]
    near = [np.nextafter(c, side) for c in (0.5, 1.0, 2.0) for side in (0.0, math.inf)]
    return np.concatenate([subnormal, np.logspace(-300, 153, 20001), near, [0.5, 1.0, 2.0]])


def test_inverse_trig_arguments_stay_in_range_at_extreme_radii():
    # the arccos and arcsin arguments are r / 2 and 1 / (2 r), which stay in
    # [0, 1] under rounding: no NaN and no RuntimeWarning, which the suite
    # turns into errors
    r = extreme_radii()
    sym = lens_symmetric(r)
    asym = lens_asymmetric(r)
    assert np.all(np.isfinite(sym)) and np.all(np.isfinite(asym))
    assert np.all((0.0 <= sym) & (sym <= math.pi))
    assert np.all(asym <= math.pi * r**2)
    assert np.all((0.0 <= asym) & (asym < math.pi))


def test_asymmetric_far_field_series():
    # arccos(q) + r**2 (x - sin x) = pi/2 - 1/(3r) + O(1/r**3): within an
    # ulp of that from 1e6 on, where a cancelling form loses ~r * eps
    r = np.logspace(6, 153, 20001)
    far = np.pi / 2.0 - 1.0 / (3.0 * r)
    assert np.all(np.abs(lens_asymmetric(r) - far) <= np.spacing(far))


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


ARRAYS = {
    "mixed": [0.0, 0.3, 0.5, 1.0, 1.9, 2.5],
    "all contained": [0.01, 0.2, 0.3, np.nextafter(0.5, 0.0)],  # r < 1/2
    "all segment, overlapping": [0.5, 0.8, 1.3, 2.0, 1e6],
    "all separated": [np.nextafter(2.0, 3.0), 3.0, 50.0],  # r > 2
}


def test_array_inputs_match_scalars():
    # an array whose elements all take one branch skips the masks; every
    # element must still carry the bits of the scalar call
    for name, radii in ARRAYS.items():
        r = np.array(radii)
        sym = lens_symmetric(r)
        asym = lens_asymmetric(r)
        for i, ri in enumerate(r):
            assert same_bits(sym[i], lens_symmetric(float(ri))), name
            assert same_bits(asym[i], lens_asymmetric(float(ri))), name
        assert same_bits(lens_symmetric(r.reshape(-1, 1)), sym.reshape(-1, 1)), name


@settings(max_examples=80, deadline=None)
@given(ratio=st.floats(min_value=1e-3, max_value=4.0))
def test_bounds_property(ratio):
    sym = lens_symmetric(ratio)
    asym = lens_asymmetric(ratio)
    assert 0.0 <= sym <= math.pi * (1 + 1e-12)
    assert 0.0 <= asym < math.pi
    assert asym <= math.pi * ratio * ratio * (1 + 1e-12)
