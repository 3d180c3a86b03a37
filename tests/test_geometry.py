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
    assert lens_symmetric(2.0, 1.0) == 0.0
    assert lens_symmetric(2.0000001, 1.0) == 0.0
    assert lens_symmetric(50.0, 1.0) == 0.0


def test_symmetric_coincident_limit_is_disk_area():
    assert lens_symmetric(1e-9, 1.0) == pytest.approx(math.pi, abs=1e-6)


def test_symmetric_unit_configuration():
    assert lens_symmetric(1.0, 1.0) == pytest.approx(FULL_OVERLAP, rel=1e-14)
    assert lens_symmetric(1.0, 1.0) == pytest.approx(
        lens_area_raster(1.0, 1.0, 1.0), abs=1e-3
    )


def test_asymmetric_contained_branch():
    assert lens_asymmetric(0.2, 1.0) == pytest.approx(math.pi * 0.04, rel=1e-14)


def test_asymmetric_branch_agreement_at_half_delta():
    # the two-arc branch reproduces the containment value exactly at r = delta/2
    for delta in (0.3, 1.0, 2.2):
        half = 0.5 * delta
        assert lens_asymmetric(half, delta) == pytest.approx(
            math.pi * half * half, rel=1e-12
        )
    # one-ulp probes sit on a square-root cusp, so evaluation conditioning
    # near the branch point is ~sqrt(eps), not eps
    at = lens_asymmetric(0.5, 1.0)
    assert lens_asymmetric(np.nextafter(0.5, 0.0), 1.0) == pytest.approx(at, rel=1e-7)
    assert lens_asymmetric(np.nextafter(0.5, 1.0), 1.0) == pytest.approx(at, rel=1e-7)


def test_symmetric_continuity_at_two_delta():
    inside = lens_symmetric(np.nextafter(2.0, 0.0), 1.0)
    assert abs(inside - 0.0) < 1e-12


def test_equal_radius_equal_separation_identity():
    for delta in (0.25, 1.0, 3.7):
        assert lens_asymmetric(delta, delta) == pytest.approx(
            lens_symmetric(delta, delta), rel=1e-13
        )
    assert lens_asymmetric(1.0, 1.0) == pytest.approx(
        lens_area_raster(1.0, 1.0, 1.0), abs=1e-3
    )


def test_symmetric_monotone_non_increasing():
    r = np.linspace(1e-6, 2.0, 500)
    areas = lens_symmetric(r, 1.0)
    assert np.all(np.diff(areas) <= 1e-15)


def test_asymmetric_far_field_is_half_disk():
    assert lens_asymmetric(1e6, 1.0) == pytest.approx(math.pi / 2.0, rel=1e-6)
    assert lens_asymmetric(1e6, 1.0) < math.pi / 2.0


def test_oracle_equivalence_random_configurations():
    rng = np.random.default_rng(314159)
    for _ in range(60):
        delta = rng.uniform(0.3, 2.5)
        r = rng.uniform(1e-3, 4.0) * delta
        sym = lens_symmetric(r, delta)
        asym = lens_asymmetric(r, delta)
        sym_generic = lens_area_two_circles(r, delta, delta)
        asym_generic = lens_area_two_circles(r, r, delta)
        assert sym == pytest.approx(sym_generic, rel=1e-12, abs=1e-300)
        assert asym == pytest.approx(asym_generic, rel=1e-12)
        assert sym == pytest.approx(lens_area_raster(r, delta, delta), abs=1e-3)
        assert asym == pytest.approx(lens_area_raster(r, r, delta), abs=1e-3)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_domain_errors(bad):
    with pytest.raises(DomainError):
        lens_symmetric(bad, 1.0)
    with pytest.raises(DomainError):
        lens_symmetric(1.0, bad)
    with pytest.raises(DomainError):
        lens_asymmetric(bad, 1.0)
    with pytest.raises(DomainError):
        lens_asymmetric(1.0, bad)


def test_array_inputs_match_scalars():
    r = np.array([0.3, 0.5, 1.0, 1.9, 2.5])
    sym = lens_symmetric(r, 1.0)
    asym = lens_asymmetric(r, 1.0)
    for i, ri in enumerate(r):
        assert sym[i] == lens_symmetric(float(ri), 1.0)
        assert asym[i] == lens_asymmetric(float(ri), 1.0)


@settings(max_examples=80, deadline=None)
@given(
    ratio=st.floats(min_value=1e-3, max_value=4.0),
    delta=st.floats(min_value=1e-3, max_value=1e3),
)
def test_bounds_property(ratio, delta):
    r = ratio * delta
    disk = math.pi * delta * delta
    sym = lens_symmetric(r, delta)
    asym = lens_asymmetric(r, delta)
    assert 0.0 <= sym <= disk * (1 + 1e-12)
    assert 0.0 <= asym < disk
    assert asym <= math.pi * r * r * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    ratio=st.floats(min_value=1e-3, max_value=4.0),
    delta=st.floats(min_value=1e-2, max_value=10.0),
    scale=st.floats(min_value=1e-2, max_value=1e2),
)
def test_scale_invariance(ratio, delta, scale):
    r = ratio * delta
    assert lens_symmetric(scale * r, scale * delta) == pytest.approx(
        scale * scale * lens_symmetric(r, delta), rel=1e-9, abs=1e-300
    )
    assert lens_asymmetric(scale * r, scale * delta) == pytest.approx(
        scale * scale * lens_asymmetric(r, delta), rel=1e-9, abs=1e-300
    )
