"""Closed-form areas of planar two-disk intersections (lenses).

Every conditional retention probability in this package reduces to the area
cut out of a competition disk by a void region, so two lens shapes carry all
of the geometry: the equal-radius lens between two hard-core disks, and the
mixed-radius lens between a void ball of radius r and a competition disk of
radius delta whose centre sits on the void ball's boundary.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DomainError", "lens_symmetric", "lens_asymmetric"]

FloatOrArray = float | np.ndarray

# arccos arguments may overshoot +/-1 by a few ulp at branch boundaries;
# anything beyond this slack is a genuine domain violation, not roundoff.
_ACOS_SLACK = 4.0 * np.finfo(float).eps


class DomainError(ValueError):
    """Raised for non-finite or non-positive geometric inputs."""


def _validated(name: str, value: FloatOrArray) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    # NaN fails both comparisons
    if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):
        raise DomainError(f"{name} must be finite and positive, got {value!r}")
    return arr


def _operands(r: FloatOrArray, delta: float) -> tuple[np.ndarray, float]:
    """Validated radius array and scalar delta."""
    if np.ndim(delta) != 0:
        raise DomainError(f"delta must be a scalar, got shape {np.shape(delta)}")
    return _validated("r", r), float(_validated("delta", delta)[0])


def _check_unit_range(x: np.ndarray) -> np.ndarray:
    """x, clamped to [-1, 1] when roundoff took it out by at most _ACOS_SLACK."""
    if not x.size:
        return x
    excess = max(float(x.max()), -float(x.min())) - 1.0
    if excess > _ACOS_SLACK:
        raise DomainError(f"inverse-trig argument outside [-1, 1] by {excess:.3e}")
    return x if excess <= 0.0 else np.minimum(np.maximum(x, -1.0), 1.0)


def piecewise(mask: np.ndarray, fn, *args, other=None) -> np.ndarray:
    """fn(*args) where ``mask`` holds, and ``other(*args)`` elsewhere, or 0
    without ``other``. A mask that takes one branch throughout copies
    nothing: that branch runs straight on the inputs. Only a mixed mask
    gathers the array arguments (scalars pass as they are) and scatters."""
    if mask.size and mask.all():
        return fn(*args)
    if other is not None and not mask.any():
        return other(*args)
    out = np.zeros(mask.shape)
    for m, f in ((mask, fn), (~mask, other)):
        if f is not None and m.any():
            out[m] = f(*(a[m] if np.ndim(a) else a for a in args))
    return out


def _symmetric(r: np.ndarray, d: float) -> np.ndarray:
    # factored root (2d - r)(2d + r) = 4 d**2 - r**2 avoids cancellation at the
    # vanishing-lens boundary
    root = np.sqrt(np.maximum((2.0 * d - r) * (2.0 * d + r), 0.0))
    return 2.0 * d**2 * np.arccos(_check_unit_range(r / (2.0 * d))) - 0.5 * r * root


def _two_arc(r: np.ndarray, d: float) -> np.ndarray:
    """2 r**2 arcsin(q) + d**2 arccos(q) - d/2 sqrt((2r - d)(2r + d)), q = d/(2r),
    in place and in the order written: one ratio feeds both arcs."""
    # arccos(1 - d**2/(2 r**2)) == 2 arcsin(d/(2 r)); the arcsin form stays
    # well-conditioned when r >> delta
    two_r = 2.0 * r
    q = _check_unit_range(d / two_r)
    root = two_r - d
    two_r += d
    root *= two_r
    np.sqrt(np.maximum(root, 0.0, out=root), out=root)
    area = np.square(r)
    area *= 2.0
    arc = np.arcsin(q)
    area *= arc
    arc = np.arccos(q, out=arc)
    arc *= d**2
    area += arc
    root *= 0.5 * d
    area -= root
    return area


def lens_symmetric(r: FloatOrArray, delta: float) -> FloatOrArray:
    """Intersection area of two disks of radius ``delta`` with centres ``r`` apart.

    Exactly zero once the disks separate (r > 2*delta); tends to the full disk
    area pi*delta**2 as r -> 0.
    """
    scalar = np.ndim(r) == 0
    r_arr, d = _operands(r, delta)
    area = piecewise(r_arr <= 2.0 * d, _symmetric, r_arr, d)
    return float(area[0]) if scalar else area


def lens_asymmetric(r: FloatOrArray, delta: float) -> FloatOrArray:
    """Intersection area of a disk of radius ``r`` and a disk of radius ``delta``
    whose centre lies on the first disk's boundary (centres ``r`` apart).

    Equals the full pi*r**2 while the radius-r disk is contained
    (r < delta/2) and approaches half the delta-disk, pi*delta**2/2, as
    r grows and the big boundary straightens through the small disk's centre.
    """
    scalar = np.ndim(r) == 0
    r_arr, d = _operands(r, delta)
    contained = r_arr < 0.5 * d
    area = piecewise(contained, lambda r, d: np.pi * r**2, r_arr, d, other=_two_arc)
    return float(area[0]) if scalar else area
