"""Closed-form areas of planar two-disk intersections (lenses), for unit disks.

Every conditional retention probability in this package reduces to the area
cut out of a competition disk by a void region, so two lens shapes carry all
of the geometry: the equal-radius lens between two hard-core disks, and the
mixed-radius lens between a void ball of radius r and a competition disk
whose centre sits on the void ball's boundary. Both take radii in units of
the hard-core distance delta, so the competition disks have radius 1; a
caller at a general delta passes r / delta and scales the area by delta**2.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DomainError", "lens_symmetric", "lens_asymmetric"]

FloatOrArray = float | np.ndarray


class DomainError(ValueError):
    """Raised for negative or non-finite geometric inputs."""


def _validated(r: FloatOrArray) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    # NaN fails both comparisons
    if arr.size and not (arr.min() >= 0.0 and arr.max() < np.inf):
        raise DomainError(f"r must be finite and non-negative, got {r!r}")
    return arr


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


# The arccos and arcsin arguments below, r / 2 on 0 <= r <= 2 and 1 / (2 r)
# on r >= 1/2, lie in [0, 1] in floating point too: halving is exact, and a
# correctly rounded 1 / x with x >= 1 is at most 1.


def _symmetric(r: np.ndarray) -> np.ndarray:
    # factored root (2 - r)(2 + r) = 4 - r**2 avoids cancellation at the
    # vanishing-lens boundary
    root = np.sqrt(np.maximum((2.0 - r) * (2.0 + r), 0.0))
    return 2.0 * np.arccos(r / 2.0) - 0.5 * r * root


def _two_arc(r: np.ndarray) -> np.ndarray:
    """2 r**2 arcsin(q) + arccos(q) - sqrt((2r - 1)(2r + 1)) / 2, q = 1/(2r),
    in place and in the order written: one ratio feeds both arcs."""
    # arccos(1 - 1/(2 r**2)) == 2 arcsin(1/(2 r)); the arcsin form stays
    # well-conditioned when r >> 1
    two_r = 2.0 * r
    q = 1.0 / two_r
    root = two_r - 1.0
    two_r += 1.0
    root *= two_r
    np.sqrt(np.maximum(root, 0.0, out=root), out=root)
    area = np.square(r)
    area *= 2.0
    arc = np.arcsin(q)
    area *= arc
    area += np.arccos(q, out=arc)
    root *= 0.5
    area -= root
    return area


def lens_symmetric(r: FloatOrArray) -> FloatOrArray:
    """Intersection area of two unit disks with centres ``r`` apart.

    Exactly zero once the disks separate (r > 2); the full disk area pi at
    r = 0.
    """
    scalar = np.ndim(r) == 0
    r_arr = _validated(r)
    area = piecewise(r_arr <= 2.0, _symmetric, r_arr)
    return float(area[0]) if scalar else area


def lens_asymmetric(r: FloatOrArray) -> FloatOrArray:
    """Intersection area of a disk of radius ``r`` and a unit disk whose
    centre lies on the first disk's boundary (centres ``r`` apart).

    Equals the full pi*r**2 while the radius-r disk is contained (r < 1/2),
    so 0 at r = 0, and approaches half the unit disk, pi/2, as r grows and
    the big boundary straightens through the small disk's centre.
    """
    scalar = np.ndim(r) == 0
    r_arr = _validated(r)
    area = piecewise(r_arr < 0.5, lambda r: np.pi * r**2, r_arr, other=_two_arc)
    return float(area[0]) if scalar else area
