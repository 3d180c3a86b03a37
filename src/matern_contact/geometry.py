"""Closed-form areas of planar two-disk intersections (lenses), for unit disks.

Every conditional retention probability in this package reduces to the area
cut out of a competition disk by a void region, so two lens shapes carry all
of the geometry: the equal-radius lens between two hard-core disks, and the
mixed-radius lens, summed from two terms that never cancel, between a void
ball of radius r and a competition disk centred on its boundary. Both
take radii in units of the hard-core distance delta, so the competition disks
have radius 1; a caller at delta passes r / delta and scales by delta**2.
"""

from __future__ import annotations

import math

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
    # vanishing-lens boundary; both factors round to non-negative values
    return 2.0 * np.arccos(r / 2.0) - 0.5 * r * np.sqrt((2.0 - r) * (2.0 + r))


# Taylor coefficients of (x - sin x) / x**3 in x**2, highest power first; at
# rounding below x = 1/2
_X_MINUS_SIN = np.array([(-1.0) ** k / math.factorial(2 * k + 3) for k in range(7, -1, -1)])


def _segments(r: np.ndarray) -> np.ndarray:
    """Both disks' sectors, arccos(q) + r**2 x with q = 1/(2r) and x =
    2 arcsin(q), less their kite r**2 sin(x), summed as arccos(q) + r**2 (x -
    sin x), two terms >= 0. Capped at the contained branch's pi r**2, which
    the rounded sum exceeds by an ulp just above r = 1/2."""
    q = 1.0 / (2.0 * r)
    x = 2.0 * np.arcsin(q)
    series = x * x * x * np.polyval(_X_MINUS_SIN, x * x)  # Horner's scheme in x**2
    chord = np.where(x < 0.5, series, x - np.sin(x))
    return np.minimum(np.arccos(q) + r**2 * chord, np.pi * r**2)


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
    so 0 at r = 0, then the segment form of :func:`_segments`, which tends to
    half the unit disk, pi/2 - 1/(3r), to an ulp as the big boundary
    straightens through the small disk's centre.
    """
    scalar = np.ndim(r) == 0
    r_arr = _validated(r)
    area = piecewise(r_arr < 0.5, lambda r: np.pi * r**2, r_arr, other=_segments)
    return float(area[0]) if scalar else area
