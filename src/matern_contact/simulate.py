"""Seeded Poisson sampling on a rectangular torus and Matern type-II thinning.

The wrap-around metric realises a stationary process exactly on a finite
window, so no edge correction is ever needed downstream. Thinning pairs come
from plain k-d trees padded with ghost copies across the seams, one per row
band of a large pattern, with the odd bands on a caller's executor when it
passes one. :mod:`.estimate` searches nearest neighbours on a plain tree,
and on a periodic one only near the seams. Both match a brute-force
minimum-image scan, on any band count and thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .analytic import ProcessParams

if TYPE_CHECKING:
    from concurrent.futures import Executor

    from scipy.spatial import cKDTree

__all__ = [
    "CapacityError",
    "MarkedPattern",
    "PointLabel",
    "Window",
    "WindowFloorError",
    "dump_pattern",
    "load_pattern",
    "sample_ppp",
    "thin_mhc_type2",
]

SeedLike = int | tuple[int, ...]

_MAX_EXPECTED_POINTS = 1e8
# window sides must cover this many hard-core distances before thinning
_MIN_SIDES_PER_DELTA = 10.0
# thinning splits a pattern into row bands of about BAND_PARENTS parents each,
# at most MAX_BANDS; a band's tree reaches HALO_DELTAS x delta above its own
# rows, more than delta, so that no pair within delta is lost at a band edge
BAND_PARENTS = 30_000
MAX_BANDS = 8
HALO_DELTAS = 1.25


class CapacityError(ValueError):
    """Requested pattern is too large to generate."""


class WindowFloorError(ValueError):
    """Window too narrow to thin at the requested hard-core distance."""


def _check_point_cap(lam: float, window: Window) -> None:
    mean = lam * window.area
    if mean > _MAX_EXPECTED_POINTS:
        raise CapacityError(
            f"expected point count {mean:.3e} exceeds {_MAX_EXPECTED_POINTS:.0e}"
        )


def _check_window_floor(window: Window, delta: float) -> None:
    min_side = min(window.width, window.height)
    if min_side < _MIN_SIDES_PER_DELTA * delta:
        raise WindowFloorError(
            f"window min side {min_side!r} below "
            f"{_MIN_SIDES_PER_DELTA:g} x delta = {_MIN_SIDES_PER_DELTA * delta!r}"
        )


@dataclass(frozen=True)
class Window:
    """Rectangular simulation window with wrap-around (toroidal) metric."""

    width: float
    height: float

    def __post_init__(self) -> None:
        w = float(self.width)
        h = float(self.height)
        if not (math.isfinite(w) and w > 0.0 and math.isfinite(h) and h > 0.0):
            raise ValueError(f"window sides must be finite and > 0, got {w!r} x {h!r}")
        object.__setattr__(self, "width", w)
        object.__setattr__(self, "height", h)

    @property
    def area(self) -> float:
        return self.width * self.height


class PointLabel(IntEnum):
    PARENT = 0
    MHC = 1
    CMHC = 2


@dataclass
class MarkedPattern:
    """Point pattern on a torus; every point carries a uniform mark in [0, 1)
    and a label (PARENT before thinning, MHC/CMHC afterwards)."""

    window: Window
    x: np.ndarray
    y: np.ndarray
    mark: np.ndarray
    label: np.ndarray
    seed: SeedLike

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.mark = np.asarray(self.mark, dtype=float)
        self.label = np.asarray(self.label, dtype=np.uint8)
        n = len(self.x)
        if not (len(self.y) == len(self.mark) == len(self.label) == n):
            raise ValueError("x, y, mark, label must have equal lengths")

    @property
    def n(self) -> int:
        return len(self.x)

    def indices_of(self, label: PointLabel) -> np.ndarray:
        return np.flatnonzero(self.label == int(label))

    def count(self, label: PointLabel) -> int:
        return int(np.count_nonzero(self.label == int(label)))


def _spatial_order(x: np.ndarray, y: np.ndarray, window: Window) -> np.ndarray:
    """Permutation that visits the points in row strips about one mean
    spacing high, left to right within each strip.

    :func:`sample_ppp` stores every pattern in this order, so neighbours in
    the plane sit close together in memory and k-d tree leaves and query
    streams stay in cache. The order never changes a result: every distance
    is computed from the same coordinate values whatever order they come in.
    """
    spacing = math.sqrt(window.area / max(len(x), 1))
    return np.argsort(np.floor(y / spacing) * window.width + x)


def _wrapped(x: np.ndarray, y: np.ndarray, sides: tuple[float, float]) -> np.ndarray:
    """The points as (n, 2) rows in [0, W) x [0, H), a side itself mapped to 0."""
    coords = np.column_stack((x, y))
    # generated points already lie in the window, and np.mod would return
    # them unchanged; only a loaded or shifted pattern needs the wrap
    if x.size and min(x.min(), y.min()) >= 0.0 and x.max() < sides[0] and y.max() < sides[1]:
        return coords
    coords = np.mod(coords, sides)
    coords[coords == sides] = 0.0  # np.mod of a tiny negative input, or a loaded point
    return coords


def _periodic_tree(x: np.ndarray, y: np.ndarray, window: Window) -> cKDTree:
    """Periodic k-d tree over the :func:`_wrapped` points (the tree rejects a
    coordinate equal to a side); row ``k`` of ``tree.data`` is point ``k``.
    The nearest-neighbour search builds one for its strip along the seams
    and one for the queries its first, plain search misses
    (``estimate._nearest``).

    Sliding midpoint splits and uncompacted node boxes build faster and serve
    points spread over the whole window as well. ``scipy.spatial`` is imported
    here, not at module level: it is most of the package's import time, and
    the analytic side never builds a tree.
    """
    from scipy.spatial import cKDTree

    sides = (window.width, window.height)
    return cKDTree(_wrapped(x, y, sides), boxsize=sides, balanced_tree=False, compact_nodes=False)


def sample_ppp(lam: float, window: Window, seed: SeedLike) -> MarkedPattern:
    """Homogeneous Poisson pattern of intensity ``lam`` with i.i.d. uniform
    marks, stored in row-strip spatial order, which thinned patterns, their
    subsets and dumps keep; an identical seed reproduces it bit for bit."""
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"intensity must be finite and > 0, got {lam!r}")
    _check_point_cap(lam, window)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = int(rng.poisson(lam * window.area))
    x = rng.uniform(0.0, window.width, n)
    y = rng.uniform(0.0, window.height, n)
    mark = rng.random(n)
    order = _spatial_order(x, y, window)
    label = np.full(n, int(PointLabel.PARENT), dtype=np.uint8)
    return MarkedPattern(window, x[order], y[order], mark[order], label, seed)


def _band_count(n: int) -> int:
    """Row bands for ``n`` parents: one per :data:`BAND_PARENTS`, rounded down
    to an even count, so that two threads share them equally, and at most
    :data:`MAX_BANDS`; a single band below twice :data:`BAND_PARENTS`."""
    return max(1, 2 * min(MAX_BANDS // 2, n // (2 * BAND_PARENTS)))


def thin_mhc_type2(
    pattern: MarkedPattern, delta: float, executor: Executor | None = None
) -> MarkedPattern:
    """Dependent thinning: a point keeps the MHC label iff its mark is the
    strict minimum among all points within toroidal distance ``delta``; every
    other point becomes CMHC. All flags are decided against the full parent
    pattern before any removal, so chains of dominance do not propagate.

    Mark ties (measure zero with 64-bit uniforms) are broken by point index.
    The result shares the input's coordinate and mark arrays; only its labels
    are new.

    Pairs come from plain k-d trees over the points and ghost copies, shifted
    by a side, of those within ``delta`` of the low seam: along x, then y (x ghosts too).
    A large pattern is split into horizontal row bands (:func:`_band_count`);
    each band's tree holds its own rows and a halo, :data:`HALO_DELTAS` x
    ``delta`` high, of the rows just above them, so every pair lies whole in
    the tree of its lower point's band. A band marks its losers and frees its
    tree and pairs before the next band starts. The calling thread runs the
    bands in one loop: every band, or, given an ``executor`` and two or more
    bands, the even ones while the odd ones run on the executor. The call
    returns once every band has ended, and raises what any band raised.
    Labels depend only on the set of pairs found, so they are the same, to the
    bit, for any band count, with or without an executor.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    if np.any(pattern.label != int(PointLabel.PARENT)):
        raise ValueError("pattern must be unthinned (all labels PARENT)")
    n = pattern.n
    label = np.full(n, int(PointLabel.MHC), dtype=np.uint8)
    if delta > 0.0 and n > 1:
        from scipy.spatial import cKDTree
        _check_window_floor(pattern.window, delta)
        sides = (pattern.window.width, pattern.window.height)
        coords = _wrapped(pattern.x, pattern.y, sides)
        owner = np.arange(n)
        for axis, shift in enumerate(np.diag(sides)):
            near = np.flatnonzero(coords[:, axis] <= delta)
            coords = np.concatenate((coords, coords[near] + shift))
            owner = np.concatenate((owner, owner[near]))
        bands = _band_count(n)
        edges = np.linspace(0.0, sides[1], bands + 1)
        edges[-1] = np.inf  # the top band holds the ghost rows above the seam
        halo = HALO_DELTAS * delta

        def thin_band(k: int) -> None:
            band, band_owner = coords, owner
            if bands > 1:  # speed guard: one band is every row
                y = coords[:, 1]
                # a difference rounds relative to itself, so no pair within delta
                # of a row below the edge escapes the halo, however small delta is
                rows = np.flatnonzero((y >= edges[k]) & (y - edges[k + 1] < halo))
                band, band_owner = coords[rows], owner[rows]
            # closed-ball pairs, never a point with its own ghost (window floor); each pair,
            # even one seen twice, removes its larger-mark point, or larger index on a tie
            tree = cKDTree(band, balanced_tree=False, compact_nodes=False)
            pairs = tree.query_pairs(delta, output_type="ndarray")
            i, j = np.take(band_owner, pairs, out=pairs, mode="clip").T
            del tree, band, band_owner  # freed before the per-pair arrays: those set the peak
            mi = pattern.mark[i]
            mj = pattern.mark[j]
            loser = np.where((mj > mi) | ((mj == mi) & (j > i)), j, i)
            label[loser] = int(PointLabel.CMHC)  # both threads write this value only

        odd = range(1, bands, 2) if executor is not None else ()  # empty for one band
        helpers = [executor.submit(thin_band, k) for k in odd]
        try:
            for k in range(0, bands, 2 if helpers else 1):
                thin_band(k)
        except BaseException:
            for future in helpers:
                future.cancel()
            raise
        finally:
            if helpers:
                from concurrent.futures import wait  # ~10 ms of import time; see estimate

                wait(helpers)  # no band outlives the call
        for future in helpers:
            future.result()
    return replace(pattern, label=label)


def _format_seed(seed: SeedLike) -> str:
    if isinstance(seed, tuple):
        return " ".join(str(int(s)) for s in seed)
    return str(int(seed))


def _parse_seed(text: str) -> SeedLike:
    parts = [int(p) for p in text.split()]
    return parts[0] if len(parts) == 1 else tuple(parts)


def dump_pattern(
    pattern: MarkedPattern, path: str | Path, params: ProcessParams | None = None
) -> None:
    """Write one point per line as ``x y mark label`` with header comments
    carrying window, generation parameters, and seed."""
    lines = [
        f"# window {pattern.window.width!r} {pattern.window.height!r}",
        f"# seed {_format_seed(pattern.seed)}",
    ]
    if params is not None:
        lines.append(f"# lambda_p {params.lambda_p!r}")
        lines.append(f"# delta {params.delta!r}")
    lines.append("# columns x y mark label")
    for x, y, mark, lab in zip(pattern.x, pattern.y, pattern.mark, pattern.label):
        lines.append(
            f"{float(x)!r} {float(y)!r} {float(mark)!r} {PointLabel(int(lab)).name}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_pattern(path: str | Path) -> tuple[MarkedPattern, ProcessParams | None]:
    """Read a pattern dump back; returns the pattern and, when the header
    carried them, the generation parameters."""
    header: dict[str, str] = {}
    xs: list[float] = []
    ys: list[float] = []
    marks: list[float] = []
    labels: list[int] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if " " in body:
                key, value = body.split(" ", 1)
                header[key] = value.strip()
            continue
        x_str, y_str, mark_str, label_name = line.split()
        xs.append(float(x_str))
        ys.append(float(y_str))
        marks.append(float(mark_str))
        labels.append(int(PointLabel[label_name]))
    if "window" not in header or "seed" not in header:
        raise ValueError(f"{path}: missing window/seed header")
    w_str, h_str = header["window"].split()
    pattern = MarkedPattern(
        Window(float(w_str), float(h_str)),
        np.array(xs),
        np.array(ys),
        np.array(marks),
        np.array(labels, dtype=np.uint8),
        _parse_seed(header["seed"]),
    )
    params = None
    if "lambda_p" in header and "delta" in header:
        params = ProcessParams(float(header["lambda_p"]), float(header["delta"]))
    return pattern, params
