"""Seeded Poisson sampling on a rectangular torus and Matern type-II thinning.

The wrap-around metric realises a stationary process exactly on a finite
window, so no edge correction is ever needed downstream. Neighbour pairs come
from scipy's periodic k-d tree, which also serves the nearest-neighbour
search in :mod:`.estimate`; both match a brute-force minimum-image scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .analytic import ProcessParams

if TYPE_CHECKING:
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

    Neighbours in the plane then sit close together in memory, which keeps
    both the k-d tree's leaves and a stream of queries in cache. The order
    never changes a result: every distance is computed from the same
    coordinate values whatever order they come in.
    """
    spacing = math.sqrt(window.area / max(len(x), 1))
    return np.argsort(np.floor(y / spacing) * window.width + x)


def _periodic_tree(
    x: np.ndarray, y: np.ndarray, window: Window
) -> tuple[cKDTree, np.ndarray]:
    """Periodic k-d tree over the points, wrapped into [0, W) x [0, H) and
    stored in spatial order; returns the tree and that order, so that row
    ``k`` of ``tree.data`` is input point ``order[k]``.

    The tree rejects a coordinate equal to a side, and ``np.mod`` returns the
    side itself for tiny negative inputs; such values map back to 0. Sliding
    midpoint splits (``balanced_tree=False``) build faster than median splits
    and serve points spread over the whole window as well. ``scipy.spatial``
    is imported here, not at module level: it is most of the package's import
    time, and the analytic side never builds a tree.
    """
    from scipy.spatial import cKDTree

    sides = (window.width, window.height)
    coords = np.mod(np.column_stack((x, y)), sides)
    coords[coords == sides] = 0.0
    order = _spatial_order(coords[:, 0], coords[:, 1], window)
    coords = coords[order]  # frees the unsorted copy before the build
    return cKDTree(coords, boxsize=sides, balanced_tree=False), order


def sample_ppp(lam: float, window: Window, seed: SeedLike) -> MarkedPattern:
    """Homogeneous Poisson pattern of intensity ``lam`` with i.i.d. uniform
    marks; an identical seed reproduces the pattern bit for bit."""
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"intensity must be finite and > 0, got {lam!r}")
    _check_point_cap(lam, window)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = int(rng.poisson(lam * window.area))
    x = rng.uniform(0.0, window.width, n)
    y = rng.uniform(0.0, window.height, n)
    mark = rng.random(n)
    label = np.full(n, int(PointLabel.PARENT), dtype=np.uint8)
    return MarkedPattern(window, x, y, mark, label, seed)


def thin_mhc_type2(pattern: MarkedPattern, delta: float) -> MarkedPattern:
    """Dependent thinning: a point keeps the MHC label iff its mark is the
    strict minimum among all points within toroidal distance ``delta``; every
    other point becomes CMHC. All flags are decided against the full parent
    pattern before any removal, so chains of dominance do not propagate.

    Mark ties (measure zero with 64-bit uniforms) are broken by point index.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    if np.any(pattern.label != int(PointLabel.PARENT)):
        raise ValueError("pattern must be unthinned (all labels PARENT)")
    n = pattern.n
    label = np.full(n, int(PointLabel.MHC), dtype=np.uint8)
    if delta > 0.0 and n > 1:
        window = pattern.window
        _check_window_floor(window, delta)
        # unordered pairs within the closed ball; each pair removes the point
        # with the larger mark, or with the larger index on a tie
        tree, order = _periodic_tree(pattern.x, pattern.y, window)
        i, j = order[tree.query_pairs(delta, output_type="ndarray")].T
        mi = pattern.mark[i]
        mj = pattern.mark[j]
        loser = np.where((mj > mi) | ((mj == mi) & (j > i)), j, i)
        label[loser] = int(PointLabel.CMHC)
    return MarkedPattern(
        pattern.window,
        pattern.x.copy(),
        pattern.y.copy(),
        pattern.mark.copy(),
        label,
        pattern.seed,
    )


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
