"""Empirical nearest-neighbour distances, step CDFs, and the analytic versus
Monte-Carlo comparison pipeline.

Nearest-neighbour distances on the torus come from scipy's periodic k-d tree,
queried on every core, and equal a brute-force minimum-image scan bit for bit
whatever the core count. They keep the pattern's (spatial) point order.

:func:`replication_patterns` is the one recipe for the patterns of a
replication: the seeds of ``SEED_SCHEME`` and the thinning each case calls
for. :func:`pooled_distances` and the command line's ``density`` both use it.
Wall-clock times stay out of everything here, so that reports of the same
config and seed are byte-identical.

Nearest-neighbour samples from one realisation are spatially correlated, so
the sup distance reported here is a descriptive statistic checked against
fixed thresholds, never a formal hypothesis test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import (
    CdfCurve,
    ContactCase,
    ProcessParams,
    RetentionFunction,
    contact_cdf,
    default_r_grid,
    extend_curve,
)
from .simulate import (
    MarkedPattern,
    PointLabel,
    Window,
    _check_point_cap,
    _check_window_floor,
    _periodic_tree,
    sample_ppp,
    thin_mhc_type2,
)

__all__ = [
    "ComparisonReport",
    "EmpiricalDistribution",
    "ExperimentConfig",
    "InsufficientDataError",
    "SEED_SCHEME",
    "empirical_cdf",
    "ks_sup_distance",
    "nn_distances_cross",
    "nn_distances_within",
    "pooled_distances",
    "replication_patterns",
    "run_experiment",
]

# every replication draws its streams from SeedSequence((seed, replication, parent))
SEED_SCHEME = "SeedSequence((seed, replication, parent_index))"


class InsufficientDataError(ValueError):
    """Too few points to extract the requested distances."""


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted distance samples with right-continuous step-CDF evaluation."""

    samples: np.ndarray

    @property
    def n(self) -> int:
        return len(self.samples)

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """F_hat(x) = (#samples <= x) / n."""
        out = np.searchsorted(self.samples, x, side="right") / self.n
        return float(out) if np.ndim(x) == 0 else out

    def cdf_left(self, x: float | np.ndarray) -> float | np.ndarray:
        """Left limit F_hat(x-) = (#samples < x) / n."""
        out = np.searchsorted(self.samples, x, side="left") / self.n
        return float(out) if np.ndim(x) == 0 else out


def empirical_cdf(samples) -> EmpiricalDistribution:
    """Sorted copy of the samples wrapped for step-function evaluation."""
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size == 0:
        raise InsufficientDataError("no samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return EmpiricalDistribution(arr)


def nn_distances_within(pattern: MarkedPattern, label: PointLabel) -> np.ndarray:
    """Toroidal distance from each ``label`` point to its nearest other point
    carrying the same label."""
    idx = pattern.indices_of(label)
    if len(idx) < 2:
        raise InsufficientDataError(
            f"need >= 2 points labelled {PointLabel(label).name}, have {len(idx)}"
        )
    tree = _periodic_tree(pattern.x[idx], pattern.y[idx], pattern.window)
    # the nearest hit of each point is itself, at distance 0
    return tree.query(tree.data, k=[2], workers=-1)[0][:, 0]


def nn_distances_cross(
    source: MarkedPattern,
    source_label: PointLabel,
    target: MarkedPattern,
    target_label: PointLabel,
) -> np.ndarray:
    """Toroidal distance from each source-labelled point to the nearest
    target-labelled point. Both patterns must live on the same window; with
    disjoint labels on a shared pattern no self-pairing can occur."""
    if source.window != target.window:
        raise ValueError("source and target patterns live on different windows")
    s_idx = source.indices_of(source_label)
    t_idx = target.indices_of(target_label)
    if len(s_idx) == 0:
        raise InsufficientDataError("source has no points with the requested label")
    if len(t_idx) == 0:
        raise InsufficientDataError("target has no points with the requested label")
    tree = _periodic_tree(target.x[t_idx], target.y[t_idx], target.window)
    return tree.query(np.column_stack((source.x[s_idx], source.y[s_idx])), k=1, workers=-1)[0]


def ks_sup_distance(emp: EmpiricalDistribution, curve: CdfCurve) -> float:
    """Two-sided sup distance between the step CDF and an analytic curve,
    evaluated at every sample point (both the jump top and its left limit).

    The analytic curve is extended wherever the samples leave its grid: out
    past the largest sample, and down to its lower support when a sample lies
    below a curve that starts above that support.
    """
    x = emp.samples
    lo, hi = float(x[0]), float(x[-1])
    if lo < float(curve.radii[0]) or hi > float(curve.radii[-1]):
        curve = extend_curve(curve, hi, lo)
    f = curve.evaluate(x)
    return float(np.maximum(np.abs(emp.cdf(x) - f), np.abs(emp.cdf_left(x) - f)).max())


@dataclass(frozen=True)
class ExperimentConfig:
    """Full recipe for one comparison experiment (one case, one delta)."""

    case: ContactCase
    params: ProcessParams
    window: Window = Window(100.0, 100.0)
    replications: int = 20
    seed: int = 1
    r_min: float | None = None
    r_max: float | None = None
    r_points: int = 200
    abs_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.r_points < 2:
            raise ValueError(f"r_points must be >= 2, got {self.r_points}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol!r}")
        # the patterns every replication generates must fit, so a config
        # that cannot run fails here and not in its first replication
        _check_point_cap(self.params.lambda_p, self.window)
        if self.case is not ContactCase.PPP_TO_PPP:
            _check_window_floor(self.window, self.params.delta)

    def r_grid(self) -> np.ndarray:
        return default_r_grid(
            self.case, self.params, self.r_points, r_min=self.r_min, r_max=self.r_max
        )

    def to_dict(self) -> dict:
        return {
            "case": self.case.value,
            "lambda_p": self.params.lambda_p,
            "delta": self.params.delta,
            "window": [self.window.width, self.window.height],
            "replications": self.replications,
            "seed": self.seed,
            "r_grid": {"min": self.r_min, "max": self.r_max, "points": self.r_points},
            "abs_tol": self.abs_tol,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config whose :meth:`to_dict` is ``data``; other keys are
        ignored."""
        grid = data["r_grid"]
        return cls(
            case=ContactCase(data["case"]),
            params=ProcessParams(data["lambda_p"], data["delta"]),
            window=Window(*data["window"]),
            replications=data["replications"],
            seed=data["seed"],
            r_min=grid["min"],
            r_max=grid["max"],
            r_points=grid["points"],
            abs_tol=data["abs_tol"],
        )


PatternSink = Callable[[int, str, MarkedPattern], None]


def replication_patterns(config: ExperimentConfig, rep: int) -> dict[str, MarkedPattern]:
    """The patterns replication ``rep`` of ``config`` generates, by role.

    Parent pattern ``i`` of the replication is drawn from
    ``SeedSequence((config.seed, rep, i))``, as ``SEED_SCHEME`` states.
    ppp-ppp uses one unthinned pattern, ppp-mhc an unthinned source (i = 0)
    and a thinned target (i = 1), drawn in that order, and mhc-mhc and
    cmhc-mhc one thinned pattern (i = 0).
    """
    case, params = config.case, config.params

    def parents(index: int) -> MarkedPattern:
        return sample_ppp(params.lambda_p, config.window, (config.seed, rep, index))

    if case is ContactCase.PPP_TO_PPP:
        return {"pattern": parents(0)}
    if case is ContactCase.PPP_TO_MHC:
        return {"source": parents(0), "target": thin_mhc_type2(parents(1), params.delta)}
    return {"pattern": thin_mhc_type2(parents(0), params.delta)}


def _case_distances(case: ContactCase, patterns: dict[str, MarkedPattern]) -> np.ndarray:
    """The nearest-neighbour distances of one replication's patterns."""
    if case is ContactCase.PPP_TO_MHC:
        source, target = patterns["source"], patterns["target"]
        return nn_distances_cross(source, PointLabel.PARENT, target, PointLabel.MHC)
    pat = patterns["pattern"]
    if case is ContactCase.PPP_TO_PPP:
        return nn_distances_within(pat, PointLabel.PARENT)
    if case is ContactCase.MHC_TO_MHC:
        return nn_distances_within(pat, PointLabel.MHC)
    return nn_distances_cross(pat, PointLabel.CMHC, pat, PointLabel.MHC)


@dataclass
class ComparisonReport:
    """Analytic curve, pooled empirical distances, and their sup distance for
    one experiment."""

    config: ExperimentConfig
    analytic: CdfCurve
    empirical: EmpiricalDistribution
    sup_distance: float

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "seed_scheme": SEED_SCHEME,
            "sup_distance": self.sup_distance,
            "empirical": {
                "pooled_samples": self.empirical.n,
                "replications": self.config.replications,
                "min": float(self.empirical.samples[0]),
                "max": float(self.empirical.samples[-1]),
                "F_hat": [float(v) for v in self.empirical.cdf(self.analytic.radii)],
            },
            "analytic": self.analytic.to_dict(),
        }


def pooled_distances(
    config: ExperimentConfig, on_pattern: PatternSink | None = None
) -> EmpiricalDistribution:
    """Generate the patterns each case calls for and pool their
    nearest-neighbour distances across replications.

    ``on_pattern`` receives every generated pattern (replication index, role,
    pattern) — used for optional pattern dumps. A replication with too few
    points raises :class:`InsufficientDataError` naming its index.
    """
    chunks: list[np.ndarray] = []
    for rep in range(config.replications):
        patterns = replication_patterns(config, rep)
        try:
            chunks.append(_case_distances(config.case, patterns))
        except InsufficientDataError as exc:
            raise InsufficientDataError(f"replication {rep} failed: {exc}") from exc
        if on_pattern is not None:
            for role, pattern in patterns.items():
                on_pattern(rep, role, pattern)
    return empirical_cdf(np.concatenate(chunks))


def run_experiment(
    config: ExperimentConfig, on_pattern: PatternSink | None = None
) -> ComparisonReport:
    """Pool nearest-neighbour distances as :func:`pooled_distances` does and
    compare them against the analytic curve."""
    emp = pooled_distances(config, on_pattern)
    eta = RetentionFunction(config.case, config.params)
    grid = config.r_grid()
    # F at the lens breakpoints as well: interpolating across a kink of F
    # between two grid radii would dominate the sup distance
    curve = contact_cdf(eta, grid, config.abs_tol, breakpoints=True)
    sup = ks_sup_distance(emp, curve)
    return ComparisonReport(
        config=config,
        analytic=curve.restricted(grid),
        empirical=emp,
        sup_distance=sup,
    )
