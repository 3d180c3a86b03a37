"""Empirical nearest-neighbour distances, step CDFs, and the analytic versus
Monte-Carlo comparison pipeline.

Nearest-neighbour distances on the torus come from scipy's periodic k-d tree,
queried on every core unless :func:`pooled_distances` has set the thread to
one, and equal a brute-force minimum-image scan bit for bit whatever the core
count. They keep the pattern's (spatial) point order.

:func:`replication_patterns` is the one recipe for the patterns of a
replication: the seeds of ``SEED_SCHEME`` and the thinning each case calls
for. :func:`pooled_distances` and the command line's ``density`` both use it.
The former runs two or more replications on two workers, the calling thread
and one helper thread (the lane), each taking whole replications in turn;
:func:`run_experiment` hands it the analytic curve as one more task. A single
replication runs on the calling thread, with the lane taking the odd row
bands of its thinning. A pattern sink is called by whichever worker ran the
replication, so from two threads and in no fixed replication order.
Wall-clock times stay out of everything here, so that reports of the same
config and seed are byte-identical.

Nearest-neighbour samples from one realisation are spatially correlated, so
the sup distance reported here is a descriptive statistic checked against
fixed thresholds, never a formal hypothesis test.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .analytic import (
    CdfCurve,
    ContactCase,
    ProcessParams,
    RetentionFunction,
    _check_case,
    contact_cdf,
    default_r_grid,
    # unused here, but perfbench's tracer wraps estimate.extend_curve
    extend_curve,  # noqa: F401
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

if TYPE_CHECKING:
    from concurrent.futures import Executor

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


def empirical_cdf(samples) -> EmpiricalDistribution:
    """Sorted copy of the samples wrapped for step-function evaluation."""
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size == 0:
        raise InsufficientDataError("no samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return EmpiricalDistribution(arr)


# the NN query threads of the thread that runs a replication; only
# pooled_distances sets them
_query_threads = threading.local()


def _query_workers() -> int:
    """scipy query threads: every core, unless :func:`pooled_distances` has
    set this thread to one while the other thread runs a replication too."""
    return getattr(_query_threads, "workers", -1)


# The first NN query of a point searches out to this many mean target
# spacings only, which prunes most of the tree walk; the few points with no
# target that close are queried again without a bound.
NN_BOUND_SPACINGS = 2.0


def _nearest(tree, queries: np.ndarray, k: int | list[int], window: Window) -> np.ndarray:
    """One distance per query: ``tree.query``'s to the nearest tree point
    (``k=1``) or to the second nearest (``k=[2]``), searched out to
    :data:`NN_BOUND_SPACINGS` first. A point found inside the bound is the
    one an unbounded search finds, at the same distance, so the result
    equals the unbounded query's to the bit."""
    workers = _query_workers()
    bound = NN_BOUND_SPACINGS * math.sqrt(window.area / tree.n)
    dist = tree.query(queries, k=k, distance_upper_bound=bound, workers=workers)[0].ravel()
    miss = np.isinf(dist)
    if miss.any():  # speed guard
        dist[miss] = tree.query(queries[miss], k=k, workers=workers)[0].ravel()
    return dist


def nn_distances_within(pattern: MarkedPattern, label: PointLabel) -> np.ndarray:
    """Toroidal distance from each ``label`` point to its nearest other point
    carrying the same label (query threads: :func:`_query_workers`)."""
    idx = pattern.indices_of(label)
    if len(idx) < 2:
        raise InsufficientDataError(
            f"need >= 2 points labelled {PointLabel(label).name}, have {len(idx)}"
        )
    tree = _periodic_tree(pattern.x[idx], pattern.y[idx], pattern.window)
    # the nearest hit of each point is itself, at distance 0
    return _nearest(tree, tree.data, [2], pattern.window)


def nn_distances_cross(
    source: MarkedPattern,
    source_label: PointLabel,
    target: MarkedPattern,
    target_label: PointLabel,
) -> np.ndarray:
    """Toroidal distance from each source-labelled point to the nearest
    target-labelled point (query threads: :func:`_query_workers`). Both
    patterns must live on the same window; one pattern needs disjoint labels,
    or each point would be its own neighbour."""
    if source.window != target.window:
        raise ValueError("source and target patterns live on different windows")
    if source is target and source_label == target_label:
        raise ValueError("source and target are the same points; use nn_distances_within")
    s_idx = source.indices_of(source_label)
    t_idx = target.indices_of(target_label)
    if len(s_idx) == 0:
        raise InsufficientDataError("source has no points with the requested label")
    if len(t_idx) == 0:
        raise InsufficientDataError("target has no points with the requested label")
    tree = _periodic_tree(target.x[t_idx], target.y[t_idx], target.window)
    queries = np.column_stack((source.x[s_idx], source.y[s_idx]))
    return _nearest(tree, queries, 1, target.window)


# The sup distance's first stage reads F at one distinct sample in
# SUP_STRIDE, at evenly spaced ranks, and at SUP_GRID_MAX + 1 samples at most
SUP_STRIDE = 32
SUP_GRID_MAX = 4096
# F is monotone up to rounding: by construction where it is read from the
# hazard table, and as tested where cmhc-mhc reads its truncated closed form
# below delta. A bin whose bound falls short of the largest gap by less than
# this is searched all the same
SUP_SLACK = 1e-14


def ks_sup_distance(emp: EmpiricalDistribution, curve: CdfCurve) -> tuple[float, float]:
    """Two-sided sup distance between the step CDF and the analytic curve,
    sup over r of |F_hat(r) - F(r)|, with F read from the curve's own table
    (:meth:`CdfCurve.cdf`) at any radius, inside the curve's grid or not.

    F is continuous and F_hat a step function, so the sup is attained at a
    distinct sample x, against F_hat(x) or its left limit F_hat(x-), and
    equals the largest of these gaps over every distinct sample. It is taken
    in two stages, with the same result to the bit:

    1. F at a grid of distinct samples at evenly spaced ranks
       (:data:`SUP_STRIDE`, :data:`SUP_GRID_MAX`). F is monotone, so the gap
       at a sample between two grid samples x_lo < x < x_hi is at most
       max(F_hat(x_hi-) - F(x_lo), F(x_hi) - F_hat(x_lo)).
    2. F at every sample of the bins whose bound, plus :data:`SUP_SLACK` for
       rounding in F, reaches the largest gap at the grid samples.

    Returns the sup and the smallest sample at which it is attained.
    """
    x = emp.samples
    # the last copy of each distinct sample, F_hat there and its left limit
    last = np.flatnonzero(np.append(x[1:] != x[:-1], True))
    radii = x[last]
    at_most = (last + 1) / emp.n
    below = np.append(0.0, at_most[:-1])

    def gaps(at: np.ndarray, f: np.ndarray) -> np.ndarray:
        return np.maximum(at_most[at] - f, f - below[at])

    m = len(radii)
    bins = min(SUP_GRID_MAX, max(1, m // SUP_STRIDE))
    edges = np.unique(np.linspace(0, m - 1, bins + 1).astype(np.intp))
    f = curve.cdf(radii[edges])
    edge_gaps = gaps(edges, f)
    lo, hi = edges[:-1], edges[1:]
    bound = np.maximum(below[hi] - f[:-1], f[1:] - at_most[lo])
    searched = (hi - lo > 1) & (bound + SUP_SLACK >= edge_gaps.max())
    # the samples strictly inside the searched bins
    step = np.zeros(m + 1, dtype=np.intp)
    step[lo[searched] + 1] += 1
    step[hi[searched]] -= 1
    inside = np.flatnonzero(np.cumsum(step[:-1]))
    at = np.concatenate([edges, inside])
    found = np.concatenate([edge_gaps, gaps(inside, curve.cdf(radii[inside]))])
    sup = float(found.max())
    return sup, float(radii[at[found == sup]].min())


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
        _check_case(self.case, self.params)
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


def replication_patterns(
    config: ExperimentConfig, rep: int, executor: Executor | None = None
) -> dict[str, MarkedPattern]:
    """The patterns replication ``rep`` of ``config`` generates, by role.

    Parent pattern ``i`` of the replication is drawn from
    ``SeedSequence((config.seed, rep, i))``, as ``SEED_SCHEME`` states.
    ppp-ppp uses one unthinned pattern, ppp-mhc an unthinned source (i = 0)
    and a thinned target (i = 1), drawn in that order, and mhc-mhc and
    cmhc-mhc one thinned pattern (i = 0). ``executor``, when given, runs
    half of the thinning's row bands (:func:`thin_mhc_type2`); the patterns
    are the same, to the bit, without it.
    """
    case, params = config.case, config.params

    def parents(index: int) -> MarkedPattern:
        return sample_ppp(params.lambda_p, config.window, (config.seed, rep, index))

    if case is ContactCase.PPP_TO_PPP:
        return {"pattern": parents(0)}
    if case is ContactCase.PPP_TO_MHC:
        return {"source": parents(0), "target": thin_mhc_type2(parents(1), params.delta, executor)}
    return {"pattern": thin_mhc_type2(parents(0), params.delta, executor)}


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
    one experiment, with the smallest sample radius at which the sup is
    attained."""

    config: ExperimentConfig
    analytic: CdfCurve
    empirical: EmpiricalDistribution
    sup_distance: float
    sup_radius: float

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "seed_scheme": SEED_SCHEME,
            "sup_distance": self.sup_distance,
            "sup_radius": self.sup_radius,
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
    nearest-neighbour distances across replications, in replication order.

    Two or more replications run on two workers: the calling thread and the
    lane, one helper thread living for this call. Each worker takes the next
    whole replication (draw, thin, search) until none is left. A replication
    queries on one core, as the other worker is busy too; the last one
    queries on every core. A single replication runs on the calling thread,
    which queries on every core, while the lane takes the odd row bands of
    its large patterns (:func:`thin_mhc_type2`). So it starts a thread only
    when one of its patterns has two or more bands.

    ``on_pattern`` receives every generated pattern (replication index, role,
    pattern), used for optional pattern dumps, from the worker that ran the
    replication, right after its distances: roles in
    :func:`replication_patterns` order, replications in no fixed order and
    from two threads, which the sink must allow. A replication with too few
    points raises :class:`InsufficientDataError` naming its index. Of several
    failures, a sink's error counting as its replication's, the lowest is
    raised, once every replication below it has reached the sink.
    """
    return _pooled(config, on_pattern)[0]


def _pooled(
    config: ExperimentConfig,
    on_pattern: PatternSink | None,
    then: Callable[[], object] | None = None,
) -> tuple[EmpiricalDistribution, object]:
    """:func:`pooled_distances`, and the result of ``then``, run as one more
    task after the last replication by whichever worker is free first. The
    first failing task, in task order, is raised; ``then`` fails last."""
    reps = config.replications
    tasks = iter(range(reps + (then is not None)))
    take = threading.Lock()
    results: list = [None] * (reps + 1)  # each replication's distances, then then()'s result
    failed: dict[int, Exception] = {}
    halted = False

    def replication(rep: int) -> np.ndarray:
        _query_threads.workers = -1 if rep + 1 == reps else 1
        try:
            # a single replication is all the caller runs: the lane helps thin it
            patterns = replication_patterns(config, rep, lane if reps == 1 else None)
            try:
                distances = _case_distances(config.case, patterns)
            except InsufficientDataError as exc:
                raise InsufficientDataError(f"replication {rep} failed: {exc}") from exc
        finally:
            del _query_threads.workers
        if on_pattern is not None:
            for role, pattern in patterns.items():
                on_pattern(rep, role, pattern)
        return distances

    def work() -> None:
        # every task below a failed one has been taken, so stopping here
        # still finds the first failure
        while not (halted or failed):
            with take:
                task = next(tasks, None)
            if task is None:
                return
            try:
                results[task] = replication(task) if task < reps else then()
            except Exception as exc:
                failed[task] = exc
                return

    # imported here: concurrent.futures is ~10 ms of the package's import
    # time, and the analytic side never pools
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as lane:
        helper = lane.submit(work) if reps > 1 else None
        try:
            work()
        finally:
            halted = True
        if helper is not None:
            helper.result()
    if failed:
        raise failed[min(failed)]
    return empirical_cdf(np.concatenate(results[:reps])), results[reps]


def run_experiment(
    config: ExperimentConfig, on_pattern: PatternSink | None = None
) -> ComparisonReport:
    """Pool nearest-neighbour distances as :func:`pooled_distances` does,
    ``on_pattern`` called from either thread as there, and compare them
    against the analytic curve, built as the task after the last
    replication."""

    def build() -> CdfCurve:
        eta = RetentionFunction(config.case, config.params)
        return contact_cdf(eta, config.r_grid(), config.abs_tol)

    emp, curve = _pooled(config, on_pattern, build)
    sup, radius = ks_sup_distance(emp, curve)
    return ComparisonReport(
        config=config, analytic=curve, empirical=emp, sup_distance=sup, sup_radius=radius
    )
