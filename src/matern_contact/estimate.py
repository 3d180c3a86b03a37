"""Empirical nearest-neighbour distances, step CDFs, and the analytic versus
Monte-Carlo comparison pipeline.

Nearest-neighbour distances on the torus come from a plain k-d tree, and
from scipy's periodic one (:func:`_periodic_tree`, built here and nowhere
else) only for the queries near a seam and the few with no target within
the first search's reach (:func:`_nearest`). They are queried on every core
unless :func:`_sweep` has set the thread to one, equal a brute-force
minimum-image scan bit for bit whatever the core count, and keep the
pattern's (spatial) point order.

:func:`replication_patterns` is the one recipe for the patterns of a
replication: the seeds of ``SEED_SCHEME`` and the thinning each case calls
for. :func:`_sweep` and the command line's ``density`` both use it. The
former runs the configs of a sweep, one per delta of the command line's
``compare`` and ``simulate``, on one pool: with two or more replications per
config, the calling thread and one helper thread (the lane) take whole
replications and then each config's analytic curve in sweep order, and
whichever first sees the next config done builds and delivers its report
while the other already takes the next config's replications. With single
replications the calling thread runs every task, with the lane taking the
odd row bands of its thinning. :func:`pooled_distances` and
:func:`run_experiment` are sweeps of one config. A pattern sink is called
by whichever worker ran the replication, so from two threads and in no fixed
replication order.
Wall-clock times stay out of everything here, so that reports of the same
config and seed are byte-identical.

Nearest-neighbour samples from one realisation are spatially correlated, so
the sup distance reported here is a descriptive statistic checked against
fixed thresholds, never a formal hypothesis test.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .analytic import (
    CdfCurve,
    ContactCase,
    ProcessParams,
    RetentionFunction,
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
    _wrapped,
    sample_ppp,
    thin_mhc_type2,
)

if TYPE_CHECKING:
    from concurrent.futures import Executor

    from scipy.spatial import cKDTree

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
        """F_hat(x) = (#samples <= x) / n.

        Raises:
            ValueError: at a NaN radius.
        """
        if np.isnan(x).any():
            raise ValueError("F_hat is not defined at a NaN radius")
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


# the NN query threads of the thread that runs a replication; only _sweep
# sets them
_query_threads = threading.local()


def _query_workers() -> int:
    """scipy query threads: every core, unless :func:`_sweep` has set this
    thread to one while the other thread runs a task too."""
    return getattr(_query_threads, "workers", -1)


# A query's first search looks only this many mean target spacings out, or
# half the window's shorter side if that is less: the reach. It prunes most of
# the tree walk; the few queries with no target that close are searched again
# without a bound.
NN_BOUND_SPACINGS = 2.0
# a plain-tree hit is final only below its query's edge distance less this
# many ulps of the window's longer side, and the strip reaches as far past
# the reach: a margin for rounding in a wrapped difference fl(fl(q - t) +- W).
# In round-to-nearest the wrap is exact (Sterbenz) and fl(q - t) rounds to no
# double past an edge, so no case is known that needs it; it costs a few
# strip queries
SEAM_SLACK_ULPS = 4


def _edge_distance(points: np.ndarray, sides: tuple[float, float], slack: float) -> np.ndarray:
    """Distance from each :func:`_wrapped` row to the nearest window edge,
    less ``slack``."""
    x, y = points[:, 0], points[:, 1]
    edge = np.subtract(sides[0], x)
    np.minimum(edge, x, out=edge)
    np.minimum(edge, y, out=edge)
    np.minimum(edge, np.subtract(sides[1], y), out=edge)
    return np.subtract(edge, slack, out=edge)


def _periodic_tree(x: np.ndarray, y: np.ndarray, window: Window) -> cKDTree:
    """Periodic k-d tree over the :func:`_wrapped` points (the tree rejects a
    coordinate equal to a side); row ``k`` of ``tree.data`` is point ``k``.
    :func:`_nearest` builds one for its strip along the seams and one for
    the queries its first, plain search misses.

    Sliding midpoint splits and uncompacted node boxes build faster and serve
    points spread over the whole window as well. ``scipy.spatial`` is imported
    here, not at module level: it is most of the package's import time, and
    the analytic side never builds a tree.
    """
    from scipy.spatial import cKDTree

    sides = (window.width, window.height)
    return cKDTree(_wrapped(x, y, sides), boxsize=sides, balanced_tree=False, compact_nodes=False)


def _nearest(
    targets: np.ndarray, window: Window, queries: np.ndarray | None = None
) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Toroidal distance from each query to its nearest target or, with no
    queries, from each target to its nearest other target; the rows are
    :func:`_wrapped` points. Also returns how many queries each step
    settled: the plain tree, the strip and the fallback.

    1. Every query searches a plain k-d tree of the targets, out to the
       reach (:data:`NN_BOUND_SPACINGS`, at most half the shorter side). A
       hit nearer than its query's edge distance, less the slack
       (:data:`SEAM_SLACK_ULPS`), is final.
    2. The other hits search a periodic tree (:func:`_periodic_tree`) of the
       strip, the targets within the reach plus the slack of an edge, on one
       thread, and keep the smaller of the two distances.
    3. The misses, with no target within the reach, search a periodic tree
       of every target without a bound.

    The distances equal the periodic tree's everywhere, to the bit, on two
    facts. A hit's per-axis gaps are at most its distance, so at most half a
    side, and scipy's minimum-image code leaves them unwrapped: a plain and a
    periodic tree compute the same bits for that target. And any target
    whose nearest image wraps lies at least the query's edge distance away,
    and within that distance of an edge itself, so it is either farther than
    a final hit or in the strip. Without queries, a query sent to the strip
    lies in it too, so that its second-nearest strip point is the nearest
    other one.
    """
    from scipy.spatial import cKDTree

    within = queries is None
    if within:
        queries = targets
    k = [2] if within else 1  # the nearest hit of each target is itself, at 0
    workers = _query_workers()
    sides = (window.width, window.height)
    reach = min(NN_BOUND_SPACINGS * math.sqrt(window.area / len(targets)), 0.5 * min(sides))
    slack = SEAM_SLACK_ULPS * math.ulp(max(sides))
    plain = cKDTree(targets, balanced_tree=False, compact_nodes=False)
    dist = plain.query(queries, k=k, distance_upper_bound=reach, workers=workers)[0].ravel()
    del plain  # freed before the seam step
    edge = _edge_distance(queries, sides, slack)
    seam = np.flatnonzero(~(dist < edge))
    del edge
    found = np.isfinite(dist[seam])
    near_seam, missed = seam[found], seam[~found]
    if near_seam.size:
        strip = targets[_edge_distance(targets, sides, slack) <= reach]
        tree = _periodic_tree(strip[:, 0], strip[:, 1], window)
        wrapped = tree.query(queries[near_seam], k=k, distance_upper_bound=reach, workers=1)[0]
        dist[near_seam] = np.minimum(dist[near_seam], wrapped.ravel())
    if missed.size:
        tree = _periodic_tree(targets[:, 0], targets[:, 1], window)
        dist[missed] = tree.query(queries[missed], k=k, workers=workers)[0].ravel()
    return dist, (len(dist) - len(seam), len(near_seam), len(missed))


def _labelled_points(pattern: MarkedPattern, label: PointLabel) -> np.ndarray:
    """The pattern's ``label`` points as :func:`_wrapped` rows, in its order."""
    idx = pattern.indices_of(label)
    return _wrapped(pattern.x[idx], pattern.y[idx], (pattern.window.width, pattern.window.height))


def nn_distances_within(pattern: MarkedPattern, label: PointLabel) -> np.ndarray:
    """Toroidal distance from each ``label`` point to its nearest other point
    carrying the same label (query threads: :func:`_query_workers`)."""
    points = _labelled_points(pattern, label)
    if len(points) < 2:
        raise InsufficientDataError(
            f"need >= 2 points labelled {PointLabel(label).name}, have {len(points)}"
        )
    return _nearest(points, pattern.window)[0]


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
    queries = _labelled_points(source, source_label)
    targets = _labelled_points(target, target_label)
    if len(queries) == 0:
        raise InsufficientDataError("source has no points with the requested label")
    if len(targets) == 0:
        raise InsufficientDataError("target has no points with the requested label")
    return _nearest(targets, target.window, queries)[0]


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
    # the last copy of each distinct sample and F_hat there. A sweep builds a
    # report while its other worker runs a replication, so few arrays as
    # long as the samples are made: F_hat's left limit is read from F_hat
    last = np.flatnonzero(np.append(x[1:] != x[:-1], True))
    radii = x[last]
    last += 1
    at_most = np.divide(last, emp.n)
    del last

    def below(at: np.ndarray) -> np.ndarray:
        """F_hat's left limit at the distinct samples ``at``."""
        return np.where(at > 0, at_most[at - 1], 0.0)

    def gaps(at: np.ndarray, f: np.ndarray) -> np.ndarray:
        return np.maximum(at_most[at] - f, f - below(at))

    m = len(radii)
    bins = min(SUP_GRID_MAX, max(1, m // SUP_STRIDE))
    edges = np.unique(np.linspace(0, m - 1, bins + 1).astype(np.intp))
    f = curve.cdf(radii[edges])
    edge_gaps = gaps(edges, f)
    lo, hi = edges[:-1], edges[1:]
    bound = np.maximum(below(hi) - f[:-1], f[1:] - at_most[lo])
    searched = (hi - lo > 1) & (bound + SUP_SLACK >= edge_gaps.max())
    # the samples strictly inside the searched bins
    step = np.zeros(m + 1, dtype=np.intp)
    step[lo[searched] + 1] += 1
    step[hi[searched]] -= 1
    inside = np.flatnonzero(np.cumsum(step, out=step)[:-1])
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
        # the counts are integers, numpy's too, and are kept as Python ints
        for name in ("replications", "seed", "r_points"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.r_points < 2:
            raise ValueError(f"r_points must be >= 2, got {self.r_points}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol!r}")
        # a config that cannot run fails here and not in its first
        # replication or its curve: the radius grid (which checks the case)
        # must be valid, and the patterns every replication generates must fit
        self.r_grid()
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
    nearest-neighbour distances across replications, in replication order:
    a sweep (:func:`_sweep`) of this one config, without its curve.

    ``on_pattern`` receives every generated pattern (replication index, role,
    pattern), used for optional pattern dumps, from the worker that ran the
    replication, right after its distances: roles in
    :func:`replication_patterns` order, replications in no fixed order and
    from two threads, which the sink must allow. A replication with too few
    points raises :class:`InsufficientDataError` naming its index. Of several
    failures, a sink's error counting as its replication's, the lowest is
    raised, once every replication below it has reached the sink.
    """
    return _single(config, on_pattern, curves=False)


def run_experiment(
    config: ExperimentConfig, on_pattern: PatternSink | None = None
) -> ComparisonReport:
    """Pool nearest-neighbour distances as :func:`pooled_distances` does,
    ``on_pattern`` called from either thread as there, and compare them
    against the analytic curve, built as the task after the last
    replication: a sweep (:func:`_sweep`) of this one config."""
    return _single(config, on_pattern, curves=True)


def _single(config: ExperimentConfig, on_pattern: PatternSink | None, curves: bool):
    """The one result of a :func:`_sweep` of ``config``."""
    out = []
    _sweep([(config, on_pattern)], curves, lambda _, result: out.append(result))
    return out[0]


def _sweep(
    jobs: Sequence[tuple[ExperimentConfig, PatternSink | None]],
    curves: bool,
    deliver: Callable[[int, object], None],
) -> None:
    """Run the configs of ``jobs``, each paired with its pattern sink (see
    :func:`pooled_distances`), on one pool, and hand each config's result to
    ``deliver(job index, result)`` in job order: its
    :class:`ComparisonReport` with ``curves``, else its pooled
    :class:`EmpiricalDistribution`.

    The tasks, in sweep order, are each config's replications and then, with
    ``curves``, its analytic curve. When every config has two or more
    replications, two workers take them in that order: the calling thread
    and the lane, one helper thread living for this call. Each replication
    runs whole (draw, thin, search) and queries on one core, as the other
    worker is busy too, but for the sweep's last replication, which queries
    on every core. A config's replication 0 starts only once the previous
    config's has finished, so their searches end in config order. Otherwise
    the calling thread runs every task alone, with every core for its
    queries, while the lane takes the odd row bands of each large pattern
    (:func:`thin_mhc_type2`): two whole large replications at once would
    double the peak memory. So it starts a thread only when one of its
    patterns has two or more bands.

    After each task a worker takes the delivery lock and, while the next
    undelivered config has no task left, builds its result, delivers it and
    drops it: whichever worker first sees the next config done builds and
    delivers it, one call at a time, while the other takes the next config's
    tasks. Failures are keyed (config, step), which sorts in task order, a
    config's build or delivery failing as step ``replications + curves``.
    The first failure in that order is raised once every task below it has
    finished and every config below its own has been delivered. A build
    frees its config's parts, so after a failed build or delivery no worker
    builds again.
    """
    steps = [config.replications + curves for config, _ in jobs]  # each job's tasks
    queue = ((job, step) for job, n in enumerate(steps) for step in range(n))
    final = (len(jobs) - 1, jobs[-1][0].replications - 1)  # the sweep's last replication
    paired = all(config.replications > 1 for config, _ in jobs)
    results: list = [[None] * n for n in steps]
    left = list(steps)  # each job's unfinished tasks
    take = threading.Lock()  # the queue
    first_done = [threading.Event() for _ in jobs]  # each job's replication 0
    delivered = 0
    order = threading.Lock()  # the counts in left, builds and deliveries
    failed: dict[tuple[int, int], Exception] = {}
    halted = False

    def run(job: int, step: int):
        """Task (job, step)'s result: a replication's distances or a curve."""
        config, on_pattern = jobs[job]
        if step == config.replications:
            eta = RetentionFunction(config.case, config.params)
            return contact_cdf(eta, config.r_grid(), config.abs_tol)
        try:
            if step == 0 and job:
                first_done[job - 1].wait()
            _query_threads.workers = 1 if paired and (job, step) != final else -1
            try:
                patterns = replication_patterns(config, step, None if paired else lane)
                distances = _case_distances(config.case, patterns)
            except InsufficientDataError as exc:
                raise InsufficientDataError(f"replication {step} failed: {exc}") from exc
            finally:
                del _query_threads.workers
            if on_pattern is not None:
                for role, pattern in patterns.items():
                    on_pattern(step, role, pattern)
            return distances
        finally:
            if step == 0:
                first_done[job].set()

    def finish(job: int):
        """The job's result, built from its tasks' results, which it frees:
        the other worker runs a replication meanwhile, so each replication's
        distances go before the sort, and the unsorted pool before the sup."""
        parts, results[job] = results[job], None
        curve = parts.pop() if curves else None
        pooled = np.concatenate(parts)
        parts.clear()
        emp = empirical_cdf(pooled)
        del pooled
        if not curves:
            return emp
        sup, radius = ks_sup_distance(emp, curve)
        return ComparisonReport(
            config=jobs[job][0], analytic=curve, empirical=emp, sup_distance=sup, sup_radius=radius
        )

    def work() -> None:
        nonlocal delivered
        # every task below a failed one has been taken, so stopping here
        # still finds the first failure
        while not (halted or failed):
            with take:
                task = next(queue, None)
            if task is None:
                return
            job, step = task
            try:
                results[job][step] = run(job, step)
            except Exception as exc:
                failed[task] = exc
                return
            with order:
                left[job] -= 1
                # a build frees its job's parts (None), so none is built twice
                # when its build or delivery has failed
                while delivered < len(jobs) and not left[delivered] and results[delivered]:
                    try:
                        deliver(delivered, finish(delivered))
                    except Exception as exc:
                        failed[delivered, steps[delivered]] = exc
                        return
                    delivered += 1

    # imported here: concurrent.futures is ~10 ms of the package's import
    # time, and the analytic side never pools
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as lane:
        helper = lane.submit(work) if paired else None
        try:
            work()
        finally:
            halted = True
        if helper is not None:
            helper.result()
    if failed:
        raise failed[min(failed)]
