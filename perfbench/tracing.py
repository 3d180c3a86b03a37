"""In-memory span tracing around the package's public functions.

Functions are wrapped at the module attribute through which they are called:
``estimate`` and ``cli`` bind ``sample_ppp``, ``thin_mhc_type2``,
``contact_cdf`` and friends with ``from ... import``, so wrapping the defining
module alone would miss every call. The private ``_grid`` module is reached
only through ``simulate.thin_mhc_type2`` and ``estimate.nn_distances_*`` and is
measured inside those spans.

A span is (name, start ns, end ns, parent span, invocation id). Self time is a
span's duration minus the time its direct children take, their tracing
wrappers included; calls are strictly nested (one thread), so the wrapper
cost lands in no span's self time, only in the traced pass as a whole.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def bindings(mc) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every call site the workloads reach;
    ``mc`` is the imported ``matern_contact`` package."""
    analytic, cli, estimate = mc.analytic, mc.cli, mc.estimate
    return [
        (cli, "main", "cli.main"),
        (cli, "run_experiment", "estimate.run_experiment"),
        (cli, "contact_cdf", "analytic.contact_cdf"),
        (estimate, "sample_ppp", "simulate.sample_ppp"),
        (estimate, "thin_mhc_type2", "simulate.thin_mhc_type2"),
        (estimate, "nn_distances_within", "estimate.nn_distances_within"),
        (estimate, "nn_distances_cross", "estimate.nn_distances_cross"),
        (estimate, "empirical_cdf", "estimate.empirical_cdf"),
        (estimate, "ks_sup_distance", "estimate.ks_sup_distance"),
        (estimate, "contact_cdf", "analytic.contact_cdf"),
        (estimate, "extend_curve", "analytic.extend_curve"),
        (estimate.ComparisonReport, "to_dict", "estimate.ComparisonReport.to_dict"),
        (analytic.RetentionFunction, "__call__", "analytic.eta"),
        (analytic, "lens_symmetric", "geometry.lens_symmetric"),
        (analytic, "lens_asymmetric", "geometry.lens_asymmetric"),
    ]


def counters(mc) -> dict:
    """Per-span-name (count names, hook turning (args, result) into the
    counts); every count is deterministic for a given input. The first count
    is the span's item count, the denominator of its ``ns_per_<item>``."""
    mhc = mc.PointLabel.MHC
    return {
        "simulate.sample_ppp": (("points",), lambda a, r: (r.n,)),
        "simulate.thin_mhc_type2": (("parents", "survivors"), lambda a, r: (a[0].n, r.count(mhc))),
        "estimate.nn_distances_within": (("queries",), lambda a, r: (len(r),)),
        "estimate.nn_distances_cross": (("queries", "targets"), lambda a, r: (len(r), a[2].count(a[3]))),
        "estimate.empirical_cdf": (("samples",), lambda a, r: (r.n,)),
        "analytic.contact_cdf": (("radii",), lambda a, r: (len(r.radii),)),
        "analytic.eta": (("calls", "points"), lambda a, r: (1, np.size(a[1]))),
    }


@contextmanager
def patched(targets):
    """Replace ``owner.attr`` by ``make(name, original)`` for each
    (owner, attr, name, make) and restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, make in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Span recorder with per-pass self-time and count aggregation."""

    def __init__(self, mc):
        self._mc = mc
        self._counters = counters(mc)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_invocation = array("q")
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.invocation = -1
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def reset_pass(self) -> None:
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        count_names, count = self._counters.get(name, ((), None))
        count_keys = [f"{name}.{c}" for c in count_names]
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            # the whole wrapper, bookkeeping included, counts as child time
            # of the enclosing span, so no parent's self time carries it
            enter = clock()
            try:
                idx = len(self.span_start)
                self.span_name.append(nid)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_invocation.append(self.invocation)
                self.span_start.append(0)
                self.span_end.append(0)
                frame = [idx, 0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    self.span_start[idx] = start
                    self.span_end[idx] = end
                    self.self_ns[name] += end - start - frame[1]
                if count is not None:
                    counts = self.counts
                    for key, value in zip(count_keys, count(args, result)):
                        counts[key] += int(value)
                return result
            finally:
                if stack:
                    stack[-1][1] += clock() - enter

        traced.__wrapped__ = fn
        return traced

    def item_counter(self, span: str) -> str:
        """Name of the counter holding the items of ``span``."""
        return f"{span}.{self._counters[span][0][0]}"

    def active(self):
        """Context manager that installs the tracing wrappers."""
        return patched(
            (owner, attr, name, self._wrap)
            for owner, attr, name in bindings(self._mc)
        )

    def write(self, path: Path) -> None:
        """Write every recorded span as columns of an ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            invocation=np.frombuffer(self.span_invocation, dtype=np.int64),
        )
