"""Measurement child: runs one workload's passes in a fresh interpreter (so
its peak RSS belongs to this workload alone) and prints one JSON line.

Usage (started by run.py): worker.py ROOT WORKLOAD SEED SECONDS TRACE SMOKE

A run is: one untimed check pass (traced, with replication-0 capture and all
correctness checks; its outputs are the reference bytes), then timed passes
until SECONDS is used up. With TRACE=1 the timed passes alternate untraced
and traced, so the per-layer numbers and the tracing overhead come from the
same run.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import multiprocessing
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibrate
import checks
import tracing
import workloads

MIN_PASSES = 3  # timed passes per run (pairs of passes with tracing on)

# per-layer count metrics named other than their tracer counter
COUNT_ALIASES = {"estimate.pooled_samples": "estimate.empirical_cdf.samples"}
WORK_COUNTER = {"parents": "simulate.sample_ppp.points", "curve_points": "analytic.contact_cdf.radii"}


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    def __init__(self, mc, workload: workloads.Workload, seed: int):
        self.mc = mc
        self.workload = workload
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: list[tuple[int, str] | None] = []

    def fail(self, where: str, message: str) -> None:
        self.failures.append(f"{where}: {message}")
        print(f"FAIL {where}: {message}", file=sys.stderr)

    def invoke(self, argv) -> tuple[int, str]:
        """One in-process CLI call; returns (exit code, stdout text)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.mc.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    def check_pass(self) -> tracing.Tracer:
        """Untimed traced pass with every correctness check; sets the
        reference outputs and returns the tracer holding its counts."""
        tracer = tracing.Tracer(self.mc)
        capture = checks.Capture(self.mc)
        for i, argv in enumerate(self.workload.invocations):
            self.attempted += 1
            capture.clear()
            tracer.invocation = i
            where = f"check pass, invocation {i} ({' '.join(argv[:3])})"
            try:
                with tracer.active(), tracing.patched(capture.targets):
                    code, text = self.invoke(argv)
                if argv[0] == "analytic":
                    checks.check_analytic_output(argv, code, text)
                else:
                    checks.check_compare_invocation(self.mc, argv, code, text, capture, self.rng)
            except Exception as exc:  # a failed invocation must not stop the run
                self.fail(where, f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                self.reference.append(None)
                continue
            self.reference.append((code, text))
        capture.clear()
        return tracer

    def timed_pass(self, label: str, tracer: tracing.Tracer | None = None,
                   kernels: list[float] | None = None) -> dict:
        """One pass over the invocation list, timed invocation by invocation;
        outputs are compared with the reference after the clocks stop.

        With ``kernels`` (the calibration runs so far), the kernel runs after
        every invocation, untimed, and each invocation's seconds are also
        scaled to reference seconds by the kernel runs bracketing it."""
        results = []
        totals = dict.fromkeys(("wall", "cpu", "ref_wall", "ref_cpu"), 0.0)
        gc.collect()
        with tracer.active() if tracer else contextlib.nullcontext():
            for argv in self.workload.invocations:
                self.attempted += 1
                if tracer:
                    tracer.invocation += 1
                cpu0 = cpu_seconds()
                t0 = time.perf_counter()
                try:
                    results.append(self.invoke(argv))
                except Exception as exc:  # counted as a failed operation
                    results.append(exc)
                wall = time.perf_counter() - t0
                cpu = cpu_seconds() - cpu0
                totals["wall"] += wall
                totals["cpu"] += cpu
                if kernels is not None:
                    kernels.append(calibrate.kernel_seconds())
                    scale = calibrate.factor(kernels[-2], kernels[-1])
                    totals["ref_wall"] += wall * scale
                    totals["ref_cpu"] += cpu * scale
        if multiprocessing.active_children():
            # RUSAGE_CHILDREN counts only children that have ended and been
            # waited for: a live pool's CPU would be missing from cpu_s
            self.fail(label, "child processes still running after the pass")
        out_bytes = 0
        for i, (ref, got) in enumerate(zip(self.reference, results)):
            where = f"{label}, invocation {i}"
            if isinstance(got, Exception):
                self.fail(where, f"{type(got).__name__}: {got}")
            elif ref is None or got != ref:
                self.fail(where, "output differs from the check pass")
            else:
                out_bytes += len(got[1].encode())
        return {**totals, "output_bytes": out_bytes}


def main(argv: list[str]) -> int:
    root, name, seed, seconds, trace, smoke = argv
    seed, seconds, trace, smoke = int(seed), float(seconds), trace == "1", smoke == "1"
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    import matern_contact as mc
    import matern_contact.cli  # noqa: F401  (the package does not import its CLI)

    if Path(mc.__file__).resolve().parent != src / "matern_contact":
        print(f"error: imported {mc.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    workload = workloads.build(name, seed, smoke)
    runner = Runner(mc, workload, seed)

    check_tracer = runner.check_pass()
    work = check_tracer.counts[WORK_COUNTER[workload.work_unit]]
    tracer = tracing.Tracer(mc) if trace else None
    kernels = None  # calibration kernel runs between untraced invocations
    if not trace:
        calibrate.kernel_seconds()  # warm-up
        kernels = [calibrate.kernel_seconds()]
    deadline = time.perf_counter() + seconds
    plain: list[dict] = []
    traced: list[dict] = []
    per_pass: list[tuple[dict, dict]] = []  # traced passes: (self ns, counts)
    while True:
        plain.append(runner.timed_pass(f"pass {len(plain)}", kernels=kernels))
        if tracer:
            tracer.reset_pass()
            traced.append(runner.timed_pass(f"traced pass {len(traced)}", tracer))
            per_pass.append((dict(tracer.self_ns), dict(tracer.counts)))
        step = statistics.median(p["wall"] for p in plain) + (
            statistics.median(p["wall"] for p in traced) if tracer
            else len(workload.invocations) * kernels[-1])
        if len(plain) >= MIN_PASSES and time.perf_counter() + step > deadline:
            break
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    walls = [p["wall"] for p in plain]
    result = {
        "workload": name,
        "seed": seed,
        "invocations": [list(a) for a in workload.invocations],
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "work_unit": workload.work_unit,
        "work_per_pass": work,
        "passes": len(plain),
        "wall_s_values": walls,
        "cpu_wall_s_values": [p["cpu"] for p in plain],
        "peak_rss_mb": peak_kb / 1024.0,
        "check_pass_counts": dict(check_tracer.counts),
    }
    if kernels:
        result["kernel_s_values"] = kernels
        result["pass_s_values"] = [p["ref_wall"] for p in plain]
        result["cpu_s_values"] = [p["ref_cpu"] for p in plain]
        result["pass_s"] = statistics.median(result["pass_s_values"])
        result["cpu_s"] = statistics.median(result["cpu_s_values"])
        result["work_per_s"] = work / result["pass_s"]
    if tracer:
        declared = json.loads((Path(root) / "BENCHMARK.json").read_text())["per_layer"]
        result["layers"] = layer_metrics(declared, per_pass, traced, plain, tracer,
                                         check_tracer, runner)
        result["traced_passes"] = len(traced)
        spans = Path(root) / ".perfbench_out" / f"{name}-seed{seed}.spans.npz"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(root))
    print(json.dumps(result))
    return 0


def layer_metrics(declared, per_pass, traced, plain, tracer, check_tracer, runner) -> dict:
    """Every per-layer metric declared in BENCHMARK.json, derived from its
    name: ``<span>.s`` is the median self time per pass, ``<span>.ns_per_<item>``
    the median span time per item, a ``count`` metric a counter (counts must
    repeat exactly), and the rest the output size and tracing overhead."""
    counts = per_pass[0][1]
    for i, (_, other) in enumerate(per_pass):
        if other != counts or other != dict(check_tracer.counts):
            runner.fail(f"traced pass {i}", "deterministic counts differ between passes")

    def span_ns(span: str) -> float:
        return statistics.median(p[0].get(span, 0) for p in per_pass)

    traced_s = statistics.median(p["wall"] for p in traced)
    other = {
        "cli.output_bytes": traced[0]["output_bytes"],
        "trace.pass_s": traced_s,
        "trace.overhead_s": traced_s - statistics.median(p["wall"] for p in plain),
    }
    out = {}
    for metric in declared:
        name = metric["name"]
        if name.endswith(".s"):
            value = span_ns(name[:-2]) / 1e9
        elif ".ns_per_" in name:
            span = name.split(".ns_per_")[0]
            items = counts.get(tracer.item_counter(span), 0)
            value = span_ns(span) / items if items else 0.0
        elif metric["unit"] == "count":
            value = counts.get(COUNT_ALIASES.get(name, name), 0)
        else:
            value = other[name]
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
