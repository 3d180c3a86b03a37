#!/usr/bin/env python3
"""matern-contact benchmark: one command for every end-to-end and per-layer
metric.

    python3 perfbench/run.py --workload compare-small --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and README.md): compare-small, compare-large,
analytic-sweep. Each runs a fixed list of ``matern_contact.cli.main``
invocations in one process, built from the package source under ``src/`` of
the checkout this file sits in. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones; ``--smoke`` shrinks every size and keeps
the code path and checks. The last stdout line is one JSON object; a
readable summary goes to stderr and the full record to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = {False: 7, True: 2}  # fresh interpreters per run, by --smoke
TIME_LIMIT_S = 170.0  # whole run, set-up included

def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def measure_setup(repeats: int, deadline: float) -> list[tuple[float, float]]:
    """(seconds to import the CLI and finish one trivial invocation, in a
    fresh interpreter; scale to reference seconds from the calibration
    kernel runs just before and after it), for probes run one after another."""
    import calibrate

    values = []
    calibrate.kernel_seconds()  # warm-up
    before = calibrate.kernel_seconds()
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src")],
            stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()),
            check=True,
            text=True,
        )
        after = calibrate.kernel_seconds()
        values.append((float(out.stdout), calibrate.factor(before, after)))
        before = after
    return values


def summary(result: dict, metrics: dict) -> str:
    lines = [
        f"workload {result['workload']} seed {result['seed']}: "
        f"{result['passes']} timed passes, {result['work_per_pass']} {result['work_unit']} per pass",
        f"  attempted {result['attempted']}  failed {result['failed']}  "
        f"ops_failed_ratio {result['ops_failed_ratio']:.4g}",
    ]
    for key in ("pass_s", "cpu_s", "setup_s", "wall_s", "cpu_wall_s", "setup_wall_s", "kernel_s"):
        values = result.get(f"{key}_values")
        if values:
            q = result[f"{key}_quartiles"] = quartiles(values)
            lines.append(f"  {key:<12} n={len(values):<3} q1 {q[0]:.4f}  median {q[1]:.4f}  q3 {q[2]:.4f}")
    for name, m in metrics.items():
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "matern_contact" / "cli.py").is_file():
        return fail(f"no package source at {ROOT / 'src' / 'matern_contact'}", 2)
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.SIZES:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.SIZES)}", 2)

    setup = []
    try:
        if not args.trace:
            setup = measure_setup(SETUP_REPEATS[args.smoke], deadline)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), args.workload,
             str(args.seed), str(args.seconds), str(args.trace), str(int(args.smoke))],
            stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()),
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        return fail(f"{exc.cmd[1]} exceeded the {TIME_LIMIT_S:g} s run limit", 1)
    except subprocess.CalledProcessError as exc:
        return fail(f"set-up probe exited with {exc.returncode}", 1)
    if proc.returncode != 0:
        return fail(f"worker exited with {proc.returncode}", 1)
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    result["ops_failed_ratio"] = result["failed"] / result["attempted"]
    if args.trace:
        metrics = result["layers"]
    else:
        result["setup_wall_s_values"] = [wall for wall, _ in setup]
        result["setup_s_values"] = [wall * scale for wall, scale in setup]
        result["setup_s"] = statistics.median(result["setup_s_values"])
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        metrics = {m["name"]: {"value": result[m["name"]], "unit": m["unit"]} for m in declared}
    print(summary(result, metrics), file=sys.stderr)
    detail = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.parent.mkdir(parents=True, exist_ok=True)
    detail.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
