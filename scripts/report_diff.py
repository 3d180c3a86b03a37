#!/usr/bin/env python3
"""Compare the command line's outputs between two source trees.

Runs a fixed list of ``matern-contact`` invocations once per tree, each in a
fresh ``python -W error`` interpreter with ``PYTHONPATH`` set to that tree and
``PYTHONDONTWRITEBYTECODE=1``, and prints per invocation the two exit codes,
whether the two outputs are byte-identical, and the largest differences in
``F``, ``abs_error`` and ``sup_distance``. Exits 1 if an exit code,
``within_threshold``, a config echo, the radii, ``F_hat``,
``pooled_samples``, a plain-text output (``density``'s table) or the
pattern dumps differ, and 0 otherwise. An invocation with
``--dump-patterns`` dumps into a fresh temporary directory per tree, and the
two must hold the same file names with the same bytes ("dumps"). The last
line sums up every invocation: how many outputs, dumps included, are
byte-identical, and the largest differences over them all.

The invocations: the benchmark's argvs at seed 11 (read through
``perfbench/workloads.py``), the argv of acceptance criterion 11, ``analytic
--format json`` for every case at delta 1e-3, 0.5, 0.75 and 1, one
``analytic --format json`` per hard-core case at an exposure past its
saturation (``analytic._SATURATED_EXPOSURE``), so that the dense curves'
table is gated too, one ``simulate --format json``, one ``density``, one
cmhc-mhc ``compare`` of four replications with pattern dumps, so that both
pooling threads write them, one ppp-mhc ``compare`` with pattern dumps, so
that every label (PARENT, MHC, CMHC) and every role (pattern, source,
target) of the dump writer is gated, an mhc-mhc ``compare`` and a ppp-mhc
``simulate --format json`` over two deltas of three replications each, so
that one pool runs both deltas and each delta's reports, outputs and dumps
are gated, and two ``compare`` runs on windows so small that many
nearest-neighbour queries reach the periodic strip along the seams.

    python scripts/report_diff.py PARENT/src src
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# outputs compared as numbers (largest absolute difference) and as values
# that must match exactly: a compare report's config echo is "config", an
# analytic curve's is its case, lambda_p and delta; CSV columns map to the
# same names, and an output in neither format is "text"
NUMERIC = ("F", "abs_error", "sup_distance")
EXACT = ("within_threshold", "config", "case", "lambda_p", "delta", "radii", "F_hat",
         "pooled_samples", "text")
CSV_COLUMNS = {"r": "radii", "F": "F", "abs_error": "abs_error", "F_hat": "F_hat",
               "n": "pooled_samples"}
# stands for the --dump-patterns directory in an argv; each tree gets its own
DUMPS = "DUMP_DIR"


def argvs() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # registered first: its dataclass looks its module up while it is built
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    out = [
        list(argv)
        for name in workloads.SIZES
        for argv in workloads.build(name, 11).invocations
    ]
    out.append(["compare", "--case", "ppp-ppp", "--window", "40", "--reps", "3",
                "--seed", "20260808", "--points", "80", "--threshold", "0.1"])
    for case in ("ppp-ppp", "mhc-mhc", "ppp-mhc", "cmhc-mhc"):
        out.append(["analytic", "--case", case, "--delta", "1e-3", "0.5", "0.75", "1",
                    "--format", "json"])
    for case, lam, deltas in (("mhc-mhc", "100", ["0.5", "1"]), ("ppp-mhc", "100", ["0.5", "1"]),
                              ("cmhc-mhc", "1e17", ["1"])):
        out.append(["analytic", "--case", case, "--lambda", lam, "--delta", *deltas,
                    "--format", "json"])
    out.append(["simulate", "--case", "mhc-mhc", "--delta", "0.5", "--window", "30",
                "--reps", "2", "--seed", "7", "--format", "json"])
    out.append(["density", "--delta", "0.5", "1", "--window", "30", "--reps", "3", "--seed", "7"])
    out.append(["compare", "--case", "cmhc-mhc", "--delta", "0.5", "--window", "30",
                "--reps", "4", "--seed", "7", "--dump-patterns", DUMPS])
    out.append(["compare", "--case", "ppp-mhc", "--delta", "0.5", "--window", "30",
                "--reps", "2", "--seed", "7", "--dump-patterns", DUMPS])
    out.append(["compare", "--case", "mhc-mhc", "--delta", "0.5", "1", "--window", "30",
                "--reps", "3", "--seed", "7", "--dump-patterns", DUMPS])
    out.append(["simulate", "--case", "ppp-mhc", "--delta", "0.5", "1", "--window", "30",
                "--reps", "3", "--seed", "7", "--format", "json"])
    out.append(["compare", "--case", "cmhc-mhc", "--delta", "1", "--window", "10",
                "--reps", "3", "--seed", "5"])
    out.append(["compare", "--case", "ppp-ppp", "--window", "6", "--reps", "3", "--seed", "5"])
    return out


def run(src: str, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one invocation against the tree ``src``."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "matern_contact.cli", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    return done.returncode, done.stdout


def _documents(text: str) -> list:
    """The JSON documents of an output, one after another, its CSV blocks as
    mappings of column name to values, or else its text."""
    text = text.strip()
    if text and not text.startswith(("{", "r,")):
        return [{"text": text}]
    if text.startswith("{"):
        decoder, docs, at = json.JSONDecoder(), [], 0
        while at < len(text):
            doc, at = decoder.raw_decode(text, at)
            docs.append(doc)
            at = len(text) - len(text[at:].lstrip())
        return docs
    docs = []
    for line in text.splitlines():
        cells = line.split(",")
        if cells[0] == "r":
            docs.append({CSV_COLUMNS[c]: [] for c in cells})
            names = [CSV_COLUMNS[c] for c in cells]
        elif docs:
            for name, cell in zip(names, cells):
                docs[-1][name].append(float(cell))
    return docs


def _collect(node, found: dict) -> None:
    """Append every value under a key of NUMERIC or EXACT to ``found``."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in NUMERIC:
                found.setdefault(key, []).extend(value if isinstance(value, list) else [value])
            elif key in EXACT:
                found.setdefault(key, []).append(value)
            if key not in EXACT:
                _collect(value, found)
    elif isinstance(node, list):
        for value in node:
            _collect(value, found)


def compare(parent: tuple[int, str], change: tuple[int, str]) -> dict:
    """The differences between two (exit code, stdout) results of one
    invocation: ``identical``, the largest absolute difference of each
    NUMERIC output (inf where their lengths differ), and ``mismatched``, the
    names of what must agree and does not."""
    found = []
    for _, text in (parent, change):
        values: dict = {}
        _collect(_documents(text), values)
        found.append(values)
    result = {"codes": (parent[0], change[0]), "identical": parent[1] == change[1]}
    mismatched = [] if parent[0] == change[0] else ["exit code"]
    for key in NUMERIC:
        a, b = (values.get(key, []) for values in found)
        if len(a) != len(b):
            result[key] = math.inf
        else:
            result[key] = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
    for key in EXACT:
        if found[0].get(key) != found[1].get(key):
            mismatched.append(key)
    result["mismatched"] = mismatched
    return result


def same_dumps(parent: Path, change: Path) -> bool:
    """Whether two pattern-dump directories hold the same file names with the
    same bytes (a missing directory holds none)."""

    def files(directory: Path) -> dict[str, bytes]:
        paths = directory.iterdir() if directory.is_dir() else ()
        return {path.name: path.read_bytes() for path in paths}

    return files(parent) == files(change)


def summary(results: list[dict]) -> str:
    """One line over the results of :func:`compare`: the byte-identical
    outputs, k of n, and the largest difference of each NUMERIC output."""
    identical = sum(result["identical"] for result in results)
    largest = {key: max((result[key] for result in results), default=0.0) for key in NUMERIC}
    return (
        f"summary: byte-identical outputs {identical} of {len(results)}, "
        f"max|dF| {largest['F']:.2e}, max|d abs_error| {largest['abs_error']:.2e}, "
        f"max|d sup| {largest['sup_distance']:.2e}"
    )


def main(args: list[str]) -> int:
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    results = []
    print("codes  identical  max|dF|  max|d abs_error|  max|d sup|  mismatched  argv")
    for argv in argvs():
        with tempfile.TemporaryDirectory() as tmp:
            dirs = [Path(tmp, "parent"), Path(tmp, "change")]
            result = compare(*(
                run(src, [str(dump) if arg == DUMPS else arg for arg in argv])
                for src, dump in zip(args, dirs)
            ))
            if DUMPS in argv and not same_dumps(*dirs):
                result["identical"] = False
                result["mismatched"].append("dumps")
        results.append(result)
        print(
            f"{result['codes'][0]}/{result['codes'][1]}  {result['identical']!s:9}  "
            f"{result['F']:.2e}  {result['abs_error']:.2e}  {result['sup_distance']:.2e}  "
            f"{','.join(result['mismatched']) or '-'}  {' '.join(argv)}",
            flush=True,
        )
    print(summary(results))
    return 1 if any(result["mismatched"] for result in results) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
