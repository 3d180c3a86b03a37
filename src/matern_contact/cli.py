"""Command-line driver: analytic curves, simulation, comparison reports, and
intensity checks.

Every command-line decision has one home. ``CONFIG_FLAGS`` declares each
config flag: its config key, its check, its help text and its parser
options. The defaults that help shows come from ``ExperimentConfig`` and
``CASE_THRESHOLDS``. ``COMMANDS`` holds each subcommand's handler and help.
The patterns of a replication come from ``estimate.replication_patterns``
for every command that simulates.

Exit codes: 0 ok, 1 comparison threshold exceeded, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .analytic import (
    ContactCase,
    ProcessParams,
    QuadratureError,
    RetentionFunction,
    contact_cdf,
    default_r_grid,
    mhc_intensity,
)
from .estimate import ExperimentConfig, pooled_distances, replication_patterns, run_experiment
from .simulate import CapacityError, PointLabel, WindowFloorError, dump_pattern

__all__ = ["main"]

# Default sup-distance gates. The sup distances measured at lambda_p = 1 and
# delta = 0.5 and 1 (20 replications of a 100x100 torus, see the README) are
# 0.002 for ppp-ppp and at most 0.007 for mhc-mhc, 0.007 for ppp-mhc and 0.017
# for cmhc-mhc, and over lambda_p in {0.5, 1, 2} and delta in {0.25, ..., 1.25}
# at most 0.011, 0.013 and 0.021. The gates sit 3 to 9 times above these: they
# leave room for the noise of smaller runs and act as regression gates for the
# implementation, not as statements about the approximation.
CASE_THRESHOLDS = {
    ContactCase.PPP_TO_PPP: 0.01,
    ContactCase.MHC_TO_MHC: 0.035,
    ContactCase.PPP_TO_MHC: 0.055,
    ContactCase.CMHC_TO_MHC: 0.15,
}


class UsageError(Exception):
    pass


def _real(v) -> bool:
    # compared exactly, so nan, inf and an int too large for a float all fail
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    return number and abs(v) <= sys.float_info.max


def _positive(v) -> bool:
    return _real(v) and v > 0


def _non_negative(v) -> bool:
    return _real(v) and v >= 0


def _integer(least: int):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least


CASES = [c.value for c in ContactCase]
GATES = ", ".join(f"{case.value} {gate:g}" for case, gate in CASE_THRESHOLDS.items())
FLOAT = {"type": float}
INT = {"type": int}

# flag -> key of the config mapping (ExperimentConfig.to_dict's keys, with the
# r_grid block spread out), help text, parser options, what the value must be
# and the test of that; the help text gains the key's default where it has one
CONFIG_FLAGS = {
    "--case": (
        "case", "source->target pair", {"choices": CASES},
        f"one of {', '.join(CASES)}", lambda v: v in CASES + [None],
    ),
    "--lambda": ("lambda_p", "parent intensity", FLOAT, "a finite number > 0", _positive),
    "--delta": (
        "delta", "hard-core distance(s); several values run a sweep", {**FLOAT, "nargs": "+"},
        "finite numbers >= 0",
        lambda v: isinstance(v, list) and v != [] and all(map(_non_negative, v)),
    ),
    "--window": (
        "window", "window sides W [H]", {**FLOAT, "nargs": "+", "metavar": "SIDE"},
        "one or two finite sides > 0",
        lambda v: isinstance(v, list) and len(v) in (1, 2) and all(map(_positive, v)),
    ),
    "--reps": ("replications", "replications", INT, "an integer >= 1", _integer(1)),
    "--seed": ("seed", "base RNG seed", INT, "an integer >= 0", _integer(0)),
    "--rmin": (
        "r_grid.min", "radius grid start (default: lower support)", FLOAT,
        "a finite number >= 0", lambda v: v is None or _non_negative(v),
    ),
    "--rmax": (
        "r_grid.max", "radius grid end (default: lower support + 4 mean target spacings)",
        FLOAT, "a finite number >= 0", lambda v: v is None or _non_negative(v),
    ),
    "--points": ("r_grid.points", "radius grid size", INT, "an integer >= 2", _integer(2)),
    "--tol": (
        "abs_tol", "quadrature absolute tolerance", FLOAT, "a finite number > 0", _positive
    ),
    "--threshold": (
        "threshold", f"sup-distance gate for compare (defaults per case: {GATES})", FLOAT,
        "a finite number", lambda v: v is None or _real(v),
    ),
}


def _flat(data: dict) -> dict:
    """The mapping with its r_grid block spread out into dotted keys."""
    flat = dict(data)
    grid = flat.pop("r_grid", {})
    if not isinstance(grid, dict):
        raise UsageError(f"config key 'r_grid' must be an object, got {grid!r}")
    flat.update((f"r_grid.{key}", value) for key, value in grid.items())
    return flat


def _defaults() -> dict:
    """The config mapping no flag or file has set: ExperimentConfig's
    defaults with lambda_p = delta = 1, no case and the case's own
    threshold."""
    default = ExperimentConfig(ContactCase.PPP_TO_PPP, ProcessParams(1.0, 1.0))
    return {**_flat(default.to_dict()), "case": None, "threshold": None}


def _load_config_file(path: Path) -> dict:
    """A config file's mapping; a compare report gives its first config with
    the delta of every report."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "reports" in data:
        try:
            configs = [report["config"] for report in data["reports"]]
            data = {**configs[0], "delta": [config["delta"] for config in configs]}
        except (TypeError, KeyError, IndexError):
            raise UsageError(f"{path}: a report needs a config in each entry") from None
    if not isinstance(data, dict):
        raise UsageError(f"{path}: a config file holds a JSON object, got {data!r}")
    return _flat(data)


def _resolve(ns: argparse.Namespace) -> dict:
    """flag > config file > :func:`_defaults`."""
    data = _defaults()
    if ns.config is not None:
        data.update(_load_config_file(ns.config))
    for flag, (key, *_) in CONFIG_FLAGS.items():
        if getattr(ns, flag[2:]) is not None:
            data[key] = getattr(ns, flag[2:])
    unknown = sorted(set(data) - {key for key, *_ in CONFIG_FLAGS.values()})
    if unknown:
        raise UsageError(f"unknown config key(s) {', '.join(map(repr, unknown))}")
    if _real(data["delta"]):
        data["delta"] = [data["delta"]]
    for flag, (key, _, _, what, test) in CONFIG_FLAGS.items():
        if not test(data[key]):
            value = data[key]
            raise UsageError(f"{flag} (config key {key!r}) must be {what}, got {value!r}")
    data["window"] = [data["window"][0], data["window"][-1]]  # one side: a square
    return data


def _require_case(data: dict) -> ContactCase:
    """The case of a command that needs one, checked against every delta
    before the first one runs."""
    if data["case"] is None:
        raise UsageError("--case is required for this command")
    case = ContactCase(data["case"])
    if case is ContactCase.CMHC_TO_MHC and 0 in data["delta"]:
        raise UsageError(
            "--delta 0 with --case cmhc-mhc: thinning at delta 0 removes no point, "
            "so there is no removed observer"
        )
    return case


def _check_file_names(data: dict, *paths: Path | None) -> None:
    """Per-delta files carry the delta as ``{delta:g}``, so deltas that print
    alike would overwrite each other's files in ``paths``, the per-delta
    outputs a command was given: refuse them before any run."""
    tags = [f"{delta:g}" for delta in data["delta"]]
    clashing = [delta for delta, tag in zip(data["delta"], tags) if tags.count(tag) > 1]
    if clashing and any(path is not None for path in paths):
        raise UsageError(
            f"--delta {' '.join(map(repr, clashing))}: these deltas print alike "
            "in the per-delta file names and would overwrite each other's files"
        )


def _out_path(base: Path | None, delta: float, many: bool) -> Path | None:
    if base is None or not many:
        return base
    return base.with_name(f"{base.stem}_delta{delta:g}{base.suffix}")


def _emit(text: str, path: Path | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _grid(data: dict, case: ContactCase, params: ProcessParams) -> np.ndarray:
    """The report radii of one delta, or a usage error that names their flags."""
    points, r_min, r_max = (data[f"r_grid.{key}"] for key in ("points", "min", "max"))
    try:
        return default_r_grid(case, params, points, r_min=r_min, r_max=r_max)
    except ValueError as exc:
        raise UsageError(
            f"--rmin/--rmax with --delta {params.delta:g}: {exc} "
            "(--rmin defaults to the lower support)"
        ) from None


def _configs(data: dict, case: ContactCase) -> list[ExperimentConfig]:
    """One config per delta, each with its radius grid checked, all before
    the first one runs."""
    grid = {key: data[f"r_grid.{key}"] for key in ("min", "max", "points")}
    sides = " ".join(f"{side:g}" for side in data["window"])
    configs = []
    for delta in data["delta"]:
        mapping = {**data, "case": case.value, "delta": delta, "r_grid": grid}
        try:
            configs.append(ExperimentConfig.from_dict(mapping))
        except CapacityError as exc:
            flags = f"--lambda {data['lambda_p']:g} --window {sides}"
            raise UsageError(f"{flags}: {exc}") from None
        except WindowFloorError as exc:
            raise UsageError(f"--window {sides} --delta {delta:g}: {exc}") from None
        _grid(data, case, configs[-1].params)
    return configs


def _csv(header: str, *columns: list) -> str:
    rows = [header] + [",".join(map(repr, row)) for row in zip(*columns)]
    return "\n".join(rows) + "\n"


def cmd_analytic(data: dict, ns: argparse.Namespace) -> int:
    _check_file_names(data, ns.out)
    case = _require_case(data)
    # no config: the window and the replications play no part here
    params = [ProcessParams(data["lambda_p"], delta) for delta in data["delta"]]
    grids = [_grid(data, case, p) for p in params]
    for p, grid in zip(params, grids):
        curve = contact_cdf(RetentionFunction(case, p), grid, data["abs_tol"]).to_dict()
        if ns.format == "json":
            head = {"case": case.value, "lambda_p": p.lambda_p, "delta": p.delta}
            text = json.dumps({**head, **curve}, sort_keys=True, indent=2)
        else:
            text = _csv("r,F,abs_error", curve["radii"], curve["F"], curve["abs_error"])
        _emit(text, _out_path(ns.out, p.delta, len(params) > 1))
    return 0


def _make_sink(dump_dir: Path | None, case: ContactCase, params: ProcessParams):
    if dump_dir is None:
        return None
    dump_dir.mkdir(parents=True, exist_ok=True)

    def sink(rep: int, role: str, pattern) -> None:
        name = f"{case.value}_delta{params.delta:g}_rep{rep:03d}_{role}.txt"
        dump_pattern(pattern, dump_dir / name, params)

    return sink


def cmd_simulate(data: dict, ns: argparse.Namespace) -> int:
    _check_file_names(data, ns.out, ns.dump_patterns)
    case = _require_case(data)
    configs = _configs(data, case)
    many = len(configs) > 1
    for config in configs:
        delta = config.params.delta
        sink = _make_sink(ns.dump_patterns, case, config.params)
        start = time.perf_counter()
        empirical = pooled_distances(config, on_pattern=sink)
        radii = config.r_grid()
        f_hat, n = empirical.cdf(radii).tolist(), empirical.n
        if ns.format == "json":
            table = {"config": config.to_dict(), "radii": radii.tolist(), "F_hat": f_hat}
            text = json.dumps({**table, "pooled_samples": n}, sort_keys=True, indent=2)
        else:
            text = _csv("r,F_hat,n", radii.tolist(), f_hat, [n] * len(f_hat))
        _emit(text, _out_path(ns.out, delta, many))
        print(
            f"simulate {case.value} delta={delta:g}: {n} pooled distances "
            f"({time.perf_counter() - start:.2f} s)",
            file=sys.stderr,
        )
    return 0


def cmd_compare(data: dict, ns: argparse.Namespace) -> int:
    _check_file_names(data, ns.dump_patterns)
    case = _require_case(data)
    threshold = data["threshold"]
    if threshold is None:
        threshold = CASE_THRESHOLDS[case]
    entries = []
    failed = False
    for config in _configs(data, case):
        delta = config.params.delta
        sink = _make_sink(ns.dump_patterns, case, config.params)
        start = time.perf_counter()
        report = run_experiment(config, on_pattern=sink)
        entry = report.to_dict()
        entry["config"]["threshold"] = threshold
        entry["within_threshold"] = bool(report.sup_distance <= threshold)
        entries.append(entry)
        failed = failed or report.sup_distance > threshold
        print(
            f"compare {case.value} delta={delta:g}: sup_distance="
            f"{report.sup_distance:.5f} threshold={threshold:g} "
            f"({time.perf_counter() - start:.2f} s)",
            file=sys.stderr,
        )
    _emit(json.dumps({"reports": entries}, sort_keys=True, indent=2), ns.out)
    return 1 if failed else 0


def cmd_density(data: dict, ns: argparse.Namespace) -> int:
    # density counts the MHC points of mhc-mhc's patterns, so the same window
    # floor applies; it writes no radii, so --rmin and --rmax play no part
    radii_unset = {"r_grid.min": None, "r_grid.max": None}
    configs = _configs({**data, **radii_unset}, ContactCase.MHC_TO_MHC)
    rows = ["delta analytic_intensity mc_intensity mc_stderr"]
    for config in configs:
        params, window = config.params, config.window
        densities = []
        for rep in range(config.replications):
            pattern = replication_patterns(config, rep)["pattern"]
            densities.append(pattern.count(PointLabel.MHC) / window.area)
        densities_arr = np.asarray(densities)
        se = (
            float(densities_arr.std(ddof=1) / np.sqrt(len(densities_arr)))
            if len(densities_arr) > 1
            else float("nan")
        )
        rows.append(
            f"{params.delta:g} {mhc_intensity(params):.6f} "
            f"{float(densities_arr.mean()):.6f} {se:.6f}"
        )
    _emit("\n".join(rows) + "\n", ns.out)
    return 0


# subcommand -> handler and help text
COMMANDS = {
    "analytic": (cmd_analytic, "write analytic CDF curve(s), one per delta"),
    "simulate": (cmd_simulate, "run seeded experiments and write empirical CDF(s)"),
    "compare": (cmd_compare, "full analytic-vs-simulation pipeline with threshold gate"),
    "density": (cmd_density, "print closed-form thinned intensity next to its MC estimate"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matern-contact",
        description=(
            "Contact-distance distributions for Matern type-II hard-core "
            "point processes: analytic curves, simulation, and comparison."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = _defaults()
    for name, (_, summary) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag, (key, text, options, *_) in CONFIG_FLAGS.items():
            if defaults[key] is not None:
                shown = " ".join(f"{v:g}" for v in np.atleast_1d(defaults[key]))
                text = f"{text} (default {shown})"
            command.add_argument(flag, help=text, **options)
        command.add_argument("--out", type=Path, help="output path (default: stdout)")
        command.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="curve output format (default %(default)s)",
        )
        command.add_argument(
            "--dump-patterns", type=Path, help="directory for per-replication pattern dumps"
        )
        command.add_argument(
            "--config",
            type=Path,
            help="JSON config file (or a compare report); explicit flags override it",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        data = _resolve(ns)
        return COMMANDS[ns.command][0](data, ns)
    except (UsageError, ValueError, OSError, KeyError, QuadratureError) as exc:
        # a quadrature stalls only on a tolerance below what doubles resolve,
        # and a replication with too few points raises InsufficientDataError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
