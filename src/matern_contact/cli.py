"""Command-line driver: analytic curves, simulation, comparison reports, and
intensity checks.

Exit codes: 0 ok, 1 comparison threshold exceeded, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
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
from .estimate import ExperimentConfig, run_experiment
from .simulate import (
    CapacityError,
    WindowFloorError,
    dump_pattern,
    sample_ppp,
    thin_mhc_type2,
)

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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--case",
        choices=[c.value for c in ContactCase],
        help="source->target pair",
    )
    parser.add_argument(
        "--lambda",
        type=float,
        help="parent intensity (default 1.0)",
    )
    parser.add_argument(
        "--delta",
        type=float,
        nargs="+",
        help="hard-core distance(s); several values run a sweep (default 1.0)",
    )
    parser.add_argument(
        "--window",
        type=float,
        nargs="+",
        metavar="SIDE",
        help="window sides W [H] (default 100 100)",
    )
    parser.add_argument("--reps", type=int, help="replications (default 20)")
    parser.add_argument("--seed", type=int, help="base RNG seed (default 1)")
    parser.add_argument(
        "--rmin", type=float, help="radius grid start (default: lower support)"
    )
    parser.add_argument(
        "--rmax",
        type=float,
        help="radius grid end (default: lower support + 4 mean target spacings)",
    )
    parser.add_argument("--points", type=int, help="radius grid size (default 200)")
    parser.add_argument(
        "--tol", type=float, help="quadrature absolute tolerance (default 1e-9)"
    )
    parser.add_argument("--out", type=Path, help="output path (default: stdout)")
    parser.add_argument(
        "--format", choices=("csv", "json"), help="curve output format (default csv)"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        help=(
            "sup-distance gate for compare (defaults per case: ppp-ppp 0.01, "
            "mhc-mhc 0.035, ppp-mhc 0.055, cmhc-mhc 0.15)"
        ),
    )
    parser.add_argument(
        "--dump-patterns",
        dest="dump_patterns",
        type=Path,
        help="directory for per-replication pattern dumps",
    )
    parser.add_argument(
        "--config",
        type=Path,
        help="JSON config file (or a compare report); explicit flags override it",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matern-contact",
        description=(
            "Contact-distance distributions for Matern type-II hard-core "
            "point processes: analytic curves, simulation, and comparison."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("analytic", "write analytic CDF curve(s), one per delta"),
        ("simulate", "run seeded experiments and write empirical CDF(s)"),
        ("compare", "full analytic-vs-simulation pipeline with threshold gate"),
        ("density", "print closed-form thinned intensity next to its MC estimate"),
    ):
        _add_common(sub.add_parser(name, help=text))
    return parser


def _real(v) -> bool:
    # compared exactly, so nan, inf and an int too large for a float all fail
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    return number and abs(v) <= sys.float_info.max


def _positive(v) -> bool:
    return _real(v) and v > 0


def _integer(least: int):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least


CASES = [c.value for c in ContactCase]

# flag -> key of the config mapping (ExperimentConfig.to_dict's keys, with the
# r_grid block spread out), what its value must be, and the test of that
CONFIG_FLAGS = {
    "--case": ("case", f"one of {', '.join(CASES)}", lambda v: v in CASES + [None]),
    "--lambda": ("lambda_p", "a finite number > 0", _positive),
    "--delta": (
        "delta",
        "finite numbers >= 0",
        lambda v: isinstance(v, list) and v != [] and all(_real(d) and d >= 0 for d in v),
    ),
    "--window": (
        "window",
        "one or two finite sides > 0",
        lambda v: isinstance(v, list) and len(v) in (1, 2) and all(map(_positive, v)),
    ),
    "--reps": ("replications", "an integer >= 1", _integer(1)),
    "--seed": ("seed", "an integer >= 0", _integer(0)),
    "--rmin": ("r_grid.min", "a finite number", lambda v: v is None or _real(v)),
    "--rmax": ("r_grid.max", "a finite number", lambda v: v is None or _real(v)),
    "--points": ("r_grid.points", "an integer >= 2", _integer(2)),
    "--tol": ("abs_tol", "a finite number > 0", _positive),
    "--threshold": ("threshold", "a finite number", lambda v: v is None or _real(v)),
}


def _flat(data: dict) -> dict:
    """The mapping with its r_grid block spread out into dotted keys."""
    flat = dict(data)
    grid = flat.pop("r_grid", {})
    if not isinstance(grid, dict):
        raise UsageError(f"config key 'r_grid' must be an object, got {grid!r}")
    flat.update((f"r_grid.{key}", value) for key, value in grid.items())
    return flat


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
    """flag > config file > ExperimentConfig's default; lambda_p = delta = 1,
    no case and the case's own threshold are the command line's defaults."""
    default = ExperimentConfig(ContactCase.PPP_TO_PPP, ProcessParams(1.0, 1.0))
    data = {**_flat(default.to_dict()), "case": None, "threshold": None}
    if ns.config is not None:
        data.update(_load_config_file(ns.config))
    for flag, (key, _, _) in CONFIG_FLAGS.items():
        if getattr(ns, flag[2:]) is not None:
            data[key] = getattr(ns, flag[2:])
    unknown = sorted(set(data) - {key for key, _, _ in CONFIG_FLAGS.values()})
    if unknown:
        raise UsageError(f"unknown config key(s) {', '.join(map(repr, unknown))}")
    if _real(data["delta"]):
        data["delta"] = [data["delta"]]
    for flag, (key, what, test) in CONFIG_FLAGS.items():
        if not test(data[key]):
            value = data[key]
            raise UsageError(f"{flag} (config key {key!r}) must be {what}, got {value!r}")
    data["window"] = [data["window"][0], data["window"][-1]]  # one side: a square
    return data


def _require_case(data: dict) -> ContactCase:
    if data["case"] is None:
        raise UsageError("--case is required for this command")
    return ContactCase(data["case"])


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


def _configs(data: dict, case: ContactCase) -> list[ExperimentConfig]:
    """One config per delta, all checked before the first one runs."""
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
    return configs


def _curve_csv(radii, values, errors) -> str:
    lines = ["r,F,abs_error"]
    lines += [
        f"{float(r)!r},{float(v)!r},{float(e)!r}"
        for r, v, e in zip(radii, values, errors)
    ]
    return "\n".join(lines) + "\n"


def cmd_analytic(data: dict, ns: argparse.Namespace) -> int:
    case = _require_case(data)
    many = len(data["delta"]) > 1
    for delta in data["delta"]:
        # no config: the window and the replications play no part here
        params = ProcessParams(data["lambda_p"], delta)
        grid = default_r_grid(
            case,
            params,
            data["r_grid.points"],
            r_min=data["r_grid.min"],
            r_max=data["r_grid.max"],
        )
        curve = contact_cdf(RetentionFunction(case, params), grid, data["abs_tol"])
        if ns.format == "json":
            text = json.dumps(
                {
                    "case": case.value,
                    "lambda_p": params.lambda_p,
                    "delta": params.delta,
                    "radii": [float(v) for v in curve.radii],
                    "F": [float(v) for v in curve.values],
                    "abs_error": [float(v) for v in curve.abs_error],
                },
                sort_keys=True,
                indent=2,
            )
        else:
            text = _curve_csv(curve.radii, curve.values, curve.abs_error)
        _emit(text, _out_path(ns.out, delta, many))
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
    case = _require_case(data)
    configs = _configs(data, case)
    many = len(configs) > 1
    for config in configs:
        delta = config.params.delta
        sink = _make_sink(ns.dump_patterns, case, config.params)
        report = run_experiment(config, on_pattern=sink)
        radii = report.analytic.radii
        f_hat = report.empirical.cdf(radii)
        n = report.empirical.n
        if ns.format == "json":
            text = json.dumps(
                {
                    "config": config.to_dict(),
                    "radii": [float(v) for v in radii],
                    "F_hat": [float(v) for v in f_hat],
                    "pooled_samples": n,
                },
                sort_keys=True,
                indent=2,
            )
        else:
            lines = ["r,F_hat,n"]
            lines += [f"{float(r)!r},{float(v)!r},{n}" for r, v in zip(radii, f_hat)]
            text = "\n".join(lines) + "\n"
        _emit(text, _out_path(ns.out, delta, many))
        print(
            f"simulate {case.value} delta={delta:g}: {n} pooled distances "
            f"({report.runtime_seconds:.2f} s)",
            file=sys.stderr,
        )
    return 0


def cmd_compare(data: dict, ns: argparse.Namespace) -> int:
    case = _require_case(data)
    threshold = data["threshold"]
    if threshold is None:
        threshold = CASE_THRESHOLDS[case]
    entries = []
    failed = False
    for config in _configs(data, case):
        delta = config.params.delta
        sink = _make_sink(ns.dump_patterns, case, config.params)
        report = run_experiment(config, on_pattern=sink)
        entry = report.to_dict()
        entry["config"]["threshold"] = threshold
        entry["within_threshold"] = bool(report.sup_distance <= threshold)
        entries.append(entry)
        failed = failed or report.sup_distance > threshold
        print(
            f"compare {case.value} delta={delta:g}: sup_distance="
            f"{report.sup_distance:.5f} threshold={threshold:g} "
            f"({report.runtime_seconds:.2f} s)",
            file=sys.stderr,
        )
    _emit(json.dumps({"reports": entries}, sort_keys=True, indent=2), ns.out)
    return 1 if failed else 0


def cmd_density(data: dict, ns: argparse.Namespace) -> int:
    # density thins as mhc-mhc does, so the same window floor applies
    configs = _configs(data, ContactCase.MHC_TO_MHC)
    rows = ["delta analytic_intensity mc_intensity mc_stderr"]
    for config in configs:
        params, window = config.params, config.window
        densities = []
        for rep in range(config.replications):
            pattern = thin_mhc_type2(
                sample_ppp(params.lambda_p, window, (config.seed, rep, 0)),
                params.delta,
            )
            densities.append(pattern.count(1) / window.area)
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        data = _resolve(ns)
        command = {
            "analytic": cmd_analytic,
            "simulate": cmd_simulate,
            "compare": cmd_compare,
            "density": cmd_density,
        }[ns.command]
        return command(data, ns)
    except (UsageError, ValueError, OSError, KeyError, QuadratureError) as exc:
        # a quadrature stalls only on a tolerance below what doubles resolve
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a replication that failed on bad input is a usage error as well
        if not isinstance(exc.__cause__, ValueError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
