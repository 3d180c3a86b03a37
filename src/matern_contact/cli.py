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
    Window,
    WindowFloorError,
    _check_point_cap,
    _check_window_floor,
    dump_pattern,
    sample_ppp,
    thin_mhc_type2,
)

__all__ = ["main"]

DEFAULTS = {
    "lambda_p": 1.0,
    "delta": [1.0],
    "window": [100.0, 100.0],
    "reps": 20,
    "seed": 1,
    "points": 200,
    "tol": 1e-9,
    "format": "csv",
}

# Default sup-distance gates, set just above the measured systematic error of
# the analytic approximations at lambda_p = 1, delta ~ 1 (pooled over >= 20
# replications of a 100x100 torus), so they act as regression gates for the
# implementation rather than statements about the approximation itself. The
# removed-point observer case degrades sharply at small delta; sweeps there
# need an explicit --threshold.
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
        dest="lambda_p",
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
            "mhc-mhc 0.035, ppp-mhc 0.055, cmhc-mhc 0.15; the last degrades "
            "for delta well below 1)"
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


def _load_config_file(path: Path) -> dict:
    data = json.loads(Path(path).read_text())
    if "reports" in data:
        reports = data["reports"]
        if not reports:
            raise UsageError(f"{path}: report file has no reports")
        merged = dict(reports[0]["config"])
        merged["delta"] = [r["config"]["delta"] for r in reports]
        if "threshold" not in merged:
            thresholds = [r["config"].get("threshold") for r in reports]
            merged["threshold"] = thresholds[0]
        return merged
    return data


def _resolve(ns: argparse.Namespace) -> dict:
    """flag > config file > built-in default."""
    opts: dict = {}
    file_opts: dict = {}
    if ns.config is not None:
        raw = _load_config_file(ns.config)
        grid = raw.pop("r_grid", {})
        file_opts = {
            "case": raw.get("case"),
            "lambda_p": raw.get("lambda_p"),
            "delta": raw.get("delta"),
            "window": raw.get("window"),
            "reps": raw.get("replications"),
            "seed": raw.get("seed"),
            "rmin": grid.get("min"),
            "rmax": grid.get("max"),
            "points": grid.get("points"),
            "tol": raw.get("abs_tol"),
            "threshold": raw.get("threshold"),
        }
    for key in (
        "case",
        "lambda_p",
        "delta",
        "window",
        "reps",
        "seed",
        "rmin",
        "rmax",
        "points",
        "tol",
        "out",
        "format",
        "threshold",
        "dump_patterns",
    ):
        value = getattr(ns, key, None)
        if value is None:
            value = file_opts.get(key)
        if value is None:
            value = DEFAULTS.get(key)
        opts[key] = value

    if opts["delta"] is not None and np.ndim(opts["delta"]) == 0:
        opts["delta"] = [float(opts["delta"])]
    window = opts["window"]
    if len(window) == 1:
        window = [window[0], window[0]]
    if len(window) != 2:
        raise UsageError("--window takes one or two sides")
    opts["window"] = Window(window[0], window[1])
    if opts["reps"] < 1:
        raise UsageError("--reps must be >= 1")
    if opts["points"] < 2:
        raise UsageError("--points must be >= 2")
    if opts["tol"] <= 0:
        raise UsageError("--tol must be > 0")
    if any(d < 0 for d in opts["delta"]):
        raise UsageError("--delta must be >= 0")
    if opts["lambda_p"] <= 0:
        raise UsageError("--lambda must be > 0")
    return opts


def _require_case(opts: dict) -> ContactCase:
    if opts["case"] is None:
        raise UsageError("--case is required for this command")
    return ContactCase(opts["case"])


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


def _check_sizes(opts: dict, delta: float, thins: bool) -> None:
    """The point cap and, when the patterns are thinned, the window floor for
    one delta, reported against the flags that set them."""
    window = opts["window"]
    sides = f"{window.width:g} {window.height:g}"
    try:
        _check_point_cap(opts["lambda_p"], window)
        if thins:
            _check_window_floor(window, delta)
    except CapacityError as exc:
        flags = f"--lambda {opts['lambda_p']:g} --window {sides}"
        raise UsageError(f"{flags}: {exc}") from None
    except WindowFloorError as exc:
        raise UsageError(f"--window {sides} --delta {delta:g}: {exc}") from None


def _configs(opts: dict, case: ContactCase) -> list[ExperimentConfig]:
    """One config per delta, all checked before the first one runs."""
    configs = []
    for delta in opts["delta"]:
        _check_sizes(opts, delta, thins=case is not ContactCase.PPP_TO_PPP)
        configs.append(
            ExperimentConfig(
                case=case,
                params=ProcessParams(opts["lambda_p"], delta),
                window=opts["window"],
                replications=opts["reps"],
                seed=opts["seed"],
                r_min=opts["rmin"],
                r_max=opts["rmax"],
                r_points=opts["points"],
                abs_tol=opts["tol"],
            )
        )
    return configs


def _curve_csv(radii, values, errors) -> str:
    lines = ["r,F,abs_error"]
    lines += [
        f"{float(r)!r},{float(v)!r},{float(e)!r}"
        for r, v, e in zip(radii, values, errors)
    ]
    return "\n".join(lines) + "\n"


def cmd_analytic(opts: dict) -> int:
    case = _require_case(opts)
    many = len(opts["delta"]) > 1
    for delta in opts["delta"]:
        # no config: the window and the replications play no part here
        params = ProcessParams(opts["lambda_p"], delta)
        grid = default_r_grid(
            case, params, opts["points"], r_min=opts["rmin"], r_max=opts["rmax"]
        )
        curve = contact_cdf(RetentionFunction(case, params), grid, opts["tol"])
        if opts["format"] == "json":
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
        _emit(text, _out_path(opts["out"], delta, many))
    return 0


def _make_sink(opts: dict, case: ContactCase, params: ProcessParams):
    dump_dir: Path | None = opts["dump_patterns"]
    if dump_dir is None:
        return None
    dump_dir.mkdir(parents=True, exist_ok=True)

    def sink(rep: int, role: str, pattern) -> None:
        name = f"{case.value}_delta{params.delta:g}_rep{rep:03d}_{role}.txt"
        dump_pattern(pattern, dump_dir / name, params)

    return sink


def cmd_simulate(opts: dict) -> int:
    case = _require_case(opts)
    configs = _configs(opts, case)
    many = len(configs) > 1
    for config in configs:
        delta = config.params.delta
        sink = _make_sink(opts, case, config.params)
        report = run_experiment(config, on_pattern=sink)
        radii = report.analytic.radii
        f_hat = report.empirical.cdf(radii)
        n = report.empirical.n
        if opts["format"] == "json":
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
        _emit(text, _out_path(opts["out"], delta, many))
        print(
            f"simulate {case.value} delta={delta:g}: {n} pooled distances "
            f"({report.runtime_seconds:.2f} s)",
            file=sys.stderr,
        )
    return 0


def cmd_compare(opts: dict) -> int:
    case = _require_case(opts)
    threshold = opts["threshold"]
    if threshold is None:
        threshold = CASE_THRESHOLDS[case]
    entries = []
    failed = False
    for config in _configs(opts, case):
        delta = config.params.delta
        sink = _make_sink(opts, case, config.params)
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
    _emit(json.dumps({"reports": entries}, sort_keys=True, indent=2), opts["out"])
    return 1 if failed else 0


def cmd_density(opts: dict) -> int:
    for delta in opts["delta"]:
        _check_sizes(opts, delta, thins=True)
    rows = ["delta analytic_intensity mc_intensity mc_stderr"]
    for delta in opts["delta"]:
        params = ProcessParams(opts["lambda_p"], delta)
        densities = []
        for rep in range(opts["reps"]):
            pattern = thin_mhc_type2(
                sample_ppp(params.lambda_p, opts["window"], (opts["seed"], rep, 0)),
                params.delta,
            )
            densities.append(pattern.count(1) / opts["window"].area)
        densities_arr = np.asarray(densities)
        se = (
            float(densities_arr.std(ddof=1) / np.sqrt(len(densities_arr)))
            if len(densities_arr) > 1
            else float("nan")
        )
        rows.append(
            f"{delta:g} {mhc_intensity(params):.6f} "
            f"{float(densities_arr.mean()):.6f} {se:.6f}"
        )
    _emit("\n".join(rows) + "\n", opts["out"])
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        opts = _resolve(ns)
        command = {
            "analytic": cmd_analytic,
            "simulate": cmd_simulate,
            "compare": cmd_compare,
            "density": cmd_density,
        }[ns.command]
        return command(opts)
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
