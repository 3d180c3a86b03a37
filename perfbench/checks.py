"""Correctness checks, run untimed: output structure of every invocation, and
brute-force O(k*n) scans of replication 0 of every compare invocation.

The scans share no code with the package: plain minimum-image arithmetic
over every point, on a random subsample of k query points.
"""

from __future__ import annotations

import json

import numpy as np

SAMPLE = 64  # query points checked per captured call
# float64 elements per brute-force block: about 256 kB, so the scans' scratch
# stays far below the program's own memory and does not set peak RSS
CHUNK = 1 << 15
NN_RTOL = 1e-9


class CheckError(AssertionError):
    """A program output failed a benchmark correctness check."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _flag(argv, name: str) -> list[str]:
    """Values following ``--name`` in an argv list."""
    i = argv.index(name) + 1
    out = []
    while i < len(argv) and not argv[i].startswith("--"):
        out.append(argv[i])
        i += 1
    return out


def _check_curve(what: str, radii, values, errors, tol: float) -> None:
    radii, values, errors = (np.asarray(a, dtype=float) for a in (radii, values, errors))
    _require(radii.size >= 2 and np.all(np.diff(radii) > 0), f"{what}: radii not ascending")
    _require(np.all(np.diff(values) >= 0), f"{what}: CDF not monotone")
    _require(np.all((values >= 0) & (values <= 1)), f"{what}: CDF outside [0, 1]")
    _require(np.all((errors >= 0) & (errors <= tol)), f"{what}: abs_error above --tol {tol!r}")


def check_analytic_output(argv, code: int, text: str) -> None:
    """One CSV block (r,F,abs_error) per delta, each a valid CDF curve."""
    _require(code == 0, f"exit code {code}")
    deltas = _flag(argv, "--delta")
    points = int(_flag(argv, "--points")[0])
    tol = float(_flag(argv, "--tol")[0])
    blocks = text.split("r,F,abs_error\n")[1:]
    _require(len(blocks) == len(deltas), f"{len(blocks)} curves for {len(deltas)} deltas")
    for delta, block in zip(deltas, blocks):
        rows = np.array([line.split(",") for line in block.strip().splitlines()], dtype=float)
        _require(rows.shape == (points, 3), f"delta {delta}: curve shape {rows.shape}")
        _check_curve(f"delta {delta}", rows[:, 0], rows[:, 1], rows[:, 2], tol)


def check_compare_output(argv, code: int, text: str) -> dict:
    """Valid report per delta, echoing the invocation's config; exit 1 exactly
    when a sup distance exceeds its threshold. ``sup_distance`` itself is not
    gated (the analytic model error is known). Returns the per-delta
    ``empirical`` summaries in invocation order."""
    _require(code in (0, 1), f"exit code {code}")
    reports = json.loads(text)["reports"]
    deltas = [float(d) for d in _flag(argv, "--delta")]
    _require(len(reports) == len(deltas), f"{len(reports)} reports for {len(deltas)} deltas")
    case = _flag(argv, "--case")[0]
    side = float(_flag(argv, "--window")[0])
    for delta, report in zip(deltas, reports):
        cfg = report["config"]
        _require(
            (cfg["case"], cfg["delta"], cfg["window"], cfg["replications"], cfg["seed"])
            == (case, delta, [side, side], int(_flag(argv, "--reps")[0]),
                int(_flag(argv, "--seed")[0])),
            f"config echo mismatch: {cfg}",
        )
        ana = report["analytic"]
        _check_curve(f"{case} delta {delta}", ana["radii"], ana["F"], ana["abs_error"],
                     cfg["abs_tol"])
        emp = report["empirical"]
        f_hat = np.asarray(emp["F_hat"])
        _require(np.all(np.diff(f_hat) >= 0) and np.all((f_hat >= 0) & (f_hat <= 1)),
                 f"{case} delta {delta}: F_hat not a CDF")
        _require(emp["pooled_samples"] > 0 and 0 < emp["min"] <= emp["max"],
                 f"{case} delta {delta}: bad pooled sample summary")
        if case == "mhc-mhc":
            _require(emp["min"] > delta, f"hard core violated: min {emp['min']} <= {delta}")
        _require(report["within_threshold"] == (report["sup_distance"] <= cfg["threshold"]),
                 "threshold verdict inconsistent")
    exceeded = not all(r["within_threshold"] for r in reports)
    _require(code == (1 if exceeded else 0), f"exit code {code} with exceeded={exceeded}")
    return [r["empirical"] for r in reports]


def _min_image(a, b, period: float):
    d = np.abs(a - b)
    return np.minimum(d, period - d)


def _d2_blocks(qx, qy, tx, ty, width: float, height: float):
    """Yield (slice, squared-distance block) over the query points."""
    step = max(1, CHUNK // max(1, len(tx)))
    for lo in range(0, len(qx), step):
        sl = slice(lo, lo + step)
        dx = _min_image(qx[sl, None], tx[None, :], width)
        dy = _min_image(qy[sl, None], ty[None, :], height)
        yield sl, dx * dx + dy * dy


def check_thinning(parents, thinned, delta: float, rng) -> None:
    """Type-II labels of a random parent subsample against a full scan: a point
    survives iff its mark is the strict minimum within distance delta (ties
    broken by index)."""
    n = parents.n
    _require(thinned.n == n, "thinning changed the point count")
    _require(np.array_equal(thinned.x, parents.x) and np.array_equal(thinned.y, parents.y)
             and np.array_equal(thinned.mark, parents.mark),
             "thinning moved points or marks")
    w, h = parents.window.width, parents.window.height
    q = rng.choice(n, size=min(SAMPLE, n), replace=False)
    all_idx = np.arange(n)
    for sl, d2 in _d2_blocks(parents.x[q], parents.y[q], parents.x, parents.y, w, h):
        qi = q[sl]
        near = (d2 <= delta * delta) & (all_idx[None, :] != qi[:, None])
        mi = parents.mark[qi][:, None]
        mj = parents.mark[None, :]
        beats = (mj < mi) | ((mj == mi) & (all_idx[None, :] < qi[:, None]))
        expected = np.where(np.any(near & beats, axis=1), 2, 1)  # CMHC, MHC
        _require(np.array_equal(thinned.label[qi], expected),
                 f"thinning labels differ from brute force at {qi[thinned.label[qi] != expected]}")


def check_nn(source, source_label, target, target_label, result, rng) -> None:
    """NN distances of a random query subsample against a full scan over the
    target points; the same physical point is never its own neighbour."""
    s_idx = source.indices_of(source_label)
    t_idx = target.indices_of(target_label)
    _require(len(result) == len(s_idx), "one distance per source point expected")
    q = rng.choice(len(s_idx), size=min(SAMPLE, len(s_idx)), replace=False)
    w, h = source.window.width, source.window.height
    qx, qy = source.x[s_idx[q]], source.y[s_idx[q]]
    expected = np.empty(len(q))
    for sl, d2 in _d2_blocks(qx, qy, target.x[t_idx], target.y[t_idx], w, h):
        if source is target:
            d2[s_idx[q[sl]][:, None] == t_idx[None, :]] = np.inf
        expected[sl] = np.sqrt(d2.min(axis=1))
    _require(np.allclose(result[q], expected, rtol=NN_RTOL, atol=0.0),
             "NN distances differ from brute force")


class Capture:
    """Patch targets recording the replication-0 calls of one invocation
    (patterns carry their ``(seed, replication, index)`` seed)."""

    def __init__(self, mc):
        self.thin: list = []  # (parents, delta, thinned)
        self.nn: list = []  # (source, source_label, target, target_label, result)
        self.targets = [
            (mc.estimate, "thin_mhc_type2", "thin", self._record),
            (mc.estimate, "nn_distances_within", "within", self._record),
            (mc.estimate, "nn_distances_cross", "cross", self._record),
        ]

    def clear(self) -> None:
        self.thin.clear()
        self.nn.clear()

    def _record(self, kind: str, fn):
        def captured(*args):
            result = fn(*args)
            if args[0].seed[1] == 0:
                if kind == "thin":
                    self.thin.append((args[0], args[1], result))
                elif kind == "within":
                    self.nn.append((args[0], args[1], args[0], args[1], result))
                else:
                    self.nn.append((*args, result))
            return result

        return captured


def check_compare_invocation(mc, argv, code: int, text: str, capture: Capture, rng) -> None:
    """Output checks, then the replication-0 scans: every parent pattern is
    regenerated through the public ``SeedSequence((seed, rep, idx))`` scheme,
    thinning and NN distances are scanned, and the pooled report must span
    the replication-0 distances."""
    empirical = check_compare_output(argv, code, text)
    lambda_p = float(_flag(argv, "--lambda")[0])
    seed = int(_flag(argv, "--seed")[0])
    parent = int(mc.PointLabel.PARENT)
    raw = [p for p, _, _ in capture.thin]
    raw += [p for src, _, tgt, _, _ in capture.nn for p in (src, tgt) if np.all(p.label == parent)]
    for pattern in raw:
        _require(pattern.seed[0] == seed and pattern.seed[2] in (0, 1),
                 f"pattern seed {pattern.seed} outside the seed scheme for seed {seed}")
        again = mc.sample_ppp(lambda_p, pattern.window, (seed, 0, pattern.seed[2]))
        _require(np.array_equal(again.x, pattern.x) and np.array_equal(again.y, pattern.y)
                 and np.array_equal(again.mark, pattern.mark),
                 f"pattern {pattern.seed} not reproduced by its seed")
        del again
    for parents, delta, thinned in capture.thin:
        check_thinning(parents, thinned, delta, rng)
    _require(len(capture.nn) == len(empirical), "one replication-0 NN search per delta expected")
    for (source, s_label, target, t_label, result), emp in zip(capture.nn, empirical):
        check_nn(source, s_label, target, t_label, result, rng)
        _require(emp["min"] <= result.min() and emp["max"] >= result.max(),
                 "pooled distances do not span replication 0")
