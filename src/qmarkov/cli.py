"""Command-line front end.

Subcommands: ``verify`` (full certification suite), ``scan`` (contractivity
scan), ``divisibility`` (interval verdicts + forcing witness), ``sweep``
(theta window) and ``bounds`` (analytic bound chain).  All commands emit
CSV data files plus a JSON summary into --out; CSV output is byte-identical
under a fixed seed, the timestamp lives only in the JSON.

Exit codes: 0 pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import contractivity, divisibility
from .operators import random_probes
from .qutrit_family import CONTRACTIVE_WINDOW, MapParams, family, load_params
from .superops import GRID_CHUNK, choi_min_eigenvalue, tp_error
from .tolerances import DEFAULT_SEED, JUNCTION_GAP, TOL_PSD, WITNESS_MIN_DISCREPANCY

SCHEMA_VERSION = 1  # of every JSON summary


def _write_json(path: Path, payload: dict) -> None:
    # a non-finite float (a NaN max_rderiv, say) is written as null
    payload = json.loads(json.dumps(payload), parse_constant=lambda constant: None)
    payload["schema_version"] = SCHEMA_VERSION
    payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


_write_csv = contractivity.write_csv  # the one CSV writer, as the CLI's I/O site


def _write_rows(path: Path, rows: np.ndarray) -> None:
    """Write the record array ``rows`` as CSV, each column encoded by its
    dtype: floats as %.15g, booleans as true/false, the rest as they are."""
    _write_csv(path, rows.dtype.names, [rows[name] for name in rows.dtype.names])


def check_continuity(params: MapParams, derivative: bool = False) -> dict:
    """Junction continuity of Lambda_t, or with ``derivative`` of its time
    derivative.

    At each junction t_j the left value (the stage that ends at t_j, at
    tau = 1) is compared with the right one (the stage that starts there, at
    tau = 0).  Both are exact, and their largest entry gap must not exceed
    JUNCTION_GAP.
    """
    fam, junctions = family(params), [params.t1, params.t2, params.t3]
    values = fam.dot_stack if derivative else fam.stack
    gaps = np.abs(values(junctions, left=True) - values(junctions)).max(axis=(1, 2))
    report = {name: {"t": t, "gap": gap}
              for name, t, gap in zip(("t1", "t2", "t3"), junctions, gaps.tolist())}
    return {"passed": all(entry["gap"] <= JUNCTION_GAP for entry in report.values()),
            "report": report}


def check_cp_tp(params: MapParams, grid_points: int) -> dict:
    """CP from the Choi minimum eigenvalue, TP exactly from the Choi partial
    trace, both read off one ``Family.stack`` of GRID_CHUNK grid points at a time."""
    fam = family(params)
    grid = np.linspace(0.0, params.t4, grid_points)
    worst_choi, worst_tp = math.inf, 0.0
    for i in range(0, grid_points, GRID_CHUNK):
        maps = fam.stack(grid[i:i + GRID_CHUNK])
        worst_choi = min(worst_choi, float(choi_min_eigenvalue(maps).min()))
        worst_tp = max(worst_tp, float(tp_error(maps).max()))
    return {"passed": worst_choi >= -TOL_PSD and worst_tp <= TOL_PSD,
            "min_choi_eig": worst_choi, "max_trace_error": worst_tp}


def check_forcing(params: MapParams) -> dict:
    witness = divisibility.positive_forcing_witness(family(params),
                                                   params.t3, params.t4)
    if witness is None:
        return {"status": "no-configuration", "passed": False}
    if witness.discrepancy > WITNESS_MIN_DISCREPANCY:
        return {"status": "not-P-divisible", "passed": True,
                "discrepancy": witness.discrepancy}
    return {"status": "inconclusive", "passed": False,
            "discrepancy": witness.discrepancy}


def check_closed_form(params: MapParams) -> dict:
    (row,) = contractivity.theta_window_sweep([params.theta],
                                              np.arange(0.0, 1.0 + 1e-9, 0.01))
    result = {"passed": not row.violation,
              "max_closed_form_derivative": float(row.max_deriv)}
    if row.singular_points_skipped:
        result["singular_points_skipped"] = int(row.singular_points_skipped)
    return result


def _scan(args, k: int, path: Path) -> contractivity.ScanReport:
    """The scan of ``args.probes`` seeded probes on C^3 tensor C^k over
    ``args.grid`` points of [0, t4), its rows written to ``path``."""
    probes = random_probes(3 * k, args.probes, args.seed)
    grid = np.linspace(0.0, args.params.t4, args.grid, endpoint=False)
    report = contractivity.norm_derivative_scan(family(args.params), probes, grid, k=k)
    report.to_csv(path)
    return report


def cmd_verify(args, out: Path) -> int:
    params = args.params
    checks = {}
    checks["continuity"] = check_continuity(params)
    if params.delta > 1.0:
        checks["derivative-continuity"] = check_continuity(params, derivative=True)
    checks["cp-tp"] = check_cp_tp(params, args.grid)
    checks["divisibility"] = check_forcing(params)
    report = _scan(args, 1, out / "verify_scan.csv")
    checks["contractivity"] = {"passed": report.passed,
                               "max_rderiv": report.max_rderiv,
                               "argmax_t": report.argmax_t}
    checks["contractivity-closed-form"] = check_closed_form(params)

    failing = [name for name, res in checks.items() if not res["passed"]]
    summary = {
        "command": "verify",
        "theta": params.theta,
        "delta": params.delta,
        "seed": args.seed,
        "checks": checks,
        "failing": failing,
        "passed": not failing,
    }
    _write_json(out / "verify_summary.json", summary)
    for name in checks:
        status = "FAIL" if name in failing else "PASS"
        print(f"[{status}] {name}")
    if failing:
        print(f"verification failed: {', '.join(failing)}")
        return 1
    print("verification passed")
    return 0


def cmd_scan(args, out: Path) -> int:
    report = _scan(args, args.k, out / "scan.csv")
    summary = report.summary()
    summary["theta"] = args.params.theta
    summary["command"] = "scan"
    if args.k > 1:
        summary["note"] = "exploratory — no analytic claim for k > 1"
    _write_json(out / "scan_summary.json", summary)
    print(f"max right-derivative {report.max_rderiv:.3e} at t={report.argmax_t}"
          f" (probe {report.argmax_probe}); {'pass' if report.passed else 'fail'}")
    return 0 if report.passed else 1


def cmd_divisibility(args, out: Path) -> int:
    params = args.params
    rows = divisibility.cp_divisibility_scan(family(params),
                                             np.linspace(0.0, params.t4, args.grid))
    _write_rows(out / "divisibility.csv", rows)
    forcing = check_forcing(params)
    summary = {"command": "divisibility", "theta": params.theta,
               "intervals": len(rows),
               "verdicts": {v: int(np.sum(rows.verdict == v))
                            for v in ("CP", "not-CP", "undefined-off-image")},
               "forcing_witness": forcing}
    _write_json(out / "divisibility_summary.json", summary)
    print(f"intervals: {summary['verdicts']}; witness: {forcing['status']}")
    return 0 if forcing["passed"] else 1


def cmd_sweep(args, out: Path) -> int:
    rows = contractivity.theta_window_sweep(args.thetas, np.linspace(0.0, 1.0, 201))
    _write_rows(out / "sweep.csv",
                rows[["theta", "max_deriv", "arg_lambda", "arg_tau", "violation"]])
    clean = rows.theta[~rows.violation].tolist()
    _write_json(out / "sweep_summary.json",
                {"command": "sweep", "violations": rows.theta[rows.violation].tolist(),
                 "clean": clean})
    print(f"{len(rows) - len(clean)} of {len(rows)} thetas violate")
    low, high = CONTRACTIVE_WINDOW
    if clean != [float(t) for t in args.thetas if low <= t <= high]:
        print("clean thetas differ from the window [sqrt(2), pi/2]")
        return 1
    return 0


def cmd_bounds(args, out: Path) -> int:
    params = args.params
    result = contractivity.bound_chain_check(
        params.theta, np.arange(0.005, 1.0 + 1e-9, 0.005))
    _write_rows(out / "bounds.csv", result["rows"])
    ok = result["chain_ok"] and result["lambda_monotone"] and \
        result["polynomial_nonpositive"]
    _write_json(out / "bounds_summary.json",
                {"command": "bounds", "theta": params.theta,
                 "chain_ok": result["chain_ok"],
                 "polynomial_nonpositive": result["polynomial_nonpositive"],
                 "lambda_monotone": result["lambda_monotone"],
                 "singular_points_skipped": result["singular_points_skipped"],
                 "passed": ok})
    print(f"bound chain at theta={params.theta}: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def _ranged(cast, in_range, rule: str):
    """argparse type: ``cast`` the text, then reject values outside ``rule``."""
    def parse(text: str):
        value = cast(text)
        if not in_range(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = cast.__name__
    return parse


# --theta/--delta default to None (MapParams supplies 1.5 and 1.0) so that an
# explicit value given next to --config can be told apart and rejected.
FLAGS = {
    "--theta": dict(type=float, default=None, help="default 1.5"),
    "--delta": dict(type=float, default=None, help="default 1.0"),
    "--config": dict(default=None,
                     help="key=value parameter file (excludes --theta/--delta)"),
    "--seed": dict(type=_ranged(int, lambda v: v >= 0, ">= 0"), default=DEFAULT_SEED),
    "--grid": dict(type=_ranged(int, lambda v: v >= 2, ">= 2"), default=200),
    "--probes": dict(type=_ranged(int, lambda v: v >= 1, ">= 1"), default=200),
    "--k": dict(type=_ranged(int, lambda v: v >= 1, ">= 1"), default=1),
    "--theta-min": dict(type=_ranged(float, math.isfinite, "finite"), default=1.0),
    "--theta-max": dict(type=_ranged(float, math.isfinite, "finite"), default=1.7),
    "--theta-step": dict(type=_ranged(float, lambda v: 0 < v < math.inf,
                                      "positive and finite"), default=0.05),
    "--out": dict(default="out"),
}
PARAM_FLAGS = ("--theta", "--delta", "--config")

# (name, help, handler, flags): each subcommand declares only the flags it reads.
SUBCOMMANDS = (
    ("verify", "run the full certification suite", cmd_verify,
     PARAM_FLAGS + ("--seed", "--grid", "--probes", "--out")),
    ("scan", "trace-norm right-derivative scan", cmd_scan,
     PARAM_FLAGS + ("--seed", "--grid", "--probes", "--k", "--out")),
    ("divisibility", "interval CP verdicts + forcing witness", cmd_divisibility,
     PARAM_FLAGS + ("--grid", "--out")),
    ("sweep", "theta-window violation sweep", cmd_sweep,
     ("--theta-min", "--theta-max", "--theta-step", "--out")),
    ("bounds", "analytic bound-chain ledger", cmd_bounds,
     PARAM_FLAGS + ("--out",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmarkov",
                                     description="dynamical-map certification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, flags in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "config"):
        given = {name: value for name in ("theta", "delta")
                 if (value := getattr(args, name)) is not None}
        if args.config and given:
            parser.error("--config sets theta and delta; drop --theta/--delta")
        try:  # OperandError (a ValueError): bad values or config; OSError: unreadable
            args.params = load_params(args.config) if args.config else MapParams(**given)
        except (ValueError, OSError) as err:
            parser.error(str(err))
        if args.command == "bounds" and args.params.theta > math.pi / 2:
            parser.error("bounds: the bound chain is stated for theta in (0, pi/2]")
    if args.command == "sweep":
        if args.theta_min > args.theta_max:
            parser.error("--theta-min must not exceed --theta-max")
        try:  # numpy refuses a grid too long to index before it allocates one
            args.thetas = np.arange(args.theta_min, args.theta_max + 1e-9, args.theta_step)
        except ValueError as err:
            parser.error(f"--theta-step {args.theta_step}: {err}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return args.func(args, out)


if __name__ == "__main__":
    sys.exit(main())
