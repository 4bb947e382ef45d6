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
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import contractivity, divisibility
from .operators import random_probes
from .qutrit_family import (MapParams, continuity_report, family, load_params)
from .superops import choi_min_eigenvalue, tp_error
from .tolerances import DEFAULT_SEED, TOL_DERIV, TOL_PSD

CONTINUITY_LADDER = (1e-2, 1e-3, 1e-4)
CONTINUITY_FINAL_GAP = 1e-3
WITNESS_MIN_DISCREPANCY = 1e-6


def _write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("schema_version", 1)
    payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _params(args) -> MapParams:
    """MapParams from --config or --theta/--delta.

    Raises ValueError (OperandError) for values outside the family's domain
    or a malformed config, and OSError for an unreadable config.
    """
    if args.config:
        return load_params(args.config)
    return MapParams(**{name: getattr(args, name) for name in ("theta", "delta")
                        if getattr(args, name) is not None})


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def check_continuity(params: MapParams, derivative: bool = False) -> dict:
    """Junction gaps must shrink along the epsilon ladder.

    Map-value gaps additionally must end below an absolute threshold.  The
    derivative gaps of the smooth variant decay like eps^(delta - 1), too
    slowly for any absolute cutoff on a short ladder, so convergence to zero
    is certified by a strictly positive fitted power-law exponent instead;
    a last gap of exactly 0 has no exponent (recorded as null) and passes.
    """
    report = continuity_report(params, CONTINUITY_LADDER, derivative=derivative)
    ok = True
    for entry in report.values():
        gaps = entry["derivative_gap"] if derivative else entry["gap"]
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            ok = False
        if derivative:
            exponent = None
            if gaps[-1] != 0.0:
                exponent = (math.log(gaps[0] / gaps[-1])
                            / math.log(CONTINUITY_LADDER[0] / CONTINUITY_LADDER[-1]))
            entry["fitted_exponent"] = exponent
            if exponent is not None and exponent <= 0.02:
                ok = False
        elif gaps[-1] >= CONTINUITY_FINAL_GAP:
            ok = False
    return {"passed": ok, "report": report}


def check_cp_tp(params: MapParams, grid_points: int) -> dict:
    """CP from the Choi minimum eigenvalue, TP exactly from the Choi partial trace."""
    fam = family(params)
    maps = [fam(t) for t in np.linspace(0.0, params.t4, grid_points)]
    worst_choi = min(choi_min_eigenvalue(S) for S in maps)
    worst_tp = max(tp_error(S) for S in maps)
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
    (row,) = contractivity.theta_window_sweep(
        [params.theta], np.arange(0.0, 1.0 + 1e-9, 0.01),
        np.arange(0.0, 10.0 + 1e-9, 0.1))
    result = {"passed": not row["violation"],
              "max_closed_form_derivative": row["max_deriv"]}
    if row["singular_points_skipped"]:
        result["singular_points_skipped"] = row["singular_points_skipped"]
    return result


def cmd_verify(args) -> int:
    params = args.params
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fam = family(params)
    smooth = params.delta > 1.0

    checks = {}
    checks["continuity"] = check_continuity(params)
    if smooth:
        checks["derivative-continuity"] = check_continuity(params, derivative=True)
    checks["cp-tp"] = check_cp_tp(params, args.grid)
    checks["divisibility"] = check_forcing(params)
    probes = random_probes(3, args.probes, args.seed)
    grid = np.linspace(0.0, params.t4, args.grid, endpoint=False)
    report = contractivity.norm_derivative_scan(fam, probes, grid, k=1,
                                                slack=args.slack)
    report.to_csv(out / "verify_scan.csv")
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


def cmd_scan(args) -> int:
    params = args.params
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dim = 3 * args.k
    probes = random_probes(dim, args.probes, args.seed)
    grid = np.linspace(0.0, params.t4, args.grid, endpoint=False)
    report = contractivity.norm_derivative_scan(family(params), probes, grid,
                                               k=args.k, slack=args.slack)
    report.to_csv(out / "scan.csv")
    summary = report.summary()
    summary["theta"] = params.theta
    summary["command"] = "scan"
    if args.k > 1:
        summary["note"] = "exploratory — no analytic claim for k > 1"
    _write_json(out / "scan_summary.json", summary)
    print(f"max right-derivative {report.max_rderiv:.3e} at t={report.argmax_t}"
          f" (probe {report.argmax_probe}); {'pass' if report.passed else 'fail'}")
    return 0 if report.passed else 1


def cmd_divisibility(args) -> int:
    params = args.params
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fam = family(params)
    grid = np.linspace(0.0, params.t4, args.grid)
    rows = divisibility.cp_divisibility_scan(fam, grid)
    _write_csv(out / "divisibility.csv",
               ["s", "t", "definedness", "residual", "choi_min_eig", "verdict"],
               [[_fmt(r["s"]), _fmt(r["t"]), r["definedness"], _fmt(r["residual"]),
                 _fmt(r["choi_min_eig"]), r["verdict"]] for r in rows])
    forcing = check_forcing(params)
    summary = {"command": "divisibility", "theta": params.theta,
               "intervals": len(rows),
               "verdicts": {v: sum(1 for r in rows if r["verdict"] == v)
                            for v in ("CP", "not-CP", "undefined-off-image")},
               "forcing_witness": forcing}
    _write_json(out / "divisibility_summary.json", summary)
    print(f"intervals: {summary['verdicts']}; witness: {forcing['status']}")
    return 0 if forcing["passed"] else 1


def cmd_sweep(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    thetas = np.arange(args.theta_min, args.theta_max + 1e-9, args.theta_step)
    rows = contractivity.theta_window_sweep(
        thetas, np.linspace(0.0, 1.0, 201), np.arange(0.0, 10.0 + 1e-9, 0.1))
    _write_csv(out / "sweep.csv",
               ["theta", "max_deriv", "arg_lambda", "arg_tau", "violation"],
               [[_fmt(r["theta"]), _fmt(r["max_deriv"]), _fmt(r["arg_lambda"]),
                 _fmt(r["arg_tau"]), str(r["violation"]).lower()] for r in rows])
    clean = [r["theta"] for r in rows if not r["violation"]]
    _write_json(out / "sweep_summary.json",
                {"command": "sweep",
                 "violations": [r["theta"] for r in rows if r["violation"]],
                 "clean": clean})
    print(f"{len(rows) - len(clean)} of {len(rows)} thetas violate")
    if clean != [float(t) for t in thetas if math.sqrt(2) <= t <= math.pi / 2]:
        print("clean thetas differ from the window [sqrt(2), pi/2]")
        return 1
    return 0


def cmd_bounds(args) -> int:
    params = args.params
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = contractivity.bound_chain_check(
        params.theta, np.arange(0.005, 1.0 + 1e-9, 0.005))
    rows = result["rows"]
    _write_csv(out / "bounds.csv", rows.dtype.names,
               [[_fmt(v) if isinstance(v, float) else str(v).lower() for v in r]
                for r in rows.tolist()])
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
    "--seed": dict(type=int, default=DEFAULT_SEED),
    "--grid": dict(type=_ranged(int, lambda v: v >= 2, ">= 2"), default=200),
    "--probes": dict(type=_ranged(int, lambda v: v >= 1, ">= 1"), default=200),
    "--k": dict(type=_ranged(int, lambda v: v >= 1, ">= 1"), default=1),
    "--slack": dict(type=_ranged(float, lambda v: 0 <= v < math.inf,
                                 "finite and >= 0"), default=TOL_DERIV),
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
     PARAM_FLAGS + ("--seed", "--grid", "--probes", "--slack", "--out")),
    ("scan", "trace-norm right-derivative scan", cmd_scan,
     PARAM_FLAGS + ("--seed", "--grid", "--probes", "--k", "--slack", "--out")),
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
        if args.config and (args.theta, args.delta) != (None, None):
            parser.error("--config sets theta and delta; drop --theta/--delta")
        try:
            args.params = _params(args)
        except (ValueError, OSError) as err:
            parser.error(str(err))
        if args.command == "bounds" and args.params.theta > math.pi / 2:
            parser.error("bounds: the bound chain is stated for theta in (0, pi/2]")
    if getattr(args, "theta_min", 0.0) > getattr(args, "theta_max", 0.0):
        parser.error("--theta-min must not exceed --theta-max")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
