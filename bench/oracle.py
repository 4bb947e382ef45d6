"""Correctness oracle for the output of one CLI invocation.

Each check compares an output either with a fact the source paper states
(witness discrepancy 2|cos theta|, the contractive window, CP/TP at the PSD
tolerance, a non-positive closed-form derivative) or with another output of
the same invocation (every JSON summary against its CSV).  The constants are
written out here rather than imported from the package, so that a change to
the package's own tolerances shows up as a failed round.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

THETA = 1.5                        # CLI default; no workload passes --theta
WITNESS = 2.0 * abs(math.cos(THETA))
WITNESS_TOL = 1e-9
SLACK = 1e-6                       # default --slack
TOL_PSD = 1e-10                    # CP/TP tolerance of the paper's check
CLOSED_FORM_MAX = 1e-12            # closed-form derivative must stay <= this
WINDOW = (math.sqrt(2.0), math.pi / 2.0)
# A JSON float against its "%.15g" CSV rendering.
REL = 1e-13


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_digests(outdir: Path) -> dict:
    return {p.name: sha256(p) for p in sorted(outdir.glob("*.csv"))}


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Oracle:
    """Checks invocation outputs; CSV-derived facts are cached by digest.

    CSV bytes repeat across the rounds of a run, so each distinct CSV is
    parsed once and later rounds only compare their JSON with the cache.
    """

    def __init__(self):
        self._facts = {}

    def check(self, command: str, outdir: Path, rc, expected_rc: int) -> list:
        errors = []
        if rc != expected_rc:
            errors.append(f"{command}: exit code {rc}, expected {expected_rc}")
        try:
            getattr(self, "_" + command)(outdir, errors)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors.append(f"{command}: unreadable output: {exc!r}")
        return errors

    def _cached(self, path: Path, parse):
        key = (path.name, sha256(path))
        if key not in self._facts:
            self._facts[key] = parse(_rows(path))
        return self._facts[key]

    @staticmethod
    def _scan_facts(rows: list) -> dict:
        rd = [float(r["rderiv"]) for r in rows]
        top = max(rd)
        return {"rows": len(rows), "max": top,
                "fails": sum(r["verdict"] == "fail" for r in rows),
                "argmax": [(float(r["t"]), int(r["probe_id"]))
                           for r, v in zip(rows, rd) if _close(v, top)]}

    def _check_scan_csv(self, path: Path, summary: dict, errors: list,
                        probe_known: bool) -> None:
        facts = self._cached(path, self._scan_facts)
        if not _close(facts["max"], summary["max_rderiv"]):
            errors.append(f"{path.name}: CSV max {facts['max']!r} != summary "
                          f"{summary['max_rderiv']!r}")
        hits = [(t, p) for t, p in facts["argmax"]
                if abs(t - summary["argmax_t"]) <= 1e-9
                and (not probe_known or p == summary["argmax_probe"])]
        if not hits:
            errors.append(f"{path.name}: summary argmax not at a CSV maximum")
        if (facts["fails"] == 0) != summary["passed"]:
            errors.append(f"{path.name}: {facts['fails']} failing rows but "
                          f"passed={summary['passed']}")

    def _verify(self, outdir: Path, errors: list) -> None:
        s = json.loads((outdir / "verify_summary.json").read_text())
        checks = s["checks"]
        if not s["passed"] or s["failing"]:
            errors.append(f"verify: failing checks {s['failing']}")
        if s["theta"] != THETA:
            errors.append(f"verify: theta {s['theta']} != {THETA}")
        cptp = checks["cp-tp"]
        if cptp["min_choi_eig"] < -TOL_PSD or cptp["max_trace_error"] > TOL_PSD:
            errors.append(f"verify: CP/TP outside {TOL_PSD}: {cptp}")
        self._check_witness("verify", checks["divisibility"], errors)
        con = checks["contractivity"]
        if con["max_rderiv"] > SLACK:
            errors.append(f"verify: max_rderiv {con['max_rderiv']} > {SLACK}")
        self._check_scan_csv(outdir / "verify_scan.csv", con, errors,
                             probe_known=False)
        cf = checks["contractivity-closed-form"]["max_closed_form_derivative"]
        if cf > CLOSED_FORM_MAX:
            errors.append(f"verify: closed-form max {cf} > {CLOSED_FORM_MAX}")

    def _scan(self, outdir: Path, errors: list) -> None:
        s = json.loads((outdir / "scan_summary.json").read_text())
        if s["slack"] != SLACK:
            errors.append(f"scan: slack {s['slack']} != {SLACK}")
        # k = 1 is the paper's claim: no backflow.  The k = 2 ancilla scan is
        # expected to find norm backflow in stage 4 (exit code 1).
        backflow = s["max_rderiv"] > SLACK
        if backflow != (s["k"] > 1) or s["passed"] == backflow:
            errors.append(f"scan k={s['k']}: max_rderiv {s['max_rderiv']}, "
                          f"passed={s['passed']}")
        self._check_scan_csv(outdir / "scan.csv", s, errors, probe_known=True)

    def _divisibility(self, outdir: Path, errors: list) -> None:
        s = json.loads((outdir / "divisibility_summary.json").read_text())
        counts = self._cached(outdir / "divisibility.csv", lambda rows: {
            "rows": len(rows),
            "verdicts": {v: sum(r["verdict"] == v for r in rows)
                         for v in ("CP", "not-CP", "undefined-off-image")}})
        if s["intervals"] != counts["rows"] or s["verdicts"] != counts["verdicts"]:
            errors.append(f"divisibility: summary {s['intervals']}/{s['verdicts']} "
                          f"!= CSV {counts}")
        self._check_witness("divisibility", s["forcing_witness"], errors)

    @staticmethod
    def _check_witness(command: str, witness: dict, errors: list) -> None:
        if witness["status"] != "not-P-divisible" or \
                abs(witness["discrepancy"] - WITNESS) > WITNESS_TOL:
            errors.append(f"{command}: witness {witness} != 2|cos theta| = {WITNESS}")

    def _sweep(self, outdir: Path, errors: list) -> None:
        s = json.loads((outdir / "sweep_summary.json").read_text())
        split = self._cached(outdir / "sweep.csv", lambda rows: {
            flag: [float(r["theta"]) for r in rows if r["violation"] == flag]
            for flag in ("true", "false")})
        for key, flag in (("violations", "true"), ("clean", "false")):
            if len(s[key]) != len(split[flag]) or \
                    not all(map(_close, s[key], split[flag])):
                errors.append(f"sweep: summary {key} disagree with CSV")
        window = [t for t in split["true"] + split["false"]
                  if WINDOW[0] <= t <= WINDOW[1]]
        if sorted(split["false"]) != sorted(window):
            errors.append(f"sweep: clean thetas {split['false']} != window {window}")

    def _bounds(self, outdir: Path, errors: list) -> None:
        s = json.loads((outdir / "bounds_summary.json").read_text())
        links = self._cached(outdir / "bounds.csv", lambda rows: {
            "chain": all(r[f"link{i}"] == "true" for r in rows for i in (1, 2, 3)),
            "polynomial": all(r["link4"] == "true" for r in rows)})
        if not (s["passed"] and links["chain"] and links["polynomial"]):
            errors.append(f"bounds: summary passed={s['passed']}, CSV {links}")
        if s["chain_ok"] != links["chain"] or \
                s["polynomial_nonpositive"] != links["polynomial"]:
            errors.append("bounds: summary disagrees with CSV links")
