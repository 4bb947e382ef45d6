"""qmarkov benchmark: closed-loop certification workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The benchmark drives the public
entry point ``qmarkov.cli.main(argv)`` in-process, in a closed loop with one
client: one process, one Python thread, BLAS pinned to one thread, and each
round of CLI invocations starts only when the previous round has finished.
The seed is passed to every subcommand that reads ``--seed``.

Round and set-up times are CPU seconds (user + system) of the process that
does the work, rescaled by the reference kernel of ``reference.py`` that runs
between them.  The loop is single-threaded and CPU-bound, so on an idle host
CPU time equals wall time; on a shared host wall time also counts waiting
for a CPU, and CPU time itself swings by up to 30 % with the neighbours'
load.  Raw CPU, wall and kernel times are kept in the record.

``round_s.tail`` is the highest percentile with at least ten rounds above
it; with ~2.5 s rounds a 35 s run holds about 13 rounds, so it sits near
p25, and the percentile is printed with the result.

Every round is checked by the oracle in ``oracle.py``; a round with any
mismatch counts as failed.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics derived from the spans of ``tracing.py``.  The last line
of standard output is the JSON result; the environment, the argv of every
round and the raw samples go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from oracle import Oracle, csv_digests
from tracing import Tracer, count_metrics, layer_metrics, unit_of

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3       # fresh interpreters per run for setup_s
IMPORTTIME_REPEATS = 3  # fresh interpreters per traced run for attribution
TAIL_BEYOND = 10        # round_s.tail has at least this many rounds above it
SEEDED = ("verify", "scan")


@dataclass(frozen=True)
class Workload:
    invocations: tuple  # ((argv, expected exit code), ...)
    unit: str
    units_per_round: int
    # "family" (FAMILY_SIDE) or "probe" (PROBE_SIDE): the layer group this
    # workload was chosen to spend most of its time in; empty when it spreads
    # time on purpose.
    dominant: str = ""


FAMILY_SIDE = ("qutrit_family", "superops.choi", "linalg.svd")
PROBE_SIDE = ("superops.apply_to_extended", "linalg.eig", "contractivity.scan",
              "cli.io")

WORKLOADS = {
    # What a reader re-running the README's verdicts does; the only workload
    # that reaches the closed-form sweep and bound chain.
    "certify": Workload(
        ((("verify",), 0), (("scan",), 0), (("divisibility",), 0),
         (("sweep",), 0), (("bounds",), 0)),
        "rounds", 1),
    # Batched apply/eigvalsh, ScanRow building and ~100k CSV rows; only
    # 4 x 40 family evaluations per scan.  The k = 2 ancilla scan finds norm
    # backflow in stage 4, so its exit code 1 is the expected verdict.
    "probe-heavy": Workload(
        ((("scan", "--probes", "2000", "--grid", "40"), 0),
         (("scan", "--k", "2", "--probes", "500", "--grid", "40"), 1)),
        "probe x grid-point right derivatives", 2000 * 40 + 500 * 40,
        "probe"),
    # Family rebuilds, Choi matrices and the divisibility pseudoinverse/SVD
    # path; with 2 probes the apply/eig batch is negligible.
    "grid-heavy": Workload(
        ((("scan", "--probes", "2", "--grid", "1000"), 0),
         (("divisibility", "--grid", "1000"), 0)),
        "family time points (scan grid points + divisibility intervals)",
        1000 + 999, "family"),
}


def round_argv(workload: Workload, name: str, seed: int) -> list:
    """Full argv of each invocation, each with its own output directory."""
    argvs = []
    for i, (argv, _) in enumerate(workload.invocations):
        argv = list(argv)
        if argv[0] in SEEDED:
            argv += ["--seed", str(seed)]
        argvs.append(argv + ["--out", str(OUT / name / f"{i}-{argv[0]}")])
    return argvs


def invoke(cli, argv: list, tracer=None):
    """Exit code of one CLI invocation, or None when it raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                return cli.main(argv)
            return tracer.call("cli.main", "cli", cli.main, argv)
    except SystemExit as exc:
        return exc.code
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_round(cli, argvs: list, tracer=None):
    """(CPU seconds, wall seconds, exit codes) of one round."""
    cpu, wall = time.process_time(), time.perf_counter()
    codes = [invoke(cli, argv, tracer) for argv in argvs]
    return time.process_time() - cpu, time.perf_counter() - wall, codes


def check_round(oracle_, workload: Workload, argvs: list, codes: list):
    """(errors, CSV digests) of one round's outputs."""
    errors, digests = [], []
    for (argv, expected), full, code in zip(workload.invocations, argvs, codes):
        outdir = Path(full[full.index("--out") + 1])
        errors += oracle_.check(argv[0], outdir, code, expected)
        digests.append(csv_digests(outdir))
    return errors, digests


def fresh_import(*flags: str):
    """CPU seconds and stderr of a fresh interpreter importing qmarkov.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    before = children_cpu_seconds()
    proc = subprocess.run([sys.executable, *flags, "-c", "import qmarkov.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()}")
    return children_cpu_seconds() - before, proc.stderr


def importtime(stderr: str) -> dict:
    """Cumulative import seconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            out[fields[2].strip()] = int(fields[1]) / 1e6
    return out


def environment(seed: int, argvs: list) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version, "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
            "git_commit": commit, "source_sha256": source.hexdigest(),
            "loop": "closed, 1 client, 1 thread", "seed": seed,
            "round_argv": argvs}


def tail(times: list):
    """(value, percentile) of the highest rank with TAIL_BEYOND rounds above it.

    With fewer than TAIL_BEYOND + 1 rounds no rank qualifies and the fastest
    round is reported.
    """
    ranked = sorted(times)
    rank = max(1, len(ranked) - TAIL_BEYOND)
    return ranked[rank - 1], 100.0 * rank / len(ranked)


def closed_loop(cli, workload: Workload, argvs: list, seconds: float,
                ref, tracer=None) -> list:
    """Rounds back to back until ``seconds`` have passed; every odd round is
    traced when a tracer is given.  Each round is checked before the next,
    and the reference kernel runs between rounds."""
    oracle_, first_digests, rounds = Oracle(), None, []
    deadline = time.perf_counter() + seconds
    before = ref.run()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        with tracer.recording(len(rounds)) if traced else contextlib.nullcontext():
            cpu, wall, codes = run_round(cli, argvs, tracer if traced else None)
        after = ref.run()
        errors, digests = check_round(oracle_, workload, argvs, codes)
        if first_digests is None:
            first_digests = digests
        elif digests != first_digests:
            errors.append(("traced" if traced else "untraced")
                          + " round wrote other CSV bytes than round 0")
        rounds.append({"traced": traced, "time_s": ref.rescaled(cpu, before, after),
                       "cpu_s": cpu, "wall_s": wall, "ref_s": [before, after],
                       "errors": errors, "csv_sha256": digests})
        before = after
        if time.perf_counter() >= deadline and \
                (tracer is None or len(rounds) >= 2):
            return rounds


def setup_times(ref) -> list:
    """Rescaled CPU seconds of SETUP_REPEATS fresh imports, with raw values."""
    samples, before = [], ref.run()
    for _ in range(SETUP_REPEATS):
        cpu = fresh_import()[0]
        after = ref.run()
        samples.append({"time_s": ref.rescaled(cpu, before, after), "cpu_s": cpu,
                        "ref_s": [before, after]})
        before = after
    return samples


def end_to_end(workload: Workload, rounds: list, setup: list) -> tuple:
    times = [r["time_s"] for r in rounds]
    value, percentile = tail(times)
    return {
        "setup_s": (statistics.median(s["time_s"] for s in setup), "s"),
        "round_s.p50": (statistics.median(times), "s"),
        "round_s.tail": (value, "s"),
        "units_per_s": (len(times) * workload.units_per_round / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }, {"tail_percentile": percentile,
        "samples": {"setup_s": len(setup), "round_s": len(times)}}


def per_layer(workload: Workload, rounds: list, tracer, imports: list) -> tuple:
    per_round = [layer_metrics(r) for r in tracer.rounds]
    # median_low reports a measured round and keeps counts integral.
    metrics = {k: (statistics.median_low(r[k] for r in per_round), unit_of(k))
               for k in per_round[0]}
    for metric, module in (("setup.import_s", "qmarkov.cli"),
                           ("setup.scipy_integrate_s", "scipy.integrate")):
        metrics[metric] = (statistics.median(m.get(module, 0.0) for m in imports), "s")
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    metrics["trace.overhead_frac"] = (
        statistics.median(r["time_s"] for r in traced)
        / statistics.median(r["time_s"] for r in untraced) - 1.0, "frac")
    # Spans are wall-clock, so shares are of the traced rounds' wall time.
    total = statistics.median(r["wall_s"] for r in traced)
    layers = {layer: statistics.median(r["self_s"][layer] for r in tracer.rounds)
              for layer in sorted({l for r in tracer.rounds for l in r["self_s"]})}
    shares = {side: sum(layers.get(l, 0.0) for l in group) / total
              for side, group in (("family", FAMILY_SIDE), ("probe", PROBE_SIDE))}
    return metrics, {
        "layer_self_s": layers, "split_share": shares,
        "split_holds": (not workload.dominant
                        or max(shares, key=shares.get) == workload.dominant),
        "counts_repeat": all(count_metrics(r) == count_metrics(per_round[0])
                             for r in per_round),
        "missing_trace_sites": tracer.missing, "importtime": imports}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # After main() pinned BLAS and set sys.path: both import numpy.
    from qmarkov import cli
    from reference import Reference

    workload = WORKLOADS[name]
    argvs = round_argv(workload, name, seed)
    shutil.rmtree(OUT / name, ignore_errors=True)
    (OUT / name).mkdir(parents=True)
    record = {"workload": name, "trace": int(trace), "seconds": seconds,
              "unit": workload.unit, "units_per_round": workload.units_per_round,
              "environment": environment(seed, argvs)}
    ref = Reference()
    if trace:
        imports = [importtime(fresh_import("-X", "importtime")[1])
                   for _ in range(IMPORTTIME_REPEATS)]
        tracer = Tracer()
        rounds = closed_loop(cli, workload, argvs, seconds, ref, tracer)
        metrics, extra = per_layer(workload, rounds, tracer, imports)
        tracer.write(OUT / name / "spans.csv")
    else:
        setup = setup_times(ref)
        rounds = closed_loop(cli, workload, argvs, seconds, ref)
        metrics, extra = end_to_end(workload, rounds, setup)
        extra["setup"] = setup
    failed = sum(1 for r in rounds if r["errors"])
    record.update(extra, attempted=len(rounds), failed=failed,
                  error_rate=failed / len(rounds), rounds=rounds,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    (OUT / name / f"record-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qmarkov" / "cli.py").is_file():
        print(f"bench: no qmarkov sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)  # before numpy is first imported
    sys.path.insert(0, str(SRC))

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for key in ("attempted", "failed", "error_rate", "tail_percentile", "samples",
                "split_share", "split_holds", "counts_repeat",
                "missing_trace_sites"):
        if key in record:
            print(f"{key}: {json.dumps(record[key])}")
    for r in record["rounds"]:
        for error in r["errors"]:
            print(f"round error: {error}", file=sys.stderr)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
