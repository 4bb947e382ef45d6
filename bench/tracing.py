"""Span recorder and layer wrappers for the traced benchmark run.

Each public function of a layer is wrapped at the place its caller looks it
up: ``contractivity.apply_to_extended`` rather than
``superops.apply_to_extended``, ``qutrit_family.lambda_t`` (which the
closure returned by ``family`` reads at call time), ``numpy.linalg.eigvalsh``
(which every module reaches through ``np.linalg``), and so on.  The wrappers
are installed only around traced rounds and restored afterwards; the
package's own code is not touched.

A span is (round, name, layer, start, end, parent index).  Spans stay in
memory and are written out when the run ends.  A layer's self time is the
duration of its spans minus the duration of their direct child spans.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import math
import time
from collections import Counter, defaultdict
from pathlib import Path


def _batch(a) -> int:
    """Matrices in a single (n, n) array or a stacked (..., n, n) batch."""
    return math.prod(a.shape[:-2])


def _bytes(path) -> int:
    return Path(path).stat().st_size


# (module, attribute, span name, layer, counter): the counter, if any, maps
# (args, result) to an amount added to the counter named like the layer's
# work metric.
SPANS = (
    ("qmarkov.qutrit_family", "lambda_t", "qutrit_family.lambda_t",
     "qutrit_family", None),
    ("qmarkov.cli", "choi_min_eigenvalue", "superops.choi", "superops.choi", None),
    ("qmarkov.divisibility", "choi_min_eigenvalue", "superops.choi",
     "superops.choi", None),
    ("qmarkov.superops", "to_choi", "superops.to_choi", "superops.choi", None),
    ("qmarkov.contractivity", "apply_to_extended", "superops.apply_to_extended",
     "superops.apply_to_extended",
     ("superops.apply_to_extended.matrices", lambda a, r: _batch(a[1]))),
    ("numpy.linalg", "eigvalsh", "linalg.eig", "linalg.eig",
     ("linalg.eig.matrices", lambda a, r: _batch(a[0]))),
    ("numpy.linalg", "eigh", "linalg.eig", "linalg.eig",
     ("linalg.eig.matrices", lambda a, r: _batch(a[0]))),
    ("numpy.linalg", "svd", "linalg.svd", "linalg.svd", None),
    ("numpy.linalg", "pinv", "linalg.svd", "linalg.svd", None),
    ("qmarkov.contractivity", "norm_derivative_scan", "contractivity.scan",
     "contractivity.scan", ("contractivity.rows", lambda a, r: len(r.rows))),
    ("qmarkov.contractivity", "gamma4_derivative_closed_form",
     "contractivity.closed_form", "contractivity.closed_form",
     ("contractivity.closed_form.evals", lambda a, r: getattr(r, "size", 1))),
    ("qmarkov.contractivity", "theta_window_sweep", "contractivity.sweep",
     "contractivity.closed_form", None),
    ("qmarkov.contractivity", "bound_chain_check", "contractivity.bound_chain",
     "contractivity.closed_form", None),
    ("qmarkov.cli", "check_closed_form", "cli.check_closed_form",
     "contractivity.closed_form", None),
    ("qmarkov.divisibility", "intermediate_map", "divisibility.intermediate_map",
     "divisibility.intermediate_map", None),
    ("qmarkov.divisibility", "cp_divisibility_scan", "divisibility.scan",
     "divisibility.scan", None),
    ("qmarkov.divisibility", "positive_forcing_witness", "divisibility.witness",
     "divisibility.witness", None),
    ("qmarkov.cli", "random_probes", "operators.random_probes",
     "operators.probes", None),
    ("qmarkov.cli", "_write_json", "cli.write_json", "cli.io",
     ("cli.io.bytes", lambda a, r: _bytes(a[0]))),
    ("qmarkov.cli", "_write_csv", "cli.write_csv", "cli.io",
     ("cli.io.bytes", lambda a, r: _bytes(a[0]))),
    ("qmarkov.contractivity", "ScanReport.to_csv", "cli.scan_to_csv", "cli.io",
     ("cli.io.bytes", lambda a, r: _bytes(a[1]))),
)

# Call counters without spans: their time stays with the caller's layer.
COUNTS = (
    ("qmarkov.qutrit_family", "make_E", "qutrit_family.make_E.calls"),
    ("qmarkov.qutrit_family", "from_kraus", "superops.kron_builds"),
    ("qmarkov.qutrit_family", "superop_from_action", "superops.kron_builds"),
)


def _resolve(module: str, attribute: str):
    """(owner, name) for a dotted attribute path inside ``module``."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans and counters of the rounds it is installed around."""

    def __init__(self):
        self.spans = []
        self.rounds = []
        self.missing = []
        self._round = 0
        self._counts = Counter()
        self._stack = []

    def _span(self, name: str, layer: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self._round, name, layer, start, end, parent)
            if counter is not None:
                self._counts[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, name: str, layer: str, fn, *args):
        """Run ``fn(*args)`` as a root span."""
        return self._span(name, layer, fn)(*args)

    @contextlib.contextmanager
    def recording(self, round_id: int):
        """Patch every lookup site for one round, then aggregate the round."""
        self._round, self._counts, first = round_id, Counter(), len(self.spans)
        patched = []
        try:
            for module, attribute, name, layer, counter in SPANS:
                self._patch(patched, module, attribute,
                            lambda fn: self._span(name, layer, fn, counter))
            for module, attribute, name in COUNTS:
                self._patch(patched, module, attribute,
                            lambda fn: self._count(name, fn))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
        self.rounds.append(self._aggregate(first))

    def _patch(self, patched: list, module: str, attribute: str, make) -> None:
        try:
            owner, attr = _resolve(module, attribute)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            site = f"{module}.{attribute}"
            if site not in self.missing:
                self.missing.append(site)
            return
        patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _aggregate(self, first: int) -> dict:
        """Self time per layer, calls per span name and counters of a round."""
        spans = self.spans[first:]
        child = Counter()
        for _, _, _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = Counter(), Counter()
        for i, (_, name, layer, start, end, _) in enumerate(spans, first):
            self_s[layer] += (end - start) - child[i]
            calls[name] += 1
        return {"self_s": self_s, "calls": calls, "counts": self._counts}

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "name", "layer", "start", "end", "parent"])
            writer.writerows(self.spans)


def layer_metrics(r: dict) -> dict:
    """Per-layer metrics of one traced round; names match BENCHMARK.json."""
    s, calls, counts = defaultdict(float, r["self_s"]), r["calls"], r["counts"]
    lam = calls["qutrit_family.lambda_t"]
    make_e = counts["qutrit_family.make_E.calls"]
    return {
        "qutrit_family.self_s": s["qutrit_family"],
        "qutrit_family.lambda_t.calls": lam,
        "qutrit_family.make_E.calls": make_e,
        "qutrit_family.make_E.per_lambda_t": make_e / lam if lam else 0.0,
        "superops.choi.calls": calls["superops.choi"],
        "superops.choi.self_s": s["superops.choi"],
        "superops.kron_builds": counts["superops.kron_builds"],
        "superops.apply_to_extended.calls": calls["superops.apply_to_extended"],
        "superops.apply_to_extended.matrices":
            counts["superops.apply_to_extended.matrices"],
        "superops.apply_to_extended.self_s": s["superops.apply_to_extended"],
        "linalg.eig.calls": calls["linalg.eig"],
        "linalg.eig.matrices": counts["linalg.eig.matrices"],
        "linalg.eig.self_s": s["linalg.eig"],
        "linalg.svd.calls": calls["linalg.svd"],
        "linalg.svd.self_s": s["linalg.svd"],
        "contractivity.scan.self_s": s["contractivity.scan"],
        "contractivity.rows": counts["contractivity.rows"],
        "contractivity.closed_form.evals": counts["contractivity.closed_form.evals"],
        "contractivity.closed_form.self_s": s["contractivity.closed_form"],
        "divisibility.intermediate_map.calls": calls["divisibility.intermediate_map"],
        "divisibility.intermediate_map.self_s": s["divisibility.intermediate_map"],
        "divisibility.witness.self_s": s["divisibility.witness"],
        "cli.io.bytes": counts["cli.io.bytes"],
        "cli.io_s": s["cli.io"],
        "cli.self_s": s["cli"],
    }


def count_metrics(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if unit_of(k) != "s/round"}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s/round"
    if metric.endswith(".per_lambda_t"):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes/round"
    return "count/round"
