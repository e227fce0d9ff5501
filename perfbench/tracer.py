"""Spans and counters around the package's layer boundaries, from outside.

The package's modules bind their imports with ``from .x import y``, so a
wrapper is installed on the name in the *consuming* module's namespace
(``curves.fit``, ``learners.thin_svd``, ``io_cli.run_sweep``, ...), not on
the defining one.  Spans live in memory; ``layer_metrics`` derives the
per-layer numbers from them.  Every ``*_s`` metric is a self time (span
duration minus the part its child spans cover), except
``curves.sweep_s``, which is the sweeps' wall time.
"""

import itertools
import math
import threading
import time
from collections import Counter, defaultdict

PER_LAYER = {
    "data.gen_s": "s", "data.gen_calls": "count", "data.gen_mb": "MiB",
    "data.split_s": "s", "data.subsample_s": "s",
    "data.take_features_s": "s", "data.take_features_calls": "count",
    "data.dataset_builds": "count",
    "data.load_csv_s": "s", "data.load_csv_mb": "MiB", "data.standardize_s": "s",
    "linalg.svd_s": "s", "linalg.svd_calls": "count", "linalg.svd_gflop": "GFLOP",
    **{f"learners.fit_s.{k}": "s" for k in ("mnlr", "pfld", "ridge", "semisup_pfld", "max_margin")},
    **{f"learners.fit_calls.{k}": "count" for k in ("mnlr", "pfld", "ridge", "semisup_pfld", "max_margin")},
    "learners.eval_s": "s", "learners.label_checks": "count", "learners.fit_failed": "count",
    "curves.sweep_s": "s", "curves.self_s": "s", "curves.peak_s": "s",
    "curves.fit_concurrency": "ratio",
    "io_cli.load_config_s": "s", "io_cli.emit_s.csv": "s", "io_cli.emit_s.json": "s",
    "io_cli.emit_s.svg": "s", "io_cli.bytes_written": "B", "io_cli.report_s": "s",
    "trace.overhead_s": "s",
}

LEARNER_KIND = {"Mnlr": "mnlr", "Pfld": "pfld", "Ridge": "ridge",
                "SemiSupPfld": "semisup_pfld", "MaxMargin": "max_margin"}


def _mib_of_result(args, result):
    return {"mb": result.x.nbytes / 2**20}


def _svd_gflop(args, result):
    # Golub & Van Loan's R-SVD count for the thin U, S, V of an m x n matrix
    # (m >= n): 6 m n^2 + 20 n^3.  Computed from the shape, not measured.
    m, n = sorted(args[0].shape, reverse=True)
    return {"gflop": (6.0 * m * n * n + 20.0 * n ** 3) / 1e9}


def _fit_span_name(args):
    return "learners.fit." + LEARNER_KIND.get(type(args[0]).__name__, type(args[0]).__name__.lower())


class Tracer:
    """Records spans (name, start, end, parent, cell, thread) and counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sweep = None  # parent of spans opened on the sweep's pool threads
        self._patches = []

    # -- recording --------------------------------------------------------

    def run(self, name, fn, *args, extra=None, **kwargs):
        """Call ``fn`` inside a span; ``extra(args, result)`` adds numbers."""
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        span = {"id": sid, "name": name, "parent": stack[-1] if stack else self._sweep,
                "cell": getattr(self._local, "cell", None),
                "thread": threading.get_ident(), "failed": True}
        is_sweep, outer_sweep = name == "curves.sweep", self._sweep
        if is_sweep:
            self._sweep = sid
        stack.append(sid)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            span["failed"] = False
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            if is_sweep:
                self._sweep = outer_sweep
            self.spans.append(span)
        if extra is not None:
            span.update(extra(args, result))
        return result

    def count(self, key):
        with self._lock:
            self.counts[key] += 1

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:  # boundary absent in this version of the package
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span_on(self, owner, attr, name, extra=None):
        def make(original):
            def wrapper(*args, **kwargs):
                span_name = name(args) if callable(name) else name
                return self.run(span_name, original, *args, extra=extra, **kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def _count_on(self, owner, attr, key):
        def make(original):
            def wrapper(*args, **kwargs):
                self.count(key)
                return original(*args, **kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def _cell_on(self, owner, attr):
        # (grid value, rep) of the cell being fit, for the spans inside it
        def make(original):
            def wrapper(*args, **kwargs):
                self._local.cell = f"{args[5]:g}/{args[6]}" if len(args) >= 7 else None
                try:
                    return original(*args, **kwargs)
                finally:
                    self._local.cell = None
            return wrapper
        self._patch(owner, attr, make)

    def install(self):
        from riskcurves import curves, data, io_cli, learners, linalg

        self._span_on(curves, "gen_two_gaussians", "data.gen", _mib_of_result)
        self._span_on(curves, "split", "data.split")
        self._span_on(curves, "subsample", "data.subsample")
        self._span_on(curves, "take_features", "data.take_features")
        self._span_on(curves, "load_csv", "data.load_csv", _mib_of_result)
        self._span_on(curves, "standardize", "data.standardize")
        self._count_on(data.Dataset, "__post_init__", "data.dataset_builds")
        self._span_on(linalg, "thin_svd", "linalg.svd", _svd_gflop)
        self._span_on(learners, "thin_svd", "linalg.svd", _svd_gflop)
        self._span_on(curves, "fit", _fit_span_name)
        for attr in ("predict", "decision_values", "zero_one_risk", "squared_risk"):
            self._span_on(curves, attr, "learners.eval")
        self._count_on(learners, "as_labels", "learners.label_checks")
        self._count_on(data, "as_labels", "learners.label_checks")
        self._cell_on(curves, "_fit_cell")
        self._span_on(io_cli, "run_sweep", "curves.sweep")
        self._span_on(io_cli, "detect_peak", "curves.peak")
        self._span_on(io_cli, "load_config", "io_cli.load_config")
        self._span_on(io_cli, "emit_csv", "io_cli.emit.csv")
        self._span_on(io_cli, "emit_json", "io_cli.emit.json")
        self._span_on(io_cli, "emit_svg_plot", "io_cli.emit.svg")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


# --------------------------------------------------------------------------
# Derivation.


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _metric_key(span_name: str, suffix: str) -> str:
    layer, op, *detail = span_name.split(".")
    return ".".join([layer, f"{op}_{suffix}", *detail])


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced curve, every ``PER_LAYER`` key present.

    Sums use ``math.fsum`` so that they do not depend on the order in which
    threads closed their spans.
    """
    parts = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        self_s = dur - _covered(children[s["id"]], s["start"], s["end"])
        if name == "curves.sweep":
            parts["curves.sweep_s"].append(dur)
            parts["curves.self_s"].append(self_s)
            continue
        if name.startswith("learners.fit."):
            parts["fit_busy"].append(dur)
            parts["learners.fit_failed"].append(float(s["failed"]))
        parts[_metric_key(name, "s")].append(self_s)
        parts[_metric_key(name, "calls")].append(1.0)
        for extra, key in (("mb", f"{name}_mb"), ("gflop", f"{name}_gflop")):
            if extra in s:
                parts[key].append(s[extra])
    m = {k: math.fsum(parts[k]) for k in PER_LAYER}
    for key, n in counts.items():
        m[key] += n
    sweep_wall = m["curves.sweep_s"]
    m["curves.fit_concurrency"] = math.fsum(parts["fit_busy"]) / sweep_wall if sweep_wall else 0.0
    return m
