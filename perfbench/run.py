"""riskcurves benchmark: time to a finished curve, set-up time, memory and
max-margin solution quality, with correctness checks on every curve.

Run from the repository root:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``mnlr-curves``,
``closed-form``, ``cli-maxmargin``.  The package is driven from outside
only: library workloads call its public API in a fresh interpreter
(``worker.py``), the CLI workload runs ``python -m riskcurves`` as a
subprocess.  Closed loop: one curve after another from a single process.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``tracer.py`` from a separate traced run, plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Working files
go under ``.bench_work/`` in the working directory; the spans of a traced
run are kept there.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from checks import Ops, check_cli_outputs  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

WORK_DIR = ".bench_work"
RUN_LIMIT_S = 170  # children still running this long after the start are killed

END_TO_END = {"curve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "mm_objective_ratio": "ratio"}


@dataclass(frozen=True)
class Child:
    code: int
    seconds: float
    max_rss_mib: float
    output: str


def run_child(argv, env, log_path, timeout) -> Child:
    """Run a process to completion; wall time from spawn to exit, own peak RSS."""
    with open(log_path, "w+b") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        output = log.read().decode("utf-8", "replace")
    return Child(proc.returncode, seconds, usage.ru_maxrss / 1024.0, output)


def src_line_count(root) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Run:
    """One benchmark run: inputs, set-up, probe, measured curves, report."""

    def __init__(self, name, seed, seconds, trace, root, scale):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.root, self.scale_name, self.scale = root, scale, workloads.SCALES[scale]
        self.work = os.path.join(root, WORK_DIR, f"{name}-s{seed}-p{os.getpid()}")
        self.spans_path = os.path.join(root, WORK_DIR, f"spans-{name}-s{seed}.json")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.ops = Ops()
        self.inputs = None  # CLI workload only
        self._logs = 0
        self._deadline = time.perf_counter() + RUN_LIMIT_S

    def _child(self, argv) -> Child:
        self._logs += 1
        return run_child(argv, self.env, os.path.join(self.work, f"log{self._logs}.txt"),
                         max(1.0, self._deadline - time.perf_counter()))

    def _worker(self, mode, *extra, seconds=0.0):
        """Run a worker mode; returns (Child, parsed result or None)."""
        out = os.path.join(self.work, f"{mode}.json")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), mode,
                "--workload", self.name, "--seed", str(self.seed),
                "--scale", self.scale_name, "--seconds", str(seconds), "--out", out, *extra]
        if self.inputs is not None:
            argv += ["--config", self.inputs.config]
        child = self._child(argv)
        if child.code != 0 or not os.path.exists(out):
            self.ops.record(f"worker {mode}", False, f"exit {child.code}: {child.output[-2000:]}")
            return child, None
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        self.ops.merge(result.pop("attempted", 0), result.pop("failures", []))
        return child, result

    # -- phases -------------------------------------------------------------

    def setup(self):
        times = []
        for _ in range(self.scale.setup_probes):
            child, result = self._worker("setup")  # a failure is recorded there
            if result is not None:
                self.ops.record("setup", True)
                times.append(child.seconds)
        return times

    def probe(self):
        _, result = self._worker("probe")
        return result or {"cells": [], "provenance": {}}

    def library(self):
        extra = ["--trace", "--spans", self.spans_path] if self.trace else []
        child, result = self._worker("library", *extra, seconds=self.seconds)
        if result is None:
            return {"curve_s": [], "traced_curve_s": [], "layers": [], "rss": [], "digest": None}
        result["rss"] = [child.max_rss_mib]
        return result

    def cli_curves(self, seconds):
        from riskcurves.io_cli import load_result

        module = [sys.executable, "-m", "riskcurves"]
        times, rss, digest = [], [], None
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            for path in self.inputs.outputs:
                if os.path.exists(path):
                    os.remove(path)
            run = self._child(module + self.inputs.run_argv())
            report = self._child(module + self.inputs.report_argv())
            ok = self.ops.record("cli.feature_curve", run.code == 0,
                                 f"exit {run.code}: {run.output[-2000:]}")
            ok &= self.ops.record("cli.report", report.code == 0,
                                  f"exit {report.code}: {report.output[-2000:]}")
            if not ok:
                break
            try:
                check_cli_outputs(self.inputs, report.output, self.ops, load_result)
                this = workloads.output_digest(self.inputs)
            except Exception as exc:  # keep the run alive; the failure is counted
                self.ops.record("cli.outputs", False, f"{type(exc).__name__}: {exc}")
                break
            digest = digest or this
            self.ops.record("cli.outputs_repeat", this == digest, f"digest {this}")
            times.append(run.seconds + report.seconds)
            rss.append(max(run.max_rss_mib, report.max_rss_mib))
        return {"curve_s": times, "rss": rss, "digest": digest}

    def cli_workload(self):
        if not self.trace:
            return self.cli_curves(self.seconds)
        result = self.cli_curves(self.seconds / 2)
        _, traced = self._worker("cli-trace", "--spans", self.spans_path,
                                 seconds=self.seconds / 2)
        result.update(traced or {"traced_curve_s": [], "layers": []})
        return result

    # -- everything ---------------------------------------------------------

    def measure(self) -> dict:
        os.makedirs(self.work, exist_ok=True)
        try:
            if self.name == "cli-maxmargin":
                self.inputs = workloads.write_cli_inputs(self.work, self.seed, self.scale)
            setup = self.setup()
            probe = self.probe()
            curves = self.library() if self.inputs is None else self.cli_workload()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return self._report(setup, probe, curves)

    def _report(self, setup, probe, curves):
        ratios = [c["ratio"] for c in probe["cells"]]
        end_to_end = {
            "curve_s": statistics.median(curves["curve_s"]) if curves["curve_s"] else None,
            "setup_s": statistics.median(setup) if setup else None,
            "peak_rss_mb": statistics.median(curves["rss"]) if curves["rss"] else None,
            "mm_objective_ratio": statistics.fmean(ratios) if ratios else None,
        }
        layers = {}
        if self.trace and curves["layers"]:
            layers = {k: statistics.median(l[k] for l in curves["layers"]) for k in PER_LAYER}
            if end_to_end["curve_s"] is not None:
                layers["trace.overhead_s"] = (
                    statistics.median(curves["traced_curve_s"]) - end_to_end["curve_s"])
        failed = len(self.ops.failures)
        return {
            "workload": self.name,
            "seed": self.seed,
            "trace": self.trace,
            "curves": len(curves["curve_s"]),
            "curve_s_quartiles": _quartiles(curves["curve_s"]) if curves["curve_s"] else None,
            "traced_curves": len(curves.get("traced_curve_s", [])),
            "fits_per_curve": workloads.fits_per_curve(self.name, self.scale),
            "setup_runs": len(setup),
            "end_to_end": end_to_end,
            "mm_objective_excess": (end_to_end["mm_objective_ratio"] - 1.0) if ratios else None,
            "probe_cells": len(ratios),
            "probe_max_rel_gap": max((c["rel_gap"] for c in probe["cells"]), default=None),
            "layers": layers,
            "attempted": self.ops.attempted,
            "failed": failed,
            "fail_rate": failed / self.ops.attempted if self.ops.attempted else 1.0,
            "failures": self.ops.failures,
            "output_sha256": curves.get("digest"),
            "provenance": dict(probe["provenance"], seed=self.seed,
                               src_lines=src_line_count(self.root)),
        }


def measure(name, seed, seconds, trace, root, scale="full") -> dict:
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return Run(name, seed, seconds, trace, root, scale).measure()


def result_line(report) -> dict:
    """The final JSON object: end-to-end or per-layer metrics with units."""
    if report["trace"]:
        values, units = report["layers"], PER_LAYER
    else:
        values, units = report["end_to_end"], END_TO_END
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": values.get(k), "unit": u} for k, u in units.items()},
    }


def print_report(report):
    """Every metric by name with its unit, then the result line last."""
    e, q = report["end_to_end"], report["curve_s_quartiles"]
    rows = [
        ("curve_s", e["curve_s"], "s",
         f"median of {report['curves']} curves"
         + (f" (p25 {q[0]:.4f}, p75 {q[1]:.4f})" if q else "")
         + f"; {report['fits_per_curve']} fits per curve"),
        ("setup_s", e["setup_s"], "s", f"median of {report['setup_runs']} fresh interpreters"),
        ("peak_rss_mb", e["peak_rss_mb"], "MiB", "peak resident set of the measuring process"),
        ("mm_objective_ratio", e["mm_objective_ratio"], "ratio",
         f"mean hinge objective / certified optimum, {report['probe_cells']} probe cells"),
        ("mm_objective_excess", report["mm_objective_excess"], "ratio",
         f"mean relative excess; largest reference gap {report['probe_max_rel_gap']}"),
        ("fail_rate", report["fail_rate"], "ratio",
         f"{report['failed']} of {report['attempted']} operations failed"),
    ]
    lines = [f"perfbench {report['workload']} seed={report['seed']} trace={int(report['trace'])}"]
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<20} {shown:>12} {unit:<6} {note}")
    lines += [f"  {k:<28} {v:>14.6g} {PER_LAYER[k]}" for k, v in report["layers"].items()]
    lines.append(f"  output_sha256 {report['output_sha256']}")
    lines.append(f"  provenance {json.dumps(report['provenance'], sort_keys=True)}")
    lines += [f"  FAILED {failure}" for failure in report["failures"][:20]]
    lines.append(json.dumps(result_line(report)))
    print("\n".join(lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "riskcurves", "__init__.py")):
        print("perfbench: no src/riskcurves here; run from the repository root",
              file=sys.stderr)
        return 2
    print_report(measure(args.workload, args.seed, args.seconds, bool(args.trace), root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
