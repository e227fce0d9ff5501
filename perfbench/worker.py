"""Fresh-interpreter side of the benchmark; started by ``run.py``.

Modes (the result is written as JSON to ``--out``):

* ``setup``   -- import riskcurves and validate the workload's sweep specs,
  or for the CLI workload load its config; nothing else.  Timed from spawn
  to exit by the caller.
* ``library`` -- run one library workload's curve back to back for
  ``--seconds``; with ``--trace`` alternate untraced and traced curves.
* ``cli-trace`` -- the CLI workload in-process through ``cli_main``, traced.
* ``probe``   -- max-margin objective against certified optima, and the
  environment's provenance.

Top-level imports are standard library only, so ``setup`` times the package.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time

import workloads
from checks import Ops, check_cli_outputs, check_library


def _setup(args, scale):
    if args.workload in workloads.LIBRARY:
        workloads.library_sweeps(args.workload, args.seed, scale)
    else:
        from riskcurves.io_cli import load_config

        load_config(args.config)
    return {}


def _traced(tracer, name, fn):
    """``fn`` inside a span called ``name`` when tracing."""
    if tracer is None:
        return fn
    return lambda *a, **k: tracer.run(name, fn, *a, **k)


def _library(args, scale):
    import riskcurves as rc
    from tracer import Tracer, layer_metrics

    sweeps = workloads.library_sweeps(args.workload, args.seed, scale)
    ops = Ops()
    tracer = Tracer() if args.trace else None
    out = {"curve_s": [], "traced_curve_s": [], "layers": [], "digest": None}
    spans = []

    def curve(tr):
        if tr is not None:
            tr.install()
        try:
            t0 = time.perf_counter()
            results = []
            for runner, spec in sweeps:
                result = ops.call(f"{spec.kind.value}.sweep", _traced(tr, "curves.sweep", runner),
                                  spec, keep_reps=True, workers=1)
                if result is None:
                    return False
                results.append(result)
            elapsed = time.perf_counter() - t0
            check_library(args.workload, results, ops, _traced(tr, "curves.peak", rc.detect_peak))
        finally:
            if tr is not None:
                tr.uninstall()
        digest = workloads.rep_risk_digest(results)
        out["digest"] = out["digest"] or digest
        ops.record("rep_risks_repeat", digest == out["digest"], f"digest {digest}")
        if tr is None:
            out["curve_s"].append(elapsed)
        else:
            out["traced_curve_s"].append(elapsed)
            got, counts = tr.take()
            out["layers"].append(layer_metrics(got, counts))
            spans.extend(dict(s, iteration=len(out["layers"])) for s in got)
        return True

    start = time.perf_counter()
    while not out["curve_s"] or time.perf_counter() - start < args.seconds:
        try:
            if not (curve(None) and (tracer is None or curve(tracer))):
                break
        except Exception as exc:  # keep the run alive; the failure is counted
            ops.record("curve", False, f"{type(exc).__name__}: {exc}")
            break
    if tracer is not None:
        _write_spans(args.spans, spans)
    out.update(attempted=ops.attempted, failures=ops.failures)
    return out


def _cli_trace(args, scale):
    from riskcurves.io_cli import cli_main, load_result
    from tracer import Tracer, layer_metrics

    paths = workloads.CliInputs.in_dir(os.path.dirname(args.config))
    ops = Ops()
    tracer = Tracer()
    out = {"traced_curve_s": [], "layers": []}
    spans = []
    start = time.perf_counter()
    tracer.install()
    try:
        while not out["traced_curve_s"] or time.perf_counter() - start < args.seconds:
            for path in paths.outputs:
                if os.path.exists(path):
                    os.remove(path)
            sink, report = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = tracer.run("io_cli.cli", cli_main, paths.run_argv())
            with contextlib.redirect_stdout(report), contextlib.redirect_stderr(sink):
                report_code = tracer.run("io_cli.report", cli_main, paths.report_argv())
            elapsed = time.perf_counter() - t0
            ok = ops.record("cli.feature_curve", code == 0, f"exit {code}: {sink.getvalue()}")
            ok &= ops.record("cli.report", report_code == 0, f"exit {report_code}")
            got, counts = tracer.take()
            if not ok:
                break
            check_cli_outputs(paths, report.getvalue(), ops, load_result)
            layers = layer_metrics(got, counts)
            layers["io_cli.bytes_written"] = float(sum(os.path.getsize(p) for p in paths.outputs))
            out["traced_curve_s"].append(elapsed)
            out["layers"].append(layers)
            spans.extend(dict(s, iteration=len(out["layers"])) for s in got)
    except Exception as exc:  # keep the run alive; the failure is counted
        ops.record("cli.traced_curve", False, f"{type(exc).__name__}: {exc}")
    finally:
        tracer.uninstall()
    _write_spans(args.spans, spans)
    out.update(attempted=ops.attempted, failures=ops.failures)
    return out


def _write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _probe(args, scale):
    import platform

    import numpy as np
    import riskcurves as rc
    import reference

    spec = rc.MaxMargin(**{k: v for k, v in workloads.MAX_MARGIN.items() if k != "kind"})
    ops = Ops()
    cells = []
    for n_feat, x, y in workloads.probe_cells(scale):
        model = ops.call(f"probe N={n_feat} fit", rc.fit, spec, x, y)
        ref = reference.solve(x, y, spec.c)
        if not ops.record(f"probe N={n_feat} certificate", ref.certified,
                          f"gap {ref.rel_gap:.3g}, |y^T a|/c {ref.eq_residual:.3g}"):
            continue
        if model is not None:
            obj = rc.hinge_objective(model, x, y, spec.c)
            cells.append({"N": n_feat, "objective": obj, "optimum": ref.primal,
                          "rel_gap": ref.rel_gap, "ratio": obj / ref.primal})
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cells": cells,
        "attempted": ops.attempted,
        "failures": ops.failures,
        "provenance": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "thread_env": {k: os.environ[k] for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                           if k in os.environ},
            "nproc": len(os.sched_getaffinity(0)),
        },
    }


MODES = {"setup": _setup, "library": _library, "cli-trace": _cli_trace, "probe": _probe}


def main(argv):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=MODES)
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=workloads.SCALES, default="full")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--config")
    p.add_argument("--spans")
    p.add_argument("--out")
    args = p.parse_args(argv)
    result = MODES[args.mode](args, workloads.SCALES[args.scale])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
