"""Operation accounting and the correctness checks run on every curve.

An operation is a sweep, a CLI invocation, a set-up interpreter, a
max-margin probe cell or one correctness check.  A failure is recorded with
its reason and never escapes as a traceback.
"""

import math
import os

import workloads


class Ops:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def call(self, name, fn, *args, **kwargs):
        """Run one operation; on an exception record it and return None."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is a measurement, not a crash
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.record(name, True)
        return result

    def merge(self, attempted, failures):
        self.attempted += attempted
        self.failures.extend(failures)


def check_library(name, results, ops, detect_peak):
    """Peak placement and risk range of one finished library curve."""
    if name == "mnlr-curves":
        for result in results:
            kind = result.spec.kind.value
            peak = ops.call(f"{kind}.peak", detect_peak, result, "mnlr")
            if peak is not None:
                ops.record(f"{kind}.peak_at_interpolation", peak.at_interpolation,
                           f"mnlr peak at {peak.peak_x:g}")
            risks = [r for per_point in result.rep_risks["mnlr"] for r in per_point]
            risks += [p.stats["mnlr"].mean_risk for p in result.points]
            ops.record(f"{kind}.risks_in_unit_interval",
                       all(math.isfinite(r) and 0.0 <= r <= 1.0 for r in risks),
                       f"risk range [{min(risks)}, {max(risks)}]")
        return
    result = results[0]
    peak = ops.call("feature_curve.peak", detect_peak, result, "mnlr")
    if peak is not None:
        ops.record("feature_curve.mnlr_peak_at_40", peak.peak_x == workloads.N_TRAIN,
                   f"mnlr peak at {peak.peak_x:g}")
    at_n = next(p for p in result.points if p.x_value == workloads.N_TRAIN).stats
    ridge = at_n[f"ridge({workloads.RIDGE_LAM:g})"].mean_risk
    ops.record("feature_curve.ridge_below_mnlr_at_40", ridge < at_n["mnlr"].mean_risk,
               f"ridge {ridge} vs mnlr {at_n['mnlr'].mean_risk}")


def _check_csv_matches(result, path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    expected = [
        (p.x_value, name, p.stats[name])
        for p in sorted(result.points, key=lambda p: p.x_value)
        for name in sorted(p.stats)
    ]
    if len(rows) != len(expected):
        raise ValueError(f"{len(rows)} CSV rows, {len(expected)} in the JSON")
    for row, (x, name, s) in zip(rows, expected):
        got = (float(row[2]), row[3], int(row[4]), [float(v) for v in row[5:10]], int(row[10]))
        want = (x, name, s.rep_count,
                [s.mean_risk, s.std_risk, s.stderr_risk, s.min_risk, s.max_risk],
                result.spec.base_seed)
        if got != want:
            raise ValueError(f"CSV row {got} differs from the JSON {want}")


def check_cli_outputs(paths, report_text, ops, load_result):
    """Outputs exist, the JSON reloads and matches the CSV, mnlr peaks at n."""
    missing = [p for p in paths.outputs if not os.path.isfile(p)]
    if not ops.record("cli.outputs_exist", not missing, f"missing {missing}"):
        return
    result = ops.call("cli.load_result", load_result, paths.out_json)
    if result is not None:
        ops.call("cli.json_matches_csv", _check_csv_matches, result, paths.out_csv)
    lines = [l for l in report_text.splitlines() if l.startswith("mnlr:")]
    ops.record("cli.report_mnlr_at_interpolation",
               len(lines) == 1 and "at_interpolation=true" in lines[0],
               f"report line {lines}")
