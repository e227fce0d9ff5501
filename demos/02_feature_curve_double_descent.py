#!/usr/bin/env python3
# The headline experiment: sweep the number of features N at a fixed
# training size n and watch the minimum-norm classifier's risk rise to a
# peak near N = n before descending a second time.  With the free bias the
# system [X, 1] is square at N + 1 = n, so on a one-step grid the peak sits
# at N = n - 1; on this grid it shows at 40, the grid point nearest 39.
#
# Scaled down (15 reps, 1000 test points) so it runs in a few seconds;
# the acceptance suite runs the full 50-rep version.

import os

import riskcurves as rc
from riskcurves.io_cli import emit_svg_plot

N_TRAIN = 40

spec = rc.SweepSpec(
    kind="feature_curve",
    grid=(5, 10, 20, 30, 36, 40, 44, 60, 80, 120),
    learners=(rc.Mnlr(),),
    data_source=rc.GaussianSpec(dim=120, informative=10, separation=2.5),
    fixed_n=N_TRAIN,
    test_size=1000,
    reps=15,
    base_seed=1,
)

print(f"sweeping N over {spec.grid} at fixed n = {N_TRAIN} ...")
result = rc.run_sweep(spec, workers=4)

print(f"\n{'N':>5}  {'mean risk':>10}  {'stderr':>8}")
for point in result.points:
    s = point.stats["mnlr"]
    marker = "  <- N = n" if point.x_value == N_TRAIN else ""
    print(f"{point.x_value:5.0f}  {s.mean_risk:10.4f}  {s.stderr_risk:8.4f}{marker}")

report = rc.detect_peak(result, "mnlr")
print(
    f"\npeak: x={report.peak_x:g}, mean risk {report.peak_mean:.3f}, "
    f"prominence {report.prominence:.3f}, at interpolation threshold: {report.at_interpolation}"
)

os.makedirs("demos/output", exist_ok=True)
emit_svg_plot(result, "demos/output/feature_curve.svg")
print("plot written to demos/output/feature_curve.svg")
