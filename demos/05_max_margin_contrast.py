#!/usr/bin/env python3
# Not every linear classifier peaks.  The soft-margin (hinge loss) learner
# trained on the same data streams stays flat through N = n, because its
# solution norm does not blow up at the interpolation threshold.

import os

import riskcurves as rc
from riskcurves.io_cli import emit_svg_plot

spec = rc.SweepSpec(
    kind="feature_curve",
    grid=(5, 10, 20, 30, 40, 50, 80, 120),
    learners=(rc.Mnlr(), rc.MaxMargin(max_iters=2000)),
    data_source=rc.GaussianSpec(dim=120, informative=10, separation=2.5),
    fixed_n=40,
    test_size=1000,
    reps=10,
    base_seed=6,
)
print("fitting MNLR and the max-margin learner on identical data ...")
result = rc.run_sweep(spec, workers=4)

print(f"\n{'N':>5}  {'mnlr':>8}  {'max_margin':>10}")
for point in result.points:
    print(
        f"{point.x_value:5.0f}  {point.stats['mnlr'].mean_risk:8.3f}  "
        f"{point.stats['max_margin'].mean_risk:10.3f}"
    )

for name in ("mnlr", "max_margin"):
    report = rc.detect_peak(result, name)
    print(f"\n{name}: prominence {report.prominence:.3f} at x={report.peak_x:g} "
          f"(at threshold: {report.at_interpolation})")

os.makedirs("demos/output", exist_ok=True)
emit_svg_plot(result, "demos/output/max_margin_contrast.svg")
print("\nplot written to demos/output/max_margin_contrast.svg")
