#!/usr/bin/env python3
# The same peak seen from two other angles: sweep the training size n at a
# fixed dimension (learning curve), then sweep the ratio alpha = n/N.  More
# training data is not always better for the pseudo-inverse solution: the
# risk is worst exactly where n catches up with N.

import os

import riskcurves as rc
from riskcurves.io_cli import emit_svg_plot

DATA = rc.GaussianSpec(dim=120, informative=10, separation=2.5)

learning = rc.run_sweep(
    rc.SweepSpec(
        kind="learning_curve",
        grid=(8, 16, 24, 32, 40, 48, 64, 96, 120),
        learners=(rc.Mnlr(),),
        data_source=DATA,
        fixed_N=40,
        test_size=1000,
        reps=15,
        base_seed=2,
    ),
    workers=4,
)
print("learning curve at fixed N = 40:")
for point in learning.points:
    s = point.stats["mnlr"]
    bar = "#" * int(60 * s.mean_risk)
    print(f"  n={point.x_value:4.0f}  {s.mean_risk:6.3f}  {bar}")
print(f"  -> {rc.detect_peak(learning, 'mnlr')}")

alpha = rc.run_sweep(
    rc.SweepSpec(
        kind="alpha_curve",
        grid=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0),
        learners=(rc.Mnlr(),),
        data_source=DATA,
        fixed_N=40,
        test_size=1000,
        reps=15,
        base_seed=2,
    ),
    workers=4,
)
print("\nalpha curve (n = round(alpha * 40)):")
for point in alpha.points:
    s = point.stats["mnlr"]
    n = rc.alpha_train_size(point.x_value, 40)
    bar = "#" * int(60 * s.mean_risk)
    print(f"  alpha={point.x_value:4.2f} (n={n:3d})  {s.mean_risk:6.3f}  {bar}")
print(f"  -> {rc.detect_peak(alpha, 'mnlr')}")

os.makedirs("demos/output", exist_ok=True)
emit_svg_plot(learning, "demos/output/learning_curve.svg")
emit_svg_plot(alpha, "demos/output/alpha_curve.svg")
print("\nplots written to demos/output/learning_curve.svg and alpha_curve.svg")
