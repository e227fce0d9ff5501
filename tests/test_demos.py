"""Each demo script runs to completion and writes the files it announces,
byte for byte equal to the copies committed under ``demos/output``; a demo
with a committed transcript ``demos/output/<demo>.txt`` prints it exactly."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# demo -> files it writes under demos/output, relative to its working directory
OUTPUTS = {
    "01_minimum_norm_solvers.py": (),
    "02_feature_curve_double_descent.py": ("feature_curve.svg",),
    "03_learning_and_alpha_curves.py": ("learning_curve.svg", "alpha_curve.svg"),
    "04_taming_the_peak.py": (),
    "05_max_margin_contrast.py": ("max_margin_contrast.svg",),
    "06_csv_and_cli_workflow.py": (
        "toy.csv", "toy_config.json", "toy_curve.csv", "toy_curve.json", "toy_curve.svg",
    ),
}


def test_every_demo_is_listed():
    found = {os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "demos", "0*.py"))}
    assert found == set(OUTPUTS)


@pytest.mark.parametrize("demo", sorted(OUTPUTS))
def test_demo_runs_and_writes_its_files(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    transcript = os.path.join(ROOT, "demos", "output", demo[: -len(".py")] + ".txt")
    if os.path.exists(transcript):
        with open(transcript, encoding="utf-8", newline="") as fh:
            assert proc.stdout == fh.read()
    for name in OUTPUTS[demo]:
        with open(os.path.join(ROOT, "demos", "output", name), "rb") as fh:
            assert (tmp_path / "demos" / "output" / name).read_bytes() == fh.read(), name
