"""Workload definitions: every input the benchmark hands to the package.

All inputs derive from the workload seed, except the max-margin probe cells,
which use a fixed seed so that ``mm_objective_ratio`` is a property of the
solver alone (drawn per workload seed, its mean moves by more than half of
its median from seed to seed).

Why these workloads:

* ``mnlr-curves`` -- MNLR alone through the feature, learning and alpha
  entry points.  The SVDs are tiny, so harness overhead, validation copies
  and the per-rep test draw dominate; the max-margin solver and the thread
  pool are not used.  Runnable, but not listed in ``BENCHMARK.json``: on a
  2-vCPU host whose speed drifted by up to 1.8x, the spread of its median
  ``curve_s`` over 10 seeds reached 0.22 of the median.
* ``closed-form`` -- one feature curve with the four closed-form learners on
  paired data.  The SVDs (mostly the whitening SVD of the pooled unlabeled
  matrix) dominate.
* ``cli-maxmargin`` -- the command line end to end: strict config, CSV
  ingest with standardization, the threaded rep path, CSV/JSON/SVG emission
  and ``report``.  The max-margin solver dominates.
"""

import hashlib
import json
import os
from dataclasses import dataclass

WORKLOADS = ("mnlr-curves", "closed-form", "cli-maxmargin")
LIBRARY = ("mnlr-curves", "closed-form")

FEATURE_GRID = (5, 10, 20, 30, 36, 40, 44, 60, 80, 120)
LEARNING_GRID = (8, 16, 24, 32, 40, 48, 64, 96, 120)
ALPHA_GRID = (0.25, 0.5, 0.75, 1, 1.25, 1.5, 2)
GAUSSIAN = {"dim": 120, "informative": 10, "separation": 2.5}
N_TRAIN = 40      # fixed_n of the feature curves and fixed_N of the others
RIDGE_LAM = 0.1
UNLABELED = 400
MAX_MARGIN = {"kind": "max_margin", "max_iters": 2000}
CLI_WORKERS = 2

PROBE_SEED = 2004
POSITIVE, NEGATIVE = "signal", "background"


@dataclass(frozen=True)
class Scale:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` its own tests."""

    reps: dict
    test_size: int
    setup_probes: int
    probe_draws: int
    probe_grid: tuple


FULL = Scale(
    reps={"mnlr-curves": 20, "closed-form": 20, "cli-maxmargin": 3},
    test_size=2000,
    setup_probes=11,
    probe_draws=2,
    probe_grid=FEATURE_GRID,
)
TINY = Scale(
    reps={"mnlr-curves": 3, "closed-form": 3, "cli-maxmargin": 2},
    test_size=400,
    setup_probes=1,
    probe_draws=1,
    probe_grid=(10, 40, 120),
)
SCALES = {"full": FULL, "tiny": TINY}


def _class_mean(np):
    """+mu of the two Gaussian classes at +-mu (``GaussianSpec.mean_vector``)."""
    mu = np.zeros(GAUSSIAN["dim"])
    k = GAUSSIAN["informative"]
    mu[:k] = GAUSSIAN["separation"] / np.sqrt(k)
    return mu


def fits_per_curve(name: str, scale: Scale) -> int:
    """Input size of one finished curve: grid points x learners x reps."""
    reps = scale.reps[name]
    if name == "mnlr-curves":
        return (len(FEATURE_GRID) + len(LEARNING_GRID) + len(ALPHA_GRID)) * reps
    return len(FEATURE_GRID) * (4 if name == "closed-form" else 2) * reps


# --------------------------------------------------------------------------
# Library workloads: built in the measuring interpreter.


def library_sweeps(name: str, seed: int, scale: Scale):
    """``[(entry_point, SweepSpec), ...]`` for one curve of a library workload."""
    import riskcurves as rc

    source = rc.GaussianSpec(**GAUSSIAN)
    common = dict(data_source=source, test_size=scale.test_size,
                  reps=scale.reps[name], base_seed=seed)
    if name == "mnlr-curves":
        mnlr = (rc.Mnlr(),)
        return [
            (rc.run_feature_curve, rc.SweepSpec(kind="feature_curve", grid=FEATURE_GRID,
                                                learners=mnlr, fixed_n=N_TRAIN, **common)),
            (rc.run_learning_curve, rc.SweepSpec(kind="learning_curve", grid=LEARNING_GRID,
                                                 learners=mnlr, fixed_N=N_TRAIN, **common)),
            (rc.run_alpha_curve, rc.SweepSpec(kind="alpha_curve", grid=ALPHA_GRID,
                                              learners=mnlr, fixed_N=N_TRAIN, **common)),
        ]
    if name == "closed-form":
        learners = (rc.Mnlr(), rc.Pfld(), rc.Ridge(lam=RIDGE_LAM), rc.SemiSupPfld(UNLABELED))
        return [
            (rc.run_feature_curve, rc.SweepSpec(kind="feature_curve", grid=FEATURE_GRID,
                                                learners=learners, fixed_n=N_TRAIN, **common)),
        ]
    raise ValueError(f"{name} is not a library workload")


def rep_risk_digest(results) -> str:
    """SHA-256 of the per-rep risks of a list of results, in a fixed order."""
    import numpy as np

    h = hashlib.sha256()
    for result in results:
        for label in sorted(result.rep_risks):
            h.update(label.encode())
            h.update(np.asarray(result.rep_risks[label], dtype="<f8").tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# CLI workload: a CSV file and a strict config, written before timing.


@dataclass(frozen=True)
class CliInputs:
    csv: str
    config: str
    out_csv: str
    out_json: str
    out_svg: str

    @classmethod
    def in_dir(cls, workdir):
        return cls(*(os.path.join(workdir, f) for f in
                     ("data.csv", "config.json", "curve.csv", "curve.json", "curve.svg")))

    @property
    def outputs(self):
        return (self.out_csv, self.out_csv + ".reps.csv", self.out_json, self.out_svg)

    def run_argv(self):
        return ["feature-curve", "--config", self.config,
                "--workers", str(CLI_WORKERS), "--keep-reps"]

    def report_argv(self):
        return ["report", "--in", self.out_json]


def write_cli_inputs(workdir: str, seed: int, scale: Scale) -> CliInputs:
    """Two Gaussian classes in 120 columns, 40 train rows plus the test set."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = N_TRAIN + scale.test_size
    half = rows // 2
    dim, mu = GAUSSIAN["dim"], _class_mean(np)
    x = np.vstack([rng.standard_normal((half, dim)) + mu,
                   rng.standard_normal((rows - half, dim)) - mu])
    labels = [POSITIVE] * half + [NEGATIVE] * (rows - half)
    order = rng.permutation(rows)

    paths = CliInputs.in_dir(workdir)
    header = ",".join([f"f{j}" for j in range(dim)] + ["label"])
    with open(paths.csv, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for i in order:
            fh.write(",".join(f"{v:.6f}" for v in x[i]) + f",{labels[i]}\n")
    config = {
        "kind": "feature_curve",
        "grid": list(FEATURE_GRID),
        "seed": seed,
        "learners": [{"kind": "mnlr"}, MAX_MARGIN],
        "fixed_n": N_TRAIN,
        "test_size": scale.test_size,
        "reps": scale.reps["cli-maxmargin"],
        "data": {"source": "csv", "path": paths.csv, "label_column": "label",
                 "positive_label": POSITIVE, "standardize": True},
        "out_csv": paths.out_csv,
        "out_json": paths.out_json,
        "out_svg": paths.out_svg,
    }
    with open(paths.config, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return paths


def output_digest(paths: CliInputs) -> str:
    """SHA-256 of the emitted CSV, per-rep CSV and JSON bytes."""
    h = hashlib.sha256()
    for path in paths.outputs[:3]:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# --------------------------------------------------------------------------
# Max-margin probe cells.


def probe_cells(scale: Scale):
    """Yield ``(N, x, y)``: N-column slices of fixed 40-row Gaussian draws."""
    import numpy as np

    rng = np.random.default_rng(PROBE_SEED)
    dim, mu = GAUSSIAN["dim"], _class_mean(np)
    half = N_TRAIN // 2
    y = np.concatenate([np.ones(half, dtype=np.int64), -np.ones(half, dtype=np.int64)])
    for _ in range(scale.probe_draws):
        x = np.vstack([rng.standard_normal((half, dim)) + mu,
                       rng.standard_normal((half, dim)) - mu])
        for n_feat in scale.probe_grid:
            yield n_feat, x[:, :n_feat], y
