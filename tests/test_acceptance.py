"""Acceptance suite: one test per criterion, each printing a pass/fail line
(visible with ``pytest tests/test_acceptance.py -v -s``).

Monte Carlo criteria use the benchmark family: 120-dimensional two-Gaussian
data with 10 informative coordinates at separation 2.5, held-out test sets
of 2000 points, and a fixed base seed, so every run is reproducible.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from oracles import SingularSystem, analytic_gaussian_risk, min_norm_bruteforce, normal_equation_solve

import riskcurves as rc
from riskcurves.curves import SEED_AUGMENT, SEED_SPLIT, mix
from riskcurves.data import split_indices

BENCH_SEED = 20260808
BENCH = rc.GaussianSpec(dim=120, informative=10, separation=2.5)
TEST_SIZE = 2000
FEATURE_GRID = (5, 10, 20, 30, 36, 40, 44, 60, 80, 120)
REPS = 50


def _check(cid: str, description: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {cid} {description}: {status} ({detail})")
    assert ok, f"{cid} {description}: {detail}"


def _combined_se(sa: float, sb: float) -> float:
    return float(np.sqrt(sa * sa + sb * sb))


def _stats(result, learner, x):
    point = next(p for p in result.points if p.x_value == x)
    return point.stats[learner]


# --------------------------------------------------------------------------
# Shared Monte Carlo runs.


@pytest.fixture(scope="session")
def feature_bench():
    """Feature curve shared by criteria 3, 4, 7 and 9 (one data stream)."""
    spec = rc.SweepSpec(
        kind="feature_curve",
        grid=FEATURE_GRID,
        learners=(rc.Mnlr(), rc.Ridge(lam=0.1), rc.MaxMargin(max_iters=2000)),
        data_source=BENCH,
        fixed_n=40,
        test_size=TEST_SIZE,
        reps=REPS,
        base_seed=BENCH_SEED,
    )
    t0 = time.perf_counter()
    result = rc.run_feature_curve(spec, keep_reps=True)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def alpha_bench():
    spec = rc.SweepSpec(
        kind="alpha_curve",
        grid=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0),
        learners=(rc.Mnlr(),),
        data_source=BENCH,
        fixed_N=40,
        test_size=TEST_SIZE,
        reps=REPS,
        base_seed=BENCH_SEED,
    )
    t0 = time.perf_counter()
    result = rc.run_alpha_curve(spec)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def learning_bench():
    spec = rc.SweepSpec(
        kind="learning_curve",
        grid=(8, 16, 24, 32, 40, 48, 64, 96, 120),
        learners=(rc.Mnlr(),),
        data_source=BENCH,
        fixed_N=40,
        test_size=TEST_SIZE,
        reps=REPS,
        base_seed=BENCH_SEED,
    )
    t0 = time.perf_counter()
    result = rc.run_learning_curve(spec)
    return result, time.perf_counter() - t0


# --------------------------------------------------------------------------
# Criteria.


def test_c01_solver_matches_normal_equation_oracle():
    rng = np.random.default_rng(mix(BENCH_SEED, 1))
    t0 = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 100:
        cols = int(rng.integers(1, 11))
        rows = int(rng.integers(cols + 1, 21))
        a = rng.standard_normal((rows, cols))
        b = rng.standard_normal(rows)
        try:
            reference = normal_equation_solve(a, b)
        except SingularSystem:  # pragma: no cover - Gaussian inputs
            continue
        gap = float(np.max(np.abs(rc.min_norm_least_squares(a, b) - reference)))
        worst = max(worst, gap)
        done += 1
    elapsed = time.perf_counter() - t0
    _check(
        "C01",
        "pseudo-inverse solver matches the normal-equation oracle",
        worst <= 1e-8 and elapsed < 5.0,
        f"worst componentwise gap {worst:.2e} over 100 systems in {elapsed:.2f}s",
    )


def test_c02_minimum_norm_verified_by_brute_force():
    rng = np.random.default_rng(mix(BENCH_SEED, 2))
    candidates_by_nullity = {1: 601, 2: 121, 3: 41, 4: 21}
    t0 = time.perf_counter()
    done = 0
    worst_margin = np.inf
    while done < 50:
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(rows + 1, min(rows + 4, 6) + 1))  # nullity 1..4
        a = rng.standard_normal((rows, cols))
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] < 0.3:  # keep the systems well-conditioned
            continue
        b = a @ rng.uniform(-1.0, 1.0, size=cols)
        w = rc.min_norm_least_squares(a, b)
        w_norm = float(np.linalg.norm(w))
        _, s, vt = np.linalg.svd(a)
        null = vt[np.sum(s > 1e-10 * s[0]) :]
        for _ in range(5):
            v = null.T @ rng.standard_normal(null.shape[0])
            v *= rng.uniform(1e-6, 3.0) / np.linalg.norm(v)
            assert np.linalg.norm(w + v) > w_norm, "null-space perturbation must grow the norm"
        candidates = candidates_by_nullity[null.shape[0]]
        bf = min_norm_bruteforce(a, b, candidates)
        step = 6.0 / (candidates - 1)
        margin = float(np.linalg.norm(bf)) - (w_norm - step)
        worst_margin = min(worst_margin, margin)
        done += 1
    elapsed = time.perf_counter() - t0
    _check(
        "C02",
        "no exact solution beats the pseudo-inverse norm (brute force)",
        worst_margin >= 0.0 and elapsed < 30.0,
        f"worst margin {worst_margin:.2e} over 50 systems in {elapsed:.1f}s",
    )


def test_c03_feature_curve_peaks_at_interpolation(feature_bench):
    result, elapsed = feature_bench
    s20, s40, s120 = (_stats(result, "mnlr", x) for x in (20.0, 40.0, 120.0))
    gap_low = s40.mean_risk - s20.mean_risk
    gap_high = s40.mean_risk - s120.mean_risk
    report = rc.detect_peak(result, "mnlr")
    ok = (
        gap_low > 2.0 * _combined_se(s40.stderr_risk, s20.stderr_risk)
        and gap_high > 2.0 * _combined_se(s40.stderr_risk, s120.stderr_risk)
        and report.at_interpolation
        and elapsed < 120.0
    )
    _check(
        "C03",
        "feature curve peaks at N=n",
        ok,
        f"risk(40)={s40.mean_risk:.3f} vs risk(20)={s20.mean_risk:.3f}, "
        f"risk(120)={s120.mean_risk:.3f}; peak_x={report.peak_x:g}, run {elapsed:.0f}s",
    )


def test_c04_second_descent_past_threshold(feature_bench):
    result, _ = feature_bench
    s44, s120 = _stats(result, "mnlr", 44.0), _stats(result, "mnlr", 120.0)
    gap = s44.mean_risk - s120.mean_risk
    bound = 2.0 * _combined_se(s44.stderr_risk, s120.stderr_risk)
    _check(
        "C04",
        "risk keeps falling past the threshold",
        gap > bound,
        f"risk(44)={s44.mean_risk:.3f} > risk(120)={s120.mean_risk:.3f}, gap {gap:.3f} > {bound:.3f}",
    )


def test_c05_alpha_curve_peaks_at_one(alpha_bench):
    result, elapsed = alpha_bench
    means = {p.x_value: p.stats["mnlr"].mean_risk for p in result.points}
    argmax = max(means, key=means.get)
    report = rc.detect_peak(result, "mnlr")
    ok = argmax in (0.75, 1.0, 1.25) and report.at_interpolation and elapsed < 120.0
    _check(
        "C05",
        "alpha curve risk is largest at alpha=1",
        ok,
        f"argmax at alpha={argmax:g} (risk {means[argmax]:.3f}), "
        f"peak report at threshold: {report.at_interpolation}, run {elapsed:.0f}s",
    )


def test_c06_learning_curve_peaks_at_fixed_dimension(learning_bench):
    result, elapsed = learning_bench
    means = {p.x_value: p.stats["mnlr"].mean_risk for p in result.points}
    argmax = max(means, key=means.get)
    _check(
        "C06",
        "learning curve risk is largest at n=N",
        argmax in (32.0, 40.0, 48.0),
        f"argmax at n={argmax:g} (risk {means[argmax]:.3f}), run {elapsed:.0f}s",
    )


def test_c07_ridge_flattens_the_peak(feature_bench):
    result, _ = feature_bench
    idx40 = FEATURE_GRID.index(40)
    mnlr = np.array(result.rep_risks["mnlr"][idx40])
    ridge = np.array(result.rep_risks["ridge(0.1)"][idx40])
    diff = mnlr - ridge  # shared data per rep, so pair the comparison
    se = float(diff.std(ddof=1) / np.sqrt(len(diff)))
    _check(
        "C07",
        "ridge regularization lowers the peak risk",
        float(diff.mean()) > 2.0 * se,
        f"paired mean drop {diff.mean():.3f} > 2*stderr {2*se:.3f} at N=40",
    )


def test_c08_random_features_relieve_the_peak(feature_bench):
    result, _ = feature_bench
    idx40 = FEATURE_GRID.index(40)
    base = np.array(result.rep_risks["mnlr"][idx40])
    augmented = []
    for rep in range(REPS):
        pool = rc.gen_two_gaussians(BENCH, 40 + TEST_SIZE, mix(BENCH_SEED, rep))
        tr, te = split_indices(pool.y, 40, mix(BENCH_SEED, rep, SEED_SPLIT))
        tr40 = rc.Dataset(pool.x[tr, :40], pool.y[tr])
        te40 = rc.Dataset(pool.x[te, :40], pool.y[te])
        tr_aug = rc.append_random_features(tr40, 40, 1.0, mix(BENCH_SEED, rep, SEED_AUGMENT))
        te_aug = rc.append_random_features(te40, 40, 1.0, mix(BENCH_SEED, rep, SEED_AUGMENT, 1))
        model = rc.fit(rc.Mnlr(), tr_aug.x, tr_aug.y)
        augmented.append(rc.zero_one_risk(rc.predict(model, te_aug.x), te_aug.y))
    augmented = np.array(augmented)
    gap = float(base.mean() - augmented.mean())
    bound = 2.0 * _combined_se(
        float(base.std(ddof=1) / np.sqrt(REPS)),
        float(augmented.std(ddof=1) / np.sqrt(REPS)),
    )
    _check(
        "C08",
        "40 random noise features lower the risk at N=n=40",
        gap > bound,
        f"risk {base.mean():.3f} -> {augmented.mean():.3f}, gap {gap:.3f} > {bound:.3f}",
    )


def _prominence_at(means: list, idx: int) -> float:
    if idx <= 0 or idx >= len(means) - 1:
        return 0.0
    if not (means[idx] > means[idx - 1] and means[idx] > means[idx + 1]):
        return 0.0
    j = idx - 1
    while j - 1 >= 0 and means[j - 1] < means[j]:
        j -= 1
    left = means[j]
    j = idx + 1
    while j + 1 < len(means) and means[j + 1] < means[j]:
        j += 1
    return means[idx] - max(left, means[j])


def test_c09_max_margin_curve_shows_no_peak(feature_bench):
    result, _ = feature_bench
    means = [p.stats["max_margin"].mean_risk for p in result.points]
    idx40 = FEATURE_GRID.index(40)
    prominence = _prominence_at(means, idx40)
    stderr = result.points[idx40].stats["max_margin"].stderr_risk
    _check(
        "C09",
        "max-margin curve has no significant peak at N=n",
        prominence < 2.0 * stderr,
        f"prominence {prominence:.4f} < 2*stderr {2*stderr:.4f} at N=40",
    )


def test_c10_analytic_risk_agrees_with_monte_carlo():
    rng = np.random.default_rng(mix(BENCH_SEED, 10))
    n = 100_000
    half = n // 2
    worst_ratio = 0.0
    for _ in range(20):
        mu = rng.standard_normal(10)
        mu *= rng.uniform(0.6, 1.5) / np.linalg.norm(mu)
        model = rc.LinearModel(weights=rng.standard_normal(10), bias=float(rng.normal(0.0, 0.5)))
        p = analytic_gaussian_risk(model, mu)
        x = np.vstack(
            [rng.standard_normal((half, 10)) + mu, rng.standard_normal((half, 10)) - mu]
        )
        y = np.concatenate([np.ones(half, dtype=int), -np.ones(half, dtype=int)])
        emp = rc.zero_one_risk(rc.predict(model, x), y)
        tol = 3.0 * np.sqrt(p * (1.0 - p) / n)
        worst_ratio = max(worst_ratio, abs(emp - p) / tol)
    _check(
        "C10",
        "closed-form risk matches Monte Carlo on 1e5 points",
        worst_ratio <= 1.0,
        f"worst |empirical-analytic| at {worst_ratio:.2f} of the 3-sigma budget over 20 models",
    )


def test_c11_cli_runs_are_byte_identical(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(
        """
        {
          "kind": "alpha_curve",
          "grid": [0.5, 1.0, 1.5],
          "seed": 7,
          "learners": [{"kind": "mnlr"}, {"kind": "max_margin", "max_iters": 2000}],
          "fixed_N": 12,
          "test_size": 182,
          "reps": 6,
          "data": {"source": "gaussian", "dim": 16, "informative": 4, "separation": 2.0}
        }
        """,
        encoding="utf-8",
    )
    env = dict(os.environ)  # the children import the package this process imported
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(rc.__file__)), env.get("PYTHONPATH")) if p
    )
    outputs = {}
    for tag, extra in (("a", []), ("b", []), ("c", ["--workers", "4"])):
        cmd = [
            sys.executable, "-m", "riskcurves", "alpha-curve",
            "--config", str(config), "--seed", "7",
            "--out-csv", str(tmp_path / f"{tag}.csv"),
            "--out-json", str(tmp_path / f"{tag}.json"),
            *extra,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs[tag] = (
            (tmp_path / f"{tag}.csv").read_bytes(),
            (tmp_path / f"{tag}.json").read_bytes(),
        )
    ok = outputs["a"] == outputs["b"] == outputs["c"]
    _check(
        "C11",
        "repeated CLI runs produce byte-identical CSV/JSON, serial or parallel",
        ok,
        f"3 runs compared, {len(outputs['a'][0])}-byte CSV and {len(outputs['a'][1])}-byte JSON",
    )


def test_c12_semisupervised_effect_is_resolved_and_reported():
    spec = rc.SweepSpec(
        kind="feature_curve",
        grid=(40,),
        learners=(rc.Pfld(), rc.SemiSupPfld(unlabeled_count=400)),
        data_source=BENCH,
        fixed_n=40,
        test_size=TEST_SIZE,
        reps=100,
        base_seed=BENCH_SEED,
    )
    result = rc.run_feature_curve(spec, keep_reps=True)
    pfld = np.array(result.rep_risks["pfld"][0])
    semi = np.array(result.rep_risks["semisup_pfld(400)"][0])
    diff = semi - pfld  # shared data per rep
    se = float(diff.std(ddof=1) / np.sqrt(len(diff)))
    direction = "worsens" if diff.mean() > 0 else "improves"
    _check(
        "C12",
        "unlabeled data shifts the PFLD peak in a resolved direction",
        abs(float(diff.mean())) > 2.0 * se,
        f"semi-supervised PFLD {direction} the N=n risk by {abs(diff.mean()):.4f} "
        f"(2*stderr {2*se:.4f}) over {len(diff)} reps",
    )
