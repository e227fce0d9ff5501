"""The benchmark's own tests, at tiny sizes (``workloads.TINY``)."""

import contextlib
import io
import os

import pytest

import run
import workloads
from tracer import PER_LAYER, layer_metrics

ROOT = os.path.dirname(run.HERE)
SEED = 7


@pytest.fixture(scope="module")
def reports():
    """Per workload: two traced runs of one untraced and one traced curve each."""
    return {
        name: [run.measure(name, SEED, 0, True, ROOT, "tiny") for _ in range(2)]
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_without_failures(reports, name):
    for report in reports[name]:
        assert report["failures"] == []
        assert report["attempted"] > 0 and report["fail_rate"] == 0
        for trace, keys in ((True, PER_LAYER), (False, run.END_TO_END)):
            line = run.result_line(dict(report, trace=trace))
            assert line["correct"] and set(line["metrics"]) == set(keys)
            assert all(isinstance(m["value"], float) for m in line["metrics"].values())
        assert all(v > 0 for v in report["end_to_end"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_digests_and_objective_repeat(reports, name):
    first, second = reports[name]
    assert first["output_sha256"] == second["output_sha256"]
    assert first["end_to_end"]["mm_objective_ratio"] == second["end_to_end"]["mm_objective_ratio"]
    assert first["attempted"] == second["attempted"]
    counts = [k for k, unit in PER_LAYER.items() if unit in ("count", "B", "MiB", "GFLOP")]
    assert {k: first["layers"][k] for k in counts} == {k: second["layers"][k] for k in counts}


def test_layers_seen_where_expected(reports):
    mnlr, closed, cli = (reports[n][0]["layers"] for n in workloads.WORKLOADS)
    assert mnlr["learners.fit_calls.mnlr"] > 0 and mnlr["learners.fit_calls.max_margin"] == 0
    assert closed["learners.fit_calls.semisup_pfld"] > 0 and closed["linalg.svd_gflop"] > 0
    assert cli["learners.fit_calls.max_margin"] > 0 and cli["data.load_csv_mb"] > 0
    assert cli["io_cli.bytes_written"] > 0


def test_cli_outputs_identical_across_worker_counts(tmp_path):
    from riskcurves.io_cli import cli_main

    paths = workloads.write_cli_inputs(str(tmp_path), SEED, workloads.TINY)
    emitted = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        argv = ["feature-curve", "--config", paths.config, "--workers", str(workers),
                "--keep-reps", "--out-csv", str(out / "c.csv"), "--out-json", str(out / "c.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argv) == 0
        emitted.append([(out / f).read_bytes() for f in ("c.csv", "c.csv.reps.csv", "c.json")])
    assert emitted[0] == emitted[1]


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "closed-form", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"id": 1, "name": "curves.sweep", "parent": None, "start": 0.0, "end": 10.0, "failed": False},
        {"id": 2, "name": "learners.fit.mnlr", "parent": 1, "start": 1.0, "end": 5.0, "failed": False},
        {"id": 3, "name": "learners.fit.mnlr", "parent": 1, "start": 4.0, "end": 6.0, "failed": True},
        {"id": 4, "name": "linalg.svd", "parent": 2, "start": 2.0, "end": 3.0, "failed": False,
         "gflop": 0.5},
    ]
    m = layer_metrics(spans, {"learners.label_checks": 3})
    assert m["curves.sweep_s"] == 10.0 and m["curves.self_s"] == 5.0
    assert m["learners.fit_s.mnlr"] == 5.0 and m["linalg.svd_s"] == 1.0
    assert m["learners.fit_calls.mnlr"] == 2 and m["learners.fit_failed"] == 1
    assert m["curves.fit_concurrency"] == 0.6 and m["linalg.svd_gflop"] == 0.5
    assert m["learners.label_checks"] == 3
