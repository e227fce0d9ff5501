import dataclasses
import itertools
import json
import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import riskcurves
from riskcurves.curves import (
    CurvePoint,
    CurveResult,
    LearnerStats,
    Provenance,
    SweepSpec,
    run_feature_curve,
    run_sweep,
)
from riskcurves.data import SOURCES, CsvSource, GaussianSpec
from riskcurves.errors import (
    InvariantViolation,
    MissingFile,
    ParseError,
    UnknownKey,
)
from riskcurves.io_cli import (
    cli_main,
    config_from_dict,
    emit_csv,
    emit_json,
    emit_svg_plot,
    load_config,
    load_result,
    result_from_json_dict,
    result_to_json_dict,
)
from riskcurves.learners import LEARNERS, MaxMargin, Mnlr, Pfld, Ridge, SemiSupPfld
from riskcurves.linalg import DEFAULT_REL_TOL


def _tiny_result(keep_reps=True, learners=(Mnlr(),), grid=(2, 4, 8)):
    spec = SweepSpec(
        kind="feature_curve",
        grid=grid,
        learners=learners,
        data_source=GaussianSpec(dim=8, informative=2, separation=2.0),
        fixed_n=6,
        test_size=94,
        reps=3,
        base_seed=5,
    )
    return run_feature_curve(spec, keep_reps=keep_reps)


def _minimal_config(**extra):
    cfg = {
        "kind": "feature_curve",
        "grid": [2, 4],
        "seed": 9,
        "learners": [{"kind": "mnlr"}],
    }
    cfg.update(extra)
    return cfg


# -- config ------------------------------------------------------------------


def test_minimal_config_gets_documented_defaults():
    # an empty data entry and null output paths mean the defaults too
    nulls = {"data": {}, "out_csv": None, "out_json": None, "out_svg": None}
    for rc in (config_from_dict(_minimal_config()), config_from_dict(_minimal_config(**nulls))):
        sweep = rc.sweep
        assert sweep.fixed_n == 40
        assert sweep.test_size == 2000
        assert sweep.reps == 50
        assert sweep.risk_metric == "zero_one"
        assert sweep.base_seed == 9
        assert sweep.data_source == GaussianSpec(dim=120, informative=10, separation=2.5)
        assert rc.out_csv is None and rc.out_json is None and rc.out_svg is None
        assert rc.keep_reps is False
    for kind, grid in (("learning_curve", [4, 8]), ("alpha_curve", [0.5, 1.0])):
        sweep = config_from_dict(_minimal_config(kind=kind, grid=grid)).sweep
        assert (sweep.fixed_n, sweep.fixed_N) == (None, 40)


def test_config_rejects_unknown_top_key():
    with pytest.raises(UnknownKey) as err:
        config_from_dict(_minimal_config(leaners=[]))
    assert "leaners" in str(err.value)


def test_config_rejects_alpha_grid_with_zero():
    cfg = _minimal_config(kind="alpha_curve", grid=[0, 1.0])
    with pytest.raises(InvariantViolation):
        config_from_dict(cfg)


def test_config_learner_validation():
    with pytest.raises(InvariantViolation):
        config_from_dict(_minimal_config(learners=[{"kind": "ridge"}]))
    with pytest.raises(InvariantViolation) as err:
        config_from_dict(_minimal_config(learners=[{"kind": "nonsense"}]))
    assert all(kind in str(err.value) for kind in LEARNERS)
    for bad in (  # every fit truncates at DEFAULT_REL_TOL, so no learner has a rel_tol
        {"kind": "mnlr", "tol": 1e-3},
        {"kind": "mnlr", "rel_tol": True},
        {"kind": "mnlr", "rel_tol": "0.001"},
        {"kind": "pfld", "rel_tol": 1e-10},
        {"kind": "semisup_pfld", "unlabeled_count": 2, "rel_tol": 1e-10},
    ):
        with pytest.raises(UnknownKey, match=r"^config\.learners\[0\]: unknown key '(rel_)?tol'$"):
            config_from_dict(_minimal_config(learners=[bad]))
    with pytest.raises(UnknownKey):  # the exact solver has no step size
        config_from_dict(_minimal_config(learners=[{"kind": "max_margin", "step_decay": 1.0}]))
    with pytest.raises(InvariantViolation):
        config_from_dict(_minimal_config(learners=[]))
    for not_a_list in ("mnlr", {"kind": "mnlr"}):
        with pytest.raises(InvariantViolation):
            config_from_dict(_minimal_config(learners=not_a_list))
    with pytest.raises(InvariantViolation):
        config_from_dict(_minimal_config(learners=[{"kind": "semisup_pfld"}]))
    for not_an_object in ([], "x", 3, None):
        with pytest.raises(InvariantViolation, match="config: the configuration must be dict"):
            config_from_dict(not_an_object)
    for bad in (
        {"kind": "semisup_pfld", "unlabeled_count": 2.5},
        {"kind": "ridge", "lambda": True},
    ):
        with pytest.raises(InvariantViolation):
            config_from_dict(_minimal_config(learners=[bad]))
    # an error names the full path of its entry
    for learners, data, where in (
        ([{"kind": "mnlr"}, {"kind": "pfld"}, {"kind": "ridge", "lambda": "0.1"}], {}, "config.learners[2]: lam"),
        ([{"kind": "mnlr"}, "pfld"], {}, "config.learners[1]: the entry"),
        ([{"kind": "mnlr"}], {"dim": True}, "config.data: dim"),
    ):
        with pytest.raises(InvariantViolation, match=re.escape(where)):
            config_from_dict(_minimal_config(learners=learners, data=data))
    rc = config_from_dict(
        _minimal_config(
            learners=[
                {"kind": "ridge", "lambda": 0.1, "name": "r1"},
                {"kind": "max_margin", "c": 10, "max_iters": 100},
                {"kind": "semisup_pfld", "unlabeled_count": 12},
                {"kind": "pfld"},
            ]
        )
    )
    assert rc.sweep.learners == (
        Ridge(lam=0.1, name="r1"),
        MaxMargin(c=10.0, max_iters=100),
        SemiSupPfld(unlabeled_count=12),
        __import__("riskcurves").learners.Pfld(),
    )


def test_config_data_validation():
    with pytest.raises(InvariantViolation):
        config_from_dict(_minimal_config(data={"source": "csv"}))
    with pytest.raises(InvariantViolation):
        config_from_dict(_minimal_config(data={"source": "parquet"}))
    with pytest.raises(UnknownKey):
        config_from_dict(_minimal_config(data={"source": "gaussian", "seed": 3}))
    rc = config_from_dict(
        _minimal_config(
            data={
                "source": "csv",
                "path": "x.csv",
                "label_column": "y",
                "positive_label": "p",
                "standardize": False,
            }
        )
    )
    assert rc.sweep.data_source == CsvSource("x.csv", "y", "p", standardize=False)


def test_config_wrong_fixed_field():
    with pytest.raises(InvariantViolation):
        config_from_dict(_minimal_config(fixed_N=8))
    cfg = _minimal_config(kind="learning_curve", grid=[4, 8], fixed_n=8)
    with pytest.raises(InvariantViolation):
        config_from_dict(cfg)


def test_config_type_errors():
    with pytest.raises(InvariantViolation):
        config_from_dict(_minimal_config(seed="one"))
    with pytest.raises(InvariantViolation):
        config_from_dict(_minimal_config(reps=True))
    with pytest.raises(InvariantViolation):
        config_from_dict(_minimal_config(out_csv=7))
    with pytest.raises(InvariantViolation):
        config_from_dict({"grid": [1], "seed": 0, "learners": [{"kind": "mnlr"}]})
    # a plain field is checked before the nested entries beside it, an unknown key before both
    bogus = [{"kind": "mnlr", "bogus": 1}]
    for extra, field in (({"grid": 5}, "grid"), ({"out_csv": 7}, "out_csv"), ({"risk_metric": "hinge"}, "risk_metric")):
        with pytest.raises(InvariantViolation, match=f"^config: {field} must"):
            config_from_dict(_minimal_config(learners=bogus, **extra))
    with pytest.raises(UnknownKey, match="^config: unknown key 'leaners'$"):
        config_from_dict(_minimal_config(out_csv=7, leaners=[]))
    no_seed = _minimal_config()
    del no_seed["seed"]
    with pytest.raises(InvariantViolation) as err:
        config_from_dict(no_seed)
    assert "'seed'" in str(err.value)
    # json reads NaN, Infinity and 1e400 as floats, and a long integer
    # literal overflows a float field
    for extra in (
        {"data": {"separation": float("inf")}},
        {"data": {"separation": float("nan")}},
        {"data": {"separation": 10**400}},
        {"learners": [{"kind": "max_margin", "c": float("inf")}]},
        {"learners": [{"kind": "ridge", "lambda": float("inf")}]},
        {"kind": "alpha_curve", "grid": [0.5, float("inf")]},
        {"kind": "alpha_curve", "grid": [0.5, 10**400]},
    ):
        with pytest.raises(InvariantViolation, match="finite|too large"):
            config_from_dict(_minimal_config(**extra))
    # an integer too large for a float is reported against its field
    for extra, field in (
        ({"data": {"separation": 10**400}}, "separation"),
        ({"learners": [{"kind": "max_margin", "c": 10**400}]}, "c"),
        ({"learners": [{"kind": "ridge", "lambda": 10**400}]}, "lam"),
        ({"kind": "alpha_curve", "grid": [0.5, 10**400]}, "alpha grid value"),
    ):
        with pytest.raises(InvariantViolation) as err:
            config_from_dict(_minimal_config(**extra))
        assert str(err.value).endswith(f"{field} must be a finite float, got an integer with 401 digits")
    assert config_from_dict(_minimal_config(seed=10**40)).sweep.base_seed == 10**40


def test_load_config_parse_error_carries_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "feature_curve",\n  "grid": [1, }', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_config(p)
    assert "line 2" in str(err.value)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_config(tmp_path / "absent.json")


def test_undecodable_files_exit_with_their_codes(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"kind": "\xff"}')
    too_deep = tmp_path / "deep.json"
    too_deep.write_text("[" * 100_000, encoding="utf-8")
    too_long = tmp_path / "long.json"  # an integer beyond Python's 4300-digit conversion limit
    too_long.write_text('{"reps": 1' + "0" * 5000 + "}", encoding="utf-8")
    for path in (not_utf8, too_deep, too_long):
        with pytest.raises(ParseError):
            load_config(path)
        with pytest.raises(ParseError):
            load_result(path)
        capsys.readouterr()
        assert cli_main(["feature-curve", "--config", str(path), "--out-csv", str(tmp_path / "x.csv")]) == 2
        assert cli_main(["report", "--in", str(path)]) == 4
        assert str(path) in capsys.readouterr().err
    assert cli_main(["report", "--in", str(tmp_path)]) == 4  # a directory


# -- CSV emission --------------------------------------------------------------


def test_emit_csv_structure(tmp_path):
    result = _tiny_result(keep_reps=False, grid=(2, 4))
    path = tmp_path / "out.csv"
    emit_csv(result, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert len(lines) == 3  # header + one row per (point, learner)
    assert lines[0] == (
        "curve_kind,x_name,x_value,learner,rep_count,mean_risk,std_risk,"
        "stderr_risk,min_risk,max_risk,base_seed"
    )
    first = lines[1].split(",")
    assert first[0] == "feature_curve" and first[1] == "num_features"
    assert first[2] == "2" and first[3] == "mnlr" and first[4] == "3"
    assert first[-1] == "5"
    assert not (tmp_path / "out.csv.reps.csv").exists()


def test_emit_csv_round_trips_17_digits(tmp_path):
    result = _tiny_result(keep_reps=False)
    path = tmp_path / "out.csv"
    emit_csv(result, path)
    rows = path.read_text().splitlines()[1:]
    by_x = {float(r.split(",")[2]): r.split(",") for r in rows}
    for point in result.points:
        cells = by_x[point.x_value]
        s = point.stats["mnlr"]
        assert float(cells[5]) == s.mean_risk
        assert float(cells[6]) == s.std_risk
        assert float(cells[7]) == s.stderr_risk


def test_emit_csv_is_deterministic(tmp_path):
    result = _tiny_result()
    emit_csv(result, tmp_path / "a.csv")
    emit_csv(result, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_emit_csv_learner_ordering(tmp_path):
    result = _tiny_result(learners=(Ridge(lam=0.5), Mnlr()), grid=(2, 4))
    emit_csv(result, tmp_path / "o.csv")
    names = [line.split(",")[3] for line in (tmp_path / "o.csv").read_text().splitlines()[1:]]
    assert names == ["mnlr", "ridge(0.5)", "mnlr", "ridge(0.5)"]


def test_emit_csv_reps_companion(tmp_path):
    result = _tiny_result(keep_reps=True, grid=(2, 4))
    path = tmp_path / "out.csv"
    emit_csv(result, path)
    companion = tmp_path / "out.csv.reps.csv"
    lines = companion.read_text().splitlines()
    assert lines[0] == "curve_kind,x_name,x_value,learner,rep,risk"
    assert len(lines) == 1 + 2 * 3  # 2 points x 3 reps
    for pi, x in enumerate((2.0, 4.0)):
        for rep in range(3):
            cells = lines[1 + pi * 3 + rep].split(",")
            assert float(cells[2]) == x and int(cells[4]) == rep
            assert float(cells[5]) == result.rep_risks["mnlr"][pi][rep]


# -- JSON round trip -----------------------------------------------------------


def test_json_round_trip_equality(tmp_path):
    for keep in (False, True):
        result = _tiny_result(keep_reps=keep, learners=(Mnlr(), Ridge(lam=0.25)))
        path = tmp_path / f"r{keep}.json"
        emit_json(result, path)
        assert load_result(path) == result


def test_json_dict_round_trip_preserves_spec_types(tmp_path):
    learners = (
        Mnlr(name="m"),
        Pfld(name="p"),
        Ridge(lam=0.25, name="r"),
        SemiSupPfld(unlabeled_count=4, name="s"),
        MaxMargin(c=7.0, max_iters=500, name="mm"),
    )
    assert {type(spec) for spec in learners} == set(LEARNERS.values())
    sources = (
        GaussianSpec(dim=8, informative=2, separation=2.0),
        CsvSource("data.csv", "cls", "p", standardize=False),
    )
    assert {type(source) for source in sources} == set(SOURCES.values())
    swept = _tiny_result(learners=learners)
    # a result of each curve kind, with its per-rep risks
    results = [swept] + [
        run_sweep(dataclasses.replace(swept.spec, kind=kind, grid=grid, fixed_n=None, fixed_N=4), keep_reps=True)
        for kind, grid in (("learning_curve", (4, 6, 10)), ("alpha_curve", (0.5, 1.0, 2.5)))
    ]
    for swept, source in itertools.product(results, sources):
        result = dataclasses.replace(swept, spec=dataclasses.replace(swept.spec, data_source=source))
        loaded = result_from_json_dict(json.loads(json.dumps(result_to_json_dict(result))))
        assert loaded.spec == result.spec
        assert loaded == result
        specs = zip((*result.spec.learners, source), (*loaded.spec.learners, loaded.spec.data_source))
        for before, after in specs:
            assert type(after) is type(before)
            assert [type(v) for v in vars(after).values()] == [type(v) for v in vars(before).values()]
        emit_json(result, tmp_path / "a.json")
        emit_json(load_result(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize(
    "kind, grid, pinned",
    [("feature_curve", (2, 4), {"fixed_n": 6}), ("learning_curve", (4, 6), {"fixed_N": 4}),
     ("alpha_curve", (0.5, 1.0), {"fixed_N": 4})],
)
def test_result_json_spec_keys_in_order(kind, grid, pinned):
    spec = SweepSpec(
        kind=kind, grid=grid, learners=(Mnlr(),), data_source=GaussianSpec(dim=8, informative=2), test_size=94, **pinned
    )
    points = tuple(CurvePoint(x_value=x, stats={"mnlr": LearnerStats(0.5, 0.0, 0.0, 0.5, 0.5, 1)}) for x in grid)
    doc = result_to_json_dict(CurveResult(spec=spec, points=points, provenance=Provenance(0, "test")))
    assert list(doc["spec"]) == [
        "kind", "grid", "seed", "learners", *pinned, "test_size", "reps", "risk_metric", "data"
    ]
    assert list(doc["spec"]["learners"][0]) == ["kind"]
    assert list(doc["spec"]["data"]) == ["source", "dim", "informative", "separation"]


def test_result_from_json_rejects_unknown_keys():
    result = _tiny_result()
    doc = result_to_json_dict(result)
    doc["bogus"] = 1
    with pytest.raises(UnknownKey):
        result_from_json_dict(doc)


# A result file written while GaussianSpec had a seed field, which every sweep ignored.
_SEEDED_RESULT = """{
  "spec": {
    "kind": "feature_curve", "grid": [2, 4, 8], "seed": 3, "learners": [{"kind": "mnlr", "rel_tol": 1e-10}],
    "fixed_n": 6, "test_size": 20, "reps": 2, "risk_metric": "zero_one",
    "data": {"source": "gaussian", "dim": 8, "informative": 2, "separation": 2.5, "seed": 12345}
  },
  "points": [
    {"x_value": 2.0, "stats": {"mnlr": {"mean_risk": 0.025, "std_risk": 0.03535533905932738,
      "stderr_risk": 0.025, "min_risk": 0.0, "max_risk": 0.05, "rep_count": 2}}},
    {"x_value": 4.0, "stats": {"mnlr": {"mean_risk": 0.1, "std_risk": 0.07071067811865475,
      "stderr_risk": 0.049999999999999996, "min_risk": 0.05, "max_risk": 0.15, "rep_count": 2}}},
    {"x_value": 8.0, "stats": {"mnlr": {"mean_risk": 0.025, "std_risk": 0.03535533905932738,
      "stderr_risk": 0.025, "min_risk": 0.0, "max_risk": 0.05, "rep_count": 2}}}
  ],
  "provenance": {"base_seed": 3, "version": "0.1.0"}
}"""


def test_result_with_a_gaussian_seed_reads_as_without_it(tmp_path, capsys):
    seeded = json.loads(_SEEDED_RESULT)
    plain = json.loads(_SEEDED_RESULT)
    del plain["spec"]["data"]["seed"]
    assert result_from_json_dict(seeded) == result_from_json_dict(plain)
    # a sweep of the same spec computes the same points and writes no seed in its data entry
    swept = result_to_json_dict(run_sweep(result_from_json_dict(seeded).spec))
    assert list(swept["spec"]["data"]) == ["source", "dim", "informative", "separation"]
    assert swept["points"] == plain["points"]
    reports = []
    for doc in (seeded, plain):
        (tmp_path / "r.json").write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["report", "--in", str(tmp_path / "r.json")]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and reports[0].startswith("mnlr: peak_x=4")
    # the key is no part of a config, nor of a result's CSV source
    cfg = _write_config(tmp_path, data={"source": "gaussian", "seed": 12345})
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(tmp_path / "x.csv")]) == 2
    assert "config.data: unknown key 'seed'" in capsys.readouterr().err
    seeded["spec"]["data"] = {"source": "csv", "path": "d.csv", "label_column": "y", "positive_label": "p", "seed": 0}
    with pytest.raises(UnknownKey, match=r"^result\.spec\.data: unknown key 'seed'$"):
        result_from_json_dict(seeded)


def test_result_with_the_default_rel_tol_reads_as_without_it(tmp_path, capsys):
    # an older file's learner entries record the rank cutoff, which is DEFAULT_REL_TOL for every fit
    plain = json.loads(_SEEDED_RESULT)
    assert plain["spec"]["learners"][0].pop("rel_tol") == DEFAULT_REL_TOL
    assert result_from_json_dict(json.loads(_SEEDED_RESULT)) == result_from_json_dict(plain)
    # a file fitted with another cutoff holds risks no fit of this package gives
    for rel_tol in (1e-8, True, "1e-10"):
        doc = json.loads(_SEEDED_RESULT)
        doc["spec"]["learners"][0]["rel_tol"] = rel_tol
        with pytest.raises(InvariantViolation, match=r"^result\.spec\.learners\[0\]: fitted with rel_tol "):
            result_from_json_dict(doc)
    (tmp_path / "r.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["report", "--in", str(tmp_path / "r.json")]) == 4
    assert "result.spec.learners[0]: fitted with rel_tol '1e-10'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [{"kind": "mnlr"}, {"kind": "pfld"}, {"kind": "semisup_pfld", "unlabeled_count": 2}],
    ids=["mnlr", "pfld", "semisup_pfld"],
)
def test_each_minimum_norm_learner_reads_its_old_rel_tol(entry):
    # every kind that once had the field: 1e-10 is dropped and written back without it, 1e-8 refused
    plain = json.loads(_SEEDED_RESULT)
    plain["spec"]["learners"] = [{**entry, "name": "mnlr"}]
    old = json.loads(json.dumps(plain))
    old["spec"]["learners"][0]["rel_tol"] = 1e-10
    result = result_from_json_dict(old)
    assert result == result_from_json_dict(plain)
    assert result_to_json_dict(result)["spec"]["learners"] == [{**entry, "name": "mnlr"}]
    old["spec"]["learners"][0]["rel_tol"] = 1e-8
    with pytest.raises(InvariantViolation, match=r"^result\.spec\.learners\[0\]: fitted with rel_tol 1e-08"):
        result_from_json_dict(old)


def test_emit_json_is_deterministic(tmp_path):
    result = _tiny_result()
    emit_json(result, tmp_path / "a.json")
    emit_json(result, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# -- SVG -----------------------------------------------------------------------


def test_svg_single_point(tmp_path):
    result = _tiny_result(grid=(4,))
    path = tmp_path / "one.svg"
    emit_svg_plot(result, path)
    text = path.read_text()
    ET.fromstring(text)  # well-formed XML
    assert "<polyline" not in text
    assert "<circle" in text
    assert text.count('class="threshold"') == 1
    # x and the threshold coincide, so the x range is widened around them
    emit_svg_plot(_tiny_result(grid=(6,), learners=(Mnlr(), Ridge(lam=0.5))), path)
    root = ET.fromstring(path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert root.findall(f"{ns}polyline") == []
    circles = root.findall(f"{ns}circle")
    assert len(circles) == 2  # one marker per learner
    (rule,) = [e for e in root.findall(f"{ns}line") if e.get("class") == "threshold"]
    assert {c.get("cx") for c in circles} == {rule.get("x1")} == {"321.00"}  # the plot's middle


def test_svg_multi_learner(tmp_path):
    result = _tiny_result(learners=(Mnlr(), Ridge(lam=0.5, name="shrunk")))
    path = tmp_path / "two.svg"
    emit_svg_plot(result, path)
    text = path.read_text()
    ET.fromstring(text)
    assert text.count("<polyline") == 2
    assert ">mnlr</text>" in text and ">shrunk</text>" in text
    assert text.count('class="threshold"') == 1


def test_svg_of_a_result_without_points_raises():
    # a result holds one point per grid value, so no emitter meets an empty one
    with pytest.raises(ValueError, match="^points must match the 3-point grid, got 0$"):
        dataclasses.replace(_tiny_result(), points=(), rep_risks=None)


def test_svg_escapes_names(tmp_path):
    result = _tiny_result(learners=(Mnlr(name="a<b&c"), Pfld(name="d>e \"f\" 'g'")))
    emit_svg_plot(result, tmp_path / "esc.svg")
    text = (tmp_path / "esc.svg").read_text()
    ET.fromstring(text)
    assert "a&lt;b&amp;c" in text
    assert ">d&gt;e \"f\" 'g'</text>" in text


def _fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run by a new Python that imports this riskcurves."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(riskcurves.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


ALL_KINDS = [
    {"kind": "mnlr"},
    {"kind": "pfld"},
    {"kind": "ridge", "lambda": 0.1},
    {"kind": "semisup_pfld", "unlabeled_count": 10},
    {"kind": "max_margin", "max_iters": 500},
]


@pytest.fixture
def probe_files(tmp_path):
    """Inputs of the read-only probes, by the names their code formats in."""
    gauss = _minimal_config(grid=[2, 4, 6], fixed_n=6, test_size=94, reps=2, learners=ALL_KINDS,
                            data={"dim": 8, "informative": 2, "separation": 2.0})
    csv = _minimal_config(data={"source": "csv", "path": "x.csv", "label_column": "y", "positive_label": "p"})
    bad = dict(gauss, grid=[2, 4, 16])  # 16 features from an 8-dim generator
    spec = SweepSpec(
        kind="alpha_curve",
        grid=(0.5, 1.0, 1.5),
        fixed_N=8,
        learners=(Mnlr(), Mnlr(name="flat")),
        data_source=GaussianSpec(dim=8, informative=2),
        reps=1,
    )
    stats = lambda m: LearnerStats(m, 0.0, 0.0, m, m, 1)  # noqa: E731
    points = tuple(
        CurvePoint(x_value=x, stats={"mnlr": stats(m), "flat": stats(0.25)})
        for x, m in zip(spec.grid, (0.2, 0.4, 0.3))
    )
    files = {"gauss": gauss, "csv": csv, "bad": bad}
    paths = {name: str(tmp_path / f"{name}.json") for name in (*files, "result")}
    for name, cfg in files.items():
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    emit_json(CurveResult(spec=spec, points=points, provenance=Provenance(0, riskcurves.__version__)), paths["result"])
    return paths


_NUMPY = ("numpy",)


@pytest.mark.parametrize(
    "code, forbidden",
    [
        ("import riskcurves.io_cli", ("urllib.request", "http.client", "ssl", "email")),
        ("import riskcurves.io_cli", ("concurrent.futures", "logging")),
        (
            "from riskcurves import GaussianSpec, MaxMargin, Mnlr, Pfld, Ridge, SemiSupPfld, SweepSpec\n"
            "learners = (Mnlr(), Pfld(), Ridge(lam=0.1), SemiSupPfld(unlabeled_count=10), MaxMargin())\n"
            "SweepSpec(kind='feature_curve', grid=(2, 4), fixed_n=6, learners=learners, data_source=GaussianSpec())",
            _NUMPY,
        ),
        ("from riskcurves.io_cli import load_config\nload_config({gauss!r})\nload_config({csv!r})", _NUMPY),
        ("from riskcurves.io_cli import cli_main\nassert cli_main(['feature-curve', '--config', {bad!r}]) == 2", _NUMPY),
        # alpha_train_size, and the flat learner's first-maximum report
        ("from riskcurves.io_cli import cli_main\nassert cli_main(['report', '--in', {result!r}]) == 0", _NUMPY),
    ],
    ids=["io_cli-network", "io_cli-thread-pool", "specs", "load_config", "config-exit-2", "report"],
)
def test_fresh_interpreter_leaves_modules_out(code, forbidden, probe_files):
    probe = code.format(**probe_files) + f"\nimport sys\nprint([m for m in {forbidden!r} if m in sys.modules])"
    assert _fresh_interpreter(probe).splitlines()[-1] == "[]"


def test_sweep_after_a_numpy_free_read_matches_in_process(probe_files):
    probe = (
        "import json, sys\n"
        "from riskcurves.io_cli import load_config, result_to_json_dict, run_sweep\n"
        f"config = load_config({probe_files['gauss']!r})\n"
        "assert 'numpy' not in sys.modules\n"
        "print(json.dumps(result_to_json_dict(run_sweep(config.sweep, keep_reps=True))))"
    )
    expected = result_to_json_dict(run_sweep(load_config(probe_files["gauss"]).sweep, keep_reps=True))
    assert _fresh_interpreter(probe) == json.dumps(expected) + "\n"


def test_atomic_write_leaves_no_temp_on_failure(tmp_path):
    result = _tiny_result()
    target = tmp_path / "adir"
    target.mkdir()
    with pytest.raises(OSError):
        emit_csv(result, target)  # os.replace onto a directory fails
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]
    assert list(target.iterdir()) == []


def test_emitted_files_take_the_umask_mode(tmp_path):
    result = _tiny_result()
    stale = tmp_path / "r.json"
    stale.write_text("{}", encoding="utf-8")
    os.chmod(stale, 0o600)
    old = os.umask(0o027)
    try:
        emit_csv(result, tmp_path / "r.csv")
        emit_json(result, stale)
        emit_svg_plot(result, tmp_path / "r.svg")
        mode = 0o666 & ~os.umask(0o027)
    finally:
        os.umask(old)
    assert mode == 0o640
    for name in ("r.csv", "r.csv.reps.csv", "r.json", "r.svg"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode, name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.csv.reps.csv", "r.json", "r.svg"]


# -- CLI -----------------------------------------------------------------------


def _write_config(tmp_path, **overrides):
    cfg = {
        "kind": "feature_curve",
        "grid": [2, 4, 6],
        "seed": 3,
        "learners": [{"kind": "mnlr"}],
        "fixed_n": 6,
        "test_size": 94,
        "reps": 3,
        "data": {"source": "gaussian", "dim": 8, "informative": 2, "separation": 2.0},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_cli_run_and_outputs_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    for tag, extra in (("1", []), ("2", []), ("3", ["--workers", "3"])):
        code = cli_main(
            [
                "feature-curve",
                "--config",
                str(cfg),
                "--out-csv",
                str(tmp_path / f"r{tag}.csv"),
                "--out-json",
                str(tmp_path / f"r{tag}.json"),
                *extra,
            ]
        )
        assert code == 0
    base_csv = (tmp_path / "r1.csv").read_bytes()
    base_json = (tmp_path / "r1.json").read_bytes()
    for tag in ("2", "3"):
        assert (tmp_path / f"r{tag}.csv").read_bytes() == base_csv
        assert (tmp_path / f"r{tag}.json").read_bytes() == base_json


def test_cli_missing_config_names_path(tmp_path, capsys):
    code = cli_main(["feature-curve", "--config", str(tmp_path / "nope.json"), "--out-csv", "x.csv"])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_cli_bad_config_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = _write_config(tmp_path, reps=0)
    out = tmp_path / "never.csv"
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(out)]) == 2
    assert not out.exists()
    for not_an_object in ([], "x", 3, None):
        cfg.write_text(json.dumps(not_an_object), encoding="utf-8")
        assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(out)]) == 2
        assert not out.exists()
    # a count numpy cannot index is named, not left to fail inside numpy
    _write_config(tmp_path, reps=10**55)
    capsys.readouterr()
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(out)]) == 2
    assert not out.exists()
    assert "config: reps must be < 2**63, got an integer with 56 digits" in capsys.readouterr().err
    _write_config(tmp_path, kind="bogus")
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(out)]) == 2
    assert not out.exists()
    assert "'bogus'" in capsys.readouterr().err
    _write_config(tmp_path)
    for workers in ("0", "-1"):
        assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(out), "--workers", workers]) == 2
        assert not out.exists()
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err


def test_cli_rejects_learner_name_that_breaks_csv(tmp_path, capsys):
    cfg = _write_config(tmp_path, learners=[{"kind": "mnlr", "name": "a,b"}])
    out = tmp_path / "never.csv"
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(out)]) == 2
    assert not out.exists()
    assert "'a,b'" in capsys.readouterr().err
    # a hand-built result holds only its spec's labels, which the spec keeps free of ','
    tiny = _tiny_result(keep_reps=False)
    points = tuple(CurvePoint(x_value=p.x_value, stats={"a,b": p.stats["mnlr"]}) for p in tiny.points)
    with pytest.raises(ValueError, match=re.escape("points[0]: expected x_value 2 with stats for ['mnlr']")):
        dataclasses.replace(tiny, points=points)
    assert not out.exists()


def test_cli_kind_mismatch(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert cli_main(["learning-curve", "--config", str(cfg), "--out-csv", "x.csv"]) == 2
    assert "does not match" in capsys.readouterr().err


def test_cli_requires_an_output(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert cli_main(["feature-curve", "--config", str(cfg)]) == 2
    assert "no output requested" in capsys.readouterr().err


def test_cli_seed_override_changes_results(tmp_path):
    cfg = _write_config(tmp_path)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(a)]) == 0
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(b), "--seed", "99"]) == 0
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(c), "--seed", "3"]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert a.read_bytes() == c.read_bytes()


def test_cli_keep_reps_flag(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "kept.csv"
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(out), "--keep-reps"]) == 0
    assert (tmp_path / "kept.csv.reps.csv").exists()


def test_cli_reps_override(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "reps.csv"
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(out), "--reps", "5"]) == 0
    assert out.read_text().splitlines()[1].split(",")[4] == "5"


def test_cli_config_that_is_a_directory_exits_4_naming_it(tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert cli_main(["feature-curve", "--config", str(tmp_path), "--out-csv", str(out)]) == 4
    assert str(tmp_path) in capsys.readouterr().err
    assert not out.exists()


def test_cli_io_failure_exit_code(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "missing-dir" / "x.csv"
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(out)]) == 4


def test_cli_unreadable_data_csv_exits_4_naming_the_file(tmp_path, capsys):
    contents = {
        "absent.csv": None,
        "non_numeric.csv": b"a,b,cls\n1,2,p\n3,oops,q\n",
        "ragged.csv": b"a,b,cls\n1,2\n",
        "latin1.csv": b"a,b,cls\n1,2,p\xe9\n3,4,q\n",
        "huge_cell.csv": b"a,b,cls\n1," + b"2" * 200_000 + b",p\n",  # over csv's field limit
        "few_columns.csv": b"a,b,cls\n" + b"1,2,p\n3,4,q\n" * 60,  # grid needs 6 features
        "few_rows.csv": b"a,b,c,d,e,f,cls\n" + b"1,2,3,4,5,6,p\n2,3,4,5,6,7,q\n" * 4,
    }
    out = tmp_path / "never.csv"
    for name, data in contents.items():
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        source = {"source": "csv", "path": str(path), "label_column": "cls", "positive_label": "p"}
        cfg = _write_config(tmp_path, data=source)
        capsys.readouterr()
        assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(out)]) == 4, name
        assert not out.exists()
        assert name in capsys.readouterr().err


def test_cli_standardization_overflow_exits_4_naming_file_column_and_rep(tmp_path):
    rng = random.Random(5)
    # finite values whose mean and spread overflow: the train rows fail their check
    train = [1.7e308 if i % 2 == 0 else -1.7e308 for i in range(80)]
    # one huge row: in a test set it overflows when divided by the other rows' spread of about 0.3;
    # a test block is checked before it is scored, where it was once scored silently
    test = [1.7e308 if i == 7 else rng.uniform(-0.5, 0.5) for i in range(80)]
    # values that separate the classes, but whose spread overflows to inf: dividing by it once
    # standardized the column to 0 without an error, and MNLR's mean risk at N = 1 read 0.5
    spread = [1e200 if i % 2 == 0 else -1e200 for i in range(80)]
    for name, column, rep in (("train.csv", train, 0), ("test.csv", test, 1), ("spread.csv", spread, 0)):
        rows = [f"{v!r},{rng.gauss(0.5 - i % 2, 1):.6f},{'pn'[i % 2]}" for i, v in enumerate(column)]
        (tmp_path / name).write_text("\n".join(["a,b,label", *rows]) + "\n", encoding="utf-8")
        source = {"source": "csv", "path": name, "label_column": "label", "positive_label": "p"}
        cfg = _write_config(tmp_path, grid=[1, 2], fixed_n=20, test_size=40, data=source)
        proc = subprocess.run(
            [sys.executable, "-m", "riskcurves", "feature-curve", "--config", str(cfg), "--out-csv", "out.csv"],
            capture_output=True, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(riskcurves.__file__))),
        )
        assert proc.returncode == 4
        assert proc.stderr == f"riskcurves: error: {name}: column 'a' overflows when standardized by the train rows of rep {rep}\n"
        assert not (tmp_path / "out.csv").exists()


def test_cli_fit_value_error_exits_3_naming_the_cell(tmp_path, monkeypatch, capsys):
    import riskcurves.curves as cv

    def broken(spec, x, y, x_unlabeled=None):
        raise ValueError("model parameters must be finite")

    monkeypatch.setattr(cv, "fit", broken)
    cfg = _write_config(tmp_path)
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert "'mnlr'" in err and "x=2" in err and "rep=0" in err and "must be finite" in err


def test_cli_oversized_draws_exit_2(tmp_path, monkeypatch, capsys):
    import riskcurves.curves as cv

    out = str(tmp_path / "x.csv")
    alpha = dict(kind="alpha_curve", fixed_n=None, fixed_N=40, data={"source": "gaussian"})
    # the spec rejects a training size past numpy's largest index and a draw past its largest array
    for grid, message in (
        ([0.5, 1e300], "config: the training size at alpha=1e+300 must be < 2**63, got an integer with 302 digits"),
        ([0.5, 1e17], "config: a rep would draw 4000000000000000094 x 120 float64 values, beyond numpy's largest"),
    ):
        cfg = _write_config(tmp_path, grid=grid, **alpha)
        assert cli_main(["alpha-curve", "--config", str(cfg), "--out-csv", out]) == 2
        assert message in capsys.readouterr().err
    # and the sweep's risks (grid values x learners x reps) and a cell's scores (learners x test_size) past it, from
    # either source
    csv = {"source": "csv", "path": str(tmp_path / "absent.csv"), "label_column": "label", "positive_label": "p"}
    two = [{"kind": "mnlr"}, {"kind": "pfld"}]
    for overrides, message in (
        (dict(reps=2**62), "config: reps=4611686018427387904 needs an array of 3 x 1 x 4611686018427387904 float64"),
        (dict(reps=2**62, data=csv), "config: reps=4611686018427387904 needs an array of 3 x 1 x 4611686018427387904"),
        (dict(test_size=2**60, learners=two), "config: test_size=1152921504606846976 needs an array of 2 x 1152921504"),
        (dict(test_size=2**60, learners=two, data=csv), "config: test_size=1152921504606846976 needs an array of 2 x 1"),
    ):
        cfg = _write_config(tmp_path, **overrides)
        assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", out]) == 2
        err = capsys.readouterr().err
        assert message in err and "beyond numpy's largest array (2**63 - 1 bytes)" in err and "Traceback" not in err

    # a draw numpy allows but the machine cannot hold; the draw is replaced, so nothing is allocated
    def unallocatable(spec, n, seed):
        raise MemoryError(f"Unable to allocate 1 PiB for an array with shape ({n}, {spec.dim}) and data type float64")

    monkeypatch.setattr(cv, "gen_two_gaussians", unallocatable)
    for command, overrides, shape in (
        ("alpha-curve", dict(grid=[0.5, 1e10], **alpha), "(400000000094, 120)"),
        ("feature-curve", dict(test_size=10**11), "(100000000006, 8)"),
    ):
        cfg = _write_config(tmp_path, **overrides)
        assert cli_main([command, "--config", str(cfg), "--out-csv", out]) == 2
        err = capsys.readouterr().err
        assert f"error: the sweep does not fit in memory: Unable to allocate 1 PiB for an array with shape {shape}" in err
    assert not os.path.exists(out)


def test_cli_solver_iteration_cap_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, learners=[{"kind": "max_margin", "max_iters": 1}])
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-csv", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert "'max_margin'" in err and "duality gap" in err and "after 1 iterations" in err


def test_cli_report(tmp_path, capsys):
    cfg = _write_config(tmp_path, learners=[{"kind": "mnlr"}, {"kind": "ridge", "lambda": 0.5}])
    out = tmp_path / "r.json"
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-json", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(["report", "--in", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("mnlr: peak_x=")
    assert "at_interpolation=" in lines[0]
    assert cli_main(["report", "--in", str(out), "--learner", "ridge(0.5)"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ridge(0.5): ")


def test_cli_report_missing_file(tmp_path, capsys):
    assert cli_main(["report", "--in", str(tmp_path / "absent.json")]) == 4


def test_cli_report_malformed_result_exits_4(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "r.json"
    run = ["feature-curve", "--config", str(cfg), "--out-json", str(out), "--keep-reps"]
    assert cli_main(run) == 0
    good = json.loads(out.read_text(encoding="utf-8"))
    no_points = dict(good, points=[])
    one_point = dict(good, points=good["points"][:1])
    no_stats = json.loads(json.dumps(good))
    for point in no_stats["points"]:
        point["stats"] = {}
    bad_stats = []
    for key, value in (
        ("mean_risk", "low"), ("mean_risk", True), ("mean_risk", float("nan")), ("rep_count", 3.7), ("rep_count", "3"),
    ):
        doc = json.loads(json.dumps(good))
        doc["points"][0]["stats"]["mnlr"][key] = value
        bad_stats.append(doc)
    reps = good["rep_risks"]["mnlr"]
    bad_reps = [
        dict(good, rep_risks={"pfld": reps}),
        dict(good, rep_risks={"mnlr": reps[:1]}),
        dict(good, rep_risks={"mnlr": [reps[0][:1], *reps[1:]]}),
    ]
    bad_numbers = []
    for value in ("0.5", True, str(good["points"][1]["x_value"]), None, float("inf"), 10**400):
        doc = json.loads(json.dumps(good))
        doc["points"][1]["x_value"] = value
        bad_numbers.append(doc)
        doc = json.loads(json.dumps(good))
        doc["rep_risks"]["mnlr"][1][0] = value
        bad_numbers.append(doc)
    for doc in (no_points, one_point, no_stats, *bad_stats, *bad_reps, *bad_numbers):
        out.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["report", "--in", str(out)]) == 4
        assert capsys.readouterr().out == ""
    # an integer too large for a float is reported against its field
    huge_mean = json.loads(json.dumps(good))
    huge_mean["points"][0]["stats"]["mnlr"]["mean_risk"] = 10**400
    for doc, field in (
        (huge_mean, "result.points[0].stats['mnlr']: mean_risk"),
        (bad_numbers[-2], "result.points[1]: x_value"),
        (bad_numbers[-1], "result.rep_risks['mnlr']: each risk"),
    ):
        out.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["report", "--in", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field} must be a finite float, got an integer with 401 digits" in captured.err
    # a malformed entry at any depth is named by its full path
    unknown_key, no_x, list_stats, text_provenance, list_reps, huge_count = (
        json.loads(json.dumps(good)) for _ in range(6)
    )
    unknown_key["points"][2]["median_risk"] = 0.5
    del no_x["points"][0]["x_value"]
    list_stats["points"][1]["stats"]["mnlr"] = [0.5]
    text_provenance["provenance"] = "seed 3"
    list_reps["rep_risks"] = list(list_reps["rep_risks"].values())
    huge_count["spec"]["fixed_n"] = 10**400
    for doc, message in (
        (unknown_key, "result.points[2]: unknown key 'median_risk'"),
        (no_x, "result.points[0]: CurvePoint needs 'x_value'"),
        (list_stats, "result.points[1].stats['mnlr']: the entry must be dict, got list"),
        (text_provenance, "result.provenance: the entry must be dict, got str"),
        (list_reps, "result.rep_risks: 'rep_risks' must be dict, got list\n"),
        (huge_count, "result.spec: fixed_n must be < 2**63, got an integer with 401 digits"),
    ):
        out.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["report", "--in", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_cli_report_unknown_learner(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "r.json"
    assert cli_main(["feature-curve", "--config", str(cfg), "--out-json", str(out)]) == 0
    assert cli_main(["report", "--in", str(out), "--learner", "nope"]) == 3


def test_cli_argparse_errors_map_to_config_exit():
    assert cli_main(["feature-curve"]) == 2  # missing --config
    assert cli_main(["unknown-command"]) == 2
