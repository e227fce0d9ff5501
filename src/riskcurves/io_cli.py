"""Command-line surface and persistence: JSON config loading, CSV/JSON
result emission, standalone SVG plots, and peak reporting.

File contracts
--------------
* Config files are strict JSON objects keyed like :class:`RunConfig` and
  :class:`~riskcurves.curves.SweepSpec`; unknown keys, non-finite numbers
  and undecodable files are errors, and a null output path is unset.
* Result CSV: header ``curve_kind,x_name,x_value,learner``, then the
  :class:`~riskcurves.curves.LearnerStats` fields with ``rep_count`` first
  (``rep_count,mean_risk,std_risk,stderr_risk,min_risk,max_risk``), then
  ``base_seed``; one row per (grid point, learner) ordered by (x_value,
  learner), risks printed with 17 significant digits, LF endings, trailing
  newline.  With kept reps a
  companion ``<path>.reps.csv`` holds the per-rep risks.
* Result JSON holds the fields of :class:`~riskcurves.curves.CurveResult`
  and of the schema classes inside it (``CurvePoint``, ``LearnerStats``,
  ``Provenance``, the spec's learners and data source); both directions
  follow those fields (:func:`_from_dict`, :func:`_to_dict`), and reader
  errors name the full path, such as ``result.points[0]``.  A result
  round-trips bit-exactly (floats are emitted in shortest round-trip form).
* All writes go to a temp file first and are renamed into place, so a
  failed run never leaves a partial output.  Files take the mode the
  umask leaves of 0o666, as ``open`` would give them.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass

from ._schema import _check, _Checked
from .curves import (
    CurveKind,
    CurveResult,
    LearnerStats,
    SweepSpec,
    detect_peak,
    interpolation_threshold,
    run_sweep,
)
from .data import GaussianSpec
from .errors import (
    ConfigError,
    GridExceedsDimension,
    InvariantViolation,
    MalformedCsv,
    MissingFile,
    OutOfRange,
    ParseError,
    RiskCurvesError,
    UnknownKey,
)
from .linalg import DEFAULT_REL_TOL

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@dataclass(frozen=True)
class RunConfig(_Checked):
    """A validated sweep plus output destinations; a null path is unset."""

    sweep: SweepSpec
    out_csv: str | None = None
    out_json: str | None = None
    out_svg: str | None = None
    keep_reps: bool = False


# --------------------------------------------------------------------------
# Config parsing.


def _expect(value, container: type, where, what):
    """``value``, checked to be a JSON object (``dict``) or list."""
    if not isinstance(value, container):
        raise InvariantViolation(f"{where}: {what} must be {container.__name__}, got {type(value).__name__}")
    return value


def _check_keys(d: dict, allowed, where: str):
    for key in d:
        if key not in allowed:
            raise UnknownKey(f"{where}: unknown key {key!r}")


def _from_dict(of, entry, where: str, *, tag: str | None = None):
    """Build a schema dataclass from the JSON object ``entry`` at path ``where``.

    ``of`` is the class, or with ``tag`` a table in which ``entry[tag]``
    names it; the other keys are the class's ``config_keys``.  A field
    whose metadata names ``of`` (and ``tag``) holds entries read the same
    way: a ``tuple`` field a JSON list of them, a ``dict`` field a
    label-keyed object of them, any other field one.  Errors name the
    path of the entry, such as ``config.learners[2]``, and come in this
    order: an unknown key, a missing one, a plain field's own check, a
    nested entry's error, then the rules that relate fields.
    """
    _expect(entry, dict, where, "the entry")
    cls = of
    if tag:
        name = entry.get(tag)
        cls = of.get(name) if isinstance(name, str) else None
        if cls is None:
            raise InvariantViolation(f"{where}: {tag} must be one of {', '.join(of)}, got {name!r}")
        entry = {k: v for k, v in entry.items() if k != tag}
    by_key = _fields_by_key(cls)
    _check_keys(entry, by_key, where)
    for key, f in by_key.items():
        if key not in entry and f.default is dataclasses.MISSING:
            raise InvariantViolation(f"{where}: {cls.__name__} needs {key!r}")
    values = {f.name: entry[key] for key, f in by_key.items() if key in entry and "of" not in f.metadata}
    with _config_error(where):  # the plain fields before any nested entry
        cls._check_fields(values)
    for key, f in by_key.items():
        if key not in entry or "of" not in f.metadata:
            continue
        value, at = entry[key], f"{where}.{key}"
        read = functools.partial(_from_dict, f.metadata["of"], tag=f.metadata.get("tag"))
        if f.type is tuple:
            value = tuple(read(e, f"{at}[{i}]") for i, e in enumerate(_expect(value, list, at, f"'{key}'")))
        elif f.type is dict:
            value = {label: read(e, f"{at}[{label!r}]") for label, e in _expect(value, dict, at, f"'{key}'").items()}
        else:
            value = read(value, at)
        values[f.name] = value
    with _config_error(where):
        return cls(**values)


def _fields_by_key(cls) -> dict:
    """The fields of schema class ``cls`` by config key."""
    return {cls.config_keys.get(f.name, f.name): f for f in dataclasses.fields(cls)}


@contextlib.contextmanager
def _config_error(where: str):
    """Raise a failed check in the block as :class:`InvariantViolation` naming ``where``."""
    try:
        yield
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer too large for a float
        raise InvariantViolation(f"{where}: {exc}") from exc


def _to_dict(obj) -> dict:
    """Inverse of :func:`_from_dict`: each field that is not None, by config key."""
    return {
        obj.config_keys.get(f.name, f.name): _to_json(value, f.metadata.get("tag"))
        for f in dataclasses.fields(obj)
        if (value := getattr(obj, f.name)) is not None
    }


def _to_json(value, tag: str | None = None):
    """A field value as JSON: a schema entry as its object, with its ``tag``
    first if it has one, and a tuple or dict of values member by member."""
    if isinstance(value, tuple):
        return [_to_json(v, tag) for v in value]
    if isinstance(value, dict):
        return {k: _to_json(v, tag) for k, v in value.items()}
    if isinstance(value, _Checked):
        return {tag: getattr(value, tag), **_to_dict(value)} if tag else _to_dict(value)
    return value


def _sweep_from_dict(d: dict, where: str) -> SweepSpec:
    """:func:`_from_dict` for a :class:`SweepSpec` under the config's rules:
    ``seed`` is required, the count the kind pins defaults to 40, and
    ``data``, or a ``data`` entry without ``source``, is the Gaussian source."""
    d = dict(d)
    for kind in CurveKind:
        if d.get("kind") == kind:
            d.setdefault(kind._pinned, 40)
    if isinstance(data := d.get("data", {}), dict):
        d["data"] = {"source": GaussianSpec.source, **data}
    spec = _from_dict(SweepSpec, d, where)
    if "seed" not in d:  # checked last, so that an unknown key is reported first
        raise InvariantViolation(f"{where}: SweepSpec needs 'seed'")
    return spec


def config_from_dict(d) -> RunConfig:
    """Validate a parsed JSON object into a :class:`RunConfig`.

    The sweep's keys sit beside the output keys, and the output fields are
    plain, so they are checked after the unknown keys and before the sweep."""
    _expect(d, dict, "config", "the configuration")
    outputs = {f.name for f in dataclasses.fields(RunConfig)} - {"sweep"}
    _check_keys(d, outputs | set(_fields_by_key(SweepSpec)), "config")
    with _config_error("config"):
        out = RunConfig._check_fields({k: v for k, v in d.items() if k in outputs})
    sweep = _sweep_from_dict({k: v for k, v in d.items() if k not in outputs}, "config")
    return _from_dict(RunConfig, out | {"sweep": sweep}, "config")


def _load_json(path, what: str):
    """Parse the JSON file ``path``; ``what`` names it in errors."""
    if not os.path.exists(path):
        raise MissingFile(f"no such {what} file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, or an integer over 4300 digits
        raise ParseError(f"{path}: cannot decode {what} file: {exc}") from exc


def load_config(path) -> RunConfig:
    """Read, parse and fully validate a JSON run configuration."""
    return config_from_dict(_load_json(path, "config"))


# --------------------------------------------------------------------------
# Result serialization.


def result_to_json_dict(result: CurveResult) -> dict:
    """The result JSON: the fields of ``result``, see :func:`_to_dict`."""
    return _to_dict(result)


def result_from_json_dict(d) -> CurveResult:
    """Rebuild a result from the fields of :class:`CurveResult`.

    The spec is read under the config's rules (an older file's Gaussian ``data``
    entry holds a ``seed``, dropped, and its learners a ``rel_tol``, see
    :func:`_without_rel_tol`) and each per-rep risk by the number rule; the
    result checks its own match with the spec (:class:`CurveResult`).
    """
    _expect(d, dict, "result", "the result document")
    _check_keys(d, {f.name for f in dataclasses.fields(CurveResult)}, "result")
    spec = _expect(d.get("spec"), dict, "result.spec", "'spec'")
    if isinstance(data := spec.get("data"), dict) and data.get("source", GaussianSpec.source) == GaussianSpec.source:
        spec = {**spec, "data": {k: v for k, v in data.items() if k != "seed"}}  # an older file's seed, never read
    if isinstance(learners := spec.get("learners"), list):  # an older file's rank cutoffs
        spec = {**spec, "learners": [_without_rel_tol(e, f"result.spec.learners[{i}]") for i, e in enumerate(learners)]}
    d = {**d, "spec": _sweep_from_dict(spec, "result.spec")}
    if "rep_risks" in d:
        rep_risks = {}
        for name, per_point in _expect(d["rep_risks"], dict, "result.rep_risks", "'rep_risks'").items():
            at = f"result.rep_risks[{name!r}]"
            rep_risks[name] = tuple(
                tuple(_check(r, float, f"{at}: each risk", InvariantViolation)
                      for r in _expect(point, list, at, "each point"))
                for point in _expect(per_point, list, at, "the entry")
            )
        d["rep_risks"] = rep_risks
    return _from_dict(CurveResult, d, "result")


def _without_rel_tol(entry, where: str):
    """Learner ``entry`` of an older result less its ``rel_tol``, which must be ``DEFAULT_REL_TOL``."""
    if not isinstance(entry, dict):
        return entry  # reported by _from_dict
    if (rel_tol := entry.get("rel_tol", DEFAULT_REL_TOL)) != DEFAULT_REL_TOL:
        raise InvariantViolation(f"{where}: fitted with rel_tol {rel_tol!r}, not the {DEFAULT_REL_TOL:g} of every fit")
    return {k: v for k, v in entry.items() if k != "rel_tol"}


def load_result(path) -> CurveResult:
    """Reload a result JSON written by :func:`emit_json`."""
    return result_from_json_dict(_load_json(path, "result"))


# --------------------------------------------------------------------------
# Emission.


def _atomic_write(path, text: str):
    """Write ``text`` to a fresh file beside ``path`` and rename it into
    place; the file is created with mode 0o666, so the umask applies."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".riskcurves-{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def _csv_cell(value) -> str:
    return _g17(value) if isinstance(value, float) else str(value)


def emit_csv(result: CurveResult, path) -> None:
    """Write the aggregated curve as CSV (see module docstring for schema).

    When the result carries per-rep risks a companion ``<path>.reps.csv``
    is written with header ``curve_kind,x_name,x_value,learner,rep,risk``.
    Rows follow the points' grid order, and a :class:`CurveResult` holds
    only its spec's labels, which need no quoting.
    """
    kind = result.spec.kind.value
    x_name = result.spec.x_name()
    seed = result.spec.base_seed
    columns = sorted(dataclasses.fields(LearnerStats), key=lambda f: f.name != "rep_count")
    lines = [f"curve_kind,x_name,x_value,learner,{','.join(f.name for f in columns)},base_seed"]
    for point in result.points:
        for name in sorted(point.stats):
            s = point.stats[name]
            cells = (_csv_cell(getattr(s, f.name)) for f in columns)
            lines.append(f"{kind},{x_name},{_g17(point.x_value)},{name},{','.join(cells)},{seed}")
    _atomic_write(path, "\n".join(lines) + "\n")
    if result.rep_risks is not None:
        rep_lines = ["curve_kind,x_name,x_value,learner,rep,risk"]
        for pi, point in enumerate(result.points):
            for name in sorted(result.rep_risks):
                for rep, risk in enumerate(result.rep_risks[name][pi]):
                    rep_lines.append(
                        f"{kind},{x_name},{_g17(point.x_value)},{name},{rep},{_g17(risk)}"
                    )
        _atomic_write(f"{path}.reps.csv", "\n".join(rep_lines) + "\n")


def emit_json(result: CurveResult, path) -> None:
    """Write the full result as round-trippable JSON."""
    _atomic_write(path, json.dumps(result_to_json_dict(result), indent=2) + "\n")


# -- SVG ---------------------------------------------------------------------

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

_W, _H = 760, 460
_ML, _MR, _MT, _MB = 72, 190, 28, 56


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape`` without importing it (it pulls in urllib and http)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def emit_svg_plot(result: CurveResult, path) -> None:
    """Render mean risk vs the sweep variable as a standalone SVG.

    One polyline per learner with +-stderr whiskers, a legend, and a single
    dashed vertical rule at the interpolation threshold.  A one-point curve
    renders markers only; a :class:`CurveResult` has a point per grid value.
    """
    spec = result.spec
    names = sorted(result.points[0].stats)
    threshold = interpolation_threshold(spec)

    xs = [p.x_value for p in result.points]
    x_domain = xs + [threshold]
    x_lo, x_hi = min(x_domain), max(x_domain)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    tops, bottoms = [], []
    for p in result.points:
        for s in p.stats.values():
            tops.append(s.mean_risk + s.stderr_risk)
            bottoms.append(s.mean_risk - s.stderr_risk)
    y_lo = min(0.0, min(bottoms))
    y_hi = max(tops)
    pad = 0.08 * max(y_hi - y_lo, 1e-9)
    y_hi += pad

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return _MT + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        # axes
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" y2="{_MT + plot_h}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" stroke="black"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MT + plot_h}" x2="{px:.2f}" y2="{_MT + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MT + plot_h + 20}" text-anchor="middle">{tick:.4g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_ML - 9}" y="{py + 4:.2f}" text-anchor="end">{tick:.3g}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.2f}" y="{_H - 14}" text-anchor="middle">{_escape(spec.x_name())}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + plot_h / 2:.2f})">mean {_escape(spec.risk_metric)} risk</text>'
    )
    # single rule at the interpolation threshold
    tpx = sx(threshold)
    parts.append(
        f'<line class="threshold" x1="{tpx:.2f}" y1="{_MT}" x2="{tpx:.2f}" '
        f'y2="{_MT + plot_h}" stroke="#555555" stroke-dasharray="5,4"/>'
    )

    for idx, name in enumerate(names):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = [(sx(p.x_value), p.stats[name]) for p in result.points]
        if len(pts) > 1:
            coords = " ".join(f"{px:.2f},{sy(s.mean_risk):.2f}" for px, s in pts)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for px, s in pts:
            lo, hi = sy(s.mean_risk - s.stderr_risk), sy(s.mean_risk + s.stderr_risk)
            parts.append(
                f'<line x1="{px:.2f}" y1="{lo:.2f}" x2="{px:.2f}" y2="{hi:.2f}" stroke="{color}"/>'
            )
            parts.append(
                f'<circle cx="{px:.2f}" cy="{sy(s.mean_risk):.2f}" r="3" fill="{color}"/>'
            )
        ly = _MT + 14 + 18 * idx
        lx = _ML + plot_w + 16
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly}">{_escape(name)}</text>')

    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


# --------------------------------------------------------------------------
# CLI.

_KIND_OF_COMMAND = {kind.value.replace("_", "-"): kind for kind in CurveKind}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskcurves",
        description="Run risk-curve sweeps for linear classifiers and report peaks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _KIND_OF_COMMAND:
        p = sub.add_parser(command, help=f"run a {command.replace('-', ' ')} sweep")
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--reps", type=int, help="override the repetition count")
        p.add_argument("--out-csv", help="override the CSV output path")
        p.add_argument("--out-json", help="override the JSON output path")
        p.add_argument("--out-svg", help="override the SVG output path")
        p.add_argument("--keep-reps", action="store_true", help="also store per-rep risks")
        p.add_argument("--workers", type=int, default=1, help="parallel reps (default 1)")
    rep = sub.add_parser("report", help="print peak reports for a result JSON")
    rep.add_argument("--in", dest="in_path", required=True, help="result JSON file")
    rep.add_argument("--learner", help="restrict the report to one learner")
    return parser


def _perr(message: str):
    print(f"riskcurves: error: {message}", file=sys.stderr)


def _format_report(report) -> str:
    flag = "true" if report.at_interpolation else "false"
    return (
        f"{report.learner}: peak_x={report.peak_x:g} peak_mean={report.peak_mean:.6g} "
        f"prominence={report.prominence:.6g} at_interpolation={flag}"
    )


def cli_main(argv) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG

    if args.command == "report":
        try:
            result = load_result(args.in_path)
        except (OSError, ConfigError) as exc:  # missing or malformed input artifact
            _perr(str(exc))
            return EXIT_IO
        names = [args.learner] if args.learner else sorted(result.points[0].stats)
        try:
            for name in names:
                print(_format_report(detect_peak(result, name)))
        except (RiskCurvesError, ValueError) as exc:
            _perr(str(exc))
            return EXIT_NUMERICAL
        return EXIT_OK

    # run subcommands: configuration phase
    try:
        config = load_config(args.config)
        expected = _KIND_OF_COMMAND[args.command]
        if config.sweep.kind is not expected:
            raise InvariantViolation(
                f"config kind {config.sweep.kind.value!r} does not match subcommand {args.command!r}"
            )
        overrides = {"base_seed": args.seed, "reps": args.reps}
        sweep = dataclasses.replace(config.sweep, **{k: v for k, v in overrides.items() if v is not None})
        out_csv = args.out_csv or config.out_csv
        out_json = args.out_json or config.out_json
        out_svg = args.out_svg or config.out_svg
        keep_reps = args.keep_reps or config.keep_reps
        if out_csv is None and out_json is None and out_svg is None:
            raise InvariantViolation(
                "no output requested; set out_csv/out_json/out_svg or pass --out-*"
            )
        _check(args.workers, int, "workers", InvariantViolation, ">=", 1)
    except (ConfigError, MissingFile, RiskCurvesError) as exc:
        _perr(str(exc))
        return EXIT_CONFIG
    except OSError as exc:
        _perr(str(exc))
        return EXIT_IO

    try:
        result = run_sweep(sweep, keep_reps=keep_reps, workers=args.workers)
    except MemoryError as exc:  # a draw too large for this machine; numpy's message names its shape
        _perr(f"the sweep does not fit in memory: {exc}")
        return EXIT_CONFIG
    except (OSError, MalformedCsv, OutOfRange, GridExceedsDimension) as exc:
        # the CSV data source is missing, unreadable or too small for the grid
        _perr(str(exc))
        return EXIT_IO
    except (RiskCurvesError, ValueError) as exc:  # a fit failure names its learner, x and rep
        _perr(str(exc))
        return EXIT_NUMERICAL

    try:
        if out_csv:
            emit_csv(result, out_csv)
            print(f"wrote {out_csv}")
        if out_json:
            emit_json(result, out_json)
            print(f"wrote {out_json}")
        if out_svg:
            emit_svg_plot(result, out_svg)
            print(f"wrote {out_svg}")
    except OSError as exc:
        _perr(str(exc))
        return EXIT_IO
    return EXIT_OK


def main():
    sys.exit(cli_main(sys.argv[1:]))
