"""Command-line front end: ingest problems, run the analysis pipeline, and
emit deterministic JSON reports (plus optional CSV extracts).

Commands: classify | support | kkt | witness | report. Exit codes: 0 ok,
2 input or schema error or an output that cannot be written, 4 no conclusion
(LICQ failed), 3 numerical failure.
Reports echo the full configuration and are byte-identical across runs for
fixed inputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__, geoffrion, kkt, support
from .errors import (
    AnalysisError,
    BoxTooSmall,
    DimensionError,
    DomainError,
    ExprSyntaxError,
    InfeasiblePoint,
    LicqNotVerified,
    NoConstraintDescription,
    NonDifferentiable,
    NotSupported,
    NumericalBreakdown,
    SchemaError,
    UnknownBuiltin,
)
from .problems import (
    AnalyticProblem,
    AxisSpec,
    GridSpec,
    Ladder,
    PointCloud,
    axis_indices,
    builtin,
    cut_grid,
    grid_nodes,
    grid_rows,
    load_problem,
    refinement_ladder,
    sample_criterion_space,
)

_INPUT_ERRORS = (
    SchemaError,
    ExprSyntaxError,
    DimensionError,
    UnknownBuiltin,
    NoConstraintDescription,
    InfeasiblePoint,
    NotSupported,
    BoxTooSmall,
)
_NUMERICAL_ERRORS = (NumericalBreakdown, DomainError, NonDifferentiable)


def _setting(default, help_text: str, *aliases: str, at_least: int):
    """A setting whose flag has help text, aliases or a lower bound."""
    return field(
        default=default,
        metadata={"help": help_text, "aliases": aliases, "at_least": at_least},
    )


@dataclass(frozen=True)
class Config:
    """Analysis settings. Each field is the command-line flag ``--<name>``
    (underscores as dashes), parsed with the type of its default."""

    levels: int = _setting(
        20, "refinement levels for divergence and margin trends", "--refine", at_least=1
    )
    grid: int = _setting(257, "uniform sample resolution per decision dimension", at_least=1)
    tol_feas: float = 1e-9
    tol_active: float = 1e-7
    tol_rank: float = 1e-8
    tol_lp: float = 1e-8
    tol_obstruction: float = 1e-9
    persistent_threshold: float = 1e-3
    growth_factor: float = 1e3
    tie_tol: float = 1e-12


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretocert",
        description="Efficiency classification and value-function support certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "classify": "efficiency and proper-efficiency analysis of the requested points",
        "support": "support margin trend and value-function witness at a point",
        "kkt": "LICQ check and obstruction certificate at a point",
        "witness": "build and verify a value-function witness at a point",
        "report": "full pipeline: classify, support, and kkt per point",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("problem", help="problem JSON file, or builtin:<name>")
        sp.add_argument(
            "--point",
            action="append",
            default=[],
            metavar="A,B",
            help="criterion-space point (repeatable); use --point=-1,0 for negatives",
        )
        sp.add_argument(
            "--point-decision",
            action="append",
            default=[],
            metavar="X",
            help="decision-space point (repeatable)",
        )
        for f in fields(Config):
            sp.add_argument(
                _flag(f.name), *f.metadata.get("aliases", ()), dest=f.name,
                type=type(f.default), default=f.default, help=f.metadata.get("help"),
            )
        sp.add_argument("--out", metavar="FILE", help="write the JSON report here instead of stdout")
        sp.add_argument("--csv", metavar="DIR", help="write CSV extracts (samples, trends) here")
    return parser


def _config_from_args(args: argparse.Namespace) -> Config:
    for f in fields(Config):
        value, at_least = getattr(args, f.name), f.metadata.get("at_least")
        if at_least is not None and value < at_least:
            raise SchemaError(f"{_flag(f.name)} must be at least {at_least}")
        # a NaN tolerance fails every comparison, so it would pass every check
        if isinstance(value, float) and not (math.isfinite(value) and value >= 0):
            raise SchemaError(f"{_flag(f.name)} must be a finite number >= 0")
    return Config(**{f.name: getattr(args, f.name) for f in fields(Config)})


def _load(source: str):
    if source.startswith("builtin:"):
        return builtin(source[len("builtin:"):]), source
    path = Path(source)
    if not path.exists():
        raise SchemaError(f"problem file not found: {source}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise SchemaError(f"cannot read {source}: {reason}") from None
    return load_problem(text, label=source), source


def _parse_vector(text: str, expected: int, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise SchemaError(f"{what}: could not parse {text!r} as a comma-separated vector") from None
    if len(values) != expected:
        raise SchemaError(f"{what}: expected {expected} coordinates, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raise SchemaError(f"{what}: coordinates must be finite, got {text!r}")
    return values


def _locating_cloud(problem: AnalyticProblem, cfg: Config) -> PointCloud:
    """The fixed fine grid that ``--point`` vectors are located on."""
    resolution = {1: 1025, 2: 65}.get(problem.decision_dim, 17)
    grid = GridSpec.uniform(problem.decision_dim, resolution)
    return sample_criterion_space(problem, grid, tol_feas=cfg.tol_feas)


def _locate_decision(cloud: PointCloud, y_ref) -> tuple[float, ...]:
    """Nearest decision (by image) in the locating cloud; deterministic."""
    errors = np.max(np.abs(cloud.as_array() - np.asarray(y_ref, dtype=float)), axis=1)
    return tuple(cloud.decision_array()[int(np.argmin(errors))].tolist())


@dataclass(frozen=True)
class _PointSpec:
    decision: tuple[float, ...] | None
    criterion: tuple[float, ...] | None  # None for a default probe until placed


def _probe_grid(problem: AnalyticProblem) -> GridSpec:
    """The default probe set: a uniform five-point grid per decision dimension."""
    return GridSpec.uniform(problem.decision_dim, 5)


def _resolve_points(problem, args: argparse.Namespace, cfg: Config) -> list[_PointSpec]:
    points: list[_PointSpec] = []
    analytic = isinstance(problem, AnalyticProblem)
    for text in args.point_decision:
        if not analytic:
            raise SchemaError("--point-decision needs an analytic problem")
        x = _parse_vector(text, problem.decision_dim, "--point-decision")
        for d, (lo, hi) in enumerate(problem.domain):
            if not lo <= x[d] <= hi:
                raise SchemaError(f"--point-decision: coordinate {d} outside [{lo}, {hi}]")
        points.append(_PointSpec(decision=x, criterion=problem.criteria_at(x)))
    locating = None  # sampled once, when the first --point needs it
    for text in args.point:
        y = _parse_vector(text, problem.criterion_dim, "--point")
        decision = None
        if analytic:
            if locating is None:
                locating = _locating_cloud(problem, cfg)
            decision = _locate_decision(locating, y)
        points.append(_PointSpec(decision=decision, criterion=y))
    if points:
        return points
    if analytic:
        # placed without sampling; _place_probes gives them their criteria
        return [
            _PointSpec(decision=tuple(x), criterion=None)
            for x in grid_nodes(problem, _probe_grid(problem)).tolist()
        ]
    return _cloud_specs(problem, np.arange(len(problem)))


def _cloud_specs(cloud: PointCloud, rows: np.ndarray) -> list[_PointSpec]:
    """The points of ``cloud`` at ``rows``, with their decisions if it has any."""
    criteria = cloud.as_array()[rows].tolist()
    decisions = cloud.decision_array()
    decisions = [None] * len(criteria) if decisions is None else decisions[rows].tolist()
    return [
        _PointSpec(decision=None if x is None else tuple(x), criterion=tuple(y))
        for x, y in zip(decisions, criteria)
    ]


def _analysis_cloud(problem, specs: list[_PointSpec], cfg: Config) -> PointCloud:
    """The one cloud a command samples, the uniform grid joined with every
    anchor's refinement; every ladder and witness sample is a row set of it."""
    if isinstance(problem, PointCloud):
        return problem
    anchors = [s.decision for s in specs if s.decision is not None]
    grid = GridSpec(tuple(
        (AxisSpec.uniform(cfg.grid), *(AxisSpec.geometric(a[d], cfg.levels) for a in anchors))
        for d in range(problem.decision_dim)
    ))
    return sample_criterion_space(problem, grid, tol_feas=cfg.tol_feas)


def _place_probes(
    problem, specs: list[_PointSpec], cloud: PointCloud | None, cfg: Config
) -> list[_PointSpec]:
    """The specs with the default probes' criteria read from the analysis
    cloud, which holds every probe decision; a command without a cloud
    samples the probe grid alone."""
    if all(s.criterion is not None for s in specs):
        return specs
    grid = _probe_grid(problem)
    if cloud is None:
        cloud = sample_criterion_space(problem, grid, tol_feas=cfg.tol_feas)
    return _cloud_specs(cloud, cut_grid(problem, cloud, grid))


def _ladder(problem, cloud: PointCloud, spec: _PointSpec, cfg: Config) -> Ladder | None:
    """The anchor's refinement ladder, or None when there is no decision anchor."""
    if not isinstance(problem, AnalyticProblem) or spec.decision is None:
        return None
    return refinement_ladder(problem, cloud, spec.decision, cfg.levels)


# ---------------------------------------------------------------------------
# record builders

def _as_record(report, *drop: str) -> dict:
    """A report dataclass as a dict of its fields for the JSON report, the
    named fields left out unread. Nested dataclasses stay as they are, and
    ``_json_default`` makes them records while the report is written."""
    return {f.name: getattr(report, f.name) for f in fields(report) if f.name not in drop}


def _kkt_dicts(problem, spec: _PointSpec, cfg: Config) -> dict:
    active = kkt.active_set(
        problem, spec.criterion, tol_active=cfg.tol_active, tol_feas=cfg.tol_feas
    )
    licq = kkt.licq_check(active, tol_rank=cfg.tol_rank)
    cert = kkt.obstruction_test(active, licq=licq, tol=cfg.tol_obstruction)
    certificate = _as_record(cert, "licq", "tol")
    certificate["lambda"] = certificate.pop("lam")
    return {
        "active_inequalities": list(active.active_ineq),
        "equalities": list(active.eq),
        "gradients": active.gradients.tolist(),
        "licq": _as_record(licq, "tol"),
        "certificate": certificate,
    }


def _record_head(spec: _PointSpec) -> dict:
    return {
        "decision": list(spec.decision) if spec.decision is not None else None,
        "criterion": list(spec.criterion),
    }


def _classify_record(problem, cloud, spec: _PointSpec, cfg: Config, ladder) -> dict:
    bounds = geoffrion.ratio_bounds(cloud, spec.criterion)
    report = geoffrion.proper_efficiency_report(cloud, spec.criterion, bounds=bounds)
    record = _record_head(spec)
    # 'dominated' is exactly "some sample point dominates the reference";
    # the divergence probe below never sets or clears it
    record["efficient"] = report.status != geoffrion.DOMINATED
    divergence = None
    if ladder is not None:
        probe = problem.criteria_at(spec.decision)  # not the point, for a located --point
        evidence = geoffrion.divergence_probe(
            cloud, ladder, probe, growth_factor=cfg.growth_factor,
            bounds=bounds if probe == spec.criterion else None,
        )
        report = geoffrion.combine_with_divergence(report, evidence)
        divergence = _as_record(evidence)
    record["proper_efficiency"] = _as_record(report, "divergence")
    record["divergence"] = divergence
    return record


def _support_record(problem, cloud, spec: _PointSpec, cfg: Config, ladder, uniform) -> dict:
    # the point's one cut matrix: its margin, trend and witness margin are
    # LPs over row sets of it
    cuts = support.prepare_cuts(cloud, spec.criterion)
    margin = support.support_margin(cuts, tol=cfg.tol_lp)
    record: dict = {"margin": _as_record(margin, "y_ref"), "trend": None, "witness": None}
    supported = margin.weights is not None
    if ladder is not None:
        trend = support.support_trend(
            cuts, ladder, persistent_threshold=cfg.persistent_threshold
        )
        record["trend"] = _as_record(trend, "last")
        supported = trend.verdict == support.PERSISTENT
    if supported:
        witness_margin, witness = _build_witness_dict(
            problem, spec, cfg, cloud, cuts, uniform, margin
        )
        if witness is not None:
            witness["sample_size"] = witness_margin.sample_size
        record["witness"] = witness
    return record


def _witness_rows(problem, spec: _PointSpec, cfg: Config, cloud: PointCloud, uniform) -> np.ndarray:
    """The sorted rows of the analysis cloud that form the witness sample of ``spec``;
    ``uniform`` holds the uniform grid's indices in each axis of the cloud."""
    # points closer than about 2^-12 to the anchor would shrink the quadratic
    # tie-break below the 1e-12 uniqueness tolerance, so the witness sample
    # caps its refinement depth (margins and trends keep the full depth)
    if uniform is None:  # input clouds are analysed as they are
        return np.arange(len(cloud))
    near = axis_indices(problem, cloud, GridSpec.geometric(spec.decision, min(cfg.levels, 12)))
    # per axis, the sorted indices in either set (np.union1d would import numpy.ma)
    joined = [np.flatnonzero(np.bincount(np.r_[u, g])) for u, g in zip(uniform, near)]
    return grid_rows(cloud, joined)


def _build_witness_dict(
    problem, spec: _PointSpec, cfg: Config, analysis_cloud: PointCloud, cuts: support.Cuts,
    uniform, analysis_margin: support.MarginReport | None = None,
) -> tuple[support.MarginReport, dict | None]:
    """The margin over the witness sample of ``spec``, and the verified
    witness (None without positive support weights). ``cuts`` are those of
    the analysis cloud against the point, ``uniform`` is as for ``_witness_rows``,
    and ``analysis_margin`` the cuts' margin over every row, if already solved."""
    rows = _witness_rows(problem, spec, cfg, analysis_cloud, uniform)
    every = len(rows) == len(analysis_cloud)
    if every and analysis_margin is not None:
        margin = analysis_margin
    else:
        margin = support.support_margin(cuts, tol=cfg.tol_lp, rows=None if every else rows)
    if margin.weights is None:
        return margin, None
    sample = analysis_cloud.as_array()
    sample = sample if every else np.take(sample, rows, axis=0)
    box = _witness_box(sample, spec.criterion)
    witness = support.build_witness(spec.criterion, margin.weights, box, sample)
    verification = support.verify_witness(witness, sample, tie_tol=cfg.tie_tol)
    return margin, {**_as_record(witness), "verification": _as_record(verification)}


def _witness_box(pts: np.ndarray, y_ref) -> tuple[tuple[float, float], ...]:
    # a pass per column: axis-0 reductions of a tall (N, p) array are slower
    lo = np.minimum([column.min() for column in pts.T], y_ref)
    hi = np.maximum([column.max() for column in pts.T], y_ref)
    pad = 0.05 * np.maximum(hi - lo, 1.0)
    return tuple((float(l - p), float(h + p)) for l, h, p in zip(lo, hi, pad))


def _problem_dict(problem, source: str) -> dict:
    if isinstance(problem, AnalyticProblem):
        return {
            "type": "analytic",
            "source": source,
            "digest": problem.digest(),
            "decision_dim": problem.decision_dim,
            "criterion_dim": problem.criterion_dim,
            "has_constraints": problem.has_constraints,
        }
    return {
        "type": "cloud",
        "source": source,
        "digest": problem.digest(),
        "criterion_dim": problem.criterion_dim,
        "size": len(problem),
    }


# ---------------------------------------------------------------------------
# commands: each builds the record of one point

def _cmd_classify(problem, spec: _PointSpec, cfg: Config, cloud: PointCloud, uniform) -> dict:
    return _classify_record(problem, cloud, spec, cfg, _ladder(problem, cloud, spec, cfg))


def _cmd_support(problem, spec: _PointSpec, cfg: Config, cloud: PointCloud, uniform) -> dict:
    ladder = _ladder(problem, cloud, spec, cfg)
    return {**_record_head(spec), **_support_record(problem, cloud, spec, cfg, ladder, uniform)}


def _cmd_kkt(problem, spec: _PointSpec, cfg: Config, cloud: None, uniform: None) -> dict:
    return {**_record_head(spec), **_kkt_dicts(problem, spec, cfg)}


def _cmd_witness(problem, spec: _PointSpec, cfg: Config, cloud: PointCloud, uniform) -> dict:
    cuts = support.prepare_cuts(cloud, spec.criterion)
    margin, witness = _build_witness_dict(problem, spec, cfg, cloud, cuts, uniform)
    if witness is None:
        raise NotSupported(f"no positive support at {spec.criterion}: margin {margin.margin}")
    return {**_record_head(spec), "margin": _as_record(margin, "y_ref"), "witness": witness}


def _cmd_report(problem, spec: _PointSpec, cfg: Config, cloud: PointCloud, uniform) -> dict:
    # one ladder per record, shared by both analyses and dropped after it
    ladder = _ladder(problem, cloud, spec, cfg)
    record = _classify_record(problem, cloud, spec, cfg, ladder)
    record["support"] = _support_record(problem, cloud, spec, cfg, ladder, uniform)
    # a kkt failure at one point is that point's record; the kkt command exits on it
    try:
        record["kkt"] = _kkt_dicts(problem, spec, cfg)
    except (NoConstraintDescription, InfeasiblePoint, NonDifferentiable, DomainError) as exc:
        record["kkt"] = {"error": str(exc)}
    except LicqNotVerified as exc:
        record["kkt"] = {"error": f"no conclusion: {exc}", "licq_failed": True}
    return record


def _payload(command, problem, source, cfg: Config, records, cloud) -> dict:
    payload = {
        "tool": {"name": "paretocert", "version": __version__},
        "command": command,
        "config": _as_record(cfg),
        "problem": _problem_dict(problem, source),
        "points": records,
    }
    if cloud is not None:
        payload["sample"] = {"size": len(cloud), "provenance": cloud.provenance}
    return payload


# ---------------------------------------------------------------------------
# CSV extracts

def _write_csv(directory: str, payload: dict, cloud: PointCloud | None) -> None:
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cloud is not None:
        with (out_dir / "sample_points.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            points, decisions = cloud.as_array(), cloud.decision_array()
            if decisions is None:
                decisions = points[:, :0]
            writer.writerow(
                [f"x{d}" for d in range(decisions.shape[1])]
                + [f"y{i}" for i in range(cloud.criterion_dim)]
            )
            rows = np.hstack([decisions, points]).tolist()
            writer.writerows([repr(v) for v in row] for row in rows)
    for idx, record in enumerate(payload.get("points", [])):
        series = (
            ("divergence", "ratio", record.get("divergence")),
            ("margin", "margin", (record.get("support") or {}).get("trend") or record.get("trend")),
        )
        for name, column, values in series:
            if values:
                with (out_dir / f"{name}_point{idx}.csv").open("w", newline="") as handle:
                    writer = csv.writer(handle)
                    writer.writerow(["level", "offset", column])
                    for row in zip(values["levels"], values["offsets"], values[f"{column}s"]):
                        writer.writerow([row[0], repr(row[1]), repr(row[2])])


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "classify": _cmd_classify,
    "support": _cmd_support,
    "kkt": _cmd_kkt,
    "witness": _cmd_witness,
    "report": _cmd_report,
}


def _json_default(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if is_dataclass(value):
        return _as_record(value)
    raise TypeError(f"not serializable: {type(value).__name__}")


# one parser for every call of main in a process; parsing leaves it unchanged
_parser = functools.cache(build_parser)


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"error: cannot write {exc.filename or path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        problem, source = _load(args.problem)
        specs = _resolve_points(problem, args, cfg)
        # one cloud per command (kkt needs none); --csv writes it
        cloud = None if args.command == "kkt" else _analysis_cloud(problem, specs, cfg)
        specs = _place_probes(problem, specs, cloud, cfg)
        uniform = None  # the uniform grid's indices, looked up once for every witness sample
        if isinstance(problem, AnalyticProblem) and cloud is not None:
            uniform = axis_indices(problem, cloud, GridSpec.uniform(problem.decision_dim, cfg.grid))
        records = [_COMMANDS[args.command](problem, spec, cfg, cloud, uniform) for spec in specs]
        payload = _payload(args.command, problem, source, cfg, records, cloud)
    except LicqNotVerified as exc:
        print(f"no conclusion: {exc}", file=sys.stderr)
        return 4
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except AnalysisError as exc:  # any stragglers count as input problems
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            return _cannot_write(args.out, exc)
    else:
        sys.stdout.write(text)
    if args.csv:
        try:
            _write_csv(args.csv, payload, cloud)
        except OSError as exc:
            return _cannot_write(args.csv, exc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
