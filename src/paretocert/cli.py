"""Command-line front end: ingest problems, run the analysis pipeline, and
emit deterministic JSON reports (plus optional CSV extracts).

Commands: classify | support | kkt | witness | report. Exit codes: 0 ok,
2 input or schema error, 4 no conclusion (LICQ failed), 3 numerical failure.
Reports echo the full configuration and are byte-identical across runs for
fixed inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
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
    NotAGain,
    NotSupported,
    NumericalBreakdown,
    SchemaError,
    UnknownBuiltin,
)
from .problems import (
    AnalyticProblem,
    AxisSpec,
    GridSpec,
    PointCloud,
    builtin,
    cut_grid,
    grid_nodes,
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
    NotAGain,
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
        at_least = f.metadata.get("at_least")
        if at_least is not None and getattr(args, f.name) < at_least:
            raise SchemaError(f"{_flag(f.name)} must be at least {at_least}")
    return Config(**{f.name: getattr(args, f.name) for f in fields(Config)})


def _load(source: str):
    if source.startswith("builtin:"):
        return builtin(source[len("builtin:"):]), source
    path = Path(source)
    if not path.exists():
        raise SchemaError(f"problem file not found: {source}")
    return load_problem(path.read_text(encoding="utf-8"), label=source), source


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


def _locate_decision(problem: AnalyticProblem, y_ref, cfg: Config) -> tuple[float, ...]:
    """Nearest decision (by image) on a fixed fine grid; deterministic."""
    resolution = {1: 1025, 2: 65}.get(problem.decision_dim, 17)
    grid = GridSpec.uniform(problem.decision_dim, resolution)
    cloud = sample_criterion_space(problem, grid, tol_feas=cfg.tol_feas)
    target = np.asarray(y_ref, dtype=float)
    images = cloud.as_array()
    errors = np.max(np.abs(images - target), axis=1)
    return cloud.decisions[int(np.argmin(errors))]


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
    for text in args.point:
        y = _parse_vector(text, problem.criterion_dim, "--point")
        decision = _locate_decision(problem, y, cfg) if analytic else None
        points.append(_PointSpec(decision=decision, criterion=y))
    if points:
        return points
    if analytic:
        # placed without sampling; _place_probes gives them their criteria
        return [
            _PointSpec(decision=x, criterion=None)
            for x in grid_nodes(problem, _probe_grid(problem))
        ]
    decisions = problem.decisions or (None,) * len(problem.points)
    return [_PointSpec(decision=d, criterion=y) for d, y in zip(decisions, problem.points)]


def _analysis_grid(
    problem: AnalyticProblem, specs: list[_PointSpec], grid: int, levels: int
) -> GridSpec:
    """The uniform grid joined with every anchor's refinement to ``levels``."""
    anchors = [s.decision for s in specs if s.decision is not None]
    return GridSpec(tuple(
        (AxisSpec.uniform(grid),) + tuple(AxisSpec.geometric(a[d], levels) for a in anchors)
        for d in range(problem.decision_dim)
    ))


def _analysis_cloud(problem, specs: list[_PointSpec], cfg: Config) -> PointCloud:
    """The one cloud a command samples; every ladder and witness cloud is cut from it."""
    if isinstance(problem, PointCloud):
        return problem
    grid = _analysis_grid(problem, specs, cfg.grid, cfg.levels)
    return sample_criterion_space(problem, grid, tol_feas=cfg.tol_feas)


def _place_probes(
    problem, specs: list[_PointSpec], cloud: PointCloud | None, cfg: Config
) -> list[_PointSpec]:
    """The specs with the default probes' criteria cut from the analysis
    cloud, which holds every probe decision; a command without a cloud
    samples the probe grid alone."""
    if all(s.criterion is not None for s in specs):
        return specs
    grid = _probe_grid(problem)
    if cloud is None:
        probes = sample_criterion_space(problem, grid, tol_feas=cfg.tol_feas)
    else:
        probes = cut_grid(problem, cloud, grid)
    return [_PointSpec(decision=d, criterion=y) for d, y in zip(probes.decisions, probes.points)]


def _ladder(
    problem, cloud: PointCloud, spec: _PointSpec, cfg: Config
) -> tuple[PointCloud, ...] | None:
    """The anchor's level clouds, or None when there is no decision anchor."""
    if not isinstance(problem, AnalyticProblem) or spec.decision is None:
        return None
    return refinement_ladder(problem, cloud, spec.decision, cfg.levels)


# ---------------------------------------------------------------------------
# record builders

def _as_record(report, *drop: str) -> dict:
    """A report dataclass as a dict for the JSON report, nested dataclasses
    included and the named fields left out."""
    out = asdict(report)
    for name in drop:
        del out[name]
    return out


def _kkt_dicts(problem, spec: _PointSpec, cfg: Config) -> dict:
    active = kkt.active_set(
        problem, spec.criterion, tol_active=cfg.tol_active, tol_feas=cfg.tol_feas
    )
    licq = kkt.licq_check(active, tol_rank=cfg.tol_rank)
    payload = {
        "active_inequalities": list(active.active_ineq),
        "equalities": list(active.eq),
        "gradients": [[float(v) for v in row] for row in active.gradients],
        "licq": _as_record(licq, "tol"),
    }
    cert = kkt.obstruction_test(active, licq=licq, tol=cfg.tol_obstruction)
    certificate = _as_record(cert, "licq", "tol")
    certificate["lambda"] = certificate.pop("lam")
    payload["certificate"] = certificate
    return payload


def _record_head(spec: _PointSpec) -> dict:
    return {
        "decision": list(spec.decision) if spec.decision is not None else None,
        "criterion": list(spec.criterion),
    }


def _classify_record(problem, cloud, spec: _PointSpec, cfg: Config, ladder) -> dict:
    report = geoffrion.proper_efficiency_report(cloud, spec.criterion)
    record = _record_head(spec)
    # 'dominated' is exactly "some sample point dominates the reference";
    # the divergence probe below never sets or clears it
    record["efficient"] = report.status != geoffrion.DOMINATED
    divergence = None
    if ladder is not None:
        evidence = geoffrion.divergence_probe(
            ladder, problem.criteria_at(spec.decision), growth_factor=cfg.growth_factor
        )
        report = geoffrion.combine_with_divergence(report, evidence)
        divergence = _as_record(evidence)
    record["proper_efficiency"] = _as_record(report, "divergence")
    record["divergence"] = divergence
    return record


def _support_record(problem, cloud, spec: _PointSpec, cfg: Config, ladder) -> dict:
    margin = support.support_margin(cloud, spec.criterion, tol=cfg.tol_lp)
    record: dict = {"margin": _as_record(margin, "y_ref"), "trend": None, "witness": None}
    supported = margin.weights is not None
    if ladder is not None:
        trend = support.support_trend(
            ladder, spec.criterion, persistent_threshold=cfg.persistent_threshold
        )
        record["trend"] = _as_record(trend, "last")
        supported = trend.verdict == support.PERSISTENT
    if supported:
        sample, _, witness = _build_witness_dict(problem, spec, cfg, cloud, margin)
        if witness is not None:
            witness["sample_size"] = len(sample)
        record["witness"] = witness
    return record


def _witness_cloud(
    problem, spec: _PointSpec, cfg: Config, analysis_cloud: PointCloud
) -> PointCloud:
    # points closer than about 2^-12 to the anchor would shrink the quadratic
    # tie-break below the 1e-12 uniqueness tolerance, so the witness sample
    # caps its refinement depth (margins and trends keep the full depth)
    if isinstance(problem, PointCloud):  # input clouds are analysed as they are
        return analysis_cloud
    grid = _analysis_grid(problem, [spec], cfg.grid, min(cfg.levels, 12))
    return cut_grid(problem, analysis_cloud, grid)


def _build_witness_dict(
    problem, spec: _PointSpec, cfg: Config, analysis_cloud: PointCloud,
    analysis_margin: support.MarginReport | None = None,
) -> tuple[PointCloud, support.MarginReport, dict | None]:
    """The witness cloud of ``spec``, its margin, and the verified witness
    (None without positive support weights)."""
    cloud = _witness_cloud(problem, spec, cfg, analysis_cloud)
    if cloud is analysis_cloud and analysis_margin is not None:
        margin = analysis_margin
    else:
        margin = support.support_margin(cloud, spec.criterion, tol=cfg.tol_lp)
    if margin.weights is None:
        return cloud, margin, None
    box = _witness_box(cloud, spec.criterion)
    witness = support.build_witness(spec.criterion, margin.weights, box, cloud)
    verification = support.verify_witness(witness, cloud, tie_tol=cfg.tie_tol)
    return cloud, margin, {**_as_record(witness), "verification": _as_record(verification)}


def _witness_box(cloud: PointCloud, y_ref) -> tuple[tuple[float, float], ...]:
    pts = cloud.as_array()
    lo = np.minimum(pts.min(axis=0), y_ref)
    hi = np.maximum(pts.max(axis=0), y_ref)
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
# commands

def _cmd_classify(problem, source, specs, cfg: Config, cloud: PointCloud):
    records = [
        _classify_record(problem, cloud, spec, cfg, _ladder(problem, cloud, spec, cfg))
        for spec in specs
    ]
    return _payload("classify", problem, source, cfg, records, cloud)


def _cmd_support(problem, source, specs, cfg: Config, cloud: PointCloud):
    records = []
    for spec in specs:
        record = _record_head(spec)
        ladder = _ladder(problem, cloud, spec, cfg)
        record.update(_support_record(problem, cloud, spec, cfg, ladder))
        records.append(record)
    return _payload("support", problem, source, cfg, records, cloud)


def _cmd_kkt(problem, source, specs, cfg: Config, cloud: None):
    records = []
    for spec in specs:
        record = _record_head(spec)
        record.update(_kkt_dicts(problem, spec, cfg))
        records.append(record)
    return _payload("kkt", problem, source, cfg, records, None)


def _cmd_witness(problem, source, specs, cfg: Config, cloud: PointCloud):
    records = []
    for spec in specs:
        _, margin, witness = _build_witness_dict(problem, spec, cfg, cloud)
        if witness is None:
            raise NotSupported(
                f"no positive support at {spec.criterion}: margin {margin.margin}"
            )
        record = _record_head(spec)
        record.update({"margin": _as_record(margin, "y_ref"), "witness": witness})
        records.append(record)
    return _payload("witness", problem, source, cfg, records, cloud)


def _cmd_report(problem, source, specs, cfg: Config, cloud: PointCloud):
    records = []
    for spec in specs:
        # one ladder per record, shared by both analyses and dropped after it
        ladder = _ladder(problem, cloud, spec, cfg)
        record = _classify_record(problem, cloud, spec, cfg, ladder)
        record["support"] = _support_record(problem, cloud, spec, cfg, ladder)
        try:
            record["kkt"] = _kkt_dicts(problem, spec, cfg)
        except (NoConstraintDescription, InfeasiblePoint) as exc:
            record["kkt"] = {"error": str(exc)}
        except LicqNotVerified as exc:
            record["kkt"] = {"error": f"no conclusion: {exc}", "licq_failed": True}
        records.append(record)
    return _payload("report", problem, source, cfg, records, cloud)


def _payload(command, problem, source, cfg: Config, records, cloud) -> dict:
    payload = {
        "tool": {"name": "paretocert", "version": __version__},
        "command": command,
        "config": asdict(cfg),
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
            p = cloud.criterion_dim
            dec_width = len(cloud.decisions[0]) if cloud.decisions else 0
            writer.writerow(
                [f"x{d}" for d in range(dec_width)] + [f"y{i}" for i in range(p)]
            )
            for idx, point in enumerate(cloud.points):
                decision = cloud.decisions[idx] if cloud.decisions else ()
                writer.writerow([repr(v) for v in decision] + [repr(v) for v in point])
    for idx, record in enumerate(payload.get("points", [])):
        divergence = record.get("divergence")
        if divergence:
            with (out_dir / f"divergence_point{idx}.csv").open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["level", "offset", "ratio"])
                for row in zip(divergence["levels"], divergence["offsets"], divergence["ratios"]):
                    writer.writerow([row[0], repr(row[1]), repr(row[2])])
        trend = (record.get("support") or {}).get("trend") or record.get("trend")
        if trend:
            with (out_dir / f"margin_point{idx}.csv").open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["level", "offset", "margin"])
                for row in zip(trend["levels"], trend["offsets"], trend["margins"]):
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
    raise TypeError(f"not serializable: {type(value).__name__}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        problem, source = _load(args.problem)
        specs = _resolve_points(problem, args, cfg)
        # one cloud per command (kkt needs none); --csv writes it
        cloud = None if args.command == "kkt" else _analysis_cloud(problem, specs, cfg)
        specs = _place_probes(problem, specs, cloud, cfg)
        payload = _COMMANDS[args.command](problem, source, specs, cfg, cloud)
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
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.csv:
        _write_csv(args.csv, payload, cloud)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
