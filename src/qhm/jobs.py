"""Configuration-driven job runner producing machine-readable reports.

A job file is a JSON object selecting one job kind, a grid, physical
parameters, metric labels, and a verdict threshold.  ``run_job`` executes the
pipeline on every grid in the refinement list (default: just the configured
grid) and aggregates a report document whose payload is deterministic for a
fixed config; ``serialize_report`` writes ``report.json`` plus a flat
``tables.csv``.

Each job kind is one entry of ``_JOBS``: the key its entries go under in
``results``, its default threshold, and a runner.  A runner is a generator
that does its once-per-job setup, then yields one ``(entry, rows)`` pair per
grid; the entry carries its own ``"verdict"`` and the rows are
``(metric, tau, residual)`` tuples for ``tables.csv``.  ``run_job`` is the
one loop around them.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import logging
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from ._version import __version__
from .gridops import DERIVATIVE_MIN_POINTS, Grid, NumericGuardError, Operator
from .metrics import (
    _check_tau_values,
    _require_defined,
    build_metric,
    limit_sweep,
    metric_condition,
    spec_from_label,
)
from .models import (
    PhysParams,
    QDeformParams,
    build_deformed_pair,
    build_ladder,
    build_swanson_bf,
    build_swanson_jr,
    default_number_operator,
    deformed_algebra_residual,
)
from .verify import (
    FIT_MIN_INTERIOR,
    dieudonne_details,
    dieudonne_residual,
    fit_diagonal_metric,
    hermitian_counterpart,
    log_quadratic_coefficient,
    model_equality_report,
    spectrum,
)

__all__ = ["ConfigError", "JobConfig", "parse_config", "run_job", "serialize_report"]

logger = logging.getLogger("qhm.jobs")


class ConfigError(ValueError):
    """The job configuration is malformed or violates a validation rule."""


@dataclass(frozen=True)
class JobConfig:
    job: str
    grid: Grid
    refinement: tuple[int, ...] | None
    params: PhysParams
    metric: str | None
    metrics: tuple[str, ...]
    reference: str | None
    tau_values: tuple[float, ...]
    threshold: float
    q_params: QDeformParams
    k: int
    model: str
    out_dir: str | None

    def __post_init__(self) -> None:
        # Checked here rather than in parse_config so that a refinement set
        # later by with_refinement (the CLI's --refine) is checked too.
        if self.job != "fit-metric":
            return
        sizes = {f"grid.n_points {self.grid.n_points}": self.grid.n_points}
        sizes.update((f"refinement entry {n}", n) for n in self.refinement or ())
        for where, n in sizes.items():
            sl = Grid(n, self.grid.p_max, self.grid.mask_fraction).interior()
            if sl.stop - sl.start < FIT_MIN_INTERIOR:
                raise ConfigError(
                    f"{where}: fit-metric needs at least {FIT_MIN_INTERIOR} "
                    f"interior points, got {sl.stop - sl.start}"
                )


# ---------------------------------------------------------------- config keys

# Dataclass field -> job-file key, for parsing and for the echo alike.
_RENAMES = {"lam": "lambda"}
# The refinement list is a field of the config but a key of the grid block.
_NOT_KEYS = {"refinement"}


@functools.cache
def _config_keys(cls) -> dict[str, str]:
    """Job-file key -> field name, in field order."""
    return {
        _RENAMES.get(f.name, f.name): f.name
        for f in dataclasses.fields(cls)
        if f.name not in _NOT_KEYS
    }


_TOP_KEYS = _config_keys(JobConfig)
_GRID_KEYS = {*_config_keys(Grid), "refinement"}
_PARAM_KEYS = _config_keys(PhysParams)
_QPARAM_KEYS = _config_keys(QDeformParams)


def _block(value, where: str, allowed) -> dict:
    """A job-file object with no key outside ``allowed``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(value).difference(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    return value


def _refused(call, *args, prefix: str = "", **kwargs):
    """``call(*args, **kwargs)``; a ValueError it raises (a model's rule, an
    unknown label) is raised again as a ConfigError, ``prefix`` first."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _optional_str(data: dict, key: str, what: str) -> str | None:
    value = data.get(key)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{key} must be a string {what}")
    return value


def _finite_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite")
    return value


def _plain_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


# The largest grid a job file may name: a 9-band operator on 2**20 + 1
# points already holds 150 MB, so a larger size is refused at parse time
# rather than left to fail in run_job.
MAX_POINTS = 2**20 + 1


def _build_grid(
    n_points: int, p_max: float, mask_fraction: float, prefix: str = ""
) -> Grid:
    if n_points > MAX_POINTS:
        raise ConfigError(f"{prefix}n_points must be at most {MAX_POINTS}, got {n_points}")
    grid = _refused(Grid, n_points, p_max, mask_fraction, prefix=prefix)
    # Every job but limit-sweep builds the derivative matrix; a limit sweep
    # on 3 points has a 3-point interior and is refused with the rest.
    if n_points < DERIVATIVE_MIN_POINTS:
        raise ConfigError(
            f"{prefix}n_points must be at least {DERIVATIVE_MIN_POINTS} for the "
            f"derivative stencil, got {n_points}"
        )
    return grid


def validate_refinement(values, grid: Grid) -> tuple[int, ...]:
    """Strictly increasing odd integers of at least 5, each a valid ``Grid``
    size with the p_max and mask fraction of ``grid``; raises ConfigError
    otherwise."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError("refinement must be a non-empty list of integers")
    out = [_plain_int(v, "refinement entry") for v in values]
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError("refinement list must be strictly increasing")
    for n in out:
        _build_grid(n, grid.p_max, grid.mask_fraction, f"refinement entry {n}: ")
    return tuple(out)


def with_refinement(cfg: JobConfig, text: str) -> JobConfig:
    """``cfg`` with the refinement of ``--refine``'s comma-separated sizes."""
    sizes = [_refused(int, tok, prefix="--refine entries must be integers: ")
             for tok in text.split(",") if tok.strip()]
    return dataclasses.replace(cfg, refinement=validate_refinement(sizes, cfg.grid))


def _bf_params(pp: PhysParams) -> PhysParams:
    """A model-equality job's BF parameters: its own μ, or the nominal
    δ_t − λ when μ is 0; raises ValueError when that μ breaks a rule of
    ``PhysParams``."""
    return dataclasses.replace(pp, mu=pp.mu if pp.mu != 0.0 else pp.delta_t - pp.lam)


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused when it names a key twice (``json.loads``
    would keep the last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        raise ConfigError(f"repeated key(s) in an object: {', '.join(repeated)}")
    return obj


def parse_config(text: str) -> JobConfig:
    """Parse and validate a JSON job description (strict: no unknown or
    repeated keys)."""

    def _no_const(name: str):
        raise ConfigError(f"non-finite constant {name} is not allowed")

    try:
        data = json.loads(text, parse_constant=_no_const, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("job config must be a JSON object")
    _block(data, "config", _TOP_KEYS)

    job = data.get("job")
    if job not in JOB_KINDS:
        raise ConfigError(
            f"unrecognized job kind {job!r}; expected one of {', '.join(JOB_KINDS)}"
        )

    grid_block = _block(data.get("grid", {}), "grid", _GRID_KEYS)
    n_points = _plain_int(grid_block.get("n_points", 257), "grid.n_points")
    p_max = _finite_number(grid_block.get("p_max", 8.0), "grid.p_max")
    mask = _finite_number(
        grid_block.get("mask_fraction", Grid.mask_fraction), "grid.mask_fraction"
    )
    grid = _build_grid(n_points, p_max, mask, "grid: ")
    refinement = None
    if grid_block.get("refinement") is not None:
        refinement = validate_refinement(grid_block["refinement"], grid)

    params_block = _block(data.get("params", {}), "params", _PARAM_KEYS)
    kwargs = {
        field: _finite_number(params_block[key], f"params.{key}")
        for key, field in _PARAM_KEYS.items()
        if key in params_block
    }
    params = _refused(PhysParams, **kwargs)

    metric = _optional_str(data, "metric", "label")
    metrics = data.get("metrics", ["BF-composite", "JR-composite"])
    if not isinstance(metrics, list) or not all(isinstance(m, str) for m in metrics):
        raise ConfigError("metrics must be a list of string labels")
    metrics = tuple(metrics)
    reference = _optional_str(data, "reference", "label")

    # The labels the job evaluates at params.tau; a limit sweep evaluates its
    # own metric at each swept tau instead.
    evaluated = {
        "verify-metric": (metric,),
        "spectrum": (metric,),
        "compare-metrics": metrics,
        "limit-sweep": (reference,),
    }.get(job, ())
    for label in filter(None, (metric, reference, *metrics)):
        spec = _refused(spec_from_label, label)
        if label in evaluated:
            _refused(_require_defined, spec, params)

    if job == "verify-metric" and metric is None:
        raise ConfigError("verify-metric requires a 'metric' label")
    if job == "compare-metrics" and len(metrics) != 2:
        raise ConfigError("compare-metrics requires exactly two 'metrics' labels")
    if job == "compare-metrics" and metrics[0] == metrics[1]:
        raise ConfigError(f"compare-metrics labels must differ, got {metrics[0]!r} twice")
    if job == "limit-sweep" and reference is None:
        raise ConfigError("limit-sweep requires a 'reference' label")

    tau_values = data.get("tau_values", [1e-1, 1e-2, 1e-3, 1e-4])
    if not isinstance(tau_values, list) or not tau_values:
        raise ConfigError("tau_values must be a non-empty list")
    taus = tuple(_finite_number(t, "tau_values entry") for t in tau_values)
    _refused(_check_tau_values, taus)

    threshold = _finite_number(data.get("threshold", _JOBS[job].threshold), "threshold")

    q_block = _block(data.get("q_params", {}), "q_params", _QPARAM_KEYS)
    q = _finite_number(q_block.get("q", 1.0), "q_params.q")
    if not math.isfinite(q * q):
        raise ConfigError("q_params.q is too large: q**2 overflows")
    q_params = _refused(
        QDeformParams,
        q=q,
        alpha=_finite_number(q_block.get("alpha", 1.0), "q_params.alpha"),
        beta=_finite_number(q_block.get("beta", 0.0), "q_params.beta"),
        gamma=_finite_number(q_block.get("gamma", (q**2 + 1.0) / 4.0), "q_params.gamma"),
        delta=_finite_number(q_block.get("delta", 1.0), "q_params.delta"),
    )

    k = _plain_int(data.get("k", 6), "k")
    if k < 1:
        raise ConfigError("k must be at least 1")

    model = data.get("model", "BF")
    if model not in ("BF", "JR"):
        raise ConfigError(f"model must be 'BF' or 'JR', got {model!r}")

    out_dir = _optional_str(data, "out_dir", "path")
    if job == "model-equality":
        _refused(_bf_params, params)

    return JobConfig(
        job=job,
        grid=grid,
        refinement=refinement,
        params=params,
        metric=metric,
        metrics=metrics,
        reference=reference,
        tau_values=taus,
        threshold=threshold,
        q_params=q_params,
        k=k,
        model=model,
        out_dir=out_dir,
    )


def _echo(obj) -> dict:
    """Job-file keys -> values of a config dataclass, nested blocks included."""
    out = {}
    for key, field in _config_keys(type(obj)).items():
        value = getattr(obj, field)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, (Grid, PhysParams, QDeformParams)):
            value = _echo(value)
        out[key] = value
    return out


def _config_echo(cfg: JobConfig) -> dict:
    """The config as a job file that parses back to it (``out_dir`` aside)."""
    echo = _echo(cfg)
    del echo["out_dir"]
    echo["grid"]["refinement"] = list(cfg.refinement) if cfg.refinement else None
    return echo


def _grids(cfg: JobConfig) -> list[Grid]:
    ns = cfg.refinement if cfg.refinement else (cfg.grid.n_points,)
    return [Grid(n, cfg.grid.p_max, cfg.grid.mask_fraction) for n in ns]


# ---------------------------------------------------------------- runners
# Runners call the library through this module's globals at call time, so
# anything that patches those attributes (a tracer, a test) sees every call.

def _build_model(grid: Grid, pp: PhysParams, which: str) -> Operator:
    x, p = build_deformed_pair(grid, pp)
    if which == "JR":
        ladder = build_ladder(x, p, pp)
        return build_swanson_jr(ladder.a, ladder.a_dag, pp)
    return build_swanson_bf(x, p, pp)


def _json_number(value: float) -> float | None:
    """``value``, or None when it is not finite: strict JSON has no
    ``Infinity`` or ``NaN``."""
    return value if math.isfinite(value) else None


def _verdict(value: float, threshold: float, *, at_least: bool = False) -> str:
    ok = value >= threshold if at_least else value < threshold
    return "PASS" if ok else "FAIL"


def _verify_metric(cfg: JobConfig, grids: list[Grid]):
    spec = spec_from_label(cfg.metric)
    for grid in grids:
        h = _build_model(grid, cfg.params, cfg.model)
        g = build_metric(spec, grid, cfg.params)
        details = dieudonne_details(h, g)
        yield {
            "metric": cfg.metric,
            "n_points": grid.n_points,
            "residual_action": details["action"],
            "residual_matrix": details["matrix"],
            "masked": details["masked"],
            "condition_number": metric_condition(g),
            "verdict": _verdict(details["action"], cfg.threshold),
        }, [(cfg.metric, cfg.params.tau, details["action"])]


def _compare_metrics(cfg: JobConfig, grids: list[Grid]):
    first, second = cfg.metrics
    specs = {label: spec_from_label(label) for label in cfg.metrics}
    for grid in grids:
        h = _build_model(grid, cfg.params, cfg.model)
        residuals = {
            label: dieudonne_residual(h, build_metric(specs[label], grid, cfg.params))
            for label in cfg.metrics
        }
        r1, r2 = residuals[first], residuals[second]
        ratio = r2 / r1 if r1 > 0 else float("inf")
        favored = None if r1 == r2 else first if r1 < r2 else second
        yield {
            "n_points": grid.n_points,
            "residuals": residuals,
            "ratio": _json_number(ratio),
            "favored": favored,
            "verdict": "FAIL" if favored is None else _verdict(ratio, cfg.threshold, at_least=True),
        }, [(label, cfg.params.tau, residuals[label]) for label in cfg.metrics]


def _limit_sweep(cfg: JobConfig, grids: list[Grid]):
    label = cfg.metric or "JR"
    spec = spec_from_label(label)
    ref = spec_from_label(cfg.reference)
    for grid in grids:
        table = limit_sweep(spec, cfg.tau_values, ref, grid, cfg.params)
        final = table[-1][1]
        yield {
            "metric": label,
            "reference": cfg.reference,
            "n_points": grid.n_points,
            "table": [[t, d] for t, d in table],
            "final_distance": final,
            "verdict": _verdict(final, cfg.threshold),
        }, [(label, t, d) for t, d in table]


def _model_equality(cfg: JobConfig, grids: list[Grid]):
    pp, pp_bf = cfg.params, _bf_params(cfg.params)
    mu_nominal, mu_in = pp.delta_t - pp.lam, pp_bf.mu
    for grid in grids:
        x, p = build_deformed_pair(grid, pp)
        ladder = build_ladder(x, p, pp)
        h_jr = build_swanson_jr(ladder.a, ladder.a_dag, pp)
        h_bf = build_swanson_bf(x, p, pp_bf)
        report = model_equality_report(h_jr, h_bf, x, p)
        mu_fitted = mu_in + report.anticommutator_coefficient.imag
        yield {
            "n_points": grid.n_points,
            "coefficients": {
                k: [v.real, v.imag] for k, v in report.coefficients.items()
            },
            "unexplained": report.unexplained,
            "mu_input": mu_in,
            "mu_nominal": mu_nominal,
            "mu_fitted": mu_fitted,
            "mapping_matches_nominal": bool(abs(mu_fitted - mu_nominal) < 1e-8),
            "verdict": _verdict(report.unexplained, cfg.threshold),
        }, [("JR-vs-BF", pp.tau, report.unexplained)]


def _algebra_check(cfg: JobConfig, grids: list[Grid]):
    pp, qp = cfg.params, cfg.q_params
    for grid in grids:
        x, p = build_deformed_pair(grid, pp)
        ladder = build_ladder(x, p, pp)
        n_op = default_number_operator(ladder.a, ladder.a_dag)
        residual = deformed_algebra_residual(x, p, n_op, qp, pp)
        yield {
            "q": qp.q,
            "n_points": grid.n_points,
            "residual": residual,
            "adjoint_defect": ladder.adjoint_defect,
            "verdict": _verdict(residual, cfg.threshold),
        }, [(f"q={qp.q}", pp.tau, residual)]


def _spectrum(cfg: JobConfig, grids: list[Grid]):
    spec = None if cfg.metric is None else spec_from_label(cfg.metric)
    for grid in grids:
        h = _build_model(grid, cfg.params, cfg.model)
        direct = spectrum(h, cfg.k)
        entry = {
            "model": cfg.model,
            "n_points": grid.n_points,
            "values": [[z.real, z.imag] for z in direct.values],
            "reality_measure": direct.reality_measure,
            "solver": direct.solver,
            "fallback": direct.fallback,
        }
        if spec is not None:
            g = build_metric(spec, grid, cfg.params)
            counterpart, herm_res = hermitian_counterpart(h, g)
            cp = spectrum(counterpart, cfg.k)
            # A level missing from either list is a discrepancy, not a
            # shorter comparison.
            discrepancy = float("inf")
            if len(cp.values) == len(direct.values):
                pairs = zip(direct.values, cp.values)
                discrepancy = max((abs(a - b) for a, b in pairs), default=discrepancy)
            entry["counterpart_values"] = [[z.real, z.imag] for z in cp.values]
            entry["counterpart_solver"] = cp.solver
            entry["counterpart_fallback"] = cp.fallback
            entry["counterpart_herm_residual"] = herm_res
            entry["cross_check_discrepancy"] = _json_number(discrepancy)
            entry["direct_spectrum_untrusted"] = bool(discrepancy > 1e-3)
        # Fewer than k levels fail: the reality of a missing level is unknown.
        verdict = _verdict(direct.reality_measure, cfg.threshold)
        entry["verdict"] = verdict if len(direct.values) == cfg.k else "FAIL"
        yield entry, [(cfg.model, cfg.params.tau, direct.reality_measure)]


def _fit_metric(cfg: JobConfig, grids: list[Grid]):
    for grid in grids:
        h = _build_model(grid, cfg.params, cfg.model)
        fit = fit_diagonal_metric(h, cfg.params)
        entry = {
            "n_points": grid.n_points,
            "status": fit.status,
            "fit_residual": fit.fit_residual,
            "sigma_gap": fit.sigma_gap,
            "distances": dict(fit.distances),
            "nearest": fit.nearest,
            "profile": [float(v) for v in fit.profile],
        }
        if fit.status == "OK":
            entry["log_quadratic_coefficient"] = log_quadratic_coefficient(fit)
        # The verdict is the fit status; the threshold is echoed, not used.
        entry["verdict"] = "PASS" if fit.status == "OK" else "FAIL"
        yield entry, [(fit.nearest or fit.status, cfg.params.tau, fit.fit_residual)]


class _Kind(NamedTuple):
    results_key: str
    threshold: float
    run: Callable[[JobConfig, list[Grid]], Iterator[tuple[dict, list[tuple]]]]


_JOBS = {
    "verify-metric": _Kind("residuals", 1e-3, _verify_metric),
    "compare-metrics": _Kind("comparisons", 10.0, _compare_metrics),
    "limit-sweep": _Kind("sweeps", 1e-2, _limit_sweep),
    "model-equality": _Kind("equalities", 1e-8, _model_equality),
    "algebra-check": _Kind("algebra", 1e-12, _algebra_check),
    "spectrum": _Kind("spectra", 1e-6, _spectrum),
    "fit-metric": _Kind("fits", 0.0, _fit_metric),
}
JOB_KINDS = tuple(_JOBS)

_ROW_FIELDS = ("job", "metric", "n_points", "tau", "residual", "verdict")


def run_job(cfg: JobConfig) -> dict:
    """Execute the configured job on every grid; aggregate the report."""
    t0 = time.perf_counter()
    logger.info("running %s job", cfg.job)
    kind = _JOBS[cfg.job]
    entries, rows = [], []
    for entry, entry_rows in kind.run(cfg, _grids(cfg)):
        try:  # strict JSON has no inf or NaN, and no verdict may rest on one
            json.dumps(entry, allow_nan=False)
        except ValueError as exc:
            raise NumericGuardError(f"a {cfg.job} report value is not finite") from exc
        entries.append(entry)
        rows += [
            dict(zip(_ROW_FIELDS, (cfg.job, metric, entry["n_points"], tau,
                                   residual, entry["verdict"])))
            for metric, tau, residual in entry_rows
        ]
    overall = entries[-1]["verdict"]
    elapsed = time.perf_counter() - t0
    logger.info("%s finished in %.3fs: %s", cfg.job, elapsed, overall)
    return {
        "version": __version__,
        "config": _config_echo(cfg),
        "results": {kind.results_key: entries, "rows": rows},
        "verdicts": {"overall": overall},
        "timings": {"total_s": elapsed},
    }


def _write_in_place(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path`` in one call, then cut the file to
    its new length.

    The opener drops ``O_TRUNC``: truncating a non-empty file to zero on
    open makes ext4 start writeback on close (its replace-via-truncate
    heuristic), so every report became a disk write; overwriting and then
    truncating to a non-zero length does not.  A new file gets mode
    ``0o666 & ~umask``, and symlinks and hard links are written through, as
    with ``open(path, "w")``.  The write is not atomic: a concurrent reader
    may see partial content, or the old file's tail bytes past the new
    content until the truncate.
    """
    def keep_contents(name, flags):
        return os.open(name, flags & ~os.O_TRUNC, 0o666)

    with open(path, "wb", opener=keep_contents) as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def serialize_report(doc: dict, out_dir) -> tuple[Path, Path]:
    """Write report.json and tables.csv under out_dir; returns the two paths.

    Each file's text is built in memory and written over the existing file
    in place (see ``_write_in_place``); the bytes are those of ``json.dump``
    with ``indent=2, sort_keys=True`` plus a newline, and of a
    ``csv.DictWriter`` over ``_ROW_FIELDS``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    csv_path = out / "tables.csv"
    _write_in_place(report_path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=_ROW_FIELDS)
    writer.writeheader()
    writer.writerows(doc.get("results", {}).get("rows", []))
    _write_in_place(csv_path, table.getvalue())
    return report_path, csv_path
