"""Candidate metrics (positive diagonal profiles) and limit sweeps.

Every metric ρ = diag(g) here is its strictly positive scalar profile g(p)
sampled on the grid, a read-only ``float64`` array (``build_metric``).
Profiles are compared only after normalizing both to 1 at p = 0, because a
metric is defined up to a positive scalar factor.
"""
from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gridops import Grid, _check_dynamic_range, _check_metric, _frozen, _log_weight
from .models import PhysParams

__all__ = [
    "MetricSpec",
    "metric_profile",
    "build_metric",
    "metric_condition",
    "profile_distance",
    "limit_sweep",
    "spec_from_label",
]

logger = logging.getLogger("qhm.metrics")

_KINDS = frozenset({"BF", "JR", "ExpTheta", "DeformWeight", "Product"})


@dataclass(frozen=True)
class MetricSpec:
    """Symbolic description of a diagonal metric profile.

    A spec holds no physical parameter: ``metric_profile`` reads them from
    the ``PhysParams`` it is evaluated with.  Each kind is
    exp(kappa * L_tau(p)), L_tau(p) = log1p(tau*p^2)/tau and L_0(p) = p^2
    (``gridops._log_weight``), with (kappa, tau): BF
    (2*mu/(hbar*m*omega^2), 0); JR (mu/omega^2, tau); ExpTheta (theta, 0);
    DeformWeight (-tau, tau).  Where kappa/tau overflows (tau near the
    smallest floats), the tau -> 0 member kappa*p^2 stands in.  A Product
    sums its ``factors``' terms and exponentiates once.  The JR power law is
    undefined at tau = 0, so a bare JR spec evaluated there is refused; as a
    factor its tau -> 0 member stands in.  The composites are DeformWeight
    times BF and DeformWeight times JR, and at hbar = m = 1 JR's kappa,
    mu/omega^2, is half of BF's: as tau -> 0 they differ in this one number.

    BF-composite is not the tau-exact metric of the deformed BF
    Hamiltonian.  That metric (for gamma_t = 0) is w times the power factor
    (1+tau*p^2)^(2*mu/(hbar*m*omega^2*tau)), with w = 1/(1+tau*p^2) the
    DeformWeight; BF-composite is w times the tau -> 0 limit of that power
    factor, exp(2*mu*p^2/(hbar*m*omega^2)).

    The JR power law carries neither m nor hbar.  Whether Jana and Roy's
    metric (arXiv:0908.1755) carries them cannot be confirmed from the
    source paper's abstract (PAPER.md), so the formula is kept as given.
    """

    kind: str
    theta: float | None = None
    factors: tuple["MetricSpec", ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "ExpTheta" and self.theta is None:
            raise ValueError("ExpTheta requires a theta value")
        if self.kind == "ExpTheta" and not math.isfinite(self.theta):
            raise ValueError(f"ExpTheta requires a finite theta, got {self.theta!r}")
        if self.kind == "Product" and not all(
            isinstance(f, MetricSpec) for f in self.factors
        ):
            raise ValueError("Product factors must be MetricSpec instances")


def _require_defined(spec: MetricSpec, pp: PhysParams) -> None:
    """Raise ``ValueError`` when a bare JR label is evaluated at tau = 0."""
    if spec.kind == "JR" and pp.tau <= 0:
        raise ValueError("JR metric requires tau > 0")


def _log_profile(spec: MetricSpec, p: np.ndarray, pp: PhysParams) -> np.ndarray:
    """log g(p): the (kappa, tau) term of one kind, or a Product's sum."""
    if spec.kind == "Product":
        return sum((_log_profile(f, p, pp) for f in spec.factors), np.zeros_like(p))
    kappa, tau = {
        "BF": (2.0 * pp.mu / (pp.hbar * pp.mass * pp.omega**2), 0.0),
        "JR": (pp.mu / pp.omega**2, pp.tau),
        "ExpTheta": (spec.theta, 0.0),
        "DeformWeight": (-pp.tau, pp.tau),
    }[spec.kind]
    return _log_weight(kappa, tau, p)


def metric_profile(spec: MetricSpec, grid: Grid, pp: PhysParams) -> np.ndarray:
    """Strictly positive profile g(p_k) for a MetricSpec label."""
    _require_defined(spec, pp)
    return np.exp(_log_profile(spec, grid.points, pp))


def metric_condition(g: np.ndarray) -> float:
    """Ratio of largest to smallest entry of a metric profile, which must be
    a 1-D ``float64`` array (``ValueError``)."""
    _check_metric(g)
    return float(g.max() / g.min())


def build_metric(spec: MetricSpec, grid: Grid, pp: PhysParams) -> np.ndarray:
    """The read-only ``float64`` profile g of a MetricSpec on the grid, under
    the dynamic-range rule (g(0) = 1, so a 0, inf or NaN anywhere trips it
    with ``NumericGuardError``)."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        g = metric_profile(spec, grid, pp)
    _check_dynamic_range(g, "metric")
    logger.info("built %s metric: condition number %.6e", spec.kind, g.max() / g.min())
    return _frozen(g)


def profile_distance(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """Masked relative distance of two profiles, each normalized at p = 0."""
    c = grid.n_points // 2
    an = a / a[c]
    bn = b / b[c]
    sl = grid.interior()
    return float(np.linalg.norm(an[sl] - bn[sl]) / np.linalg.norm(bn[sl]))


def _check_tau_values(taus: Sequence[float]) -> None:
    """Raise ``ValueError`` unless ``taus`` is a non-empty, positive, strictly
    decreasing sweep schedule."""
    if not taus or any(t <= 0 for t in taus):
        raise ValueError("tau values must be positive")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau values must be strictly decreasing")


def limit_sweep(
    spec: MetricSpec,
    tau_values: Sequence[float],
    reference: MetricSpec,
    grid: Grid,
    pp: PhysParams,
) -> list[tuple[float, float]]:
    """Distance of a MetricSpec's profile to the reference for each tau.

    ``tau_values`` must be positive and strictly decreasing.  The reference
    profile is built once with the incoming parameters (their tau
    untouched); the swept spec, which holds no tau of its own, is evaluated
    at each tau in turn, every factor of a composite included.  Each
    profile is a ``build_metric``, under its dynamic-range rule.
    """
    taus = list(tau_values)
    _check_tau_values(taus)
    ref = build_metric(reference, grid, pp)
    rows: list[tuple[float, float]] = []
    for t in taus:
        g = build_metric(spec, grid, dataclasses.replace(pp, tau=t))
        rows.append((t, profile_distance(g, ref, grid)))
    return rows


def spec_from_label(label: str) -> MetricSpec:
    """Resolve a config-vocabulary label to a MetricSpec.

    Accepted: BF, JR, DeformWeight, ExpTheta(<number>), and the composites
    BF-composite = Product(DeformWeight, BF) and JR-composite =
    Product(DeformWeight, JR).  The spec carries no physical parameter.
    """
    label = label.strip()
    if label in ("BF", "JR", "DeformWeight"):
        return MetricSpec(label)
    if label in ("BF-composite", "JR-composite"):
        row = MetricSpec(label.removesuffix("-composite"))
        return MetricSpec("Product", factors=(MetricSpec("DeformWeight"), row))
    if label.startswith("ExpTheta(") and label.endswith(")"):
        try:
            theta = float(label[len("ExpTheta(") : -1])
        except ValueError as exc:
            raise ValueError(f"bad ExpTheta argument in {label!r}") from exc
        return MetricSpec("ExpTheta", theta=theta)
    raise ValueError(f"unknown metric label {label!r}")
