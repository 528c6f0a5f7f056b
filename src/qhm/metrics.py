"""Candidate metric operators (positive diagonal profiles) and limit sweeps.

Every metric here is a strictly positive scalar profile g(p) sampled on the
grid and promoted to a diagonal operator.  Profiles are compared only after
normalizing both to 1 at p = 0, because a metric is defined up to a positive
scalar factor.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gridops import Grid, NumericGuardError, Operator, _check_compatible
from .gridops import _check_dynamic_range
from .models import PhysParams

__all__ = [
    "MetricSpec",
    "metric_profile",
    "build_metric",
    "metric_condition",
    "profile_distance",
    "limit_sweep",
    "bf_composite",
    "jr_composite",
    "spec_from_label",
]

logger = logging.getLogger("qhm.metrics")

_KINDS = frozenset({"BF", "JR", "ExpTheta", "DeformWeight", "Product"})


@dataclass(frozen=True)
class MetricSpec:
    """Symbolic description of a diagonal metric profile.

    kinds: BF -> exp(2*mu*p^2/(hbar*m*omega^2)); JR ->
    (1+tau*p^2)^(mu/(omega^2*tau)), which requires tau > 0; ExpTheta ->
    exp(theta*p^2); DeformWeight -> (1+tau*p^2)^(-1); Product -> pointwise
    product of ``factors``.

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
    """Raise ``ValueError`` when the profile of ``spec`` is undefined at ``pp``:
    the JR power law needs tau > 0 (``metric_profile`` checks the factors of
    a product one by one)."""
    if spec.kind == "JR" and pp.tau <= 0:
        raise ValueError("JR metric requires tau > 0")


def metric_profile(spec: MetricSpec, grid: Grid, pp: PhysParams) -> np.ndarray:
    """Strictly positive profile g(p_k) for a MetricSpec label."""
    p2 = grid.points**2
    if spec.kind == "BF":
        return np.exp(2.0 * pp.mu * p2 / (pp.hbar * pp.mass * pp.omega**2))
    if spec.kind == "JR":
        _require_defined(spec, pp)
        # omega**2 * tau can underflow to zero though tau > 0; np.divide
        # then gives inf or nan where a float division would raise.
        return (1.0 + pp.tau * p2) ** np.divide(pp.mu, pp.omega**2 * pp.tau)
    if spec.kind == "ExpTheta":
        return np.exp(spec.theta * p2)
    if spec.kind == "DeformWeight":
        return 1.0 / (1.0 + pp.tau * p2)
    # Product
    out = np.ones_like(p2)
    for f in spec.factors:
        out = out * metric_profile(f, grid, pp)
    return out


def metric_condition(rho: Operator) -> float:
    """Ratio of largest to smallest diagonal entry of a metric operator."""
    _check_compatible(rho)
    g = np.real(rho.diagonal())
    return float(g.max() / g.min())


def build_metric(spec: MetricSpec, grid: Grid, pp: PhysParams) -> Operator:
    """Positive diagonal Operator realizing a MetricSpec, with overflow guard."""
    g = metric_profile(spec, grid, pp)
    if not np.all(g > 0):
        raise NumericGuardError("metric profile must be strictly positive")
    _check_dynamic_range(g, "metric")
    logger.info("built %s metric: condition number %.6e", spec.kind, g.max() / g.min())
    return Operator.diag(g, grid)


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
    profile is built once with the incoming parameters (its own tau
    untouched); the swept spec is rebuilt with each tau in turn.
    """
    import dataclasses

    taus = list(tau_values)
    _check_tau_values(taus)
    ref = metric_profile(reference, grid, pp)
    rows: list[tuple[float, float]] = []
    for t in taus:
        g = metric_profile(spec, grid, dataclasses.replace(pp, tau=t))
        rows.append((t, profile_distance(g, ref, grid)))
    return rows


def bf_composite(pp: PhysParams) -> MetricSpec:
    """Deformation weight times the undeformed-limit profile
    exp(2*mu*p^2/(hbar*m*omega^2))."""
    return MetricSpec(
        "Product",
        factors=(
            MetricSpec("DeformWeight"),
            MetricSpec(
                "ExpTheta", theta=2.0 * pp.mu / (pp.hbar * pp.mass * pp.omega**2)
            ),
        ),
    )


def jr_composite(pp: PhysParams) -> MetricSpec:
    """Deformation weight times the ladder-side profile.

    For tau > 0 the second factor is the JR power law; at tau = 0 its
    pointwise scalar limit exp(mu*p^2/omega^2) substitutes, keeping the
    label meaningful in the undeformed case.
    """
    if pp.tau > 0:
        second = MetricSpec("JR")
    else:
        second = MetricSpec("ExpTheta", theta=pp.mu / pp.omega**2)
    return MetricSpec("Product", factors=(MetricSpec("DeformWeight"), second))


def spec_from_label(label: str, pp: PhysParams) -> MetricSpec:
    """Resolve a config-vocabulary label to a MetricSpec.

    Accepted: BF, JR, DeformWeight, BF-composite, JR-composite, and
    ExpTheta(<number>).
    """
    label = label.strip()
    if label == "BF":
        return MetricSpec("BF")
    if label == "JR":
        return MetricSpec("JR")
    if label == "DeformWeight":
        return MetricSpec("DeformWeight")
    if label == "BF-composite":
        return bf_composite(pp)
    if label == "JR-composite":
        return jr_composite(pp)
    if label.startswith("ExpTheta(") and label.endswith(")"):
        try:
            theta = float(label[len("ExpTheta(") : -1])
        except ValueError as exc:
            raise ValueError(f"bad ExpTheta argument in {label!r}") from exc
        return MetricSpec("ExpTheta", theta=theta)
    raise ValueError(f"unknown metric label {label!r}")
