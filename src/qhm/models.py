"""Model builders: deformed canonical pairs, ladders, oscillator Hamiltonians.

The deformed position operator is ``X = (1 + tau*p^2) x0 + i*hbar*gamma_t*p``
with ``x0 = i*hbar*D`` acting in momentum space, so that the commutator
``[X, P] = i*hbar*(1 + tau*P^2)`` holds exactly in action on stencil probes.
Two quadratic non-Hermitian oscillators are built on top of the pair: one
parameterized by a single anticommutator coupling ``mu``, one by ladder
couplings ``(lambda, delta_t)``.  A diagonal gauge map removes the
``gamma_t`` term up to second-order grid error.  The builders of X, the
Hamiltonians and N raise ``NumericGuardError`` on an entry that is not finite.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gridops import (
    Grid,
    NumericGuardError,
    Operator,
    _check_dynamic_range,
    _check_hermitian,
    _log_weight,
    _mismatch,
    action_residual,
    adjoint,
    anticommutator,
    commutator,
    derivative_matrix,
    hermitian_matrix_function,
    interior_action,
    masked_norm,
    op_product,
    op_scale,
    op_sum,
    stencil_probes,
)

__all__ = [
    "PhysParams",
    "QDeformParams",
    "LadderOps",
    "build_canonical_pair",
    "build_deformed_pair",
    "build_ladder",
    "build_swanson_bf",
    "build_swanson_jr",
    "default_number_operator",
    "canonical_commutator_residual",
    "deformed_algebra_residual",
    "gauge_transform",
    "gauge_conjugation_residual",
]


@dataclass(frozen=True)
class PhysParams:
    """Physical constants and couplings in natural units.

    ``mu`` is the anticommutator coupling; ``lam``/``delta_t`` the ladder
    couplings; ``tau`` the commutator-deformation strength; ``gamma_t``
    the removable linear term's coefficient.
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    mu: float = 0.0
    lam: float = 0.0
    delta_t: float = 0.0
    tau: float = 0.0
    gamma_t: float = 0.0

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "omega"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.omega * self.omega < math.inf:
            raise ValueError("omega**2 must be a positive finite number")
        # The BF exponent divides by hbar*m*omega^2, which can underflow to
        # zero though each factor is positive; checked as it is computed
        # there (omega**2 is finite by the check above).
        if not 0.0 < self.hbar * self.mass * self.omega**2 < math.inf:
            raise ValueError("hbar*mass*omega**2 must be a positive finite number")
        # The metric exponents (metrics._log_profile), computed as there.
        if not math.isfinite(2.0 * self.mu / (self.hbar * self.mass * self.omega**2)):
            raise ValueError("the BF exponent 2*mu/(hbar*mass*omega**2) must be finite")
        if not math.isfinite(self.mu / self.omega**2):
            raise ValueError("the JR exponent mu/omega**2 must be finite")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")


@dataclass(frozen=True)
class QDeformParams:
    """Parameters of the q-deformed commutation relation.

    The coefficients must satisfy ``4*alpha*gamma = q^2 + 1`` (within 1e-12)
    and ``alpha*delta + beta*gamma != 0`` (it appears in a denominator).
    """

    q: float
    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        if not self.q > 0:
            raise ValueError("q must be positive")
        # q * q: a float power raises OverflowError where a product gives inf;
        # "not <=" also refuses the NaN of inf - inf.
        if not abs(4.0 * self.alpha * self.gamma - (self.q * self.q + 1.0)) <= 1e-12:
            raise ValueError(
                "constraint violated: 4*alpha*gamma must equal q^2 + 1 within 1e-12"
            )
        if self.alpha * self.delta + self.beta * self.gamma == 0.0:
            raise ValueError("alpha*delta + beta*gamma must be nonzero")


@dataclass(frozen=True)
class LadderOps:
    """Lowering/raising pair built by formula, with the adjoint defect.

    ``a_dag`` is defined by its formula, not as the matrix adjoint of ``a``;
    for a non-Hermitian X the two differ, and ``adjoint_defect`` reports the
    masked relative discrepancy instead of hiding it.
    """

    a: Operator
    a_dag: Operator
    adjoint_defect: float


def build_canonical_pair(grid: Grid, pp: PhysParams) -> tuple[Operator, Operator]:
    """Undeformed pair: momentum is diagonal, position is i*hbar*D."""
    p0 = Operator.diag(grid.points, grid)
    x0 = op_scale(1j * pp.hbar, derivative_matrix(grid))
    return x0, p0


def build_deformed_pair(grid: Grid, pp: PhysParams) -> tuple[Operator, Operator]:
    """Deformed pair: X = (1 + tau*p^2) x0 + i*hbar*gamma_t*p, P = diag(p)."""
    x0, p0 = build_canonical_pair(grid, pp)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        g = Operator.diag(1.0 + pp.tau * grid.points**2, grid)
        shift = op_scale(1j, Operator.diag(pp.hbar * pp.gamma_t * grid.points, grid))
        x = op_sum(op_product(g, x0), shift)
    return _finite(x, "the deformed position operator X"), p0


def build_ladder(x: Operator, p: Operator, pp: PhysParams) -> LadderOps:
    """Ladder pair a = (P - i*omega*X)/sqrt(2*m*hbar*omega), a_dag likewise."""
    scale = 1.0 / np.sqrt(2.0 * pp.mass * pp.hbar * pp.omega)
    # An overflow leaves a and a_dag non-finite, which the Hamiltonian and
    # number-operator builders refuse (``_finite``).
    with np.errstate(over="ignore", invalid="ignore"):
        a = op_scale(scale, op_sum(p, op_scale(-1j * pp.omega, x)))
        a_dag = op_scale(scale, op_sum(p, op_scale(1j * pp.omega, x)))
        diff = op_sum(adjoint(a), op_scale(-1.0, a_dag))
        denom = masked_norm(a_dag)
        defect = masked_norm(diff) / denom if denom > 0 else 0.0
    return LadderOps(a, a_dag, defect)


def _finite(op: Operator, what: str) -> Operator:
    """``op``, or ``NumericGuardError`` naming ``what`` when an entry is not
    finite: parameters that pass ``PhysParams`` can still overflow X·X."""
    if not np.isfinite(op.coefficients).all():
        raise NumericGuardError(f"{what} has non-finite entries (inf or NaN)")
    return op


def build_swanson_bf(x: Operator, p: Operator, pp: PhysParams) -> Operator:
    """H = P^2/(2m) + (m*omega^2/2) X^2 + i*mu*{X, P}, with no {X, P} term at
    mu = 0 (0·{X, P} would keep the NaN of an overflowing {X, P})."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        terms = [
            op_scale(1.0 / (2.0 * pp.mass), op_product(p, p)),
            op_scale(0.5 * pp.mass * pp.omega**2, op_product(x, x)),
        ]
        if pp.mu != 0.0:
            terms.append(op_scale(1j * pp.mu, anticommutator(x, p)))
        h = op_sum(*terms)
    return _finite(h, "the BF Hamiltonian")


def build_swanson_jr(a: Operator, a_dag: Operator, pp: PhysParams) -> Operator:
    """H = omega*a_dag*a + lam*a^2 + delta_t*a_dag^2 + omega/2.

    Hermitian whenever ``lam == delta_t`` (a warning notes the degenerate
    choice); non-Hermitian otherwise.
    """
    if pp.lam == pp.delta_t:
        warnings.warn(
            "lam == delta_t: the ladder Hamiltonian is Hermitian",
            stacklevel=2,
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        h = op_sum(
            op_scale(pp.omega, op_product(a_dag, a)),
            op_scale(pp.lam, op_product(a, a)),
            op_scale(pp.delta_t, op_product(a_dag, a_dag)),
            Operator.diag(np.full(a.dim, 0.5 * pp.omega), a.grid),
        )
    return _finite(h, "the JR Hamiltonian")


def default_number_operator(a: Operator, a_dag: Operator) -> Operator:
    """Hermitian part of a_dag*a — the default N for the algebra check."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        nd = op_product(a_dag, a)
        n_op = op_scale(0.5, op_sum(nd, adjoint(nd)))
    return _finite(n_op, "the number operator N")


def canonical_commutator_residual(x0: Operator, p0: Operator, pp: PhysParams) -> float:
    """Action residual of [x0, p0] = i*hbar on stencil probes."""
    grid = x0.grid
    target = op_scale(1j, Operator.diag(np.full(grid.n_points, pp.hbar), grid))
    return action_residual(commutator(x0, p0), target, stencil_probes(grid))


def deformed_algebra_residual(
    x: Operator,
    p: Operator,
    n_op: Operator,
    qp: QDeformParams,
    pp: PhysParams,
) -> float:
    """Residual of the q-deformed commutation relation in action.

    Measures ``[X, P]`` against
    ``i*hbar*q^N*(alpha*delta + beta*gamma) +
    i*hbar*(q^2-1)/(alpha*delta + beta*gamma) *
    (delta*gamma*X^2 + alpha*beta*P^2 + i*alpha*delta*XP - i*beta*gamma*PX)``
    on stencil probes V, comparing the interior rows of both actions as
    ``action_residual`` does.

    At q = 1 the matrix function is exactly the identity (``1.0 ** x == 1.0``
    for every x, inf and nan included) and the quadratic term vanishes, so
    the right-hand side acts as ``i*hbar*(alpha*delta + beta*gamma)`` times
    V, and N is only checked for Hermiticity, on its bands; no eigensolver
    runs.  Otherwise ``hermitian_matrix_function`` applies q^N to V, deciding
    its guards from N's eigenvalues before it computes any eigenvector, and
    the quadratic term acts on V from its bands.
    """
    combo = qp.alpha * qp.delta + qp.beta * qp.gamma
    grid = x.grid
    probes = stencil_probes(grid)
    rhs = 1j * pp.hbar * combo * probes[grid.interior()]
    if qp.q == 1.0:
        _check_hermitian(n_op)
    else:
        qn = hermitian_matrix_function(n_op, lambda t: qp.q**t, probes)
        quadratic = op_sum(
            op_scale(qp.delta * qp.gamma, op_product(x, x)),
            op_scale(qp.alpha * qp.beta, op_product(p, p)),
            op_scale(1j * qp.alpha * qp.delta, op_product(x, p)),
            op_scale(-1j * qp.beta * qp.gamma, op_product(p, x)),
        )
        rhs = 1j * pp.hbar * combo * qn[grid.interior()] + interior_action(
            op_scale(1j * pp.hbar * (qp.q**2 - 1.0) / combo, quadratic), probes
        )
    return _mismatch(interior_action(commutator(x, p), probes), rhs, "the algebra residual")


def gauge_transform(pp: PhysParams, grid: Grid) -> tuple[Operator, Operator]:
    """Diagonal gauge pair (S, S^-1) that removes the gamma_t term.

    ``S = diag(exp(-gamma_t/2 * L_tau(p)))`` (``gridops._log_weight``), that
    is ``(1 + tau*p^2)^(-gamma_t/(2*tau))`` for tau > 0 and its
    ``exp(-gamma_t*p^2/2)`` limit at tau = 0, under the metrics'
    dynamic-range rule.  Conjugating as ``S^-1 X(gamma_t) S`` recovers X(0)
    up to second-order grid error (see ``gauge_conjugation_residual``).
    """
    with np.errstate(over="ignore"):  # an overflow is refused just below
        s = np.exp(_log_weight(-pp.gamma_t / 2, pp.tau, grid.points))
    _check_dynamic_range(s, "gauge factor")
    return Operator.diag(s, grid), Operator.diag(1.0 / s, grid)


def gauge_conjugation_residual(pp: PhysParams, grid: Grid) -> float:
    """Measured contract of the gauge map on stencil probes.

    Compares ``S^-1 X(gamma_t) S`` against X built with gamma_t = 0.  The
    value is floored at second order in the spacing because the gauge profile
    is not polynomial; it is reported, never assumed.
    """
    x_g, _ = build_deformed_pair(grid, pp)
    x_0, _ = build_deformed_pair(grid, dataclasses.replace(pp, gamma_t=0.0))
    s, s_inv = gauge_transform(pp, grid)
    conj = op_product(op_product(s_inv, x_g), s)
    return action_residual(conj, x_0, stencil_probes(grid))
