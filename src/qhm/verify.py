"""Adjudication engine: metric residuals, counterpart spectra, metric recovery.

Measurement doctrine
--------------------
Operator identities on a truncated grid are measured in *action*: apply both
sides to a family of probe vectors, mask boundary rows, and compare Frobenius
norms.  Identities that the difference scheme satisfies exactly (polynomial
stencil identities) are probed with the constant and linear stencil probes
and come out at machine precision; continuum identities are probed with
smooth localized states and converge at second order in the spacing.
Entrywise matrix norms of the same differences are dominated by boundary
rows and non-local cancellation structure and do not converge; they are
still computed and reported as diagnostics, never as the headline number.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .gridops import (
    HERMITIAN_TOL,
    Grid,
    NumericGuardError,
    OVERFLOW_RATIO,
    Operator,
    _real_if_exact,
    action_residual,
    adjoint,
    hermitian_matrix_function,
    interior_action,
    interior_block_entries,
    masked_norm,
    op_product,
    op_scale,
    op_sum,
    smooth_probes,
    stencil_probes,
)
from .metrics import bf_composite, jr_composite, metric_profile, profile_distance
from .models import PhysParams

__all__ = [
    "SpectrumResult",
    "FitResult",
    "EqualityReport",
    "dieudonne_residual",
    "dieudonne_details",
    "check_X_quasi_hermiticity",
    "hermitian_counterpart",
    "spectrum",
    "fit_diagonal_metric",
    "log_quadratic_coefficient",
    "model_equality_report",
]


def _warn_if_not_positive(rho: Operator) -> None:
    if np.real(rho.diagonal()).min() <= 0:
        warnings.warn(
            "metric has non-positive diagonal entries; residual computed anyway",
            stacklevel=3,
        )


def dieudonne_residual(
    H: Operator, rho: Operator, probes: np.ndarray | None = None
) -> float:
    """Action residual of the quasi-Hermiticity condition H†ρ = ρH.

    Applies H†ρ and ρH to smooth probes (default eight localized states),
    masks boundary rows, and returns the relative Frobenius mismatch.
    """
    grid = H.grid
    if rho.dim != H.dim:
        raise ValueError("operator dimensions differ")
    _warn_if_not_positive(rho)
    if probes is None:
        probes = smooth_probes(grid)
    lhs = op_product(adjoint(H), rho)
    rhs = op_product(rho, H)
    return action_residual(lhs, rhs, probes, grid)


def dieudonne_details(H: Operator, rho: Operator) -> dict:
    """Both senses of the quasi-Hermiticity residual, with masking flag.

    ``action`` is the headline probe measurement; ``matrix`` is the masked
    entrywise Frobenius norm of H†ρ − ρH normalized by the product of the
    masked norms of H and ρ (kept as a truncation-visible diagnostic).
    """
    act = dieudonne_residual(H, rho)
    diff = op_sum(op_product(adjoint(H), rho), op_scale(-1.0, op_product(rho, H)))
    mat = masked_norm(diff, relative_to=[H, rho])
    return {"action": act, "matrix": mat, "masked": True}


def check_X_quasi_hermiticity(X: Operator, eta: Operator) -> float:
    """Action residual of X†η = ηX on stencil probes.

    This is an exactness-class identity for the compensating weight
    (1+τp²)^{-1}, so the residual is machine-small when eta solves it.
    """
    grid = X.grid
    lhs = op_product(adjoint(X), eta)
    rhs = op_product(eta, X)
    return action_residual(lhs, rhs, stencil_probes(grid), grid)


def _sqrt_pair(rho: Operator) -> tuple[Operator, Operator]:
    """(ρ^{1/2}, ρ^{-1/2}) with Hermiticity, positivity and overflow guards."""
    if rho.lo == 0 and len(rho.bands) <= 1:
        d = rho.diagonal()
        if np.linalg.norm(d.imag) > HERMITIAN_TOL * np.linalg.norm(d):
            raise ValueError("input is not Hermitian within tolerance")
        d = d.real
        if d.min() <= 0:
            raise NumericGuardError("metric must be strictly positive")
        if d.max() / d.min() > OVERFLOW_RATIO:
            raise NumericGuardError(
                "metric condition number exceeds the overflow bound"
            )
        r = np.sqrt(d)
        return Operator.diag(r, rho.grid), Operator.diag(1.0 / r, rho.grid)
    half = hermitian_matrix_function(
        rho, lambda t: np.sqrt(t), require_positive_spectrum=True
    )
    half_inv = hermitian_matrix_function(
        rho, lambda t: 1.0 / np.sqrt(t), require_positive_spectrum=True
    )
    return half, half_inv


def hermitian_counterpart(H: Operator, rho: Operator) -> tuple[Operator, float]:
    """Similarity transform h = ρ^{1/2} H ρ^{-1/2} and its Hermiticity defect.

    The defect is the action residual of h against h† on smooth probes.
    """
    grid = H.grid
    half, half_inv = _sqrt_pair(rho)
    h = op_product(op_product(half, H), half_inv)
    res = action_residual(h, adjoint(h), smooth_probes(grid), grid)
    return h, res


@dataclass(frozen=True)
class SpectrumResult:
    """Low-lying interior-localized eigenvalues, sorted by real part."""

    values: tuple[complex, ...]
    reality_measure: float


def spectrum(
    op,
    k: int,
    grid: Grid | None = None,
    *,
    mass_min: float = 0.9,
    dedup_rel: float = 1e-3,
) -> SpectrumResult:
    """k smallest-real-part eigenvalues among interior-localized states.

    A state qualifies when at least ``mass_min`` of its squared norm lies on
    interior points.  On a grid, the step-2h structure of the squared
    position operator produces spurious near-copies of low levels living on
    alternating sublattices; consecutive eigenvalues whose real parts agree
    within ``dedup_rel`` (relative) are therefore merged before counting.
    Raw square arrays are accepted; without a grid every state qualifies and
    no merging is applied.

    A matrix with no nonzero imaginary part, such as the BF and JR
    Hamiltonians (built from the purely imaginary X and the real P), goes to
    the real ``eig`` routine; its eigenvalues are returned as complex numbers
    all the same.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if isinstance(op, Operator):
        entries, g = op.entries, op.grid
    else:
        entries, g = np.asarray(op, dtype=complex), grid
    vals, vecs = np.linalg.eig(_real_if_exact(entries))
    vals = vals.astype(complex)
    if g is not None:
        sl = g.interior()
        norms = np.linalg.norm(vecs, axis=0)
        mass = np.linalg.norm(vecs[sl, :], axis=0) ** 2 / norms**2
        idx = np.nonzero(mass >= mass_min)[0]
    else:
        idx = np.arange(len(vals))
    cand = sorted(vals[idx], key=lambda z: (z.real, z.imag))
    out: list[complex] = []
    for z in cand:
        if g is not None and out and abs(z.real - out[-1].real) <= dedup_rel * max(
            1.0, abs(z.real)
        ):
            continue
        out.append(complex(z))
        if len(out) == k:
            break
    reality = max((abs(z.imag) for z in out), default=0.0)
    return SpectrumResult(tuple(out), float(reality))


@dataclass(frozen=True)
class FitResult:
    """Recovered diagonal metric profile and its candidate adjudication.

    ``status`` is OK, AMBIGUOUS (the two smallest singular values of the
    fit map are within 1e-8 — no unique direction), or INVALID (the
    minimizer has non-positive interior entries).  ``profile`` holds the
    interior values of g normalized to g(0) = 1; ``points`` the matching
    momenta.  ``fit_residual`` is the smallest singular value relative to
    the largest.  ``distances`` maps candidate labels to normalized profile
    distances; ``nearest`` names the smallest (OK status only).
    """

    status: str
    profile: np.ndarray
    points: np.ndarray
    fit_residual: float
    sigma_gap: float
    distances: dict = field(default_factory=dict)
    nearest: str | None = None


def _even_cheb_basis(p: np.ndarray, p_edge: float, size: int) -> np.ndarray:
    """Even Chebyshev polynomials T_0, T_2, ... of p/p_edge, clamped to [-1,1]."""
    t = np.clip(p / p_edge, -1.0, 1.0)
    basis = np.zeros((len(p), size))
    for k in range(size):
        coef = np.zeros(2 * k + 1)
        coef[2 * k] = 1.0
        basis[:, k] = _cheb.chebval(t, coef)
    return basis


def fit_diagonal_metric(
    H: Operator,
    grid: Grid,
    pp: PhysParams,
    *,
    basis_size: int = 10,
    probes: np.ndarray | None = None,
) -> FitResult:
    """Recover the diagonal profile g minimizing ‖(H†·diag(g) − diag(g)·H)·probes‖.

    The profile is expanded in a small even-polynomial basis (smooth by
    construction, which excludes the alternating-sign lattice null vector
    that pointwise fits admit), the interior rows of the probe actions are
    stacked into a linear map over the coefficients, and the minimizer is
    the smallest right singular vector after column scaling.
    """
    sl = grid.interior()
    p = grid.points
    n_int = sl.stop - sl.start
    if n_int < 8:
        raise ValueError("interior must contain at least 8 points")
    if probes is None:
        probes = smooth_probes(grid)
    p_edge = float(np.abs(p[sl]).max() + 2.0 * grid.spacing)
    basis = _even_cheb_basis(p, p_edge, basis_size)
    hd = adjoint(H)
    cols = []
    for k in range(basis_size):
        gdiag = Operator.diag(basis[:, k], grid)
        m = op_sum(op_product(hd, gdiag), op_scale(-1.0, op_product(gdiag, H)))
        cols.append(interior_action(m, probes, grid).ravel())
    a = np.stack(cols, axis=1)
    scale = np.linalg.norm(a, axis=0)
    scale[scale == 0] = 1.0
    _, sing, vh = np.linalg.svd(a / scale, full_matrices=False)
    sigma_gap = float(sing[-2] - sing[-1])
    fit_residual = float(sing[-1] / sing[0]) if sing[0] > 0 else 0.0
    coeffs = np.real(vh[-1].conj()) / scale
    g = basis @ coeffs
    center = grid.n_points // 2
    if g[center] < 0:
        g = -g
    g = g / g[center]
    if sigma_gap < 1e-8:
        return FitResult("AMBIGUOUS", g[sl], p[sl], fit_residual, sigma_gap)
    if np.any(g[sl] <= 0):
        return FitResult("INVALID", g[sl], p[sl], fit_residual, sigma_gap)
    candidates = {
        "BF-composite": metric_profile(bf_composite(pp), grid, pp),
        "JR-composite": metric_profile(jr_composite(pp), grid, pp),
    }
    distances = {
        label: profile_distance(g, prof, grid) for label, prof in candidates.items()
    }
    nearest = min(distances, key=distances.get)
    return FitResult("OK", g[sl], p[sl], fit_residual, sigma_gap, distances, nearest)


def log_quadratic_coefficient(fit: FitResult) -> float:
    """Slope of ln g against p² over the fitted interior profile."""
    if np.any(fit.profile <= 0):
        raise ValueError("profile must be strictly positive to take its log")
    coef = np.polyfit(fit.points**2, np.log(fit.profile), 1)
    return float(coef[0])


@dataclass(frozen=True)
class EqualityReport:
    """Least-squares decomposition of a Hamiltonian difference.

    ``coefficients`` maps monomial labels {I, P, P2, P4, X2, XP, PX,
    sym_X2P2} to complex coefficients; ``unexplained`` is the relative
    residual left after the fit; ``anticommutator_coefficient`` is the
    symmetric combination (c_XP + c_PX)/2, the {X,P}-sector strength.
    """

    coefficients: dict
    unexplained: float
    anticommutator_coefficient: complex


def model_equality_report(
    H1: Operator, H2: Operator, X: Operator, P: Operator, grid: Grid | None = None
) -> EqualityReport:
    """Decompose H1 − H2 over the quadratic/quartic monomial dictionary."""
    g = H1.grid if isinstance(H1, Operator) else grid
    if g is None:
        raise ValueError("a grid is required")
    h1, h2, xe, pe = (
        op if isinstance(op, Operator) else Operator(op, g) for op in (H1, H2, X, P)
    )
    p2 = op_product(pe, pe)
    x2 = op_product(xe, xe)
    dictionary = {
        "I": Operator.diag(np.ones(g.n_points), g),
        "P": pe,
        "P2": p2,
        "P4": op_product(p2, p2),
        "X2": x2,
        "XP": op_product(xe, pe),
        "PX": op_product(pe, xe),
        "sym_X2P2": op_scale(0.5, op_sum(op_product(x2, p2), op_product(p2, x2))),
    }
    labels = list(dictionary)
    # Entries outside the union band are zero in every column and in b, so
    # leaving those rows out changes neither the solution nor the residual.
    cols = interior_block_entries([*dictionary.values(), op_sum(h1, op_scale(-1.0, h2))], g)
    a, b = cols[:, :-1], cols[:, -1]
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        coeffs = {k: 0j for k in labels}
        return EqualityReport(coeffs, 0.0, 0j)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    unexplained = float(np.linalg.norm(a @ sol - b) / bnorm)
    coeffs = {k: complex(c) for k, c in zip(labels, sol)}
    anti = 0.5 * (coeffs["XP"] + coeffs["PX"])
    return EqualityReport(coeffs, unexplained, anti)
