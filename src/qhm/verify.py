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
A metric ρ = diag(g) is passed as its profile g, a 1-D ``float64`` array as
long as the grid (``gridops._check_metric``).  The intertwining relation
A†ρ = ρA (the Dieudonné residual, the X check and the metric fit) has one
measurement: the probe actions A†(g∘V) and g∘(A·V)
(``_intertwining_actions``), with no product.  Its entrywise diagnostic
reads (A†)[i, j]·g[j] − g[i]·A[i, j] from the ``float64`` interior slots
(``dieudonne_details``), with no product either.
"""
from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .gridops import (
    NumericGuardError,
    Operator,
    _band_action,
    _band_transpose,
    _check_compatible,
    _check_dynamic_range,
    _check_metric,
    _dense_block,
    _finite_norms,
    _interior_slots,
    _mismatch,
    _parity_fold,
    action_residual,
    adjoint,
    interior_action,
    op_product,
    op_scale,
    op_sum,
    smooth_probes,
    stencil_probes,
)
from .metrics import metric_profile, profile_distance, spec_from_label
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

logger = logging.getLogger("qhm.verify")


def _intertwining_actions(
    a: Operator, a_dag: Operator, g: np.ndarray, probes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interior rows of A†(g∘V) and g∘(A·V), the two sides of A†G = GA for
    G = diag(g) in action on the probes V, as (interior, s, probes) arrays.
    ``g`` holds one profile (s = 1) or s profiles as columns; A acts once on
    V, and A† = ``a_dag`` once on all the scaled probe sets side by side.  A
    real A, g and V give ``float64`` actions."""
    stack = g.reshape(len(g), -1, 1)
    right = stack[a.grid.interior()] * interior_action(a, probes)[:, np.newaxis]
    scaled = (stack * probes[:, np.newaxis, :]).reshape(len(g), -1)
    return interior_action(a_dag, scaled).reshape(right.shape), right


def _dieudonne_action(H: Operator, h_dag: Operator, g: np.ndarray) -> float:
    """``dieudonne_residual``, with H† given."""
    _check_metric(g, H)
    if g.min() <= 0:
        warnings.warn(
            "metric has non-positive diagonal entries; residual computed anyway",
            stacklevel=3,
        )
    actions = _intertwining_actions(H, h_dag, g, smooth_probes(H.grid))
    return _mismatch(*actions, "the Dieudonné residual")


def dieudonne_residual(H: Operator, g: np.ndarray) -> float:
    """Action residual of the quasi-Hermiticity condition H†ρ = ρH, ρ = diag(g).

    Applies H†ρ and ρH to the smooth probes (eight localized states) as
    probe actions, with no operator product, masks boundary rows, and
    returns ``action_residual``'s relative Frobenius mismatch.  g must be a
    metric profile (``gridops._check_metric``), or ``ValueError``; a
    non-positive entry warns.
    """
    return _dieudonne_action(H, adjoint(H), g)


def dieudonne_details(H: Operator, g: np.ndarray) -> dict:
    """Both senses of the quasi-Hermiticity residual for ρ = diag(g), with
    masking flag.

    ``action`` is the headline probe measurement (``dieudonne_residual``);
    ``matrix`` is the masked entrywise Frobenius norm of H†ρ − ρH normalized
    by the product of the masked norms of H and ρ (kept as a
    truncation-visible diagnostic; ``ValueError`` when either is zero, and
    ``NumericGuardError`` when one is not finite).  Each entry is one term,
    (H†)[i, j]·g[j] − g[i]·H[i, j], read from the ``float64`` interior slots
    of H and H† (``_interior_slots``; their common phase changes no norm),
    with no operator product.  H† is formed once for both.
    """
    h_dag = adjoint(H)
    act = _dieudonne_action(H, h_dag, g)
    slots, walk = _interior_slots([H, h_dag])
    h, dag = slots.T
    g_rows = np.concatenate([g[rows] for rows, _ in walk] or [g[:0]])
    g_cols = np.concatenate([g[cols] for _, cols in walk] or [g[:0]])
    what, sl = "the Dieudonné matrix residual", H.grid.interior()
    with np.errstate(over="ignore", invalid="ignore"):  # refused in _finite_norms
        h_norm, g_norm, gap = _finite_norms(what, h, g[sl], dag * g_cols - g_rows * h)
    denom = h_norm * g_norm
    if denom == 0.0:
        raise ValueError("relative normalization against a zero block")
    return {"action": act, "matrix": gap / denom, "masked": True}


def check_X_quasi_hermiticity(X: Operator, g: np.ndarray) -> float:
    """Action residual of X†η = ηX on stencil probes, for η = diag(g).

    This is an exactness-class identity for the compensating weight
    (1+τp²)^{-1}, so the residual is machine-small when g is that weight.
    """
    _check_metric(g, X)
    actions = _intertwining_actions(X, adjoint(X), g, stencil_probes(X.grid))
    return _mismatch(*actions, "the X quasi-Hermiticity residual")


def hermitian_counterpart(H: Operator, g: np.ndarray) -> tuple[Operator, float]:
    """Similarity transform h = ρ^{1/2} H ρ^{-1/2} = diag(√g)·H·diag(1/√g)
    and its Hermiticity defect, the action residual of h against h† on
    smooth probes.

    g must be a metric profile (``ValueError``), strictly positive and within
    the dynamic-range rule (``NumericGuardError``), as ``build_metric``
    makes it.
    """
    _check_metric(g, H)
    if g.min() <= 0:
        raise NumericGuardError("metric must be strictly positive")
    _check_dynamic_range(g, "metric")
    r = np.sqrt(g)
    h = op_product(op_product(Operator.diag(r, H.grid), H), Operator.diag(1.0 / r, H.grid))
    res = action_residual(h, adjoint(h), smooth_probes(H.grid))
    return h, res


def _block_eig_with_mass(blocks: list, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of each ``_parity_fold`` block by the dense ``eig``, and
    the interior mass (share of ‖u‖² on ``rows``) of each state.

    Row j < m of a block eigenvector carries the squared modulus of the full
    vector's rows j and n-1-j, and row m of the even block the centre row,
    so the full interior rows k..n-k are the block rows k onwards: the same
    slice, whose end n-k is past the block's.
    """
    vals, mass = [], []
    for block in blocks:
        w, u = np.linalg.eig(_dense_block(*block))
        vals.append(w.astype(complex))
        mass.append(_mass(u, rows))
    return np.concatenate(vals), np.concatenate(mass)


def _mass(vecs: np.ndarray, rows: slice) -> np.ndarray:
    """Share of each column's squared norm on ``rows``."""
    sq = np.abs(vecs) ** 2
    return sq[rows].sum(axis=0) / sq.sum(axis=0)


# ``spectrum``'s level filter: the least interior mass of a kept state, and
# the relative distance within which consecutive levels merge.
MASS_MIN = 0.9
DEDUP_REL = 1e-3


def _lowest_levels(vals: np.ndarray, mass: np.ndarray, k: int) -> list[complex]:
    """Up to k levels by ascending real part: states with interior mass at
    least ``MASS_MIN``, near-duplicates (``DEDUP_REL``) merged."""
    out: list[complex] = []
    for z in sorted(vals[mass >= MASS_MIN], key=lambda z: (z.real, z.imag)):
        if out and abs(z.real - out[-1].real) <= DEDUP_REL * max(1.0, abs(z.real)):
            continue
        out.append(complex(z))
        if len(out) == k:
            break
    return out


# Shift-invert gate, ARPACK sizes and guard tolerances, and the largest grid
# that the dense solve takes when a shift-invert guard fails (see ``spectrum``).
SHIFT_INVERT_MIN_POINTS = 257
DENSE_MAX_POINTS = 2049
ARPACK_K_MAX = 128
RESIDUAL_TOL = 1e-8
SHIFT_AGREEMENT_TOL = 1e-9


class _Fallback(Exception):
    """The shift-invert solve is not trusted; the message names why."""


def _arpack_pairs(
    blocks: list, rows: slice, sigma: float, nev: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """The nev eigenvalues of each band block (``_parity_fold``) nearest
    ``sigma``, their states' interior masses, and the smallest over the
    blocks of the distance from ``sigma`` to the farthest of them.

    Each block B minus σ is factored once by LAPACK's band LU (``?gbtrf``),
    and ARPACK's shift-invert operator is its band solve (``?gbtrs``).
    LAPACK's band storage of B, built here alone, is the bands of Bᵀ under
    kl = −lo zero rows for the LU's fill-in."""
    # Imported here, so that grids below SHIFT_INVERT_MIN_POINTS never load
    # scipy: about 0.24 s and 32 MB (scipy 1.17, 2-vCPU Xeon).
    # scipy.sparse.linalg loads scipy.linalg itself.
    from scipy.linalg import get_lapack_funcs
    from scipy.sparse.linalg import LinearOperator, eigs

    vals, mass, radius = [], [], np.inf
    for lo, bands in blocks:
        size = bands.shape[1]
        kl, ku = -lo, lo + len(bands) - 1
        ab = np.zeros((kl + len(bands), size), order="F")
        ab[kl:] = _band_transpose(lo, bands)[1]
        norm1 = np.abs(ab).sum(axis=0).max()
        ab[kl + ku] -= sigma
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu, piv, info = gbtrf(ab, kl, ku, overwrite_ab=True)
        if info > 0:
            raise _Fallback("singular shifted block")

        def product(x):
            return _band_action(lo, bands, x.reshape(size, -1), slice(0, size))

        def solve(x):
            return gbtrs(lu, kl, ku, x, piv)[0]

        a = LinearOperator((size, size), product, dtype=float)
        inverse = LinearOperator((size, size), solve, dtype=float)
        # A fixed start vector keeps the levels the same from run to run.
        v0 = np.random.default_rng(0).standard_normal(size)
        try:
            w, u = eigs(a, k=min(nev, size - 2), sigma=sigma, v0=v0, OPinv=inverse)
        except RuntimeError as exc:  # ArpackError
            raise _Fallback(f"ARPACK error: {exc}") from exc
        residual = np.linalg.norm(product(u) - u * w, axis=0).max()
        if residual > RESIDUAL_TOL * norm1:
            raise _Fallback("residual above the bound")
        vals.append(w)
        mass.append(_mass(u, rows))
        radius = min(radius, np.abs(w - sigma).max())
    return np.concatenate(vals), np.concatenate(mass), radius


def _first_request(k: int) -> int:
    """Pairs per parity block of the first ARPACK solve: 2⌈k/2⌉ + 2.

    Each level of the X·X grid Hamiltonians has a sublattice near-copy in
    the same parity block, so a block holding ⌈k/2⌉ kept levels shows twice
    as many Ritz values for them.  One more level and its copy put the
    farthest Ritz value beyond the last kept level, as the radius guard of
    ``_shift_invert_levels`` needs.
    """
    return 2 * -(-k // 2) + 2


def _shift_invert_levels(blocks: list, rows: slice, k: int) -> list[complex]:
    """``spectrum``'s levels from shift-invert ARPACK on the band parity
    blocks; raises ``_Fallback`` when a guard fails."""
    cap = min(ARPACK_K_MAX, max(bands.shape[1] for _, bands in blocks) - 2)
    nev = min(_first_request(k), cap)
    while True:
        vals, mass, radius = _arpack_pairs(blocks, rows, 0.0, nev)
        levels = _lowest_levels(vals, mass, k)
        if any(z.real < 0 for z in levels):
            raise _Fallback("negative level")
        if len(levels) == k and all(abs(z) < radius for z in levels):
            break
        if nev >= cap:
            raise _Fallback("too few levels")
        nev = min(2 * nev, cap)
    sigma = -min(abs(z) for z in levels)
    vals, mass, _ = _arpack_pairs(blocks, rows, sigma, nev)
    again = _lowest_levels(vals, mass, k)
    if len(again) < k or any(
        abs(z - w) > SHIFT_AGREEMENT_TOL * abs(z) for z, w in zip(levels, again)
    ):
        raise _Fallback("shift disagreement")
    return levels


@dataclass(frozen=True)
class SpectrumResult:
    """Low-lying interior-localized eigenvalues, sorted by real part.

    ``solver`` names the path that found them: ``"shift-invert"`` or
    ``"dense"``.  ``fallback`` is the failed shift-invert guard that sent
    the solve to the dense path, and None when there was no fallback (a
    grid below ``SHIFT_INVERT_MIN_POINTS`` takes the dense path directly).
    """

    values: tuple[complex, ...]
    reality_measure: float
    solver: str
    fallback: str | None


def _spectrum_result(
    levels: list[complex], solver: str, fallback: str | None = None
) -> SpectrumResult:
    reality = max((abs(z.imag) for z in levels), default=0.0)
    return SpectrumResult(tuple(levels), float(reality), solver, fallback)


def spectrum(op: Operator, k: int) -> SpectrumResult:
    """k smallest-real-part eigenvalues among interior-localized states.

    A state qualifies when at least ``MASS_MIN`` = 0.9 of its squared norm
    lies on interior points.  On a grid, the step-2h structure of the
    squared position operator produces spurious near-copies of low levels
    living on alternating sublattices; consecutive eigenvalues whose real
    parts agree within ``DEDUP_REL`` = 1e-3 (relative) are therefore merged
    before counting.

    ``op`` must be exactly real and exactly even under p → −p, as the model
    Hamiltonians and their counterparts are (built from the purely
    imaginary, odd X and the real, odd P); any other operator is refused
    with ``ValueError`` (``gridops._parity_fold``).  Both paths below solve
    its even and odd band blocks, folded from the bands once per call (a
    model Hamiltonian's have lo = −2 and 6 bands).  Each state's interior
    mass comes from its block vector, whose mirrored half is implied, so no
    n x n matrix is formed.

    *Shift-invert* (at least ``SHIFT_INVERT_MIN_POINTS`` = 257 points).
    ARPACK in shift-invert mode (``scipy.sparse.linalg.eigs`` with σ = 0)
    finds the eigenvalues of each block nearest 0: first 2⌈k/2⌉ + 2 of them
    (``_first_request``; 8 for k = 6), because each kept level comes with a
    sublattice near-copy in its own block.  Each shifted block B − σI is
    factored once by LAPACK's band LU (``dgbtrf``), and ARPACK iterates on
    its band solve (``dgbtrs``), so no sparse matrix is formed
    (``_arpack_pairs``).  The filter and merge are the dense path's.
    Levels nearest σ = 0 are the smallest-real-part ones only when no
    interior level has negative real part; that is the assumption of this
    path, and a kept negative level sends the solve to the dense path.
    ARPACK's residuals stay small on strongly non-normal matrices even when
    a level is wrong, so the result is guarded, and the dense path runs
    instead when any guard fails:

    - ARPACK raises, or a shifted block is exactly singular (a zero pivot
      of its band LU);
    - a pair has ‖Bu − λu‖ > ``RESIDUAL_TOL``·‖B‖₁ (1e-8), both taken from
      the bands;
    - fewer than k levels survive, or a kept level is not strictly nearer
      σ than the farthest Ritz value of every block (so an unfound
      eigenvalue could sit below it).  The count is doubled first, up to
      ``ARPACK_K_MAX`` = 128 and the block size − 2;
    - a second solve at σ₂ = −min|λ| over the kept levels does not
      reproduce them to ``SHIFT_AGREEMENT_TOL`` = 1e-9 relative.

    The failed guard is the result's ``fallback``, and is logged at debug
    level on ``qhm.verify``.  Above ``DENSE_MAX_POINTS`` = 2049 points there
    is no fallback: a failed guard raises ``NumericGuardError`` naming the
    guard and the cap, because the dense solve grows as n³ (3 s at 2049
    points, 16 s at 4097).  scipy is imported only on this path, so small
    grids never load it.

    *Dense* (smaller grids and fallbacks).  The real ``eig`` on each block
    as a dense array (``_block_eig_with_mass``), its eigenvalues returned
    as complex numbers.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    _check_compatible(op)
    blocks = _parity_fold(op)
    rows = op.grid.interior()  # rows k..n-k; k onwards of a half-size block
    fallback = None
    if op.dim >= SHIFT_INVERT_MIN_POINTS:
        try:
            levels = _shift_invert_levels(blocks, rows, k)
            return _spectrum_result(levels, "shift-invert")
        except _Fallback as exc:
            if op.dim > DENSE_MAX_POINTS:
                raise NumericGuardError(
                    f"spectrum at {op.dim} points: the shift-invert guard failed "
                    f"({exc}) and the dense fallback is capped at "
                    f"DENSE_MAX_POINTS = {DENSE_MAX_POINTS} points"
                ) from exc
            fallback = str(exc)
            logger.debug(
                "spectrum at %d points falls back to the dense solve: %s",
                op.dim, fallback,
            )
    vals, mass = _block_eig_with_mass(blocks, rows)
    return _spectrum_result(_lowest_levels(vals, mass, k), "dense", fallback)


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
    return _cheb.chebvander(t, 2 * size - 2)[:, ::2]


FIT_MIN_INTERIOR = 8
# Even Chebyshev polynomials T_0 .. T_18 in the profile expansion.
FIT_BASIS_SIZE = 10


def _fit_matrix(H: Operator, basis: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """The linear map from basis coefficients to probe residuals.

    Column k holds the interior rows of (H†G_k − G_kH)·V, G_k =
    diag(basis[:, k]), flattened row by row, from the probe actions of
    ``_intertwining_actions``.  Real H and probes give a real map.
    """
    left, right = _intertwining_actions(H, adjoint(H), basis, probes)
    return (left - right).transpose(0, 2, 1).reshape(-1, basis.shape[1])


def fit_diagonal_metric(H: Operator, pp: PhysParams) -> FitResult:
    """Recover the diagonal profile g minimizing ‖(H†·diag(g) − diag(g)·H)·V‖
    on the smooth probes V.

    The profile is expanded in ``FIT_BASIS_SIZE`` even polynomials (smooth by
    construction, which excludes the alternating-sign lattice null vector
    that pointwise fits admit), the interior rows of the probe actions are
    stacked into a linear map over the coefficients, and the minimizer is
    the smallest right singular vector after column scaling (``_fit_matrix``
    builds the map from probe actions).
    """
    grid = _check_compatible(H)
    sl = grid.interior()
    p = grid.points
    n_int = sl.stop - sl.start
    if n_int < FIT_MIN_INTERIOR:
        raise ValueError(f"interior must contain at least {FIT_MIN_INTERIOR} points")
    p_edge = float(np.abs(p[sl]).max() + 2.0 * grid.spacing)
    basis = _even_cheb_basis(p, p_edge, FIT_BASIS_SIZE)
    a = _fit_matrix(H, basis, smooth_probes(grid))
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
    distances = {}
    for label in ("BF-composite", "JR-composite"):
        prof = metric_profile(spec_from_label(label), grid, pp)
        distances[label] = profile_distance(g, prof, grid)
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
    H1: Operator, H2: Operator, X: Operator, P: Operator
) -> EqualityReport:
    """Decompose H1 − H2 over the quadratic/quartic monomial dictionary.

    Every column is i^t·r with r real (``Operator.turns``), and so is
    H1 − H2, so the complex least-squares problem is one real one: with
    x_k = i^(t_b − t_k)·y_k, ‖Σ_k x_k·i^(t_k)·r_k − i^(t_b)·r_b‖ is
    ‖R·y − r_b‖, whose real minimum-norm solution y gives the complex
    minimum-norm x.  A column or H1 − H2 with an entry that is not finite
    raises ``NumericGuardError`` naming it.
    """
    grid = _check_compatible(H1, H2, X, P)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        p2 = op_product(P, P)
        x2 = op_product(X, X)
        dictionary = {
            "I": Operator.diag(np.ones(grid.n_points), grid),
            "P": P,
            "P2": p2,
            "P4": op_product(p2, p2),
            "X2": x2,
            "XP": op_product(X, P),
            "PX": op_product(P, X),
            "sym_X2P2": op_scale(0.5, op_sum(op_product(x2, p2), op_product(p2, x2))),
        }
        ops = [*dictionary.values(), op_sum(H1, op_scale(-1.0, H2))]
    labels = list(dictionary)
    # Entries outside the union band are zero in every column and in b, so
    # leaving those rows out changes neither the solution nor the residual.
    real, _ = _interior_slots(ops)
    turns = np.array([op.turns for op in ops])
    finite = np.isfinite(real).all(axis=0)
    if not finite.all():
        name = [*labels, "H1 - H2"][int(np.argmin(finite))]
        raise NumericGuardError(
            f"the model-equality column {name} has non-finite entries (inf or NaN)"
        )
    a, b = real[:, :-1], real[:, -1]
    what = "the model-equality residual"
    (bnorm,) = _finite_norms(what, b)
    if bnorm == 0:
        return EqualityReport({k: 0j for k in labels}, 0.0, 0j)
    y, *_ = np.linalg.lstsq(a, b, rcond=None)
    with np.errstate(over="ignore", invalid="ignore"):  # refused in _finite_norms
        (gap,) = _finite_norms(what, a @ y - b)
    unexplained = gap / bnorm  # about 1 at most: y = 0 leaves b
    phase = 1j ** (turns[-1] - turns[:-1])
    coeffs = {k: complex(c) for k, c in zip(labels, y * phase)}
    anti = 0.5 * (coeffs["XP"] + coeffs["PX"])
    return EqualityReport(coeffs, unexplained, anti)
