"""Banded momentum-grid operators and the measurement layer.

Everything downstream builds on four ingredients defined here:

* ``Grid`` — a symmetric, uniformly spaced momentum window with an interior
  mask that excludes boundary-contaminated rows from all norms.  Its points
  are exactly antisymmetric (p[n-1-i] == −p[i], p = 0 at the centre).
* ``Operator`` — a complex matrix bound to its grid, stored as its diagonals.
  The model operators are banded (P and ρ are diagonal, X spans offsets
  −2..2, H spans −4..4), so products, adjoints, norms and probe actions cost
  O(n · bandwidth).  The eigensolvers (``hermitian_matrix_function`` here,
  ``verify.spectrum``) read the bands through one parity fold
  (``_parity_fold``); none reads ``Operator.entries``.  Two exact
  properties of the model operators make these solves cheaper:

  - *Real.*  A matrix whose imaginary parts are all exactly zero reaches the
    solvers as a real array, so LAPACK runs the real routines (``dgeev``/
    ``dsyevd``, about 2.5x cheaper than ``zgeev``/``zheevd``).  With P real
    and X = iħ(1+τp²)D + iħγ_t p purely imaginary, X², iμ{X,P} and the
    ladder (P − iωX)/√(2mħω) are real.
  - *Even.*  A matrix that commutes exactly with the reflection p → −p is
    solved as its even and odd blocks of sizes n//2 + 1 and n//2, about a
    quarter of the full cost for the dense solvers; a banded even operator
    has banded blocks.  On the antisymmetric grid, P and the derivative D
    (its one-sided boundary rows included) are exactly odd and every even
    function of p is exactly even, so X is odd and the Hamiltonians, the
    Gaussian metrics, the counterparts ρ^{1/2}Hρ^{-1/2} and the number
    operator are even.

  Both tests are exact, with no tolerance; a matrix that fails one takes the
  general solver (a complex array, or one n x n block).  Products keep
  parity exactly: ``op_product`` sums the terms of an entry in an order
  that the reflection maps onto the order of its mirror's terms.
* elementary algebra (products, adjoints, commutators, Hermitian matrix
  functions, masked norms).  Every operand is an ``Operator``, and each
  function reads its grid from its operands, which must share it.  Products
  sum each entry over the bands in ``float64`` arithmetic, pairing the
  bands from both ends (``op_product``); real bands act on real probe
  vectors in ``float64``.
  One rule bounds dynamic range, for matrix functions, metrics and the
  gauge map alike (``_check_dynamic_range``): no NaN, and max/min of at
  most ``OVERFLOW_RATIO`` = 1e14 in modulus.
* residual measurements.  Identities between band matrices hold *in action*
  on smooth vectors, not entry-by-entry: a central-difference commutator
  ``[D, diag(p)]`` equals the neighbor-averaging stencil, whose action on
  constant and linear vectors is exactly the identity while its entries never
  are.  ``action_residual`` therefore measures ``L = R`` by applying both
  sides to probe vectors and comparing interior rows; ``stencil_probes``
  (constant and linear) witness identities that are exact for second-order
  stencils, and ``smooth_probes`` (Hermite–Gaussian profiles) represent the
  low-energy subspace for identities that hold only in the continuum limit.
  Entrywise masked Frobenius norms remain available via ``masked_norm`` and
  are reported alongside as diagnostics.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NumericGuardError",
    "Grid",
    "Operator",
    "derivative_matrix",
    "op_product",
    "op_sum",
    "op_scale",
    "adjoint",
    "commutator",
    "anticommutator",
    "hermitian_matrix_function",
    "interior_block_entries",
    "masked_norm",
    "stencil_probes",
    "smooth_probes",
    "interior_action",
    "action_residual",
]

OVERFLOW_RATIO = 1e14
HERMITIAN_TOL = 1e-10
DERIVATIVE_MIN_POINTS = 5
# ``smooth_probes``: the first eight Hermite–Gaussians of unit width.
SMOOTH_PROBE_COUNT = 8
SMOOTH_PROBE_WIDTH = 1.0


class NumericGuardError(RuntimeError):
    """A numeric safety guard tripped (conditioning or overflow)."""


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric momentum grid with an interior mask.

    ``n_points`` must be odd so that p = 0 is a sample point; ``mask_fraction``
    of the points is excluded at each end whenever a masked norm or an
    interior row-block is taken.  ``points`` mirrors the non-negative half
    ``linspace(0, p_max, n_points // 2 + 1)``, so p = 0 exactly and
    p[n-1-i] == −p[i] exactly (``np.linspace(-p_max, p_max, n)`` misses
    both on some grids); it agrees with that linspace to 2 ulp of p_max.
    """

    n_points: int
    p_max: float
    mask_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError(
                f"n_points must be an odd integer >= 3, got {self.n_points}"
            )
        if not self.p_max > 0:
            raise ValueError(f"p_max must be positive, got {self.p_max}")
        if not np.finfo(float).tiny <= self.spacing < np.inf:
            # a subnormal spacing leaves 1/(2h) of the derivative infinite
            raise ValueError(
                f"p_max {self.p_max} gives a spacing outside the normal float range"
            )
        if not 0 <= self.mask_fraction < 0.5:
            raise ValueError(
                f"mask_fraction must lie in [0, 0.5), got {self.mask_fraction}"
            )
        if self.n_points - 2 * self.mask_offset() < 3:
            raise ValueError("interior must retain at least 3 points")

    @property
    def spacing(self) -> float:
        return 2.0 * self.p_max / (self.n_points - 1)

    @functools.cached_property
    def points(self) -> np.ndarray:
        """The sample momenta, computed once per grid (read-only)."""
        half = np.linspace(0.0, self.p_max, self.n_points // 2 + 1)
        out = np.concatenate([-half[:0:-1], half])
        out.flags.writeable = False
        return out

    def mask_offset(self) -> int:
        return int(np.floor(self.mask_fraction * self.n_points))

    def interior(self) -> slice:
        k = self.mask_offset()
        return slice(k, self.n_points - k)


class Operator:
    """Complex matrix on a grid, stored as row-aligned diagonals.

    ``bands[k, i] = A[i, i + lo + k]``.  Band slots whose column falls
    outside the matrix hold zero, and all-zero outer diagonals are trimmed,
    so a diagonal operator has one band and the zero operator none.
    ``Operator(entries, grid)`` converts a dense square array; ``entries``
    materializes the dense matrix again, for callers outside the package.
    """

    __slots__ = ("lo", "bands", "grid")

    def __init__(self, entries, grid: Grid) -> None:
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"entries must be square, got shape {arr.shape}")
        _check_dimension(arr.shape[0], grid)
        self.lo, self.bands = _dense_to_bands(arr)
        self.grid = grid

    @classmethod
    def from_bands(cls, lo: int, bands, grid: Grid) -> Operator:
        """Operator with ``bands[k, i] = A[i, i + lo + k]`` (copied)."""
        bands = np.array(bands, dtype=complex)
        if bands.ndim != 2:
            raise ValueError(f"bands must be 2-D, got shape {bands.shape}")
        _check_dimension(bands.shape[1], grid)
        _, cols = _slot_indices(lo, bands.shape)
        if np.any(bands[(cols < 0) | (cols >= bands.shape[1])]):
            raise ValueError("band slots outside the matrix must be zero")
        return cls._trimmed(int(lo), bands, grid)

    @classmethod
    def _trimmed(cls, lo: int, bands: np.ndarray, grid: Grid) -> Operator:
        """Wrap valid bands without copying or checking them."""
        op = cls.__new__(cls)
        op.lo, op.bands = _trim(lo, bands)
        op.grid = grid
        return op

    @classmethod
    def diag(cls, values, grid: Grid) -> Operator:
        """Diagonal operator with the given main diagonal (copied)."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {values.shape}")
        _check_dimension(len(values), grid)
        return cls._trimmed(0, values.astype(complex)[np.newaxis, :], grid)

    @property
    def dim(self) -> int:
        return self.bands.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n matrix."""
        return _bands_to_dense(self.lo, self.bands)

    def diagonal(self) -> np.ndarray:
        """Main diagonal (a copy)."""
        k = -self.lo
        if 0 <= k < len(self.bands):
            return self.bands[k].copy()
        return np.zeros(self.dim, dtype=complex)


def _check_dimension(n: int, grid: Grid) -> None:
    if n != grid.n_points:
        raise ValueError(
            f"operator dimension {n} does not match grid n_points {grid.n_points}"
        )


def _slot_indices(lo: int, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every band slot."""
    k, rows = np.indices(shape)
    return rows, rows + lo + k


def _dense_to_bands(arr: np.ndarray) -> tuple[int, np.ndarray]:
    n = arr.shape[0]
    rows, cols = np.nonzero(arr)
    if rows.size == 0:
        return 0, np.zeros((0, n), dtype=complex)
    offsets = cols - rows
    lo = int(offsets.min())
    bands = np.zeros((int(offsets.max()) - lo + 1, n), dtype=complex)
    bands[offsets - lo, rows] = arr[rows, cols]
    return lo, bands


def _bands_to_dense(lo: int, bands: np.ndarray) -> np.ndarray:
    n = bands.shape[1]
    rows, cols = _slot_indices(lo, bands.shape)
    inside = (cols >= 0) & (cols < n)
    out = np.zeros((n, n), dtype=complex)
    out[rows[inside], cols[inside]] = bands[inside]
    return out


def _parity_fold(op: Operator) -> tuple[list, bool]:
    """The parity blocks of ``op``, folded from its bands, and whether ``op``
    is exactly even under the reflection p → −p.

    Each block is ``((values, (rows, cols)), shape)``, its nonzero entries as
    COO triplets (the arguments of a scipy COO array); a position listed
    twice holds the sum of its two values.  Exactly real bands give real
    values.  No n x n array is formed.

    ``op`` is even when ``A[i, j] == A[n-1-i, n-1-j]`` for every entry (no
    tolerance), that is when its bands are centred on the main diagonal
    (``2·lo + len(bands) == 1``; the zero operator has none) and
    ``bands == bands[::-1, ::-1]`` (slot (k, i) mirrors slot
    (len − 1 − k, n − 1 − i)).  With n = 2m+1, A then maps the even vectors,
    spanned by the orthonormal basis (e_j + e_{n-1-j})/√2 (j < m) and e_m,
    to themselves, and likewise the odd vectors, spanned by
    (e_j − e_{n-1-j})/√2.  The blocks are A in these two bases, read from
    the slots of rows 0..m alone:

    * even, (m+1) x (m+1): ``A[i, j] + A[i, n-1-j]`` for i, j < m, the
      centre column ``√2·A[i, m]``, the centre row
      ``√½·A[m, j] + √½·A[m, n-1-j]``, and ``A[m, m]``;
    * odd, m x m: ``A[i, j] − A[i, n-1-j]``.

    Every entry sums at most two terms, so the order of the sum does not
    matter.  The spectrum of A is the union of the blocks', and a Hermitian
    A gives Hermitian blocks.  Component j < m of a block eigenvector stands
    for the mirrored pair (j, n-1-j) of the full one, with the same total
    squared modulus.  Any other operator is one n x n block.
    """
    n, lo, bands = op.dim, op.lo, op.bands
    if _quarter_turns(bands) == 0:
        bands = bands.real
    rows, cols = _slot_indices(lo, bands.shape)
    stored = (cols >= 0) & (cols < n) & (bands != 0)
    nb = len(bands)
    even = (nb == 0 or 2 * lo + nb == 1) and np.array_equal(bands, bands[::-1, ::-1])
    if not even:
        return [((bands[stored], (rows[stored], cols[stored])), (n, n))], False
    m = n // 2
    top = stored & (rows <= m)
    r, c, v = rows[top], cols[top], bands[top]
    folded = np.where(c > m, n - 1 - c, c)  # column n-1-j joins column j
    v_even = v.copy()
    v_even[(r == m) & (c != m)] *= np.sqrt(0.5)
    v_even[(r < m) & (c == m)] *= np.sqrt(2.0)
    odd = (r < m) & (c != m)
    v_odd = np.where(c[odd] > m, -v[odd], v[odd])
    return [
        ((v_even, (r, folded)), (m + 1, m + 1)),
        ((v_odd, (r[odd], folded[odd])), (m, m)),
    ], True


def _dense_block(block) -> np.ndarray:
    """The dense matrix of one ``_parity_fold`` block."""
    (values, index), shape = block
    out = np.zeros(shape, dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def _parity_unfold(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The even n x n matrix whose parity blocks (``_parity_fold``) are given."""
    m = len(odd)
    r = np.sqrt(0.5)
    out = np.empty((2 * m + 1, 2 * m + 1), dtype=np.result_type(even, odd))
    out[:m, :m] = 0.5 * (even[:m, :m] + odd)
    out[:m, :m:-1] = 0.5 * (even[:m, :m] - odd)
    out[:m, m] = r * even[:m, m]
    out[m, :m] = r * even[m, :m]
    out[m, :m:-1] = out[m, :m]
    out[m, m] = even[m, m]
    out[m + 1 :] = out[m - 1 :: -1, ::-1]
    return out


def _trim(lo: int, bands: np.ndarray) -> tuple[int, np.ndarray]:
    """Drop all-zero outer diagonals (most bands have none to drop)."""
    if len(bands) and bands[0].any() and bands[-1].any():
        return lo, bands
    nonzero = np.flatnonzero(bands.any(axis=1))
    if nonzero.size == 0:
        return 0, bands[:0]
    return lo + int(nonzero[0]), bands[nonzero[0] : nonzero[-1] + 1]


def _overlap(s: int, n: int) -> tuple[int, int]:
    """Rows ``r0 <= i < r1`` of an n-row band with ``0 <= i + s < n``."""
    return max(0, -s), min(n, n - s)


def _quarter_turns(bands: np.ndarray) -> int | None:
    """0 when ``bands`` is exactly real, 1 when exactly imaginary, else ``None``.

    No tolerance; the zero operator counts as real.
    """
    if not bands.imag.any():
        return 0
    if not bands.real.any():
        return 1
    return None


def _check_compatible(*ops) -> Grid:
    """The grid the operands share; each must be an ``Operator`` on it.

    An operator's dimension is its grid's ``n_points``, so one grid means one
    dimension.
    """
    for x in ops:
        if not isinstance(x, Operator):
            raise TypeError(
                f"operands must be Operator(entries, grid), got {type(x).__name__}"
            )
    grids = {x.grid for x in ops}
    if len(grids) > 1:
        raise ValueError("operators live on different grids")
    return grids.pop()


def _aligned(ops, n: int) -> tuple[int, list[np.ndarray]]:
    """Each operator's bands, zero-padded to the union of their offsets."""
    nonempty = [x for x in ops if len(x.bands)]
    lo = min((x.lo for x in nonempty), default=0)
    hi = max((x.lo + len(x.bands) for x in nonempty), default=0)
    aligned = []
    for x in ops:
        union = np.zeros((hi - lo, n), dtype=complex)
        union[x.lo - lo : x.lo - lo + len(x.bands)] = x.bands
        aligned.append(union)
    return lo, aligned


def _add_band_term(
    la: int, ba: np.ndarray, bb: np.ndarray, k: int, out: np.ndarray
) -> None:
    """Add A's band k times B's bands into ``out``, rows of the product's bands."""
    # A[i, i+s] * B[i+s, i+s+lb+kb] lands on offset s+lb+kb, s = la+k
    s = la + k
    n, nb = ba.shape[1], len(bb)
    r0, r1 = _overlap(s, n)
    out[k : k + nb, r0:r1] += ba[k, r0:r1] * bb[:, r0 + s : r1 + s]


def _accumulate(la: int, ba: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """Bands of the product of A (offsets from ``la``) and B, summed in their
    dtype in mirror-paired order: every entry first adds the terms of A's
    bands q and na − 1 − q, then these pair sums for q = 0, 1, … in turn,
    then the term of the middle band when na is odd."""
    na, n = ba.shape
    nb = len(bb)
    acc = np.zeros((na + nb - 1, n), dtype=ba.dtype)
    pair = np.empty_like(acc)
    for q in range(na // 2):
        span = slice(q, na - q - 1 + nb)  # the output rows of bands q and na-1-q
        pair[span] = 0
        _add_band_term(la, ba, bb, q, pair)
        _add_band_term(la, ba, bb, na - 1 - q, pair)
        acc[span] += pair[span]
    if na % 2:
        _add_band_term(la, ba, bb, na // 2, acc)
    return acc


def op_product(a: Operator, b: Operator) -> Operator:
    """Matrix product.

    Each entry is summed over A's bands in ``complex128`` in mirror-paired
    order (``_accumulate``), with no BLAS call, so it depends on no BLAS
    kernel or thread count.  The reflection p → −p maps A's band q of an
    exactly even or odd A to band na − 1 − q, so the mirrored entries of a
    product of exactly even or odd operands sum the same pairs in the same
    order: the product is exactly even or odd.  When each operand is exactly
    real or exactly imaginary (no tolerance; every model operator is: X is
    imaginary, the rest real), only the nonzero parts are multiplied, as
    ``float64`` reals, and the sum takes the phase 1, i or −1 afterwards.
    The terms and their order are those of the ``complex128`` sums, so the
    values are identical (for finite entries; only the signs of exact zeros
    can differ).
    """
    grid = _check_compatible(a, b)
    (la, ba), (lb, bb) = (a.lo, a.bands), (b.lo, b.bands)
    if not (len(ba) and len(bb)):
        return Operator._trimmed(0, np.zeros((0, grid.n_points), dtype=complex), grid)
    ta, tb = _quarter_turns(ba), _quarter_turns(bb)
    if ta is None or tb is None:
        bands = _accumulate(la, ba, bb)
    else:
        ra = ba.imag if ta else ba.real
        rb = bb.imag if tb else bb.real
        bands = _accumulate(la, ra, rb) * 1j ** (ta + tb)
    return Operator._trimmed(la + lb, bands, grid)


def op_sum(a: Operator, b: Operator, *more: Operator) -> Operator:
    """Sum of two or more operators, added left to right."""
    ops = (a, b, *more)
    grid = _check_compatible(*ops)
    lo, aligned = _aligned(ops, grid.n_points)
    out = aligned[0]
    for bands in aligned[1:]:
        out += bands
    return Operator._trimmed(lo, out, grid)


def op_scale(c: complex, a: Operator) -> Operator:
    grid = _check_compatible(a)
    return Operator._trimmed(a.lo, c * a.bands, grid)


def adjoint(a: Operator) -> Operator:
    """Conjugate transpose."""
    grid = _check_compatible(a)
    lo, bands = a.lo, a.bands
    nd, n = bands.shape
    out = np.zeros_like(bands)
    for k, row in enumerate(bands):
        # entry (i, i + s) moves to (i + s, i), s = lo + k
        s = lo + k
        r0, r1 = _overlap(s, n)
        out[nd - 1 - k, r0 + s : r1 + s] = row[r0:r1].conj()
    return Operator._trimmed(-(lo + nd - 1), out, grid)


def commutator(a, b):
    return op_sum(op_product(a, b), op_scale(-1.0, op_product(b, a)))


def anticommutator(a, b):
    return op_sum(op_product(a, b), op_product(b, a))


def derivative_matrix(grid: Grid) -> Operator:
    """Second-order differentiation matrix.

    Central differences on interior rows, one-sided second-order stencils on
    the two boundary rows.  Real-valued; offsets -2..2.
    """
    n = grid.n_points
    if n < DERIVATIVE_MIN_POINTS:
        raise ValueError(
            f"derivative_matrix requires n_points >= {DERIVATIVE_MIN_POINTS}, got {n}"
        )
    c = 1.0 / (2.0 * grid.spacing)
    bands = np.zeros((5, n))  # offsets -2, -1, 0, 1, 2
    bands[1, 1:-1], bands[3, 1:-1] = -c, c
    bands[2:, 0] = -3.0 * c, 4.0 * c, -c
    bands[:3, -1] = c, -4.0 * c, 3.0 * c
    return Operator.from_bands(-2, bands, grid)


def _check_hermitian(a: Operator) -> None:
    """Raise ``ValueError`` when ‖A − A†‖_F > ``HERMITIAN_TOL``·‖A‖_F, from
    the bands, at O(n · bandwidth).  The zero operator passes."""
    diff = op_sum(a, op_scale(-1.0, adjoint(a))).bands
    scale = np.linalg.norm(a.bands)
    if scale > 0 and np.linalg.norm(diff) / scale > HERMITIAN_TOL:
        raise ValueError("input is not Hermitian within tolerance")


def _check_dynamic_range(values: np.ndarray, what: str) -> None:
    """Raise ``NumericGuardError`` when ``values`` holds a NaN or max|v| >
    ``OVERFLOW_RATIO``·min|v| (an inf, or a 0 beside a nonzero entry, trips
    it); empty and all-zero ``values`` pass."""
    a = np.abs(values)
    if np.isnan(a).any():
        raise NumericGuardError(f"{what} has NaN entries")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = a.max() / a.min() if a.any() else 1.0
    if not ratio <= OVERFLOW_RATIO:
        raise NumericGuardError(
            f"{what} condition number {ratio:.3e} exceeds the dynamic range "
            f"bound {OVERFLOW_RATIO:.0e}"
        )


def _log_weight(kappa: float, tau: float, p: np.ndarray) -> np.ndarray:
    """kappa * L_tau(p): L_tau(p) = log1p(tau*p²)/tau for tau > 0, and p² at
    tau = 0 or where kappa/tau overflows (the tau → 0 member)."""
    slope = float(kappa) / float(tau) if tau > 0 else math.inf
    return kappa * p**2 if math.isinf(slope) else slope * np.log1p(tau * p**2)


def _guarded(w: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``f(w)`` for the spectrum ``w``, after ``_check_dynamic_range``."""
    with np.errstate(divide="ignore", invalid="ignore"):  # refused just below
        fw = np.asarray(f(w), dtype=float)
    _check_dynamic_range(fw, "matrix function")
    return fw


def hermitian_matrix_function(
    a: Operator, f: Callable[[np.ndarray], np.ndarray]
) -> Operator:
    """Apply a real scalar function to a Hermitian operator by eigendecomposition.

    Guards: the input must be Hermitian to ``HERMITIAN_TOL`` = 1e-10
    (relative Frobenius, from the bands), and f of the spectrum must pass
    ``_check_dynamic_range`` (no NaN, max|f|/min|f| ≤ 1e14), so √ or log of
    a spectrum that is not strictly positive trips.  The range is decided
    from ``eigvalsh`` before any eigenvector is computed, so a tripped guard
    costs no ``eigh``; the eigenvalues of the ``eigh`` that follows a pass
    are checked again, so the result is built only from guarded values.

    An exactly real input (such as the number operator a†a of the model
    ladder) takes the real ``eigh`` and is rebuilt as (u·f(w))·uᵀ, with
    exactly zero imaginary parts.  An exactly even input (``_parity_fold``)
    is decomposed as its two parity blocks and unfolded into an exactly even
    result; any other takes one ``eigh`` of the full matrix.
    """
    _check_hermitian(a)
    blocks, even = _parity_fold(a)
    parts = [_dense_block(block) for block in blocks]
    w = np.concatenate([np.linalg.eigvalsh(part) for part in parts])
    _guarded(w, f)
    decomps = [np.linalg.eigh(part) for part in parts]
    w = np.concatenate([wp for wp, _ in decomps])
    fw = _guarded(w, f)
    fparts = np.split(fw, np.cumsum([len(part) for part in parts])[:-1])
    rebuilt = [(u * fp) @ u.conj().T for (_, u), fp in zip(decomps, fparts)]
    out = _parity_unfold(*rebuilt) if even else rebuilt[0]
    return Operator._trimmed(*_dense_to_bands(out), a.grid)


def _interior_rows(lo: int, n_bands: int, grid: Grid):
    """The interior-block slots of bands from offset ``lo``, band by band:
    each band k, its interior rows i whose column i + lo + k is interior too,
    and those columns, as slices."""
    sl = grid.interior()
    for k, s in enumerate(range(lo, lo + n_bands)):
        r0 = max(sl.start, sl.start - s)
        r1 = max(r0, min(sl.stop, sl.stop - s))  # no negative stop past the interior
        yield k, slice(r0, r1), slice(r0 + s, r1 + s)


def interior_block_entries(ops: Sequence[Operator]) -> np.ndarray:
    """Entries of each operator's interior-by-interior block, one column each.

    The operators must share their grid.  Only slots of the union of their
    bands are listed, band by band in ascending rows (``_interior_rows``);
    every entry outside that band is zero in all of them.
    """
    grid = _check_compatible(*ops)
    lo, aligned = _aligned(ops, grid.n_points)
    walk = list(_interior_rows(lo, len(aligned[0]), grid))
    # b[:0, 0], empty, keeps the listing 1-D when every operator is zero
    return np.stack(
        [np.concatenate([b[:0, 0], *(b[k, rows] for k, rows, _ in walk)]) for b in aligned],
        axis=1,
    )


def masked_norm(a: Operator, relative_to: Sequence[Operator] | None = None) -> float:
    """Frobenius norm of the interior-by-interior block.

    With ``relative_to`` (a list of operators on the same grid), divides by
    the product of their interior Frobenius norms, yielding a dimensionless
    value.
    """
    ops = (a, *(relative_to or ()))
    _check_compatible(*ops)
    val, *norms = [float(np.linalg.norm(interior_block_entries([b]))) for b in ops]
    if 0.0 in norms:
        raise ValueError("relative normalization against a zero block")
    return val / math.prod(norms)


def stencil_probes(grid: Grid) -> np.ndarray:
    """Constant and linear probe vectors (unit columns).

    Second-order difference stencils reproduce these exactly, so identities
    in the stencil-exactness class are machine-exact in action on them.
    """
    n = grid.n_points
    p = grid.points
    ones = np.ones(n) / np.sqrt(n)
    lin = p / np.linalg.norm(p)
    return np.stack([ones, lin], axis=1)


@functools.lru_cache(maxsize=16)
def smooth_probes(grid: Grid) -> np.ndarray:
    """Hermite–Gaussian momentum profiles, unit-normalized columns.

    The first ``SMOOTH_PROBE_COUNT`` oscillator-like profiles of width
    ``SMOOTH_PROBE_WIDTH``, spanning the low-energy subspace on which
    continuum identities are compared.  Cached per grid, so the array is
    shared and read-only.
    """
    t = grid.points / SMOOTH_PROBE_WIDTH
    env = np.exp(-0.5 * t * t)
    cols = []
    h_prev = np.zeros_like(t)
    h_cur = np.ones_like(t)
    for k in range(SMOOTH_PROBE_COUNT):
        col = h_cur * env
        nrm = np.linalg.norm(col)
        cols.append(col / nrm if nrm > 0 else col)
        h_next = 2.0 * t * h_cur - 2.0 * k * h_prev
        h_prev, h_cur = h_cur, h_next
    out = np.stack(cols, axis=1)
    out.flags.writeable = False
    return out


def interior_action(a: Operator, vectors: np.ndarray) -> np.ndarray:
    """Interior rows of ``A @ vectors`` (vectors as columns), from the bands.

    Exactly real bands (no tolerance) acting on real vectors are applied in
    ``float64`` and give a real array, with the values the complex product
    would give; anything else gives a complex array.
    """
    grid = _check_compatible(a)
    v = np.asarray(vectors)
    n = grid.n_points
    if v.shape[0] != n:
        raise ValueError(f"dimension mismatch: vectors {v.shape[0]}, grid {n}")
    lo, bands = a.lo, a.bands
    real = not np.iscomplexobj(v) and _quarter_turns(bands) == 0
    if real:
        bands = bands.real
    sl = grid.interior()
    out = np.zeros((sl.stop - sl.start, v.shape[1]), dtype=float if real else complex)
    for k, band in enumerate(bands):
        o = lo + k
        r0, r1 = max(sl.start, -o), min(sl.stop, n - o)
        if r0 < r1:
            out[r0 - sl.start : r1 - sl.start] += band[r0:r1, np.newaxis] * v[r0 + o : r1 + o]
    return out


def action_residual(lhs: Operator, rhs: Operator, probes: np.ndarray) -> float:
    """Relative disagreement of two operators on one grid in action on probe
    vectors.

    ``‖((L−R)·V)[interior]‖_F / max(‖(L·V)[interior]‖_F, ‖(R·V)[interior]‖_F)``;
    returns 0 when both actions vanish on the interior.
    """
    _check_compatible(lhs, rhs)
    return _mismatch(interior_action(lhs, probes), interior_action(rhs, probes))


def _mismatch(la: np.ndarray, ra: np.ndarray) -> float:
    """``action_residual``'s relative mismatch of two interior actions."""
    denom = max(float(np.linalg.norm(la)), float(np.linalg.norm(ra)))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(la - ra)) / denom
