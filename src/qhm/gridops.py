"""Banded momentum-grid operators and the measurement layer.

Everything downstream builds on four ingredients defined here:

* ``Grid`` — a symmetric, uniformly spaced momentum window with an interior
  mask that excludes boundary-contaminated rows from all norms.  Its points
  are exactly antisymmetric (p[n-1-i] == −p[i], p = 0 at the centre).
* ``Operator`` — a complex matrix bound to its grid, stored as its diagonals.
  The model operators are banded (P and ρ are diagonal, X spans offsets
  −2..2, H spans −4..4), so products, adjoints, norms and probe actions cost
  O(n · bandwidth).  The dense matrix is materialized only for the dense
  eigensolvers: ``np.linalg.eigh`` in ``hermitian_matrix_function``, and
  ``np.linalg.eig`` in ``spectrum`` for grids of fewer than 257 points, raw
  arrays, and the fallback of its shift-invert path.  On larger grids
  ``spectrum`` hands ARPACK sparse blocks folded straight from the bands
  (``_sparse_blocks``).  Two exact properties of the model operators make
  all of these solves cheaper:

  - *Real.*  A matrix whose imaginary parts are all exactly zero reaches the
    solvers as a real array, so LAPACK runs the real routines (``dgeev``/
    ``dsyevd``, about 2.5x cheaper than ``zgeev``/``zheevd``).  With P real
    and X = iħ(1+τp²)D + iħγ_t p purely imaginary, X², iμ{X,P} and the
    ladder (P − iωX)/√(2mħω) are real.
  - *Even.*  A matrix that commutes exactly with the reflection p → −p is
    solved as its even and odd blocks of sizes n//2 + 1 and n//2, about a
    quarter of the full cost for the dense solvers (``_parity_blocks``; a
    banded even operator has banded blocks, ``_sparse_blocks``).  On the
    antisymmetric grid, P and the derivative D (its one-sided boundary rows
    included) are exactly odd and every even function of p is exactly even,
    so X is odd and the Hamiltonians, the Gaussian metrics, the
    counterparts ρ^{1/2}Hρ^{-1/2} and the number operator are even.

  Both tests are exact, with no tolerance; a matrix that fails one takes the
  general solver.  (``op_product`` sums the bands of an entry in an order
  that the reflection reverses, so a product whose entries sum three or more
  nonzero terms, such as a†a, can miss exact parity by an ulp on rare grids.)
* elementary algebra (products, adjoints, commutators, Hermitian matrix
  functions, masked norms).
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
        if not 0 <= self.mask_fraction < 0.5:
            raise ValueError(
                f"mask_fraction must lie in [0, 0.5), got {self.mask_fraction}"
            )
        if self.n_points - 2 * self.mask_offset() < 3:
            raise ValueError("interior must retain at least 3 points")

    @property
    def spacing(self) -> float:
        return 2.0 * self.p_max / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        half = np.linspace(0.0, self.p_max, self.n_points // 2 + 1)
        return np.concatenate([-half[:0:-1], half])

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
    materializes the dense matrix again, for the dense eigensolvers.
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
        """Diagonal operator with the given main diagonal."""
        return cls.from_bands(0, np.asarray(values)[np.newaxis, :], grid)

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


def _real_if_exact(arr: np.ndarray) -> np.ndarray:
    """``arr.real`` when every imaginary part is exactly zero, else ``arr``.

    No tolerance: the narrowed array holds the same matrix, and numpy's
    eigensolvers then call the real LAPACK routines instead of the complex ones.
    """
    if np.iscomplexobj(arr) and not arr.imag.any():
        return arr.real
    return arr


def _parity_blocks(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Even and odd blocks of a matrix that commutes exactly with the
    reflection p → −p, else ``None``.

    ``arr`` is even when ``arr[i, j] == arr[n-1-i, n-1-j]`` for every entry
    (no tolerance) and n = 2m+1 is odd.  It then maps the even vectors,
    spanned by the orthonormal basis (e_j + e_{n-1-j})/√2 (j < m) and e_m,
    to themselves, and likewise the odd vectors, spanned by
    (e_j − e_{n-1-j})/√2.  The blocks are ``arr`` in these two bases:

    * even, (m+1) x (m+1): ``arr[i, j] + arr[i, n-1-j]`` for i, j < m, the
      centre column ``√2·arr[i, m]`` and the centre row ``√2·arr[m, j]``
      (``(arr[m, j] + arr[m, n-1-j]) / √2``), and ``arr[m, m]``;
    * odd, m x m: ``arr[i, j] − arr[i, n-1-j]``.

    The spectrum of ``arr`` is the union of theirs, and a Hermitian ``arr``
    gives Hermitian blocks.  Component j < m of a block eigenvector stands
    for the mirrored pair (j, n-1-j) of the full one, with the same total
    squared modulus.
    """
    n = arr.shape[0]
    if n % 2 == 0 or not np.array_equal(arr, arr[::-1, ::-1]):
        return None
    m = n // 2
    top = arr[: m + 1]
    left, mirror = top[:, :m], top[:, :m:-1]  # columns j and n-1-j, j < m
    even = np.concatenate([left + mirror, top[:, m : m + 1]], axis=1)
    even[:m, m] *= np.sqrt(2.0)
    even[m, :m] *= np.sqrt(0.5)
    return even, left[:m] - mirror[:m]


def _sparse_blocks(op: Operator) -> tuple[list, bool]:
    """CSC parity blocks of ``op`` folded from its bands, and whether it is even.

    ``op`` is exactly even when its bands are: an odd number of them centred
    on the main diagonal (``lo == -(len(bands) - 1) // 2``) with
    ``bands == bands[::-1, ::-1]`` (slot (k, i) mirrors slot
    (len - 1 - k, n - 1 - i)).  Its blocks are then those of
    ``_parity_blocks``, summed from the slots of rows 0..m alone, with the
    same √2 and √½ weights on the centre column and row.  Any other operator
    becomes one n x n block.  Exactly real bands give real blocks, and no
    n x n dense array is formed.
    """
    from scipy.sparse import coo_array  # imported here: 0.35 s and 30 MB

    n, lo, bands = op.dim, op.lo, _real_if_exact(op.bands)
    rows, cols = _slot_indices(lo, bands.shape)
    stored = (cols >= 0) & (cols < n) & (bands != 0)
    nb = len(bands)
    even = (
        nb % 2 == 1 and lo == -(nb // 2) and np.array_equal(bands, bands[::-1, ::-1])
    )
    if not even:
        whole = coo_array((bands[stored], (rows[stored], cols[stored])), shape=(n, n))
        return [whole.tocsc()], False
    m = n // 2
    top = stored & (rows <= m)
    r, c, v = rows[top], cols[top], bands[top]
    folded = np.where(c > m, n - 1 - c, c)  # column n-1-j joins column j
    weight = np.ones(len(v))
    weight[(r == m) & (c != m)] = np.sqrt(0.5)
    weight[(r < m) & (c == m)] = np.sqrt(2.0)
    even_block = coo_array((v * weight, (r, folded)), shape=(m + 1, m + 1))
    odd = (r < m) & (c != m)
    sign = np.where(c[odd] > m, -1.0, 1.0)
    odd_block = coo_array((v[odd] * sign, (r[odd], folded[odd])), shape=(m, m))
    return [even_block.tocsc(), odd_block.tocsc()], True  # duplicates summed


def _parity_unfold(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The even n x n matrix whose parity blocks (``_parity_blocks``) are given."""
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
    """Drop all-zero outer diagonals."""
    nonzero = np.flatnonzero(bands.any(axis=1))
    if nonzero.size == 0:
        return 0, bands[:0]
    return lo + int(nonzero[0]), bands[nonzero[0] : nonzero[-1] + 1]


def _shifted(rows: np.ndarray, s: int) -> np.ndarray:
    """``out[..., i] = rows[..., i + s]``, zero where ``i + s`` leaves the row."""
    out = np.zeros_like(rows)
    n = rows.shape[-1]
    if s >= 0:
        out[..., : max(n - s, 0)] = rows[..., s:]
    else:
        out[..., min(-s, n) :] = rows[..., : max(n + s, 0)]
    return out


def _grid_of(*xs) -> Grid | None:
    for x in xs:
        if isinstance(x, Operator):
            return x.grid
    return None


def _dim(x) -> int:
    if isinstance(x, Operator):
        return x.dim
    shape = np.shape(x)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"operands must be square matrices, got shape {shape}")
    return shape[0]


def _check_compatible(*xs) -> int:
    """Common dimension of the operands; they must share it and their grid."""
    dims = {_dim(x) for x in xs}
    if len(dims) > 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")
    grids = {x.grid for x in xs if isinstance(x, Operator)}
    if len(grids) > 1:
        raise ValueError("operators live on different grids")
    return dims.pop()


def _bands(x) -> tuple[int, np.ndarray]:
    if isinstance(x, Operator):
        return x.lo, x.bands
    return _dense_to_bands(np.asarray(x, dtype=complex))


def _aligned(ops, n: int) -> tuple[int, list[np.ndarray]]:
    """Each operand's bands, zero-padded to the union of their offsets."""
    parts = [_bands(x) for x in ops]
    nonempty = [(lp, bands) for lp, bands in parts if len(bands)]
    lo = min((lp for lp, _ in nonempty), default=0)
    hi = max((lp + len(bands) for lp, bands in nonempty), default=0)
    aligned = []
    for lp, bands in parts:
        union = np.zeros((hi - lo, n), dtype=complex)
        union[lp - lo : lp - lo + len(bands)] = bands
        aligned.append(union)
    return lo, aligned


def _result(lo: int, bands: np.ndarray, *sources):
    """An Operator on the sources' grid, or a dense array when none has one."""
    grid = _grid_of(*sources)
    if grid is None:
        return _bands_to_dense(lo, bands)
    return Operator._trimmed(lo, bands, grid)


def op_product(a, b):
    """Matrix product; accepts ``Operator`` or raw arrays.

    Each entry is accumulated over the bands in extended precision and
    rounded once to complex128, so it depends on no BLAS kernel or thread
    count.
    """
    n = _check_compatible(a, b)
    (la, ba), (lb, bb) = _bands(a), _bands(b)
    if not (len(ba) and len(bb)):
        return _result(0, np.zeros((0, n), dtype=complex), a, b)
    acc = np.zeros((len(ba) + len(bb) - 1, n), dtype=np.clongdouble)
    bb = bb.astype(np.clongdouble)
    for k, row in enumerate(ba.astype(np.clongdouble)):
        # A[i, i+la+k] * B[i+la+k, i+la+k+lb+kb] lands on offset la+k+lb+kb
        acc[k : k + len(bb)] += row * _shifted(bb, la + k)
    return _result(la + lb, acc.astype(complex), a, b)


def op_sum(a, b, *more):
    """Sum of two or more operators, added left to right."""
    ops = (a, b, *more)
    lo, aligned = _aligned(ops, _check_compatible(*ops))
    out = aligned[0]
    for bands in aligned[1:]:
        out += bands
    return _result(lo, out, *ops)


def op_scale(c: complex, a):
    lo, bands = _bands(a)
    return _result(lo, c * bands, a)


def adjoint(a):
    """Conjugate transpose."""
    lo, bands = _bands(a)
    nd = len(bands)
    out = np.empty_like(bands)
    for k in range(nd):
        # entry (i, i + lo + k) moves to (i + lo + k, i)
        out[nd - 1 - k] = _shifted(bands[k], -(lo + k)).conj()
    return _result(-(lo + nd - 1), out, a)


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
    if n < 5:
        raise ValueError(f"derivative_matrix requires n_points >= 5, got {n}")
    c = 1.0 / (2.0 * grid.spacing)
    bands = np.zeros((5, n))  # offsets -2, -1, 0, 1, 2
    bands[1, 1:-1], bands[3, 1:-1] = -c, c
    bands[2:, 0] = -3.0 * c, 4.0 * c, -c
    bands[:3, -1] = c, -4.0 * c, 3.0 * c
    return Operator.from_bands(-2, bands, grid)


def hermitian_matrix_function(
    a,
    f: Callable[[np.ndarray], np.ndarray],
    *,
    require_positive_spectrum: bool = False,
    tol_herm: float = HERMITIAN_TOL,
) -> Operator | np.ndarray:
    """Apply a real scalar function to a Hermitian matrix by eigendecomposition.

    Guards: the input must be Hermitian to ``tol_herm`` (relative Frobenius);
    with ``require_positive_spectrum`` (fractional powers) every eigenvalue
    must be strictly positive; and the dynamic range max|f|/min|f| of the
    transformed spectrum must stay below 1e14.

    An input with no nonzero imaginary part (a real symmetric matrix, such as
    the number operator a†a of the model ladder) is decomposed by the real
    ``eigh`` routine and rebuilt as (u·f(w))·uᵀ by a real matrix product, so
    the result's imaginary parts are exactly zero.

    An ``Operator`` that is exactly even under p → −p (the number operator
    again) is decomposed as its two parity blocks, each rebuilt as above and
    unfolded into an exactly even result.  Raw arrays, which
    carry no grid and so no reflection, and operators without exact parity
    take one ``eigh`` of the full matrix.
    """
    arr = a.entries if isinstance(a, Operator) else np.asarray(a, dtype=complex)
    arr = _real_if_exact(arr)
    scale = np.linalg.norm(arr)
    if scale > 0 and np.linalg.norm(arr - arr.conj().T) / scale > tol_herm:
        raise ValueError("input is not Hermitian within tolerance")
    blocks = _parity_blocks(arr) if isinstance(a, Operator) else None
    parts = [arr] if blocks is None else blocks
    decomps = [np.linalg.eigh(part) for part in parts]
    w = np.concatenate([wp for wp, _ in decomps])
    if require_positive_spectrum and w.min() <= 0:
        raise NumericGuardError(
            f"non-positive eigenvalue {w.min():.3e} under a fractional power"
        )
    fw = np.asarray(f(w), dtype=float)
    fmax = np.abs(fw).max() if fw.size else 0.0
    fmin = np.abs(fw).min() if fw.size else 0.0
    if fmax > 0 and (fmin == 0 or fmax / fmin > OVERFLOW_RATIO):
        raise NumericGuardError(
            "matrix function overflows the supported dynamic range "
            f"(max|f|/min|f| > {OVERFLOW_RATIO:.0e})"
        )
    fparts = np.split(fw, np.cumsum([len(part) for part in parts])[:-1])
    rebuilt = [(u * fp) @ u.conj().T for (_, u), fp in zip(decomps, fparts)]
    out = rebuilt[0] if blocks is None else _parity_unfold(*rebuilt)
    return _result(*_dense_to_bands(out), a)


def interior_block_entries(ops: Sequence, grid: Grid) -> np.ndarray:
    """Entries of each operator's interior-by-interior block, one column each.

    Only slots of the union of the operators' bands are listed, in the same
    order for every column; every entry outside that band is zero in all of
    them.  Accepts ``Operator`` or raw arrays.
    """
    lo, aligned = _aligned(ops, grid.n_points)
    rows, cols = _slot_indices(lo, aligned[0].shape)
    sl = grid.interior()
    inside = (rows >= sl.start) & (rows < sl.stop) & (cols >= sl.start) & (cols < sl.stop)
    return np.stack([bands[inside] for bands in aligned], axis=1)


def masked_norm(a, relative_to: Sequence | None = None) -> float:
    """Frobenius norm of the interior-by-interior block.

    With ``relative_to`` (a list of operators), divides by the product of
    their interior Frobenius norms, yielding a dimensionless value.
    """
    grid = _grid_of(a, *(relative_to or ()))
    if grid is None:
        raise ValueError("masked_norm needs at least one grid-bound Operator")
    val = float(np.linalg.norm(interior_block_entries([a], grid)))
    if relative_to is not None:
        denom = 1.0
        for b in relative_to:
            nb = float(np.linalg.norm(interior_block_entries([b], grid)))
            if nb == 0.0:
                raise ValueError("relative normalization against a zero block")
            denom *= nb
        val /= denom
    return val


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


def smooth_probes(grid: Grid, count: int = 8, width: float = 1.0) -> np.ndarray:
    """Hermite–Gaussian momentum profiles, unit-normalized columns.

    The first ``count`` oscillator-like profiles of the given width, spanning
    the low-energy subspace on which continuum identities are compared.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    t = grid.points / width
    env = np.exp(-0.5 * t * t)
    cols = []
    h_prev = np.zeros_like(t)
    h_cur = np.ones_like(t)
    for k in range(count):
        col = h_cur * env
        nrm = np.linalg.norm(col)
        cols.append(col / nrm if nrm > 0 else col)
        h_next = 2.0 * t * h_cur - 2.0 * k * h_prev
        h_prev, h_cur = h_cur, h_next
    return np.stack(cols, axis=1)


def interior_action(a, vectors: np.ndarray, grid: Grid) -> np.ndarray:
    """Interior rows of ``A @ vectors`` (vectors as columns), from the bands."""
    v = np.asarray(vectors)
    n = grid.n_points
    if _dim(a) != n or v.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: operator {_dim(a)}, vectors {v.shape[0]}, grid {n}"
        )
    lo, bands = _bands(a)
    sl = grid.interior()
    out = np.zeros((sl.stop - sl.start, v.shape[1]), dtype=complex)
    for k, band in enumerate(bands):
        o = lo + k
        r0, r1 = max(sl.start, -o), min(sl.stop, n - o)
        if r0 < r1:
            out[r0 - sl.start : r1 - sl.start] += band[r0:r1, np.newaxis] * v[r0 + o : r1 + o]
    return out


def action_residual(lhs, rhs, probes: np.ndarray, grid: Grid | None = None) -> float:
    """Relative disagreement of two operators in action on probe vectors.

    ``‖((L−R)·V)[interior]‖_F / max(‖(L·V)[interior]‖_F, ‖(R·V)[interior]‖_F)``;
    returns 0 when both actions vanish on the interior.
    """
    if grid is None:
        grid = _grid_of(lhs, rhs)
    if grid is None:
        raise ValueError("action_residual needs a grid")
    la = interior_action(lhs, probes, grid)
    ra = interior_action(rhs, probes, grid)
    denom = max(float(np.linalg.norm(la)), float(np.linalg.norm(ra)))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(la - ra)) / denom
