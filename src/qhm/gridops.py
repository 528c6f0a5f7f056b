"""Banded momentum-grid operators and the measurement layer.

Everything downstream builds on four ingredients defined here:

* ``Grid`` — a symmetric, uniformly spaced momentum window with an interior
  mask that excludes boundary-contaminated rows from all norms.  Its points
  are exactly antisymmetric (p[n-1-i] == −p[i], p = 0 at the centre).
* ``Operator`` — a matrix bound to its grid, stored as its diagonals:
  read-only ``float64`` coefficient bands and a phase ``Operator.turns``,
  0 when exactly real and 1 when exactly imaginary.  The constructors take
  real data alone, and the phase comes from the algebra: ``op_scale(1j, A)``,
  products, sums and adjoints.  Complex data, mixed-phase sums and scalars
  that are neither real nor imaginary are refused with ``ValueError``.
  The model operators are banded (P is diagonal, X spans offsets −2..2,
  H spans −4..4), so products, adjoints, norms and probe actions cost
  O(n · bandwidth).  With P real and odd and
  X = iħ(1+τp²)D + iħγ_t p imaginary and odd (P and D, its one-sided
  boundary rows included, are exactly odd on the antisymmetric grid), the
  Hamiltonians, the counterparts ρ^{1/2}Hρ^{-1/2} (ρ = diag(g) for an even
  metric profile g) and the number operator are exactly real and exactly
  even under p → −p.
  ``op_product`` keeps parity exactly: it sums the terms of an entry in an
  order that the reflection maps onto the order of its mirror's terms.

  That is the one form the eigensolvers take (``hermitian_matrix_function``
  here, ``verify.spectrum``): ``_parity_fold`` reads an exactly real, exactly
  even operator's bands into its real even and odd blocks, of sizes
  n//2 + 1 and n//2, each ``(lo, bands)`` in the operator's own band
  layout, and refuses any other operator with ``ValueError``.  The parity
  test is exact, with no tolerance.  No n x n matrix is formed.  Operators
  and blocks share two band kernels, ``_band_action`` and ``_band_transpose``.
* elementary algebra (products, adjoints, commutators, the action of a
  real symmetric matrix function, masked norms).  Every operand is an
  ``Operator``, and each function reads its grid from its operands, which
  must share it.
  Products sum each entry of the coefficient bands in ``float64``, pairing
  the bands from both ends (``op_product``); probe actions apply the
  coefficients and then the phase.
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
  are reported alongside as diagnostics.  A norm that is not finite raises
  ``NumericGuardError`` naming its residual (``_finite_norms``).
  Measurements read operators through their ``float64`` coefficients
  (``_interior_slots``), and a metric ρ = diag(g) as its profile g, a 1-D
  ``float64`` array (``_check_metric``); the dense complex ``entries`` are
  built for callers outside the package alone.
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
    """Matrix on a grid: real ``float64`` coefficient bands times i^turns.

    ``coefficients[k, i]`` is the coefficient of ``A[i, i + lo + k]``.  Band
    slots whose column falls outside the matrix hold zero, and all-zero
    outer diagonals are trimmed, so a diagonal operator has one band and
    the zero operator none.

    The stored form is the read-only, contiguous ``float64``
    ``coefficients`` and the phase ``turns``: 0 for an exactly real
    operator and 1 for an exactly imaginary one, ``A = 1j**turns ·
    coefficients``.  The constructors take real data alone and build real
    operators; complex data is refused with ``ValueError``, and i·A is
    ``op_scale(1j, A)``.  Products, sums, scalings and adjoints derive
    their phase from their operands.

    ``Operator(entries, grid)`` converts a dense real square array;
    ``entries`` builds the dense complex matrix again, for callers outside
    the package.
    """

    __slots__ = ("lo", "grid", "_coef", "_turns")

    def __init__(self, entries, grid: Grid) -> None:
        arr = _real(np.asarray(entries))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"entries must be square, got shape {arr.shape}")
        _check_dimension(arr.shape[0], grid)
        rows, cols = np.nonzero(arr)
        self._store(*_band_block(arr[rows, cols], rows, cols, arr.shape[0]), grid, 0)

    @classmethod
    def from_bands(cls, lo: int, bands, grid: Grid) -> Operator:
        """Real operator with ``A[i, i + lo + k] = bands[k, i]`` (copied)."""
        bands = _real(np.array(bands))
        if bands.ndim != 2:
            raise ValueError(f"bands must be 2-D, got shape {bands.shape}")
        _check_dimension(bands.shape[1], grid)
        _, cols = _slot_indices(lo, bands.shape)
        if np.any(bands[(cols < 0) | (cols >= bands.shape[1])]):
            raise ValueError("band slots outside the matrix must be zero")
        return cls._trimmed(int(lo), bands, grid, 0)

    @classmethod
    def _trimmed(cls, lo: int, coef: np.ndarray, grid: Grid, turns: int) -> Operator:
        """Wrap valid coefficient bands without copying or checking them
        (``_store``)."""
        op = cls.__new__(cls)
        op._store(lo, coef, grid, turns)
        return op

    def _store(self, lo: int, coef: np.ndarray, grid: Grid, turns: int) -> None:
        """Keep ``coef`` as the coefficients of phase ``turns``."""
        self.lo, coef = _trim(lo, coef)
        self.grid = grid
        self._coef = _frozen(coef)
        self._turns = turns if len(coef) else 0  # the zero operator counts as real

    @classmethod
    def diag(cls, values, grid: Grid) -> Operator:
        """Real diagonal operator with the given main diagonal (copied)."""
        values = _real(np.array(values))
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {values.shape}")
        _check_dimension(len(values), grid)
        return cls._trimmed(0, values[np.newaxis, :], grid, 0)

    @property
    def turns(self) -> int:
        """0 when exactly real, 1 when exactly imaginary."""
        return self._turns

    @property
    def coefficients(self) -> np.ndarray:
        """The stored ``float64`` bands (read-only)."""
        return self._coef

    @property
    def dim(self) -> int:
        return self._coef.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n complex matrix, ``1j**turns`` times the
        coefficients' and its other part exactly zero (a new array)."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        (out.imag if self._turns else out.real)[...] = _dense_block(self.lo, self._coef)
        return out


def _real(arr: np.ndarray) -> np.ndarray:
    """``arr`` as ``float64``; complex data, even with a zero imaginary
    part, is refused with ``ValueError``."""
    if np.iscomplexobj(arr):
        raise ValueError("operator data must be real; build i·A as op_scale(1j, A)")
    return arr.astype(float, copy=False)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_dimension(n: int, grid: Grid) -> None:
    if n != grid.n_points:
        raise ValueError(
            f"operator dimension {n} does not match grid n_points {grid.n_points}"
        )


def _slot_indices(lo: int, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every band slot."""
    k, rows = np.indices(shape)
    return rows, rows + lo + k


def _parity_fold(op: Operator) -> tuple[tuple, tuple]:
    """The even and odd parity blocks of ``op``, folded from its bands.

    ``op`` must be exactly real and exactly even under the reflection
    p → −p, as every operator that a job hands to an eigensolver is; an
    imaginary operator, or one that fails the parity test, is refused with
    ``ValueError``.  Each block is ``(lo, bands)``, ``float64`` bands in
    ``Operator``'s layout, ``bands[k, i] = B[i, i + lo + k]``, the main
    diagonal among them (``_band_block``).  No n x n array is formed.

    ``op`` is even when ``A[i, j] == A[n-1-i, n-1-j]`` for every entry (no
    tolerance), that is when its bands are centred on the main diagonal
    (``2·lo + len(bands) == 1``; the zero operator has none) and
    ``bands == bands[::-1, ::-1]`` (slot (k, i) mirrors slot
    (len − 1 − k, n − 1 − i)).  With n = 2m+1, A then maps the even vectors,
    spanned by the orthonormal basis (e_j + e_{n-1-j})/√2 (j < m) and e_m,
    to themselves, and likewise the odd vectors, spanned by
    (e_j − e_{n-1-j})/√2 (``_fold_vectors``).  The blocks are A in these two
    bases, read from the slots of rows 0..m alone:

    * even, (m+1) x (m+1): ``A[i, j] + A[i, n-1-j]`` for i, j < m, the
      centre column ``√2·A[i, m]``, the centre row
      ``√½·A[m, j] + √½·A[m, n-1-j]``, and ``A[m, m]``;
    * odd, m x m: ``A[i, j] − A[i, n-1-j]``.

    Every entry sums at most two terms, so the order of the sum does not
    matter.  Column n-1-j folds onto column j near the centre only, so a
    banded A gives banded blocks.  The spectrum of A is the union of the
    blocks', and a symmetric A gives symmetric blocks.  Component j < m of
    a block eigenvector stands for the mirrored pair (j, n-1-j) of the full
    one, with the same total squared modulus.
    """
    if op.turns:
        raise ValueError("the parity fold takes a real operator, not an imaginary one")
    n, lo, bands = op.dim, op.lo, op.coefficients
    nb = len(bands)
    if not ((nb == 0 or 2 * lo + nb == 1) and np.array_equal(bands, bands[::-1, ::-1])):
        raise ValueError("the parity fold takes an operator exactly even under p -> -p")
    m = n // 2
    rows, cols = _slot_indices(lo, bands.shape)
    top = (cols >= 0) & (cols < n) & (bands != 0) & (rows <= m)
    r, c, v = rows[top], cols[top], bands[top]
    folded = np.where(c > m, n - 1 - c, c)  # column n-1-j joins column j
    v_even = v.copy()
    v_even[(r == m) & (c != m)] *= np.sqrt(0.5)
    v_even[(r < m) & (c == m)] *= np.sqrt(2.0)
    odd = (r < m) & (c != m)
    v_odd = np.where(c[odd] > m, -v[odd], v[odd])
    return (
        _band_block(v_even, r, folded, m + 1),
        _band_block(v_odd, r[odd], folded[odd], m),
    )


def _band_block(values, rows, cols, size: int) -> tuple[int, np.ndarray]:
    """``(lo, bands)``: the size x size matrix with ``values`` at (rows, cols)
    in ``Operator``'s band layout, the main diagonal included; a position
    listed twice holds the sum of its two values."""
    offsets = cols - rows
    lo = int(offsets.min(initial=0))
    bands = np.zeros((int(offsets.max(initial=0)) - lo + 1, size), dtype=values.dtype)
    np.add.at(bands, (offsets - lo, rows), values)
    return lo, bands


def _dense_block(lo: int, bands: np.ndarray) -> np.ndarray:
    """The dense matrix of the bands ``bands[k, i] = B[i, i + lo + k]``."""
    n = bands.shape[1]
    rows, cols = _slot_indices(lo, bands.shape)
    inside = (cols >= 0) & (cols < n)
    out = np.zeros((n, n), dtype=bands.dtype)
    out[rows[inside], cols[inside]] = bands[inside]
    return out


def _band_action(lo: int, coef: np.ndarray, v: np.ndarray, rows: slice) -> np.ndarray:
    """Rows ``rows`` of B·v for the bands ``coef[k, i] = B[i, i + lo + k]``
    and the columns of ``v``, summed band by band from the lowest offset."""
    n = coef.shape[1]
    out = np.zeros((rows.stop - rows.start, v.shape[1]), dtype=np.result_type(coef, v))
    for k, band in enumerate(coef):
        o = lo + k
        r0, r1 = max(rows.start, -o), min(rows.stop, n - o)
        if r0 < r1:
            out[r0 - rows.start : r1 - rows.start] += band[r0:r1, np.newaxis] * v[r0 + o : r1 + o]
    return out


def _band_transpose(lo: int, coef: np.ndarray) -> tuple[int, np.ndarray]:
    """``(lo, bands)`` of Bᵀ for the bands ``coef[k, i] = B[i, i + lo + k]``."""
    nd, n = coef.shape
    out = np.zeros_like(coef)
    for k, row in enumerate(coef):
        # entry (i, i + s) moves to (i + s, i), s = lo + k
        s = lo + k
        r0, r1 = _overlap(s, n)
        out[nd - 1 - k, r0 + s : r1 + s] = row[r0:r1]
    return -(lo + nd - 1), out


def _fold_vectors(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``v`` in the even and odd bases of ``_parity_fold``:
    (v_j + v_{n-1-j})/√2 for j < m and v_m, and (v_j − v_{n-1-j})/√2."""
    m = len(v) // 2
    head, tail = v[:m], v[:m:-1]  # tail[j] = v[n-1-j]
    r = np.sqrt(0.5)
    return np.concatenate([r * (head + tail), v[m : m + 1]]), r * (head - tail)


def _unfold_vectors(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The vectors whose ``_fold_vectors`` coordinates are ``even`` and ``odd``."""
    m = len(odd)
    r = np.sqrt(0.5)
    out = np.empty((2 * m + 1, even.shape[1]), dtype=np.result_type(even, odd))
    out[:m] = r * (even[:m] + odd)
    out[:m:-1] = r * (even[:m] - odd)
    out[m] = even[m]
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


def _check_compatible(*ops) -> Grid:
    """The grid the operands share; each must be an ``Operator`` on it.

    An operator's dimension is its grid's ``n_points``, so one grid means one
    dimension.  Grids are compared by identity first, and by value only when
    they are distinct objects.
    """
    if not ops:
        raise ValueError("at least one operator is required")
    for x in ops:
        if not isinstance(x, Operator):
            raise TypeError(
                f"operands must be Operator(entries, grid), got {type(x).__name__}"
            )
    grid = ops[0].grid
    if any(x.grid is not grid and x.grid != grid for x in ops[1:]):
        raise ValueError("operators live on different grids")
    return grid


def _aligned(ops, n: int) -> tuple[int, list[np.ndarray]]:
    """The operators' coefficients zero-padded to the union of their offsets."""
    nonempty = [x for x in ops if len(x.coefficients)]
    lo = min((x.lo for x in nonempty), default=0)
    hi = max((x.lo + len(x.coefficients) for x in nonempty), default=0)
    aligned = [np.zeros((hi - lo, n)) for _ in ops]
    for union, x in zip(aligned, ops):
        union[x.lo - lo : x.lo - lo + len(x.coefficients)] = x.coefficients
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

    The ``float64`` coefficients are multiplied, and the product's phase is
    the sum of the operands' quarter turns; two turns negate the
    coefficients.  Each entry is summed over A's bands in mirror-paired
    order (``_accumulate``), with no BLAS call, so it depends on no BLAS
    kernel or thread count.  The reflection p → −p maps A's band q of an
    exactly even or odd A to band na − 1 − q, so the mirrored entries of a
    product of exactly even or odd operands sum the same pairs in the same
    order: the product is exactly even or odd.  The terms and their order
    are those of the ``complex128`` sums of the complex bands, so the values
    are identical (for finite entries; only the signs of exact zeros can
    differ).
    """
    grid = _check_compatible(a, b)
    ca, cb = a.coefficients, b.coefficients
    if not (len(ca) and len(cb)):
        return Operator._trimmed(0, np.zeros((0, grid.n_points)), grid, 0)
    return _turned(a.lo + b.lo, _accumulate(a.lo, ca, cb), grid, a.turns + b.turns)


def _turned(lo: int, coef: np.ndarray, grid: Grid, turns: int) -> Operator:
    """The operator i^turns·``coef``, 0 to 2 turns; two negate ``coef`` in place."""
    if turns == 2:
        coef, turns = np.negative(coef, out=coef), 0
    return Operator._trimmed(lo, coef, grid, turns)


def op_sum(a: Operator, b: Operator, *more: Operator) -> Operator:
    """Sum of two or more operators of one phase, their coefficients added
    left to right; a real and an imaginary operand are refused with
    ``ValueError`` (the zero operator shares every phase)."""
    ops = (a, b, *more)
    grid = _check_compatible(*ops)
    phases = {x.turns for x in ops if len(x.coefficients)}
    if len(phases) > 1:
        raise ValueError("cannot add an exactly real and an exactly imaginary operator")
    lo, aligned = _aligned(ops, grid.n_points)
    out = aligned[0]
    for bands in aligned[1:]:
        out += bands
    return Operator._trimmed(lo, out, grid, phases.pop() if phases else 0)


def op_scale(c: complex, a: Operator) -> Operator:
    """c·A for a real or an imaginary c: A's coefficients are scaled by c's
    real or imaginary part, and an imaginary c adds a quarter turn.  A c
    with both parts nonzero is refused with ``ValueError``."""
    grid = _check_compatible(a)
    c = complex(c)
    if c.real and c.imag:
        raise ValueError(f"scalar {c} is neither real nor imaginary")
    part, turns = (c.imag, a.turns + 1) if c.imag else (c.real, a.turns)
    return _turned(a.lo, part * a.coefficients, grid, turns)


def adjoint(a: Operator) -> Operator:
    """Conjugate transpose: the transposed coefficients, negated for an
    imaginary operator."""
    grid = _check_compatible(a)
    lo, out = _band_transpose(a.lo, a.coefficients)
    if a.turns:
        np.negative(out, out=out)
    return Operator._trimmed(lo, out, grid, a.turns)


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
    diff = op_sum(a, op_scale(-1.0, adjoint(a))).coefficients
    scale = np.linalg.norm(a.coefficients)
    if scale > 0 and np.linalg.norm(diff) / scale > HERMITIAN_TOL:
        raise ValueError("input is not Hermitian within tolerance")


def _check_metric(g, op: Operator | None = None) -> None:
    """Raise ``ValueError`` unless ``g`` is a metric profile: a 1-D, real
    ``float64`` array, as long as the grid of ``op`` (an ``Operator``, or
    ``TypeError``) when one is given."""
    n = None if op is None else _check_compatible(op).n_points
    if not (isinstance(g, np.ndarray) and g.dtype == np.float64 and g.ndim == 1
            and n in (None, len(g))):
        length = "" if n is None else f" of {n} entries"
        got = f"{getattr(g, 'dtype', type(g).__name__)} of shape {np.shape(g)}"
        raise ValueError(f"a metric is a 1-D float64 profile{length}, got {got}")


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
    with np.errstate(all="ignore"):  # refused just below
        fw = np.asarray(f(w), dtype=float)
    _check_dynamic_range(fw, "matrix function")
    return fw


def hermitian_matrix_function(
    a: Operator, f: Callable[[np.ndarray], np.ndarray], vectors: np.ndarray
) -> np.ndarray:
    """f(A)·V for a real scalar function f, a real symmetric operator A and
    vectors V (as columns), by eigendecomposition of A's parity blocks;
    f(A) itself is never formed.

    Guards: the input must be Hermitian to ``HERMITIAN_TOL`` = 1e-10
    (relative Frobenius, from the bands), and ``_parity_fold`` must take it
    (an imaginary operator, or one that is not exactly even, is refused
    with ``ValueError``); f of the spectrum must pass
    ``_check_dynamic_range`` (no NaN, max|f|/min|f| ≤ 1e14), so √ or log of
    a spectrum that is not strictly positive trips.  The range is decided
    from ``eigvalsh`` before any eigenvector is computed, so a tripped guard
    costs no ``eigh``; the eigenvalues of the ``eigh`` that follows a pass
    are checked again, so the result is built only from guarded values.

    The real ``eigh`` of each block gives (w, u); V is folded into the even
    and odd coordinates (``_fold_vectors``), each block applies
    u·(f(w)·(uᵀ·v)), and the two are unfolded again.
    """
    _check_hermitian(a)
    parts = [_dense_block(*block) for block in _parity_fold(a)]
    v = np.asarray(vectors)
    if v.ndim != 2 or v.shape[0] != a.dim:
        raise ValueError(f"dimension mismatch: vectors {v.shape}, operator {a.dim}")
    _guarded(np.concatenate([np.linalg.eigvalsh(part) for part in parts]), f)
    decomps = [np.linalg.eigh(part) for part in parts]
    fw = _guarded(np.concatenate([wp for wp, _ in decomps]), f)
    even, odd = _fold_vectors(v)
    fparts = np.split(fw, [len(even)])
    out = [u @ (fp[:, np.newaxis] * (u.T @ x))
           for (_, u), fp, x in zip(decomps, fparts, (even, odd))]
    return _unfold_vectors(*out)


def _interior_slots(ops: Sequence[Operator]) -> tuple[np.ndarray, list]:
    """The interior-by-interior block of each operator, read from its
    ``float64`` coefficients: one column per operator, so that the entries
    of ``ops[j]`` are i^turns times column j.

    The operators must share their grid.  Only the slots of the union of
    their bands are listed, band by band in ascending rows; every entry
    outside that band is zero in all of them.  The second result holds, for
    each band of the union in turn, the rows of its listed slots and their
    columns, as slices.
    """
    grid = _check_compatible(*ops)
    spans = [(x.lo, x.lo + len(x.coefficients)) for x in ops if len(x.coefficients)]
    lo = min((a for a, _ in spans), default=0)
    hi = max((b for _, b in spans), default=0)
    sl = grid.interior()
    walk = []
    for s in range(lo, hi):
        r0 = max(sl.start, sl.start - s)
        r1 = max(r0, min(sl.stop, sl.stop - s))  # no negative stop past the interior
        walk.append((slice(r0, r1), slice(r0 + s, r1 + s)))
    out = np.zeros((sum(r.stop - r.start for r, _ in walk), len(ops)))
    for column, x in zip(out.T, ops):
        coef = x.coefficients
        start = 0
        for k, (rows, _) in enumerate(walk, start=lo - x.lo):  # k: x's band
            stop = start + rows.stop - rows.start
            if 0 <= k < len(coef):
                column[start:stop] = coef[k, rows]
            start = stop
    return out, walk


def masked_norm(a: Operator) -> float:
    """Frobenius norm of the interior-by-interior block."""
    return float(np.linalg.norm(_interior_slots([a])[0]))


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
    shared and read-only.  Raises ``NumericGuardError`` when a profile is
    not finite (the Hermite polynomials overflow from p_max ≈ 1e44 on).
    """
    t = grid.points / SMOOTH_PROBE_WIDTH
    cols = []
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        env = np.exp(-0.5 * t * t)
        h_prev = np.zeros_like(t)
        h_cur = np.ones_like(t)
        for k in range(SMOOTH_PROBE_COUNT):
            col = h_cur * env
            nrm = np.linalg.norm(col)
            cols.append(col / nrm if nrm > 0 else col)
            h_next = 2.0 * t * h_cur - 2.0 * k * h_prev
            h_prev, h_cur = h_cur, h_next
    out = np.stack(cols, axis=1)
    if not np.isfinite(out).all():
        raise NumericGuardError(
            f"the smooth probes are not finite at p_max {grid.p_max:g}"
        )
    out.flags.writeable = False
    return out


def interior_action(a: Operator, vectors: np.ndarray) -> np.ndarray:
    """Interior rows of ``A @ vectors`` (vectors as columns), from the bands.

    The ``float64`` coefficients act on the vectors (a real array for real
    vectors), and the result is multiplied by 1j when A is imaginary.  The
    values are those of the complex bands' product; only the signs of zero
    real parts can differ.
    """
    grid = _check_compatible(a)
    v = np.asarray(vectors)
    if v.shape[0] != a.dim:
        raise ValueError(f"dimension mismatch: vectors {v.shape[0]}, grid {a.dim}")
    out = _band_action(a.lo, a.coefficients, v, grid.interior())
    return 1j * out if a.turns else out


def action_residual(lhs: Operator, rhs: Operator, probes: np.ndarray) -> float:
    """Relative disagreement of two operators on one grid in action on probe
    vectors.

    ``‖((L−R)·V)[interior]‖_F / max(‖(L·V)[interior]‖_F, ‖(R·V)[interior]‖_F)``;
    returns 0 when both actions vanish on the interior, and raises
    ``NumericGuardError`` when a norm is not finite.
    """
    _check_compatible(lhs, rhs)
    return _mismatch(interior_action(lhs, probes), interior_action(rhs, probes))


def _finite_norms(what: str, *arrays: np.ndarray) -> list[float]:
    """Each array's norm; one that is not finite raises, naming ``what``."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        norms = [float(np.linalg.norm(a)) for a in arrays]
    if not all(map(math.isfinite, norms)):
        raise NumericGuardError(f"{what} is not finite: a norm overflowed")
    return norms


def _mismatch(la: np.ndarray, ra: np.ndarray, what="the action residual") -> float:
    """``action_residual``'s relative mismatch of two interior actions."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused in _finite_norms
        left, right, gap = _finite_norms(what, la, ra, la - ra)
    denom = max(left, right)
    return gap / denom if denom else 0.0
