"""Grid, elementary algebra, matrix functions, masked norms, probe measurements."""
import re

import numpy as np
import pytest

from qhm.gridops import (
    Grid,
    NumericGuardError,
    Operator,
    action_residual,
    adjoint,
    anticommutator,
    commutator,
    derivative_matrix,
    hermitian_matrix_function,
    masked_norm,
    op_product,
    op_scale,
    op_sum,
    smooth_probes,
    stencil_probes,
)
from qhm.gridops import _interior_slots


# ---------------------------------------------------------------- Grid


def test_grid_spacing_and_points():
    g = Grid(257, 8.0, 0.25)
    assert g.spacing == pytest.approx(16.0 / 256.0)
    p = g.points
    assert p[0] == -8.0 and p[-1] == 8.0
    assert p[g.n_points // 2] == 0.0  # odd count puts p=0 on the grid


def test_grid_points_are_computed_once_and_read_only():
    g = Grid(513, 10.0, 0.25)
    p = g.points
    assert g.points is p
    half = np.linspace(0.0, 10.0, 257)
    assert np.array_equal(p, np.concatenate([-half[:0:-1], half]))
    with pytest.raises(ValueError, match="read-only"):
        p[0] = 1.0
    # equal grids are still equal and hash alike once one has its points
    assert g == Grid(513, 10.0, 0.25)
    assert hash(g) == hash(Grid(513, 10.0, 0.25))


def test_grid_rejects_even_n_points():
    with pytest.raises(ValueError, match="odd"):
        Grid(256, 8.0, 0.25)


def test_grid_rejects_tiny_n_points():
    with pytest.raises(ValueError):
        Grid(1, 8.0, 0.25)


def test_grid_rejects_bad_mask_fraction():
    with pytest.raises(ValueError):
        Grid(257, 8.0, 0.6)
    with pytest.raises(ValueError):
        Grid(257, 8.0, -0.1)


def test_grid_rejects_nonpositive_p_max():
    with pytest.raises(ValueError):
        Grid(257, 0.0, 0.25)


@pytest.mark.parametrize("p_max", [5e-324, 1e-310, float("inf")])
def test_grid_rejects_a_spacing_outside_the_normal_range(p_max):
    with pytest.raises(ValueError, match="spacing"):
        Grid(257, p_max, 0.25)


def test_grid_interior_needs_three_points():
    # floor(0.45 * 5) = 2 cut per side leaves 1 < 3
    with pytest.raises(ValueError, match="interior"):
        Grid(5, 1.0, 0.45)


def test_grid_interior_slice_count():
    g = Grid(9, 2.0, 0.25)
    sl = g.interior()
    assert (sl.start, sl.stop) == (2, 7)


# ---------------------------------------------------------------- Operator


def test_operator_checks_dimension_against_grid():
    g = Grid(9, 2.0, 0.25)
    with pytest.raises(ValueError):
        Operator(np.eye(5), g)


def test_operator_rejects_nonsquare():
    g = Grid(9, 2.0, 0.25)
    with pytest.raises(ValueError):
        Operator(np.zeros((9, 5)), g)


def test_operator_diag_checks_and_copies_its_values():
    g = Grid(9, 2.0, 0.25)
    values = np.arange(9.0)
    d = Operator.diag(values, g)
    assert (d.lo, d.coefficients.shape) == (0, (1, 9))
    assert np.array_equal(
        d.coefficients, Operator.from_bands(0, values[np.newaxis], g).coefficients
    )
    values[1] = 7.0
    assert d.coefficients[0, 1] == 1.0
    assert len(Operator.diag(np.zeros(9), g).coefficients) == 0
    with pytest.raises(ValueError, match="1-D"):
        Operator.diag(np.eye(9), g)
    with pytest.raises(ValueError, match="n_points"):
        Operator.diag(np.ones(5), g)


# ---------------------------------------------------------------- algebra


def test_commutator_with_itself_vanishes():
    rng = np.random.default_rng(7)
    a = op_scale(1j, Operator(rng.normal(size=(7, 7)), Grid(7, 2.0)))
    assert np.all(commutator(a, a).entries == 0)


def test_anticommutator_of_diagonal_functions():
    g = Grid(17, 3.0, 0.25)
    p = np.diag(g.points)
    w = np.diag(np.cos(g.points))
    got = anticommutator(Operator(p, g), Operator(w, g))
    expect = 2.0 * np.diag(g.points * np.cos(g.points))
    assert np.allclose(got.entries, expect, atol=1e-14)


def test_alg_refuses_raw_arrays():
    # Operator(entries, grid) is the only way in: a raw array is refused
    # alone, in pairs and beside an Operator.
    g = Grid(9, 2.0, 0.25)
    a = Operator(np.diag(g.points), g)
    for call in (
        lambda: op_sum(a, np.eye(9)),
        lambda: op_product(np.eye(4), np.eye(5)),
        lambda: op_scale(2.0, np.eye(9)),
        lambda: adjoint(np.eye(9)),
        lambda: hermitian_matrix_function(np.eye(9), np.exp, np.eye(9)),
    ):
        with pytest.raises(TypeError, match=r"Operator\(entries, grid\)"):
            call()


def test_alg_rejects_dimension_mismatch():
    a = Operator(np.eye(5), Grid(5, 2.0))
    b = Operator(np.eye(9), Grid(9, 2.0))
    with pytest.raises(ValueError, match="different grids"):
        op_product(a, b)


def test_no_operands_is_a_value_error():
    with pytest.raises(ValueError, match="at least one operator is required"):
        _interior_slots([])


def test_adjoint_is_involution_and_antihomomorphism():
    rng = np.random.default_rng(11)
    g = Grid(9, 2.0)
    a = rng.normal(size=(9, 9))
    b = rng.normal(size=(9, 9))
    oa, ob = Operator(a, g), op_scale(1j, Operator(b, g))
    assert np.all(adjoint(adjoint(ob)).entries == 1j * b)
    lhs = adjoint(op_scale(1j, Operator(a @ b, g))).entries
    rhs = adjoint(ob).entries @ adjoint(oa).entries
    assert np.abs(lhs - rhs).max() < 1e-15 * max(1.0, np.abs(lhs).max())


def test_op_scale():
    a = Operator(np.eye(3), Grid(3, 1.0))
    assert np.allclose(op_scale(2.5j, a).entries, 2.5j * np.eye(3))


# ---------------------------------------------------------------- derivative


def test_derivative_boundary_and_central_rows():
    g = Grid(9, 4.0, 0.25)
    h = g.spacing
    d = derivative_matrix(g).entries
    c = 1.0 / (2.0 * h)
    assert np.allclose(d[0, :3], [-3.0 * c, 4.0 * c, -c])
    assert np.allclose(d[-1, -3:], [c, -4.0 * c, 3.0 * c])
    j = 4
    row = np.zeros(9)
    row[j - 1], row[j + 1] = -c, c
    assert np.allclose(d[j], row)
    assert np.all(np.isreal(d))


def test_derivative_middle_row_matches_central_difference_on_unit_spacing():
    g = Grid(5, 2.0, 0.0)  # points -2,-1,0,1,2 with h=1
    d = derivative_matrix(g).entries
    assert np.allclose(d[2], [0.0, -0.5, 0.0, 0.5, 0.0])


def test_derivative_exact_on_quadratics():
    g = Grid(33, 5.0, 0.25)
    f = g.points**2
    got = derivative_matrix(g).entries @ f
    assert np.abs(got - 2.0 * g.points).max() < 1e-12
    assert abs(got[g.n_points // 2]) < 1e-13  # derivative of p^2 at p=0


def test_derivative_rejects_small_grids():
    with pytest.raises(ValueError, match="5"):
        derivative_matrix(Grid(3, 1.0, 0.0))


def test_position_momentum_commutator_is_exact_in_action():
    g = Grid(257, 8.0, 0.25)
    hbar = 1.0
    x0 = op_scale(1j * hbar, derivative_matrix(g))
    p0 = Operator(np.diag(g.points), g)
    target = op_scale(1j, Operator(hbar * np.eye(g.n_points), g))
    r = action_residual(commutator(x0, p0), target, stencil_probes(g))
    assert r < 1e-14


def test_weighted_derivative_commutator_exact_for_quadratic_weight():
    # [iD, diag(w)] acting on the constant probe equals diag(w') exactly
    # for w up to second degree.
    g = Grid(129, 6.0, 0.25)
    w = 1.0 + 0.3 * g.points**2
    d = derivative_matrix(g).entries
    comm = op_scale(1j, Operator((d @ np.diag(w) - np.diag(w) @ d).real, g))
    target = op_scale(1j, Operator(np.diag(0.6 * g.points), g))
    ones = np.ones((g.n_points, 1)) / np.sqrt(g.n_points)
    assert action_residual(comm, target, ones) < 1e-14


# ---------------------------------------------------------------- matrix functions


def _on_grid(a):
    """The square array ``a`` as an Operator on a grid of its size."""
    return Operator(a, Grid(len(a), 2.0))


def _even_symmetric(n, seed):
    """A random real symmetric n x n matrix that is exactly even: entry
    (i, j) and its mirror (n-1-i, n-1-j) sum the same two terms."""
    m = np.random.default_rng(seed).normal(size=(n, n))
    m = m + m.T
    return 0.5 * (m + m[::-1, ::-1])


def _matrix(a, f):
    """f(A) as a dense array: its action on the identity's columns."""
    return hermitian_matrix_function(a, f, np.eye(a.dim))


def test_matrix_function_exp_on_diagonal():
    a = _on_grid(np.diag([np.log(4.0), np.log(2.0), 0.0, np.log(2.0), np.log(4.0)]))
    got = _matrix(a, np.exp)
    assert np.allclose(got, np.diag([4.0, 2.0, 1.0, 2.0, 4.0]), atol=1e-14)


def test_matrix_function_square_agrees_with_product():
    a = _even_symmetric(13, 3)
    got = _matrix(_on_grid(a), lambda t: t**2)
    expect = a @ a
    rel = np.linalg.norm(got - expect) / np.linalg.norm(expect)
    assert rel < 1e-12


def test_matrix_function_rational_weight_on_even_momentum_diagonal():
    g = Grid(9, 2.0, 0.25)
    p2 = Operator.diag(g.points**2, g)
    got = _matrix(p2, lambda t: 1.0 / (1.0 + 0.1 * t))
    expect = np.diag(1.0 / (1.0 + 0.1 * g.points**2))
    assert np.allclose(got, expect, atol=1e-14)


def test_matrix_function_refuses_an_operator_that_is_not_even():
    # P is odd, and a one-ulp asymmetry breaks the exact parity test.
    g = Grid(9, 2.0, 0.25)
    bumped = np.diag(1.0 + g.points**2)
    bumped[0, 0] = np.nextafter(bumped[0, 0], 3.0)
    for a in (Operator.diag(g.points, g), Operator(bumped, g)):
        with pytest.raises(ValueError, match="exactly even"):
            hermitian_matrix_function(a, np.exp, np.eye(9))


def test_matrix_function_identity_returns_input():
    a = _even_symmetric(11, 5)
    got = _matrix(_on_grid(a), lambda t: t)
    rel = np.linalg.norm(got - a) / np.linalg.norm(a)
    assert rel < 1e-12


def test_matrix_function_rejects_non_hermitian():
    a = _on_grid(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        _matrix(a, np.exp)


@pytest.mark.parametrize("eps, ok", [(1.4e-10, True), (1.6e-10, False)])
def test_matrix_function_hermiticity_bound_is_relative_frobenius(eps, ok):
    # ‖A − A†‖_F ≤ 1e-10·‖A‖_F, met by an exactly even real matrix with one
    # asymmetric entry ε and its mirror, where the ratio is 2ε/‖A‖
    # (‖A‖ ≈ 3): ε = 1.4e-10 passes, 1.6e-10 not.
    grid = Grid(9, 2.0, 0.25)
    near = np.eye(9)
    near[0, 1] = near[8, 7] = eps
    if ok:
        hermitian_matrix_function(Operator(near, grid), np.sqrt, np.eye(9))
    else:
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_matrix_function(Operator(near, grid), np.sqrt, np.eye(9))


def test_matrix_function_guards_fractional_power_of_indefinite_input():
    # √ of a negative eigenvalue is NaN.
    a = _on_grid(np.diag([2.0, -1.0, 2.0]))
    with pytest.raises(NumericGuardError, match="NaN"):
        _matrix(a, np.sqrt)


def test_matrix_function_refuses_a_nan_spectrum():
    a = Operator.diag([1.0, -1.0, 1.0], Grid(3, 1.0))
    with pytest.raises(NumericGuardError, match="NaN"):
        _matrix(a, np.log)


def test_matrix_function_overflow_guard():
    a = _on_grid(np.diag([40.0, 0.0, 40.0]))
    with pytest.raises(NumericGuardError, match="dynamic range"):
        _matrix(a, np.exp)


def _both_blocks(low, high):
    """The exactly even diagonals (high, low, high) and (low, high, low) on
    three points.  Both have the spectrum {low, high}; in the second the
    odd block holds low alone, so the range is decided over both blocks."""
    grid = Grid(3, 2.0)
    return [Operator.diag(v, grid) for v in ([high, low, high], [low, high, low])]


def _diag_of(a):
    return a.coefficients[0]


LOG_RANGE = np.log(1e14)


@pytest.mark.parametrize("a", _both_blocks(0.0, LOG_RANGE - 1e-6))
def test_matrix_function_dynamic_range_just_inside_passes(a):
    got = np.diag(_matrix(a, np.exp))
    assert got == pytest.approx(np.exp(_diag_of(a)), rel=1e-14)


@pytest.mark.parametrize("a", _both_blocks(0.0, LOG_RANGE + 1e-6))
def test_matrix_function_dynamic_range_just_outside_trips(a):
    with pytest.raises(NumericGuardError, match="dynamic range"):
        _matrix(a, np.exp)


@pytest.mark.parametrize("a", _both_blocks(1.0, 2.0))
def test_matrix_function_fractional_power_of_positive_input_passes(a):
    got = np.diag(_matrix(a, np.sqrt))
    assert got == pytest.approx(np.sqrt(_diag_of(a)), rel=1e-14)


@pytest.mark.parametrize("a", _both_blocks(0.0, 1.0))
def test_matrix_function_fractional_power_of_singular_input_trips(a):
    # √0 gives min|f| = 0, an unbounded dynamic range.
    with pytest.raises(NumericGuardError, match="dynamic range"):
        _matrix(a, np.sqrt)


def test_matrix_function_takes_vectors_as_the_columns_of_a_matrix():
    g = Grid(9, 2.0, 0.25)
    a = Operator.diag(1.0 + g.points**2, g)
    v = np.linspace(-1.0, 2.0, 18).reshape(9, 2)
    got = hermitian_matrix_function(a, np.sqrt, v)
    assert got.shape == (9, 2)
    assert got == pytest.approx(np.sqrt(1.0 + g.points**2)[:, np.newaxis] * v, rel=1e-14)
    for wrong in (np.ones((7, 2)), np.ones(9)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            hermitian_matrix_function(a, np.sqrt, wrong)


# ---------------------------------------------------------------- masked norm


def test_masked_norm_of_zero():
    g = Grid(9, 2.0, 0.25)
    assert masked_norm(Operator(np.zeros((9, 9)), g)) == 0.0


def test_masked_norm_identity_counts_interior():
    g = Grid(9, 2.0, 0.25)
    assert masked_norm(Operator(np.eye(9), g)) == pytest.approx(np.sqrt(5.0))


def test_masked_norm_absolute_homogeneity():
    g = Grid(17, 3.0, 0.25)
    rng = np.random.default_rng(1)
    a = Operator(rng.normal(size=(17, 17)), g)
    assert masked_norm(op_scale(-3.0, a)) == pytest.approx(3.0 * masked_norm(a))


@pytest.mark.parametrize(
    "n, offsets",
    [(17, [0]), (17, [-2, 1]), (17, range(-4, 5)), (9, range(-8, 9)), (9, [6]), (9, [])],
)
def test_interior_slots_list_the_interior_block_band_by_band(n, offsets):
    # The per-band walk lists the slots in the order of the boolean mask over
    # the aligned bands (band by band, ascending rows), with each slot's row
    # and column.  The first operator is real and the second imaginary; each
    # column holds the float64 coefficients, the entries without their
    # phase, bit for bit, and the listed slots hold the whole dense interior
    # block.
    g = Grid(n, 2.0, 0.25)
    rng = np.random.default_rng(n + len(offsets))
    dense = [np.zeros((n, n), dtype=complex) for _ in range(2)]
    for d, phase in zip(dense, (1, 1j)):
        for s in offsets:
            d += phase * np.diag(rng.normal(size=n - abs(s)), s)
    ops = [Operator(dense[0].real, g), op_scale(1j, Operator(dense[1].imag, g))]
    got, walk = _interior_slots(ops)
    lo = min((o.lo for o in ops if len(o.coefficients)), default=0)
    hi = max((o.lo + len(o.coefficients) for o in ops if len(o.coefficients)), default=0)
    k, rows = np.indices((hi - lo, n))
    cols = rows + lo + k
    sl = g.interior()
    inside = (rows >= sl.start) & (rows < sl.stop) & (cols >= sl.start) & (cols < sl.stop)
    expect = np.stack([d[rows[inside], cols[inside]] for d in dense], axis=1)
    assert got.dtype == np.float64
    assert got.shape == expect.shape == (inside.sum(), 2)
    assert np.array_equal(got[:, 0], expect[:, 0].real)
    assert np.array_equal(got[:, 1], expect[:, 1].imag)
    assert len(walk) == hi - lo
    slot_rows = np.concatenate([np.arange(n)[r] for r, _ in walk] or [np.zeros(0, int)])
    slot_cols = np.concatenate([np.arange(n)[c] for _, c in walk] or [np.zeros(0, int)])
    assert np.array_equal(slot_rows, rows[inside])
    assert np.array_equal(slot_cols, cols[inside])
    for d, column, phase in zip(dense, got.T, (1, 1j)):
        block = np.zeros((n, n), dtype=complex)
        block[slot_rows, slot_cols] = phase * column
        assert np.array_equal(block[sl, sl], d[sl, sl])


# ---------------------------------------------------------------- probes


def test_stencil_probes_are_unit_columns():
    g = Grid(257, 8.0, 0.25)
    v = stencil_probes(g)
    assert v.shape == (257, 2)
    assert np.allclose(np.linalg.norm(v, axis=0), 1.0)


def test_smooth_probes_shape_and_normalization():
    g = Grid(257, 8.0, 0.25)
    v = smooth_probes(g)
    assert v.shape == (257, 8)
    assert np.allclose(np.linalg.norm(v, axis=0), 1.0)
    # profiles decay to negligible values at the window edge
    assert np.abs(v[0, :]).max() < 1e-8


@pytest.mark.parametrize("p_max", [1e44, 1e150])
def test_smooth_probes_that_overflow_are_refused(p_max):
    # The Hermite polynomials overflow; once NaN probes, after RuntimeWarnings.
    message = f"the smooth probes are not finite at p_max {p_max:g}"
    with pytest.raises(NumericGuardError, match=re.escape(message)):
        smooth_probes(Grid(17, p_max))


def test_smooth_probes_are_cached_per_argument_set_and_read_only():
    # The argument set is the grid alone.
    v = smooth_probes(Grid(257, 8.0, 0.25))
    assert smooth_probes(Grid(257, 8.0, 0.25)) is v
    # the uncached construction, on a fresh grid, gives the same bits
    fresh = smooth_probes.__wrapped__(Grid(257, 8.0, 0.25))
    assert fresh is not v
    assert np.array_equal(fresh, v)
    with pytest.raises(ValueError, match="read-only"):
        v += 1.0
    with pytest.raises(ValueError, match="read-only"):
        v[0, 0] = 1.0
    assert not np.array_equal(smooth_probes(Grid(257, 10.0, 0.25)), v)


def test_action_residual_zero_for_equal_operators():
    g = Grid(17, 3.0, 0.25)
    rng = np.random.default_rng(4)
    a = Operator(rng.normal(size=(17, 17)), g)
    assert action_residual(a, a, stencil_probes(g)) == 0.0


def test_action_residual_detects_disagreement():
    g = Grid(17, 3.0, 0.25)
    a = Operator(np.eye(17), g)
    assert action_residual(a, op_scale(2.0, a), stencil_probes(g)) == pytest.approx(0.5)


def test_action_residual_requires_some_grid():
    with pytest.raises(TypeError, match=r"Operator\(entries, grid\)"):
        action_residual(np.eye(5), np.eye(5), np.ones((5, 1)))


def test_action_residual_refuses_operands_on_different_grids():
    # Two 9-point grids that differ only in p_max: the interior masks agree,
    # but the operators are not on one grid.
    a = Operator(np.eye(9), Grid(9, 2.0))
    b = Operator(np.diag(np.arange(9.0)), Grid(9, 3.0))
    probes = stencil_probes(Grid(9, 2.0))
    with pytest.raises(ValueError, match="different grids"):
        action_residual(a, b, probes)
