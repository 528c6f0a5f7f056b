"""Grid, elementary algebra, matrix functions, masked norms, probe measurements."""
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
    interior_block_entries,
    masked_norm,
    op_product,
    op_scale,
    op_sum,
    smooth_probes,
    stencil_probes,
)


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
    assert (d.lo, d.bands.shape) == (0, (1, 9))
    assert np.array_equal(d.bands, Operator.from_bands(0, values[np.newaxis], g).bands)
    values[1] = 7.0
    assert d.bands[0, 1] == 1.0
    assert len(Operator.diag(np.zeros(9), g).bands) == 0
    with pytest.raises(ValueError, match="1-D"):
        Operator.diag(np.eye(9), g)
    with pytest.raises(ValueError, match="n_points"):
        Operator.diag(np.ones(5), g)


# ---------------------------------------------------------------- algebra


def test_commutator_with_itself_vanishes():
    rng = np.random.default_rng(7)
    a = Operator(1j * rng.normal(size=(7, 7)), Grid(7, 2.0))
    assert np.all(commutator(a, a).entries == 0)


def test_anticommutator_of_diagonal_functions():
    g = Grid(17, 3.0, 0.25)
    p = np.diag(g.points).astype(complex)
    w = np.diag(np.cos(g.points)).astype(complex)
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
        lambda: hermitian_matrix_function(np.eye(9), np.exp),
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
        interior_block_entries([])


def test_adjoint_is_involution_and_antihomomorphism():
    rng = np.random.default_rng(11)
    g = Grid(9, 2.0)
    a = rng.normal(size=(9, 9))
    b = rng.normal(size=(9, 9))
    oa, ob = Operator(a, g), Operator(1j * b, g)
    assert np.all(adjoint(adjoint(ob)).entries == 1j * b)
    lhs = adjoint(Operator(1j * (a @ b), g)).entries
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
    target = Operator(1j * hbar * np.eye(g.n_points), g)
    r = action_residual(commutator(x0, p0), target, stencil_probes(g))
    assert r < 1e-14


def test_weighted_derivative_commutator_exact_for_quadratic_weight():
    # [iD, diag(w)] acting on the constant probe equals diag(w') exactly
    # for w up to second degree.
    g = Grid(129, 6.0, 0.25)
    w = 1.0 + 0.3 * g.points**2
    d = derivative_matrix(g).entries
    comm = Operator(1j * (d @ np.diag(w) - np.diag(w) @ d), g)
    target = Operator(1j * np.diag(0.6 * g.points), g)
    ones = np.ones((g.n_points, 1)) / np.sqrt(g.n_points)
    assert action_residual(comm, target, ones) < 1e-14


# ---------------------------------------------------------------- matrix functions


def _on_grid(a):
    """The square array ``a`` as an Operator on a grid of its size."""
    return Operator(a, Grid(len(a), 2.0))


def test_matrix_function_exp_on_diagonal():
    a = _on_grid(np.diag([0.0, np.log(2.0), np.log(4.0)]))
    got = hermitian_matrix_function(a, np.exp)
    assert np.allclose(got.entries, np.diag([1.0, 2.0, 4.0]), atol=1e-14)


def test_matrix_function_square_agrees_with_product():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(13, 13))
    a = 0.5 * (m + m.T)
    got = hermitian_matrix_function(_on_grid(a), lambda t: t**2).entries
    expect = a @ a
    rel = np.linalg.norm(got - expect) / np.linalg.norm(expect)
    assert rel < 1e-12


def test_matrix_function_rational_weight_on_momentum_diagonal():
    g = Grid(9, 2.0, 0.25)
    p = Operator(np.diag(g.points), g)
    got = hermitian_matrix_function(p, lambda t: 1.0 / (1.0 + 0.1 * t**2))
    expect = np.diag(1.0 / (1.0 + 0.1 * g.points**2))
    assert np.allclose(got.entries, expect, atol=1e-14)


def test_matrix_function_identity_returns_input():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(11, 11))
    a = 0.5 * (m + m.T)
    got = hermitian_matrix_function(_on_grid(a), lambda t: t).entries
    rel = np.linalg.norm(got - a) / np.linalg.norm(a)
    assert rel < 1e-12


def test_matrix_function_rejects_non_hermitian():
    a = _on_grid(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_matrix_function(a, np.exp)


def test_matrix_function_guards_fractional_power_of_indefinite_input():
    # √ of a negative eigenvalue is NaN.
    a = _on_grid(np.diag([1.0, -1.0, 2.0]))
    with pytest.raises(NumericGuardError, match="NaN"):
        hermitian_matrix_function(a, np.sqrt)


def test_matrix_function_refuses_a_nan_spectrum():
    a = Operator.diag([-1.0, 1.0, 2.0], Grid(3, 1.0))
    with pytest.raises(NumericGuardError, match="NaN"):
        hermitian_matrix_function(a, np.log)


def test_matrix_function_overflow_guard():
    a = _on_grid(np.diag([0.0, 20.0, 40.0]))
    with pytest.raises(NumericGuardError, match="dynamic range"):
        hermitian_matrix_function(a, np.exp)


def _uneven_and_even(d):
    """diag(d) with d's last value repeated, an Operator on len(d) + 1 points
    without parity, which takes the full eigh; and the exactly even Operator
    on 2·len(d)−1 points (d mirrored about the centre), which takes the
    parity blocks."""
    d = np.asarray(d, dtype=float)
    padded = np.append(d, d[-1])
    mirrored = np.concatenate([d[:0:-1], d])
    return [Operator.diag(v, Grid(len(v), 2.0)) for v in (padded, mirrored)]


def _diag_of(a):
    return a.diagonal().real


LOG_RANGE = np.log(1e14)


@pytest.mark.parametrize("a", _uneven_and_even([0.0, LOG_RANGE - 1e-6]))
def test_matrix_function_dynamic_range_just_inside_passes(a):
    got = hermitian_matrix_function(a, np.exp)
    assert _diag_of(got) == pytest.approx(np.exp(_diag_of(a)), rel=1e-14)


@pytest.mark.parametrize("a", _uneven_and_even([0.0, LOG_RANGE + 1e-6]))
def test_matrix_function_dynamic_range_just_outside_trips(a):
    with pytest.raises(NumericGuardError, match="dynamic range"):
        hermitian_matrix_function(a, np.exp)


@pytest.mark.parametrize("a", _uneven_and_even([1.0, 2.0]))
def test_matrix_function_fractional_power_of_positive_input_passes(a):
    got = hermitian_matrix_function(a, np.sqrt)
    assert _diag_of(got) == pytest.approx(np.sqrt(_diag_of(a)), rel=1e-14)


@pytest.mark.parametrize("a", _uneven_and_even([0.0, 1.0]))
def test_matrix_function_fractional_power_of_singular_input_trips(a):
    # √0 gives min|f| = 0, an unbounded dynamic range.
    with pytest.raises(NumericGuardError, match="dynamic range"):
        hermitian_matrix_function(a, np.sqrt)


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


def test_masked_norm_relative_is_scale_free():
    g = Grid(17, 3.0, 0.25)
    rng = np.random.default_rng(2)
    a = Operator(rng.normal(size=(17, 17)), g)
    r1 = masked_norm(a, relative_to=[a])
    r2 = masked_norm(op_scale(5.0, a), relative_to=[op_scale(5.0, a)])
    assert r1 == pytest.approx(r2)
    assert r1 == pytest.approx(1.0)


def test_masked_norm_relative_uses_product_of_norms():
    g = Grid(9, 2.0, 0.25)
    a = Operator(2.0 * np.eye(9), g)
    b = Operator(4.0 * np.eye(9), g)
    # interior norms: 2*sqrt(5), 4*sqrt(5); block norm of a: 2*sqrt(5)
    got = masked_norm(a, relative_to=[a, b])
    assert got == pytest.approx(1.0 / (4.0 * np.sqrt(5.0)))


@pytest.mark.parametrize(
    "n, offsets",
    [(17, [0]), (17, [-2, 1]), (17, range(-4, 5)), (9, range(-8, 9)), (9, [6]), (9, [])],
)
def test_interior_block_entries_list_the_interior_slots_band_by_band(n, offsets):
    # The per-band walk lists the slots in the order of the boolean mask over
    # the aligned bands (band by band, ascending rows), bit for bit.  The
    # first operator is real and the second imaginary.
    g = Grid(n, 2.0, 0.25)
    rng = np.random.default_rng(n + len(offsets))
    dense = [np.zeros((n, n), dtype=complex) for _ in range(2)]
    for d, phase in zip(dense, (1, 1j)):
        for s in offsets:
            d += phase * np.diag(rng.normal(size=n - abs(s)), s)
    ops = [Operator(d, g) for d in dense]
    got = interior_block_entries(ops)
    lo = min((o.lo for o in ops if len(o.bands)), default=0)
    hi = max((o.lo + len(o.bands) for o in ops if len(o.bands)), default=0)
    k, rows = np.indices((hi - lo, n))
    cols = rows + lo + k
    sl = g.interior()
    inside = (rows >= sl.start) & (rows < sl.stop) & (cols >= sl.start) & (cols < sl.stop)
    expect = np.stack([d[rows[inside], cols[inside]] for d in dense], axis=1)
    assert got.shape == expect.shape == (inside.sum(), 2)
    assert np.array_equal(got, expect)


def test_masked_norm_rejects_zero_normalizer():
    g = Grid(9, 2.0, 0.25)
    a = Operator(np.eye(9), g)
    z = Operator(np.zeros((9, 9)), g)
    with pytest.raises(ValueError, match="zero"):
        masked_norm(a, relative_to=[z])


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
