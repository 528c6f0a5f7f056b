"""Parity blocks: an exactly real operator that commutes exactly with the
reflection p → −p is solved as its even and odd blocks, folded from its
bands, with the full solver's levels, kept states and matrix function
actions; any other operator is refused.  The references are the explicit
change of basis and the full ``np.linalg`` solves of ``Operator.entries``."""
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhm import (
    Grid,
    MetricSpec,
    Operator,
    PhysParams,
    build_deformed_pair,
    build_ladder,
    build_metric,
    build_swanson_bf,
    build_swanson_jr,
    default_number_operator,
    hermitian_counterpart,
    hermitian_matrix_function,
    op_scale,
    spectrum,
)
from qhm.gridops import _band_action, _dense_block, _parity_fold
from qhm import verify
from qhm.verify import _block_eig_with_mass, _lowest_levels, _mass

PROPERTY = settings(max_examples=40, deadline=None)
ODD_N = st.integers(1, 2048).map(lambda m: 2 * m + 1)
SMALL_ODD_N = st.integers(2, 20).map(lambda m: 2 * m + 1)
SEEDS = st.integers(0, 2**32 - 1)


def _even(a: np.ndarray) -> bool:
    return np.array_equal(a, a[::-1, ::-1])


@contextmanager
def recording_solvers():
    """Records ``(solver, shape)`` of every ``np.linalg.eig``/``eigh`` call
    and ``("eigs", shape, k)`` of every ``scipy.sparse.linalg.eigs`` call,
    with the number of pairs it asks for."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for module, name in (
            (np.linalg, "eig"), (np.linalg, "eigh"), (scipy.sparse.linalg, "eigs")
        ):
            solver = getattr(module, name)

            def recording(a, *args, _name=name, _solver=solver, **kwargs):
                pairs = (kwargs["k"],) if _name == "eigs" else ()
                calls.append((_name, a.shape, *pairs))
                return _solver(a, *args, **kwargs)

            patch.setattr(module, name, recording)
        yield calls


def _random_even(n, seed, *, band=None):
    """An exactly even real n x n matrix; with ``band``,
    confined to that many diagonals each side of a confining p² diagonal,
    so states localize."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    if band is not None:
        offsets = np.abs(np.arange(n)[:, np.newaxis] - np.arange(n)[np.newaxis, :])
        a = np.where(offsets <= band, a, 0.0)
        a = a + np.diag(np.linspace(-1.0, 1.0, n) ** 2 * n)
    return a + a[::-1, ::-1]  # exact: x + y == y + x


def _hermitian_even(n, seed, band=None):
    """An exactly symmetric, exactly even real matrix with spectrum in [1, 3]
    (banded as in ``_random_even``)."""
    a = _random_even(n, seed, band=band)
    h = a + a.T  # exact on both counts
    h = h / np.abs(np.linalg.eigvalsh(h)).max()
    return h + 2.0 * np.eye(n)


def _lift(u: np.ndarray, n: int) -> np.ndarray:
    """Full eigenvectors from block eigenvectors, in the blocks' orthonormal
    bases (e_j ± e_{n-1-j})/√2 and e_m."""
    m = n // 2
    r = np.sqrt(0.5)
    if len(u) == m + 1:
        return np.concatenate([r * u[:m], u[m:], r * u[m - 1 :: -1]])
    return np.concatenate([r * u, np.zeros((1, u.shape[1])), -r * u[::-1]])


def _basis_blocks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The even block, the odd block and the even-odd cross block of QᵀAQ,
    for the orthonormal basis Q of ``_lift``."""
    m = len(a) // 2
    q_even, q_odd = _lift(np.eye(m + 1), len(a)), _lift(np.eye(m), len(a))
    return q_even.T @ a @ q_even, q_odd.T @ a @ q_odd, q_even.T @ a @ q_odd


def _folded(a: np.ndarray) -> list[np.ndarray]:
    """The dense blocks of ``_parity_fold`` on the matrix ``a``."""
    return [_dense_block(*block) for block in _parity_fold(Operator(a, Grid(len(a), 3.0)))]


@settings(max_examples=200, deadline=None)
@given(n=ODD_N, p_max=st.floats(1e-3, 1e3))
def test_grid_points_are_exactly_antisymmetric(n, p_max):
    p = Grid(n, p_max, 0.25).points
    m = n // 2
    assert len(p) == n
    assert p[m] == 0.0
    assert np.array_equal(p, -p[::-1])
    assert p[0] == -p_max and p[-1] == p_max
    assert np.all(np.diff(p) > 0)
    lin = np.linspace(-p_max, p_max, n)
    assert np.abs(p - lin).max() <= 2 * np.spacing(p_max)


def test_blocks_only_for_exactly_even_real_odd_sized_matrices():
    a = _random_even(9, 1)
    even, odd = _folded(a)
    assert even.shape == (5, 5) and odd.shape == (4, 4)
    bumped = a.copy()
    bumped[2, 7] = np.nextafter(bumped[2, 7], np.inf)
    with pytest.raises(ValueError, match="exactly even"):
        _folded(bumped)
    with pytest.raises(ValueError, match="not an imaginary one"):
        _parity_fold(op_scale(1j, Operator(a, Grid(9, 3.0))))
    with pytest.raises(ValueError, match="odd"):  # no grid, so no operator
        Grid(8, 3.0)


@PROPERTY
@given(n=SMALL_ODD_N, seed=SEEDS, band=st.sampled_from([None, 0, 1, 2, 4]))
def test_folded_blocks_are_the_matrix_in_the_parity_basis(n, seed, band):
    a = _random_even(n, seed, band=band)
    even, odd = _folded(a)
    assert even.dtype == float == odd.dtype
    ref_even, ref_odd, cross = _basis_blocks(a)
    scale = 1e-14 * np.linalg.norm(a)
    assert np.abs(even - ref_even).max() <= scale
    assert np.abs(odd - ref_odd).max() <= scale
    assert np.abs(cross).max() <= scale


def _with_boundary_rows(n, seed, band, reach):
    """A random exactly even matrix confined to ``band`` diagonals each
    side, whose first two rows reach ``reach`` columns further right, as
    the one-sided stencils of the derivative's boundary rows do, and whose
    last two rows (their mirrors) reach as far left."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    rows, cols = np.indices((n, n))
    offsets = cols - rows
    one_sided = (rows < 2) & (offsets >= 0) & (offsets <= band + reach)
    a = np.where((np.abs(offsets) <= band) | one_sided, a, 0.0)
    return a + a[::-1, ::-1]


@PROPERTY
@given(n=SMALL_ODD_N, seed=SEEDS, band=st.integers(0, 4), reach=st.integers(0, 3))
def test_band_blocks_hold_the_parity_basis_blocks(n, seed, band, reach):
    # Each block is float64 bands in Operator's layout, bands[k, i] =
    # B[i, i + lo + k], from its lowest offset to its highest with the main
    # diagonal between them; its slots outside the block are zero and its
    # bands hold every nonzero.
    a = _with_boundary_rows(n, seed, band, reach)
    blocks = _parity_fold(Operator(a, Grid(n, 3.0)))
    scale = 1e-14 * np.linalg.norm(a)
    for (lo, bands), ref in zip(blocks, _basis_blocks(a)[:2]):
        size = len(ref)
        assert bands.dtype == float
        assert bands.shape[1] == size
        assert lo <= 0 <= lo + len(bands) - 1
        k, i = np.indices(bands.shape)
        j = i + lo + k
        inside = (j >= 0) & (j < size)
        assert not bands[~inside].any()
        offsets = np.subtract.outer(np.arange(size), np.arange(size))
        in_band = (-offsets >= lo) & (-offsets < lo + len(bands))
        assert np.abs(ref[~in_band]).max(initial=0.0) <= scale
        got = bands[inside]
        assert np.abs(got - ref[i[inside], j[inside]]).max() <= scale


@PROPERTY
@given(
    n=SMALL_ODD_N,
    seed=SEEDS,
    band=st.integers(0, 4),
    reach=st.integers(0, 3),
    columns=st.sampled_from([1, 3]),
)
def test_band_product_is_the_dense_product(n, seed, band, reach, columns):
    # The residual guard's B·u on the bands of each parity block, over all
    # of its rows.
    a = _with_boundary_rows(n, seed, band, reach)
    blocks = _parity_fold(Operator(a, Grid(n, 3.0)))
    rng = np.random.default_rng(seed + 1)
    for lo, bands in blocks:
        dense = _dense_block(lo, bands)
        u = rng.normal(size=(len(dense), columns))
        got = _band_action(lo, bands, u, slice(0, len(dense)))
        assert got.shape == u.shape
        bound = 1e-13 * np.abs(dense).sum(axis=0).max() * np.abs(u).max()
        assert np.abs(got - dense @ u).max() <= bound


@settings(max_examples=200, deadline=None)
@given(
    n=SMALL_ODD_N,
    seed=SEEDS,
    imaginary=st.booleans(),
    lo=st.integers(-4, 4),
    width=st.integers(0, 9),
    kind=st.sampled_from(["banded", "even", "bumped", "zero", "diagonal"]),
)
def test_fold_takes_a_matrix_exactly_when_it_is_even_and_real(
    n, seed, imaginary, lo, width, kind
):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    offsets = np.arange(n)[np.newaxis, :] - np.arange(n)[:, np.newaxis]
    if kind == "zero":
        a = np.zeros((n, n))
    elif kind == "diagonal":
        a = np.diag(rng.normal(size=n))
        if rng.integers(2):
            a = a + a[::-1, ::-1]
    else:
        a = np.where((offsets >= lo) & (offsets < lo + width), a, 0.0)
        if kind != "banded":
            a = a + a[::-1, ::-1]
        if kind == "bumped":
            i, j = rng.integers(n, size=2)
            a[i, j] = np.nextafter(a[i, j], np.inf)
    op = Operator(a, Grid(n, 3.0))
    if imaginary:
        op = op_scale(1j, op)
    if op.turns:  # the zero matrix counts as real
        with pytest.raises(ValueError, match="not an imaginary one"):
            _parity_fold(op)
    elif not _even(op.entries):
        with pytest.raises(ValueError, match="exactly even"):
            _parity_fold(op)
    else:
        blocks = _parity_fold(op)
        sizes = [(n // 2 + 1,) * 2, (n // 2,) * 2]
        assert [_dense_block(*block).shape for block in blocks] == sizes


@PROPERTY
@given(
    n=SMALL_ODD_N,
    seed=SEEDS,
    band=st.sampled_from([None, 1, 2, 4]),
    mask_fraction=st.sampled_from([0.0, 0.1, 0.25]),
    mass_min=st.floats(0.3, 0.9),
)
def test_spectrum_blocks_match_the_full_eig(n, seed, band, mask_fraction, mass_min):
    grid = Grid(n, 3.0, mask_fraction)
    a = _random_even(n, seed, band=band)
    op = Operator(a, grid)
    m = n // 2
    entries = op.entries.real
    # The level filter's mass threshold, moved over a range of values.
    with mock.patch.object(verify, "MASS_MIN", mass_min):
        with recording_solvers() as seen:
            blocked = spectrum(op, n)
            vals, vecs = np.linalg.eig(entries)
        full = _lowest_levels(vals, _mass(vecs, grid.interior()), n)
    assert seen == [("eig", (m + 1, m + 1)), ("eig", (m, m)), ("eig", (n, n))]
    assert len(blocked.values) == len(full)
    for z, w in zip(blocked.values, full):
        assert abs(z - w) <= 1e-10 * max(1.0, abs(w))


@PROPERTY
@given(n=SMALL_ODD_N, seed=SEEDS, start=st.integers(0, 4))
def test_block_masses_are_the_lifted_vectors_masses(n, seed, start):
    a = _random_even(n, seed, band=2)
    start = min(start, n // 2 - 1)
    blocks = _parity_fold(Operator(a, Grid(n, 3.0)))
    vals, mass = _block_eig_with_mass(blocks, slice(start, n - start))
    assert len(vals) == n
    got = []
    for block in blocks:
        w, u = np.linalg.eig(_dense_block(*block))
        v = _lift(u, n)
        assert np.linalg.norm(a @ v - v * w) <= 1e-10 * np.linalg.norm(a)
        sq = np.abs(v) ** 2
        got.append(sq[start : n - start].sum(axis=0) / sq.sum(axis=0))
    np.testing.assert_allclose(mass, np.concatenate(got), rtol=1e-12, atol=0)
    reference = np.linalg.eigvals(a)
    for z in vals:
        assert np.abs(reference - z).min() <= 1e-10 * max(1.0, abs(z))


@PROPERTY
@given(
    n=st.integers(2, 32).map(lambda m: 2 * m + 1),
    seed=SEEDS,
    band=st.sampled_from([None, 0, 1, 2, 4]),
    columns=st.integers(1, 3),
    f=st.sampled_from([np.exp, np.sqrt, lambda t: t**2]),
)
def test_matrix_function_action_matches_the_full_eigh(n, seed, band, columns, f):
    # f(A)·V from the parity blocks against f(A) from numpy's eigh of the
    # dense matrix, times V.
    h = _hermitian_even(n, seed, band=band)
    m = n // 2
    op = Operator(h, Grid(n, 3.0))
    v = np.random.default_rng(seed + 1).normal(size=(n, columns))
    with recording_solvers() as seen:
        got = hermitian_matrix_function(op, f, v)
        w, u = np.linalg.eigh(op.entries.real)
    expect = ((u * f(w)) @ u.T) @ v
    assert seen == [("eigh", (m + 1, m + 1)), ("eigh", (m, m)), ("eigh", (n, n))]
    assert got.shape == v.shape and got.dtype == float
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def test_a_one_ulp_asymmetry_or_an_imaginary_operator_is_refused_before_any_solver():
    n = 129
    grid = Grid(n, 8.0)
    a = _random_even(n, 4, band=2)
    a[3, 4] = np.nextafter(a[3, 4], np.inf)
    h = _hermitian_even(n, 5)
    h[3, 4] = h[4, 3] = np.nextafter(h[3, 4], np.inf)
    with recording_solvers() as seen:
        with pytest.raises(ValueError, match="exactly even"):
            spectrum(Operator(a, grid), 4)
        with pytest.raises(ValueError, match="exactly even"):
            hermitian_matrix_function(Operator(h, grid), np.exp, np.eye(n))
        with pytest.raises(ValueError, match="not an imaginary one"):
            spectrum(op_scale(1j, Operator(_random_even(n, 4, band=2), grid)), 4)
    assert seen == []


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 150).map(lambda m: 2 * m + 1),
    p_max=st.floats(2.0, 10.0),
    mu=st.floats(0.02, 0.2),
    tau=st.floats(0.0, 0.1),
    theta=st.floats(0.05, 0.25),
)
def test_bf_hamiltonian_and_counterpart_are_exactly_even(n, p_max, mu, tau, theta):
    # op_product sums the terms of an entry and of its mirror in the same
    # mirror-paired order, so an entry and its mirror round alike.
    grid = Grid(n, p_max, 0.25)
    pp = PhysParams(mu=mu, tau=tau)
    x, p = build_deformed_pair(grid, pp)
    for op in (x, p):
        assert np.array_equal(op.entries, -op.entries[::-1, ::-1])
    ham = build_swanson_bf(x, p, pp)
    g = build_metric(MetricSpec("ExpTheta", theta=theta), grid, pp)
    counterpart, _ = hermitian_counterpart(ham, g)
    assert np.array_equal(g, g[::-1])
    assert _even(ham.entries) and _even(counterpart.entries)


@pytest.mark.parametrize("n", [129, 257, 513, 1025])
@pytest.mark.parametrize("p_max", [8.0, 10.0])
def test_ladder_operators_are_exactly_even_on_the_job_grids(n, p_max):
    # The diagonal of a†a sums three nonzero products; the mirror-paired
    # order of op_product keeps each entry equal to its mirror.
    grid = Grid(n, p_max, 0.25)
    pp = PhysParams()
    ladder = build_ladder(*build_deformed_pair(grid, pp), pp)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        jr = build_swanson_jr(ladder.a, ladder.a_dag, pp)
    assert _even(jr.entries)
    assert _even(default_number_operator(ladder.a, ladder.a_dag).entries)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 512).map(lambda m: 2 * m + 1),
    p_max=st.floats(1.0, 20.0),
    tau=st.floats(-7.0, -1.0).map(lambda e: 10.0**e),
)
# Grids on which sums in band order left a†a (and so JR H and N) one ulp
# off exact parity: 20 of 1500 random grids of this strategy did.
@example(n=25, p_max=5.0, tau=1e-3)
@example(n=147, p_max=8.0, tau=0.1)
def test_model_operators_are_exactly_even_on_random_grids(n, p_max, tau):
    grid = Grid(n, p_max, 0.25)
    pp = PhysParams(mu=0.1, tau=tau, lam=-0.05, delta_t=0.05)
    x, p = build_deformed_pair(grid, pp)
    ladder = build_ladder(x, p, pp)
    ops = {
        "BF": build_swanson_bf(x, p, pp),
        "JR": build_swanson_jr(ladder.a, ladder.a_dag, pp),
        "N": default_number_operator(ladder.a, ladder.a_dag),
    }
    for op in ops.values():
        _parity_fold(op)  # refuses an operator that is not exactly even
