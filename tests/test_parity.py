"""Parity blocks: an operator that commutes exactly with the reflection
p → −p is solved as its even and odd blocks, with the full solver's levels,
kept states and matrix functions; anything else takes the full n x n solver."""
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qhm.verify
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
    spectrum,
)
from qhm.gridops import _parity_blocks
from qhm.verify import _block_eig_with_mass

PROPERTY = settings(max_examples=40, deadline=None)
ODD_N = st.integers(1, 2048).map(lambda m: 2 * m + 1)
SMALL_ODD_N = st.integers(2, 20).map(lambda m: 2 * m + 1)
SEEDS = st.integers(0, 2**32 - 1)


def _even(a: np.ndarray) -> bool:
    return np.array_equal(a, a[::-1, ::-1])


@contextmanager
def recording_solvers():
    """Records ``(solver, shape)`` of every ``np.linalg.eig``/``eigh`` and
    ``scipy.sparse.linalg.eigs`` call."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for module, name in (
            (np.linalg, "eig"), (np.linalg, "eigh"), (scipy.sparse.linalg, "eigs")
        ):
            solver = getattr(module, name)

            def recording(a, *args, _name=name, _solver=solver, **kwargs):
                calls.append((_name, a.shape))
                return _solver(a, *args, **kwargs)

            patch.setattr(module, name, recording)
        yield calls


def _random_even(n, seed, *, complex_entries, band=None):
    """An exactly even n x n matrix; with ``band``, confined to that many
    diagonals each side of a confining p² diagonal, so states localize."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    if complex_entries:
        a = a + 1j * rng.normal(size=(n, n))
    if band is not None:
        offsets = np.abs(np.arange(n)[:, np.newaxis] - np.arange(n)[np.newaxis, :])
        a = np.where(offsets <= band, a, 0.0)
        a = a + np.diag(np.linspace(-1.0, 1.0, n) ** 2 * n)
    return a + a[::-1, ::-1]  # exact: x + y == y + x


def _hermitian_even(n, seed, *, complex_entries=False):
    """An exactly Hermitian, exactly even matrix with spectrum in [1, 3]."""
    a = _random_even(n, seed, complex_entries=complex_entries)
    h = a + a.conj().T  # exact on both counts
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


def test_blocks_only_for_exactly_even_odd_sized_matrices():
    a = _random_even(9, 1, complex_entries=False)
    even, odd = _parity_blocks(a)
    assert even.shape == (5, 5) and odd.shape == (4, 4)
    bumped = a.copy()
    bumped[2, 7] = np.nextafter(bumped[2, 7], np.inf)
    assert _parity_blocks(bumped) is None
    assert _parity_blocks(np.ones((8, 8))) is None


@PROPERTY
@given(
    n=SMALL_ODD_N,
    seed=SEEDS,
    complex_entries=st.booleans(),
    band=st.sampled_from([None, 1, 2, 4]),
    mask_fraction=st.sampled_from([0.0, 0.1, 0.25]),
    mass_min=st.floats(0.3, 0.9),
)
def test_spectrum_blocks_match_the_full_eig(
    n, seed, complex_entries, band, mask_fraction, mass_min
):
    grid = Grid(n, 3.0, mask_fraction)
    a = _random_even(n, seed, complex_entries=complex_entries, band=band)
    op = Operator(a, grid)
    m = n // 2
    with recording_solvers() as seen:
        blocked = spectrum(op, n, mass_min=mass_min)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qhm.verify, "_parity_blocks", lambda arr: None)
            full = spectrum(op, n, mass_min=mass_min)
    assert seen == [("eig", (m + 1, m + 1)), ("eig", (m, m)), ("eig", (n, n))]
    assert len(blocked.values) == len(full.values)
    for z, w in zip(blocked.values, full.values):
        assert abs(z - w) <= 1e-10 * max(1.0, abs(w))


@PROPERTY
@given(
    n=SMALL_ODD_N, seed=SEEDS, complex_entries=st.booleans(), start=st.integers(0, 4)
)
def test_block_masses_are_the_lifted_vectors_masses(n, seed, complex_entries, start):
    a = _random_even(n, seed, complex_entries=complex_entries, band=2)
    start = min(start, n // 2 - 1)
    blocks = _parity_blocks(a)
    vals, mass = _block_eig_with_mass(blocks, start)
    assert len(vals) == n
    got = []
    for block in blocks:
        w, u = np.linalg.eig(block)
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
    n=SMALL_ODD_N,
    seed=SEEDS,
    complex_entries=st.booleans(),
    f=st.sampled_from([np.exp, np.sqrt, lambda t: t**2]),
)
def test_matrix_function_blocks_match_the_full_eigh(n, seed, complex_entries, f):
    h = _hermitian_even(n, seed, complex_entries=complex_entries)
    m = n // 2
    with recording_solvers() as seen:
        got = hermitian_matrix_function(Operator(h, Grid(n, 3.0)), f).entries
        expect = hermitian_matrix_function(h, f)  # a raw array takes the full eigh
    assert seen == [("eigh", (m + 1, m + 1)), ("eigh", (m, m)), ("eigh", (n, n))]
    assert _even(got)
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def test_a_one_ulp_asymmetry_takes_the_full_solvers():
    n = 129
    grid = Grid(n, 8.0)
    a = _random_even(n, 4, complex_entries=False, band=2)
    a[3, 4] = np.nextafter(a[3, 4], np.inf)
    h = _hermitian_even(n, 5)
    h[3, 4] = h[4, 3] = np.nextafter(h[3, 4], np.inf)
    with recording_solvers() as seen:
        spectrum(Operator(a, grid), 4)
        hermitian_matrix_function(Operator(h, grid), np.exp)
    assert seen == [("eig", (n, n)), ("eigh", (n, n))]


def test_a_raw_array_without_a_grid_takes_the_full_solvers():
    n = 129
    a = _random_even(n, 6, complex_entries=False, band=2)
    with recording_solvers() as seen:
        spectrum(a, 4)
        hermitian_matrix_function(_hermitian_even(n, 7), np.exp)
    assert seen == [("eig", (n, n)), ("eigh", (n, n))]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 150).map(lambda m: 2 * m + 1),
    p_max=st.floats(2.0, 10.0),
    mu=st.floats(0.02, 0.2),
    tau=st.floats(0.0, 0.1),
    theta=st.floats(0.05, 0.25),
)
def test_bf_hamiltonian_and_counterpart_are_exactly_even(n, p_max, mu, tau, theta):
    # With gamma_t = 0 every entry of X², {X, P} and ρ^{1/2}Hρ^{-1/2} sums at
    # most two nonzero products, so an entry and its mirror round alike.
    grid = Grid(n, p_max, 0.25)
    pp = PhysParams(mu=mu, tau=tau)
    x, p = build_deformed_pair(grid, pp)
    for op in (x, p):
        assert np.array_equal(op.entries, -op.entries[::-1, ::-1])
    ham = build_swanson_bf(x, p, pp)
    rho = build_metric(MetricSpec("ExpTheta", theta=theta), grid, pp)
    counterpart, _ = hermitian_counterpart(ham, rho)
    assert _even(ham.entries) and _even(rho.entries) and _even(counterpart.entries)


@pytest.mark.parametrize("n", [129, 257, 513, 1025])
@pytest.mark.parametrize("p_max", [8.0, 10.0])
def test_ladder_operators_are_exactly_even_on_the_job_grids(n, p_max):
    # The diagonal of a†a sums three nonzero products in an order that the
    # reflection reverses, so on rare grids one entry misses its mirror by an
    # ulp and the solvers take the full path; these grids are not among them.
    grid = Grid(n, p_max, 0.25)
    pp = PhysParams()
    ladder = build_ladder(*build_deformed_pair(grid, pp), pp)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        jr = build_swanson_jr(ladder.a, ladder.a_dag, pp)
    assert _even(jr.entries)
    assert _even(default_number_operator(ladder.a, ladder.a_dag).entries)
