"""Banded operator storage: the band algebra against dense numpy references,
and the band structure of the model operators."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhm.gridops
from qhm import (
    Grid,
    MetricSpec,
    Operator,
    PhysParams,
    action_residual,
    adjoint,
    anticommutator,
    build_deformed_pair,
    build_ladder,
    build_metric,
    build_swanson_bf,
    build_swanson_jr,
    commutator,
    default_number_operator,
    derivative_matrix,
    hermitian_counterpart,
    hermitian_matrix_function,
    interior_action,
    masked_norm,
    op_product,
    op_scale,
    op_sum,
    smooth_probes,
)
from qhm.gridops import _quarter_turns, _trim
from qhm.jobs import parse_config, run_job
from qhm.verify import _sqrt_pair

REL = 1e-13
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def banded(draw, n):
    """An n x n matrix, exactly real or exactly imaginary (every operator
    is one or the other): a random band, one diagonal, the full band, the
    zero matrix, or a band plus one-sided boundary rows (as in the
    derivative)."""
    kind = draw(st.sampled_from(["band", "one band", "full", "zero", "boundary"]))
    phase = draw(st.sampled_from(["real", "imaginary"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = np.zeros((n, n), dtype=complex)
    if phase == "real":
        dense.real = rng.normal(size=(n, n))
    else:
        dense.imag = rng.normal(size=(n, n))
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    if kind == "full":
        return dense
    offsets = np.arange(n)[np.newaxis, :] - np.arange(n)[:, np.newaxis]
    lo = draw(st.integers(-(n - 1), n - 1))
    hi = lo if kind == "one band" else draw(st.integers(lo, n - 1))
    keep = (offsets >= lo) & (offsets <= hi)
    if kind == "boundary":
        width = draw(st.integers(1, 3))
        keep[0, : width + 1] = True
        keep[-1, -(width + 1) :] = True
    return np.where(keep, dense, 0.0)


@st.composite
def operands(draw, count=2, n_max=41):
    n = draw(st.sampled_from(range(5, n_max, 2)))
    grid = Grid(n, 3.0, 0.25)
    return (grid, *(draw(banded(n)) for _ in range(count)))


def _paired_product(a: Operator, b: Operator) -> np.ndarray:
    """Reference: the dense a·b with every term a ``complex128`` product of
    the complex bands, summed over A's bands in mirror-paired
    order: the terms of bands q and na − 1 − q first, then these pair sums
    for q = 0, 1, … in turn, then the term of the middle band."""
    n, na = a.dim, len(a.bands)
    dense_a, dense_b = a.entries, b.entries
    rows = np.arange(n)

    def terms(q):  # terms[i, j] = A[i, i + s] * B[i + s, j], s = lo + q
        cols = rows + a.lo + q
        valid = (cols >= 0) & (cols < n)
        out = np.zeros((n, n), dtype=complex)
        out[valid] = dense_a[rows[valid], cols[valid], np.newaxis] * dense_b[cols[valid]]
        return out

    acc = np.zeros((n, n), dtype=complex)
    for q in range(na // 2):
        acc += terms(q) + terms(na - 1 - q)
    if na % 2:
        acc += terms(na // 2)
    return acc


def _close(got, expect, scale):
    assert np.abs(got - expect).max() <= REL * max(scale, 1e-300)


def _size(a):
    return np.linalg.norm(a)


def _addable(oa, ob):
    """Whether ``op_sum`` takes the pair: one phase, or a zero operand."""
    return oa.turns == ob.turns or not (len(oa.coefficients) and len(ob.coefficients))


@PROPERTY
@given(operands(count=1))
def test_dense_round_trip_is_exact(case):
    grid, a = case
    op = Operator(a, grid)
    assert np.array_equal(op.entries, a)
    if np.any(a):
        assert np.any(op.bands[0]) and np.any(op.bands[-1])
    else:
        assert op.bands.shape == (0, grid.n_points)


@PROPERTY
@given(operands())
def test_product_matches_dense(case):
    grid, a, b = case
    oa, ob = Operator(a, grid), Operator(b, grid)
    got = op_product(oa, ob).entries
    _close(got, a @ b, _size(a) * _size(b))
    # The float64 coefficient product gives the all-complex mirror-paired
    # sums bit for bit.
    assert np.array_equal(got, _paired_product(oa, ob))


@PROPERTY
@given(operands(), st.sampled_from([1, -1]), st.sampled_from([1, -1]))
def test_product_of_even_or_odd_operands_is_exactly_even_or_odd(case, sa, sb):
    # a + sa·JaJ (J the reversal) is exactly even (sa = 1) or odd (sa = −1):
    # an entry and its mirror sum the same two values.
    grid, a, b = case
    a, b = a + sa * a[::-1, ::-1], b + sb * b[::-1, ::-1]
    assert np.array_equal(a[::-1, ::-1], sa * a)
    got = op_product(Operator(a, grid), Operator(b, grid)).entries
    assert np.array_equal(got[::-1, ::-1], sa * sb * got)


@PROPERTY
@given(operands())
def test_sum_scale_adjoint_are_exact(case):
    grid, a, b = case
    oa, ob = Operator(a, grid), Operator(b, grid)
    if _addable(oa, ob):
        assert np.array_equal(op_sum(oa, ob).entries, a + b)
    assert np.array_equal(op_sum(oa, oa).entries, a + a)
    for c in (0.3, -1.7j):
        assert np.array_equal(op_scale(c, oa).entries, c * a)
    assert np.array_equal(adjoint(oa).entries, a.conj().T)


@PROPERTY
@given(operands())
def test_commutators_match_dense(case):
    grid, a, b = case
    oa, ob = Operator(a, grid), Operator(b, grid)
    scale = 2.0 * _size(a) * _size(b)
    _close(commutator(oa, ob).entries, a @ b - b @ a, scale)
    _close(anticommutator(oa, ob).entries, a @ b + b @ a, scale)


@PROPERTY
@given(operands())
def test_masked_norm_matches_dense_block(case):
    grid, a, b = case
    sl = grid.interior()
    na, nb = np.linalg.norm(a[sl, sl]), np.linalg.norm(b[sl, sl])
    oa, ob = Operator(a, grid), Operator(b, grid)
    assert masked_norm(oa) == pytest.approx(na, rel=REL, abs=0.0)
    if nb == 0.0:
        with pytest.raises(ValueError, match="zero"):
            masked_norm(oa, relative_to=[ob])
    else:
        got = masked_norm(oa, relative_to=[ob])
        assert got == pytest.approx(na / nb, rel=REL, abs=0.0)


@PROPERTY
@given(operands(), st.integers(0, 2**32 - 1))
def test_action_residual_matches_dense(case, seed):
    grid, a, b = case
    probes = np.random.default_rng(seed).normal(size=(grid.n_points, 3))
    sl = grid.interior()
    la, ra = (a @ probes)[sl], (b @ probes)[sl]
    denom = max(np.linalg.norm(la), np.linalg.norm(ra))
    expect = np.linalg.norm(la - ra) / denom if denom else 0.0
    got = action_residual(Operator(a, grid), Operator(b, grid), probes)
    assert got == pytest.approx(expect, rel=REL, abs=1e-15)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(-3, 3))
def test_trim_drops_exactly_the_zero_outer_bands(seed, lo):
    rng = np.random.default_rng(seed)
    shape = (rng.integers(0, 6), rng.integers(1, 6))
    bands = rng.normal(size=shape) * (rng.random((shape[0], 1)) < 0.6)
    kept = np.flatnonzero(bands.any(axis=1))
    got_lo, got = _trim(lo, bands)
    if kept.size == 0:
        assert (got_lo, got.shape) == (0, (0, shape[1]))
    else:
        assert got_lo == lo + kept[0]
        assert np.array_equal(got, bands[kept[0] : kept[-1] + 1])
    if kept.size and kept[0] == 0 and kept[-1] == shape[0] - 1:
        assert got is bands  # nothing to trim: the same array comes back


def test_from_bands_rejects_slots_outside_the_matrix():
    grid = Grid(5, 1.0, 0.0)
    with pytest.raises(ValueError, match="outside"):
        Operator.from_bands(1, np.ones((1, 5)), grid)


def test_model_operators_stay_banded_at_1025_points():
    # No n x n array on the adjudication path: every operator it builds is
    # stored as a handful of diagonals.
    grid = Grid(1025, 10.0, 0.25)
    pp = PhysParams(mu=0.1, tau=0.01, gamma_t=0.05, lam=-0.05, delta_t=0.05)
    x, p = build_deformed_pair(grid, pp)
    ladder = build_ladder(x, p, pp)
    assert len(derivative_matrix(grid).bands) <= 5
    assert len(build_swanson_bf(x, p, pp).bands) <= 9
    assert len(build_swanson_jr(ladder.a, ladder.a_dag, pp).bands) <= 9
    assert len(build_metric(MetricSpec("ExpTheta", theta=0.2), grid, pp).bands) == 1
    assert len(p.bands) == 1


@pytest.mark.parametrize("n", [129, 1025])
def test_model_operators_are_exactly_real_or_imaginary(n):
    # Every product between these takes op_product's real path, and their
    # probe actions are real.
    grid = Grid(n, 10.0, 0.25)
    pp = PhysParams(mu=0.1, tau=0.01, gamma_t=0.05, lam=-0.05, delta_t=0.05)
    x, p = build_deformed_pair(grid, pp)
    ladder = build_ladder(x, p, pp)
    h_bf = build_swanson_bf(x, p, pp)
    rho = build_metric(MetricSpec("ExpTheta", theta=0.2), grid, pp)
    half, half_inv = _sqrt_pair(rho)
    counterpart, _ = hermitian_counterpart(h_bf, rho)
    imaginary = {"X": x}
    real = {
        "P": p,
        "D": derivative_matrix(grid),
        "deformation": Operator.diag(1.0 + pp.tau * grid.points**2, grid),
        "a": ladder.a,
        "a_dag": ladder.a_dag,
        "N": default_number_operator(ladder.a, ladder.a_dag),
        "H_BF": h_bf,
        "H_JR": build_swanson_jr(ladder.a, ladder.a_dag, pp),
        "rho": rho,
        "rho_half": half,
        "rho_half_inv": half_inv,
        "counterpart": counterpart,
    }
    for name, op in imaginary.items():
        assert _quarter_turns(op.bands) == 1, name
    probes = smooth_probes(grid)
    for name, op in real.items():
        assert _quarter_turns(op.bands) == 0, name
        assert interior_action(op, probes).dtype == np.float64, name
    assert interior_action(x, probes).dtype == np.complex128
    assert interior_action(p, probes + 0j).dtype == np.complex128


def _assert_phase_kept(op):
    # The stored phase is the one the complex bands show.
    assert op.turns == _quarter_turns(op.bands)
    assert op.coefficients.dtype == np.float64
    assert op.coefficients.flags.c_contiguous
    expect = op.coefficients * 1j if op.turns else op.coefficients
    assert np.array_equal(op.bands, expect)


@settings(max_examples=100, deadline=None)
@given(
    operands(n_max=67),
    st.sampled_from([0.7, -2.5, 1.3j, -0.4j, 0.0]),
)
def test_results_keep_the_phase_and_the_complex_values(case, c):
    # Every result's stored phase is the one its bands show, and its values
    # are the all-complex ones: the mirror-paired product sums, and numpy's
    # complex sums, scalings and conjugate transposes (signs of exact zeros
    # aside, which array_equal does not see).
    grid, a, b = case
    oa, ob = Operator(a, grid), Operator(b, grid)
    product = op_product(oa, ob)
    reverse = op_product(ob, oa)
    results = {
        "product": (product, _paired_product(oa, ob)),
        "sum": (op_sum(oa, oa), a + a),
        "scale": (op_scale(c, oa), c * a),
        "adjoint": (adjoint(oa), a.conj().T),
        "commutator": (commutator(oa, ob), _paired_product(oa, ob) - _paired_product(ob, oa)),
    }
    if _addable(oa, ob):
        results["sum of both"] = (op_sum(oa, ob), a + b)
    for name, (op, expect) in results.items():
        _assert_phase_kept(op)
        assert np.array_equal(op.entries, expect), name
    assert product.turns == (oa.turns + ob.turns) % 2 or not len(product.coefficients)
    _assert_phase_kept(reverse)


@settings(max_examples=60, deadline=None)
@given(operands(n_max=67), st.booleans())
def test_a_one_band_operand_gives_the_paired_kernel_values(case, left):
    # One band on either side: each entry is one term, the paired kernel's.
    grid, a, b = case
    one = np.diag(np.diag(a, 1), 1) if left else np.diag(np.diag(b, -2), -2)
    oa, ob = (Operator(one, grid), Operator(b, grid)) if left else (
        Operator(a, grid), Operator(one, grid))
    got = op_product(oa, ob)
    _assert_phase_kept(got)
    assert np.array_equal(got.entries, _paired_product(oa, ob))


def test_stored_forms_are_read_only():
    # The coefficients are read-only; the complex bands are a new array on
    # every read, so writing one leaves the operator as it was.
    grid = Grid(9, 2.0, 0.25)
    real = Operator.diag(np.arange(1.0, 10.0), grid)
    decided = Operator(np.eye(9) * 1j, grid)  # complex data, imaginary
    for op in (real, decided, derivative_matrix(grid)):
        with pytest.raises(ValueError, match="read-only"):
            op.coefficients[0, 0] = 7.0
        bands = op.bands
        bands[0, 0] = 7.0
        assert op.bands[0, 0] != 7.0
    assert (real.turns, decided.turns) == (0, 1)


def test_operands_that_are_neither_real_nor_imaginary_are_refused():
    grid = Grid(9, 2.0, 0.25)
    mixed = np.eye(9) * (1 + 1j)
    for build in (
        lambda: Operator(mixed, grid),
        lambda: Operator.from_bands(0, np.diag(mixed)[np.newaxis], grid),
        lambda: Operator.diag(np.diag(mixed), grid),
        lambda: _quarter_turns(mixed),
    ):
        with pytest.raises(ValueError, match="exactly real or exactly imaginary"):
            build()
    real = Operator.diag(np.arange(1.0, 10.0), grid)
    imaginary = Operator.diag(1j * np.arange(1.0, 10.0), grid)
    with pytest.raises(ValueError, match="real and an exactly imaginary"):
        op_sum(real, imaginary)
    # A zero operand shares every phase.
    zero = Operator.diag(np.zeros(9), grid)
    assert op_sum(imaginary, zero).turns == op_sum(zero, imaginary).turns == 1
    with pytest.raises(ValueError, match="neither real nor imaginary"):
        op_scale(0.3 - 1.7j, real)
    hermitian = Operator(1j * (np.eye(9, k=1) - np.eye(9, k=-1)), grid)
    with pytest.raises(ValueError, match="not an imaginary one"):
        hermitian_matrix_function(hermitian, np.exp)


def test_a_verify_metric_job_tests_each_complex_operator_once(monkeypatch):
    # The phase of an operator built from complex data is tested once, when
    # it is built; every other operator of a 1025-point verify-metric job has
    # its phase from its constructor.  The BF model at γ_t ≠ 0 builds one
    # such operator, the shift diag(iħγ_t p).
    tests, complex_built = [], []
    test = qhm.gridops._quarter_turns
    trimmed = Operator._trimmed.__func__

    def counted_test(bands):
        tests.append(bands.shape)
        return test(bands)

    def counted_trimmed(cls, lo, coef, grid, turns):
        if np.iscomplexobj(coef) and len(coef):
            complex_built.append(coef.shape)
        return trimmed(cls, lo, coef, grid, turns)

    monkeypatch.setattr(qhm.gridops, "_quarter_turns", counted_test)
    monkeypatch.setattr(Operator, "_trimmed", classmethod(counted_trimmed))
    cfg = parse_config(json.dumps({
        "job": "verify-metric",
        "grid": {"n_points": 1025, "p_max": 10.0},
        "params": {"mu": 0.1, "tau": 0.01, "gamma_t": 0.05},
        "metric": "ExpTheta(0.2)",
    }))
    doc = run_job(cfg)
    assert doc["results"]["residuals"][0]["n_points"] == 1025
    assert len(complex_built) == 1
    assert len(tests) <= len(complex_built)
