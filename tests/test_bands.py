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
    build_canonical_pair,
    build_deformed_pair,
    build_ladder,
    build_metric,
    build_swanson_bf,
    build_swanson_jr,
    canonical_commutator_residual,
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
from qhm.gridops import _band_action, _band_transpose, _trim
from qhm.jobs import parse_config, run_job

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


def _operator(dense: np.ndarray, grid: Grid) -> Operator:
    """The operator of an exactly real or exactly imaginary dense matrix:
    ``op_scale(1j, ·)`` of its imaginary part when that is nonzero."""
    if dense.imag.any():
        return op_scale(1j, Operator(dense.imag, grid))
    return Operator(dense.real, grid)


def _paired_product(a: Operator, b: Operator) -> np.ndarray:
    """Reference: the dense a·b with every term a ``complex128`` product of
    the complex bands, summed over A's bands in mirror-paired
    order: the terms of bands q and na − 1 − q first, then these pair sums
    for q = 0, 1, … in turn, then the term of the middle band."""
    n, na = a.dim, len(a.coefficients)
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
    op = _operator(a, grid)
    assert np.array_equal(op.entries, a)
    if np.any(a):
        assert np.any(op.coefficients[0]) and np.any(op.coefficients[-1])
    else:
        assert op.coefficients.shape == (0, grid.n_points)


@PROPERTY
@given(operands())
def test_product_matches_dense(case):
    grid, a, b = case
    oa, ob = _operator(a, grid), _operator(b, grid)
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
    got = op_product(_operator(a, grid), _operator(b, grid)).entries
    assert np.array_equal(got[::-1, ::-1], sa * sb * got)


@PROPERTY
@given(operands())
def test_sum_scale_adjoint_are_exact(case):
    grid, a, b = case
    oa, ob = _operator(a, grid), _operator(b, grid)
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
    oa, ob = _operator(a, grid), _operator(b, grid)
    scale = 2.0 * _size(a) * _size(b)
    _close(commutator(oa, ob).entries, a @ b - b @ a, scale)
    _close(anticommutator(oa, ob).entries, a @ b + b @ a, scale)


@PROPERTY
@given(operands())
def test_masked_norm_matches_dense_block(case):
    grid, a, b = case
    sl = grid.interior()
    for dense in (a, b):
        expect = np.linalg.norm(dense[sl, sl])
        assert masked_norm(_operator(dense, grid)) == pytest.approx(expect, rel=REL, abs=0.0)


@PROPERTY
@given(operands(), st.integers(0, 2**32 - 1))
def test_action_residual_matches_dense(case, seed):
    grid, a, b = case
    probes = np.random.default_rng(seed).normal(size=(grid.n_points, 3))
    sl = grid.interior()
    la, ra = (a @ probes)[sl], (b @ probes)[sl]
    denom = max(np.linalg.norm(la), np.linalg.norm(ra))
    expect = np.linalg.norm(la - ra) / denom if denom else 0.0
    got = action_residual(_operator(a, grid), _operator(b, grid), probes)
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


@st.composite
def raw_bands(draw):
    """``(lo, bands, dense)``: random ``float64`` bands ``bands[k, i] =
    B[i, i + lo + k]`` of a dense B, zero in their slots outside it: one-sided
    bands (every offset of one sign), any band, the full band and the empty
    one."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["lower", "upper", "any", "full", "empty"]))
    if kind == "full":
        lo, nb = -(n - 1), 2 * n - 1
    elif kind == "empty":
        lo, nb = draw(st.integers(-(n - 1), n - 1)), 0
    else:
        lo = draw(st.integers(-(n - 1), 0 if kind == "lower" else n - 1))
        if kind == "upper":
            lo = abs(lo)
        top = 0 if kind == "lower" else n - 1
        nb = draw(st.integers(1, top - lo + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, i = np.indices((nb, n))
    inside = (i + lo + k >= 0) & (i + lo + k < n)
    bands = np.where(inside, rng.normal(size=(nb, n)), 0.0)
    dense = np.zeros((n, n))
    dense[i[inside], (i + lo + k)[inside]] = bands[inside]
    return lo, bands, dense


@settings(max_examples=200, deadline=None)
@given(raw_bands(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_band_action_is_the_dense_product_over_all_and_interior_rows(case, columns, seed):
    lo, bands, dense = case
    n = len(dense)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, columns))
    r0 = int(rng.integers(0, n + 1))
    r1 = int(rng.integers(r0, n + 1))
    expect = dense @ v
    bound = REL * max(np.abs(dense).sum(axis=1).max(initial=0.0) * np.abs(v).max(), 1e-300)
    for rows in (slice(0, n), slice(r0, r1)):
        got = _band_action(lo, bands, v, rows)
        assert got.shape == (rows.stop - rows.start, columns) and got.dtype == float
        assert np.abs(got - expect[rows]).max(initial=0.0) <= bound


@settings(max_examples=200, deadline=None)
@given(raw_bands())
def test_band_transpose_is_the_dense_transpose(case):
    lo, bands, dense = case
    lo_t, out = _band_transpose(lo, bands)
    assert out.shape == bands.shape
    nb, n = bands.shape
    assert lo_t == -(lo + nb - 1)
    k, i = np.indices(out.shape)
    j = i + lo_t + k
    inside = (j >= 0) & (j < n)
    assert not out[~inside].any()
    assert np.array_equal(out[inside], dense.T[i[inside], j[inside]])
    assert np.count_nonzero(out) == np.count_nonzero(dense)


def test_from_bands_rejects_slots_outside_the_matrix():
    grid = Grid(5, 1.0, 0.0)
    with pytest.raises(ValueError, match="outside"):
        Operator.from_bands(1, np.ones((1, 5)), grid)


def test_model_operators_stay_banded_at_1025_points():
    # No n x n array on the adjudication path: every operator it builds is
    # stored as a handful of diagonals, and a metric as its profile.
    grid = Grid(1025, 10.0, 0.25)
    pp = PhysParams(mu=0.1, tau=0.01, gamma_t=0.05, lam=-0.05, delta_t=0.05)
    x, p = build_deformed_pair(grid, pp)
    assert len(derivative_matrix(grid).coefficients) <= 5
    assert len(build_swanson_bf(x, p, pp).coefficients) <= 9
    assert len(build_swanson_jr(x, p, pp).coefficients) <= 9
    assert build_metric(MetricSpec("ExpTheta", theta=0.2), grid, pp).shape == (1025,)
    assert len(p.coefficients) == 1


@pytest.mark.parametrize("n", [129, 1025])
def test_model_operators_are_exactly_real_or_imaginary(n):
    # Every product between these takes op_product's real path, and their
    # probe actions are real.
    grid = Grid(n, 10.0, 0.25)
    pp = PhysParams(mu=0.1, tau=0.01, gamma_t=0.05, lam=-0.05, delta_t=0.05)
    x, p = build_deformed_pair(grid, pp)
    ladder = build_ladder(x, p, pp)
    h_bf = build_swanson_bf(x, p, pp)
    g = build_metric(MetricSpec("ExpTheta", theta=0.2), grid, pp)
    counterpart, _ = hermitian_counterpart(h_bf, g)
    imaginary = {"X": x}
    real = {
        "P": p,
        "D": derivative_matrix(grid),
        "deformation": Operator.diag(1.0 + pp.tau * grid.points**2, grid),
        "a": ladder.a,
        "a_dag": ladder.a_dag,
        "N": default_number_operator(x, p, pp),
        "H_BF": h_bf,
        "H_JR": build_swanson_jr(x, p, pp),
        "counterpart": counterpart,
    }
    for name, op in imaginary.items():
        assert op.turns == 1, name
    probes = smooth_probes(grid)
    for name, op in real.items():
        assert op.turns == 0, name
        assert interior_action(op, probes).dtype == np.float64, name
    assert interior_action(x, probes).dtype == np.complex128
    assert interior_action(p, probes + 0j).dtype == np.complex128


def _assert_phase_kept(op):
    # One stored form: contiguous float64 coefficients and 0 or 1 turns,
    # the zero operator real.
    assert op.turns in (0, 1) and (op.turns == 0 or len(op.coefficients))
    assert op.coefficients.dtype == np.float64
    assert op.coefficients.flags.c_contiguous


@settings(max_examples=100, deadline=None)
@given(
    operands(n_max=67),
    st.sampled_from([0.7, -2.5, 1.3j, -0.4j, 0.0]),
)
def test_results_keep_the_phase_and_the_complex_values(case, c):
    # Every result keeps the stored form, and its dense matrix is the
    # all-complex one: the mirror-paired product sums, and numpy's
    # complex sums, scalings and conjugate transposes (signs of exact zeros
    # aside, which array_equal does not see).
    grid, a, b = case
    oa, ob = _operator(a, grid), _operator(b, grid)
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
    oa, ob = (_operator(one, grid), _operator(b, grid)) if left else (
        _operator(a, grid), _operator(one, grid))
    got = op_product(oa, ob)
    _assert_phase_kept(got)
    assert np.array_equal(got.entries, _paired_product(oa, ob))


def test_stored_forms_are_read_only():
    # The coefficients are read-only; the dense matrix is a new array on
    # every read, so writing one leaves the operator as it was.
    grid = Grid(9, 2.0, 0.25)
    real = Operator.diag(np.arange(1.0, 10.0), grid)
    imaginary = op_scale(1j, Operator(np.eye(9), grid))
    for op in (real, imaginary, derivative_matrix(grid)):
        with pytest.raises(ValueError, match="read-only"):
            op.coefficients[0, 0] = 7.0
        entries = op.entries
        entries[0, 0] = 7.0
        assert op.entries[0, 0] != 7.0
    assert (real.turns, imaginary.turns) == (0, 1)


def test_constructors_take_real_data_alone():
    # Complex data is refused with no tolerance, a zero imaginary part and
    # a single 1e-300j entry among it; i·A is op_scale(1j, A).
    grid = Grid(9, 2.0, 0.25)
    tiny = np.eye(9) + 0j
    tiny[4, 4] += 1e-300j
    for data in (np.eye(9) * (1 + 1j), np.eye(9) + 0j, tiny):
        for build in (
            lambda: Operator(data, grid),
            lambda: Operator.from_bands(0, np.diag(data)[np.newaxis], grid),
            lambda: Operator.diag(np.diag(data), grid),
        ):
            with pytest.raises(ValueError, match=r"op_scale\(1j, A\)"):
                build()


def test_operands_that_are_neither_real_nor_imaginary_are_refused():
    grid = Grid(9, 2.0, 0.25)
    real = Operator.diag(np.arange(1.0, 10.0), grid)
    imaginary = op_scale(1j, real)
    with pytest.raises(ValueError, match="real and an exactly imaginary"):
        op_sum(real, imaginary)
    # A zero operand shares every phase.
    zero = Operator.diag(np.zeros(9), grid)
    assert op_sum(imaginary, zero).turns == op_sum(zero, imaginary).turns == 1
    with pytest.raises(ValueError, match="neither real nor imaginary"):
        op_scale(0.3 - 1.7j, real)
    hermitian = op_scale(1j, Operator(np.eye(9, k=1) - np.eye(9, k=-1), grid))
    with pytest.raises(ValueError, match="not an imaginary one"):
        hermitian_matrix_function(hermitian, np.exp, np.eye(9))


def test_a_verify_metric_job_builds_no_operator_from_complex_data(monkeypatch):
    # Every operator of a 1025-point verify-metric job has its phase from
    # the algebra, the shift diag(iħγ_t p) of the BF model at γ_t ≠ 0 among
    # them (op_scale(1j, ·) of a real diagonal), and so does the i·ħ target
    # of the canonical commutator: no complex array reaches a constructor's
    # check or the unchecked store that products, sums and scalings use.
    complex_data = []
    real = qhm.gridops._real
    trimmed = Operator._trimmed.__func__

    def counted_real(arr):
        if np.iscomplexobj(arr):
            complex_data.append(arr.shape)
        return real(arr)

    def counted_trimmed(cls, lo, coef, grid, turns):
        if np.iscomplexobj(coef) and len(coef):
            complex_data.append(coef.shape)
        return trimmed(cls, lo, coef, grid, turns)

    monkeypatch.setattr(qhm.gridops, "_real", counted_real)
    monkeypatch.setattr(Operator, "_trimmed", classmethod(counted_trimmed))
    cfg = parse_config(json.dumps({
        "job": "verify-metric",
        "grid": {"n_points": 1025, "p_max": 10.0},
        "params": {"mu": 0.1, "tau": 0.01, "gamma_t": 0.05},
        "metric": "ExpTheta(0.2)",
    }))
    doc = run_job(cfg)
    assert doc["results"]["residuals"][0]["n_points"] == 1025
    # The i·ħ target of the canonical commutator is built the same way.
    pp = PhysParams(hbar=0.5)
    x0, p0 = build_canonical_pair(Grid(33, 3.0), pp)
    assert canonical_commutator_residual(x0, p0, pp) < 1e-14
    assert complex_data == []
