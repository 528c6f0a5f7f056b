"""Which LAPACK routine the dense eigensolvers reach: a real operator goes
to the real ``eig``/``eigh``, the matrix functions refuse an imaginary one,
and the real path gives the complex path's results.  Model operators are also exactly even under p → −p, so
each solve runs on the two parity blocks (tests/test_parity.py)."""
import json

import numpy as np
import pytest

from qhm import (
    Grid,
    MetricSpec,
    NumericGuardError,
    Operator,
    PhysParams,
    build_deformed_pair,
    build_metric,
    build_swanson_bf,
    hermitian_counterpart,
    hermitian_matrix_function,
    parse_config,
    run_job,
    spectrum,
)


def _record(monkeypatch, names):
    calls = []
    for name in names:
        solver = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _solver=solver, **kwargs):
            arr = np.asarray(a)
            calls.append((_name, arr.dtype, arr.shape))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


@pytest.fixture
def seen(monkeypatch):
    """Records ``(solver, dtype, shape)`` of every ``np.linalg.eig``/``eigh`` call."""
    return _record(monkeypatch, ("eig", "eigh"))


@pytest.fixture
def seen_all(monkeypatch):
    """Like ``seen``, for every dense eigensolver of ``np.linalg``."""
    return _record(monkeypatch, ("eig", "eigh", "eigvals", "eigvalsh"))


def _bf(n=129, p_max=8.0, mu=0.1):
    grid = Grid(n, p_max, 0.25)
    pp = PhysParams(mu=mu)
    x, p = build_deformed_pair(grid, pp)
    return grid, pp, build_swanson_bf(x, p, pp)


def test_spectrum_job_takes_the_real_eig_for_h_and_its_counterpart(seen):
    cfg = {
        "job": "spectrum",
        "grid": {"n_points": 129},
        "params": {"mu": 0.1},
        "metric": "ExpTheta(0.2)",
    }
    run_job(parse_config(json.dumps(cfg)))
    blocks = [("eig", np.float64, (65, 65)), ("eig", np.float64, (64, 64))]
    assert seen == blocks + blocks


def test_algebra_check_takes_the_real_eigh_for_the_number_operator(seen):
    # q = 1.1 on the window of test_models.py::test_algebra_q_above_one_golden,
    # where q^N stays inside the overflow guard.
    cfg = {"job": "algebra-check", "grid": {"n_points": 65, "p_max": 4.0},
           "q_params": {"q": 1.1}}
    run_job(parse_config(json.dumps(cfg)))
    assert seen == [("eigh", np.float64, (33, 33)), ("eigh", np.float64, (32, 32))]


def test_algebra_check_at_q1_runs_no_eigensolver(seen_all):
    # q^N is exactly the identity at q = 1.
    run_job(parse_config(json.dumps({"job": "algebra-check", "grid": {"n_points": 129}})))
    assert seen_all == []


def test_tripped_guard_computes_no_eigenvectors(seen_all):
    cfg = {"job": "algebra-check", "grid": {"n_points": 257}, "q_params": {"q": 1.3}}
    with pytest.raises(NumericGuardError, match="dynamic range"):
        run_job(parse_config(json.dumps(cfg)))
    assert seen_all == [("eigvalsh", np.float64, (129, 129)),
                        ("eigvalsh", np.float64, (128, 128))]
    seen_all.clear()
    with pytest.raises(NumericGuardError, match="dynamic range"):
        hermitian_matrix_function(Operator.diag([0.0, 1.0, 1.0], Grid(3, 1.0)), np.sqrt)
    assert seen_all == [("eigvalsh", np.float64, (3, 3))]


def test_passed_guard_decides_on_eigvalsh_before_eigh(seen_all):
    hermitian_matrix_function(Operator.diag([1.0, 2.0, 2.0], Grid(3, 1.0)), np.sqrt)
    assert seen_all == [("eigvalsh", np.float64, (3, 3)), ("eigh", np.float64, (3, 3))]


def test_imaginary_hermitian_input_is_refused_before_any_eigensolver(seen_all):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(9, 9))
    herm = Operator(0.5j * (m - m.T), Grid(9, 2.0))
    assert herm.turns == 1
    with pytest.raises(ValueError, match="not an imaginary one"):
        hermitian_matrix_function(herm, np.exp)
    assert seen_all == []


def test_narrowing_has_no_tolerance(seen):
    # A single imaginary part of 1e-300 beside real entries is refused.
    grid, _, ham = _bf()
    tiny = ham.entries
    tiny[3, 4] += 1e-300j
    herm = np.eye(9, dtype=complex)
    herm[0, 1], herm[1, 0] = 1e-300j, -1e-300j
    for entries, g in ((tiny, grid), (herm, Grid(9, 2.0))):
        with pytest.raises(ValueError, match="exactly real or exactly imaginary"):
            Operator(entries, g)
    assert seen == []


def test_real_eig_levels_match_the_complex_eigenvalues():
    grid, pp, ham = _bf()
    rho = build_metric(MetricSpec("ExpTheta", theta=0.2), grid, pp)
    counterpart, _ = hermitian_counterpart(ham, rho)
    for op in (ham, counterpart):
        assert not op.bands.imag.any()
        reference = np.linalg.eigvals(op.entries.astype(np.complex128))
        levels = spectrum(op, 6).values
        assert len(levels) == 6
        for z in levels:
            assert isinstance(z, complex)
            assert np.abs(reference - z).min() <= 1e-10 * max(1.0, abs(z))


MOMENTA = Grid(9, 2.0, 0.25).points


def _symmetric(n, seed):
    m = np.random.default_rng(seed).normal(size=(n, n))
    return 0.5 * (m + m.T)


@pytest.mark.parametrize(
    "a, f",
    [
        (np.diag([0.0, np.log(2.0), np.log(4.0)]), np.exp),
        (_symmetric(13, 3), lambda t: t**2),
        (np.diag(MOMENTA), lambda t: 1.0 / (1.0 + 0.1 * t**2)),
        (_symmetric(11, 5), lambda t: t),
    ],
)
def test_real_symmetric_matrix_function_matches_the_complex_path(a, f):
    got = hermitian_matrix_function(Operator(a, Grid(len(a), 2.0)), f).entries
    assert not np.imag(got).any()
    w, u = np.linalg.eigh(a.astype(np.complex128))
    expect = (u * f(w)) @ u.conj().T
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def test_real_symmetric_operator_keeps_real_bands():
    grid = Grid(9, 2.0, 0.25)
    got = hermitian_matrix_function(Operator(_symmetric(9, 7), grid), np.exp)
    assert isinstance(got, Operator)
    assert not got.bands.imag.any()
