"""Shift-invert spectra: on grids of at least 257 points ``spectrum`` solves
the band parity blocks, folded from the bands, with ARPACK on their band LU
and agrees with the dense block ``eig``; a guard that fails sends it to the
dense solve, and smaller grids never leave it."""
import functools
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.linalg._eigen.arpack import arpack

import qhm.gridops
import qhm.verify
from qhm import (
    Grid,
    Operator,
    PhysParams,
    build_deformed_pair,
    build_metric,
    build_swanson_bf,
    build_swanson_jr,
    hermitian_counterpart,
    spec_from_label,
    spectrum,
)
from qhm.gridops import _dense_block, _parity_fold
from qhm.jobs import parse_config, run_job
from qhm.models import gauge_transform
from test_parity import _basis_blocks, recording_solvers

SRC = Path(__file__).resolve().parents[1] / "src"


def _dense(op, k=6):
    """The dense block solve, whatever the grid size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qhm.verify, "SHIFT_INVERT_MIN_POINTS", sys.maxsize)
        return spectrum(op, k)


@functools.lru_cache(maxsize=None)
def _operators(n, mu, p_max):
    grid = Grid(n, p_max, 0.25)
    pp = PhysParams(mu=mu)
    x, p = build_deformed_pair(grid, pp)
    bf = build_swanson_bf(x, p, pp)
    rho = build_metric(spec_from_label(f"ExpTheta({2 * mu!r})"), grid, pp)
    counterpart, _ = hermitian_counterpart(bf, rho)
    pp_jr = PhysParams(lam=-mu, delta_t=mu)
    jr = build_swanson_jr(*build_deformed_pair(grid, pp_jr), pp_jr)
    return {"BF": bf, "BF counterpart": counterpart, "JR": jr}


@functools.lru_cache(maxsize=None)
def _reference(n, mu, p_max, which):
    """The dense block solve's 7 lowest levels; those for any smaller k are
    a prefix of them."""
    expect = _dense(_operators(n, mu, p_max)[which], 7)
    assert expect.solver == "dense"
    return expect.values


def _agree(got, expect, rel=1e-9):
    assert len(got) == len(expect)
    for z, w in zip(got, expect):
        assert abs(z - w) <= rel * abs(w)


@pytest.mark.parametrize("n", [257, 513, 1025])
@pytest.mark.parametrize("mu", [0.05, 0.15])
@pytest.mark.parametrize("p_max", [8.0, 10.0])
@pytest.mark.parametrize("which", ["BF", "BF counterpart", "JR"])
def test_shift_invert_matches_the_dense_block_eig(n, mu, p_max, which):
    op = _operators(n, mu, p_max)[which]
    got = spectrum(op, 6)
    assert got.solver == "shift-invert"
    expect = _reference(n, mu, p_max, which)[:6]
    _agree(got.values, expect)
    assert abs(got.reality_measure - max(abs(z.imag) for z in expect)) <= 1e-9


# An even operator's levels fall into two blocks, at most ⌈k/2⌉ in each, and
# each comes with its sublattice near-copy: 2⌈k/2⌉ + 2 pairs per block hold
# them with one more level and its copy outside, so no count doubles.
@pytest.mark.parametrize("n", [257, 513])
@pytest.mark.parametrize("mu", [0.05, 0.15])
@pytest.mark.parametrize("p_max", [8.0, 10.0])
@pytest.mark.parametrize("which", ["BF", "BF counterpart", "JR"])
def test_the_first_request_holds_the_kept_levels(n, mu, p_max, which):
    op = _operators(n, mu, p_max)[which]
    m = n // 2
    for k in range(1, 8):
        with recording_solvers() as seen:
            got = spectrum(op, k)
        assert got.solver == "shift-invert"
        nev = 2 * ((k + 1) // 2) + 2
        # σ = 0 and then σ₂, each on the even and the odd block.
        assert seen == [("eigs", (m + 1, m + 1), nev), ("eigs", (m, m), nev)] * 2
        _agree(got.values, _reference(n, mu, p_max, which)[:k])


@pytest.mark.parametrize("n", [257, 513])
def test_band_folded_blocks_are_the_dense_blocks(n):
    for op in _operators(n, 0.1, 10.0).values():
        blocks = _parity_fold(op)
        a = op.entries.real
        ref_even, ref_odd, cross = _basis_blocks(a)
        scale = 1e-14 * np.linalg.norm(a)
        assert np.abs(cross).max() <= scale
        for (lo, bands), ref in zip(blocks, (ref_even, ref_odd)):
            # Two subdiagonals and three superdiagonals, in float64.
            assert lo == -2
            assert bands.dtype == np.float64
            assert bands.shape == (6, len(ref))
            dense = _dense_block(lo, bands)
            assert np.abs(dense - ref).max() <= scale


def test_the_band_lu_factors_lapack_band_storage_of_each_block():
    # ?gbtrf receives each block B − σI in LAPACK's general-band storage,
    # ab[kl + ku + i − j, j] = (B − σI)[i, j], under kl zero rows for the
    # fill-in of its pivoting; the model H has kl = 2 and ku = 3.
    op = _operators(257, 0.1, 10.0)["BF"]
    blocks = [_dense_block(*block) for block in _parity_fold(op)]
    given_to_gbtrf = []
    lapack_funcs = scipy.linalg.get_lapack_funcs

    def recording_funcs(names, arrays):
        gbtrf, gbtrs = lapack_funcs(names, arrays)

        def recording_gbtrf(ab, kl, ku, **kwargs):
            given_to_gbtrf.append((ab.copy(order="K"), kl, ku))
            return gbtrf(ab, kl, ku, **kwargs)

        return recording_gbtrf, gbtrs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy.linalg, "get_lapack_funcs", recording_funcs)
        got = spectrum(op, 6)
    assert got.solver == "shift-invert"
    # σ = 0 and then σ₂, each on the even and the odd block.
    assert len(given_to_gbtrf) == 4
    sigmas = [0.0, 0.0, -got.values[0].real, -got.values[0].real]
    for (ab, kl, ku), dense, sigma in zip(given_to_gbtrf, blocks * 2, sigmas):
        assert (kl, ku) == (2, 3)
        assert ab.dtype == np.float64 and ab.flags.f_contiguous
        assert ab.shape == (2 * kl + ku + 1, len(dense))
        assert not ab[:kl].any()
        shifted = dense - sigma * np.eye(len(dense))
        i, j = np.indices(shifted.shape)
        inside = (i - j <= kl) & (j - i <= ku)
        assert not shifted[~inside].any()
        assert np.array_equal(ab[kl + ku + i[inside] - j[inside], j[inside]], shifted[inside])
        # The slots of ab outside the matrix are zero.
        assert np.count_nonzero(ab) == np.count_nonzero(shifted)


def test_an_operator_without_exact_parity_is_refused():
    # One entry an ulp off its mirror: no solver runs.
    op = _operators(257, 0.1, 8.0)["BF"]
    bands = op.coefficients.copy()
    bands[0, 200] = np.nextafter(bands[0, 200], np.inf)
    bumped = Operator.from_bands(op.lo, bands, op.grid)
    with recording_solvers() as seen:
        with pytest.raises(ValueError, match="exactly even"):
            spectrum(bumped, 6)
    assert seen == []


def _gauge_similar(n):
    """S⁻¹HS for the BF H: strongly non-normal."""
    pp = PhysParams(mu=0.1, tau=0.1, gamma_t=0.3)
    grid = Grid(n, 10.0, 0.25)
    x, p = build_deformed_pair(grid, pp)
    h = build_swanson_bf(x, p, pp)
    s, s_inv = gauge_transform(pp, grid)
    return Operator((s_inv.entries @ h.entries @ s.entries).real, grid)


def test_a_1025_point_spectrum_forms_no_dense_matrix():
    # No solver reads Operator.entries: not the shift-invert path, not the
    # dense block eig (129 points, and the fallback at 513), and not the
    # matrix function of the algebra check at q ≠ 1.
    op = _operators(1025, 0.1, 10.0)["BF"]
    small = _operators(129, 0.1, 8.0)["BF counterpart"]
    h_sim = _gauge_similar(513)
    passing = {"job": "algebra-check", "grid": {"n_points": 65, "p_max": 4.0},
               "q_params": {"q": 1.1}}
    tripped = {"job": "algebra-check", "grid": {"n_points": 257},
               "q_params": {"q": 1.3}}

    def refuse(*args):
        raise AssertionError("dense matrix formed")

    with recording_solvers() as seen, pytest.MonkeyPatch.context() as patch:
        patch.setattr(Operator, "entries", property(refuse))
        with pytest.MonkeyPatch.context() as sparse_only:
            sparse_only.setattr(qhm.verify, "_dense_block", refuse)
            got = spectrum(op, 6)
        solvers = [spectrum(small, 6).solver, spectrum(h_sim, 6).solver]
        run_job(parse_config(json.dumps(passing)))
        with pytest.raises(qhm.gridops.NumericGuardError, match="dynamic range"):
            run_job(parse_config(json.dumps(tripped)))
    assert got.solver == "shift-invert"
    assert solvers == ["dense", "dense"]
    assert seen == (
        # 1025 points: two shifts, each on the even and the odd block, with
        # 8 pairs per block for k = 6.
        [("eigs", (513, 513), 8), ("eigs", (512, 512), 8)] * 2
        # 129 points: the dense block eig.
        + [("eig", (65, 65)), ("eig", (64, 64))]
        # 513 points: 8 pairs per block keep 6 levels, a second shift
        # disagrees, and the dense block eig runs.
        + [("eigs", (257, 257), 8), ("eigs", (256, 256), 8)] * 2
        + [("eig", (257, 257)), ("eig", (256, 256))]
        # q = 1.1 on 65 points; at q = 1.3 the guard trips before any eigh.
        + [("eigh", (33, 33)), ("eigh", (32, 32))]
    )


def test_the_shift_invert_path_builds_no_sparse_matrix():
    # Each shifted block is factored by LAPACK's band LU: no SuperLU runs,
    # and no scipy.sparse matrix, COO or CSC, is built on the way.
    ops = _operators(1025, 0.1, 10.0)

    def refuse(*args, **kwargs):
        raise AssertionError("a sparse matrix or SuperLU")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arpack, "splu", refuse)
        patch.setattr(scipy.sparse.linalg, "splu", refuse)
        for cls in (scipy.sparse.coo_array, scipy.sparse.csr_array,
                    scipy.sparse.csc_array, scipy.sparse._base._spbase):
            patch.setattr(cls, "tocsc", refuse)
        patch.setattr(scipy.sparse._base._spbase, "__init__", refuse)
        patch.setattr(scipy.sparse, "coo_array", refuse)
        results = [spectrum(ops[which], 6) for which in ("BF", "BF counterpart")]
    assert [(r.solver, r.fallback) for r in results] == [("shift-invert", None)] * 2


def test_small_grids_keep_the_dense_block_solves():
    ops = _operators(129, 0.1, 8.0)
    with recording_solvers() as seen:
        results = [spectrum(ops[which], 6) for which in ("BF", "BF counterpart")]
    assert [(r.solver, r.fallback) for r in results] == [("dense", None)] * 2
    assert seen == [("eig", (65, 65)), ("eig", (64, 64))] * 2


def test_gauge_similar_operator_falls_back_to_the_dense_levels(caplog):
    # S⁻¹HS is strongly non-normal: ARPACK's residuals pass, but a second
    # shift does not reproduce its levels.
    h_sim = _gauge_similar(513)
    with caplog.at_level(logging.DEBUG, logger="qhm.verify"):
        got = spectrum(h_sim, 6)
    assert got.solver == "dense"
    assert got.fallback == "shift disagreement"
    assert "shift disagreement" in caplog.text
    assert got.values == _dense(h_sim).values


def test_a_negative_level_takes_the_dense_solve(caplog):
    op = _operators(257, 0.1, 8.0)["BF"]
    shifted = Operator.from_bands(
        op.lo,
        op.coefficients - 2.0 * (np.arange(len(op.coefficients)) == -op.lo)[:, None],
        op.grid,
    )
    with caplog.at_level(logging.DEBUG, logger="qhm.verify"):
        got = spectrum(shifted, 6)
    assert got.solver == "dense"
    assert got.fallback == "negative level"
    assert "negative level" in caplog.text
    assert got.values[0].real < 0


# Each level of the X·X grid Hamiltonian has a near-copy in the same parity
# block, merged away: 4 pairs per block give 4 levels, too few for 6, and 6
# give 6, the last of them the farthest Ritz value of its block.
@pytest.mark.parametrize("first", [4, 6], ids=["too-few", "edge-of-disk"])
def test_the_arpack_count_doubles_until_the_levels_are_inside(first):
    op = _operators(257, 0.1, 8.0)["BF"]
    with recording_solvers() as seen, pytest.MonkeyPatch.context() as patch:
        patch.setattr(qhm.verify, "_first_request", lambda k: first)
        got = spectrum(op, 6)
    assert got.solver == "shift-invert"
    # The first request and then twice as many pairs per block at σ = 0,
    # then σ₂ with as many.
    assert seen == (
        [("eigs", (129, 129), first), ("eigs", (128, 128), first)]
        + [("eigs", (129, 129), 2 * first), ("eigs", (128, 128), 2 * first)] * 2
    )
    _agree(got.values, _dense(op).values)


@pytest.mark.parametrize(
    "make, k, reason",
    [
        # The even block of diag(p²) is singular: p = 0 is a grid point.
        (lambda g: Operator.diag(g.points**2, g), 6, "singular shifted block"),
        (lambda g: _operators(257, 0.1, 8.0)["BF"], 200, "too few levels"),
    ],
    ids=["singular", "too-few"],
)
def test_failed_guards_return_the_dense_levels(make, k, reason, caplog):
    op = make(Grid(257, 8.0, 0.25))
    with caplog.at_level(logging.DEBUG, logger="qhm.verify"):
        got = spectrum(op, k)
    assert got.solver == "dense"
    assert got.fallback == reason
    assert reason in caplog.text
    assert got.values == _dense(op, k).values


def test_an_arpack_error_takes_the_dense_solve(caplog):
    op = _operators(257, 0.1, 8.0)["BF"]

    def failing_eigs(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackError(-9999)

    with caplog.at_level(logging.DEBUG, logger="qhm.verify"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scipy.sparse.linalg, "eigs", failing_eigs)
            got = spectrum(op, 6)
    assert got.solver == "dense"
    assert got.fallback.startswith("ARPACK error")
    assert "ARPACK error" in caplog.text
    assert got.values == _dense(op).values


def test_a_residual_above_the_bound_takes_the_dense_solve(caplog):
    op = _operators(257, 0.1, 8.0)["BF"]
    with caplog.at_level(logging.DEBUG, logger="qhm.verify"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qhm.verify, "RESIDUAL_TOL", 0.0)
            got = spectrum(op, 6)
    assert got.solver == "dense"
    assert got.fallback == "residual above the bound"
    assert "residual above the bound" in caplog.text


def test_above_the_dense_cap_a_failed_guard_is_refused():
    # Past DENSE_MAX_POINTS = 2049 a failed shift-invert guard raises instead
    # of running the dense eig (3 s at 2049 points, 16 s at 4097).
    grid = Grid(2051, 8.0, 0.25)
    pp = PhysParams(mu=0.1)
    op = build_swanson_bf(*build_deformed_pair(grid, pp), pp)
    dense_calls = []

    def fail(*args):
        raise qhm.verify._Fallback("residual above the bound")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qhm.verify, "_shift_invert_levels", fail)
        patch.setattr(qhm.verify, "_block_eig_with_mass", lambda *a: dense_calls.append(a))
        with pytest.raises(qhm.gridops.NumericGuardError) as err:
            spectrum(op, 6)
    assert "residual above the bound" in str(err.value)
    assert "DENSE_MAX_POINTS = 2049" in str(err.value)
    assert qhm.verify.DENSE_MAX_POINTS == 2049
    assert dense_calls == []


def test_small_spectrum_jobs_never_import_scipy(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "job": "spectrum",
        "grid": {"n_points": 129},
        "params": {"mu": 0.1},
        "metric": "ExpTheta(0.2)",
    }))
    code = (
        "import sys, qhm, qhm.cli\n"
        f"assert qhm.cli.main([{str(job)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[]"
