"""Shift-invert spectra: on grids of at least 257 points ``spectrum`` solves
the sparse parity blocks, folded from the bands, with ARPACK and agrees
with the dense block ``eig``; a guard that fails sends it to the dense
solve, and smaller grids never leave it."""
import functools
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qhm.verify
from qhm import (
    Grid,
    Operator,
    PhysParams,
    build_deformed_pair,
    build_ladder,
    build_metric,
    build_swanson_bf,
    build_swanson_jr,
    hermitian_counterpart,
    spec_from_label,
    spectrum,
)
from qhm.gridops import _parity_blocks, _real_if_exact, _sparse_blocks
from qhm.models import gauge_transform
from test_parity import recording_solvers

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
    rho = build_metric(spec_from_label(f"ExpTheta({2 * mu!r})", pp), grid, pp)
    counterpart, _ = hermitian_counterpart(bf, rho)
    pp_jr = PhysParams(lam=-mu, delta_t=mu)
    ladder = build_ladder(*build_deformed_pair(grid, pp_jr), pp_jr)
    jr = build_swanson_jr(ladder.a, ladder.a_dag, pp_jr)
    return {"BF": bf, "BF counterpart": counterpart, "JR": jr}


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
    expect = _dense(op)
    assert expect.solver == "dense"
    _agree(got.values, expect.values)
    assert abs(got.reality_measure - expect.reality_measure) <= 1e-9


@pytest.mark.parametrize("n", [257, 513])
def test_band_folded_blocks_are_the_dense_blocks(n):
    for op in _operators(n, 0.1, 10.0).values():
        blocks, even = _sparse_blocks(op)
        assert even
        for block, dense in zip(blocks, _parity_blocks(_real_if_exact(op.entries))):
            assert block.dtype == np.float64
            assert np.array_equal(block.toarray(), dense)


def test_an_operator_without_exact_parity_is_one_sparse_block():
    op = _operators(257, 0.1, 8.0)["BF"]
    bands = op.bands.copy()
    bands[0, 200] = np.nextafter(bands[0, 200].real, np.inf)
    bumped = Operator.from_bands(op.lo, bands, op.grid)
    blocks, even = _sparse_blocks(bumped)
    assert not even
    assert np.array_equal(blocks[0].toarray(), _real_if_exact(bumped.entries))
    with recording_solvers() as seen:
        got = spectrum(bumped, 6)
    assert got.solver == "shift-invert"
    assert set(seen) == {("eigs", (257, 257))}
    _agree(got.values, _dense(bumped).values)


def test_a_1025_point_spectrum_forms_no_dense_matrix():
    op = _operators(1025, 0.1, 10.0)["BF"]

    def refuse(*args):
        raise AssertionError("dense matrix formed on the shift-invert path")

    with recording_solvers() as seen, pytest.MonkeyPatch.context() as patch:
        patch.setattr(Operator, "entries", property(refuse))
        patch.setattr(qhm.verify, "_parity_blocks", refuse)
        got = spectrum(op, 6)
    assert got.solver == "shift-invert"
    # Two shifts, each on the even and the odd block.
    assert seen == [("eigs", (513, 513)), ("eigs", (512, 512))] * 2


def test_small_grids_keep_the_dense_block_solves():
    ops = _operators(129, 0.1, 8.0)
    with recording_solvers() as seen:
        results = [spectrum(ops[which], 6) for which in ("BF", "BF counterpart")]
    assert [r.solver for r in results] == ["dense", "dense"]
    assert seen == [("eig", (65, 65)), ("eig", (64, 64))] * 2


def test_gauge_similar_operator_falls_back_to_the_dense_levels(caplog):
    # S⁻¹HS is strongly non-normal: ARPACK's residuals pass, but a second
    # shift does not reproduce its levels.
    pp = PhysParams(mu=0.1, tau=0.1, gamma_t=0.3)
    grid = Grid(513, 10.0, 0.25)
    x, p = build_deformed_pair(grid, pp)
    h = build_swanson_bf(x, p, pp)
    s, s_inv = gauge_transform(pp, grid)
    h_sim = Operator(s_inv.entries @ h.entries @ s.entries, grid)
    with caplog.at_level(logging.DEBUG, logger="qhm.verify"):
        got = spectrum(h_sim, 6)
    assert got.solver == "dense"
    assert "shift disagreement" in caplog.text
    assert got.values == _dense(h_sim).values


def test_a_negative_level_takes_the_dense_solve(caplog):
    op = _operators(257, 0.1, 8.0)["BF"]
    shifted = Operator.from_bands(
        op.lo, op.bands - 2.0 * (np.arange(len(op.bands)) == -op.lo)[:, None], op.grid
    )
    with caplog.at_level(logging.DEBUG, logger="qhm.verify"):
        got = spectrum(shifted, 6)
    assert got.solver == "dense"
    assert "negative level" in caplog.text
    assert got.values[0].real < 0


# Each level of the X·X grid Hamiltonian has a near-copy in the other parity
# block, merged away: 4 pairs per block give 4 levels, too few for 6, and 6
# give 6, the last of them the farthest Ritz value of its block.
@pytest.mark.parametrize("arpack_k", [4, 6], ids=["too-few", "edge-of-disk"])
def test_the_arpack_count_doubles_until_the_levels_are_inside(arpack_k):
    op = _operators(257, 0.1, 8.0)["BF"]
    with recording_solvers() as seen, pytest.MonkeyPatch.context() as patch:
        patch.setattr(qhm.verify, "ARPACK_K", arpack_k)
        got = spectrum(op, 6)
    assert got.solver == "shift-invert"
    # arpack_k and then twice as many pairs per block at σ = 0, then σ₂.
    assert seen == [("eigs", (129, 129)), ("eigs", (128, 128))] * 3
    _agree(got.values, _dense(op).values)


@pytest.mark.parametrize(
    "make, k, reason",
    [
        # The even block of diag(p²) is singular: p = 0 is a grid point.
        (lambda g: Operator.diag(g.points**2, g), 6, "ARPACK error"),
        (lambda g: _operators(257, 0.1, 8.0)["BF"], 200, "too few levels"),
    ],
    ids=["singular", "too-few"],
)
def test_failed_guards_return_the_dense_levels(make, k, reason, caplog):
    op = make(Grid(257, 8.0, 0.25))
    with caplog.at_level(logging.DEBUG, logger="qhm.verify"):
        got = spectrum(op, k)
    assert got.solver == "dense"
    assert reason in caplog.text
    assert got.values == _dense(op, k).values


def test_a_residual_above_the_bound_takes_the_dense_solve(caplog):
    op = _operators(257, 0.1, 8.0)["BF"]
    with caplog.at_level(logging.DEBUG, logger="qhm.verify"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qhm.verify, "RESIDUAL_TOL", 0.0)
            got = spectrum(op, 6)
    assert got.solver == "dense"
    assert "residual above the bound" in caplog.text


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
