"""Canonical/deformed pairs, ladders, both oscillator models, algebra, gauge."""
import dataclasses

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
    masked_norm,
    op_product,
    op_scale,
    op_sum,
    stencil_probes,
)
from qhm import models, verify
from qhm.models import (
    PhysParams,
    QDeformParams,
    build_canonical_pair,
    build_deformed_pair,
    build_ladder,
    build_swanson_bf,
    build_swanson_jr,
    canonical_commutator_residual,
    default_number_operator,
    deformed_algebra_residual,
    gauge_conjugation_residual,
    gauge_transform,
)
from qhm.verify import model_equality_report, spectrum

GRID = Grid(257, 8.0, 0.25)


# ---------------------------------------------------------------- params


def test_phys_params_defaults():
    pp = PhysParams()
    assert (pp.hbar, pp.mass, pp.omega) == (1.0, 1.0, 1.0)
    assert (pp.mu, pp.lam, pp.delta_t, pp.tau, pp.gamma_t) == (0, 0, 0, 0, 0)


@pytest.mark.parametrize("bad", [{"hbar": 0.0}, {"mass": -1.0}, {"omega": 0.0},
                                 {"tau": -0.01}, {"omega": 1e200}, {"omega": 1e-200},
                                 {"hbar": 1e-3, "mass": 5e-324, "omega": 1e-3}])
def test_phys_params_validation(bad):
    with pytest.raises(ValueError):
        PhysParams(**bad)


@pytest.mark.parametrize(
    "bad, exponent",
    [
        # hbar*m*omega^2 = 1e-320 is positive, but 2*mu over it overflows.
        ({"hbar": 1e-160, "omega": 1e-80, "mu": 0.1}, "BF exponent"),
        ({"mu": 1e308, "mass": 0.5}, "BF exponent"),
        # mu/omega^2 = 1e320 overflows; 2*mu/(hbar*m*omega^2) = 2e120 does not.
        ({"hbar": 1e100, "mass": 1e100, "omega": 1e-10, "mu": 1e300}, "JR exponent"),
        ({"hbar": 1e100, "mass": 1e100, "omega": 1e-10, "mu": -1e300}, "JR exponent"),
    ],
)
def test_phys_params_refuse_overflowing_metric_exponents(bad, exponent):
    with pytest.raises(ValueError, match=exponent):
        PhysParams(**bad)


def test_qdeform_params_constraint_enforced():
    QDeformParams(q=1.0, alpha=1.0, beta=0.0, gamma=0.5, delta=1.0)  # 4αγ = 2 = q²+1
    with pytest.raises(ValueError, match="constraint"):
        QDeformParams(q=1.0, alpha=1.0, beta=0.0, gamma=0.6, delta=1.0)
    # q² overflows; then 4αγ and q² + 1 both overflow (inf − inf is NaN).
    for alpha, gamma in ((1.0, 1.0), (1e200, 1e200)):
        with pytest.raises(ValueError, match="constraint"):
            QDeformParams(q=1e200, alpha=alpha, beta=0.0, gamma=gamma, delta=1.0)


def test_qdeform_params_denominator_nonzero():
    with pytest.raises(ValueError, match="nonzero"):
        QDeformParams(q=1.0, alpha=1.0, beta=-2.0, gamma=0.5, delta=1.0)


def test_qdeform_params_positive_q():
    with pytest.raises(ValueError, match="q"):
        QDeformParams(q=-1.0, alpha=1.0, beta=0.0, gamma=0.5, delta=1.0)


# ---------------------------------------------------------------- canonical pair


def test_canonical_commutator_machine_exact_in_action():
    pp = PhysParams()
    x0, p0 = build_canonical_pair(GRID, pp)
    assert canonical_commutator_residual(x0, p0, pp) < 1e-14


def test_canonical_commutator_scales_with_hbar():
    pp = PhysParams(hbar=2.0)
    x0, p0 = build_canonical_pair(GRID, pp)
    # [x0, p0] = 2i on interior action; against the doubled target the
    # residual stays machine-small, against the undoubled one it is ~1/2
    assert canonical_commutator_residual(x0, p0, pp) < 1e-14
    wrong = op_scale(1j, Operator(np.eye(GRID.n_points), GRID))
    r = action_residual(commutator(x0, p0), wrong, stencil_probes(GRID))
    assert r > 0.4


def test_momentum_is_hermitian_and_position_interior_hermitian():
    x0, p0 = build_canonical_pair(GRID, PhysParams())
    assert np.abs(p0.entries - adjoint(p0).entries).max() == 0.0
    sl = GRID.interior()
    block = x0.entries[sl, sl]
    assert np.abs(block - block.conj().T).max() < 1e-15


# ---------------------------------------------------------------- deformed pair


def test_deformed_pair_reduces_to_canonical():
    pp = PhysParams(tau=0.0, gamma_t=0.0)
    x0, _ = build_canonical_pair(GRID, pp)
    x, _ = build_deformed_pair(GRID, pp)
    assert np.abs(x.entries - x0.entries).max() == 0.0


def test_deformed_row_prefactor():
    pp = PhysParams(tau=0.1)
    x0, _ = build_canonical_pair(GRID, pp)
    x, _ = build_deformed_pair(GRID, pp)
    j = int(np.argmin(np.abs(GRID.points - 2.0)))
    assert GRID.points[j] == pytest.approx(2.0)
    assert np.allclose(x.entries[j], 1.4 * x0.entries[j], rtol=1e-14)


@pytest.mark.parametrize("tau", [0.0, 0.01, 0.1])
@pytest.mark.parametrize("gamma_t", [0.0, 0.3])
def test_deformed_commutator_machine_exact_in_action(tau, gamma_t):
    # [X, P] = i*hbar*(1 + tau*P^2); the gamma_t term never contributes.
    pp = PhysParams(tau=tau, gamma_t=gamma_t)
    x, p = build_deformed_pair(GRID, pp)
    target = op_scale(1j, Operator(pp.hbar * np.diag(1.0 + tau * GRID.points**2), GRID))
    r = action_residual(commutator(x, p), target, stencil_probes(GRID))
    assert r < 1e-14


def test_adjoint_defect_identity():
    # X† − X acts like 2*i*hbar*tau*P on the constant probe (exactly,
    # because the defect profile is quadratic).
    pp = PhysParams(tau=0.1)
    x, _ = build_deformed_pair(GRID, pp)
    defect = op_scale(1j, Operator((adjoint(x).entries - x.entries).imag, GRID))
    target = op_scale(1j, Operator(2 * pp.hbar * pp.tau * np.diag(GRID.points), GRID))
    ones = np.ones((GRID.n_points, 1)) / np.sqrt(GRID.n_points)
    assert action_residual(defect, target, ones) < 1e-13


# ---------------------------------------------------------------- ladder


def test_ladder_adjoint_defect_vanishes_undeformed():
    pp = PhysParams()
    x, p = build_deformed_pair(GRID, pp)
    lad = build_ladder(x, p, pp)
    assert lad.adjoint_defect < 1e-12


def test_ladder_adjoint_defect_matches_position_defect():
    # adjoint(a) − a_dag = i*omega*(X† − X)/sqrt(2*m*hbar*omega) exactly.
    pp = PhysParams(tau=0.1)
    x, p = build_deformed_pair(GRID, pp)
    lad = build_ladder(x, p, pp)
    # X† − X is imaginary, so adjoint(a) − a_dag is real
    lhs = masked_norm(Operator((adjoint(lad.a).entries - lad.a_dag.entries).real, GRID))
    scale = pp.omega / np.sqrt(2.0 * pp.mass * pp.hbar * pp.omega)
    rhs = scale * masked_norm(Operator((adjoint(x).entries - x.entries).imag, GRID))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert lad.adjoint_defect == pytest.approx(1.782824e-2, rel=1e-4)


def test_ladder_commutator_is_identity_undeformed():
    pp = PhysParams()
    x, p = build_deformed_pair(GRID, pp)
    lad = build_ladder(x, p, pp)
    eye = Operator(np.eye(GRID.n_points), GRID)
    r = action_residual(commutator(lad.a, lad.a_dag), eye, stencil_probes(GRID))
    assert r < 1e-13


# ---------------------------------------------------------------- models


def test_anticommutator_model_antihermitian_part():
    # H − H† = 2*i*mu*{x0, p0} at tau=0: masked norms agree to near machine.
    pp = PhysParams(mu=0.1)
    x, p = build_deformed_pair(GRID, pp)
    h = build_swanson_bf(x, p, pp)
    lhs = masked_norm(Operator((h.entries - adjoint(h).entries).real, GRID))
    rhs = 2.0 * abs(pp.mu) * masked_norm(anticommutator(x, p))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_anticommutator_model_linear_in_mu():
    x, p = build_deformed_pair(GRID, PhysParams())
    h1 = build_swanson_bf(x, p, PhysParams(mu=0.07))
    h2 = build_swanson_bf(x, p, PhysParams(mu=0.03))
    h0 = build_swanson_bf(x, p, PhysParams(mu=0.0))
    h12 = build_swanson_bf(x, p, PhysParams(mu=0.1))
    diff = h1.entries + h2.entries - h0.entries - h12.entries
    assert np.abs(diff).max() < 1e-13 * np.abs(h12.entries).max()


def test_anticommutator_model_hermitian_oscillator_levels():
    # mu=0, tau=0: first five levels within 1e-2 of n+1/2 at 513/10.
    g = Grid(513, 10.0, 0.25)
    pp = PhysParams(mu=0.0)
    x, p = build_deformed_pair(g, pp)
    h = build_swanson_bf(x, p, pp)
    s = spectrum(h, 6)
    errs = [abs(z.real - (i + 0.5)) for i, z in enumerate(s.values)]
    assert max(errs[:5]) < 1e-2
    assert errs[5] < 2e-2  # sixth level sits just past 1e-2 at this spacing


@pytest.mark.xfail(
    strict=True,
    reason="second-order spacing error: the sixth oscillator level at "
    "n_points=513, p_max=10 misses n+1/2 by 1.17e-2, just over the 1e-2 "
    "bound that the first five levels satisfy",
)
def test_anticommutator_model_six_levels_at_default_spectra_grid():
    g = Grid(513, 10.0, 0.25)
    pp = PhysParams(mu=0.0)
    x, p = build_deformed_pair(g, pp)
    h = build_swanson_bf(x, p, pp)
    s = spectrum(h, 6)
    errs = [abs(z.real - (i + 0.5)) for i, z in enumerate(s.values)]
    assert max(errs) < 1e-2


def test_ladder_model_hermitian_when_couplings_match():
    pp = PhysParams(lam=0.04, delta_t=0.04)
    x, p = build_deformed_pair(GRID, pp)
    with pytest.warns(UserWarning, match="Hermitian"):
        h = build_swanson_jr(x, p, pp)
    rel = masked_norm(Operator((h.entries - adjoint(h).entries).real, GRID)) / masked_norm(h)
    assert rel < 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("deformation", [{"tau": 0.1}, {"gamma_t": 0.3}], ids=["tau", "gamma_t"])
def test_deformed_ladder_model_with_matching_couplings_does_not_warn(deformation):
    # lam == delta_t leaves H Hermitian only on the undeformed ladder: at
    # tau = 0.1, or gamma_t = 0.3, H - H† is far from zero.
    pp = PhysParams(lam=0.04, delta_t=0.04, **deformation)
    x, p = build_deformed_pair(GRID, pp)
    h = build_swanson_jr(x, p, pp)
    rel = masked_norm(Operator((h.entries - adjoint(h).entries).real, GRID)) / masked_norm(h)
    assert rel > 1e-2


def test_ladder_model_ground_state_shift():
    # The grid realizes the n + 1/2 ladder for the bare model (lam=delta_t=0),
    # not n + 1: levels land on 0.5, 1.5, 2.5, 3.5 within 1e-2.
    pp = PhysParams()
    x, p = build_deformed_pair(GRID, pp)
    with pytest.warns(UserWarning):
        h = build_swanson_jr(x, p, pp)
    s = spectrum(h, 4)
    for i, z in enumerate(s.values):
        assert abs(z.real - (i + 0.5)) < 1e-2
        assert abs(z.real - (i + 1.0)) > 0.4


def test_ladder_model_real_spectrum_off_diagonal_couplings():
    pp = PhysParams(lam=-0.05, delta_t=0.05)
    x, p = build_deformed_pair(GRID, pp)
    h = build_swanson_jr(x, p, pp)
    s = spectrum(h, 6)
    assert s.reality_measure < 1e-6


# ---------------------------------------------------------------- quadratic form

# Undeformed, deformed, rescaled units, and the gamma_t term.
FORM_PARAMS = [
    {"lam": -0.05, "delta_t": 0.05},
    {"mu": 0.1, "lam": -0.05, "delta_t": 0.05, "tau": 0.01},
    {"hbar": 0.5, "mass": 2.0, "omega": 1.5, "mu": 0.07, "lam": 0.02, "delta_t": 0.09, "tau": 0.1},
    {"mu": -0.03, "lam": 0.1, "delta_t": -0.02, "tau": 0.02, "gamma_t": 0.3},
]


def _gap(a: Operator, b: Operator) -> float:
    """Largest |entry| of A − B over the largest |entry| of B."""
    gap = np.abs(op_sum(a, op_scale(-1.0, b)).coefficients).max(initial=0.0)
    return gap / np.abs(b.coefficients).max()


@pytest.mark.parametrize("n", [257, 1025])
@pytest.mark.parametrize("params", FORM_PARAMS, ids=["plain", "deformed", "units", "gamma_t"])
def test_jr_and_n_equal_their_ladder_products(n, params):
    # The builders expand the ladders into one quadratic form in X and P;
    # the products of build_ladder's a and a_dag give the same operators, in
    # the same band layout, to round-off.
    grid = Grid(n, 8.0, 0.25)
    pp = PhysParams(**params)
    x, p = build_deformed_pair(grid, pp)
    lad = build_ladder(x, p, pp)
    nd = op_product(lad.a_dag, lad.a)
    ladder_jr = op_sum(
        op_scale(pp.omega, nd),
        op_scale(pp.lam, op_product(lad.a, lad.a)),
        op_scale(pp.delta_t, op_product(lad.a_dag, lad.a_dag)),
        Operator.diag(np.full(n, 0.5 * pp.omega), grid),
    )
    ladder_n = op_scale(0.5, op_sum(nd, adjoint(nd)))
    for built, ladder_form in (
        (build_swanson_jr(x, p, pp), ladder_jr),
        (default_number_operator(x, p, pp), ladder_n),
    ):
        assert (built.lo, built.turns) == (ladder_form.lo, ladder_form.turns)
        assert built.coefficients.shape == ladder_form.coefficients.shape
        assert _gap(built, ladder_form) <= 2e-15


def test_every_x_squared_comes_from_one_function(monkeypatch):
    # With _x_squared doubled, each builder gains exactly its c_xx·X^2, and
    # model_equality_report's X2 column doubles, so its coefficient halves.
    grid = Grid(65, 4.0, 0.25)
    pp = PhysParams(**FORM_PARAMS[2])
    qp = QDeformParams(q=1.02, alpha=1.0, beta=0.3, gamma=(1.02**2 + 1) / 4, delta=0.8)
    x, p = build_deformed_pair(grid, pp)
    x2 = op_product(x, x)
    h1 = build_swanson_bf(x, p, pp)
    h2 = build_swanson_bf(x, p, dataclasses.replace(pp, omega=1.0))
    x2_gap = 0.5 * pp.mass * (pp.omega**2 - 1.0)  # h1 − h2 = x2_gap·X^2

    def build_all() -> dict:
        quadratics = []
        form = models._quadratic_form

        def recording(*args):
            quadratics.append(form(*args))
            return quadratics[-1]

        n_op = default_number_operator(x, p, pp)
        with monkeypatch.context() as patch:
            patch.setattr(models, "_quadratic_form", recording)
            deformed_algebra_residual(x, p, n_op, qp, pp)
        fit = model_equality_report(h1, h2, x, p)
        assert len(quadratics) == 1 and fit.unexplained < 1e-13
        return {
            "BF": build_swanson_bf(x, p, pp),
            "JR": build_swanson_jr(x, p, pp),
            "N": n_op,
            "q-algebra": quadratics[0],
            "X2": fit.coefficients["X2"],
        }

    def doubled(op: Operator) -> Operator:
        return op_scale(2.0, op_product(op, op))

    before = build_all()
    monkeypatch.setattr(models, "_x_squared", doubled)
    monkeypatch.setattr(verify, "_x_squared", doubled)
    after = build_all()
    s = 1.0 / (2.0 * pp.mass * pp.hbar * pp.omega)
    gained = {
        "BF": op_scale(0.5 * pp.mass * pp.omega**2, x2),
        "JR": op_scale(s * pp.omega**2 * (pp.omega - pp.lam - pp.delta_t), x2),
        "N": op_scale(0.5 * s * pp.omega**2, op_sum(x2, adjoint(x2))),
        "q-algebra": op_scale(qp.delta * qp.gamma, x2),
    }
    for name, term in gained.items():
        assert _gap(op_sum(after[name], op_scale(-1.0, before[name])), term) < 1e-14, name
    assert before["X2"].real == pytest.approx(x2_gap, rel=1e-12)
    assert after["X2"].real == pytest.approx(x2_gap / 2, rel=1e-12)


# ---------------------------------------------------------------- q-algebra


def test_algebra_q1_reduces_to_canonical():
    pp = PhysParams()
    qp = QDeformParams(q=1.0, alpha=1.0, beta=0.0, gamma=0.5, delta=1.0)
    x, p = build_deformed_pair(GRID, pp)
    r = deformed_algebra_residual(x, p, default_number_operator(x, p, pp), qp, pp)
    assert r < 1e-12


def test_algebra_q1_deformed_pair_residual_golden():
    pp = PhysParams(tau=0.1)
    qp = QDeformParams(q=1.0, alpha=1.0, beta=0.0, gamma=0.5, delta=1.0)
    x, p = build_deformed_pair(GRID, pp)
    r = deformed_algebra_residual(x, p, default_number_operator(x, p, pp), qp, pp)
    assert r == pytest.approx(0.4726624, rel=1e-5)


def test_algebra_q_above_one_golden():
    # small window keeps q^N inside the overflow guard
    g = Grid(65, 4.0, 0.25)
    pp = PhysParams()
    q = 1.1
    qp = QDeformParams(q=q, alpha=1.0, beta=0.0, gamma=(q**2 + 1) / 4, delta=1.0)
    x, p = build_deformed_pair(g, pp)
    r = deformed_algebra_residual(x, p, default_number_operator(x, p, pp), qp, pp)
    assert r == pytest.approx(0.240183, rel=1e-5)


def test_algebra_q_above_one_overflow_guard_on_wide_window():
    pp = PhysParams()
    q = 1.1
    qp = QDeformParams(q=q, alpha=1.0, beta=0.0, gamma=(q**2 + 1) / 4, delta=1.0)
    x, p = build_deformed_pair(GRID, pp)
    with pytest.raises(NumericGuardError):
        deformed_algebra_residual(x, p, default_number_operator(x, p, pp), qp, pp)


def test_algebra_q1_still_rejects_a_non_hermitian_number_operator():
    # No matrix function runs at q = 1, but N is still checked, on its bands.
    pp = PhysParams()
    qp = QDeformParams(q=1.0, alpha=1.0, beta=0.0, gamma=0.5, delta=1.0)
    x, p = build_deformed_pair(GRID, pp)
    lad = build_ladder(x, p, pp)
    with pytest.raises(ValueError, match="Hermitian"):
        deformed_algebra_residual(x, p, op_product(lad.a_dag, x), qp, pp)


def test_algebra_rescale_invariance_at_q1():
    # (alpha, gamma, delta) -> (3*alpha, gamma/3, delta/3) preserves both the
    # constraint and alpha*delta + beta*gamma, so the residual is unchanged.
    pp = PhysParams()
    x, p = build_deformed_pair(GRID, pp)
    n_op = default_number_operator(x, p, pp)
    qp1 = QDeformParams(q=1.0, alpha=1.0, beta=0.0, gamma=0.5, delta=1.0)
    qp3 = QDeformParams(q=1.0, alpha=3.0, beta=0.0, gamma=0.5 / 3.0, delta=1.0 / 3.0)
    r1 = deformed_algebra_residual(x, p, n_op, qp1, pp)
    r3 = deformed_algebra_residual(x, p, n_op, qp3, pp)
    assert r1 == pytest.approx(r3, abs=1e-14)


# ---------------------------------------------------------------- gauge


def test_gauge_identity_when_term_absent():
    s, s_inv = gauge_transform(PhysParams(tau=0.1, gamma_t=0.0), GRID)
    assert np.abs(s.entries - np.eye(GRID.n_points)).max() == 0.0
    assert np.abs(s_inv.entries - np.eye(GRID.n_points)).max() == 0.0


def test_gauge_diagonal_formula_and_inverse():
    pp = PhysParams(tau=0.1, gamma_t=0.3)
    s, s_inv = gauge_transform(pp, GRID)
    expect = (1.0 + 0.1 * GRID.points**2) ** (-0.3 / 0.2)
    assert np.allclose(np.diag(s.entries).real, expect, rtol=1e-12)
    prod = s.entries @ s_inv.entries
    assert np.allclose(prod, np.eye(GRID.n_points), atol=1e-12)


def test_gauge_scalar_limit_matches_exponential():
    # (1+tau)^(-1/(2 tau)) at p=1 approaches e^(-1/2) as tau -> 0
    g = Grid(5, 1.0, 0.0)
    s_small, _ = gauge_transform(PhysParams(tau=1e-6, gamma_t=1.0), g)
    assert s_small.entries[-1, -1].real == pytest.approx(np.exp(-0.5), abs=1e-5)
    s_zero, _ = gauge_transform(PhysParams(tau=0.0, gamma_t=1.0), g)
    assert s_zero.entries[-1, -1].real == pytest.approx(np.exp(-0.5), rel=1e-14)


@pytest.mark.parametrize("tau", [0.0, 0.05, 0.1])
def test_gauge_pair_is_bit_identical_to_the_closed_form(tau):
    # The log-weight form must not move S by one ulp: the gauge-similarity
    # spectra below sit close to round-off.
    g = Grid(513, 10.0, 0.25)
    pp = PhysParams(mu=0.1, tau=tau, gamma_t=0.3)
    p = g.points
    if tau > 0:
        log_s = (-pp.gamma_t / (2.0 * pp.tau)) * np.log1p(pp.tau * p**2)
    else:
        log_s = -0.5 * pp.gamma_t * p**2
    s, s_inv = gauge_transform(pp, g)
    assert np.array_equal(s.coefficients[0], np.exp(log_s))
    assert np.array_equal(s_inv.coefficients[0], 1.0 / np.exp(log_s))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [5e-324, 1e-310])
def test_gauge_where_gamma_over_tau_overflows_is_the_limit(tau):
    # gamma_t/(2 tau) overflows for these positive tau: S is the tau -> 0
    # member exp(-gamma_t p^2/2), with no NaN from inf * log1p(0).
    g = Grid(257, 8.0, 0.25)
    s, s_inv = gauge_transform(PhysParams(tau=tau, gamma_t=0.3), g)
    s0, s0_inv = gauge_transform(PhysParams(tau=0.0, gamma_t=0.3), g)
    assert np.array_equal(s.coefficients, s0.coefficients)
    assert np.array_equal(s_inv.coefficients, s0_inv.coefficients)


def test_gauge_overflow_guard():
    grid = Grid(257, 8.0, 0.25)
    with pytest.raises(NumericGuardError):
        gauge_transform(PhysParams(tau=0.0, gamma_t=3.0), grid)
    # At tau = 0 the log-span is gamma_t * p_max² / 2, against ln 1e14.
    edge = 2.0 * np.log(1e14) / grid.p_max**2
    s, _ = gauge_transform(PhysParams(tau=0.0, gamma_t=edge * (1 - 1e-9)), grid)
    assert s.coefficients[0][0] == pytest.approx(1e-14, rel=1e-6)
    with pytest.raises(NumericGuardError, match="gauge factor condition number"):
        gauge_transform(PhysParams(tau=0.0, gamma_t=edge * (1 + 1e-9)), grid)


def test_gauge_conjugation_removes_linear_term():
    pp = PhysParams(mu=0.1, tau=0.1, gamma_t=0.3)
    r = gauge_conjugation_residual(pp, Grid(513, 10.0, 0.25))
    assert r < 1e-3
    assert r == pytest.approx(2.123e-4, rel=1e-2)


@pytest.mark.xfail(
    strict=True,
    reason="the gauge profile is non-polynomial, so conjugation carries a "
    "second-order spacing floor (2.1e-4 at n_points=513, p_max=10, falling "
    "4x per doubling); the 1e-8 contract first holds at 131073 points "
    "(3.2e-9; 1.3e-8 at 65537)",
)
def test_gauge_conjugation_letter_contract():
    pp = PhysParams(mu=0.1, tau=0.1, gamma_t=0.3)
    assert gauge_conjugation_residual(pp, Grid(513, 10.0, 0.25)) < 1e-8


def test_gauge_similarity_preserves_low_spectrum():
    pp = PhysParams(mu=0.1, tau=0.05, gamma_t=0.2)
    g = Grid(513, 10.0, 0.25)
    x, p = build_deformed_pair(g, pp)
    h = build_swanson_bf(x, p, pp)
    s, s_inv = gauge_transform(pp, g)
    h_sim = Operator((s_inv.entries @ h.entries @ s.entries).real, g)
    e1 = spectrum(h, 6).values
    e2 = spectrum(h_sim, 6).values
    assert max(abs(a.real - b.real) for a, b in zip(e1, e2)) < 1e-6


@pytest.mark.parametrize("tau,gamma_t", [(0.1, 0.1), (0.1, 0.3)])
def test_gauge_similarity_stronger_coupling_characterization(tau, gamma_t):
    # non-normality grows with the gauge weight; eigenvalue agreement
    # degrades to the 1e-5 scale but stays far below the level spacing
    pp = PhysParams(mu=0.1, tau=tau, gamma_t=gamma_t)
    g = Grid(513, 10.0, 0.25)
    x, p = build_deformed_pair(g, pp)
    h = build_swanson_bf(x, p, pp)
    s, s_inv = gauge_transform(pp, g)
    h_sim = Operator((s_inv.entries @ h.entries @ s.entries).real, g)
    e1 = spectrum(h, 6).values
    e2 = spectrum(h_sim, 6).values
    assert max(abs(a.real - b.real) for a, b in zip(e1, e2)) < 1e-4
