"""Tests for metric verification: Dieudonne residuals, Hermitian counterparts,
filtered spectra, and diagonal-metric fitting."""

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
    build_swanson_jr,
    check_X_quasi_hermiticity,
    dieudonne_details,
    dieudonne_residual,
    fit_diagonal_metric,
    hermitian_counterpart,
    hermitian_matrix_function,
    log_quadratic_coefficient,
    model_equality_report,
    smooth_probes,
    spec_from_label,
    spectrum,
)
from qhm.gridops import (
    action_residual,
    adjoint,
    interior_action,
    masked_norm,
    op_product,
    op_scale,
    op_sum,
    stencil_probes,
)
from qhm.metrics import metric_condition
from qhm.verify import _even_cheb_basis, _fit_matrix


def _bf_setup(n=513, p_max=10.0, mu=0.1, tau=0.0, gamma_t=0.0):
    grid = Grid(n, p_max, 0.25)
    pp = PhysParams(mu=mu, tau=tau, gamma_t=gamma_t)
    x, p = build_deformed_pair(grid, pp)
    return grid, pp, build_swanson_bf(x, p, pp)


class TestDieudonneResidual:
    def test_hermitian_H_identity_metric_is_exactly_zero(self):
        grid, pp, ham = _bf_setup(n=257, p_max=8.0, mu=0.0)
        assert dieudonne_residual(ham, np.ones(grid.n_points)) == 0.0

    def test_invariant_under_metric_rescaling(self):
        grid, pp, ham = _bf_setup()
        rho = build_metric(MetricSpec("ExpTheta", theta=0.2), grid, pp)
        r1 = dieudonne_residual(ham, rho)
        r2 = dieudonne_residual(ham, 7.3 * rho)
        assert abs(r1 - r2) < 1e-12

    def test_matching_metric_residual_golden(self):
        # exp(0.2 p^2) intertwines the mu=0.1 quadratic Hamiltonian up to
        # the second-order grid floor.
        grid, pp, ham = _bf_setup()
        rho = build_metric(MetricSpec("ExpTheta", theta=0.2), grid, pp)
        res = dieudonne_residual(ham, rho)
        assert res == pytest.approx(6.441760e-4, rel=1e-4)

    def test_mismatched_metric_residual_golden(self):
        grid, pp, ham = _bf_setup()
        rho = build_metric(MetricSpec("ExpTheta", theta=0.1), grid, pp)
        res = dieudonne_residual(ham, rho)
        assert res == pytest.approx(1.327281e-1, rel=1e-4)

    def test_details_report_action_and_matrix_measurements(self):
        grid, pp, ham = _bf_setup()
        rho = build_metric(MetricSpec("ExpTheta", theta=0.2), grid, pp)
        details = dieudonne_details(ham, rho)
        assert details["masked"] is True
        assert details["action"] == pytest.approx(
            dieudonne_residual(ham, rho), rel=1e-12
        )
        # The raw interior-block matrix comparison sits on a different (and
        # coarser) floor than the probe-action measurement.
        assert details["matrix"] == pytest.approx(1.118115e-2, rel=1e-4)

    def test_dimension_mismatch_rejected(self):
        grid, pp, ham = _bf_setup(n=129)
        with pytest.raises(ValueError, match="of 129 entries"):
            dieudonne_residual(ham, np.ones(257))

    def test_non_positive_diagonal_metric_warns(self):
        grid, pp, ham = _bf_setup(n=129)
        with pytest.warns(UserWarning):
            dieudonne_residual(ham, -np.ones(129))

    def test_details_refuse_a_zero_hamiltonian(self):
        # The probe residual of a zero H is 0, but the matrix residual has
        # no norm of H to be relative to.
        grid = Grid(33, 8.0, 0.25)
        zero = Operator.diag(np.zeros(33), grid)
        assert dieudonne_residual(zero, np.ones(33)) == 0.0
        with pytest.raises(ValueError, match="relative normalization against a zero block"):
            dieudonne_details(zero, np.ones(33))


class TestGaussianLabelsAwayFromUnitMassAndFrequency:
    """``BF`` and ``BF-composite`` carry θ = 2μ/(ħmω²): at ω, m or ħ ≠ 1 they
    intertwine the τ = 0 Hamiltonian to the h² grid floor, which falls ×4
    from 513 to 1025 points, while θ = 2μ (ω, m and ħ left out) or 2μ/ω²
    (m left out) leave a residual that does not shrink."""

    @staticmethod
    def _residuals(pp, label):
        out = []
        for n in (513, 1025):
            grid = Grid(n, 10.0, 0.25)
            x, p = build_deformed_pair(grid, pp)
            rho = build_metric(spec_from_label(label), grid, pp)
            out.append(dieudonne_residual(build_swanson_bf(x, p, pp), rho))
        return out

    @pytest.mark.parametrize(
        "kw", [{"omega": 1.5}, {"mass": 2.0}], ids=["omega1.5", "mass2"]
    )
    @pytest.mark.parametrize("label", ["BF", "BF-composite"])
    def test_label_converges_at_h_squared(self, kw, label):
        pp = PhysParams(hbar=1.0, mu=0.1, **kw)
        coarse, fine = self._residuals(pp, label)
        assert coarse < 2e-3
        assert coarse / fine == pytest.approx(4.0, rel=0.05)
        # θ = 2μ = 0.2 is what the stale labels gave in both cases
        stale_coarse, stale_fine = self._residuals(pp, "ExpTheta(0.2)")
        assert stale_coarse > 0.1
        assert stale_coarse / stale_fine == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize(
        "hbar, mu, stale", [(2.0, 0.1, 0.387), (0.5, 0.05, 3.9e-2)], ids=["hbar2", "hbar0.5"]
    )
    @pytest.mark.parametrize("label", ["BF", "BF-composite"])
    def test_label_carries_hbar(self, hbar, mu, stale, label):
        # θ = 2μ/(ħmω²): 1.26e-3 → 3.2e-4 at ħ = 2 and 1.7e-4 → 4.2e-5 at
        # ħ = 0.5, where θ = 2μ (ħ left out) stays at a plateau.
        pp = PhysParams(hbar=hbar, mu=mu)
        coarse, fine = self._residuals(pp, label)
        assert coarse < 2e-3
        assert coarse / fine == pytest.approx(4.0, rel=0.05)
        stale_coarse, stale_fine = self._residuals(pp, f"ExpTheta({2.0 * mu})")
        assert stale_coarse == pytest.approx(stale, rel=0.01)
        assert stale_coarse / stale_fine == pytest.approx(1.0, abs=0.05)


class TestPositionQuasiHermiticity:
    def test_deform_weight_metric_intertwines_deformed_position(self):
        grid = Grid(257, 8.0, 0.25)
        pp = PhysParams(tau=0.1)
        x, p = build_deformed_pair(grid, pp)
        eta = build_metric(MetricSpec("DeformWeight"), grid, pp)
        assert check_X_quasi_hermiticity(x, eta) < 1e-13

    def test_identity_metric_misses_by_the_weighted_momentum_defect(self):
        # With eta = I the defect X^dag - X equals -2i hbar tau diag(p); the
        # probe measurement must agree with that prediction exactly.
        grid = Grid(257, 8.0, 0.25)
        pp = PhysParams(tau=0.1)
        x, p = build_deformed_pair(grid, pp)
        measured = check_X_quasi_hermiticity(x, np.ones(257))

        probes = stencil_probes(grid)
        sl = grid.interior()
        xa = x.entries
        lhs = xa.conj().T @ probes
        rhs = xa @ probes
        expect = np.linalg.norm((lhs - rhs)[sl]) / max(
            np.linalg.norm(lhs[sl]), np.linalg.norm(rhs[sl])
        )
        assert measured == pytest.approx(expect, rel=1e-12)
        assert measured > 1e-3


def _product_built(a, g, probes):
    """The residual of A†ρ = ρA, ρ = diag(g), from the operator products A†ρ
    and ρA."""
    rho = Operator.diag(g, a.grid)
    return action_residual(op_product(adjoint(a), rho), op_product(rho, a), probes)


def _deformed_models(n):
    grid = Grid(n, 8.0, 0.25)
    pp = PhysParams(mu=0.1, tau=0.05, lam=-0.05, delta_t=0.05)
    x, p = build_deformed_pair(grid, pp)
    hams = {
        "BF": build_swanson_bf(x, p, pp),
        "JR": build_swanson_jr(x, p, pp),
    }
    return grid, pp, x, hams


class TestIntertwiningFromProbeActions:
    """The Dieudonné and X residuals are measured from probe actions, with no
    operator product.  The product-built residuals agree to round-off: over
    BF/JR, the four labels, μ 0.05–0.15, τ 0.01–0.1 and p_max 8/10 the worst
    relative difference was 5e-15 at 129 points, 1e-13 at 257 and 1.1e-12 at
    513, against the 1e-11 used here; it grows with n as the two sides
    cancel to a smaller residual."""

    TOL = 1e-11

    @pytest.mark.parametrize("n", [129, 257, 513])
    @pytest.mark.parametrize("label", ["BF", "JR", "BF-composite", "JR-composite"])
    def test_dieudonne_residual_and_details_match_the_products(self, n, label):
        grid, pp, _, hams = _deformed_models(n)
        rho = build_metric(spec_from_label(label), grid, pp)
        for ham in hams.values():
            expect = _product_built(ham, rho, smooth_probes(grid))
            assert dieudonne_residual(ham, rho) == pytest.approx(expect, rel=self.TOL)
            action = dieudonne_details(ham, rho)["action"]
            assert action == pytest.approx(expect, rel=self.TOL)

    @pytest.mark.parametrize("n", [129, 513, 1025])
    @pytest.mark.parametrize(
        "label", ["BF", "ExpTheta(0.1)", "BF-composite", "JR-composite"]
    )
    def test_details_matrix_matches_the_products(self, n, label):
        # ``matrix`` is read from the bands; the norm of the product-built
        # H†ρ − ρH is the reference.
        grid, pp, _, hams = _deformed_models(n)
        g = build_metric(spec_from_label(label), grid, pp)
        rho = Operator.diag(g, grid)
        for ham in hams.values():
            diff = op_sum(op_product(adjoint(ham), rho), op_scale(-1.0, op_product(rho, ham)))
            expect = masked_norm(diff) / (masked_norm(ham) * masked_norm(rho))
            matrix = dieudonne_details(ham, g)["matrix"]
            assert matrix == pytest.approx(expect, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [129, 257, 513])
    def test_x_residual_matches_the_products(self, n):
        grid, pp, x, _ = _deformed_models(n)
        probes = stencil_probes(grid)
        gaussian = build_metric(spec_from_label("BF"), grid, pp)
        expect = _product_built(x, gaussian, probes)
        measured = check_X_quasi_hermiticity(x, gaussian)
        assert measured == pytest.approx(expect, rel=self.TOL)
        # The deformation weight solves X†η = ηX: both residuals sit at
        # round-off (at most 1.1e-14 in the sweep above), so compare absolutely.
        eta = build_metric(MetricSpec("DeformWeight"), grid, pp)
        expect = _product_built(x, eta, probes)
        assert check_X_quasi_hermiticity(x, eta) == pytest.approx(expect, abs=1e-13)

    @pytest.mark.parametrize(
        "bad",
        [np.ones((129, 1)), np.ones(129, dtype=complex), np.ones(127), np.ones(129, dtype=int),
         Operator.diag(np.ones(129), Grid(129, 8.0, 0.25))],
        ids=["2-D", "complex", "wrong-length", "integer", "operator"],
    )
    def test_a_profile_that_is_not_1d_float64_on_the_grid_is_refused(self, bad):
        # Every public consumer of a metric checks the profile at its boundary.
        grid, pp, x, hams = _deformed_models(129)
        ham = hams["BF"]
        consumers = [
            lambda g: dieudonne_residual(ham, g),
            lambda g: dieudonne_details(ham, g),
            lambda g: check_X_quasi_hermiticity(x, g),
            lambda g: hermitian_counterpart(ham, g),
        ]
        if getattr(bad, "shape", None) != (127,):  # metric_condition has no grid
            consumers.append(metric_condition)
        for consumer in consumers:
            with pytest.raises(ValueError, match="a metric is a 1-D float64 profile"):
                consumer(bad)

    def test_residuals_form_no_operator_product(self, monkeypatch):
        grid, pp, x, hams = _deformed_models(129)
        rho = build_metric(spec_from_label("BF-composite"), grid, pp)
        eta = build_metric(MetricSpec("DeformWeight"), grid, pp)
        expect_h = _product_built(hams["JR"], rho, smooth_probes(grid))
        expect_x = _product_built(x, eta, stencil_probes(grid))

        def refuse(a, b):
            raise AssertionError("op_product called")

        monkeypatch.setattr("qhm.verify.op_product", refuse)
        monkeypatch.setattr("qhm.verify.op_sum", refuse)
        measured = dieudonne_residual(hams["JR"], rho)
        assert measured == pytest.approx(expect_h, rel=self.TOL)
        details = dieudonne_details(hams["JR"], rho)
        assert details["action"] == measured
        assert check_X_quasi_hermiticity(x, eta) == pytest.approx(expect_x, abs=1e-13)


class TestHermitianCounterpart:
    def test_identity_metric_returns_input(self):
        grid, pp, ham = _bf_setup(n=257, p_max=8.0)
        h, res = hermitian_counterpart(ham, np.ones(257))
        assert np.allclose(h.entries, ham.entries, atol=1e-13)

    def test_matching_metric_makes_counterpart_hermitian(self):
        grid, pp, ham = _bf_setup()
        rho = build_metric(MetricSpec("ExpTheta", theta=0.2), grid, pp)
        _, res = hermitian_counterpart(ham, rho)
        assert res == pytest.approx(1.6080e-3, rel=1e-3)

    def test_mismatched_metric_leaves_large_defect(self):
        grid, pp, ham = _bf_setup()
        rho = build_metric(MetricSpec("ExpTheta", theta=0.1), grid, pp)
        _, res = hermitian_counterpart(ham, rho)
        assert res == pytest.approx(1.4209e-1, rel=1e-3)
        assert res > 1e-2

    def test_residuals_decrease_under_refinement(self):
        herm = []
        dieu = []
        for n in (129, 257, 513):
            grid, pp, ham = _bf_setup(n=n)
            rho = build_metric(MetricSpec("ExpTheta", theta=0.2), grid, pp)
            dieu.append(dieudonne_residual(ham, rho))
            herm.append(hermitian_counterpart(ham, rho)[1])
        for seq in (herm, dieu):
            assert seq[0] / seq[1] > 3.0
            assert seq[1] / seq[2] > 3.0

    def test_nan_on_the_metric_diagonal_is_refused(self):
        grid, pp, ham = _bf_setup(n=129, p_max=8.0)
        d = np.ones(grid.n_points)
        d[5] = np.nan
        with pytest.raises(NumericGuardError, match="NaN"):
            hermitian_counterpart(ham, d)

    def test_counterpart_rejects_a_non_positive_profile(self):
        grid, pp, ham = _bf_setup(n=129, p_max=8.0)
        with pytest.raises(NumericGuardError, match="strictly positive"):
            hermitian_counterpart(ham, np.linspace(-1, 1, 129))

    def test_counterpart_dynamic_range_guard_boundary(self):
        # max/min of the profile may reach 1e14, not exceed it.
        grid, pp, ham = _bf_setup(n=129, p_max=8.0)
        g = np.linspace(1.0, 1e14, 129)
        h, _ = hermitian_counterpart(ham, g)
        # Entry (i, j) of h is √g[i]·H[i, j]·(1/√g[j]).
        i, j = 100, 101
        expect = np.sqrt(g[i]) * ham.entries[i, j] * (1.0 / np.sqrt(g[j]))
        assert h.entries[i, j] == pytest.approx(expect, rel=1e-15)
        above = np.linspace(1.0, np.nextafter(1e14, np.inf), 129)
        with pytest.raises(NumericGuardError, match="condition number"):
            hermitian_counterpart(ham, above)

    def test_imaginary_diagonal_metric_is_refused(self):
        # An imaginary diagonal is not a metric: a complex profile is refused
        # before its square roots, and the matrix functions refuse the
        # imaginary diagonal operator as not Hermitian.
        grid, pp, ham = _bf_setup(n=129, p_max=8.0)
        bad = 1e-3j * np.ones(grid.n_points)
        with pytest.raises(ValueError, match="float64 profile"):
            hermitian_counterpart(ham, bad)
        with pytest.raises(ValueError, match="Hermitian"):
            imaginary = op_scale(1j, Operator.diag(bad.imag, grid))
            hermitian_matrix_function(imaginary, np.sqrt, np.eye(grid.n_points))


class TestSpectrum:
    def test_hermitian_matrix_has_tiny_reality_measure(self):
        grid, pp, ham = _bf_setup(n=257, p_max=8.0, mu=0.0)
        result = spectrum(ham, 4)
        assert result.reality_measure < 1e-10

    def test_similarity_invariance_after_filtering(self):
        # The interior-mass filter plus near-duplicate merging must produce
        # the same low-lying levels for H and its similarity transform.
        grid, pp, ham = _bf_setup()
        rho = build_metric(MetricSpec("ExpTheta", theta=0.2), grid, pp)
        h, _ = hermitian_counterpart(ham, rho)
        s1 = spectrum(ham, 6)
        s2 = spectrum(h, 6)
        diff = max(abs(a - b) for a, b in zip(s1.values, s2.values))
        assert diff < 1e-6

    def test_level_count_validation_and_truncation(self):
        # An exactly even diagonal on an unmasked grid: the levels 1 and 3
        # each appear in both parity blocks and merge, so three remain.
        op = Operator.diag([3.0, 1.0, 2.0, 1.0, 3.0], Grid(5, 1.0, 0.0))
        with pytest.raises(ValueError):
            spectrum(op, 0)
        # Asking for more levels than exist returns what is available.
        assert len(spectrum(op, 7).values) == 3

    def test_raw_array_is_refused(self):
        with pytest.raises(TypeError, match="Operator"):
            spectrum(np.eye(3), 1)


class TestFitDiagonalMetric:
    def test_hermitian_input_fits_exactly_constant_profile(self):
        grid, pp, ham = _bf_setup(n=513, mu=0.0)
        fit = fit_diagonal_metric(ham, pp)
        assert fit.status == "OK"
        assert np.max(np.abs(fit.profile - 1.0)) == 0.0

    def test_quadratic_model_recovers_gaussian_log_slope(self):
        grid, pp, ham = _bf_setup()
        fit = fit_diagonal_metric(ham, pp)
        assert fit.status == "OK"
        assert log_quadratic_coefficient(fit) == pytest.approx(0.200537, rel=1e-4)

    def test_fit_quality_goldens(self):
        grid, pp, ham = _bf_setup()
        fit = fit_diagonal_metric(ham, pp)
        assert fit.fit_residual == pytest.approx(5.4439e-5, rel=1e-3)
        assert fit.sigma_gap == pytest.approx(1.0308e-2, rel=1e-3)

    def test_undeformed_fit_identifies_nearest_candidate(self):
        grid, pp, ham = _bf_setup()
        fit = fit_diagonal_metric(ham, pp)
        assert fit.nearest == "BF-composite"
        assert fit.distances["BF-composite"] == pytest.approx(1.0417e-2, rel=1e-3)
        assert fit.distances["JR-composite"] == pytest.approx(7.5801, rel=1e-3)

    def test_deformed_fit_still_favors_gaussian_family(self):
        grid, pp, ham = _bf_setup(tau=0.1)
        fit = fit_diagonal_metric(ham, pp)
        assert fit.status == "OK"
        assert fit.nearest == "BF-composite"
        assert fit.distances["BF-composite"] == pytest.approx(0.861010, rel=1e-3)
        assert fit.distances["JR-composite"] == pytest.approx(1.138855, rel=1e-3)

    def test_sign_indefinite_solution_flagged_invalid(self):
        # An anti-Hermitian diagonal operator forces the least-squares
        # profile to concentrate near p = 0, and the truncated even basis
        # then oscillates through zero.
        grid = Grid(513, 10.0, 0.25)
        pp = PhysParams(mu=0.1)
        bad = op_scale(1j, Operator(np.diag(grid.points**2), grid))
        fit = fit_diagonal_metric(bad, pp)
        assert fit.status == "INVALID"
        assert fit.profile.min() < 0

    def test_zero_operator_is_ambiguous(self):
        grid = Grid(513, 10.0, 0.25)
        pp = PhysParams(mu=0.1)
        zero = Operator(np.zeros((513, 513)), grid)
        fit = fit_diagonal_metric(zero, pp)
        assert fit.status == "AMBIGUOUS"
        assert fit.sigma_gap < 1e-8

    @pytest.mark.parametrize("model", ["BF", "JR"])
    def test_fit_matrix_matches_product_built_one(self, model):
        grid = Grid(129, 8.0, 0.25)
        pp = PhysParams(mu=0.1, tau=0.01, lam=-0.05, delta_t=0.05)
        x, p = build_deformed_pair(grid, pp)
        if model == "BF":
            ham = build_swanson_bf(x, p, pp)
        else:
            ham = build_swanson_jr(x, p, pp)
        basis = _even_cheb_basis(grid.points, 7.0, 10)
        probes = smooth_probes(grid)
        hd = adjoint(ham)
        cols = []
        for k in range(basis.shape[1]):
            g = Operator.diag(basis[:, k], grid)
            m = op_sum(op_product(hd, g), op_scale(-1.0, op_product(g, ham)))
            cols.append(interior_action(m, probes).ravel())
        expect = np.stack(cols, axis=1)
        got = _fit_matrix(ham, basis, probes)
        assert got.dtype == np.float64
        err = np.linalg.norm(got - expect, axis=0) / np.linalg.norm(expect, axis=0)
        assert err.max() <= 1e-13

    def test_tiny_interior_rejected(self):
        grid = Grid(9, 2.0, 0.25)
        pp = PhysParams(mu=0.1)
        ham = Operator(np.eye(9), grid)
        with pytest.raises(ValueError):
            fit_diagonal_metric(ham, pp)

    def test_log_slope_requires_positive_profile(self):
        grid, pp, ham = _bf_setup()
        fit = fit_diagonal_metric(ham, pp)
        broken = type(fit)(
            status=fit.status,
            profile=-np.abs(fit.profile),
            points=fit.points,
            fit_residual=fit.fit_residual,
            sigma_gap=fit.sigma_gap,
            distances=fit.distances,
            nearest=fit.nearest,
        )
        with pytest.raises(ValueError):
            log_quadratic_coefficient(broken)


class TestModelEquality:
    def test_identical_inputs_fully_explained(self):
        grid, pp, ham = _bf_setup(n=257, p_max=8.0)
        x, p = build_deformed_pair(grid, pp)
        report = model_equality_report(ham, ham, x, p)
        assert report.unexplained == 0.0
        assert all(abs(c) < 1e-12 for c in report.coefficients.values())

    def test_constant_shift_lands_on_identity_coefficient(self):
        grid, pp, ham = _bf_setup(n=257, p_max=8.0)
        x, p = build_deformed_pair(grid, pp)
        shifted = Operator((ham.entries + 3.0 * np.eye(257)).real, grid)
        report = model_equality_report(shifted, ham, x, p)
        assert report.coefficients["I"] == pytest.approx(3.0, abs=1e-10)
        assert report.unexplained < 1e-12

    def test_cross_model_difference_is_a_weighted_anticommutator(self):
        grid = Grid(257, 8.0, 0.25)
        pp = PhysParams(mu=0.1, lam=-0.05, delta_t=0.05)
        x, p = build_deformed_pair(grid, pp)
        h_jr = build_swanson_jr(x, p, pp)
        h_bf = build_swanson_bf(x, p, pp)
        report = model_equality_report(h_jr, h_bf, x, p)
        assert report.unexplained < 1e-8
        # The fitted anticommutator weight matches the half-difference of
        # the ladder couplings, not the nominal input weight.
        mu_fitted = pp.mu + report.anticommutator_coefficient.imag
        assert mu_fitted == pytest.approx(0.05, abs=1e-10)

    @pytest.mark.parametrize("mu, tau", [(0.1, 0.0), (0.1, 0.01), (0.3, 0.05)])
    def test_the_real_fit_is_the_complex_least_squares(self, mu, tau):
        # Each column and H1 − H2 are i^t times a real vector: the real
        # minimum-norm fit, turned back by the phases, is numpy's complex one.
        grid = Grid(129, 8.0, 0.25)
        pp = PhysParams(mu=mu, tau=tau, lam=-0.05, delta_t=0.05)
        x, p = build_deformed_pair(grid, pp)
        h_jr = build_swanson_jr(x, p, pp)
        h_bf = build_swanson_bf(x, p, pp)
        report = model_equality_report(h_jr, h_bf, x, p)
        p2, x2 = op_product(p, p), op_product(x, x)
        columns = [
            Operator.diag(np.ones(grid.n_points), grid), p, p2, op_product(p2, p2),
            x2, op_product(x, p), op_product(p, x),
            op_scale(0.5, op_sum(op_product(x2, p2), op_product(p2, x2))),
        ]
        sl = grid.interior()
        a = np.stack([c.entries[sl, sl].ravel() for c in columns], axis=1)
        b = (h_jr.entries - h_bf.entries)[sl, sl].ravel()
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        got = np.array(list(report.coefficients.values()))
        assert np.abs(got - sol).max() <= 1e-9 * np.abs(sol).max()
        # An exact fit leaves round-off, where only an absolute bound holds.
        unexplained = np.linalg.norm(a @ sol - b) / np.linalg.norm(b)
        assert report.unexplained == pytest.approx(unexplained, rel=1e-6, abs=1e-12)

    def test_a_non_finite_column_is_refused_by_name(self):
        # At p_max = 1e80 the Hamiltonians are finite but P⁴ overflows; the
        # overflow raises no RuntimeWarning before the guard.
        grid = Grid(33, 1e80, 0.25)
        pp = PhysParams(mu=0.1, tau=0.01, lam=-0.05, delta_t=0.05)
        x, p = build_deformed_pair(grid, pp)
        h_jr = build_swanson_jr(x, p, pp)
        h_bf = build_swanson_bf(x, p, pp)
        with pytest.raises(NumericGuardError, match="column P4 has non-finite"):
            model_equality_report(h_jr, h_bf, x, p)
