"""Metric profiles, built metrics, guards, and limit sweeps."""
import dataclasses

import numpy as np
import pytest

from qhm.gridops import Grid, NumericGuardError
from qhm.metrics import (
    MetricSpec,
    build_metric,
    limit_sweep,
    metric_condition,
    metric_profile,
    profile_distance,
    spec_from_label,
)
from qhm.models import PhysParams

GRID = Grid(257, 8.0, 0.25)


def _deformed(factor: MetricSpec) -> MetricSpec:
    return MetricSpec("Product", factors=(MetricSpec("DeformWeight"), factor))


# ---------------------------------------------------------------- specs


def test_metric_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        MetricSpec("Gaussian")


def test_metric_spec_exp_requires_theta():
    with pytest.raises(ValueError, match="theta"):
        MetricSpec("ExpTheta")


def test_metric_spec_product_type_checked():
    with pytest.raises(ValueError, match="factors"):
        MetricSpec("Product", factors=("BF",))


# ---------------------------------------------------------------- profiles


def test_exp_family_profile_formula():
    pp = PhysParams(mu=0.05)
    g = metric_profile(MetricSpec("BF"), GRID, pp)
    expect = np.exp(2.0 * 0.05 * GRID.points**2)
    assert np.allclose(g, expect, rtol=1e-14)


def test_gaussian_labels_carry_mass_and_frequency():
    pp = PhysParams(mu=0.05, mass=2.0, omega=1.5)
    theta = 2.0 * 0.05 / (2.0 * 1.5**2)
    expect = np.exp(theta * GRID.points**2)
    assert np.allclose(metric_profile(MetricSpec("BF"), GRID, pp), expect, rtol=1e-14)
    composite = metric_profile(spec_from_label("BF-composite"), GRID, pp)
    exp_theta = metric_profile(_deformed(MetricSpec("ExpTheta", theta=theta)), GRID, pp)
    assert np.array_equal(composite, exp_theta)


def test_gaussian_labels_carry_hbar():
    pp = PhysParams(mu=0.05, hbar=0.5, mass=2.0, omega=1.5)
    theta = 2.0 * 0.05 / (0.5 * 2.0 * 1.5**2)
    expect = np.exp(theta * GRID.points**2)
    assert np.allclose(metric_profile(MetricSpec("BF"), GRID, pp), expect, rtol=1e-14)
    composite = metric_profile(spec_from_label("BF-composite"), GRID, pp)
    exp_theta = metric_profile(_deformed(MetricSpec("ExpTheta", theta=theta)), GRID, pp)
    assert np.array_equal(composite, exp_theta)


def test_exp_family_is_identity_at_zero_coupling():
    g = metric_profile(MetricSpec("BF"), GRID, PhysParams(mu=0.0))
    assert np.abs(g - 1.0).max() == 0.0


def test_power_family_scalar_value():
    # (1 + tau p^2)^(mu/(omega^2 tau)) at p=1 with tau=mu=omega=1 gives 2
    g5 = Grid(5, 2.0, 0.0)  # points include p=1
    pp = PhysParams(mu=1.0, tau=1.0)
    g = metric_profile(MetricSpec("JR"), g5, pp)
    j = int(np.argmin(np.abs(g5.points - 1.0)))
    assert g[j] == pytest.approx(2.0, rel=1e-14)


def test_power_family_scalar_limit_reaches_exponential():
    g5 = Grid(5, 2.0, 0.0)
    pp = PhysParams(mu=1.0, tau=1e-4)
    g = metric_profile(MetricSpec("JR"), g5, pp)
    j = int(np.argmin(np.abs(g5.points - 1.0)))
    assert abs(g[j] - np.e) < 1e-3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [5e-324, 1e-310])
def test_power_family_where_kappa_over_tau_overflows_is_the_limit(tau):
    # mu/(omega^2 tau) overflows for these positive tau: the profile is the
    # tau -> 0 member exp(mu p^2/omega^2), not (1 + tau p^2)^inf = 1.
    pp = PhysParams(mu=0.1, omega=1.5, tau=tau)
    limit = metric_profile(MetricSpec("ExpTheta", theta=0.1 / 1.5**2), GRID, pp)
    assert np.array_equal(metric_profile(MetricSpec("JR"), GRID, pp), limit)
    pp0 = dataclasses.replace(pp, tau=0.0)
    jrc = spec_from_label("JR-composite")
    got = metric_profile(jrc, GRID, pp)
    assert np.allclose(got, metric_profile(jrc, GRID, pp0), rtol=1e-15)


def test_power_family_requires_positive_tau():
    with pytest.raises(ValueError, match="tau"):
        metric_profile(MetricSpec("JR"), GRID, PhysParams(mu=0.1, tau=0.0))


def test_deform_weight_profile():
    pp = PhysParams(tau=0.1)
    g = metric_profile(MetricSpec("DeformWeight"), GRID, pp)
    assert np.allclose(g, 1.0 / (1.0 + 0.1 * GRID.points**2), rtol=1e-14)


def test_product_profile_multiplies_pointwise():
    pp = PhysParams(mu=0.05, tau=0.1)
    spec = MetricSpec(
        "Product",
        factors=(MetricSpec("DeformWeight"), MetricSpec("ExpTheta", theta=0.1)),
    )
    g = metric_profile(spec, GRID, pp)
    expect = np.exp(0.1 * GRID.points**2) / (1.0 + 0.1 * GRID.points**2)
    assert np.allclose(g, expect, rtol=1e-14)


@pytest.mark.parametrize(
    "spec",
    [
        spec_from_label("BF-composite"),
        spec_from_label("JR-composite"),
        MetricSpec("Product", factors=(MetricSpec("BF"), MetricSpec("JR"))),
        MetricSpec(
            "Product",
            factors=(
                MetricSpec("DeformWeight"),
                MetricSpec("Product", factors=(MetricSpec("ExpTheta", theta=-0.07),)),
            ),
        ),
    ],
)
def test_product_is_the_pointwise_product_of_its_factors(spec):
    # A Product sums its factors' log-weights and exponentiates once.
    pp = PhysParams(mu=0.1, tau=0.05)
    expect = np.ones(GRID.n_points)
    for f in spec.factors:
        expect = expect * metric_profile(f, GRID, pp)
    assert np.allclose(metric_profile(spec, GRID, pp), expect, rtol=1e-14, atol=0.0)


def test_empty_product_is_the_identity():
    g = metric_profile(MetricSpec("Product"), GRID, PhysParams(mu=0.1))
    assert np.array_equal(g, np.ones(GRID.n_points))


def test_product_with_inverse_profile_is_identity():
    pp = PhysParams()
    spec = MetricSpec(
        "Product",
        factors=(MetricSpec("ExpTheta", theta=0.2), MetricSpec("ExpTheta", theta=-0.2)),
    )
    g = metric_profile(spec, GRID, pp)
    assert np.abs(g - 1.0).max() < 1e-12


# ---------------------------------------------------------------- build


@pytest.mark.parametrize(
    "spec,pp",
    [
        (MetricSpec("BF"), PhysParams(mu=0.1)),
        (MetricSpec("JR"), PhysParams(mu=0.1, tau=0.1)),
        (MetricSpec("ExpTheta", theta=-0.05), PhysParams()),
        (MetricSpec("DeformWeight"), PhysParams(tau=0.2)),
    ],
)
def test_built_metrics_are_positive_read_only_profiles(spec, pp):
    g = build_metric(spec, GRID, pp)
    assert g.dtype == np.float64 and g.shape == (GRID.n_points,)
    assert g.min() > 0
    assert not g.flags.writeable


def test_built_metric_is_the_profile():
    pp = PhysParams(mu=0.08)
    g = build_metric(MetricSpec("BF"), GRID, pp)
    assert np.array_equal(g, metric_profile(MetricSpec("BF"), GRID, pp))


def test_condition_number_value():
    pp = PhysParams(mu=0.1)
    g = build_metric(MetricSpec("BF"), GRID, pp)
    assert metric_condition(g) == pytest.approx(np.exp(0.2 * 64.0), rel=1e-12)
    assert metric_condition(g) == float(g.max() / g.min())


def test_build_overflow_guard():
    with pytest.raises(NumericGuardError, match="condition"):
        build_metric(MetricSpec("BF"), GRID, PhysParams(mu=0.3))
    # The ExpTheta condition number is exp(theta * p_max²), against 1e14.
    edge = np.log(1e14) / GRID.p_max**2
    g = build_metric(MetricSpec("ExpTheta", theta=edge * (1 - 1e-9)), GRID, PhysParams())
    assert metric_condition(g) == pytest.approx(1e14, rel=1e-6)
    with pytest.raises(NumericGuardError, match="condition"):
        build_metric(MetricSpec("ExpTheta", theta=edge * (1 + 1e-9)), GRID, PhysParams())


@pytest.mark.parametrize(
    "label, kappa, expect",
    [
        ("BF-composite", 2 * 0.1, {1e-2: 2.4258e8, 1e-6: 4.8512e8}),
        ("JR-composite", 0.1, {1e-2: 512.0, 1e-6: 2.2013e4}),
    ],
)
def test_composite_guard_headroom_as_tau_vanishes(label, kappa, expect):
    # 513 points, p_max 10, mu 0.1: the condition number grows as tau -> 0
    # towards exp(kappa p_max^2) (4.85e8 and 2.20e4), far below the 1e14
    # bound; JR-composite's kappa is half of BF-composite's.
    grid = Grid(513, 10.0, 0.25)
    conds = {}
    for tau in (1e-2, 1e-4, 1e-6, 0.0):
        pp = PhysParams(mu=0.1, tau=tau)
        conds[tau] = metric_condition(build_metric(spec_from_label(label), grid, pp))
    assert list(conds.values()) == sorted(conds.values())
    assert conds[0.0] == pytest.approx(np.exp(kappa * 100.0), rel=1e-12)
    for tau, value in expect.items():
        assert conds[tau] == pytest.approx(value, rel=1e-4)
    assert conds[0.0] < 1e9


# ---------------------------------------------------------------- distances


def test_profile_distance_normalizes_scalar_factors():
    pp = PhysParams(mu=0.1)
    a = metric_profile(MetricSpec("BF"), GRID, pp)
    b = np.exp(0.1 * GRID.points**2)
    d0 = profile_distance(a, b, GRID)
    d1 = profile_distance(7.3 * a, b, GRID)
    d2 = profile_distance(a, 7.3 * b, GRID)
    assert d0 == pytest.approx(d1, rel=1e-12)
    assert d0 == pytest.approx(d2, rel=1e-12)


# ---------------------------------------------------------------- sweeps


def test_sweep_requires_positive_decreasing_tau():
    pp = PhysParams(mu=0.1)
    ref = MetricSpec("ExpTheta", theta=0.2)
    with pytest.raises(ValueError, match="decreasing"):
        limit_sweep(MetricSpec("JR"), [1e-3, 1e-2], ref, GRID, pp)
    with pytest.raises(ValueError, match="positive"):
        limit_sweep(MetricSpec("JR"), [1e-2, -1e-3], ref, GRID, pp)


def test_sweep_exp_family_vs_matching_reference_is_zero():
    # the exp family never depends on tau, so its distance to its own
    # profile is identically zero along the sweep
    pp = PhysParams(mu=0.1)
    rows = limit_sweep(
        MetricSpec("BF"),
        [1e-1, 1e-2, 1e-3, 1e-4],
        MetricSpec("ExpTheta", theta=0.2),
        GRID,
        pp,
    )
    assert [d for _, d in rows] == [0.0, 0.0, 0.0, 0.0]


def test_sweep_power_family_converges_to_scalar_limit():
    pp = PhysParams(mu=0.1)
    rows = limit_sweep(
        MetricSpec("JR"),
        [1e-1, 1e-2, 1e-3, 1e-4],
        MetricSpec("ExpTheta", theta=0.1),
        GRID,
        pp,
    )
    dists = [d for _, d in rows]
    golden = [3.279539e-01, 6.861422e-02, 7.743795e-03, 7.845382e-04]
    for got, want in zip(dists, golden):
        assert got == pytest.approx(want, rel=1e-4)
    assert dists[0] / dists[-1] > 100.0
    assert all(a > b for a, b in zip(dists, dists[1:]))  # monotone family


def test_sweep_power_family_plateaus_against_doubled_reference():
    # against exp(2 mu p^2) the distance saturates at a strictly positive
    # plateau: the tau->0 profile is exp(mu p^2), not exp(2 mu p^2)
    pp = PhysParams(mu=0.1)
    rows = limit_sweep(
        MetricSpec("JR"),
        [1e-1, 1e-2, 1e-3, 1e-4],
        MetricSpec("ExpTheta", theta=0.2),
        GRID,
        pp,
    )
    dists = [d for _, d in rows]
    golden = [8.292612e-01, 7.528807e-01, 7.349044e-01, 7.328506e-01]
    for got, want in zip(dists, golden):
        assert got == pytest.approx(want, rel=1e-4)
    assert dists[-1] > 0.01


# ---------------------------------------------------------------- labels


def test_label_round_trip():
    assert spec_from_label("BF").kind == "BF"
    assert spec_from_label("JR").kind == "JR"
    assert spec_from_label("DeformWeight").kind == "DeformWeight"
    exp = spec_from_label("ExpTheta(0.25)")
    assert exp.kind == "ExpTheta" and exp.theta == 0.25
    assert spec_from_label("BF-composite") == _deformed(MetricSpec("BF"))
    assert spec_from_label("JR-composite") == _deformed(MetricSpec("JR"))


def test_label_rejects_unknown():
    with pytest.raises(ValueError, match="unknown metric label"):
        spec_from_label("bogus")
    with pytest.raises(ValueError, match="unknown metric label"):
        spec_from_label("ExpTheta-composite")
    with pytest.raises(ValueError, match="ExpTheta"):
        spec_from_label("ExpTheta(abc)")


def test_composite_profiles_are_the_deformed_gaussians():
    # mu = 0.05: BF-composite is DeformWeight times exp(0.1 p^2) at every
    # tau, and at tau = 0 JR-composite is exp(0.05 p^2).
    pp = PhysParams(mu=0.05, tau=0.01)
    bfc = metric_profile(spec_from_label("BF-composite"), GRID, pp)
    expect = metric_profile(_deformed(MetricSpec("ExpTheta", theta=0.1)), GRID, pp)
    assert np.array_equal(bfc, expect)
    pp0 = PhysParams(mu=0.05)
    jrc0 = metric_profile(spec_from_label("JR-composite"), GRID, pp0)
    expect = metric_profile(MetricSpec("ExpTheta", theta=0.05), GRID, pp0)
    assert np.array_equal(jrc0, expect)


@pytest.mark.parametrize("tau", [0.0, 1e-310, 0.01])
@pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
def test_composite_profiles_are_the_written_out_products(hbar, tau):
    # Bit for bit: BF-composite is DeformWeight times
    # ExpTheta(2 mu/(hbar m omega^2)), and JR-composite is DeformWeight times
    # ExpTheta(mu/omega^2) at tau = 0 and DeformWeight times JR at tau > 0.
    pp = PhysParams(mu=0.1, hbar=hbar, mass=2.0, omega=1.5, tau=tau)
    theta = 2.0 * pp.mu / (pp.hbar * pp.mass * pp.omega**2)
    bf = _deformed(MetricSpec("ExpTheta", theta=theta))
    jr = _deformed(
        MetricSpec("JR") if tau > 0 else MetricSpec("ExpTheta", theta=pp.mu / pp.omega**2)
    )
    for label, spec in (("BF-composite", bf), ("JR-composite", jr)):
        got = metric_profile(spec_from_label(label), GRID, pp)
        assert np.array_equal(got, metric_profile(spec, GRID, pp))


def test_composite_profiles_positive():
    pp = PhysParams(mu=0.05, tau=0.01)
    for label in ("BF-composite", "JR-composite"):
        assert metric_profile(spec_from_label(label), GRID, pp).min() > 0
