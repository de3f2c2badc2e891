from decimal import Decimal, localcontext

import numpy as np
import pytest

from cellfree import power
from cellfree.deployment import NetworkLayout, Region, place_ppp, worst_position
from cellfree.power import (
    DEFAULT_RHO,
    TAU_C,
    PowerPlan,
    optimal_pilot_power,
    optimize_pilot_power,
    uniform_plan,
)
from cellfree.propagation import path_gain
from cellfree.snr import lambda_ls

ENERGY = DEFAULT_RHO * TAU_C


def rho_d_of(rho_p, tau_p):
    return (ENERGY - rho_p * tau_p) / (TAU_C - tau_p)


def lambda_of(rho_p, beta, tau_p):
    return lambda_ls(beta, rho_p, tau_p, rho_d_of(rho_p, tau_p))


def golden_section_min(f, lo, hi, tol=1e-12):
    # independent 1-D oracle for the pilot-power optimum
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol * (abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def test_plan_budget_identity_exact():
    for rho_p in (0.5 * DEFAULT_RHO, DEFAULT_RHO, 7.0 * DEFAULT_RHO):
        tau_p = 3
        plan = PowerPlan(tau_p=tau_p, rho_p=rho_p, rho_d=rho_d_of(rho_p, tau_p))
        assert plan.rho_p * tau_p + plan.rho_d * (TAU_C - tau_p) == pytest.approx(
            ENERGY, rel=1e-12
        )


def test_plan_validation_rejects_budget_violation():
    with pytest.raises(ValueError):
        PowerPlan(tau_p=1, rho_p=100.0 * DEFAULT_RHO, rho_d=DEFAULT_RHO)
    with pytest.raises(ValueError):  # no sample left for data
        PowerPlan(tau_p=TAU_C, rho_p=DEFAULT_RHO, rho_d=DEFAULT_RHO)


@pytest.mark.parametrize("beta,tau_p", [(1e-9, 1), (3e-10, 2), (5e-11, 4), (2e-8, 1)])
def test_optimal_pilot_power_matches_golden_section(beta, tau_p):
    star = optimal_pilot_power(beta, tau_p)
    hi = ENERGY / tau_p
    oracle = golden_section_min(lambda x: lambda_of(x, beta, tau_p), hi * 1e-9, hi * (1 - 1e-9))
    assert star == pytest.approx(oracle, rel=1e-3)
    assert lambda_of(star, beta, tau_p) <= lambda_of(DEFAULT_RHO, beta, tau_p)


def textbook_root(beta, tau_p):
    """(-c0 tau_p + sqrt(disc)) / (c1 tau_p) in 60-digit decimal arithmetic.

    At TAU_C - tau_p = 1, c1 = 0 and the quadratic is linear, root E / (2 tau_p).
    """
    with localcontext() as ctx:
        ctx.prec = 60
        beta, energy, tau_p = (Decimal(float(v)) for v in (beta, ENERGY, tau_p))
        d = Decimal(TAU_C) - tau_p
        c0 = 1 + beta * energy / d
        c1 = beta * tau_p * (1 - 1 / d)
        if c1 == 0:
            return float(energy / (2 * tau_p))
        disc = (c0 * tau_p) ** 2 + c1 * tau_p * c0 * energy
        return float((-c0 * tau_p + disc.sqrt()) / (c1 * tau_p))


def test_optimal_pilot_power_fuzz_full_range():
    # rho*beta from 1e-18 to 1e12, tau_p over [1, TAU_C - 1]; c1 = 0 at TAU_C - 1
    rng = np.random.default_rng(17)
    tau_ps = [1, TAU_C - 1, *(int(t) for t in rng.integers(1, TAU_C, size=298))]
    for tau_p in tau_ps:
        beta = 10 ** rng.uniform(-18, 12) / DEFAULT_RHO
        hi = ENERGY / tau_p
        star = optimal_pilot_power(beta, tau_p)
        assert 0 < star < hi
        assert star == pytest.approx(textbook_root(beta, tau_p), rel=1e-13)

        def lam(x):
            return lambda_of(x, beta, tau_p)

        oracle = golden_section_min(lam, hi * 1e-9, hi * (1 - 1e-9))
        assert star == pytest.approx(oracle, rel=1e-6)
        assert lam(star) <= lam(oracle) * (1 + 1e-12)


@pytest.mark.parametrize("rho_beta", [1e-12, 1e-15, 1e-18])
def test_optimal_pilot_power_at_tiny_snr(rho_beta):
    # the root -c0 tau_p + sqrt(disc) cancels here; at 1e-18 it cancels to 0
    tau_p = 1
    star = optimal_pilot_power(rho_beta / DEFAULT_RHO, tau_p)
    assert star == pytest.approx(textbook_root(rho_beta / DEFAULT_RHO, tau_p), rel=1e-14)
    # with beta -> 0 the split maximizing rho_p * rho_d is E / (2 tau_p)
    assert star == pytest.approx(ENERGY / (2 * tau_p), rel=1e-6)


def test_optimized_pilots_take_at_most_half_the_budget(monkeypatch):
    # the root lies in (0, E/(2 tau_p)] for every pilot length and rho*beta
    # from 1e-18 to 1e12, so the data power is positive and PowerPlan, which
    # optimize_pilot_power returns, accepts the plan
    layout = NetworkLayout(np.zeros((1, 2)), 1, Region(1.0))
    monkeypatch.setattr(power, "worst_position", lambda layout, grid_resolution: (0.0, 0.0))
    for rho_beta in np.logspace(-18, 12, 31):
        monkeypatch.setattr(power, "path_gain",
                            lambda layout, position, g=rho_beta / DEFAULT_RHO: np.array([g]))
        for tau_p in range(1, TAU_C):
            plan = optimize_pilot_power(layout, tau_p, grid_resolution=0.05)
            assert plan.tau_p == tau_p
            assert plan.rho_p * tau_p <= ENERGY / 2


def test_lambda_unimodal_on_feasible_interval():
    beta, tau_p = 4e-10, 1
    grid = np.linspace(ENERGY * 1e-6, ENERGY * (1 - 1e-6), 4001)
    vals = np.array([lambda_of(x, beta, tau_p) for x in grid])
    m = int(np.argmin(vals))
    assert np.all(np.diff(vals[: m + 1]) <= 0)
    assert np.all(np.diff(vals[m:]) >= 0)
    star = optimal_pilot_power(beta, tau_p)
    assert abs(star - grid[m]) <= (grid[1] - grid[0]) * 2


def test_optimized_plan_on_default_scenario():
    rng = np.random.default_rng(0)
    layout = place_ppp(20.0, Region(2.5), rng)
    plan = optimize_pilot_power(layout, 1, grid_resolution=0.05)
    # pilot power ends up considerably higher than data power
    assert plan.rho_p > plan.rho_d
    assert plan.rho_p * plan.tau_p + plan.rho_d * (TAU_C - plan.tau_p) == pytest.approx(
        ENERGY, rel=1e-12
    )


def worst_beta(layout, grid_resolution):
    """Path-loss-only coefficient of one antenna per AP at the worst grid position."""
    t_w = worst_position(layout, grid_resolution=grid_resolution)
    return float(np.sum(path_gain(layout, t_w)))


def test_optimized_never_worse_than_uniform():
    # optimality against the uniform split, at the coefficient the heuristic used
    rng = np.random.default_rng(1)
    layout = place_ppp(20.0, Region(2.0), rng)
    beta_w = worst_beta(layout, 0.1)
    for tau_p in (1, 2, 4):
        plan = optimize_pilot_power(layout, tau_p, grid_resolution=0.1)
        assert plan.rho_p == optimal_pilot_power(beta_w, tau_p)
        assert lambda_of(plan.rho_p, beta_w, tau_p) <= lambda_of(DEFAULT_RHO, beta_w, tau_p) * (
            1 + 1e-9
        )


def test_optimized_plan_counts_antennas():
    # three co-located antennas per AP triple the coefficient the plan is built for
    rng = np.random.default_rng(2)
    layout1 = place_ppp(10.0, Region(1.0), rng)
    layout3 = NetworkLayout(layout1.positions, 3, Region(1.0))
    beta1 = worst_beta(layout1, 0.1)
    for tau_p in (1, 4):
        plan1 = optimize_pilot_power(layout1, tau_p, grid_resolution=0.1)
        plan3 = optimize_pilot_power(layout3, tau_p, grid_resolution=0.1)
        assert plan1.rho_p == pytest.approx(optimal_pilot_power(beta1, tau_p), rel=1e-12)
        assert plan3.rho_p == pytest.approx(optimal_pilot_power(3 * beta1, tau_p), rel=1e-12)
        assert plan3.rho_p != pytest.approx(plan1.rho_p, rel=1e-6)


def test_uniform_plan_helper():
    plan = uniform_plan(4)
    assert plan.rho_p == plan.rho_d == DEFAULT_RHO
    assert plan.tau_p == 4
