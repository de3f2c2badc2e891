from decimal import Decimal, localcontext

import numpy as np
import pytest

from cellfree.deployment import Region, place_ppp
from cellfree.power import (
    DEFAULT_RHO,
    TAU_C,
    BudgetExhaustedError,
    PowerPlan,
    data_power,
    optimal_pilot_power,
    optimize_pilot_power,
    path_loss_only_beta,
    uniform_plan,
)
from cellfree.snr import lambda_ls


def lambda_of(rho_p, beta, energy, tau_p, tau_c):
    rho_d = (energy - rho_p * tau_p) / (tau_c - tau_p)
    return lambda_ls(beta, rho_p, tau_p, rho_d)


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


def test_uniform_split_is_identity():
    rho, tau_p, tau_c = 3.0, 5, 300
    assert data_power(rho * tau_c, rho, tau_p, tau_c) == pytest.approx(rho)


def test_data_power_boundary():
    energy, tau_p, tau_c = 100.0, 2, 300
    rho_p = (energy - 1e-9) / tau_p
    assert 0 < data_power(energy, rho_p, tau_p, tau_c) < 1e-10


def test_data_power_arithmetic_example():
    # E = 300 rho, tau_c = 300, tau_p = 1, rho_p = 100 rho -> rho_d = 200 rho / 299
    rho = 2.0
    assert data_power(300 * rho, 100 * rho, 1, 300) == pytest.approx(200 * rho / 299)


def test_budget_exhausted():
    with pytest.raises(BudgetExhaustedError):
        data_power(10.0, 5.0, 2, 300)
    with pytest.raises(ValueError):
        data_power(10.0, 1.0, 300, 300)


def test_plan_budget_identity_exact():
    for rho_p in (0.5 * DEFAULT_RHO, DEFAULT_RHO, 7.0 * DEFAULT_RHO):
        energy, tau_p = DEFAULT_RHO * TAU_C, 3
        rho_d = data_power(energy, rho_p, tau_p, TAU_C)
        plan = PowerPlan(tau_p=tau_p, rho_p=rho_p, rho_d=rho_d)
        assert plan.rho_p * tau_p + plan.rho_d * (TAU_C - tau_p) == pytest.approx(
            energy, rel=1e-12
        )


def test_plan_validation_rejects_budget_violation():
    with pytest.raises(ValueError):
        PowerPlan(tau_p=1, rho_p=100.0 * DEFAULT_RHO, rho_d=DEFAULT_RHO)


@pytest.mark.parametrize("beta,tau_p", [(1e-9, 1), (3e-10, 2), (5e-11, 4), (2e-8, 1)])
def test_optimal_pilot_power_matches_golden_section(beta, tau_p):
    rho, tau_c = DEFAULT_RHO, 300
    energy = rho * tau_c
    star = optimal_pilot_power(beta, energy, tau_p, tau_c)
    hi = energy / tau_p
    oracle = golden_section_min(
        lambda x: lambda_of(x, beta, energy, tau_p, tau_c), hi * 1e-9, hi * (1 - 1e-9)
    )
    assert star == pytest.approx(oracle, rel=1e-3)
    assert lambda_of(star, beta, energy, tau_p, tau_c) <= lambda_of(
        rho, beta, energy, tau_p, tau_c
    )


def textbook_root(beta, energy, tau_p, tau_c):
    """(-c0 tau_p + sqrt(disc)) / (c1 tau_p) in 60-digit decimal arithmetic.

    At tau_c - tau_p = 1, c1 = 0 and the quadratic is linear, root E / (2 tau_p).
    """
    with localcontext() as ctx:
        ctx.prec = 60
        beta, energy, tau_p = (Decimal(float(v)) for v in (beta, energy, tau_p))
        d = Decimal(tau_c) - tau_p
        c0 = 1 + beta * energy / d
        c1 = beta * tau_p * (1 - 1 / d)
        if c1 == 0:
            return float(energy / (2 * tau_p))
        disc = (c0 * tau_p) ** 2 + c1 * tau_p * c0 * energy
        return float((-c0 * tau_p + disc.sqrt()) / (c1 * tau_p))


def test_optimal_pilot_power_fuzz_full_range():
    # rho*beta from 1e-18 to 1e12
    rng = np.random.default_rng(17)
    rho = DEFAULT_RHO
    for _ in range(300):
        tau_c = int(rng.integers(2, 1001))
        tau_p = int(rng.integers(1, min(tau_c - 1, 16) + 1))
        beta = 10 ** rng.uniform(-18, 12) / rho
        energy = rho * tau_c
        hi = energy / tau_p
        star = optimal_pilot_power(beta, energy, tau_p, tau_c)
        assert 0 < star < hi
        assert star == pytest.approx(textbook_root(beta, energy, tau_p, tau_c), rel=1e-13)

        def lam(x):
            return lambda_of(x, beta, energy, tau_p, tau_c)

        oracle = golden_section_min(lam, hi * 1e-9, hi * (1 - 1e-9))
        assert star == pytest.approx(oracle, rel=1e-6)
        assert lam(star) <= lam(oracle) * (1 + 1e-12)


@pytest.mark.parametrize("rho_beta", [1e-12, 1e-15, 1e-18])
def test_optimal_pilot_power_at_tiny_snr(rho_beta):
    # the root -c0 tau_p + sqrt(disc) cancels here; at 1e-18 it cancels to 0
    rho, tau_p, tau_c = DEFAULT_RHO, 1, 300
    energy = rho * tau_c
    star = optimal_pilot_power(rho_beta / rho, energy, tau_p, tau_c)
    want = textbook_root(rho_beta / rho, energy, tau_p, tau_c)
    assert star == pytest.approx(want, rel=1e-14)
    # with beta -> 0 the split maximizing rho_p * rho_d is E / (2 tau_p)
    assert star == pytest.approx(energy / (2 * tau_p), rel=1e-6)


def test_lambda_unimodal_on_feasible_interval():
    beta, rho, tau_p, tau_c = 4e-10, DEFAULT_RHO, 1, 300
    energy = rho * tau_c
    grid = np.linspace(energy * 1e-6, energy * (1 - 1e-6), 4001)
    vals = np.array([lambda_of(x, beta, energy, tau_p, tau_c) for x in grid])
    m = int(np.argmin(vals))
    assert np.all(np.diff(vals[: m + 1]) <= 0)
    assert np.all(np.diff(vals[m:]) >= 0)
    star = optimal_pilot_power(beta, energy, tau_p, tau_c)
    assert abs(star - grid[m]) <= (grid[1] - grid[0]) * 2


def test_optimized_plan_on_default_scenario():
    rng = np.random.default_rng(0)
    layout = place_ppp(20.0, Region(2.5), rng)
    plan = optimize_pilot_power(layout, 1, grid_resolution=0.05)
    # pilot power ends up considerably higher than data power
    assert plan.rho_p > plan.rho_d
    assert plan.rho_p * plan.tau_p + plan.rho_d * (TAU_C - plan.tau_p) == pytest.approx(
        DEFAULT_RHO * TAU_C, rel=1e-12
    )


def test_optimized_never_worse_than_uniform():
    # optimality against the uniform split, at the coefficient the heuristic used
    from cellfree.deployment import worst_position

    rng = np.random.default_rng(1)
    layout = place_ppp(20.0, Region(2.0), rng)
    rho, tau_c = DEFAULT_RHO, TAU_C
    for tau_p in (1, 2, 4):
        plan = optimize_pilot_power(layout, tau_p, grid_resolution=0.1)
        t_w = worst_position(layout, grid_resolution=0.1)
        beta_w = path_loss_only_beta(layout, t_w)
        assert lambda_of(plan.rho_p, beta_w, rho * tau_c, tau_p, tau_c) <= lambda_of(
            rho, beta_w, rho * tau_c, tau_p, tau_c
        ) * (1 + 1e-9)


def test_path_loss_only_beta_counts_antennas():
    rng = np.random.default_rng(2)
    layout1 = place_ppp(10.0, Region(1.0), rng)
    from cellfree.deployment import NetworkLayout

    layout2 = NetworkLayout(layout1.positions, 3, Region(1.0))
    assert path_loss_only_beta(layout2, (0, 0)) == pytest.approx(
        3 * path_loss_only_beta(layout1, (0, 0))
    )


def test_uniform_plan_helper():
    plan = uniform_plan(4)
    assert plan.rho_p == plan.rho_d == DEFAULT_RHO
    assert plan.tau_p == 4
