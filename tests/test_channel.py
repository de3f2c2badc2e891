import numpy as np
import pytest
from scipy import stats

from cellfree.channel import (
    conditional_error_stats,
    draw_effective_channel,
    ls_estimate,
    ls_estimate_from_obs,
    make_pilot_block,
)


def test_effective_channel_covariance_identity():
    rng = np.random.default_rng(0)
    h = draw_effective_channel(np.array([1.0, 1.0]), rng, size=100_000)
    emp = (h.conj().T @ h) / len(h)
    se = 1.0 / np.sqrt(len(h))
    assert abs(emp[0, 0].real - 1.0) < 3 * se
    assert abs(emp[1, 1].real - 1.0) < 3 * se
    assert abs(emp[0, 1]) < 3 * se


def test_effective_channel_zero_mean():
    rng = np.random.default_rng(1)
    h = draw_effective_channel(np.array([2.0]), rng, size=100_000)
    assert abs(h.mean()) < 4 * np.sqrt(2.0 / len(h))


def test_effective_channel_scalar_draw():
    rng = np.random.default_rng(2)
    h = draw_effective_channel(np.array([0.5, 1.5]), rng)
    assert h.shape == (2,) and np.iscomplexobj(h)
    # an unbatched draw is the one row of a size-1 batch from the same stream
    batch = draw_effective_channel(np.array([0.5, 1.5]), np.random.default_rng(2), size=1)
    assert np.array_equal(h, batch[0])


def test_nonpositive_beta_rejected():
    with pytest.raises(ValueError):
        draw_effective_channel(np.array([0.0]), np.random.default_rng(0))


def test_per_antenna_sum_matches_group_draw():
    # summing per-AP CN(0, beta_m) inside a group equals drawing CN(0, beta_bar)
    rng = np.random.default_rng(3)
    beta = np.array([0.5, 1.2, 0.3])
    n = 100_000
    g = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) / np.sqrt(2)
    summed = (g * np.sqrt(beta)).sum(axis=1)
    direct = draw_effective_channel(np.array([beta.sum()]), rng, size=n)[:, 0]
    res = stats.ks_2samp(np.abs(summed) ** 2, np.abs(direct) ** 2)
    assert res.pvalue > 0.01


def test_pilot_block_scalar():
    assert np.array_equal(make_pilot_block(1, 1), [[1.0 + 0.0j]])


def test_pilot_block_two_by_two_exact():
    x_p = make_pilot_block(2, 2)
    assert np.abs(x_p.conj().T @ x_p - 2.0 * np.eye(2)).max() < 1e-12


def test_pilot_block_tall():
    x_p = make_pilot_block(4, 2)
    assert np.abs(x_p.conj().T @ x_p - 4.0 * np.eye(2)).max() < 1e-12


def test_pilot_block_unit_modulus_entries():
    assert np.abs(np.abs(make_pilot_block(7, 3)) - 1.0).max() < 1e-12


def test_pilot_block_infeasible():
    with pytest.raises(ValueError):
        make_pilot_block(1, 2)


def test_ls_near_noiseless():
    rng = np.random.default_rng(4)
    beta_bar = np.array([1.0, 2.0])
    h = draw_effective_channel(beta_bar, rng)
    h_hat = ls_estimate(h, make_pilot_block(2, 2), 1e12 / 2, rng)
    assert np.linalg.norm(h_hat - h) < 1e-3


@pytest.mark.parametrize("rho_p", [0.0, -1.0])
def test_ls_estimate_rejects_nonpositive_pilot_power(rho_p):
    h = np.ones(2, dtype=complex)
    with pytest.raises(ValueError, match="pilot power"):
        ls_estimate(h, make_pilot_block(2, 2), rho_p, np.random.default_rng(0))
    with pytest.raises(ValueError, match="pilot power"):
        ls_estimate_from_obs(np.ones(2, dtype=complex), make_pilot_block(2, 2), rho_p)


def test_single_group_conditional_stats():
    # U = 1/(1 + rho tau beta), C = beta/(1 + rho tau beta)
    rho_p, tau_p, beta = 2.0, 3.0, 0.7
    _, u, c = conditional_error_stats(np.array([beta]), rho_p, tau_p)
    denom = 1.0 + rho_p * tau_p * beta
    assert u[0] == pytest.approx(1.0 / denom, rel=1e-12)
    assert c[0] == pytest.approx(beta / denom, rel=1e-12)


def test_conditional_stats_two_way_algebra():
    rng = np.random.default_rng(5)
    beta_bar = rng.uniform(0.1, 3.0, 4)
    rho_p, tau_p = 1.7, 4
    c_e, u, c = conditional_error_stats(beta_bar, rho_p, tau_p)
    ce_mat = c_e * np.eye(4)
    ch_mat = np.diag(beta_bar)
    u_mat = ce_mat @ np.linalg.inv(ce_mat + ch_mat)
    c_mat = np.linalg.inv(np.linalg.inv(ce_mat) + np.linalg.inv(ch_mat))
    assert np.abs(np.diag(u_mat) - u).max() < 1e-12
    assert np.abs(np.diag(c_mat) - c).max() < 1e-12
    assert np.all((u > 0) & (u < 1))


def test_error_regression_recovers_cond_gain():
    # E[e | hhat] = U hhat: complex regression slope of e on hhat is U
    rng = np.random.default_rng(6)
    beta, rho_p, tau_p = 1.0, 1.0, 1
    x_p = make_pilot_block(tau_p, 1)
    n = 100_000
    slopes_num = slopes_den = 0.0
    h = draw_effective_channel(np.array([beta]), rng, size=n)[:, 0]
    w = (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))) / np.sqrt(2)
    h_hat = h + (w @ x_p.conj())[:, 0] / (np.sqrt(rho_p) * tau_p)
    e = h_hat - h
    slope = np.vdot(h_hat, e) / np.vdot(h_hat, h_hat)
    _, u, _ = conditional_error_stats(np.array([beta]), rho_p, tau_p)
    assert abs(slope - u[0]) < 0.02 * u[0]


def test_estimate_marginal_covariance():
    rng = np.random.default_rng(7)
    beta_bar = np.array([0.8, 1.6])
    rho_p, tau_p = 0.9, 2
    x_p = make_pilot_block(tau_p, 2)
    n = 50_000
    hh = np.empty((n, 2), dtype=complex)
    for i in range(n // 1000):
        for j in range(1000):
            k = i * 1000 + j
            h = draw_effective_channel(beta_bar, rng)
            hh[k] = ls_estimate(h, x_p, rho_p, rng)
    var = np.mean(np.abs(hh) ** 2, axis=0)
    target = beta_bar + 1.0 / (rho_p * tau_p)
    assert np.abs(var - target).max() < 4 * target.max() / np.sqrt(n)


def test_pilot_path_identity_exact():
    rng = np.random.default_rng(8)
    beta_bar = np.array([1.0, 0.5, 2.0])
    rho_p, tau_p = 1.3, 5
    x_p = make_pilot_block(tau_p, 3)
    h = draw_effective_channel(beta_bar, rng)
    w = (rng.standard_normal(tau_p) + 1j * rng.standard_normal(tau_p)) / np.sqrt(2)
    y = np.sqrt(rho_p) * x_p @ h + w
    h_hat = ls_estimate_from_obs(y, x_p, rho_p)
    expected = h + x_p.conj().T @ w / (np.sqrt(rho_p) * tau_p)
    assert np.abs(h_hat - expected).max() < 1e-12


def test_batched_ls_estimate_equals_row_by_row():
    beta_bar = np.array([1.0, 0.5, 2.0])
    x_p = make_pilot_block(4, 3)
    rng = np.random.default_rng(9)
    h = draw_effective_channel(beta_bar, rng, size=(2, 3))
    h_hat = ls_estimate(h, x_p, 1.3, np.random.default_rng(10))
    assert h_hat.shape == (2, 3, 3)
    # the noise of every row, in the order the batched call draws it
    noise = np.random.default_rng(10)
    re, im = noise.standard_normal((2, 3, 4)), noise.standard_normal((2, 3, 4))
    w = (re + 1j * im) / np.sqrt(2.0)
    for i in range(2):
        for j in range(3):
            y = np.sqrt(1.3) * x_p @ h[i, j] + w[i, j]
            row = ls_estimate_from_obs(y, x_p, 1.3)
            assert np.allclose(h_hat[i, j], row, rtol=1e-13, atol=1e-15)


def test_estimate_invariants():
    _, u, c = conditional_error_stats(np.array([1.0, 4.0]), 2.0, 2)
    assert u.shape == c.shape == (2,)
    assert np.all(c > 0)
