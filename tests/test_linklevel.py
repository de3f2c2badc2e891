import numpy as np
import pytest

from cellfree.channel import (complex_normal, conditional_error_stats, draw_effective_channel,
                              ls_estimate, make_pilot_block)
from cellfree.grouping import group_large_scale, random_grouping
from cellfree.linklevel import (
    check_corollary1,
    check_hyperexp,
    check_theorem1,
    conditional_moments,
    detect_symbols,
    empirical_snr_cdf,
    mrc_empirical_sinr,
    run_trial,
)
from cellfree.ostbc import alamouti, code_matrix, rate_three_quarter
from cellfree.snr import snr_ls


def perfect_estimate(h_hat):
    """(h_hat, cond_gain, cond_cov) of an estimate with no error."""
    ng = len(h_hat)
    return np.asarray(h_hat, dtype=complex), np.zeros(ng), np.zeros(ng)


@pytest.mark.parametrize("code", [alamouti(), rate_three_quarter()])
def test_noiseless_perfect_csi_recovers_symbols(code):
    rng = np.random.default_rng(0)
    h = draw_effective_channel(np.ones(code.n_groups), rng)
    s = complex_normal(rng, code.n_symbols)
    rho_d = 2.0
    y = np.sqrt(rho_d) * code_matrix(code, s) @ h
    shat = detect_symbols(code, h, y)
    assert np.abs(shat / (np.sqrt(rho_d) * np.sum(np.abs(h) ** 2)) - s).max() < 1e-12


@pytest.mark.parametrize("code", [alamouti(), rate_three_quarter()])
def test_detection_decouples_across_symbols(code):
    # with perfect CSI and no noise, symbol n is unaffected by the others
    rng = np.random.default_rng(1)
    h = draw_effective_channel(np.ones(code.n_groups), rng)
    s = complex_normal(rng, code.n_symbols)
    for n in range(code.n_symbols):
        t = s.copy()
        others = [k for k in range(code.n_symbols) if k != n]
        t[others] = complex_normal(rng, len(others))
        y1 = code_matrix(code, s) @ h
        y2 = code_matrix(code, t) @ h
        assert abs(detect_symbols(code, h, y1)[n] - detect_symbols(code, h, y2)[n]) < 1e-10


@pytest.mark.parametrize("code", [alamouti(), rate_three_quarter()])
def test_detection_of_a_batch_equals_single_calls(code):
    rng = np.random.default_rng(12)
    h_hat = draw_effective_channel(np.ones(code.n_groups), rng)
    y = draw_effective_channel(np.ones(code.block_len), rng, size=5)
    batch = detect_symbols(code, h_hat, y)
    assert batch.shape == (5, code.n_symbols)
    for d in range(5):
        assert np.allclose(batch[d], detect_symbols(code, h_hat, y[d]), rtol=0, atol=1e-13)


def _small_system(code, rng, n_aps=6):
    beta = rng.uniform(0.2, 1.5, n_aps)
    g = random_grouping(n_aps, code.n_groups, rng).assignment
    return beta, g


@pytest.mark.parametrize("code", [alamouti(), rate_three_quarter()])
def test_trial_record_reconstruction(code):
    rng = np.random.default_rng(2)
    beta, g = _small_system(code, rng)
    for _ in range(50):
        rec = run_trial(code, g, beta, rho_p=1.5, rho_d=2.0, tau_p=code.n_groups, rng=rng)
        hh2 = np.sum(np.abs(rec.h_hat) ** 2)
        recon = np.sqrt(2.0) * hh2 * rec.symbols + rec.eta + rec.z
        assert np.abs(rec.processed - recon).max() < 1e-10 * max(1.0, hh2)


def test_trial_estimate_error_statistics():
    # across trials the realized error regresses on hhat with slope U_cond
    code = alamouti()
    rng = np.random.default_rng(3)
    beta, g = _small_system(code, rng)
    n = 4000
    e = np.empty((n, 2), dtype=complex)
    hh = np.empty((n, 2), dtype=complex)
    for i in range(n):
        rec = run_trial(code, g, beta, rho_p=0.8, rho_d=1.0, tau_p=2, rng=rng)
        e[i] = rec.h_hat - rec.h
        hh[i] = rec.h_hat
    _, u, cc = conditional_error_stats(group_large_scale(beta, g, 2), 0.8, 2)
    for k in range(2):
        slope = np.vdot(hh[:, k], e[:, k]) / np.vdot(hh[:, k], hh[:, k])
        se = np.sqrt(cc[k] / (n * np.mean(np.abs(hh[:, k]) ** 2)))
        assert abs(slope - u[k]) < 4 * se
        resid = e[:, k] - u[k] * hh[:, k]
        var = np.mean(np.abs(resid) ** 2)
        assert abs(var - cc[k]) < 4 * cc[k] / np.sqrt(n)


def test_conditional_z_power_matches_closed_form():
    code = alamouti()
    rng = np.random.default_rng(4)
    h_hat = draw_effective_channel(np.array([1.0, 2.0]), rng)
    n = 20_000
    w = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) / np.sqrt(2)
    va = code.a[0] @ h_hat
    vb = code.b[0] @ h_hat
    z = (w @ va.conj()).real + 1j * (w @ vb.conj()).imag
    p = np.abs(z) ** 2
    hh2 = np.sum(np.abs(h_hat) ** 2)
    assert abs(p.mean() - hh2) < 3 * p.std() / np.sqrt(n)


def test_conditional_moments_zero_error():
    rng = np.random.default_rng(5)
    est = perfect_estimate(draw_effective_channel(np.ones(2), rng))
    mc = conditional_moments(alamouti(), 0, *est, rho_d=1.0, n_draws=2000, rng=rng)
    assert mc.c_n == 0 and mc.eta_power == 0


def test_conditional_moments_single_group_value():
    rng = np.random.default_rng(6)
    beta, rho_p, rho_d, tau_p = 1.2, 0.9, 1.7, 1
    c_e, u, cc = conditional_error_stats(np.array([beta]), rho_p, tau_p)
    h_hat = np.sqrt((beta + c_e) / 2) * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
    from cellfree.ostbc import single_group

    mc = conditional_moments(single_group(), 0, h_hat, u, cc, rho_d, 50_000, rng)
    target = -np.sqrt(rho_d) * abs(h_hat[0]) ** 2 / (1 + rho_p * tau_p * beta)
    assert abs(mc.c_n - target) < 3 * mc.c_n_se


def test_conditional_moments_alamouti_imaginary_part():
    # the cross term Im(hhat^H A^H B U hhat) vanishes for Alamouti with a
    # diagonal conditional gain; the MC imaginary part must agree
    rng = np.random.default_rng(7)
    code = alamouti()
    beta_bar = np.array([0.7, 2.1])
    c_e, u, cc = conditional_error_stats(beta_bar, 1.1, 2)
    h_hat = np.sqrt((beta_bar + c_e) / 2) * (
        rng.standard_normal(2) + 1j * rng.standard_normal(2)
    )
    target = np.imag(h_hat.conj() @ (code.a[0].conj().T @ code.b[0]) @ (u * h_hat))
    assert abs(target) < 1e-12
    mc = conditional_moments(code, 0, h_hat, u, cc, 1.3, 50_000, rng)
    assert abs(mc.c_n.imag - (-np.sqrt(1.3) * target)) < 3 * mc.c_n_se


def test_conditional_moments_requires_enough_draws():
    rng = np.random.default_rng(8)
    est = perfect_estimate(np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        conditional_moments(alamouti(), 0, *est, 1.0, 10, rng)


def test_empirical_cdf_single_group_exponential():
    res = check_corollary1(seed=101, n_trials=50_000)
    assert res["pvalue"] > 0.01


def test_empirical_cdf_perfect_hyperexponential():
    res = check_hyperexp(seed=102, n_trials=50_000)
    assert res["ok"], res


def test_empirical_cdf_coverage_at_zero():
    rng = np.random.default_rng(9)
    samples = empirical_snr_cdf(alamouti(), np.array([1.0, 1.0]), 1.0, 1.0, 2, 2000, rng)
    assert np.mean(samples >= 0.0) == 1.0
    assert samples.size == 2000
    assert np.all(np.diff(samples) >= 0)
    assert np.quantile(samples, 0.5, method="lower") > 0


def test_check_theorem1_small():
    res = check_theorem1(seed=1, n_configs=5, n_draws=20_000)
    assert res["ok"], res


def test_pilot_path_error_marginal():
    # the LS error of the simulated pilot path has variance 1/(rho_p tau_p)
    rng = np.random.default_rng(10)
    h = draw_effective_channel(np.array([1.0, 3.0]), rng, size=50_000)
    h_hat = ls_estimate(h, make_pilot_block(2, 2), 2.0, rng)
    assert np.allclose(np.mean(np.abs(h_hat - h) ** 2, axis=0), 0.25, atol=0.01)


def test_mrc_oracle_matches_branch_sum():
    # post-combining SINR equals the sum of per-branch conditional SNRs
    code = alamouti()
    rng = np.random.default_rng(11)
    beta_bar = np.array([0.9, 1.8])
    rho_p, rho_d, tau_p = 1.2, 1.6, 2
    c_e, u, cc = conditional_error_stats(beta_bar, rho_p, tau_p)
    h_hat = np.array([
        np.sqrt((beta_bar + c_e) / 2) * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        for _ in range(2)
    ])
    closed = sum(snr_ls(code, 0, row, u, cc, rho_d) for row in h_hat)
    reps = np.array([
        mrc_empirical_sinr(code, 0, h_hat, u, cc, rho_d, 10_000, rng) for _ in range(8)
    ])
    se = reps.std(ddof=1) / np.sqrt(len(reps))
    assert abs(reps.mean() - closed) < 3 * se
