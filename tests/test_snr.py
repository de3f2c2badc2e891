import numpy as np
import pytest
from scipy import stats

from cellfree.channel import conditional_error_stats
from cellfree.metrics import coverage_perfect, lambda_perfect
from cellfree.ostbc import alamouti, rate_three_quarter, single_group
from cellfree.power import DEFAULT_RHO
from cellfree.snr import (
    _eta_form,
    lambda_ls,
    snr_ls,
    snr_ls_values,
    conditional_snr_terms,
)

CODES = (single_group(), alamouti(), rate_three_quarter())


def make_estimate(beta_bar, rho_p, tau_p, rng):
    """(h_hat, cond_gain, cond_cov): one estimate drawn from CN(0, C_h + C_e)."""
    beta_bar = np.asarray(beta_bar, dtype=float)
    c_e, u, cc = conditional_error_stats(beta_bar, rho_p, tau_p)
    h_hat = np.sqrt((beta_bar + c_e) / 2.0) * (
        rng.standard_normal(beta_bar.size) + 1j * rng.standard_normal(beta_bar.size)
    )
    return h_hat, u, cc


def test_lambda_perfect_unit_case():
    # DEFAULT_RHO Es beta_bar_n = 1 gives unit exponential rates
    lam = lambda_perfect(np.array([1.0, 0.5]) / DEFAULT_RHO, es=2.0)
    assert np.allclose(lam, [0.5, 1.0])


def test_perfect_snr_hyperexponential_law():
    rng = np.random.default_rng(0)
    beta_bar = np.array([0.6, 1.7, 2.9]) / DEFAULT_RHO
    es, n = 1.3, 100_000
    h = np.sqrt(beta_bar / 2.0) * (
        rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    )
    samples = DEFAULT_RHO * es * np.sum(np.abs(h) ** 2, axis=1)
    lam = lambda_perfect(beta_bar, es)
    res = stats.kstest(samples, lambda g: 1.0 - coverage_perfect(g, lam))
    assert res.pvalue > 0.01


def test_theorem1_vanishing_error_collapses():
    rng = np.random.default_rng(1)
    est = make_estimate([1.0, 2.0], rho_p=1e12, tau_p=2, rng=rng)
    terms = conditional_snr_terms(alamouti(), 0, *est, rho_d=2.0)
    scale = np.sum(np.abs(est[0]) ** 2)
    assert abs(terms.c_n) < 1e-9 * scale
    assert terms.eta_power < 1e-9 * scale
    s = snr_ls(alamouti(), 0, *est, rho_d=2.0)
    assert s == pytest.approx(2.0 * scale, rel=1e-6)


def test_theorem1_single_group_reduction():
    # the general machinery must collapse to the closed single-group forms
    rng = np.random.default_rng(2)
    code = single_group()
    for _ in range(1000):
        beta = rng.uniform(0.05, 5.0)
        rho_p = rng.uniform(0.1, 10.0)
        rho_d = rng.uniform(0.1, 10.0)
        tau_p = int(rng.integers(1, 6))
        est = make_estimate([beta], rho_p, tau_p, rng)
        terms = conditional_snr_terms(code, 0, *est, rho_d)
        h2 = abs(est[0][0]) ** 2
        denom = 1.0 + rho_p * tau_p * beta
        assert terms.c_n == pytest.approx(-np.sqrt(rho_d) * h2 / denom, rel=1e-10)
        assert terms.z_power == pytest.approx(h2, rel=1e-12)
        expected_eta = rho_d * code.es * h2 * (h2 / denom**2 + beta / denom)
        assert terms.eta_power == pytest.approx(expected_eta, rel=1e-10)


def test_theorem1_z_power_is_estimate_energy():
    rng = np.random.default_rng(3)
    est = make_estimate([1.0, 0.5], 2.0, 2, rng)
    terms = conditional_snr_terms(alamouti(), 1, *est, rho_d=1.0)
    assert terms.z_power == pytest.approx(np.sum(np.abs(est[0]) ** 2))


def test_theorem1_dimension_checks():
    rng = np.random.default_rng(4)
    est = make_estimate([1.0], 1.0, 1, rng)
    with pytest.raises(ValueError):
        conditional_snr_terms(alamouti(), 0, *est, 1.0)
    est2 = make_estimate([1.0, 1.0], 1.0, 2, rng)
    with pytest.raises(ValueError):
        conditional_snr_terms(alamouti(), 5, *est2, 1.0)


def test_snr_ls_collapses_to_perfect_form():
    rng = np.random.default_rng(5)
    est = make_estimate([1.0, 2.0, 0.5, 1.5], rho_p=1e10, tau_p=4, rng=rng)
    code = rate_three_quarter()
    val = snr_ls(code, 1, *est, rho_d=1.7)
    assert val == pytest.approx(1.7 * code.es * np.sum(np.abs(est[0]) ** 2), rel=1e-5)


def test_corollary1_distribution_via_general_formula():
    rng = np.random.default_rng(6)
    beta, rho_p, rho_d, tau_p, code = 1.7, 2.0, 1.3, 1, single_group()
    n = 100_000
    c_e, u, cc = conditional_error_stats(np.array([beta]), rho_p, tau_p)
    h_hat = np.sqrt((beta + c_e) / 2.0) * (
        rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    )
    vals = snr_ls_values(code, 0, np.abs(h_hat) ** 2, u, cc, rho_d)
    lam = lambda_ls(beta, rho_p, tau_p, rho_d, code.es)
    res = stats.kstest(vals, "expon", args=(0, 1.0 / lam))
    assert res.pvalue > 0.01


def test_alamouti_symbol_index_independence():
    rng = np.random.default_rng(7)
    for _ in range(20):
        est = make_estimate(rng.uniform(0.2, 3.0, 2), rng.uniform(0.5, 3.0), 2, rng)
        v0 = snr_ls(alamouti(), 0, *est, rho_d=1.7)
        v1 = snr_ls(alamouti(), 1, *est, rho_d=1.7)
        assert v0 == pytest.approx(v1, rel=1e-12)


def test_batch_matches_scalar_theorem1():
    rng = np.random.default_rng(8)
    for code in (single_group(), alamouti(), rate_three_quarter()):
        beta_bar = rng.uniform(0.2, 3.0, code.n_groups)
        c_e, u, cc = conditional_error_stats(beta_bar, 1.4, code.n_groups)
        h_hat = np.sqrt((beta_bar + c_e) / 2.0) * (
            rng.standard_normal((50, code.n_groups))
            + 1j * rng.standard_normal((50, code.n_groups))
        )
        for n in range(code.n_symbols):
            batch = snr_ls_values(code, n, np.abs(h_hat) ** 2, u, cc, 2.3)
            for i in range(50):
                assert batch[i] == pytest.approx(
                    snr_ls(code, n, h_hat[i], u, cc, 2.3), rel=1e-12
                )


def test_batch_rejects_what_the_literal_form_rejects():
    rng = np.random.default_rng(11)
    code = rate_three_quarter()
    h_hat, u, cc = make_estimate(rng.uniform(0.5, 2.0, 4), 1.0, 4, rng)
    x = np.abs(h_hat) ** 2
    for n in (-1, code.n_symbols):
        with pytest.raises(ValueError):
            conditional_snr_terms(code, n, h_hat, u, cc, 1.0)
        with pytest.raises(ValueError):
            snr_ls_values(code, n, x, u, cc, 1.0)


def test_batch_rejects_estimates_of_the_wrong_group_count():
    rng = np.random.default_rng(12)
    code = rate_three_quarter()
    h_hat, u, cc = make_estimate([1.0], 1.0, 4, rng)
    with pytest.raises(ValueError):
        conditional_snr_terms(code, 0, h_hat, u, cc, 1.0)
    with pytest.raises(ValueError):
        snr_ls_values(code, 0, np.full((3, 1), 0.7), u, cc, 1.0)


def test_batch_takes_squared_moduli_not_estimates():
    h_hat, u, cc = make_estimate([1.0, 2.0], 1.0, 2, np.random.default_rng(15))
    with pytest.raises(TypeError):
        snr_ls_values(alamouti(), 0, h_hat, u, cc, 1.0)


def test_snr_ls_does_not_depend_on_the_estimate_phases():
    rng = np.random.default_rng(13)
    for code in CODES:
        for _ in range(20):
            h_hat, u, cc = make_estimate(rng.uniform(0.2, 3.0, code.n_groups),
                                         rng.uniform(0.5, 3.0), code.n_groups, rng)
            turned = h_hat * np.exp(2j * np.pi * rng.uniform(size=code.n_groups))
            for n in range(code.n_symbols):
                assert snr_ls(code, n, turned, u, cc, 1.7) == pytest.approx(
                    snr_ls(code, n, h_hat, u, cc, 1.7), rel=1e-13
                )


def test_eta_form_is_the_literal_eta_power_read_at_basis_points():
    # eta(x) = x^T E x + f.x, read at x = s_i e_i, 4 s_i e_i and s_i e_i + s_j e_j
    rng = np.random.default_rng(14)
    for code in CODES:
        beta_bar = rng.uniform(0.2, 3.0, code.n_groups)
        rho_p, rho_d = 1.3, 2.1
        c_e, u, cc = conditional_error_stats(beta_bar, rho_p, code.n_groups)
        root = np.sqrt(beta_bar + c_e)
        basis = np.diag(root)
        for n in range(code.n_symbols):
            def eta(h):
                return conditional_snr_terms(code, n, h, u, cc, rho_d).eta_power

            single = np.array([eta(b) for b in basis])
            double = np.array([eta(2.0 * b) for b in basis])
            e_read = np.diag((double - 4.0 * single) / 12.0)
            f_read = single - np.diag(e_read)
            for i in range(code.n_groups):
                for j in range(i):
                    e_read[i, j] = e_read[j, i] = 0.5 * (
                        eta(basis[i] + basis[j]) - single[i] - single[j]
                    )
            e, f = _eta_form(code, n, u, cc, rho_d)
            s = root**2
            scale = np.abs(e_read).max() + np.abs(f_read).max()
            assert np.abs(e * np.outer(s, s) - e_read).max() <= 1e-12 * scale
            assert np.abs(f * s - f_read).max() <= 1e-12 * scale


def test_single_group_batch_matches_high_precision_closed_form():
    # c_n = -sqrt(rho_d) x / d and eta = rho_d Es x (x / d^2 + beta / d) with
    # d = 1 + rho_p tau_p beta (test_theorem1_single_group_reduction), in 50 digits
    mpmath = pytest.importorskip("mpmath")
    code, rho = single_group(), 1e10
    worst = 0.0
    for tau_p in (1, 3):
        for rho_beta in np.logspace(-3, 12, 31):
            beta = rho_beta / rho
            c_e, u, cc = conditional_error_stats(np.array([beta]), rho, tau_p)
            x = (beta + c_e) * np.array([[0.01], [1.0], [7.0]])
            batch = snr_ls_values(code, 0, x, u, cc, rho)
            with mpmath.workdps(50):
                b, r, es = mpmath.mpf(beta), mpmath.mpf(rho), mpmath.mpf(code.es)
                d = 1 + r * tau_p * b
                for xi, value in zip(x[:, 0], batch):
                    xm = mpmath.mpf(xi)
                    c_n = -mpmath.sqrt(r) * xm / d
                    eta = r * es * xm * (xm / d**2 + b / d)
                    exact = es * (mpmath.sqrt(r) * xm + c_n) ** 2 / (eta + xm - es * c_n**2)
                    worst = max(worst, float(abs(value / exact - 1)))
    assert worst <= 1e-12


def test_lambda_ls_formula_and_collapse():
    beta, rho_p, tau_p, rho_d, es = 0.9, 2.0, 3, 1.1, 1.4
    lam = lambda_ls(beta, rho_p, tau_p, rho_d, es)
    assert lam == pytest.approx(
        (1 + beta * (rho_p * tau_p + rho_d * es)) / (rho_d * es * rho_p * tau_p * beta**2)
    )
    # infinite pilot energy recovers the perfect-CSI rate
    lam_inf = lambda_ls(beta, 1e14, tau_p, rho_d, es)
    assert lam_inf == pytest.approx(1.0 / (rho_d * es * beta), rel=1e-6)


def test_lambda_ls_equal_power_example():
    # with rho_p = rho_d = rho and Es = 1: (1 + rho beta (1 + tau)) / (rho^2 tau beta^2)
    rho, beta, tau_p = 2.5, 0.8, 4
    lam = lambda_ls(beta, rho, tau_p, rho, 1.0)
    assert lam == pytest.approx((1 + rho * beta * (1 + tau_p)) / (rho**2 * tau_p * beta**2))


def test_three_db_asymptote():
    # single pilot, equal powers: lambda_ls / lambda_perfect -> 2 (about 3 dB)
    rho, beta = 1e3, 1e3  # rho beta = 1e6
    ratio = lambda_ls(beta, rho, 1, rho, 1.0) * (rho * beta)
    assert abs(ratio - 2.0) < 0.01 * 2.0


def test_lambda_ls_monotonicity():
    base = dict(beta_bar_total=1.0, rho_p=1.0, tau_p=1, rho_d=1.0, es=1.0)
    for key, grid in [
        ("beta_bar_total", np.linspace(0.1, 10, 50)),
        ("rho_p", np.linspace(0.1, 10, 50)),
        ("rho_d", np.linspace(0.1, 10, 50)),
        ("es", np.linspace(0.1, 10, 50)),
    ]:
        vals = [lambda_ls(**{**base, key: g}) for g in grid]
        assert np.all(np.diff(vals) < 0), key


def test_eta_power_and_denominator_fuzz():
    # rho * beta_bar from 1e-3 to 1e12 at normalized powers near the paper's
    rng = np.random.default_rng(9)
    total = 0
    for code in (alamouti(), rate_three_quarter()):
        for _ in range(100):
            beta_bar = 10.0 ** rng.uniform(-13, 0, code.n_groups)
            rho_p, rho_d = 10.0 ** rng.uniform(10, 12, 2)
            c_e, u, cc = conditional_error_stats(beta_bar, rho_p, code.n_groups)
            n = 5_000
            h_hat = np.sqrt((beta_bar + c_e) / 2.0) * (
                rng.standard_normal((n, code.n_groups))
                + 1j * rng.standard_normal((n, code.n_groups))
            )
            vals = snr_ls_values(code, 0, np.abs(h_hat) ** 2, u, cc, rho_d)  # raises if denom <= 0
            assert np.all(vals >= 0)
            total += n
            # LS never beats perfect CSI: lambda_ls >= 1 / (rho_d beta_bar)
            b = beta_bar.sum()
            lam = lambda_ls(b, rho_p, code.n_groups, rho_d)
            assert np.isfinite(lam) and lam * rho_d * b >= 1.0 - 1e-12
    assert total == 10**6


def test_snr_ls_symbol_values_nonnegative_rate34():
    rng = np.random.default_rng(10)
    est = make_estimate(rng.uniform(0.5, 2.0, 4), 1.0, 4, rng)
    for n in range(3):
        assert snr_ls(rate_three_quarter(), n, *est, 1.0) >= 0


def test_degenerate_denominator_is_flagged():
    # a physically impossible (negative) conditional covariance drives the
    # noise power negative; the guard must fire instead of returning garbage
    x = np.abs(np.array([[1.0 + 0.5j]])) ** 2
    with pytest.raises(ArithmeticError, match="non-positive SNR denominator in batch"):
        snr_ls_values(single_group(), 0, x, np.array([0.5]), np.array([-10.0]), 1.0)
