import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import expm

from cellfree.metrics import (
    SampleSizeError,
    coverage_and_density,
    coverage_perfect,
    outage_rate,
    outage_result,
    quantile_threshold,
)
from cellfree.ostbc import alamouti, rate_three_quarter, single_group
from cellfree.power import TAU_C


def test_rate_zero_threshold():
    assert outage_rate(0.0, 2, alamouti()) == 0.0


def test_rate_alamouti_example():
    # (1 - 2/300) * (2/2) * log2(2) = 0.99333... bpcu
    assert outage_rate(1.0, 2, alamouti()) == pytest.approx(0.993333, abs=1e-5)


def test_rate_code_rate_prelog():
    r_full = outage_rate(3.0, 4, alamouti())
    r_34 = outage_rate(3.0, 4, rate_three_quarter())
    assert r_34 == pytest.approx(0.75 * r_full)


def test_rate_perfect_csi_uses_zero_pilots():
    assert outage_rate(1.0, 0, single_group()) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        outage_rate(1.0, TAU_C, single_group())


def test_coverage_single_group_exponential():
    assert coverage_perfect(2.0, [3.0]) == pytest.approx(np.exp(-6.0))


def test_coverage_at_zero_is_one():
    assert coverage_perfect(0.0, [1.0, 2.0, 5.0]) == pytest.approx(1.0)


def test_coverage_two_rates_hand_value():
    # rates (1, 2) at gamma 1: 2 e^-1 - e^-2
    val = coverage_perfect(1.0, [1.0, 2.0])
    assert val == pytest.approx(2 * np.exp(-1) - np.exp(-2), rel=1e-12)
    assert val == pytest.approx(0.6004, abs=2e-4)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_coverage_matches_monte_carlo(seed):
    rng = np.random.default_rng(seed)
    n_rates = int(rng.integers(1, 5))
    lam = np.exp(rng.uniform(-1.5, 1.5, n_rates))
    gamma = float(rng.uniform(0.1, 2.0 / lam.min()))
    n = 20_000
    p = coverage_perfect(gamma, lam)
    p_mc = np.mean(sum(rng.exponential(1.0 / l, n) for l in lam) >= gamma)
    se = np.sqrt(max(p * (1 - p), 1e-9) / n)
    assert abs(p - p_mc) < 4.5 * se


def _erlang_bounds(gamma, lam):
    """Coverage of n exponentials lies between the Erlang-n laws at the
    largest and the smallest rate (stochastic ordering)."""
    lam = np.asarray(lam)
    return (stats.gamma(lam.size, scale=1.0 / lam.max()).sf(gamma),
            stats.gamma(lam.size, scale=1.0 / lam.min()).sf(gamma))


@pytest.mark.parametrize("gap", [1e-4, 1e-5])
def test_coverage_four_nearly_equal_rates(gap):
    # partial fractions cancel catastrophically here (-2209.8 at a gap of 1e-5)
    lam = 0.7 * (1.0 + gap) ** np.arange(4)
    gamma = stats.gamma(4, scale=1.0 / lam.min()).ppf(1e-3)
    lower, upper = _erlang_bounds(gamma, lam)
    assert lower <= coverage_perfect(gamma, lam) <= upper


def test_coverage_fuzz_full_rate_range():
    rng = np.random.default_rng(12)
    for case in range(400):
        n_rates = 1 + case % 4
        exponent = rng.uniform(-12, 0)  # rates within three decades in [1e-12, 1e3]
        if case % 3 == 0:
            lam = np.full(n_rates, 10.0 ** (exponent + 3 * rng.uniform()))  # exact ties
        else:
            lam = 10.0 ** rng.uniform(exponent, exponent + 3, n_rates)
        gammas = np.sort(10.0 ** rng.uniform(-3, 2, 100) / lam.min())
        vals = coverage_perfect(gammas, lam)
        assert np.all((vals >= 0) & (vals <= 1))
        assert np.all(np.diff(vals) <= 1e-15)
        lower, upper = _erlang_bounds(gammas, lam)
        assert np.all(vals >= lower - 1e-13) and np.all(vals <= upper + 1e-13)


def test_coverage_nonincreasing_in_gamma():
    lam = [0.5, 1.1, 3.0]
    gammas = np.linspace(0.0, 20.0, 400)
    vals = coverage_perfect(gammas, lam)
    assert vals[0] == pytest.approx(1.0)
    assert np.all(np.diff(vals) <= 1e-15)


def test_coverage_rejects_bad_inputs():
    for gamma, lam in [
        (1.0, [0.0]),
        (-1.0, [1.0]),
        (0.5, [np.nan, 1.0]),
        (0.5, [np.inf, 1.0]),
        (0.5, [-1.0, 1.0]),
        (np.nan, [1.0]),
        (np.inf, [1.0]),
        ([0.5, np.nan], [1.0, 2.0]),
        (0.5, []),
        (0.5, np.empty((3, 0))),
        (0.5, 1.0),
    ]:
        with pytest.raises(ValueError):
            coverage_perfect(gamma, lam)


def _scipy_coverage(gamma, lam):
    """Reference: scipy's expm of gamma T, first row summed, one matrix at a time."""
    lam = np.asarray(lam, dtype=float)
    t = np.diag(-lam) + np.diag(lam[:-1], 1)
    return expm(gamma * t)[0].sum()


@pytest.mark.parametrize("n_rates", [1, 2, 3, 4])
def test_stacked_coverage_matches_scipy_row_by_row(n_rates):
    # one call over rows whose rates run from 1e-12 to 1e3: no row may pay
    # for the magnitude of another
    rng = np.random.default_rng(40 + n_rates)
    rows, gammas = [], []
    for case in range(300):
        exponent = rng.uniform(-12, 0)
        if case % 3 == 0:
            lam = np.full(n_rates, 10.0 ** (exponent + 3 * rng.uniform()))  # exact ties
        else:
            lam = 10.0 ** rng.uniform(exponent, exponent + 3, n_rates)
        rows.append(lam)
        gammas.append(10.0 ** rng.uniform(-3, 2) / lam.min())
    lam, gammas = np.array(rows), np.array(gammas)
    got = coverage_perfect(gammas, lam)
    assert got.shape == (300,)
    # exact ties follow the Erlang law; scipy's expm itself is off by up to
    # 1.2e-14 on some of these rows (Erlang-2 at gamma lambda ~ 3)
    ties = np.arange(300) % 3 == 0
    erlang = stats.gamma(n_rates, scale=1.0 / lam[ties, 0]).sf(gammas[ties])
    assert np.max(np.abs(got[ties] - erlang)) <= 1e-15
    want = np.array([_scipy_coverage(g, l) for g, l in zip(gammas[~ties], lam[~ties])])
    assert np.max(np.abs(got[~ties] - want)) <= 1e-14


def test_stacked_coverage_shapes():
    lam = np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.5], [300.0, 0.1, 7.0]])
    assert isinstance(coverage_perfect(1.0, lam[0]), float)
    assert coverage_perfect(np.array([0.5, 1.0]), lam[0]).shape == (2,)
    per_row = coverage_perfect(1.0, lam)
    assert per_row.shape == (3,)
    # a row's value does not depend on the rest of the stack
    assert np.array_equal(per_row, [coverage_perfect(1.0, l) for l in lam])
    grid = coverage_perfect(np.array([[0.5], [2.0]]), lam)  # gamma (2, 1) x rows (3,)
    assert grid.shape == (2, 3)
    assert grid[1, 2] == coverage_perfect(2.0, lam[2])


def test_coverage_and_density_match_closed_forms():
    g = np.array([0.05, 0.3, 1.0, 4.0, 30.0])
    erlang = stats.gamma(3, scale=1.0 / 1.5)
    cov, dens = coverage_and_density(g, np.full((5, 3), 1.5))
    assert np.allclose(cov, erlang.sf(g), rtol=1e-14, atol=0)
    assert np.allclose(dens, erlang.pdf(g), rtol=1e-13, atol=0)
    a, b = 0.4, 3.0
    lam = np.tile([a, b], (5, 1))
    cov, dens = coverage_and_density(g, lam)
    assert np.array_equal(cov, coverage_perfect(g, lam))
    assert np.allclose(dens, a * b / (b - a) * (np.exp(-a * g) - np.exp(-b * g)), rtol=1e-13, atol=0)


def test_quantile_exponential_anchor():
    rng = np.random.default_rng(1)
    samples = rng.exponential(1.0, 20_000)
    gamma, (lo, hi) = quantile_threshold(samples, 0.1)
    target = -np.log(0.9)  # about 0.1054
    assert lo <= target <= hi
    assert abs(gamma - target) < 0.01


def test_quantile_constant_samples():
    gamma, (lo, hi) = quantile_threshold(np.full(1000, 3.25), 0.1)
    assert gamma == lo == hi == 3.25


def test_quantile_sample_floor():
    with pytest.raises(SampleSizeError):
        quantile_threshold(np.arange(100.0), 0.001)
    with pytest.raises(ValueError):
        quantile_threshold(np.arange(100.0), 1.5)


def test_quantile_monotone_in_epsilon():
    rng = np.random.default_rng(2)
    samples = rng.exponential(1.0, 10_000)
    qs = [quantile_threshold(samples, e)[0] for e in (0.01, 0.05, 0.1, 0.3)]
    assert qs == sorted(qs)


def test_quantile_lower_interpolation():
    samples = np.arange(1.0, 1001.0)
    gamma, _ = quantile_threshold(samples, 0.1)
    assert gamma == np.quantile(samples, 0.1, method="lower")
    rng = np.random.default_rng(4)
    for _ in range(300):
        eps = 10.0 ** rng.uniform(-3, -0.1)
        samples = rng.exponential(1.0, int(rng.integers(np.ceil(50 / eps), 60_000)))
        gamma, _ = quantile_threshold(samples, eps)
        assert gamma == np.quantile(samples, eps, method="lower")


def test_outage_result_bundle():
    rng = np.random.default_rng(3)
    samples = rng.exponential(1.0, 50_000)
    res = outage_result(samples, 0.01, tau_p=2, code=alamouti())
    expected = outage_rate(-np.log(0.99), 2, alamouti())
    assert res["rate_bpcu"] == pytest.approx(expected, rel=0.15)
    assert res["ci_halfwidth"] > 0
    assert res["gamma_eps"] >= 0
