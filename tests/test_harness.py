import math
import tracemalloc

import numpy as np
import pytest
from dataclasses import fields, replace
from typing import get_args
from scipy import optimize, stats
from scipy.linalg import expm

from cellfree import grouping, harness, metrics

from cellfree.channel import conditional_error_stats, draw_effective_channel
from cellfree.deployment import place_hex, place_ppp
from cellfree.grouping import group_large_scale, random_group_sums, random_grouping
from cellfree.harness import (
    _CDF_CHUNK_ROWS,
    RunResult,
    ScenarioConfig,
    _hyperexp_gamma_eps,
    config_from_text,
    config_hash,
    config_to_text,
    experiment_catalog,
    run_experiment,
    run_scenario,
    summarize,
    trial_stream,
    validate_config,
    with_overrides,
    write_cdf_tables,
    write_result_csv,
    write_summary_csv,
)
from cellfree.linklevel import empirical_snr_cdf
from cellfree.metrics import coverage_perfect, lambda_perfect, outage_rate
from cellfree.ostbc import by_name
from cellfree.power import (
    BOLTZMANN_J_PER_K,
    DEFAULT_RHO,
    TAU_C,
    optimize_pilot_power,
    uniform_plan,
)
from cellfree.propagation import (ShadowParams, large_scale_from_shadow, path_gain, per_antenna,
                                  shadow_fields)
from cellfree.snr import lambda_ls, snr_ls_values

FAST = dict(half_width_km=1.5, epsilon=0.1, outer=60, inner=50, seed=5)


def test_normalized_power_paper_operating_point():
    # link budget in dB: 0 dBm transmit power over the noise floor
    # k_B T B at 300 K and 200 kHz, raised by the 9 dB noise figure
    noise_dbm = 10 * np.log10(BOLTZMANN_J_PER_K * 300.0 * 200e3) + 30.0 + 9.0
    assert 10 * np.log10(DEFAULT_RHO) == pytest.approx(0.0 - noise_dbm, rel=1e-12)


def test_trial_stream_is_pure_function_of_key():
    a = trial_stream(42, 7).standard_normal(5)
    _ = trial_stream(42, 3).standard_normal(11)  # unrelated stream in between
    b = trial_stream(42, 7).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, trial_stream(42, 8).standard_normal(5))
    assert not np.array_equal(a, trial_stream(43, 7).standard_normal(5))


def _numpy_stream(seed, index, domain):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(domain, index))))


def _draws(rng):
    return rng.integers(0, 2**62, 4), rng.standard_normal(3), rng.permutation(9)


def _assert_same_draws(seed, index, domain):
    for ours, theirs in zip(_draws(trial_stream(seed, index, domain)),
                            _draws(_numpy_stream(seed, index, domain))):
        assert np.array_equal(ours, theirs), (seed, index, domain)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1])
def test_trial_stream_draws_numpy_seed_sequence_stream(seed):
    # seeds of one to five words (more than four words get no zero padding);
    # indices at a key block's edges and on both sides of a two-word index
    block = harness._KEY_BLOCK
    indices = [0, block - 1, block, 2**32 - 1, 2**32]
    for domain in (0, 1):
        for index in indices + indices[::-1]:  # also out of order
            _assert_same_draws(seed, index, domain)


def test_trial_stream_keys_survive_cache_eviction():
    first = [(seed, index) for seed in (3, 2**40) for index in (5, 2000)]
    for seed, index in first:
        _assert_same_draws(seed, index, 0)
    for seed in range(10, 12 + harness._philox_keys.cache_info().maxsize):
        _assert_same_draws(seed, 1, seed % 2)
    for seed, index in reversed(first):
        _assert_same_draws(seed, index, 0)


def test_run_scenario_deterministic():
    cfg = ScenarioConfig(deployment="ppp", shadow="correlated", csi="ls",
                         code="alamouti", power="uniform", **FAST)
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    assert np.array_equal(r1.values, r2.values)
    assert r1.values.shape == (cfg.outer, 1, cfg.inner)


def test_run_scenario_seed_changes_samples():
    cfg = ScenarioConfig(deployment="ppp", shadow="none", csi="perfect",
                         code="single", **FAST)
    r1 = run_scenario(cfg)
    r2 = run_scenario(replace(cfg, seed=6))
    assert not np.array_equal(r1.values, r2.values)


def test_perfect_fixed_layout_matches_single_exponential():
    # hexagonal layout, no shadow, one group: snr ~ Exp(lambda_perfect)
    cfg = ScenarioConfig(deployment="hexagonal", density=20.0, shadow="none",
                         csi="perfect", code="single", half_width_km=1.5,
                         epsilon=0.1, outer=40, inner=400, seed=7)
    res = run_scenario(cfg)
    from cellfree.deployment import place_hex
    from cellfree.propagation import path_loss_db

    layout = place_hex(20.0, cfg.region())
    beta_bar = np.sum(10 ** (-path_loss_db(np.linalg.norm(layout.positions, axis=1)) / 10))
    lam = lambda_perfect(np.array([beta_bar]), 1.0)[0]
    for gamma in np.quantile(res.values, [0.1, 0.5, 0.9]):
        p_emp = np.mean(res.values >= gamma)
        p = np.exp(-gamma * lam)
        assert abs(p_emp - p) < 4 * np.sqrt(p * (1 - p) / res.values.size)


def test_fast_path_matches_link_level_ls_single_group():
    # the Exp(lambda_ls) fast path against the simulated pilot path
    cfg = ScenarioConfig(deployment="ppp", density=20.0, shadow="none", csi="ls",
                         code="single", power="uniform", layout_seed=99,
                         half_width_km=1.5, epsilon=0.1, outer=30, inner=600, seed=8)
    res = run_scenario(cfg)
    from cellfree.harness import _fixed_layout
    from cellfree.propagation import path_loss_db

    layout = _fixed_layout(cfg)
    beta_bar = np.sum(10 ** (-path_loss_db(np.linalg.norm(layout.positions, axis=1)) / 10))
    rng = np.random.default_rng(0)
    samples = empirical_snr_cdf(by_name("single"), np.array([beta_bar]), DEFAULT_RHO,
                                DEFAULT_RHO, 1, 20_000, rng)
    for q in (0.05, 0.25, 0.5):
        gamma = np.quantile(samples, q, method="lower")
        p1 = np.mean(res.values >= gamma)
        p2 = np.mean(samples >= gamma)
        se = np.sqrt(p1 * (1 - p1) / res.values.size + p2 * (1 - p2) / samples.size)
        assert abs(p1 - p2) < 3.5 * se


def test_ls_single_group_coverage_formula_cross_check():
    cfg = ScenarioConfig(deployment="ppp", density=20.0, shadow="none", csi="ls",
                         code="single", power="uniform", layout_seed=99,
                         half_width_km=1.5, epsilon=0.1, outer=20, inner=500, seed=9)
    res = run_scenario(cfg)
    from cellfree.harness import _fixed_layout
    from cellfree.propagation import path_loss_db

    layout = _fixed_layout(cfg)
    beta_bar = np.sum(10 ** (-path_loss_db(np.linalg.norm(layout.positions, axis=1)) / 10))
    lam = lambda_ls(beta_bar, DEFAULT_RHO, 1, DEFAULT_RHO, 1.0)
    gamma = np.median(res.values)
    p = coverage_perfect(gamma, [lam])
    p_emp = np.mean(res.values >= gamma)
    assert abs(p_emp - p) < 4 * np.sqrt(p * (1 - p) / res.values.size)


def test_rx_antennas_double_mean_snr():
    base = ScenarioConfig(deployment="ppp", shadow="none", csi="ls", code="alamouti",
                          power="uniform", layout_seed=17, **FAST)
    r1 = run_scenario(base)
    r2 = run_scenario(replace(base, rx_antennas=2))
    assert r2.values.mean() == pytest.approx(2 * r1.values.mean(), rel=0.1)


def test_empty_layouts_produce_zero_snr():
    cfg = ScenarioConfig(deployment="ppp", density=1e-4, shadow="none", csi="perfect",
                         code="single", half_width_km=1.0, epsilon=0.1,
                         outer=30, inner=10, seed=10)
    res = run_scenario(cfg)
    assert np.all(res.values >= 0)
    assert (res.values == 0).any()  # empty draws map to zero SNR (outage)


def test_validate_config_conflicts():
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(csi="perfect", power="optimized"))
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(csi="perfect", tau_p=2))
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(csi="ls", code="rate34", tau_p=2))
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(csi="ls", tau_p=TAU_C))
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(vary="grouping"))
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(terminals=((0, 0), (1, 1))))
    with pytest.raises(ValueError, match="terminals"):
        validate_config(ScenarioConfig(vary="grouping", layout_seed=1, csi="perfect",
                                       shadow="none", terminals=()))
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(deployment="hexagonal", density=0.0))
    # a lattice spacing of 10.7 km leaves no AP in a 2 km square
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(deployment="hexagonal", density=0.01, half_width_km=1.0))
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(shadow="sometimes"))
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(epsilon=0.0))
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(rx_antennas=0))
    # an unknown choice must fail, not fall through to another mode's code path
    for field, bad, allowed in (("deployment", "hex", ("ppp", "hexagonal")),
                                ("grouping", "nearest", ("random", "neighbor")),
                                ("csi", "lss", ("perfect", "ls")),
                                ("power", "max", ("uniform", "optimized")),
                                ("vary", "both", ("network", "grouping"))):
        with pytest.raises(ValueError, match=field) as err:
            validate_config(ScenarioConfig(**{field: bad}))
        assert all(repr(value) in str(err.value) for value in allowed), str(err.value)


@pytest.mark.parametrize("field, bad", [
    ("tau_p", 1.5), ("outer", 3.0), ("inner", 5.0), ("rx_antennas", True),
    ("terminals", ((1.0,),)), ("terminals", ((0.0, 0.0, 5.0),)), ("terminals", (("0", "0"),)),
    ("terminals", ((True, 0.0),)), ("terminals", ((0.0, np.True_),)),
], ids=["tau_p=1.5", "outer=3.0", "inner=5.0", "rx_antennas=True", "terminal-x", "terminal-xyz",
        "terminal-str", "terminal-bool-x", "terminal-numpy-bool-y"])
def test_validate_config_reads_each_field_kind(field, bad):
    # a fractional count or a terminal that is not an x,y pair must fail before trial 1
    cfg = ScenarioConfig(csi="ls", shadow="none", density=5.0, half_width_km=0.5,
                         outer=2, inner=2)
    with pytest.raises(ValueError, match=f"{field} must"):
        validate_config(replace(cfg, **{field: bad}))
    validate_config(replace(cfg, outer=np.int64(2), tau_p=np.int32(1)))  # numpy integers count
    for pair in ((0.0, 1), (np.float32(0.5), np.float64(0.0))):  # ints and numpy floats count
        validate_config(replace(cfg, terminals=(pair,)))


#: A value of the wrong type for each field kind; True and None are wrong for
#: every field, except None for an optional one.
_WRONG_TYPE = {float: "1.0", int: "1", str: 1.0, tuple: "0.0,0.0"}


@pytest.mark.parametrize("field", fields(ScenarioConfig), ids=lambda f: f.name)
def test_validate_config_rejects_values_of_another_kind(field):
    # a config built in Python must fail with ValueError, not run or raise TypeError
    cfg = ScenarioConfig(csi="ls", shadow="none", density=5.0, half_width_km=0.5,
                         outer=2, inner=2)
    bad = [True, np.True_, _WRONG_TYPE[harness._value_type(field.type)]]
    if type(None) not in get_args(field.type):
        bad.append(None)
    for value in bad:
        with pytest.raises(ValueError, match=f"{field.name} must"):
            validate_config(replace(cfg, **{field.name: value}))


def test_every_field_kind_has_a_type_rule():
    kinds = {harness._value_type(f.type) for f in fields(ScenarioConfig)}
    assert kinds == set(harness._KIND_TYPES) == set(_WRONG_TYPE)


def test_effective_tau_p_defaults():
    assert ScenarioConfig(csi="ls", code="rate34").effective_tau_p() == 4
    assert ScenarioConfig(csi="ls", code="alamouti", tau_p=7).effective_tau_p() == 7
    assert ScenarioConfig(csi="perfect").effective_tau_p() == 0


def test_config_text_roundtrip_all_presets():
    for exp in experiment_catalog().values():
        for _, cfg in exp.members:
            text = config_to_text(cfg)
            back = config_from_text(text)
            assert back == cfg
            assert config_to_text(back) == text
            assert config_hash(back) == config_hash(cfg)


def test_config_text_reads_field_kinds_from_annotations():
    # the field's annotation, not the value's type, decides the text form
    tuple_form = ScenarioConfig(terminals=((0.0, 0.0),))
    assert config_to_text(ScenarioConfig(terminals=[(0.0, 0.0)])) == config_to_text(tuple_form)
    assert config_to_text(ScenarioConfig(terminals=[(0, 0)])) == config_to_text(tuple_form)
    assert config_to_text(replace(tuple_form, density=20)) == config_to_text(tuple_form)
    numpy_scalars = replace(tuple_form, density=np.float64(20.0),
                            terminals=[(np.float64(0.0), np.float64(0.0))])
    assert config_to_text(numpy_scalars) == config_to_text(tuple_form)
    cfg = config_from_text("tau_p=none\nopt_grid_km=0.05\nterminals=0.1,-0.2;0.3,0.4\n")
    assert cfg.tau_p is None and cfg.opt_grid_km == 0.05
    assert cfg.terminals == ((0.1, -0.2), (0.3, 0.4))
    assert config_from_text("terminals=\n").terminals == ()
    with pytest.raises(ValueError):
        config_from_text("seed=none\n")  # 'none' only for optional fields


def test_config_text_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ValueError):
        config_from_text("nonsense=1\n")
    with pytest.raises(ValueError):
        config_from_text("seed=1\nseed=2\n")
    with pytest.raises(ValueError):
        config_from_text("outer=2.5\n")
    with pytest.raises(ValueError):
        config_from_text("seed\n")


@pytest.mark.parametrize("text,where", [
    ("seed=1\ndensity=abc\n", "line 2: bad value for 'density'"),
    ("# outer trials\nouter=2.5\n", "line 2: bad value for 'outer'"),
    ("terminals=0.0,1.0;2.0\n", "line 1: bad value for 'terminals'"),
    ("seed=1\nopt_grid_km=none\n", "line 2: bad value for 'opt_grid_km'"),
], ids=["float", "int", "terminals", "grid-step-none"])
def test_config_text_bad_value_names_line_and_key(text, where):
    with pytest.raises(ValueError, match=f"^{where}: "):
        config_from_text(text)


def test_config_text_comments_and_blanks():
    cfg = config_from_text("# a comment\n\nseed=9  # trailing\ncode=alamouti\n")
    assert cfg.seed == 9 and cfg.code == "alamouti"


def test_hyperexp_quantile_exact_on_ties():
    # rates 1e-9 apart: the Erlang-2 quantile
    g = _hyperexp_gamma_eps(np.array([1.0, 1.0 + 1e-9]), 0.1)
    assert g == pytest.approx(stats.gamma(2).ppf(0.1), rel=1e-9)
    assert _hyperexp_gamma_eps(np.array([0.7]), 1e-3) == pytest.approx(
        -np.log1p(-1e-3) / 0.7, rel=1e-9)
    exact = _hyperexp_gamma_eps(np.array([1.0, 2.0]), 0.1)
    assert coverage_perfect(exact, [1.0, 2.0]) == pytest.approx(0.9, abs=1e-9)
    # for these rates rounding puts the coverage at the analytic bound below
    # 1 - eps at tiny eps; the search must still bracket the root
    tiny = _hyperexp_gamma_eps(np.array([0.5, 0.2]), 1e-12)
    assert 1.0 - coverage_perfect(tiny, [0.5, 0.2]) == pytest.approx(1e-12, rel=1e-2)


def _scipy_coverage_and_density(gamma, lam):
    """Reference: first row of scipy's expm(gamma T); coverage and density."""
    t = np.diag(-lam) + np.diag(lam[:-1], 1)
    row = expm(gamma * t)[0]
    return row.sum(), row[-1] * lam[-1]


def _brentq_gamma_eps(lam, eps, coverage=None, xtol=2e-12):
    """Reference: the scalar brentq search on the scipy coverage, or on
    coverage(gamma, lam) when given, one rate set."""
    lam = np.asarray(lam, dtype=float)
    coverage = coverage or (lambda g, rates: _scipy_coverage_and_density(g, rates)[0])

    def excess(g):
        return coverage(g, lam) - (1.0 - eps)

    hi = (math.factorial(lam.size) * eps / np.prod(lam)) ** (1.0 / lam.size)
    lo = hi / 2.0
    while excess(hi) > 0:
        lo, hi = hi, 2.0 * hi
    return optimize.brentq(excess, lo, hi, xtol=xtol)


def _assert_roots_match_brentq(lams, eps):
    roots = _hyperexp_gamma_eps(lams, eps)
    assert roots.shape == (len(lams),)
    for lam, root in zip(lams, roots):
        want = _brentq_gamma_eps(lam, eps)
        # brentq's tolerance, plus the width of the plateau of gammas whose
        # computed coverage rounds to 1 - eps (machine epsilon over the
        # density): at eps = 1e-12 the root is not determined more finely
        # than that, about 5e-10 for rates [0.5, 0.2]
        density = _scipy_coverage_and_density(want, lam)[1]
        tol = 2e-12 + 4 * np.finfo(float).eps * abs(want) + np.finfo(float).eps / density
        assert abs(root - want) <= tol, (lam, root, want)


def _fig7_rate_sets(outer):
    """The (trial, terminal) rate sets of fig7_positions, as run_scenario builds them."""
    cfg = replace(experiment_catalog()["fig7_positions"].members[0][1], outer=outer)
    seen = []

    def capture(lams, eps):
        seen.append(np.array(lams))
        return _hyperexp_gamma_eps(lams, eps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_hyperexp_gamma_eps", capture)
        run_scenario(cfg)
    (lams,) = seen
    assert lams.shape == (3 * outer, 2)
    return lams, cfg.epsilon


def test_batched_quantiles_match_brentq_on_fig7_rate_sets():
    _assert_roots_match_brentq(*_fig7_rate_sets(outer=100))


def test_batched_quantiles_match_brentq_on_ties():
    for n in (1, 2, 3, 4):
        lams = np.repeat(np.array([[0.05], [0.7], [1.0], [40.0]]), n, axis=1)
        _assert_roots_match_brentq(lams, 1e-3)
    _assert_roots_match_brentq(np.array([[1.0, 1.0 + 1e-9], [2.0, 2.0]]), 0.1)


def test_batched_quantile_at_tiny_eps():
    _assert_roots_match_brentq(np.array([[0.5, 0.2], [0.2, 0.5]]), 1e-12)


def test_quantile_search_evaluation_count_on_fig7_rate_sets(monkeypatch):
    lams, eps = _fig7_rate_sets(outer=100)
    kernel, rows = metrics._expm_first_row, []

    def counted(x):
        rows.append(len(x))
        return kernel(x)

    monkeypatch.setattr(metrics, "_expm_first_row", counted)
    _hyperexp_gamma_eps(lams, eps)
    # plain bisection to a 4-machine-epsilon bracket takes about 54
    assert 0 < len(rows) <= 12, rows


def _exact_coverage(gamma, lam):
    """Reference: P(sum > gamma) in 60-digit arithmetic, rounded to a float.

    The Erlang law when all rates are equal, partial fractions when all are
    distinct (rates 1e-9 apart cancel about 9 digits per rate).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        g, rates = mpmath.mpf(gamma), [mpmath.mpf(x) for x in lam]
        if len(set(rates)) == 1:
            return float(mpmath.gammainc(len(rates), rates[0] * g, regularized=True))
        assert len(set(rates)) == len(rates), "partly equal rates"
        return float(mpmath.fsum(
            mpmath.exp(-r * g) * mpmath.fprod(s / (s - r) for s in rates if s != r)
            for r in rates))


def test_batched_quantiles_over_the_whole_input_range():
    # lambda = 1/(rho beta), rho beta log-uniform over [1e-3, 1e12], 1 to 4
    # groups: spread rates, exact ties and ties 1e-9 apart
    rng = np.random.default_rng(0)
    tiny = np.finfo(float).tiny
    for n in (1, 2, 3, 4):
        spread = 1.0 / 10.0 ** rng.uniform(-3, 12, size=(3, n))
        one = 1.0 / 10.0 ** rng.uniform(-3, 12, size=(2, 1))
        lams = np.concatenate([spread, np.repeat(one, n, axis=1), one * (1 + 1e-9 * np.arange(n))])
        for eps in (0.1, 1e-3, 1e-6, 1e-12):
            roots = _hyperexp_gamma_eps(lams, eps)
            for lam, root in zip(lams, roots):
                assert _hyperexp_gamma_eps(lam, eps) == root
                want = _brentq_gamma_eps(lam, eps, _exact_coverage, xtol=tiny)
                # brentq's relative tolerance, plus the plateau of an n-rate
                # coverage, which rounding leaves uncertain by n machine
                # epsilons (the search's own plateau stop)
                density = _scipy_coverage_and_density(want, lam)[1]
                tol = np.finfo(float).eps * (4 * abs(want) + n / density)
                assert abs(root - want) <= tol, (lam, eps, root, want, abs(root - want) / tol)


def test_coverage_error_for_rates_spread_over_many_decades():
    # the scaled-and-squared first row is not exact to one machine epsilon
    # when 3-4 rates span many decades; pin its error at the quantile roots
    # so that it cannot grow unnoticed (worst seen over 2,000 rate sets per
    # size: 4.5 eps for 3 rates, 5.5 for 4)
    rng = np.random.default_rng(0)
    for n in (3, 4):
        lams = 1.0 / 10.0 ** rng.uniform(-3, 12, size=(100, n))
        for eps in (0.1, 1e-3, 1e-6, 1e-12):
            roots = _hyperexp_gamma_eps(lams, eps)
            for lam, root, cov in zip(lams, roots, coverage_perfect(roots, lams)):
                err = abs(cov - _exact_coverage(root, lam)) / np.finfo(float).eps
                assert err <= 6.0, (lam, eps, err)


def test_batched_quantile_shapes():
    lams = np.array([[1.0, 2.0], [0.5, 0.5], [3.0, 0.1]])
    single = _hyperexp_gamma_eps(lams[1], 0.01)
    assert isinstance(single, float)
    batch = _hyperexp_gamma_eps(lams, 0.01)
    assert batch[1] == single
    assert np.allclose(coverage_perfect(batch, lams), 0.99, rtol=0, atol=1e-12)


@pytest.mark.parametrize("lam, eps", [
    ([np.nan, 1.0], 1e-3),
    ([np.inf, 1.0], 1e-3),
    ([0.0, 1.0], 1e-3),
    ([], 1e-3),
    ([1.0, 2.0], 0.0),
    ([1.0, 2.0], 1.0),
    ([1.0, 2.0], np.nan),
])
def test_hyperexp_quantile_rejects_bad_inputs(lam, eps):
    with pytest.raises(ValueError):
        _hyperexp_gamma_eps(lam, eps)


def test_paper_default_parameters():
    cfg = ScenarioConfig()
    assert cfg.density == 20.0          # APs per km^2
    assert cfg.epsilon == 1e-3          # outage operating point
    assert TAU_C == 300                 # coherence interval in samples
    # 1 mW over 200 kHz at 9 dB noise figure
    assert DEFAULT_RHO == pytest.approx(1.52e11, rel=5e-3)
    assert 10 * np.log10(DEFAULT_RHO) == pytest.approx(111.8, abs=0.05)
    assert cfg.shadow == "correlated"
    sp = ShadowParams()
    assert (sp.sigma_db, sp.delta, sp.decorrelation_km) == (8.0, 0.5, 0.2)
    assert cfg.shadow_params() == sp


def test_catalog_contents():
    cat = experiment_catalog()
    assert sorted(cat) == ["fig3", "fig4", "fig5", "fig6", "fig7_positions",
                           "fig8", "fig9"]
    fig3 = dict(cat["fig3"].members)
    assert len(fig3) == 6
    assert fig3["hex-d20"].deployment == "hexagonal"
    assert fig3["ppp-d40"].density == 40.0
    assert all(c.outer == 2000 for c in fig3.values())

    fig4 = cat["fig4"].members
    assert [label for label, _ in fig4] == ["none", "uncorrelated", "correlated"]
    assert len({cfg.seed for _, cfg in fig4}) == 1  # paired seeds

    fig9 = dict(cat["fig9"].members)
    cellular, cellfree = fig9["cellular"], fig9["cellfree"]
    assert cellular.antennas_per_ap == 100 and cellular.deployment == "hexagonal"
    assert cellfree.antennas_per_ap == 1 and cellfree.deployment == "ppp"
    # equal antenna density: 1000 antennas per km^2 on both sides
    assert cellular.density * cellular.antennas_per_ap == 1000.0
    assert cellfree.density * cellfree.antennas_per_ap == 1000.0
    assert cellular.code == cellfree.code == "alamouti"

    fig7 = cat["fig7_positions"].members[0][1]
    assert fig7.vary == "grouping" and fig7.csi == "perfect" and fig7.shadow == "none"
    assert len(fig7.terminals) == 3


def test_fig7_scenario_rates_and_terminal_split():
    cat = experiment_catalog()
    cfg = replace(cat["fig7_positions"].members[0][1], outer=150)
    res = run_scenario(cfg)
    assert res.kind == "rate_bpcu"
    assert res.values.shape == (150, 3, 1)
    assert [samples.size for _, samples in res.terminals()] == [150, 150, 150]
    rows = summarize(res)
    assert [r["scenario"].split("/")[-1] for r in rows] == ["t0", "t1", "t2"]


def test_single_group_grouping_run_scores_the_closed_form_rate_in_every_trial():
    # one group holds every antenna whatever the drawn grouping, so each trial of a
    # terminal scores the quantile of one exponential, -log1p(-eps) / lambda
    cfg = ScenarioConfig(density=20.0, half_width_km=0.5, shadow="none", csi="perfect",
                         code="single", antennas_per_ap=2, epsilon=1e-2, outer=6, inner=1,
                         vary="grouping", layout_seed=3, terminals=((0.0, 0.0), (0.2, -0.1)))
    res = run_scenario(cfg)
    layout = harness._fixed_layout(cfg)
    beta_ant = per_antenna(path_gain(layout, cfg.terminals), cfg.antennas_per_ap)
    for (_, rates), b in zip(res.terminals(), beta_ant):
        root = -np.log1p(-cfg.epsilon) / lambda_perfect(b.sum(), 1.0)
        assert np.all(rates == rates[0])
        assert rates[0] == pytest.approx(outage_rate(root, 0, by_name("single")), rel=1e-12)


_THREE_TERMINALS = ((0.0, 0.0), (0.2, -0.1), (-0.3, 0.25))


def _grouping_cfg(code, antennas_per_ap, terminals, outer=1):
    return ScenarioConfig(density=20.0, half_width_km=0.5, shadow="none", csi="perfect",
                          code=code, antennas_per_ap=antennas_per_ap, epsilon=1e-3,
                          outer=outer, inner=1, seed=9, vary="grouping", layout_seed=5,
                          terminals=terminals)


def _beta_ant(cfg):
    layout = harness._fixed_layout(cfg)
    return per_antenna(path_gain(layout, cfg.terminals), cfg.antennas_per_ap)


def _grouping_batch(cfg):
    """Trials per batch of a grouping run's sums."""
    return max(1, grouping._BATCH_ELEMENTS // _beta_ant(cfg).size)


def _per_trial_grouping_rates(cfg):
    """Group rates of each trial and terminal, one grouping and sum at a time."""
    code, beta_ant = by_name(cfg.code), _beta_ant(cfg)
    return np.stack([
        np.stack([lambda_perfect(group_large_scale(b, g, code.n_groups), code.es)
                  for b in beta_ant])
        for g in (random_grouping(beta_ant.shape[-1], code.n_groups,
                                  trial_stream(cfg.seed, t)).assignment
                  for t in range(cfg.outer))])


@pytest.mark.parametrize("terminals", [((0.1, 0.1),), _THREE_TERMINALS], ids=["k1", "k3"])
@pytest.mark.parametrize("antennas_per_ap", [1, 3])
@pytest.mark.parametrize("code_name", ["single", "alamouti", "rate34"])
def test_batched_grouping_rates_equal_per_trial_sums(code_name, antennas_per_ap, terminals):
    # an outer of two full batches and part of a third; each group sum adds its
    # antennas in antenna order, so the rates and roots are bit-identical
    cfg = _grouping_cfg(code_name, antennas_per_ap, terminals)
    cfg = replace(cfg, outer=2 * _grouping_batch(cfg) + 5)
    code = by_name(code_name)
    assert code.n_groups == 1 or _beta_ant(cfg).shape[-1] % code.n_groups  # unequal groups
    ref = _per_trial_grouping_rates(cfg)
    sums = random_group_sums(_beta_ant(cfg), code.n_groups, cfg.outer,
                             lambda t: trial_stream(cfg.seed, t))
    rates = lambda_perfect(sums, code.es)
    assert rates.shape == ref.shape == (cfg.outer, len(terminals), code.n_groups)
    assert np.array_equal(rates, ref)
    gamma = _hyperexp_gamma_eps(ref.reshape(-1, code.n_groups), cfg.epsilon)
    expected = outage_rate(gamma, 0, code).reshape(cfg.outer, -1, 1)
    assert np.array_equal(run_scenario(cfg).values, expected)


@pytest.mark.parametrize("code_name", ["alamouti", "rate34"])
def test_grouping_trial_does_not_depend_on_outer_or_its_batch(code_name):
    # k straddles a batch boundary, and k + m shifts where the last batch ends
    cfg = _grouping_cfg(code_name, 1, _THREE_TERMINALS)
    k = _grouping_batch(cfg) + 3
    short = run_scenario(replace(cfg, outer=k)).values
    long = run_scenario(replace(cfg, outer=k + _grouping_batch(cfg) - 1)).values
    assert np.array_equal(long[:k], short)


def test_grouping_run_peak_memory_stays_below_one_mb():
    # 1,995 antennas and 2,000 trials: an unbatched (trials, antennas)
    # temporary would take 32 MB. The traced peak is about 0.8 MB, set by the
    # root search; the batched sums peak at about 0.45 MB.
    cfg = _grouping_cfg("alamouti", 95, ((0.1, 0.1),), outer=2000)
    assert _beta_ant(cfg).shape[-1] == 1995
    tracemalloc.start()
    try:
        res = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.values.shape == (2000, 1, 1)
    assert peak < 1e6


def test_run_experiment_applies_overrides():
    cat = experiment_catalog()
    exp = cat["fig4"]
    results = run_experiment(with_overrides(exp, seed=3, outer=20, inner=10))
    assert len(results) == 3
    for r in results:
        assert r.config.seed == 3 and r.config.outer == 20
        assert r.label.startswith("fig4/")


def test_result_csv_schema(tmp_path):
    cfg = ScenarioConfig(deployment="ppp", shadow="none", csi="perfect", code="single",
                         half_width_km=1.0, epsilon=0.1, outer=10, inner=5, seed=1)
    res = run_scenario(cfg, label="demo")
    path = tmp_path / "r.csv"
    write_result_csv(path, [res])
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert any("power_plan" in c for c in comments)
    assert body[0] == "scenario,seed,trial,snr_linear"
    assert len(body) == 1 + 50
    first = body[1].split(",")
    assert first[0] == "demo" and first[1] == "1" and first[2] == "0"


@pytest.mark.parametrize("density", [10.0, 0.3])
def test_result_csv_reports_every_per_trial_plan(tmp_path, density):
    # at density 0.3 some trial layouts have no AP and are scored without a plan
    cfg = ScenarioConfig(deployment="ppp", density=density, shadow="none", csi="ls",
                         code="single", tau_p=1, power="optimized", half_width_km=1.0,
                         opt_grid_km=0.05, epsilon=0.1, outer=9, inner=5, seed=3)
    res = run_scenario(cfg, label="opt")
    path = tmp_path / "r.csv"
    write_result_csv(path, [res])
    comment = next(l for l in path.read_text().splitlines() if "power_plan" in l)
    # replay each trial's layout draw (the first use of its stream) and plan it
    layouts = [place_ppp(cfg.density, cfg.region(), trial_stream(cfg.seed, t))
               for t in range(cfg.outer)]
    plans = [optimize_pilot_power(layout, 1, grid_resolution=cfg.opt_grid_km)
             for layout in layouts if layout.n_aps > 0]
    assert (len(plans) < cfg.outer) == (density < 1.0) and len(plans) > 1
    rho_p = np.array([p.rho_p for p in plans])
    rho_d = np.array([p.rho_d for p in plans])
    assert np.ptp(rho_p) > 0
    assert comment == (
        f"# power_plan[opt]: per-trial plans over {len(plans)} of 9 trials: "
        f"rho_p min={rho_p.min():.6g} median={np.median(rho_p):.6g} max={rho_p.max():.6g}, "
        f"rho_d min={rho_d.min():.6g} median={np.median(rho_d):.6g} max={rho_d.max():.6g}, "
        f"tau_p=1"
    )


def test_uniform_power_run_with_no_ap_reports_zero_plans():
    # every layout is empty, so no trial uses the uniform plan
    cfg = ScenarioConfig(deployment="ppp", density=0.0, half_width_km=1.0, shadow="none",
                         csi="ls", code="single", power="uniform", epsilon=0.1, outer=4,
                         inner=5, seed=2)
    assert run_scenario(cfg).power_note == "per-trial plans over 0 of 4 trials"


def test_fixed_layout_run_reports_its_one_plan_for_every_trial():
    cfg = ScenarioConfig(deployment="hexagonal", density=10.0, half_width_km=0.6, shadow="none",
                         csi="ls", code="alamouti", grouping="neighbor", power="optimized",
                         opt_grid_km=0.1, epsilon=0.1, outer=5, inner=5, seed=3)
    plan = optimize_pilot_power(place_hex(cfg.density, cfg.region()), 2, grid_resolution=0.1)
    rho_p, rho_d = (f"min={v:.6g} median={v:.6g} max={v:.6g}" for v in (plan.rho_p, plan.rho_d))
    assert run_scenario(cfg).power_note == (
        f"per-trial plans over 5 of 5 trials: rho_p {rho_p}, rho_d {rho_d}, tau_p=2")


@pytest.mark.parametrize("csi, code", [("perfect", "alamouti"), ("ls", "single"),
                                       ("ls", "rate34")])
def test_trial_replay_with_two_receive_antennas(csi, code):
    # each trial rebuilt by hand, drawing one receive branch after the other
    cfg = ScenarioConfig(deployment="ppp", shadow="uncorrelated", csi=csi, code=code,
                         rx_antennas=2, half_width_km=1.5, epsilon=0.1, outer=3, inner=20,
                         seed=5)
    res = run_scenario(cfg)
    stbc = by_name(code)
    tau_p = cfg.effective_tau_p()
    plan = uniform_plan(tau_p) if csi == "ls" else None
    terminal = np.zeros(2)
    for t in range(cfg.outer):
        rng = trial_stream(cfg.seed, t)
        layout = place_ppp(cfg.density, cfg.region(), rng)
        assert layout.n_antennas >= stbc.n_groups
        if stbc.n_groups == 1:
            assignment = np.zeros(layout.n_antennas, dtype=np.int64)
        else:
            assignment = random_grouping(layout.n_antennas, stbc.n_groups, rng).assignment
        shadow = shadow_fields(layout, [terminal], cfg.shadow_params(), rng)[0]
        beta_bar = large_scale_from_shadow(layout, path_gain(layout, terminal), shadow,
                                           assignment, stbc.n_groups)
        total = np.zeros(cfg.inner)
        for _ in range(cfg.rx_antennas):
            if csi == "perfect":
                branch = np.zeros(cfg.inner)
                for bb in beta_bar:
                    branch += rng.exponential(DEFAULT_RHO * stbc.es * bb, cfg.inner)
            elif stbc.n_groups == 1:
                lam = lambda_ls(beta_bar[0], plan.rho_p, tau_p, plan.rho_d, stbc.es)
                branch = rng.exponential(1.0 / lam, cfg.inner)
            else:
                c_e, u, cc = conditional_error_stats(beta_bar, plan.rho_p, tau_p)
                h_hat = draw_effective_channel(beta_bar + c_e, rng, size=cfg.inner)
                branch = snr_ls_values(stbc, 0, np.abs(h_hat) ** 2, u, cc, plan.rho_d)
            total += branch
        assert np.array_equal(res.values[t, 0], total)


def _count_setup_calls(monkeypatch):
    calls = {"neighbor_grouping": 0, "optimize_pilot_power": 0, "path_gain": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    return calls


@pytest.mark.parametrize("shadow, draws", [("none", 0), ("uncorrelated", 6)])
def test_shadow_field_drawn_only_when_shadowing_is_on(monkeypatch, shadow, draws):
    calls = []
    monkeypatch.setattr(harness, "shadow_fields",
                        lambda *args: calls.append(args) or shadow_fields(*args))
    cfg = ScenarioConfig(deployment="ppp", density=20.0, half_width_km=1.0, shadow=shadow,
                         csi="perfect", code="single", epsilon=0.1, outer=6, inner=5, seed=3)
    run_scenario(cfg)
    assert len(calls) == draws


def test_fixed_layout_computes_its_setup_once(monkeypatch):
    # the shape of fig9's cellular member: hexagonal, neighbor grouping, optimized power
    calls = _count_setup_calls(monkeypatch)
    cfg = ScenarioConfig(deployment="hexagonal", density=10.0, antennas_per_ap=4,
                         half_width_km=0.6, shadow="uncorrelated", csi="ls", code="alamouti",
                         grouping="neighbor", power="optimized", opt_grid_km=0.1,
                         epsilon=0.1, outer=6, inner=10, seed=3)
    run_scenario(cfg)
    assert calls == {"neighbor_grouping": 1, "optimize_pilot_power": 1, "path_gain": 1}


def test_drawn_layouts_compute_one_setup_per_non_degenerate_trial(monkeypatch):
    calls = _count_setup_calls(monkeypatch)
    cfg = ScenarioConfig(deployment="ppp", density=1.0, half_width_km=1.0, shadow="none",
                         csi="ls", code="alamouti", grouping="neighbor", power="optimized",
                         opt_grid_km=0.1, epsilon=0.1, outer=12, inner=5, seed=3)
    res = run_scenario(cfg)
    runnable = sum(place_ppp(cfg.density, cfg.region(), trial_stream(cfg.seed, t)).n_antennas >= 2
                   for t in range(cfg.outer))
    assert 0 < runnable < cfg.outer
    assert calls == {"neighbor_grouping": runnable, "optimize_pilot_power": runnable,
                     "path_gain": runnable}
    assert f"per-trial plans over {runnable} of {cfg.outer} trials" in res.power_note


@pytest.mark.parametrize("deployment, layout_seed, gains", [
    ("hexagonal", None, 1), ("ppp", 4, 1), ("ppp", None, 7)])
def test_path_gain_once_per_layout(monkeypatch, deployment, layout_seed, gains):
    # fig3's perfect-CSI shape: a fixed layout shares one gain, a drawn one has its own
    calls = _count_setup_calls(monkeypatch)
    cfg = ScenarioConfig(deployment=deployment, density=20.0, half_width_km=1.0,
                         shadow="none", csi="perfect", code="single", layout_seed=layout_seed,
                         epsilon=0.1, outer=7, inner=10, seed=3)
    run_scenario(cfg)
    assert calls["path_gain"] == gains


def test_shared_gain_equals_per_trial_gain():
    # a fixed layout's trials, each recomputing its whole setup, gain included
    cfg = ScenarioConfig(deployment="ppp", density=20.0, half_width_km=1.0, layout_seed=5,
                         shadow="uncorrelated", csi="ls", code="alamouti", power="uniform",
                         epsilon=0.1, outer=4, inner=20, seed=6)
    res = run_scenario(cfg)
    code, fixed = validate_config(cfg)
    for t in range(cfg.outer):
        snr, _ = harness._network_trial(cfg, code, harness._layout_setup(cfg, code, fixed), t)
        assert np.array_equal(res.values[t, 0], snr)


def test_summary_csv_schema(tmp_path):
    cfg = ScenarioConfig(deployment="ppp", shadow="none", csi="perfect", code="single",
                         half_width_km=1.0, epsilon=0.1, outer=40, inner=30, seed=2)
    res = run_scenario(cfg, label="demo")
    path = tmp_path / "s.csv"
    write_summary_csv(path, [res])
    lines = path.read_text().splitlines()
    assert lines[0] == "scenario,epsilon,gamma_eps,rate_bpcu,ci_halfwidth,n_trials"
    fields = lines[1].split(",")
    assert fields[0] == "demo"
    assert float(fields[1]) == 0.1
    assert int(fields[5]) == 1200


def test_multi_terminal_csv_suffixes(tmp_path):
    cat = experiment_catalog()
    cfg = replace(cat["fig7_positions"].members[0][1], outer=20)
    res = run_scenario(cfg, label="fig7")
    path = tmp_path / "r.csv"
    write_result_csv(path, [res])
    body = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "scenario,seed,trial,rate_bpcu"
    # trial-major: t0, t1 and t2 of trial 0, then of trial 1, and so on
    keys = [tuple(l.split(",")[::2]) for l in body[1:]]
    assert keys == [(f"fig7/t{k}", str(t)) for t in range(20) for k in range(3)]
    values = [float(l.split(",")[3]) for l in body[1:]]
    assert values == res.values.ravel().tolist()


def test_single_terminal_grouping_run_writes_unsuffixed_name(tmp_path):
    cfg = experiment_catalog()["fig7_positions"].members[0][1]
    cfg = replace(cfg, terminals=cfg.terminals[:1], outer=10)
    res = run_scenario(cfg, label="fig7")
    assert res.values.shape == (10, 1, 1)
    write_result_csv(tmp_path / "r.csv", [res])
    write_summary_csv(tmp_path / "s.csv", [res])
    write_cdf_tables(tmp_path / "c.dat", [res])
    result = (tmp_path / "r.csv").read_text().splitlines()
    assert {l.split(",")[0] for l in result if not l.startswith("#")} == {"scenario", "fig7"}
    summary = (tmp_path / "s.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in summary[1:]] == ["fig7"]
    cdf = (tmp_path / "c.dat").read_text().splitlines()
    assert [l for l in cdf if l.startswith("#")] == ["# fig7 (rate_bpcu)"]


def _reference_result_csv(results):
    """The result CSV as written one f-string per row."""
    kind = results[0].kind
    out = []
    for r in results:
        out.append(f"# scenario={r.label} seed={r.config.seed} "
                   f"config_hash={config_hash(r.config)}\n")
        out.append(f"# power_plan[{r.label}]: {r.power_note}\n")
    out.append(f"scenario,seed,trial,{kind}\n")
    for r in results:
        series = [(name, samples.tolist()) for name, samples in r.terminals()]
        for trial in range(r.config.outer):
            for name, samples in series:
                head = f"{name},{r.config.seed},{trial},"
                out.extend(f"{head}{v:.17g}\n" for v in samples[trial])
    return "".join(out)


def _reference_cdf_tables(results):
    """The CDF tables as written one f-string per row."""
    out = []
    for r in results:
        for name, samples in r.terminals():
            vals = np.sort(samples, axis=None).tolist()
            out.append(f"# {name} ({r.kind})\n")
            out.extend(f"{v:.17g} {i / len(vals):.17g}\n" for i, v in enumerate(vals, 1))
            out.append("\n\n")
    return "".join(out)


def _synthetic_result(n_per_trial, label, seed=None, outer=1):
    """outer trials of n_per_trial SNR samples over many magnitudes, with ties."""
    rng = np.random.default_rng(n_per_trial if seed is None else seed)
    size = outer * n_per_trial
    values = rng.exponential(size=size) * 10.0 ** rng.integers(-300, 300, size)
    values[::7] = values[0]
    cfg = ScenarioConfig(deployment="ppp", shadow="none", csi="perfect", code="single",
                         epsilon=0.1, outer=outer, inner=n_per_trial, seed=7)
    return [RunResult(cfg, label, values.reshape(outer, 1, -1), "rho=1")]


def _mixed_count_results(label):
    # sample counts n, n, m, n: the probability column is reused, rebuilt for
    # m and rebuilt again for n; each block holds other values
    n, m = _CDF_CHUNK_ROWS + 1, 1
    return [_synthetic_result(k, f"{label}/{i}", seed=i)[0] for i, k in enumerate([n, n, m, n])]


def _zero_snr_results(label):
    # at density 0.3 some trial layouts have no AP and score an all-zero row
    cfg = ScenarioConfig(deployment="ppp", density=0.3, shadow="none", csi="perfect",
                         code="single", half_width_km=1.0, epsilon=0.1, outer=12,
                         inner=100, seed=3)
    res = run_scenario(cfg, label=label)
    assert np.any(np.all(res.values == 0.0, axis=-1))
    return [res]


def _three_terminal_results(label):
    cfg = experiment_catalog()["fig7_positions"].members[0][1]
    res = run_scenario(replace(cfg, outer=_CDF_CHUNK_ROWS + 50), label=label)
    assert res.values.shape[1] == 3
    return [res]


@pytest.mark.parametrize("make", [
    lambda label: _synthetic_result(1, label),
    lambda label: _synthetic_result(_CDF_CHUNK_ROWS, label),
    lambda label: _synthetic_result(_CDF_CHUNK_ROWS + 1, label),
    _mixed_count_results,
    _zero_snr_results,
    _three_terminal_results,
    # ten trials of 100 values per result-writer block: the last block is short
    lambda label: _synthetic_result(100, label, outer=23),
], ids=["one-row", "one-chunk", "chunk-plus-one", "counts-n-n-m-n", "zero-snr",
        "three-terminals", "partial-block"])
def test_writers_match_per_row_formatting(tmp_path, make):
    # a label may hold '%', which the block formatting must escape
    results = make("run%d 50%s%%")
    write_result_csv(tmp_path / "r.csv", results)
    write_cdf_tables(tmp_path / "c.dat", results)
    assert (tmp_path / "r.csv").read_bytes() == _reference_result_csv(results).encode()
    assert (tmp_path / "c.dat").read_bytes() == _reference_cdf_tables(results).encode()


def test_cdf_writer_peak_memory_stays_below_two_mb(tmp_path):
    # fig3 at --outer 350: six blocks of 35,000 samples. The traced peak is
    # about 1.3 MB: two sorted blocks and the kept probability column, one
    # string per chunk. A list of per-row str objects would add about 2.7 MB.
    results = [_synthetic_result(35_000, f"m{i}", seed=i)[0] for i in range(6)]
    tracemalloc.start()
    try:
        write_cdf_tables(tmp_path / "c.dat", results)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_result_writer_peak_memory_stays_below_half_a_mb(tmp_path):
    # fig3 at --outer 350: six results of 350 trials of 100 samples. Blocks
    # of about 1024 values keep the traced peak near 0.1 MB; one % over a
    # whole result would hold its 35,000 floats and their text, about 2.9 MB.
    results = [_synthetic_result(100, f"m{i}", seed=i, outer=350)[0] for i in range(6)]
    tracemalloc.start()
    try:
        write_result_csv(tmp_path / "r.csv", results)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_mixed_kinds_rejected(tmp_path):
    cfg1 = ScenarioConfig(deployment="ppp", shadow="none", csi="perfect", code="single",
                          half_width_km=1.0, epsilon=0.1, outer=5, inner=5)
    cat = experiment_catalog()
    cfg2 = replace(cat["fig7_positions"].members[0][1], outer=5)
    r1, r2 = run_scenario(cfg1), run_scenario(cfg2)
    with pytest.raises(ValueError):
        write_result_csv(tmp_path / "x.csv", [r1, r2])
