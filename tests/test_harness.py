import math

import numpy as np
import pytest
from dataclasses import replace
from scipy import optimize, stats
from scipy.linalg import expm

from cellfree import harness

from cellfree.deployment import place_ppp
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
from cellfree.metrics import coverage_ls_single, coverage_perfect
from cellfree.ostbc import by_name
from cellfree.power import DEFAULT_RHO, normalized_power, optimize_pilot_power
from cellfree.propagation import PathLossParams
from cellfree.snr import lambda_ls, lambda_perfect

FAST = dict(half_width_km=1.5, epsilon=0.1, outer=60, inner=50, seed=5)


def test_normalized_power_paper_operating_point():
    rho = normalized_power(1e-3, 200e3, 300.0, 9.0)
    assert rho == pytest.approx(1.52e11, rel=5e-3)
    assert 10 * np.log10(rho) == pytest.approx(111.8, abs=0.05)
    assert DEFAULT_RHO == rho


def test_normalized_power_scalings():
    base = normalized_power(1e-3, 200e3, 300.0, 9.0)
    assert normalized_power(1e-3, 200e3, 300.0, 6.0) == pytest.approx(base * 10**0.3)
    assert normalized_power(1e-3, 400e3, 300.0, 9.0) == pytest.approx(base / 2.0)


def test_trial_stream_is_pure_function_of_key():
    a = trial_stream(42, 7).standard_normal(5)
    _ = trial_stream(42, 3).standard_normal(11)  # unrelated stream in between
    b = trial_stream(42, 7).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, trial_stream(42, 8).standard_normal(5))
    assert not np.array_equal(a, trial_stream(43, 7).standard_normal(5))


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
    lam = lambda_perfect(np.array([beta_bar]), cfg.rho, cfg.es)[0]
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
    samples = empirical_snr_cdf(by_name("single"), np.array([beta_bar]), cfg.rho, cfg.rho,
                                1, 20_000, rng)
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
    lam = lambda_ls(beta_bar, cfg.rho, 1, cfg.rho, 1.0)
    gamma = np.median(res.values)
    p = coverage_ls_single(gamma, [lam])
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
        validate_config(ScenarioConfig(csi="ls", tau_p=300, tau_c=300))
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(vary="grouping"))
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(terminals=((0, 0), (1, 1))))
    with pytest.raises(ValueError, match="terminals"):
        validate_config(ScenarioConfig(vary="grouping", layout_seed=1, csi="perfect",
                                       shadow="none", terminals=()))
    with pytest.raises(ValueError):
        validate_config(ScenarioConfig(deployment="hexagonal", density=0.0))
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


def _brentq_gamma_eps(lam, eps):
    """Reference: the scalar brentq search on the scipy coverage, one rate set."""
    lam = np.asarray(lam, dtype=float)

    def excess(g):
        return _scipy_coverage_and_density(g, lam)[0] - (1.0 - eps)

    hi = (math.factorial(lam.size) * eps / np.prod(lam)) ** (1.0 / lam.size)
    lo = hi / 2.0
    while excess(hi) > 0:
        lo, hi = hi, 2.0 * hi
    return optimize.brentq(excess, lo, hi)


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
    assert cfg.tau_c == 300             # coherence interval in samples
    assert cfg.epsilon == 1e-3          # outage operating point
    assert cfg.rho == DEFAULT_RHO       # 1 mW over 200 kHz at 9 dB noise figure
    assert cfg.shadow == "correlated"
    sp = cfg.shadow_params()
    assert (sp.sigma_db, sp.delta, sp.decorrelation_km) == (8.0, 0.5, 0.2)


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
    plans = [optimize_pilot_power(layout, PathLossParams(), cfg.rho, 1, cfg.tau_c, cfg.es,
                                  grid_resolution=cfg.opt_grid_km)
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


def _synthetic_result(n_per_trial, label):
    """One trial of n_per_trial SNR samples over many magnitudes, with ties."""
    rng = np.random.default_rng(n_per_trial)
    values = rng.exponential(size=n_per_trial) * 10.0 ** rng.integers(-300, 300, n_per_trial)
    values[::7] = values[0]
    cfg = ScenarioConfig(deployment="ppp", shadow="none", csi="perfect", code="single",
                         epsilon=0.1, outer=1, inner=n_per_trial, seed=7)
    return [RunResult(cfg, label, "snr_linear", values.reshape(1, 1, -1), "rho=1")]


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
    _zero_snr_results,
    _three_terminal_results,
], ids=["one-row", "one-chunk", "chunk-plus-one", "zero-snr", "three-terminals"])
def test_writers_match_per_row_formatting(tmp_path, make):
    # a label may hold '%', which the block formatting must escape
    results = make("run%d 50%s%%")
    write_result_csv(tmp_path / "r.csv", results)
    write_cdf_tables(tmp_path / "c.dat", results)
    assert (tmp_path / "r.csv").read_bytes() == _reference_result_csv(results).encode()
    assert (tmp_path / "c.dat").read_bytes() == _reference_cdf_tables(results).encode()


def test_mixed_kinds_rejected(tmp_path):
    cfg1 = ScenarioConfig(deployment="ppp", shadow="none", csi="perfect", code="single",
                          half_width_km=1.0, epsilon=0.1, outer=5, inner=5)
    cat = experiment_catalog()
    cfg2 = replace(cat["fig7_positions"].members[0][1], outer=5)
    r1, r2 = run_scenario(cfg1), run_scenario(cfg2)
    with pytest.raises(ValueError):
        write_result_csv(tmp_path / "x.csv", [r1, r2])
