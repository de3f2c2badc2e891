"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline. Desk-scale operating points follow the preset catalog
(epsilon = 1e-2 for the figure experiments unless a criterion needs the
log-compressed regime, see criterion 9).
"""

import numpy as np
from scipy import optimize

from cellfree.channel import complex_normal
from cellfree.cli import main as cli_main
from cellfree.deployment import Region, place_ppp
from cellfree.grouping import neighbor_grouping, random_grouping
from cellfree.harness import (
    ScenarioConfig,
    config_to_text,
    experiment_catalog,
    run_experiment,
    run_scenario,
    summarize,
    trial_stream,
)
from cellfree.linklevel import check_corollary1, check_hyperexp, check_theorem1
from cellfree.ostbc import alamouti, orthogonality_defect, rate_three_quarter
from cellfree.power import DEFAULT_RHO, optimize_pilot_power
from cellfree.propagation import D_I_KM, D_O_KM, ShadowParams, path_loss_db, shadow_fields
from cellfree.snr import lambda_ls


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_ostbc_orthogonality():
    rng = np.random.default_rng(0)
    defects = {}
    for code in (alamouti(), rate_three_quarter()):
        s = complex_normal(rng, (1000, code.n_symbols))
        defects[code.name] = orthogonality_defect(code, s)
    ok = all(d < 1e-10 for d in defects.values())
    report(1, "OSTBC orthogonality", ok,
           f"max |X^H X - sum|s|^2 I| = {max(defects.values()):.2e} over 1000 draws/code")


def test_criterion_02_corollary1_oracle():
    pvals = [check_corollary1(seed, n_trials=100_000)["pvalue"] for seed in range(1, 6)]
    ok = all(p > 0.01 for p in pvals)
    report(2, "single-group LS SNR law (corollary1 oracle)", ok,
           "KS p-values over 5 seeds (1e5 link-level samples each): "
           + ", ".join(f"{p:.3f}" for p in pvals))


def test_criterion_03_theorem1_conditional_moments():
    res = check_theorem1(seed=1, n_configs=20, n_draws=100_000)
    counts = {k: f"{v['n_pass']}/{v['n_configs']}" for k, v in res["codes"].items()}
    report(3, "general-OSTBC conditional moments (theorem1 oracle)", res["ok"],
           f"configurations within 3 SE: {counts} (1e5 conditional draws each)")


def test_criterion_04_perfect_csi_hyperexponential():
    res = check_hyperexp(seed=1, n_trials=100_000, n_gammas=20)
    report(4, "Perfect-CSI hyperexponential law", res["ok"],
           f"max coverage deviation {res['max_dev_se']:.2f} SE over 20 gamma points")


def test_criterion_05_three_db_asymptote():
    rho_beta = 1e6
    ratio = lambda_ls(rho_beta, 1.0, 1, 1.0, 1.0) * rho_beta  # lambda_perfect = 1/(rho beta)
    ok = abs(ratio - 2.0) <= 0.01 * 2.0
    report(5, "3 dB pilot asymptote", ok,
           f"lambda_ls/lambda_perfect = {ratio:.6f} at rho*beta = 1e6 (target 2 within 1%)")


def test_criterion_06_path_loss_anchor():
    anchor = path_loss_db(1.0)
    jumps = [
        abs(path_loss_db(d * (1 - 1e-12)) - path_loss_db(d * (1 + 1e-12)))
        for d in (D_I_KM, D_O_KM)
    ]
    ok = abs(anchor - 141.16) <= 0.1 and max(jumps) < 1e-9
    report(6, "Path-loss anchor", ok,
           f"PL(1 km) = {anchor:.3f} dB (target 141.16 +- 0.1); "
           f"break-point jumps {max(jumps):.1e} dB")


def test_criterion_07_deployment_ordering():
    results = run_experiment(experiment_catalog()["fig3"])
    rates = {r.label.split("/")[1]: summarize(r)[0]["rate_bpcu"] for r in results}
    pairs = [(rates[f"hex-d{d}"], rates[f"ppp-d{d}"]) for d in (10, 20, 40)]
    ok = all(hx >= pp for hx, pp in pairs)
    report(7, "Deployment ordering (fig3)", ok,
           "hex vs ppp rate at densities 10/20/40: "
           + ", ".join(f"{hx:.4f}>={pp:.4f}" for hx, pp in pairs))


def test_criterion_08_shadow_model_ordering():
    results = run_experiment(experiment_catalog()["fig4"])
    gammas = {r.label.split("/")[1]: summarize(r)[0]["gamma_eps"] for r in results}
    ok = gammas["correlated"] < gammas["none"] < gammas["uncorrelated"]
    db = {k: 10 * np.log10(v) for k, v in gammas.items()}
    report(8, "Shadow-model ordering (fig4)", ok,
           f"1e-2 SNR quantile [dB]: correlated {db['correlated']:.2f} < "
           f"no-shadow {db['none']:.2f} < uncorrelated {db['uncorrelated']:.2f}")


def _paired_pilot_tradeoff(n_layouts=800, seed=1):
    """Shared large-scale draws; exact single-group small-scale coverage.

    Returns per-layout lambda_ls arrays for the equal-power sweep and the
    optimized single-pilot plan, so every comparison is paired.
    """
    sp = ShadowParams("correlated")
    rho = DEFAULT_RHO
    betas = np.empty(n_layouts)
    lam_opt = np.empty(n_layouts)
    for t in range(n_layouts):
        rng = trial_stream(seed, t)
        layout = place_ppp(20.0, Region(2.5), rng)
        v = shadow_fields(layout, [(0.0, 0.0)], sp, rng)[0]
        d = np.linalg.norm(layout.positions, axis=1)
        betas[t] = np.sum(10.0 ** (-(path_loss_db(d) + v) / 10.0))
        plan = optimize_pilot_power(layout, 1, grid_resolution=0.05)
        lam_opt[t] = lambda_ls(betas[t], plan.rho_p, 1, plan.rho_d, 1.0)
    lam_eq = {tp: lambda_ls(betas, rho, tp, rho, 1.0) for tp in range(1, 11)}
    return lam_eq, lam_opt


def _rate_at(lams, eps, tau_p, tau_c=300):
    def f(g):
        return np.mean(np.exp(-g * lams)) - (1.0 - eps)

    hi = 1.0
    while f(hi) > 0:
        hi *= 4.0
    gamma = optimize.brentq(f, 0.0, hi)
    return (1.0 - tau_p / tau_c) * np.log2(1.0 + gamma)


def test_criterion_09_pilot_tradeoff_shape():
    lam_eq, lam_opt = _paired_pilot_tradeoff()

    # log-compressed operating point: the rise-then-fall shape sits inside
    # tau_p in {1..10} (at eps <= 0.3 the peak provably lies beyond 10)
    eps = 0.8
    curve = np.array([_rate_at(lam_eq[tp], eps, tp) for tp in range(1, 11)])
    m = int(np.argmax(curve))
    rises_then_falls = (
        0 < m < 9
        and np.all(np.diff(curve[: m + 1]) > 0)
        and np.all(np.diff(curve[m:]) < 0)
    )
    r_opt = _rate_at(lam_opt, eps, 1)

    # bootstrap CI (over shared layouts) for the opt-vs-best-equal margin
    rng = np.random.default_rng(0)
    n = lam_opt.size
    margins = []
    for _ in range(200):
        idx = rng.integers(0, n, n)
        best_eq = max(_rate_at(lam_eq[tp][idx], eps, tp) for tp in (m, m + 1, m + 2))
        margins.append(_rate_at(lam_opt[idx], eps, 1) - best_eq)
    opt_ok = r_opt >= curve.max() - max(0.0, -np.quantile(margins, 0.025))

    # desk epsilon: curve still rising at tau_p = 10 (peak beyond the window);
    # the optimized single-pilot plan must beat every equal-power point
    curve_desk = np.array([_rate_at(lam_eq[tp], 1e-2, tp) for tp in range(1, 11)])
    desk_ok = (
        np.all(np.diff(curve_desk) > 0)
        and _rate_at(lam_opt, 1e-2, 1) >= curve_desk.max()
    )

    ok = rises_then_falls and opt_ok and desk_ok
    report(9, "Pilot trade-off shape (fig5)", ok,
           f"eps=0.8 equal-power curve peaks at tau_p={m + 1} "
           f"(rise-then-fall {rises_then_falls}); optimized single-pilot rate "
           f"{r_opt:.4f} vs best equal-power {curve.max():.4f}; "
           f"desk eps=1e-2: monotone rise with opt {_rate_at(lam_opt, 1e-2, 1):.4f} "
           f">= best {curve_desk.max():.4f}")


def test_criterion_10_diversity_ordering():
    results = run_experiment(experiment_catalog()["fig6"])
    rows = {r.label.split("/")[1]: summarize(r)[0] for r in results}
    r = {k: v["rate_bpcu"] for k, v in rows.items()}
    ci = {k: v["ci_halfwidth"] for k, v in rows.items()}
    ordering = r["nominal"] < r["opt"] < r["alamouti"]
    slack = ci["alamouti"] + ci["rate34"]
    big_code = r["rate34"] >= r["alamouti"] - slack
    ok = ordering and big_code
    report(10, "Diversity ordering (fig6)", ok,
           f"rates at eps=1e-2: nominal {r['nominal']:.4f} < opt {r['opt']:.4f} "
           f"< alamouti {r['alamouti']:.4f}; rate34 {r['rate34']:.4f} >= "
           f"alamouti - CI ({r['alamouti'] - slack:.4f})")


def test_criterion_11_grouping_effect():
    cat = experiment_catalog()
    cfg = cat["fig7_positions"].members[0][1]
    res = run_scenario(cfg)
    rates = res.values[:, 0, 0]

    # label each trial by whether the two APs dominating terminal 0 split
    from cellfree.harness import _fixed_layout

    layout = _fixed_layout(cfg)
    t0 = np.asarray(cfg.terminals[0])
    d = np.linalg.norm(layout.positions - t0, axis=1)
    a, b = np.argsort(d)[:2]
    split = np.empty(cfg.outer, dtype=bool)
    for t in range(cfg.outer):
        rng = trial_stream(cfg.seed, t)
        g = random_grouping(layout.n_antennas, 2, rng)
        split[t] = g.assignment[a] != g.assignment[b]

    med = float(np.median(rates))
    jump = float(rates[split].min() - rates[~split].max())
    disjoint = np.quantile(rates[split], 0.1) > np.quantile(rates[~split], 0.9)
    ng = neighbor_grouping(layout, 2)
    separated = bool(ng.assignment[a] != ng.assignment[b])
    ok = jump > 0.1 * med and disjoint and separated
    report(11, "Grouping effect (fig7)", ok,
           f"CDF jump {jump:.3f} bpcu = {jump / med:.0%} of median {med:.3f} "
           f"(split fraction {split.mean():.2f}); neighbor grouping separates "
           f"the closest pair: {separated}")


def test_criterion_12_mrc_gain():
    results = run_experiment(experiment_catalog()["fig8"])
    rows = {r.label.split("/")[1]: summarize(r)[0] for r in results}
    r = {k: v["rate_bpcu"] for k, v in rows.items()}
    gains = {ng: (r[f"ng{ng}-rx1"], r[f"ng{ng}-rx2"]) for ng in (1, 2, 4)}
    all_gain = all(rx2 > rx1 for rx1, rx2 in gains.values())
    spread_rx1 = max(r[f"ng{n}-rx1"] for n in (1, 2, 4)) / min(
        r[f"ng{n}-rx1"] for n in (1, 2, 4)
    )
    spread_rx2 = max(r[f"ng{n}-rx2"] for n in (1, 2, 4)) / min(
        r[f"ng{n}-rx2"] for n in (1, 2, 4)
    )
    ok = all_gain and spread_rx2 < spread_rx1
    report(12, "MRC gain (fig8)", ok,
           "rx1->rx2 rate: "
           + ", ".join(f"ng{ng} {a:.4f}->{b:.4f}" for ng, (a, b) in gains.items())
           + f"; code spread ratio {spread_rx1:.2f} -> {spread_rx2:.2f}")


def test_criterion_13_determinism(tmp_path):
    cfg = ScenarioConfig(deployment="ppp", density=20.0, half_width_km=1.5,
                         shadow="correlated", csi="ls", code="alamouti",
                         power="optimized", opt_grid_km=0.1, epsilon=0.1,
                         outer=40, inner=30, seed=12)
    path = tmp_path / "scenario.cfg"
    path.write_text(config_to_text(cfg))
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{name}.csv"
        code = cli_main(["run", "--scenario", str(path), "--out", str(out),
                         "--summary", str(tmp_path / f"{name}_sum.csv"),
                         "--threads", threads])
        assert code == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    report(13, "Determinism", ok,
           f"byte-identical CSV across reruns and --threads 1 vs 4 "
           f"({len(outs[0])} bytes)")
