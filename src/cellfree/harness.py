"""Monte-Carlo experiment engine: scenario configs, presets, deterministic runs.

Every outer trial draws from its own counter-based stream keyed by
(master seed, trial index), so a trial's draws depend on nothing but its
index. Trials are independent Monte-Carlo repetitions and run one after
another on one thread. Closed-form conditional SNR distributions are used
whenever they exist (perfect CSI, and LS with a single group); only the
remaining cases evaluate the general-OSTBC SNR at simulated estimates.
"""

import hashlib
import math
import types
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Literal, get_args, get_origin

import numpy as np

from . import ostbc
from .channel import conditional_error_stats, draw_effective_channel
from .deployment import Region, closest_pair, place_hex, place_ppp, worst_position
from .grouping import Grouping, group_large_scale, neighbor_grouping, random_grouping
from .metrics import SampleSizeError, as_rates, coverage_perfect, outage_rate, outage_result
from .power import DEFAULT_RHO, optimize_pilot_power, uniform_plan
from .propagation import (
    PathLossParams,
    ShadowParams,
    antenna_beta,
    large_scale_from_shadow,
    shadow_fields,
)
from .snr import lambda_ls, lambda_perfect, snr_ls_values


def trial_stream(seed, index, domain=0):
    """Counter-based Philox stream keyed by (seed, domain, index).

    A pure function of its arguments: the same trial always regenerates the
    same stream, independent of which trials ran before it.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, index))
    return np.random.Generator(np.random.Philox(ss))


_SETUP_DOMAIN = 1  # reserved for fixed-layout draws; trials use domain 0


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation scenario.

    The annotations are the schema: validation, parsing and serialization
    read each field's type from them. tau_p = None picks the minimum (one
    pilot per group) for LS and 0 for perfect CSI. rho defaults to the
    reference power normalization. Terminals beyond the origin are only
    supported with vary='grouping'.
    """

    deployment: Literal["ppp", "hexagonal"] = "ppp"
    density: float = 20.0              # APs per km^2
    half_width_km: float = 5.0
    shadow: str = "correlated"         # a ShadowParams mode
    sigma_db: float = 8.0
    delta: float = 0.5
    decorrelation_km: float = 0.2
    code: str = "single"               # an ostbc.by_name code
    grouping: Literal["random", "neighbor"] = "random"
    csi: Literal["perfect", "ls"] = "ls"
    tau_c: int = 300
    tau_p: int | None = None
    power: Literal["uniform", "optimized"] = "uniform"
    rho: float = DEFAULT_RHO
    es: float = 1.0
    rx_antennas: int = 1
    antennas_per_ap: int = 1
    epsilon: float = 1e-3
    outer: int = 1000
    inner: int = 100
    seed: int = 1
    vary: Literal["network", "grouping"] = "network"
    layout_seed: int | None = None     # fixed layout drawn once when set
    terminals: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    opt_grid_km: float | None = None   # grid step of the worst-position search

    def n_groups(self):
        return ostbc.by_name(self.code).n_groups

    def effective_tau_p(self):
        if self.csi == "perfect":
            return 0
        return self.tau_p if self.tau_p is not None else self.n_groups()

    def region(self):
        return Region(self.half_width_km)

    def shadow_params(self):
        return ShadowParams(self.shadow, self.sigma_db, self.delta, self.decorrelation_km)


def validate_config(cfg):
    """Raise ValueError on any configuration conflict, before any trial runs.

    Builds the fixed layout to check that it can run, and returns the code
    and that layout (None when each trial draws its own).
    """
    for f in fields(ScenarioConfig):
        v = getattr(cfg, f.name)
        if get_origin(f.type) is Literal and v not in get_args(f.type):
            allowed = ", ".join(map(repr, get_args(f.type)))
            raise ValueError(f"{f.name} must be one of {allowed}, got {v!r}")
        if _value_type(f.type) in (float, tuple) and v is not None and not np.all(np.isfinite(v)):
            raise ValueError(f"{f.name} must be finite, got {v}")
    if cfg.density < 0 or (cfg.deployment == "hexagonal" and cfg.density <= 0):
        raise ValueError(f"invalid density {cfg.density}")
    if not cfg.terminals:
        raise ValueError("terminals must contain at least one x,y pair")
    cfg.region()
    cfg.shadow_params()
    code = ostbc.by_name(cfg.code)
    if cfg.tau_c <= 0 or not 0 < cfg.epsilon < 1:
        raise ValueError("tau_c must be positive and epsilon in (0, 1)")
    if cfg.outer < 1 or cfg.inner < 1:
        raise ValueError("trial counts must be >= 1")
    if cfg.seed < 0 or (cfg.layout_seed is not None and cfg.layout_seed < 0):
        raise ValueError("seeds must be >= 0")
    if cfg.rx_antennas < 1 or cfg.antennas_per_ap < 1:
        raise ValueError("antenna counts must be >= 1")
    if min(cfg.rho, cfg.es) <= 0:
        raise ValueError("rho and es must be positive")
    if cfg.opt_grid_km is not None and cfg.opt_grid_km <= 0:
        raise ValueError(f"opt_grid_km must be > 0, got {cfg.opt_grid_km}")
    if cfg.csi == "ls":
        tp = cfg.effective_tau_p()
        if tp < code.n_groups:
            raise ValueError(f"tau_p = {tp} cannot carry {code.n_groups} orthogonal pilots")
        if tp >= cfg.tau_c:
            raise ValueError("tau_p must be smaller than tau_c")
    else:
        if cfg.tau_p not in (None, 0):
            raise ValueError("perfect CSI does not use pilots; leave tau_p unset")
        if cfg.power != "uniform":
            raise ValueError("perfect CSI has no pilot/data split to optimize")
    if cfg.vary == "grouping":
        if cfg.layout_seed is None:
            raise ValueError("vary='grouping' needs a fixed layout (set layout_seed)")
        if cfg.csi != "perfect" or cfg.shadow != "none":
            raise ValueError("vary='grouping' isolates grouping randomness: "
                             "requires perfect CSI and no shadowing")
        if cfg.grouping != "random":
            raise ValueError("vary='grouping' needs the random grouping strategy")
    elif len(cfg.terminals) != 1:
        raise ValueError("vary='network' supports a single terminal")
    fixed = _fixed_layout(cfg)
    if fixed is not None and fixed.n_antennas < code.n_groups:
        raise ValueError(f"fixed layout has {fixed.n_antennas} antennas; code {cfg.code!r} "
                         f"needs at least {code.n_groups}")
    return code, fixed


# -- canonical key=value serialization (also the CLI config-file format) --

def _value_type(annotation):
    """Type of a field's values: str for a Literal, X for X | None, tuple for tuple[...]."""
    if get_origin(annotation) is Literal:
        return str
    if get_origin(annotation) is types.UnionType:  # X | None
        annotation, _ = get_args(annotation)
    return get_origin(annotation) or annotation


def config_to_text(cfg):
    """Canonical key=value serialization (one key per line, field order)."""
    lines = []
    for f in fields(ScenarioConfig):
        v = getattr(cfg, f.name)
        kind = _value_type(f.type)
        if v is None:
            v = "none"
        elif kind is tuple:
            v = ";".join(f"{float(x)!r},{float(y)!r}" for x, y in v)
        elif kind is float:
            v = repr(float(v))
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def config_from_text(text):
    """Parse key=value text into a ScenarioConfig; unknown keys are rejected."""
    known = {f.name: f for f in fields(ScenarioConfig)}
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in kwargs:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        kwargs[key] = _parse_value(known[key].type, val)
    return ScenarioConfig(**kwargs)


def _parse_value(annotation, val):
    if val == "none" and type(None) in get_args(annotation):  # only optional fields take none
        return None
    kind = _value_type(annotation)
    if kind is tuple:  # x,y pairs separated by ';'
        pairs = (part.partition(",") for part in val.split(";") if part.strip())
        return tuple((float(x), float(y)) for x, _, y in pairs)
    return kind(val)


def config_hash(cfg):
    return hashlib.sha256(config_to_text(cfg).encode()).hexdigest()[:16]


# -- scenario execution --

@dataclass
class RunResult:
    """Samples of one run, shaped (outer trial, terminal, sample of the trial).

    kind is 'snr_linear' for network-randomness runs (one terminal, inner SNR
    samples per trial) and 'rate_bpcu' for grouping-randomness runs (one
    conditional outage rate per trial and terminal).
    """

    config: ScenarioConfig
    label: str
    kind: str
    values: np.ndarray
    power_note: str

    def terminals(self):
        """(row name, samples of shape (outer, per trial)) for each terminal.

        The row name is the label for a single terminal and label/t<k> for
        terminal k of several.
        """
        n = self.values.shape[1]
        for k in range(n):
            yield (self.label if n == 1 else f"{self.label}/t{k}"), self.values[:, k]


def _fixed_layout(cfg):
    """Layout shared by all trials, or None when each trial draws its own."""
    m = cfg.antennas_per_ap
    if cfg.deployment == "hexagonal":
        return place_hex(cfg.density, cfg.region(), m)
    if cfg.layout_seed is not None:
        rng = trial_stream(cfg.layout_seed, 0, domain=_SETUP_DOMAIN)
        return place_ppp(cfg.density, cfg.region(), rng, m)
    return None


def _trial_grouping(cfg, code, layout, cached, rng):
    """Draw-order contract: the random grouping draw is the first use of the
    trial stream, and only happens when the code has more than one group."""
    if code.n_groups == 1:
        return cached if cached is not None else Grouping(
            np.zeros(layout.n_antennas, dtype=np.int64), 1
        )
    if cfg.grouping == "neighbor":
        return cached if cached is not None else neighbor_grouping(layout, code.n_groups)
    return random_grouping(layout.n_antennas, code.n_groups, rng)


def _trial_plan(cfg, layout):
    tau_p = cfg.effective_tau_p()
    if cfg.csi == "perfect":
        return uniform_plan(cfg.rho, 1, cfg.tau_c)  # tau_p unused; rate uses 0
    if cfg.power == "uniform":
        return uniform_plan(cfg.rho, tau_p, cfg.tau_c)
    return optimize_pilot_power(
        layout, PathLossParams(), cfg.rho, tau_p, cfg.tau_c, cfg.es,
        grid_resolution=cfg.opt_grid_km,
    )


def _symbol_energy(cfg, code):
    """Per-symbol energy that spends the data budget exactly.

    The energy budget assumes rho_d is radiated every data channel use, but a
    code matrix carries N_s symbols over tau_d uses per antenna, so the mean
    per-use energy is Es * rate. Scaling Es by 1/rate makes every code (the
    rate-3/4 matrix has a silent slot per antenna) spend rho_d on average.
    """
    return cfg.es / code.rate


def _sample_snr(code, beta_bar, plan, cfg, rng):
    """Inner small-scale SNR samples for one network realization.

    Per receive branch: perfect CSI samples the sum-of-exponentials law,
    single-group LS samples Exp(lambda_ls), and multi-group LS draws the
    estimate marginal hhat ~ CN(0, C_h + C_e) (identical in law to the
    simulated pilot path) and evaluates the closed-form conditional SNR.
    Branch SNRs add under maximum-ratio combining.
    """
    inner = cfg.inner
    total = np.zeros(inner)
    tau_p = cfg.effective_tau_p()
    es = _symbol_energy(cfg, code)
    for _ in range(cfg.rx_antennas):
        if cfg.csi == "perfect":
            branch = np.zeros(inner)
            for bb in beta_bar:
                branch += rng.exponential(cfg.rho * es * bb, inner)
        elif code.n_groups == 1:
            lam = lambda_ls(float(beta_bar[0]), plan.rho_p, tau_p, plan.rho_d, es)
            branch = rng.exponential(1.0 / lam, inner)
        else:
            c_e, u, cc = conditional_error_stats(beta_bar, plan.rho_p, tau_p)
            h_hat = draw_effective_channel(beta_bar + c_e, rng, size=inner)
            branch = snr_ls_values(code, 0, h_hat, u, cc, plan.rho_d, es)
        total += branch
    return total


def _hyperexp_gamma_eps(lambdas, eps):
    """epsilon-quantiles of sums of exponentials: the roots of coverage = 1 - eps.

    lambdas is one rate set of shape (n,), which gives a float, or a stack of
    shape (m, n), which gives m roots found together: every step evaluates
    the coverage of all unfinished rows in one :func:`coverage_perfect` call.
    The density never exceeds prod(lambda), so P(sum < g) <= prod(lambda)
    g^n / n! and the coverage exceeds 1 - eps at g = (n! eps / prod(lambda))^(1/n).
    The search starts from half that point, which stays a lower bracket when
    rounding hides the last digits of the coverage at tiny eps, doubles the
    upper end until the coverage there is at most 1 - eps, then bisects until
    the bracket is at most 4 machine epsilons of its upper end wide (brentq's
    default relative tolerance) and returns its midpoint.
    """
    lam = as_rates(lambdas)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    stack = lam.reshape(-1, lam.shape[-1])
    n = stack.shape[1]
    target = 1.0 - eps
    hi = np.exp((math.lgamma(n + 1) + math.log(eps) - np.log(stack).sum(axis=1)) / n)
    lo = hi / 2.0
    rows = np.arange(hi.size)
    while rows.size:
        rows = rows[coverage_perfect(hi[rows], stack[rows]) > target]
        lo[rows] = hi[rows]
        hi[rows] *= 2.0
    rtol = 4.0 * np.finfo(float).eps
    while (rows := np.flatnonzero(hi - lo > rtol * hi)).size:
        mid = 0.5 * (lo[rows] + hi[rows])
        above = coverage_perfect(mid, stack[rows]) > target
        lo[rows[above]] = mid[above]
        hi[rows[~above]] = mid[~above]
    root = 0.5 * (lo + hi)
    return float(root[0]) if lam.ndim == 1 else root.reshape(lam.shape[:-1])


def _plan_spread(plans):
    """Trial count and min/median/max of rho_p and rho_d over per-trial plans.

    Trials whose layout was degenerate have no plan (None) and are not counted.
    """
    planned = [p for p in plans if p is not None]
    note = f"per-trial plans over {len(planned)} of {len(plans)} trials"
    if not planned:
        return note

    def spread(values):
        v = np.array(values)
        return f"min={v.min():.6g} median={np.median(v):.6g} max={v.max():.6g}"

    return (f"{note}: rho_p {spread([p.rho_p for p in planned])}, "
            f"rho_d {spread([p.rho_d for p in planned])}, tau_p={planned[0].tau_p}")


def _grouping_trial(cfg, code, layout, beta_ant, t):
    """Group rates of trial t per terminal (rows); their quantiles are found
    after the loop. beta_ant holds the path-loss beta per (terminal, antenna)."""
    rng = trial_stream(cfg.seed, t)
    g = _trial_grouping(cfg, code, layout, None, rng)
    es = _symbol_energy(cfg, code)
    return np.stack([lambda_perfect(group_large_scale(b, g), cfg.rho, es) for b in beta_ant])


def _network_trial(cfg, code, fixed, grouping, plan, t):
    """SNR samples and power plan of trial t; a degenerate layout scores zero
    SNR and has no plan. fixed, grouping and plan are None when the trial
    draws or computes its own."""
    rng = trial_stream(cfg.seed, t)
    layout = fixed if fixed is not None else place_ppp(
        cfg.density, cfg.region(), rng, cfg.antennas_per_ap
    )
    if layout.n_antennas < code.n_groups:
        return np.zeros(cfg.inner), None
    g = _trial_grouping(cfg, code, layout, grouping, rng)
    terminal = np.asarray(cfg.terminals[0], dtype=float)
    shadow = shadow_fields(layout, [terminal], cfg.shadow_params(), rng)[0]
    ls = large_scale_from_shadow(layout, terminal, PathLossParams(), shadow, g)
    plan = plan if plan is not None else _trial_plan(cfg, layout)
    return _sample_snr(code, ls.beta_bar, plan, cfg, rng), plan


def run_scenario(cfg, label=None):
    """Run one scenario's outer trials in order; deterministic for fixed (config, seed)."""
    code, fixed = validate_config(cfg)
    cached_grouping = None
    if fixed is not None and cfg.grouping == "neighbor" and code.n_groups > 1:
        cached_grouping = neighbor_grouping(fixed, code.n_groups)
    cached_plan = None
    if fixed is not None or cfg.csi == "perfect" or cfg.power == "uniform":
        cached_plan = _trial_plan(cfg, fixed)

    if cfg.vary == "grouping":
        # path-loss-only beta per (terminal, antenna); shadow is 'none' here
        beta_ant = antenna_beta(fixed, cfg.terminals, PathLossParams())
        trial = partial(_grouping_trial, cfg, code, fixed, beta_ant)
    else:
        trial = partial(_network_trial, cfg, code, fixed, cached_grouping, cached_plan)

    outputs = [trial(t) for t in range(cfg.outer)]

    if cfg.vary == "grouping":
        gamma = _hyperexp_gamma_eps(np.concatenate(outputs), cfg.epsilon)
        values = outage_rate(gamma, 0, cfg.tau_c, code).reshape(cfg.outer, -1, 1)
        kind = "rate_bpcu"
    else:
        snrs, plans = zip(*outputs)
        values = np.stack(snrs)[:, None, :]
        kind = "snr_linear"

    if cfg.csi == "perfect":
        power_note = f"rho_p=rho_d=rho={cfg.rho:.6g} (perfect CSI, no pilots)"
    elif cached_plan is not None:
        power_note = (
            f"rho_p={cached_plan.rho_p:.6g} rho_d={cached_plan.rho_d:.6g} "
            f"tau_p={cached_plan.tau_p}"
        )
    else:
        power_note = _plan_spread(plans)

    return RunResult(cfg, label or "scenario", kind, values, power_note)


def summarize(result):
    """Summary rows (one per terminal) for the summary CSV.

    SNR runs report the empirical epsilon-quantile gamma_eps and the outage
    rate it implies; underpowered smoke runs get a row of NaN fields.
    Grouping-randomness runs already hold per-grouping outage rates, so
    gamma_eps is nan and rate_bpcu is their median.
    """
    cfg = result.config
    code = ostbc.by_name(cfg.code)
    rows = []
    for name, samples in result.terminals():
        vals = samples.ravel()
        row = dict(scenario=name, epsilon=cfg.epsilon, gamma_eps=np.nan, rate_bpcu=np.nan,
                   ci_halfwidth=np.nan, n_trials=vals.size)
        if result.kind == "snr_linear":
            try:
                res = outage_result(vals, cfg.epsilon, cfg.effective_tau_p(), cfg.tau_c, code)
                row.update(gamma_eps=res.gamma_eps, rate_bpcu=res.rate_bpcu,
                           ci_halfwidth=res.ci_halfwidth)
            except SampleSizeError:
                pass
        else:
            lo, med, hi = np.quantile(vals, [0.25, 0.5, 0.75])
            row.update(rate_bpcu=float(med), ci_halfwidth=float((hi - lo) / 2.0))
        rows.append(row)
    return rows


# -- CSV output --

def write_result_csv(path, results):
    """Result CSV: scenario, seed, trial, snr_linear|rate_bpcu (one value kind).

    Rows run trial by trial; within a trial, terminal by terminal. Each
    (trial, terminal) block is formatted by one % operation, so a '%' in a
    row name is escaped as '%%'.
    """
    kinds = {r.kind for r in results}
    if len(kinds) != 1:
        raise ValueError("cannot mix snr and rate results in one file")
    kind = kinds.pop()
    with open(path, "w", newline="") as f:
        for r in results:
            f.write(f"# scenario={r.label} seed={r.config.seed} "
                    f"config_hash={config_hash(r.config)}\n")
            f.write(f"# power_plan[{r.label}]: {r.power_note}\n")
        f.write(f"scenario,seed,trial,{kind}\n")
        for r in results:
            series = [(name.replace("%", "%%"), samples) for name, samples in r.terminals()]
            for trial in range(r.config.outer):
                for name, samples in series:
                    row = samples[trial].tolist()
                    f.write(f"{name},{r.config.seed},{trial},%.17g\n" * len(row) % tuple(row))


def write_summary_csv(path, results):
    with open(path, "w", newline="") as f:
        f.write("scenario,epsilon,gamma_eps,rate_bpcu,ci_halfwidth,n_trials\n")
        for r in results:
            for row in summarize(r):
                f.write(
                    f"{row['scenario']},{row['epsilon']:.17g},{row['gamma_eps']:.17g},"
                    f"{row['rate_bpcu']:.17g},{row['ci_halfwidth']:.17g},{row['n_trials']}\n"
                )


_CDF_CHUNK_ROWS = 1024


def write_cdf_tables(path, results):
    """Gnuplot-friendly CDF tables: blocks of 'value cdf' per scenario row.

    Rows are built and formatted _CDF_CHUNK_ROWS at a time, so that neither
    the pairs nor the text of a large block are held in memory at once.
    """
    with open(path, "w") as f:
        for r in results:
            for name, samples in r.terminals():
                vals = np.sort(samples, axis=None)
                f.write(f"# {name} ({r.kind})\n")
                for start in range(0, vals.size, _CDF_CHUNK_ROWS):
                    chunk = vals[start:start + _CDF_CHUNK_ROWS]
                    cdf = np.arange(start + 1, start + chunk.size + 1) / vals.size
                    rows = np.column_stack([chunk, cdf]).ravel().tolist()
                    f.write("%.17g %.17g\n" * chunk.size % tuple(rows))
                f.write("\n\n")


# -- experiment presets --

@dataclass(frozen=True)
class Experiment:
    name: str
    members: tuple  # of (label, ScenarioConfig)
    description: str = ""


_FIG7_LAYOUT_SEED = 70_2018


def _fig7_terminals(layout):
    """Three terminals with distinct surroundings in a fixed example layout.

    Terminal 0 sits at the midpoint of the closest AP pair (two dominant
    APs), terminal 1 next to a single AP, terminal 2 at the worst grid
    position.
    """
    pos = layout.positions
    _, i, j = closest_pair(pos)
    t0 = (pos[i] + pos[j]) / 2.0
    away = np.argmax(np.linalg.norm(pos - t0, axis=1))
    hw = layout.region.half_width_km
    t1 = np.clip(pos[away] + np.array([0.02, 0.0]), -hw, hw)
    t2 = worst_position(layout, grid_resolution=0.02)
    return tuple((float(x), float(y)) for x, y in (t0, t1, t2))


# Desk-scale operating point: epsilon = 1e-2 with shrunken regions where
# correlated shadowing would otherwise dominate the run time; the full
# epsilon = 1e-3 operating point needs larger outer/inner counts via CLI
# flags. Members of one experiment share the master seed so compared curves
# are paired.
_BASE = ScenarioConfig(epsilon=1e-2, outer=1000, inner=100, seed=1)
_FIG6_BASE = replace(_BASE, csi="ls", half_width_km=2.5, outer=800, opt_grid_km=0.05)


def _fig3():
    members = []
    for kind in ("hexagonal", "ppp"):
        for dens in (10.0, 20.0, 40.0):
            members.append((
                f"{'hex' if kind == 'hexagonal' else 'ppp'}-d{int(dens)}",
                replace(_BASE, deployment=kind, density=dens, shadow="none",
                        csi="perfect", code="single", outer=2000),
            ))
    return Experiment("fig3", tuple(members), "hexagonal vs PPP deployment over AP density")


def _fig4():
    members = [
        (mode, replace(_BASE, shadow=mode, csi="perfect", code="single",
                       half_width_km=2.5, outer=1200))
        for mode in ("none", "uncorrelated", "correlated")
    ]
    return Experiment("fig4", tuple(members), "large-scale fading models")


def _fig5():
    fig5_base = replace(_BASE, csi="ls", code="single", half_width_km=2.5,
                        outer=800, opt_grid_km=0.05)
    members = [("perfect", replace(fig5_base, csi="perfect", power="uniform"))]
    members += [(f"taup{tp:02d}", replace(fig5_base, tau_p=tp, power="uniform"))
                for tp in range(1, 11)]
    members.append(("opt", replace(fig5_base, tau_p=1, power="optimized")))
    return Experiment("fig5", tuple(members),
                      "pilot-count trade-off and pilot-power optimization")


def _fig6():
    members = (
        ("nominal", replace(_FIG6_BASE, code="single", tau_p=1, power="uniform")),
        ("opt", replace(_FIG6_BASE, code="single", tau_p=1, power="optimized")),
        ("alamouti", replace(_FIG6_BASE, code="alamouti", power="optimized")),
        ("rate34", replace(_FIG6_BASE, code="rate34", power="optimized")),
    )
    return Experiment("fig6", members, "transmit diversity with random grouping")


def _fig7_positions():
    cfg = ScenarioConfig(
        deployment="ppp", density=20.0, half_width_km=0.5, shadow="none",
        csi="perfect", code="alamouti", grouping="random", power="uniform",
        epsilon=1e-3, outer=4000, inner=1, seed=1, vary="grouping",
        layout_seed=_FIG7_LAYOUT_SEED)
    # the terminals are placed in the very layout the run simulates
    cfg = replace(cfg, terminals=_fig7_terminals(_fixed_layout(cfg)))
    return Experiment("fig7_positions", (("terminals", cfg),),
                      "grouping randomness for three fixed terminals")


def _fig8():
    members = []
    for code_name, ng in (("single", 1), ("alamouti", 2), ("rate34", 4)):
        for rx in (1, 2):
            members.append((
                f"ng{ng}-rx{rx}",
                replace(_FIG6_BASE, code=code_name, power="optimized", rx_antennas=rx),
            ))
    return Experiment("fig8", tuple(members), "receive diversity (MRC) for each code")


def _fig9():
    fig9_base = replace(_BASE, csi="ls", code="alamouti", power="optimized",
                        half_width_km=0.6, outer=300, inner=60, opt_grid_km=0.05)
    return Experiment("fig9", (
        ("cellular", replace(fig9_base, deployment="hexagonal", density=10.0,
                             antennas_per_ap=100, grouping="neighbor")),
        ("cellfree", replace(fig9_base, deployment="ppp", density=1000.0,
                             antennas_per_ap=1, grouping="random")),
    ), "cellular (100-antenna hex) vs cell-free (PPP) at 1000 antennas per km^2")


#: Preset name -> builder of the Experiment reproducing that figure at desk
#: scale. A builder runs only when its preset is looked up, so running a
#: config file draws no preset geometry.
PRESETS = {
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7_positions": _fig7_positions,
    "fig8": _fig8,
    "fig9": _fig9,
}


def experiment_catalog():
    """Every preset, built: name -> Experiment."""
    return {name: build() for name, build in PRESETS.items()}


def with_overrides(exp, **values):
    """The experiment with every member's fields replaced by the non-None values."""
    values = {k: v for k, v in values.items() if v is not None}
    return replace(exp, members=tuple((label, replace(cfg, **values))
                                      for label, cfg in exp.members))


def run_experiment(exp):
    """Run all members in order; returns their RunResults."""
    return [run_scenario(cfg, label=f"{exp.name}/{label}") for label, cfg in exp.members]
