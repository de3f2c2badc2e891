"""Monte-Carlo experiment engine: scenario configs, presets, deterministic runs.

Every outer trial draws from its own counter-based stream keyed by
(master seed, trial index), so a trial's draws depend on nothing but its
index. Trials are independent Monte-Carlo repetitions and run one after
another on one thread (a vary='grouping' trial only draws its grouping,
and grouping.random_group_sums sums a batch of them at once). Closed-form
conditional SNR distributions are used whenever they exist (perfect CSI, and
LS with a single group); only the remaining cases evaluate the general-OSTBC
SNR at simulated estimates.

Trial t's stream is numpy's Philox(SeedSequence(seed, spawn_key=(0, t)))
bit for bit, so plain numpy replays any trial; trial_stream derives those
Philox keys a block of trials at a time, without building a SeedSequence
per trial.
"""

import functools
import hashlib
import math
import numbers
import types
from dataclasses import dataclass, fields, replace
from typing import Literal, get_args, get_origin

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import ostbc
from .channel import conditional_error_stats, draw_effective_channel
from .deployment import Region, closest_pair, place_hex, place_ppp, worst_position
from .grouping import neighbor_grouping, random_group_sums, random_grouping
from .metrics import (SampleSizeError, as_rates, coverage_and_density, lambda_perfect,
                      outage_rate, outage_result)
from .metrics import coverage_perfect  # noqa: F401  (bench/spans.py traces it here)
from .power import DEFAULT_RHO, TAU_C, optimize_pilot_power, uniform_plan
from .propagation import (ShadowParams, large_scale_from_shadow, path_gain, per_antenna,
                          shadow_fields)
from .snr import lambda_ls, snr_ls_values


def trial_stream(seed, index, domain=0):
    """Counter-based Philox stream keyed by (seed, domain, index).

    A pure function of its arguments: the same trial always regenerates the
    same stream, independent of which trials ran before it. Its draws are
    those of Philox(SeedSequence(entropy=seed, spawn_key=(domain, index))).
    """
    block, row = divmod(index, _KEY_BLOCK)
    key = _philox_keys(seed, domain, block)[row]
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


class _PhiloxKey(ISeedSequence):
    """A Philox key already derived, handed to Philox as its seed sequence."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


_KEY_BLOCK = 1024  # trial indices per block of keys (16 KB); divides 2**32
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@functools.lru_cache(maxsize=4)
def _philox_keys(seed, domain, block):
    """Philox keys of a block of trial indices, one uint64 pair per row.

    Row r is SeedSequence(entropy=seed, spawn_key=(domain, index)).generate_state(2,
    np.uint64) for index = block * _KEY_BLOCK + r. The pool after the seed
    and domain words is numpy's own; the mixing of the index words and the
    output hash are SeedSequence's, ported to uint32 arithmetic over the
    whole block. A block never crosses a multiple of 2**32, so only the
    lowest index word varies within it.
    """
    pool = np.random.SeedSequence(entropy=seed, spawn_key=(domain,)).pool
    if block < 0:
        raise ValueError("trial index must be >= 0")
    first = block * _KEY_BLOCK

    def n_words(x):
        return max(1, -(-int(x).bit_length() // 32))

    # one hash step per hashmix: 4 fill the pool, 12 mix it, 4 per entropy word past it
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * (max(4, n_words(seed)) + n_words(domain) - 4),
                               2**32) % 2**32
    mixer = [np.full(_KEY_BLOCK, p, np.uint32) for p in pool]
    for w in range(n_words(first)):
        word = np.full(_KEY_BLOCK, (first >> 32 * w) % 2**32, np.uint32)
        if w == 0:
            word += np.arange(_KEY_BLOCK, dtype=np.uint32)
        for i in range(len(mixer)):
            value = word ^ hash_const
            hash_const = hash_const * _MULT_A % 2**32
            value *= hash_const
            value ^= value >> 16
            mixed = mixer[i] * _MIX_MULT_L - value * _MIX_MULT_R
            mixer[i] = mixed ^ (mixed >> 16)
    hash_const, state = _INIT_B, []
    for m in mixer:
        value = m ^ hash_const
        hash_const = hash_const * _MULT_B % 2**32
        value *= hash_const
        state.append(value ^ (value >> 16))
    keys = np.stack(state, axis=1).astype("<u4").view("<u8")
    keys.flags.writeable = False
    return keys


_SETUP_DOMAIN = 1  # reserved for fixed-layout draws; trials use domain 0

#: Largest mean numpy's Generator.poisson accepts; a PPP draws its AP count with it.
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10

#: The types a value of each field kind (see _value_type) may have; no kind takes a bool.
_KIND_TYPES = {float: numbers.Real, int: numbers.Integral, str: str, tuple: (tuple, list)}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation scenario.

    The annotations are the schema: validation, parsing and serialization
    read each field's type from them. tau_p = None picks the minimum (one
    pilot per group) for LS and 0 for perfect CSI. vary='network' runs
    exactly one terminal, at any position; only vary='grouping' runs
    several. The system model is fixed: power.TAU_C and power.DEFAULT_RHO
    set the energy budget, the code its per-symbol energy (OstbcCode.es),
    and the class constants of ShadowParams the shadowing.
    """

    deployment: Literal["ppp", "hexagonal"] = "ppp"
    density: float = 20.0              # APs per km^2
    half_width_km: float = 5.0
    shadow: str = "correlated"         # a ShadowParams mode
    code: str = "single"               # an ostbc.by_name code
    grouping: Literal["random", "neighbor"] = "random"
    csi: Literal["perfect", "ls"] = "ls"
    tau_p: int | None = None
    power: Literal["uniform", "optimized"] = "uniform"
    rx_antennas: int = 1
    antennas_per_ap: int = 1
    epsilon: float = 1e-3
    outer: int = 1000
    inner: int = 100
    seed: int = 1
    vary: Literal["network", "grouping"] = "network"
    layout_seed: int | None = None     # fixed layout drawn once when set
    terminals: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    opt_grid_km: float = 0.05          # grid step of the worst-position search (km)

    def n_groups(self):
        return ostbc.by_name(self.code).n_groups

    def effective_tau_p(self):
        if self.csi == "perfect":
            return 0
        return self.tau_p if self.tau_p is not None else self.n_groups()

    def region(self):
        return Region(self.half_width_km)

    def shadow_params(self):
        return ShadowParams(self.shadow)


def validate_config(cfg):
    """Raise ValueError on any configuration conflict, before any trial runs.

    Builds the fixed layout to check that it can run, and returns the code
    and that layout (None when each trial draws its own).
    """
    for f in fields(ScenarioConfig):
        v, kind = getattr(cfg, f.name), _value_type(f.type)
        if v is None and type(None) in get_args(f.type):
            continue  # an optional field left unset
        if get_origin(f.type) is Literal and v not in get_args(f.type):
            allowed = ", ".join(map(repr, get_args(f.type)))
            raise ValueError(f"{f.name} must be one of {allowed}, got {v!r}")
        if not _of_kind(v, kind):
            raise ValueError(f"{f.name} must be of type {kind.__name__}, got {v!r}")
        if kind is tuple and ({np.shape(p) for p in v} != {(2,)}
                              or not all(_of_kind(c, float) for p in v for c in p)):
            raise ValueError(f"{f.name} must hold one or more numeric x,y pairs, got {v!r}")
        if kind in (float, tuple) and not np.all(np.isfinite(v)):
            raise ValueError(f"{f.name} must be finite, got {v}")
    if cfg.density < 0 or (cfg.deployment == "hexagonal" and cfg.density <= 0):
        raise ValueError(f"invalid density {cfg.density}")
    mean_aps = cfg.density * cfg.region().area_km2
    if cfg.deployment == "ppp" and not mean_aps <= _POISSON_LAM_MAX:
        raise ValueError(f"expected AP count density * area = {mean_aps:.6g} must be "
                         f"finite and at most {_POISSON_LAM_MAX:.6g}")
    cfg.shadow_params()
    code = ostbc.by_name(cfg.code)
    if not 0 < cfg.epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if cfg.outer < 1 or cfg.inner < 1:
        raise ValueError("trial counts must be >= 1")
    if cfg.seed < 0 or (cfg.layout_seed is not None and cfg.layout_seed < 0):
        raise ValueError("seeds must be >= 0")
    if cfg.rx_antennas < 1 or cfg.antennas_per_ap < 1:
        raise ValueError("antenna counts must be >= 1")
    if cfg.opt_grid_km <= 0:
        raise ValueError(f"opt_grid_km must be > 0, got {cfg.opt_grid_km}")
    if cfg.csi == "ls":
        tp = cfg.effective_tau_p()
        if tp < code.n_groups:
            raise ValueError(f"tau_p = {tp} cannot carry {code.n_groups} orthogonal pilots")
        if tp >= TAU_C:
            raise ValueError("tau_p must be smaller than tau_c")
    else:
        if cfg.tau_p not in (None, 0):
            raise ValueError("perfect CSI does not use pilots; leave tau_p unset")
        if cfg.power != "uniform":
            raise ValueError("perfect CSI has no pilot/data split to optimize")
    if cfg.vary == "grouping":
        if cfg.csi != "perfect" or cfg.shadow != "none":
            raise ValueError("vary='grouping' isolates grouping randomness: "
                             "requires perfect CSI and no shadowing")
        if cfg.grouping != "random":
            raise ValueError("vary='grouping' needs the random grouping strategy")
        if cfg.rx_antennas != 1:
            raise ValueError("vary='grouping' scores one receive antenna; set rx_antennas=1")
        if cfg.inner != 1:
            raise ValueError("vary='grouping' scores one rate per trial and terminal; set inner=1")
    elif len(cfg.terminals) != 1:
        raise ValueError("vary='network' supports a single terminal")
    fixed = _fixed_layout(cfg)
    if cfg.vary == "grouping" and fixed is None:
        raise ValueError("vary='grouping' needs a fixed layout (set layout_seed)")
    if fixed is not None and fixed.n_antennas < code.n_groups:
        raise ValueError(f"fixed layout has {fixed.n_antennas} antennas; code {cfg.code!r} "
                         f"needs at least {code.n_groups}")
    return code, fixed


# -- canonical key=value serialization (also the CLI config-file format) --

def _of_kind(v, kind):
    """Whether v may hold a value of the field kind (see _KIND_TYPES); a bool never does."""
    return not isinstance(v, bool) and isinstance(v, _KIND_TYPES[kind])


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
        try:
            kwargs[key] = _parse_value(known[key].type, val)
        except ValueError as e:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {e}") from None
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
    """Samples of one run, shaped (outer trial, terminal, sample of the trial)."""

    config: ScenarioConfig
    label: str
    values: np.ndarray
    power_note: str

    @property
    def kind(self):
        """'rate_bpcu' for grouping-randomness runs, else 'snr_linear'.

        A grouping run holds one conditional outage rate per trial and
        terminal; a network run holds one terminal's inner SNR samples per
        trial.
        """
        return "rate_bpcu" if self.config.vary == "grouping" else "snr_linear"

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


def _layout_setup(cfg, code, layout):
    """(layout, gain, assignment, plan) of a layout: what its trials share.

    gain is the path gain of every AP at each terminal, shape (K, n_aps).
    assignment is the group of every antenna, or None when the grouping is
    random: each trial then draws its own, as the first use of its stream
    after the layout. The pilot/data power plan is None for perfect CSI,
    which has no pilots.
    """
    gain = path_gain(layout, cfg.terminals)
    if code.n_groups == 1:
        assignment = np.zeros(layout.n_antennas, dtype=np.int64)
    elif cfg.grouping == "neighbor":
        assignment = neighbor_grouping(layout, code.n_groups).assignment
    else:
        assignment = None
    if cfg.csi == "perfect":
        return layout, gain, assignment, None
    if cfg.power == "uniform":
        return layout, gain, assignment, uniform_plan(cfg.effective_tau_p())
    return layout, gain, assignment, optimize_pilot_power(layout, cfg.effective_tau_p(),
                                                          grid_resolution=cfg.opt_grid_km)


def _sample_snr(code, beta_bar, plan, cfg, rng):
    """Inner small-scale SNR samples for one network realization.

    Perfect CSI samples the sum-of-exponentials law and single-group LS
    samples Exp(lambda_ls), both as one (branch, rate, sample) draw in the
    order of one rng.exponential call per branch and rate. Multi-group LS
    draws each branch's estimate marginal hhat ~ CN(0, C_h + C_e) in turn
    (identical in law to the simulated pilot path) and evaluates the
    closed-form conditional SNR of all branches at once on |hhat|^2, which
    is all it depends on. Branch SNRs add under maximum-ratio combining.
    """
    rx, inner = cfg.rx_antennas, cfg.inner
    if cfg.csi == "perfect":
        scale = DEFAULT_RHO * code.es * beta_bar
    elif code.n_groups == 1:
        scale = 1.0 / lambda_ls(beta_bar, plan.rho_p, plan.tau_p, plan.rho_d, code.es)
    else:
        c_e, u, cc = conditional_error_stats(beta_bar, plan.rho_p, plan.tau_p)
        h_hat = np.stack([draw_effective_channel(beta_bar + c_e, rng, size=inner)
                          for _ in range(rx)])
        return snr_ls_values(code, 0, np.abs(h_hat) ** 2, u, cc, plan.rho_d).sum(axis=0)
    draws = scale[:, None] * rng.standard_exponential((rx, scale.size, inner))
    return draws.sum(axis=1).sum(axis=0)


def _hyperexp_gamma_eps(lambdas, eps):
    """epsilon-quantiles of sums of exponentials: the roots of coverage = 1 - eps.

    lambdas is one rate set of shape (n,), which gives a float, or a stack of
    shape (m, n), which gives m roots found together: every step evaluates
    the coverage and density of all unfinished rows in one
    :func:`coverage_and_density` call, whose density is the last entry of the
    same first row of expm(gamma T) whose sum is the coverage.
    The density never exceeds prod(lambda), so P(sum < g) <= prod(lambda)
    g^n / n! and the coverage exceeds 1 - eps at g = (n! eps / prod(lambda))^(1/n).
    The search starts from half that point, which stays a lower bracket when
    rounding hides the last digits of the coverage at tiny eps, and doubles
    the upper end until the coverage there is at most 1 - eps. From that end,
    each row runs a safeguarded Newton iteration (rtsafe, Press et al.,
    Numerical Recipes ch. 9.4) in its own bracket: it takes the Newton step
    when the step lands inside the bracket and is less than half the step
    before last, and bisects otherwise. A row stops when its step is at most
    4 machine epsilons of gamma (brentq's default relative tolerance), when
    its bracket is that narrow, or when coverage - (1 - eps) is within n
    machine epsilons of zero, the rounding error of an n-rate coverage: on
    that plateau the computed coverage no longer pins the root, and the row
    ends with one last Newton step, kept inside its bracket. A row's root
    does not depend on the other rows of the stack.
    """
    lam = as_rates(lambdas)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    stack = lam.reshape(-1, lam.shape[-1])
    n = stack.shape[1]
    target = 1.0 - eps
    rtol = 4.0 * np.finfo(float).eps
    plateau = n * np.finfo(float).eps
    hi = np.exp((math.lgamma(n + 1) + math.log(eps) - np.log(stack).sum(axis=1)) / n)
    lo = hi / 2.0
    excess, density = np.empty_like(hi), np.empty_like(hi)
    rows = np.arange(hi.size)
    while rows.size:
        cov, density[rows] = coverage_and_density(hi[rows], stack[rows])
        excess[rows] = cov - target
        rows = rows[cov > target]
        lo[rows] = hi[rows]
        hi[rows] *= 2.0
    # excess and density hold each row's values at its last evaluated point
    root = hi.copy()
    step = hi - lo
    last = step.copy()
    rows = np.arange(hi.size)
    while True:
        newton = excess[rows] / density[rows]
        a, b = lo[rows], hi[rows]
        half = 0.5 * (b - a)
        at = root[rows] + newton
        flat = np.abs(excess[rows]) <= plateau
        take = flat | ((a < at) & (at < b) & (2.0 * np.abs(newton) < last[rows]))
        last[rows] = step[rows]
        root[rows] = np.where(take, np.clip(at, a, b), a + half)
        step[rows] = np.where(take, np.abs(newton), half)
        rows = rows[~flat & (step[rows] > rtol * root[rows])]
        if not rows.size:
            break
        cov, density[rows] = coverage_and_density(root[rows], stack[rows])
        excess[rows] = cov - target
        above = excess[rows] > 0
        lo[rows[above]] = root[rows[above]]
        hi[rows[~above]] = root[rows[~above]]
        rows = rows[hi[rows] - lo[rows] > rtol * hi[rows]]
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


def _network_trial(cfg, code, setup, t):
    """SNR samples and power plan of trial t; a degenerate layout scores zero
    SNR and has no plan. setup is None when the trial draws its own layout."""
    rng = trial_stream(cfg.seed, t)
    if setup is None:
        layout = place_ppp(cfg.density, cfg.region(), rng, cfg.antennas_per_ap)
        if layout.n_antennas < code.n_groups:
            return np.zeros(cfg.inner), None
        setup = _layout_setup(cfg, code, layout)
    layout, gain, assignment, plan = setup
    if assignment is None:
        assignment = random_grouping(layout.n_antennas, code.n_groups, rng).assignment
    shadow = None if cfg.shadow == "none" else shadow_fields(
        layout, cfg.terminals, cfg.shadow_params(), rng)[0]
    beta_bar = large_scale_from_shadow(layout, gain[0], shadow, assignment, code.n_groups)
    return _sample_snr(code, beta_bar, plan, cfg, rng), plan


def run_scenario(cfg, label=None):
    """Run one scenario's outer trials in order; deterministic for fixed (config, seed)."""
    code, fixed = validate_config(cfg)
    setup = None if fixed is None else _layout_setup(cfg, code, fixed)

    if cfg.vary == "grouping":
        beta_ant = per_antenna(setup[1], fixed.antennas_per_ap)  # shadow is 'none' here
        beta_bar = random_group_sums(beta_ant, code.n_groups, cfg.outer,
                                     lambda t: trial_stream(cfg.seed, t))
        rates = lambda_perfect(beta_bar, code.es).reshape(-1, code.n_groups)
        gamma = _hyperexp_gamma_eps(rates, cfg.epsilon)
        values = outage_rate(gamma, 0, code).reshape(cfg.outer, -1, 1)
    else:
        snrs, plans = zip(*(_network_trial(cfg, code, setup, t) for t in range(cfg.outer)))
        values = np.stack(snrs)[:, None, :]

    power_note = (f"rho_p=rho_d=rho={DEFAULT_RHO:.6g} (perfect CSI, no pilots)"
                  if cfg.csi == "perfect" else _plan_spread(plans))

    return RunResult(cfg, label or "scenario", values, power_note)


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
                row.update(outage_result(vals, cfg.epsilon, cfg.effective_tau_p(), code))
            except SampleSizeError:
                pass
        else:
            lo, med, hi = np.quantile(vals, [0.25, 0.5, 0.75])
            row.update(rate_bpcu=float(med), ci_halfwidth=float((hi - lo) / 2.0))
        rows.append(row)
    return rows


# -- CSV output --

_RESULT_BLOCK_VALUES = 1024


def write_result_csv(path, results):
    """Result CSV: scenario, seed, trial, snr_linear|rate_bpcu (one value kind).

    Rows run trial by trial; within a trial, terminal by terminal, which is
    the C order of a result's values. Trials are written in blocks of about
    _RESULT_BLOCK_VALUES values, each formatted by one % operation over its
    flattened values, so a '%' in a row name is escaped as '%%'.
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
            heads = [f"{name.replace('%', '%%')},{r.config.seed}," for name, _ in r.terminals()]
            n = r.values.shape[2]
            step = max(1, _RESULT_BLOCK_VALUES // r.values[0].size)
            for start in range(0, r.config.outer, step):
                stop = min(start + step, r.config.outer)
                template = "".join(f"{head}{trial},%.17g\n" * n
                                   for trial in range(start, stop) for head in heads)
                f.write(template % tuple(r.values[start:stop].ravel().tolist()))


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

    The probability column i/n is the same in every block of n samples, so
    it is formatted once per sample count and kept, for the most recent n
    only, as one string of newline-ended lines per _CDF_CHUNK_ROWS rows.
    Each block sorts its values and writes them chunk by chunk, interleaved
    with the split lines of the matching column string, so that the text of
    a large block is never held in memory at once.
    """
    n_col, col = 0, []
    with open(path, "w") as f:
        for r in results:
            for name, samples in r.terminals():
                vals = np.sort(samples, axis=None)
                starts = range(0, vals.size, _CDF_CHUNK_ROWS)
                if vals.size != n_col:
                    n_col = vals.size
                    col = ["%.17g\n" * len(c) % tuple(i / n_col for i in c)
                           for c in (range(s + 1, n_col + 1)[:_CDF_CHUNK_ROWS] for s in starts)]
                f.write(f"# {name} ({r.kind})\n")
                for start, text in zip(starts, col):
                    chunk = vals[start:start + _CDF_CHUNK_ROWS].tolist()
                    rows = [None] * (2 * len(chunk))
                    rows[::2], rows[1::2] = chunk, text.splitlines()
                    f.write("%.17g %s\n" * len(chunk) % tuple(rows))
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
# flags. Members share the master seed, so trial t draws the same layout in
# each member, but not the same shadow field: a multi-group member draws its
# grouping permutation first, on the same stream, so fig6 and fig8 compare
# single-group and multi-group members over different shadow fields.
_BASE = ScenarioConfig(epsilon=1e-2, outer=1000, inner=100, seed=1)
_LS_BASE = replace(_BASE, csi="ls", half_width_km=2.5, outer=800)


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
    members = [("perfect", replace(_LS_BASE, csi="perfect", power="uniform"))]
    members += [(f"taup{tp:02d}", replace(_LS_BASE, tau_p=tp, power="uniform"))
                for tp in range(1, 11)]
    members.append(("opt", replace(_LS_BASE, tau_p=1, power="optimized")))
    return Experiment("fig5", tuple(members),
                      "pilot-count trade-off and pilot-power optimization")


def _fig6():
    members = (
        ("nominal", replace(_LS_BASE, code="single", tau_p=1, power="uniform")),
        ("opt", replace(_LS_BASE, code="single", tau_p=1, power="optimized")),
        ("alamouti", replace(_LS_BASE, code="alamouti", power="optimized")),
        ("rate34", replace(_LS_BASE, code="rate34", power="optimized")),
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
                replace(_LS_BASE, code=code_name, power="optimized", rx_antennas=rx),
            ))
    return Experiment("fig8", tuple(members), "receive diversity (MRC) for each code")


def _fig9():
    fig9_base = replace(_BASE, csi="ls", code="alamouti", power="optimized",
                        half_width_km=0.6, outer=300, inner=60)
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
