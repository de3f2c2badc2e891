"""Desk-scale coverage and outage analysis of system-information broadcast
in cell-free massive MIMO: closed-form SNR laws under perfect and LS CSI,
OSTBC transmit diversity from grouped access points, pilot/data power
optimization, and stochastic-geometry deployment experiments."""

from .channel import (
    ChannelEstimate,
    PilotBlock,
    draw_effective_channel,
    ls_estimate,
    make_pilot_block,
)
from .deployment import NetworkLayout, Region, place_hex, place_ppp, worst_position
from .grouping import Grouping, group_large_scale, neighbor_grouping, random_grouping
from .harness import (
    Experiment,
    RunResult,
    ScenarioConfig,
    experiment_catalog,
    run_experiment,
    run_scenario,
    trial_stream,
)
from .metrics import (
    OutageResult,
    coverage_ls_single,
    coverage_perfect,
    outage_rate,
    quantile_threshold,
)
from .ostbc import OstbcCode, alamouti, rate_three_quarter, single_group
from .power import DEFAULT_RHO, PowerPlan, data_power, normalized_power, optimize_pilot_power
from .propagation import LargeScale, PathLossParams, ShadowParams, large_scale, path_loss_db
from .snr import lambda_ls, lambda_perfect, snr_ls

__version__ = "0.1.0"
