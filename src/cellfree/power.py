"""Energy budget accounting and the heuristic pilot/data power split."""

import math

import numpy as np
from dataclasses import dataclass

from .deployment import worst_position
from .propagation import path_gain
from .snr import lambda_ls  # noqa: F401  (bench/spans.py traces power.lambda_ls)

BOLTZMANN_J_PER_K = 1.380649e-23


#: Samples per coherence block, tau_c; the energy budget is E = DEFAULT_RHO * TAU_C.
TAU_C = 300

#: Normalized per-AP power p / (B T k_B F): 1 mW over 200 kHz at 300 K and a
#: 9 dB noise figure, so that the noise variance is one.
DEFAULT_RHO = 1e-3 / (200e3 * 300.0 * BOLTZMANN_J_PER_K * 10.0 ** (9.0 / 10.0))


@dataclass(frozen=True)
class PowerPlan:
    """Power split of one coherence block: rho_p tau_p + rho_d (TAU_C - tau_p) = E."""

    tau_p: int
    rho_p: float
    rho_d: float

    def __post_init__(self):
        if min(self.rho_p, self.rho_d) <= 0 or not 0 < self.tau_p < TAU_C:
            raise ValueError("powers must be positive and 0 < tau_p < TAU_C")
        energy = DEFAULT_RHO * TAU_C
        spent = self.rho_p * self.tau_p + self.rho_d * (TAU_C - self.tau_p)
        if not math.isclose(spent, energy, rel_tol=1e-9):
            raise ValueError(f"budget identity violated: {spent} != {energy}")


def uniform_plan(tau_p):
    """Equal pilot and data power: rho_p = rho_d = DEFAULT_RHO."""
    return PowerPlan(tau_p=tau_p, rho_p=DEFAULT_RHO, rho_d=DEFAULT_RHO)


def optimal_pilot_power(beta_w, tau_p):
    """Pilot power minimizing lambda_ls at Es = 1 under the budget E = DEFAULT_RHO TAU_C.

    Setting the derivative to zero gives the quadratic
    f(x) = c1 tau_p x^2 + 2 c0 tau_p x - c0 E = 0 with c0 = 1 + beta E / d and
    c1 = beta tau_p (1 - 1/d) >= 0, d = TAU_C - tau_p. Its discriminant is at
    least (c0 tau_p)^2 and f(0) < 0 < f(E/tau_p), so the minimizer is the root
    in (0, E/(2 tau_p)], written as c0 E / (c0 tau_p + sqrt(disc)): it neither
    cancels at small beta nor divides by c1 (zero at d = 1). At most half the
    budget goes to pilots, so the data power is positive.
    """
    energy = DEFAULT_RHO * TAU_C
    d = TAU_C - tau_p
    c0 = 1.0 + beta_w * energy / d
    c1 = beta_w * tau_p * (1.0 - 1.0 / d)
    disc = (c0 * tau_p) ** 2 + c1 * tau_p * c0 * energy
    return c0 * energy / (c0 * tau_p + math.sqrt(disc))


def optimize_pilot_power(layout, tau_p, grid_resolution):
    """Heuristic pilot/data split performed without CSI at the APs.

    Finds the position furthest from the closest AP on a grid of step
    grid_resolution km (see deployment.worst_position), computes its
    path-loss-only coefficient beta_w with all antennas as one group, and
    picks the pilot power minimizing lambda_ls at Es = 1 for that
    coefficient. Neither assumption (single group, no shadowing) needs to
    hold for the plan to be useful; only AP locations enter.
    """
    t_w = worst_position(layout, grid_resolution=grid_resolution)
    beta_w = float(layout.antennas_per_ap * np.sum(path_gain(layout, t_w)))
    rho_p = optimal_pilot_power(beta_w, tau_p)
    rho_d = (DEFAULT_RHO * TAU_C - rho_p * tau_p) / (TAU_C - tau_p)
    return PowerPlan(tau_p=tau_p, rho_p=rho_p, rho_d=rho_d)
