"""Desk-scale coverage and outage analysis of system-information broadcast
in cell-free massive MIMO: closed-form SNR laws under perfect and LS CSI,
OSTBC transmit diversity from grouped access points, pilot/data power
optimization, and stochastic-geometry deployment experiments."""

__version__ = "0.1.0"
