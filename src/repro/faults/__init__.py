"""Composable fault injection for collection simulations.

This package models the adversarial conditions the paper's robustness
story implies but never simulates: lossy links, block pollution, server
outages, and correlated churn bursts.  :class:`FaultPlan` declares what
goes wrong; :class:`FaultVerdicts` decides it per event and states its
timeline under every engine; :class:`FaultInjector` drives it on a
running simulation.
A default-constructed plan is bitwise-neutral — see ``plan.py``.
"""

from repro.coding.block import corrupt_block
from repro.faults.injector import FaultInjector, FaultVerdicts, PollutableHolding
from repro.faults.plan import FaultPlan

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultVerdicts",
    "PollutableHolding",
    "corrupt_block",
]
