"""Test support: fault injection for record storage."""

from repro.testing.faults import (
    FaultInjector,
    FaultPlan,
    FaultyFile,
    InjectedCrash,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultyFile",
    "InjectedCrash",
]
