"""Logical clocks used to build CDC's replayable reference order."""

from repro.clocks.lamport import LamportClock
from repro.clocks.vector import VectorClock, total_order_key

__all__ = [
    "LamportClock",
    "VectorClock",
    "total_order_key",
]
