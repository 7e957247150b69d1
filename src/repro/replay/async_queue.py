"""The asynchronous recording queue — Section 4.2 / Figure 11.

CDC keeps encoding and file I/O off the application's critical path with a
single-producer single-consumer (SPSC) queue: the main thread enqueues MF
events, a dedicated CDC thread dequeues, encodes, and writes. The queue is
bounded; the main thread stalls only when it outruns the CDC thread for
long enough to fill it (the paper measures drain 331 K events/s vs produce
258 events/s, so stalls are rare).

:class:`FluidQueueModel` is the virtual-time analogue the recording cost
model uses in place of that thread: occupancy drains continuously at
``drain_rate``; an enqueue that finds the queue full charges the producer
the stall time until a slot frees. Deterministic and O(1) per event.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.obs import get_registry


@dataclass
class FluidQueueModel:
    """Virtual-time SPSC occupancy model.

    ``drain_rate`` is the CDC thread's sustained encode+write throughput in
    events/second. Occupancy is tracked as a float and decays linearly with
    elapsed producer time; :meth:`enqueue` returns the stall the producer
    suffers (0.0 in the common, non-saturated case).
    """

    capacity: int = 100_000
    drain_rate: float = 331_000.0  # events/sec — the paper's measured rate
    occupancy: float = 0.0
    last_time: float = 0.0
    total_stall: float = 0.0
    max_occupancy: float = 0.0
    events: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.drain_rate <= 0:
            raise SimulationError("queue capacity and drain rate must be positive")

    def enqueue(self, now: float, n_events: int = 1) -> float:
        """Account ``n_events`` produced at time ``now``; return stall seconds."""
        if now < self.last_time:
            # Producer timelines are per-rank monotone; clamp defensively.
            now = self.last_time
        drained = (now - self.last_time) * self.drain_rate
        self.occupancy = max(0.0, self.occupancy - drained) + n_events
        self.last_time = now
        self.events += n_events
        stall = 0.0
        if self.occupancy > self.capacity:
            stall = (self.occupancy - self.capacity) / self.drain_rate
            self.occupancy = float(self.capacity)
            self.last_time = now + stall
            self.total_stall += stall
            registry = get_registry()
            if registry.enabled:
                registry.counter("queue.enqueue_stalls").add()
                registry.histogram("queue.stall_us").observe(int(stall * 1e6))
        if self.occupancy > self.max_occupancy:
            self.max_occupancy = self.occupancy
            registry = get_registry()
            if registry.enabled:
                registry.gauge("queue.occupancy_high_water").set_max(self.occupancy)
        return stall

    def drain_completely(self, now: float) -> float:
        """Time at which the queue empties if nothing else is produced."""
        drained = (now - self.last_time) * self.drain_rate
        remaining = max(0.0, self.occupancy - drained)
        return max(now, self.last_time) + remaining / self.drain_rate
