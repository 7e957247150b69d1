"""The fluid virtual-time model of the SPSC recording queue (Figure 11)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.replay.async_queue import FluidQueueModel


class TestFluidModel:
    def test_no_stall_below_capacity(self):
        q = FluidQueueModel(capacity=100, drain_rate=1000.0)
        assert q.enqueue(0.0) == 0.0
        assert q.enqueue(0.001) == 0.0

    def test_slow_consumer_eventually_stalls(self):
        """The paper's scenario inverted: production outruns the drain."""
        q = FluidQueueModel(capacity=10, drain_rate=1.0)
        stalls = [q.enqueue(i * 1e-6) for i in range(50)]
        assert sum(stalls) > 0
        assert q.total_stall == pytest.approx(sum(stalls))

    def test_paper_rates_never_stall(self):
        """331K events/s drain vs 258 events/s production (Section 6.2)."""
        q = FluidQueueModel(capacity=100_000, drain_rate=331_000.0)
        production_interval = 1.0 / 258.0
        stalls = [q.enqueue(i * production_interval) for i in range(1000)]
        assert sum(stalls) == 0.0
        assert q.max_occupancy <= 1.0

    def test_occupancy_drains_over_time(self):
        q = FluidQueueModel(capacity=100, drain_rate=10.0)
        q.enqueue(0.0, n_events=5)
        q.enqueue(1.0)  # 10 drained in 1s -> occupancy resets to 1
        assert q.occupancy == pytest.approx(1.0)

    def test_drain_completely(self):
        q = FluidQueueModel(capacity=100, drain_rate=2.0)
        q.enqueue(0.0, n_events=4)
        assert q.drain_completely(0.0) == pytest.approx(2.0)

    def test_non_monotone_time_clamped(self):
        q = FluidQueueModel(capacity=10, drain_rate=1.0)
        q.enqueue(5.0)
        q.enqueue(1.0)  # clamped, no crash
        assert q.events == 2

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            FluidQueueModel(capacity=0)
        with pytest.raises(SimulationError):
            FluidQueueModel(drain_rate=0.0)

    @given(
        st.lists(st.floats(0, 1e-3), min_size=1, max_size=100),
        st.integers(1, 50),
    )
    def test_occupancy_never_exceeds_capacity(self, gaps, capacity):
        q = FluidQueueModel(capacity=capacity, drain_rate=100.0)
        t = 0.0
        for gap in gaps:
            t += gap
            t += q.enqueue(t)
            assert q.occupancy <= capacity + 1e-9
