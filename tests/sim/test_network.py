"""Network model: determinism, FIFO clamping, piggyback cost."""

import enum
import random
from collections import namedtuple

from hypothesis import given
from hypothesis import strategies as st

from repro.replay import RecordSession
from repro.sim.network import LatencyModel, Network, payload_nbytes
from repro.workloads import make_workload
from tests.sim.oracles import payload_nbytes_oracle


class TestLatencyModel:
    def test_deterministic_without_jitter(self):
        model = LatencyModel(base=1e-6, per_byte=1e-9, jitter_mean=0.0)
        rng = random.Random(0)
        assert model.sample(rng, 100) == 1e-6 + 100e-9

    def test_jitter_adds_positive_noise(self):
        model = LatencyModel(base=1e-6, jitter_mean=1e-5)
        rng = random.Random(0)
        samples = [model.sample(rng, 0) for _ in range(100)]
        assert all(s >= 1e-6 for s in samples)
        assert len(set(samples)) > 90  # actually random


class TestNetwork:
    def test_same_seed_same_deliveries(self):
        def run(seed):
            net = Network(seed=seed)
            return [net.delivery_time(0, 1, i * 1e-6, 64) for i in range(50)]

        assert run(7) == run(7)
        assert run(7) != run(8)

    @given(st.integers(0, 1000), st.integers(1, 60))
    def test_fifo_per_channel(self, seed, n):
        """Deliveries on one channel never reorder."""
        net = Network(seed=seed)
        times = [net.delivery_time(0, 1, i * 1e-7, 32) for i in range(n)]
        assert times == sorted(times)

    def test_channels_are_independent(self):
        net = Network(seed=1)
        t1 = net.delivery_time(0, 1, 0.0, 10_000_000)  # huge -> late
        t2 = net.delivery_time(0, 2, 0.0, 8)  # tiny -> early
        assert t2 < t1  # no cross-channel clamping

    def test_sequence_numbers_monotone_per_channel(self):
        net = Network(seed=0)
        seqs = [net.post(3, 4, 0.0, 8)[0] for _ in range(10)]
        assert seqs == list(range(10))
        assert net.post(4, 3, 0.0, 8)[0] == 0  # reverse channel independent

    def test_post_arrives_when_delivery_time_says(self):
        posted, timed = Network(seed=3), Network(seed=3)
        for i in range(20):
            _, arrival = posted.post(0, 1, i * 1e-7, 32)
            assert arrival == timed.delivery_time(0, 1, i * 1e-7, 32)

    @given(
        st.integers(0, 2**32),
        st.sampled_from([0.0, 1e-7, 4.0e-6]),
        st.sampled_from([0, 8]),
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 5000)), max_size=40
        ),
    )
    def test_post_inlines_sample_in_its_float_order(self, seed, jitter, piggyback, sends):
        """``post`` computes the latency itself; bit for bit what
        ``LatencyModel.sample`` + the FIFO clamp give, on every channel."""
        latency = LatencyModel(base=2.5e-6, per_byte=1.3e-9, jitter_mean=jitter)
        posted = Network(seed=seed, latency=latency, piggyback_bytes=piggyback)
        timed = Network(seed=seed, latency=latency, piggyback_bytes=piggyback)
        for i, (src, dst, nbytes) in enumerate(sends):
            send_time = i * 3.7e-7
            assert posted.post(src, dst, send_time, nbytes)[1] == timed.delivery_time(
                src, dst, send_time, nbytes
            )

    def test_piggyback_increases_latency(self):
        lat = LatencyModel(base=0.0, per_byte=1e-6, jitter_mean=0.0)
        bare = Network(seed=0, latency=lat, piggyback_bytes=0)
        piggy = Network(seed=0, latency=lat, piggyback_bytes=8)
        assert piggy.delivery_time(0, 1, 0.0, 100) > bare.delivery_time(0, 1, 0.0, 100)


class TestPayloadSizing:
    def test_scalars(self):
        assert payload_nbytes(None) == 8
        assert payload_nbytes(1.5) == 8

    def test_containers_scale_with_content(self):
        small = payload_nbytes([(1.0, 2)] * 2)
        big = payload_nbytes([(1.0, 2)] * 20)
        assert big > small

    def test_bytes_and_strings(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("abcd") == 4

    def test_dict(self):
        assert payload_nbytes({"a": 1}) > 8

    def test_opaque_object_default(self):
        class Thing:
            pass

        assert payload_nbytes(Thing()) == 64


class Level(enum.IntEnum):
    LOW = 1


class Ratio(float):
    pass


Pair = namedtuple("Pair", "left right")


class Opaque:
    pass


#: everything the fast paths tell apart: exact ints/floats, their subclasses
#: (bool, IntEnum, a float subclass), None, sized leaves, unhashable leaves
#: and arbitrary objects ...
leaves = st.one_of(
    st.integers(),
    st.floats(allow_nan=True),
    st.booleans(),
    st.none(),
    st.just(Level.LOW),
    st.builds(Ratio, st.floats(allow_nan=False)),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.builds(bytearray, st.binary(max_size=6)),
    st.builds(Opaque),
)
hashable_leaves = st.one_of(st.integers(), st.text(max_size=4), st.none(), st.booleans())
#: ... nested in lists, tuples, a tuple subclass and dicts, deeper than the
#: two levels the production function sizes without recursing
payloads = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.builds(Pair, inner, inner),
        st.dictionaries(hashable_leaves, inner, max_size=4),
    ),
    max_leaves=30,
)


class TestPayloadSizingMatchesOracle:
    @given(payloads)
    def test_equals_isinstance_chain(self, payload):
        assert payload_nbytes(payload) == payload_nbytes_oracle(payload)

    def test_workload_payload_shapes(self):
        particles = [(0.25, 3), (0.5, 1)]  # MCB batch
        boundary = [(4, 0.125)] * 7  # unstructured halo
        gathered = [(0, None), (1, [1.0, 2.0]), (2, (True, "x"))]
        for payload in (particles, boundary, gathered, [], (), [[]], [(1, [2, (3,)])]):
            assert payload_nbytes(payload) == payload_nbytes_oracle(payload)
        assert payload_nbytes(particles) == 8 + 2 * (8 + 16)


class TestMessageCarriesItsSize:
    def record(self, seen):
        program, _ = make_workload("mcb", 8, particles_per_rank=20, seed=3)

        def watched(ctx):
            gen = program(ctx)
            value = None
            while True:
                try:
                    op = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                value = yield op
                seen.extend(m for m in getattr(value, "messages", ()) if m is not None)

        return RecordSession(watched, nprocs=8, network_seed=5).run()

    def test_nbytes_is_the_payload_estimate(self):
        seen = []
        result = self.record(seen)
        assert len(seen) == result.stats.total_messages > 100
        assert all(m.nbytes == payload_nbytes(m.payload) for m in seen)
        # the recorder's data-replay total is the sum over delivered messages
        assert result.controller.data_replay_bytes() == sum(
            payload_nbytes_oracle(m.payload) for m in seen
        )
