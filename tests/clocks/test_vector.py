"""Vector clocks for the Section 4.3 scalability ablation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clocks import VectorClock, total_order_key


class TestBasics:
    def test_initial_components_zero(self):
        v = VectorClock(rank=1, nprocs=3)
        assert v.snapshot() == (0, 0, 0)

    def test_send_ticks_own_component(self):
        v = VectorClock(rank=1, nprocs=3)
        assert v.on_send() == (0, 1, 0)

    def test_receive_merges_and_ticks(self):
        v = VectorClock(rank=0, nprocs=3)
        v.on_receive((0, 5, 2))
        assert v.snapshot() == (1, 5, 2)

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            VectorClock(rank=3, nprocs=3)

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ValueError):
            VectorClock(rank=0, nprocs=2).on_receive((1, 2, 3))


class TestCausality:
    def test_happened_before_after_message(self):
        a = VectorClock(rank=0, nprocs=2)
        b = VectorClock(rank=1, nprocs=2)
        piggy = a.on_send()
        b.on_receive(piggy)
        assert a.happened_before(b)
        assert not b.happened_before(a)

    def test_concurrent_without_communication(self):
        a = VectorClock(rank=0, nprocs=2)
        b = VectorClock(rank=1, nprocs=2)
        a.on_send()
        b.on_send()
        # concurrent: neither clock causally precedes the other
        assert not a.happened_before(b) and not b.happened_before(a)


class TestScalabilityCost:
    """The paper's point: the piggyback grows linearly with process count."""

    @pytest.mark.parametrize("nprocs", [8, 64, 1024])
    def test_piggyback_grows_linearly(self, nprocs):
        v = VectorClock(rank=0, nprocs=nprocs)
        assert v.piggyback_bytes() == 8 * nprocs

    def test_lamport_equivalent_is_constant(self):
        # eight bytes regardless of scale — the Section 6.2 number
        assert VectorClock(rank=0, nprocs=4096).piggyback_bytes(8) // 4096 == 8


class TestTotalOrderKey:
    @given(
        st.lists(st.integers(0, 20), min_size=3, max_size=3),
        st.lists(st.integers(0, 20), min_size=3, max_size=3),
    )
    def test_key_is_total(self, va, vb):
        ka, kb = total_order_key(va, 0), total_order_key(vb, 1)
        assert (ka < kb) or (kb < ka) or (ka == kb)

    def test_rank_breaks_ties(self):
        assert total_order_key((1, 2), 0) < total_order_key((1, 2), 1)
