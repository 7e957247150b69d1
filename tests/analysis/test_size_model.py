"""Byte-exact size model vs the real serializer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.size_model import SizeBreakdown, archive_breakdown
from tests.analysis.oracles import chunk_breakdown
from repro.core.events import ReceiveEvent
from repro.core.formats import encode_frame_payload, serialize_cdc_chunks
from repro.core.varint import uvarint_size
from tests.core.test_pipeline import encode_chunk
from repro.core.record_table import RecordTable
from tests.core.test_pipeline import random_events


def serialized_chunk_bytes(chunk):
    """Actual bytes of one chunk's record: what a frame payload holds behind
    its callsite's 4-byte id — and a single-chunk container behind its
    preamble (magic + string table + count) and, for an assist chunk, the
    head and length it puts in front of the record."""
    raw_cs = chunk.callsite.encode("utf-8")
    record = len(encode_frame_payload(chunk)) - 4
    preamble = 4 + 1 + 1 + len(raw_cs) + 1  # magic, n_cs, len, cs, n_chunks
    if chunk.sender_sequence is not None:
        preamble += 1 + uvarint_size(record)
    assert len(serialize_cdc_chunks([chunk])) - preamble == record
    return record


class TestExactness:
    @given(
        st.integers(1, 5),
        st.integers(0, 50),
        st.integers(0, 10**6),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_breakdown_total_matches_serializer(self, senders, n, seed, assist):
        events = random_events(senders, n, seed)
        unmatched = ((0, 3), (n, 1)) if n else ((0, 2),)
        with_next = (0,) if n >= 2 else ()
        table = RecordTable("cs", tuple(events), with_next, tuple(unmatched))
        chunk = encode_chunk(table, replay_assist=assist)
        breakdown = chunk_breakdown(chunk, callsite_id=0)
        assert breakdown.total == serialized_chunk_bytes(chunk)

    def test_archive_breakdown_matches_uncompressed_archive(self, mcb_record):
        _, _, result = mcb_record
        breakdown = archive_breakdown(result.archive)
        actual = sum(  # what the store deflates: one payload per chunk
            len(encode_frame_payload(chunk)) for _, chunk in result.archive.iter_all()
        )
        assert breakdown.total == actual == result.archive.total_payload_bytes()


class TestAttribution:
    def test_in_order_chunk_pays_nothing_for_permutation(self):
        events = [ReceiveEvent(0, c) for c in range(1, 30)]
        chunk = encode_chunk(RecordTable("cs", tuple(events), (), ()))
        b = chunk_breakdown(chunk)
        assert b.permutation <= 2  # two empty-array length prefixes
        assert b.epoch > 0

    def test_permuted_chunk_pays_in_permutation_table(self):
        rng = random.Random(0)
        events = random_events(4, 60, 1)
        chunk = encode_chunk(RecordTable("cs", tuple(events), (), ()))
        b = chunk_breakdown(chunk)
        if chunk.diff.num_moved > 10:
            assert b.permutation > b.epoch / 2

    def test_per_event_shares_sum_to_total(self):
        events = random_events(3, 40, 5)
        chunk = encode_chunk(RecordTable("cs", tuple(events), (), ((0, 2),)))
        b = chunk_breakdown(chunk)
        shares = b.per_event()
        assert sum(shares.values()) * b.events == pytest.approx(b.total)

    def test_add_accumulates(self):
        a = SizeBreakdown(permutation=5, events=10, chunks=1)
        b = SizeBreakdown(permutation=7, epoch=3, events=20, chunks=2)
        a.add(b)
        assert a.permutation == 12 and a.epoch == 3
        assert a.events == 30 and a.chunks == 3


class TestDeclaredLayout:
    """The breakdown and the ``format.cdc.<table>_bytes`` counters read the
    serializer's own varint run and planes: same numbers as the hand-written
    walks in ``tests/core/oracles.py``, and they account for every byte."""

    @pytest.fixture(scope="class", params=["mcb", "unstructured"])
    def archive(self, request):
        from repro.replay.session import RecordSession
        from repro.workloads import make_workload

        params = {"mcb": {"particles_per_rank": 40}, "unstructured": {"iterations": 6}}
        program, _ = make_workload(request.param, 8, **params[request.param])
        return RecordSession(program, nprocs=8, network_seed=5, chunk_events=32).run().archive

    def test_chunk_breakdown_equals_the_oracle_walk(self, archive):
        from tests.core.oracles import chunk_breakdown_oracle

        chunks = [c for rank in range(archive.nprocs) for c in archive.chunks(rank)]
        assert len(chunks) > archive.nprocs
        for callsite_id, chunk in enumerate(chunks):
            assert chunk_breakdown(chunk, callsite_id) == chunk_breakdown_oracle(
                chunk, callsite_id
            )

    def test_table_counters_and_preamble_sum_to_the_payload(self, archive):
        from repro.core.formats import CDC_TABLES
        from repro.obs import TelemetryRegistry, use_registry

        for rank in range(archive.nprocs):
            for chunk in archive.chunks(rank):
                breakdown = chunk_breakdown(chunk)
                for serializer in (encode_frame_payload, lambda c: serialize_cdc_chunks([c])):
                    registry = TelemetryRegistry()
                    with use_registry(registry):
                        payload = serializer(chunk)
                    counters = registry.counters()
                    tables = {t: counters[f"format.cdc.{t}_bytes"] for t in CDC_TABLES}
                    assert tables == {t: getattr(breakdown, t) for t in CDC_TABLES}
                    assert counters["format.cdc.bytes_out"] == len(payload)
                    framing = len(payload) - serialized_chunk_bytes(chunk)
                    assert sum(tables.values()) + breakdown.header + framing == len(payload)
