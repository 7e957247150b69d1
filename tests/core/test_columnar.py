"""Columnar record buffers: builder equivalence, growth, byte identity.

The tentpole claim of the columnar hot path is *exact* equivalence with the
object pipeline — same :class:`CDCChunk` fields and the same serialized
bytes for the same outcome stream. (The object pipeline is a test reference:
``RecordTableBuilder`` / ``build_tables`` / ``encode_chunk_scalar`` /
``encode_chunk_sequence`` and the parent's ``encode_chunk_oracle`` live in
``tests/core/oracles.py``.) These tests pin that claim at the
builder level (grow-by-doubling boundaries, unmatched runs), the encoder
level (fast paths, fallbacks, hardening columns), and end-to-end on all
four workloads.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.core.columnar import (
    ColumnarTable,
    ColumnarTableBuilder,
    GrowColumn,
    build_columnar_tables,
    encode_table,
)
from repro.core.epoch import EpochLine
from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.core.formats import serialize_cdc_chunks
from repro.errors import DecodingError
from repro.replay import RecordSession
from repro.workloads import coupled, jacobi, mcb, unstructured
from tests.core.test_pipeline import as_columnar_table
from tests.core.oracles import (
    RecordTableBuilder,
    build_tables,
    encode_chunk_oracle,
    encode_chunk_scalar,
    encode_chunk_sequence,
)


def outcome(callsite, events):
    return MFOutcome(callsite, MFKind.TESTSOME, tuple(events))


def random_stream(rng, n, nsenders=6, callsite="cs"):
    """MF outcomes with empty polls, single hits, and multi-event bursts."""
    outs = []
    clock = 0
    while sum(len(o.matched) for o in outs) < n:
        roll = rng.random()
        if roll < 0.2:
            outs.append(outcome(callsite, ()))
            continue
        burst = 1 if roll < 0.85 else rng.randint(2, 4)
        events = []
        for _ in range(burst):
            clock += rng.randint(1, 3)
            events.append(ReceiveEvent(rng.randrange(nsenders), clock))
        outs.append(outcome(callsite, events))
    return outs


class TestBuilderEquivalence:
    def test_matches_object_builder_on_random_streams(self):
        rng = random.Random(11)
        for trial in range(10):
            outs = random_stream(rng, 200)
            obj = RecordTableBuilder("cs")
            col = ColumnarTableBuilder("cs", capacity=2)
            for o in outs:
                obj.add(o)
                col.add(o)
            assert col.num_events == obj.num_events
            assert col.dirty == obj.dirty
            obj_t, col_t = obj.flush(), col.flush()
            assert col_t.ranks.tolist() == [e.rank for e in obj_t.matched]
            assert col_t.clocks.tolist() == [e.clock for e in obj_t.matched]
            assert col_t.with_next_indices == obj_t.with_next_indices
            assert col_t.unmatched_runs == obj_t.unmatched_runs

    @pytest.mark.parametrize("total", [1, 2, 3, 4, 255, 256, 257, 511, 512, 1025])
    def test_grow_by_doubling_boundaries(self, total):
        """Counts straddling every power-of-two capacity stay intact."""
        builder = ColumnarTableBuilder("cs", capacity=2)
        for i in range(total):
            builder.add(outcome("cs", [ReceiveEvent(i % 5, i + 1)]))
        table = builder.flush()
        assert table.num_events == total
        assert table.clocks.tolist() == list(range(1, total + 1))
        assert table.ranks.tolist() == [i % 5 for i in range(total)]

    def test_multi_event_outcome_spans_growth_boundary(self):
        """A single burst larger than the remaining capacity triggers growth."""
        builder = ColumnarTableBuilder("cs", capacity=4)
        builder.add(outcome("cs", [ReceiveEvent(0, 1), ReceiveEvent(1, 2)]))
        burst = [ReceiveEvent(i, 10 + i) for i in range(6)]  # 2 + 6 > 4, > 8
        builder.add(outcome("cs", burst))
        table = builder.flush()
        assert table.num_events == 8
        assert table.clocks.tolist() == [1, 2, 10, 11, 12, 13, 14, 15]
        assert table.with_next_indices == (0, 2, 3, 4, 5, 6)

    def test_capacity_survives_flush(self):
        builder = ColumnarTableBuilder("cs", capacity=2)
        for i in range(100):
            builder.add(outcome("cs", [ReceiveEvent(0, i + 1)]))
        grown = builder._ranks.shape[0]
        assert grown >= 100
        first = builder.flush()
        assert builder._ranks.shape[0] == grown  # no shrink on flush
        assert not builder.dirty
        builder.add(outcome("cs", [ReceiveEvent(3, 7)]))
        second = builder.flush()
        assert second.ranks.tolist() == [3]
        assert first.num_events == 100  # sealed copy unaffected by reuse

    def test_trailing_unmatched_flushes_as_run(self):
        builder = ColumnarTableBuilder("cs")
        builder.add(outcome("cs", [ReceiveEvent(0, 1)]))
        builder.add(outcome("cs", ()))
        builder.add(outcome("cs", ()))
        assert builder.dirty
        table = builder.flush()
        assert table.unmatched_runs == ((1, 2),)

    def test_wrong_callsite_rejected(self):
        builder = ColumnarTableBuilder("a")
        with pytest.raises(ValueError):
            builder.add(outcome("b", [ReceiveEvent(0, 1)]))

    def test_build_columnar_tables_matches_build_tables(self):
        rng = random.Random(5)
        outs = []
        for cs in ("x", "y"):
            outs.extend(random_stream(rng, 150, callsite=cs))
        rng.shuffle(outs)
        obj = build_tables(outs, chunk_events=64)
        col = build_columnar_tables(outs, chunk_events=64)
        assert set(obj) == set(col)
        for cs in obj:
            assert [encode_chunk_scalar(t) for t in obj[cs]] == [
                encode_table(t) for t in col[cs]
            ]


class TestEncodeEquivalence:
    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            ColumnarTable(
                "cs", np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64)
            )

    @pytest.mark.parametrize("assist", [False, True])
    def test_empty_chunk(self, assist):
        table = ColumnarTable(
            "cs",
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            unmatched_runs=((0, 3),),
        )
        chunk = encode_table(table, replay_assist=assist)
        assert chunk == encode_chunk_scalar(table.to_record_table(), replay_assist=assist)
        assert chunk.sender_sequence == (() if assist else None)
        assert chunk.epoch == EpochLine({})

    @pytest.mark.parametrize("assist", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_chunks_match_object_encoder(self, seed, assist):
        rng = random.Random(seed)
        outs = random_stream(rng, 400)
        for obj_t, col_t in zip(
            build_tables(outs, chunk_events=96)["cs"],
            build_columnar_tables(outs, chunk_events=96)["cs"],
        ):
            a = encode_chunk_scalar(obj_t, replay_assist=assist)
            b = encode_table(col_t, replay_assist=assist)
            assert a == b
            assert serialize_cdc_chunks([a]) == serialize_cdc_chunks([b])
            # the encoder of the commit before "each fact once": the paper's
            # layout is untouched, the assist one differs where it says so
            old = encode_chunk_oracle(obj_t, replay_assist=assist)
            if assist:
                assert b.diff.is_identity()  # every sender in clock order here
                old = dataclasses.replace(old, diff=b.diff, sender_min_clocks=())
            assert b == old

    def test_boundary_exceptions_match(self):
        events = [ReceiveEvent(0, 20), ReceiveEvent(1, 60), ReceiveEvent(0, 70)]
        table = as_columnar_table(
            build_tables([outcome("cs", events)])["cs"][0]
        )
        ceilings = {0: 50}
        chunk = encode_table(table, prior_ceilings=ceilings)
        assert chunk.boundary_exceptions == ((0, 20),)
        assert chunk == encode_chunk_scalar(
            table.to_record_table(), prior_ceilings=ceilings
        )

    def test_huge_rank_values_use_unique_fallback(self):
        """Sender ids too large for the dense scatter still encode equally."""
        big = 10**9
        events = [ReceiveEvent(big, 5), ReceiveEvent(2, 9), ReceiveEvent(big, 11)]
        table = as_columnar_table(build_tables([outcome("cs", events)])["cs"][0])
        chunk = encode_table(table, replay_assist=True)
        assert chunk == encode_chunk_scalar(table.to_record_table(), replay_assist=True)
        assert dict(chunk.sender_counts) == {2: 1, big: 2}

    def test_duplicate_reference_keys_raise(self):
        table = ColumnarTable(
            "cs",
            np.array([1, 1], dtype=np.int64),
            np.array([7, 7], dtype=np.int64),
        )
        with pytest.raises(DecodingError):
            encode_table(table)

    def test_epoch_line_matches_from_events(self):
        rng = random.Random(9)
        outs = random_stream(rng, 300)
        for assist in (False, True):
            for col_t in build_columnar_tables(outs, chunk_events=64)["cs"]:
                chunk = encode_table(col_t, replay_assist=assist)
                assert chunk.epoch == EpochLine.from_events(
                    col_t.to_record_table().matched
                )


class TestEncodeEdgeCases:
    """Degenerate tables every vectorized pass must handle exactly."""

    @pytest.mark.parametrize("assist", [False, True])
    def test_empty_rank_table(self, assist):
        """Zero events, zero unmatched: the empty-rank archive shape."""
        table = ColumnarTable(
            "cs", np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        chunk = encode_table(table, replay_assist=assist)
        assert chunk == encode_chunk_scalar(table.to_record_table(), replay_assist=assist)
        assert chunk.num_events == 0
        assert chunk.epoch == EpochLine({})

    @pytest.mark.parametrize("assist", [False, True])
    def test_single_event_table(self, assist):
        table = ColumnarTable(
            "cs",
            np.array([3], dtype=np.int64),
            np.array([17], dtype=np.int64),
        )
        chunk = encode_table(table, replay_assist=assist)
        assert chunk == encode_chunk_scalar(table.to_record_table(), replay_assist=assist)
        assert chunk.num_events == 1
        assert chunk.epoch == EpochLine({3: 17})

    @pytest.mark.parametrize("assist", [False, True])
    def test_all_senders_one_rank(self, assist):
        """A monopolized sender column: one bincount bucket, dense scatter."""
        clocks = [2, 5, 9, 14, 15, 21, 30, 31]
        table = ColumnarTable(
            "cs",
            np.full(len(clocks), 4, dtype=np.int64),
            np.array(clocks, dtype=np.int64),
        )
        chunk = encode_table(table, replay_assist=assist)
        assert chunk == encode_chunk_scalar(table.to_record_table(), replay_assist=assist)
        assert dict(chunk.sender_counts) == {4: len(clocks)}
        assert chunk.epoch == EpochLine({4: max(clocks)})

    def test_all_senders_one_rank_permuted_delivery(self):
        """One sender observed out of reference order still encodes equally
        — with the assist column too, whose reference order is that column
        (one sender: the two reference orders coincide)."""
        table = ColumnarTable(
            "cs",
            np.full(4, 2, dtype=np.int64),
            np.array([9, 3, 30, 12], dtype=np.int64),
        )
        for assist in (False, True):
            chunk = encode_table(table, replay_assist=assist)
            assert chunk == encode_chunk_scalar(table.to_record_table(), assist)
            assert chunk.diff == encode_table(table).diff
            assert chunk.diff.num_moved > 0
            assert chunk.epoch == EpochLine({2: 30})
            assert chunk.sender_min_clocks == (() if assist else ((2, 3),))

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_shuffled_chunks_match_object_encoder(self, seed):
        """Arbitrary observed orders — senders out of clock order inside a
        chunk, the case no shipped workload produces — through both
        encoders and both layouts."""
        rng = random.Random(seed)
        events = [
            ev for o in random_stream(rng, 200, nsenders=4) for ev in o.matched
        ]
        rng.shuffle(events)
        tables = build_tables([outcome("cs", [ev]) for ev in events], chunk_events=40)
        for obj_t in tables["cs"]:
            plain = encode_chunk_scalar(obj_t)
            assisted = encode_chunk_scalar(obj_t, replay_assist=True)
            assert encode_table(as_columnar_table(obj_t)) == plain == encode_chunk_oracle(obj_t)
            assert encode_table(as_columnar_table(obj_t), replay_assist=True) == assisted
            assert assisted.diff.num_moved > 0 and assisted.sender_min_clocks == ()


class TestGrowColumn:
    def test_append_across_growth_boundaries(self):
        col = GrowColumn(capacity=2)
        for i in range(100):
            col.append(i)
        assert len(col) == 100
        assert col.values.tolist() == list(range(100))

    def test_extend_grows_past_need(self):
        col = GrowColumn(capacity=4)
        col.extend(range(3))
        col.extend(range(3, 100))
        assert col.values.tolist() == list(range(100))

    def test_values_is_view_array_is_copy(self):
        col = GrowColumn(capacity=8)
        col.extend([1, 2, 3])
        view = col.values
        copy = col.array()
        view[0] = 99
        assert col.values[0] == 99  # view aliases the backing store
        assert copy[0] == 1  # copy does not

    def test_float_dtype(self):
        col = GrowColumn(dtype=float, capacity=2)
        col.append(0.5)
        col.append(1.25)
        assert col.values.dtype == np.float64
        assert col.values.tolist() == [0.5, 1.25]

    def test_clear_keeps_capacity(self):
        col = GrowColumn(capacity=2)
        col.extend(range(50))
        col.clear()
        assert len(col) == 0
        assert col.values.shape == (0,)
        col.append(7)
        assert col.values.tolist() == [7]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            GrowColumn(capacity=0)


WORKLOADS = {
    "mcb": lambda: (
        mcb.build_program(mcb.MCBConfig(nprocs=6, particles_per_rank=25, seed=3)),
        6,
    ),
    "jacobi": lambda: (
        jacobi.build_program(
            jacobi.JacobiConfig(
                nprocs=4, cells_per_rank=8, iterations=30, residual_interval=10
            )
        ),
        4,
    ),
    "coupled": lambda: (
        coupled.build_program(coupled.CoupledConfig(nprocs=6, epochs=3)),
        6,
    ),
    "unstructured": lambda: (
        unstructured.build_program(
            unstructured.UnstructuredConfig(nprocs=4, vertices=24, iterations=6)
        ),
        4,
    ),
}


def assert_archive_matches_object_path(result, chunk_events, label):
    """The session's archive equals ``build_tables`` + ``encode_chunk_sequence``
    (the object pipeline, kept as the oracle) over the recorded outcomes,
    callsite by callsite and byte for byte."""
    for rank in range(result.nprocs):
        recorded = {}
        for chunk in result.archive.chunks(rank):
            recorded.setdefault(chunk.callsite, []).append(chunk)
        tables = build_tables(result.outcomes[rank], chunk_events)
        assert sorted(recorded) == sorted(tables), f"{label} rank {rank} callsites"
        for callsite, callsite_tables in tables.items():
            oracle = encode_chunk_sequence(callsite_tables, replay_assist=True)
            assert serialize_cdc_chunks(
                recorded[callsite]
            ) == serialize_cdc_chunks(oracle), (
                f"{label} rank {rank} {callsite} archive bytes differ"
            )


class TestWorkloadByteIdentity:
    """Recording serializes byte-identically to the object pipeline."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_archives_byte_identical(self, name):
        program, nprocs = WORKLOADS[name]()
        result = RecordSession(
            program, nprocs=nprocs, network_seed=2, chunk_events=64
        ).run()
        assert_archive_matches_object_path(result, 64, name)

    def test_empty_rank_archives_byte_identical(self):
        """Send-only ranks record zero receives on both paths."""
        from tests.replay.test_recorder import fanin_program

        result = RecordSession(fanin_program(), nprocs=4, network_seed=2).run()
        for rank in range(1, 4):  # senders never poll: empty archives
            assert result.archive.chunks(rank) == []
        assert result.archive.chunks(0)
        assert_archive_matches_object_path(result, 1024, "fanin")
