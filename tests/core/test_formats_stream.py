"""The CDC frame path against its oracles: same bytes, same chunks, same errors.

``serialize_cdc_chunks`` / ``deserialize_cdc_chunks`` (the multi-chunk
container) and ``encode_frame_payload`` / ``decode_frame_payload`` (what an
archive frame deflates) code a paper-exact chunk as one varint stream driven
by the declared column layout (DESIGN.md §6.5) and an assist chunk as
flags, a plane section and a short varint run (§5.10). What they are
checked against lives in ``tests/core/oracles.py``: the per-column code the
stream replaced, bound to the scalar varint and LP references, and a
bit-by-bit reference of the version-5 record. Every property here is
differential: random chunk lists must serialize to the oracle's bytes and
decode to the oracle's chunks, and hostile bytes — truncations, bit flips,
splices, inflated counts, a flipped layout bit, planes whose scalars lie,
dangling tails, a ten-byte varint at any position — must make both decoders
return equal chunks or both raise a ``RecordFormatError``. Anything else
(another exception type, one side accepting what the other refuses, memory
or time out of proportion to the input) fails. The format's value budget
(DESIGN.md §5.12) is held at both ends: the largest value under
``kernels.VALUE_LIMIT`` round-trips, the limit itself is an ``EncodingError``
before anything is written, and what a reader meets in nine bytes comes back
exact or refused.

Example counts come from the hypothesis profile: the default locally, the
``ci`` profile registered in ``tests/conftest.py`` in the named CI step.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels, varint
from repro.core.columnar import ColumnarTable, encode_table
from repro.core.epoch import EpochLine
from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.core.formats import (
    CDC_MAGIC,
    MAX_RICE_K,
    MAX_ROUND_SENDERS,
    _write_string_table,
    callsite_id,
    decode_frame_payload,
    deserialize_cdc_chunks,
    encode_frame_payload,
    serialize_cdc_chunks,
)
from repro.core.permutation import PermutationDiff
from repro.core.pipeline import CDCChunk
from repro.core.varint import decode_uvarint, encode_uvarint
from repro.errors import EncodingError, RecordFormatError
from repro.replay.durable_store import DurableArchiveWriter
from repro.replay.recorder import RecordingController
from tests.core.oracles import (
    decode_frame_payload_oracle,
    deserialize_cdc_chunks_oracle,
    encode_frame_payload_oracle,
    permutation_rounds,
    rice_parameter,
    sender_plane_bits,
    serialize_cdc_chunks_oracle,
)

#: decoding may hold this many bytes per input byte, plus a fixed floor for
#: the chunk objects and numpy's per-array overhead ...
PEAK_BYTES_PER_INPUT_BYTE = 400
PEAK_FLOOR = 256 * 1024
#: ... and take this long per input, tracemalloc's slowdown included
SECONDS_PER_INPUT = 2.0
#: that is the deadline here: hypothesis's own is per example, and one
#: example below decodes hundreds of inputs with two decoders
unhurried = settings(deadline=None)

#: the names table frame payloads are read back with where a test compares
#: chunks: every callsite below; without one a decoder labels the chunk by id
NAMES = {callsite_id(name): name for name in ("a", "b", "mcb:poll", "cs")}
decode = functools.partial(decode_frame_payload, callsites=NAMES)
decode_oracle = functools.partial(decode_frame_payload_oracle, callsites=NAMES)

# -- random chunks -------------------------------------------------------------

LIMIT = kernels.VALUE_LIMIT
small = st.integers(-70, 70)
#: magnitudes up to half the limit: a column stored as steps between signed
#: values (an assist chunk's ceilings) then stays under it; the last value under
#: the limit itself is ``test_the_value_limit_on_both_producers_and_layouts``'s
wide = st.one_of(small, st.integers(-(2**40), 2**40), st.integers(1 - LIMIT // 2, LIMIT // 2 - 1))


def _unsigned(values):
    return values.map(abs)


def ascending(draw, steps, first=0):
    """Strictly ascending ints: ``first`` or more, then one more than each step."""
    out, value = [], first - 1
    for step in steps:
        value += 1 + step
        out.append(value)
    return out


@st.composite
def chunks(draw, value=wide, callsites=("a", "b", "mcb:poll")):
    """One structurally valid chunk (the replayer's invariants between the
    columns are not the codec's business and are not generated). A
    paper-exact chunk's columns are arbitrary; an assist chunk's are what
    its planes can say: ``with_next`` indices ascend within the chunk,
    unmatched runs ascend and hold a test each."""
    column = lambda elements, **kw: tuple(draw(st.lists(elements, max_size=6, **kw)))
    moved = column(value)
    delays = draw(st.lists(value, min_size=len(moved), max_size=len(moved)))
    # the layout bit: an assist chunk stores each fact once, so its event
    # count, epoch ranks and per-sender counts are its sender column's
    senders = draw(st.one_of(st.none(), st.just(()), st.builds(
        tuple, st.lists(st.integers(0, 200), max_size=12))))
    if senders is None:
        ranks = sorted(draw(st.sets(st.integers(0, 40), max_size=5)))
        num_events = draw(st.integers(0, 2000))
        counts = tuple((rank, draw(st.integers(0, 300))) for rank in ranks)
        with_next = column(value)
        run_starts = column(value)
        run_lengths = draw(
            st.lists(_unsigned(value), min_size=len(run_starts), max_size=len(run_starts))
        )
    else:
        ranks = sorted(set(senders))
        num_events = len(senders)
        counts = tuple((rank, senders.count(rank)) for rank in ranks)
        with_next = tuple(sorted(draw(st.sets(st.integers(0, max(0, num_events - 1)),
                                              max_size=6)))) if num_events else ()
        gap = st.one_of(st.integers(0, 3), st.integers(0, 2**20))
        run_starts = ascending(draw, column(gap))
        run_lengths = [1 + draw(gap) for _ in run_starts]
    ceilings = {rank: draw(value) for rank in ranks}
    exception_ranks = column(st.integers(0, 40))
    return CDCChunk(
        callsite=draw(st.sampled_from(callsites)),
        num_events=num_events,
        # the diff's size is not stored: decoding sets it to num_events
        diff=PermutationDiff(num_events, moved, tuple(delays)),
        with_next_indices=with_next,
        unmatched_runs=tuple(zip(run_starts, run_lengths)),
        epoch=EpochLine(ceilings),
        sender_counts=counts,
        sender_min_clocks=() if senders is not None else tuple(
            (rank, ceilings[rank] - draw(_unsigned(value))) for rank in ranks
        ),
        boundary_exceptions=tuple((rank, draw(value)) for rank in exception_ranks),
        sender_sequence=senders,
    )


def chunk_lists(value=wide, max_size=4):
    return st.lists(chunks(value), max_size=max_size)


#: event counts around every byte boundary of a plane, and a full chunk
PLANE_EVENTS = (0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1023, 1024)
#: distinct senders at index widths 1 (twice), 2 and 8
PLANE_SENDERS = (1, 2, 3, 129)


@st.composite
def plane_chunks(draw):
    """An assist chunk that puts a plane at its edges: events at the byte
    boundaries, one to 129 senders, no ``with_next`` / all / none but one,
    no unmatched runs or runs whose Rice parameters are 0 or the cap."""
    n = draw(st.sampled_from(PLANE_EVENTS))
    d = min(n, draw(st.sampled_from(PLANE_SENDERS)))
    # every sender once, then any of them; ranks spread so a gap takes two bytes
    ranks = ascending(draw, [draw(st.sampled_from([0, 1, 300])) for _ in range(d)])
    senders = ranks + [draw(st.sampled_from(ranks)) for _ in range(n - d)]
    senders = tuple(draw(st.permutations(senders))) if n <= 65 else tuple(senders)
    bitmap = draw(st.sampled_from(["none", "all", "random"]))
    with_next = {
        "none": (),
        "all": tuple(range(n)),
        "random": tuple(p for p in range(n) if draw(st.booleans())) if n <= 65 else (n // 2,),
    }[bitmap]
    m = draw(st.sampled_from([0, 1, 2, 9]))
    # Rice parameters 0 (means under two) and the cap (means of 2**15 and up)
    gaps = [draw(st.sampled_from([st.integers(0, 1), st.integers(2**15, 2**17)]))] * m
    lengths = [draw(st.sampled_from([st.integers(0, 1), st.integers(2**16, 2**20)]))] * m
    run_starts = ascending(draw, [draw(g) for g in gaps])
    runs = tuple((start, 1 + draw(length)) for start, length in zip(run_starts, lengths))
    return CDCChunk(
        callsite=draw(st.sampled_from(["a", "mcb:poll"])),
        num_events=n,
        diff=PermutationDiff(n, (), ()),
        with_next_indices=with_next,
        unmatched_runs=runs,
        epoch=EpochLine({rank: draw(small) for rank in ranks}),
        sender_counts=tuple((rank, senders.count(rank)) for rank in ranks),
        sender_sequence=senders,
    )


#: distinct senders of a round: two (their first index bit: the packed index
#: keeps them), in one word (up to 20), in two (21 to 34), in several (past
#: 300), the most a round may have and one more
ROUND_SENDERS = st.one_of(
    st.integers(2, 40),
    st.integers(290, 330),
    st.sampled_from([MAX_ROUND_SENDERS, MAX_ROUND_SENDERS + 1]),
)


@st.composite
def sender_columns(draw):
    """``(kind, chunk)``: an assist chunk whose sender column is rounds that
    each name every sender once, or a near miss — one round repeating a
    sender, events that are not whole rounds, a single sender."""
    kind = draw(st.sampled_from(["rounds", "repeat", "ragged", "single"]))
    d = 1 if kind == "single" else draw(ROUND_SENDERS)
    ranks = ascending(draw, [draw(st.sampled_from([0, 1, 300])) for _ in range(d)])
    shuffle = draw(st.randoms(use_true_random=False)).sample
    rounds = [shuffle(ranks, d) for _ in range(draw(st.integers(1, 4 if d < 300 else 2)))]
    if kind == "repeat":
        seat, other = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        rounds[-1][seat] = rounds[-1][other]
    elif kind == "ragged":
        rounds.append(rounds[0][: draw(st.integers(1, d - 1))])
    senders = tuple(rank for round_ in rounds for rank in round_)
    counts = Counter(senders)
    return kind, CDCChunk(
        callsite="a",
        num_events=len(senders),
        diff=PermutationDiff(len(senders), (), ()),
        with_next_indices=(),
        unmatched_runs=(),
        epoch=EpochLine({rank: draw(small) for rank in counts}),
        sender_counts=tuple(sorted(counts.items())),
        sender_sequence=senders,
    )


def paper_twin(chunk: CDCChunk) -> CDCChunk:
    """The same columns in the paper's layout: no sender column, every
    epoch column stored."""
    return dataclasses.replace(
        chunk,
        sender_sequence=None,
        sender_min_clocks=tuple(chunk.epoch.as_sorted_pairs()),
    )


# -- running a decoder under the bounds ------------------------------------------


def outcome(decoder, data: bytes):
    """The chunks, or ``RecordFormatError`` — nothing else may come out."""
    try:
        return decoder(data)
    except RecordFormatError:
        return RecordFormatError


def bounded_outcome(data: bytes, decoder=deserialize_cdc_chunks):
    """:func:`outcome` of the new decoder, held to the memory and time bounds."""
    tracemalloc.start()
    started = time.perf_counter()
    try:
        result = outcome(decoder, data)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_FLOOR + PEAK_BYTES_PER_INPUT_BYTE * len(data), (peak, len(data))
    assert elapsed <= SECONDS_PER_INPUT, elapsed
    return result


def assert_same_outcome(data: bytes):
    got = bounded_outcome(data)
    assert got == outcome(deserialize_cdc_chunks_oracle, data)
    # the same bytes as a frame payload: both frame decoders agree too
    as_frame = bounded_outcome(data[len(CDC_MAGIC) :], decode_frame_payload)
    assert as_frame == outcome(decode_frame_payload_oracle, data[len(CDC_MAGIC) :])
    return got


def value_spans(data: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` of every complete varint after the string table —
    chunk count, heads, length prefixes and values alike; inside an assist
    record's planes, whatever reads as one."""
    count, offset = decode_uvarint(data, len(CDC_MAGIC))
    for _ in range(count):
        length, offset = decode_uvarint(data, offset)
        offset += length
    spans = []
    while offset < len(data):
        try:
            _, end = decode_uvarint(data, offset)
        except RecordFormatError:
            break
        spans.append((offset, end))
        offset = end
    return spans


def assist_payload(callsite="a", flags=1, n=0, d=0, rice=(), planes="", run=()) -> bytes:
    """A frame payload holding one assist record, field by field: the
    callsite's id, the scalars as given, ``planes`` a string of ``0``/``1``
    (padded with zeros to a byte unless it says otherwise), ``run`` the
    varint run's unsigned values."""
    out = bytearray(callsite_id(callsite).to_bytes(4, "little"))
    for scalar in (flags, n, d, *rice):
        encode_uvarint(scalar, out)
    planes += "0" * (-len(planes) % 8)
    out += bytes(int(planes[i : i + 8], 2) for i in range(0, len(planes), 8))
    for value in run:
        encode_uvarint(value, out)
    return bytes(out)


#: flag bits of an assist record's first varint
ASSIST, MOVED, WITH_NEXT, UNMATCHED, EXCEPTIONS, ROUNDS = 1, 2, 4, 8, 16, 32

#: senders of a chunk whose varint runs the scalar steps produce and read
#: (under ``varint.KERNEL_MIN_VALUES`` values and bytes), and the kernels
SENDERS_SHORT_AND_LONG = (4, 80)


def table_up_to(top: int, senders: int) -> ColumnarTable:
    """Two receives per sender with clocks ascending to ``top`` — but for
    sender 0's, observed in the other order, so both layouts store a move."""
    ranks = np.arange(2 * senders, dtype=np.int64) % senders
    clocks = top - np.arange(2 * senders, dtype=np.int64)[::-1]
    clocks[[0, senders]] = clocks[[senders, 0]]
    return ColumnarTable("cs", ranks, clocks, (1,), ((0, 2), (3, 1)))


def used_the_kernels(fn) -> bool:
    """Run ``fn()``; did a varint run of it go through a kernel?"""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("stream_to_unsigned", "uvarint_decode_batch"):
            real = getattr(kernels, name)
            patch.setattr(kernels, name, lambda *a, real=real: calls.append(1) or real(*a))
        fn()
    return bool(calls)


def frame_value_spans(payload: bytes, chunk: CDCChunk) -> list[tuple[int, int]]:
    """``(start, end)`` of every varint of a frame payload behind its
    callsite id: each column position of a paper-exact record; an assist
    record's scalars and its varint run, the planes between them skipped."""
    offset = 4
    spans, scalars = [], []
    if chunk.sender_sequence is not None:
        for _ in range(7 if chunk.unmatched_runs else 3):
            value, end = decode_uvarint(payload, offset)
            spans.append((offset, end))
            scalars.append(value)
            offset = end
        _, n, d, m, k_gap, k_len, unary_bits = (*scalars, 0, 0, 0, 0)[:7]
        bits = n * bool(chunk.with_next_indices) + unary_bits + m * (k_gap + k_len)
        offset += -(-(bits + sender_plane_bits(scalars[0], n, d)) // 8)
    while offset < len(payload):
        _, end = decode_uvarint(payload, offset)
        spans.append((offset, end))
        offset = end
    return spans


def as_container(payload: bytes, assisted: bool) -> bytes:
    """The multi-chunk container holding a frame payload's one record,
    its callsite named from :data:`NAMES`."""
    record = payload[4:]
    out = bytearray(CDC_MAGIC)
    _write_string_table(out, [NAMES[int.from_bytes(payload[:4], "little")]])
    out += b"\x01"
    if assisted:
        out += b"\x01"
        encode_uvarint(len(record), out)
    return bytes(out) + record

# -- differential: well-formed payloads ----------------------------------------------


def assert_round_trips(chunk_list):
    data = serialize_cdc_chunks(chunk_list)
    assert data == serialize_cdc_chunks_oracle(chunk_list)
    assert deserialize_cdc_chunks(data) == chunk_list
    assert deserialize_cdc_chunks_oracle(data) == chunk_list
    for chunk in chunk_list:
        payload = encode_frame_payload(chunk)
        assert payload == encode_frame_payload_oracle(chunk)
        assert decode(payload) == chunk == decode_oracle(payload)
    return data


class TestSameBytesSameChunks:
    @unhurried
    @given(chunk_lists())
    def test_int64_range(self, chunk_list):
        assert_round_trips(chunk_list)

    @unhurried
    @given(chunk_lists())
    def test_forced_scalar_producers_change_nothing(self, chunk_list):
        """A short varint run takes the scalar steps, a long one the kernel
        (``varint.KERNEL_MIN_VALUES``): all kernel, and all scalar, write and
        read the same bytes."""
        data = serialize_cdc_chunks(chunk_list)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(varint, "KERNEL_MIN_VALUES", 0)
            assert serialize_cdc_chunks(chunk_list) == data
            assert deserialize_cdc_chunks(data) == chunk_list
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(varint, "KERNEL_MIN_VALUES", 10**9)
            assert serialize_cdc_chunks(chunk_list) == data
            assert deserialize_cdc_chunks(data) == chunk_list

    @pytest.mark.parametrize("assist", [False, True])
    @pytest.mark.parametrize("senders", SENDERS_SHORT_AND_LONG)
    def test_the_value_limit_on_both_producers_and_layouts(self, senders, assist):
        """The last clock under ``kernels.VALUE_LIMIT`` is written and read
        back by the scalar steps (a short run) and by the kernels (a long
        one), in both layouts; the limit itself is an ``EncodingError`` from
        ``encode_table`` and from either producer of a hand-built chunk."""
        chunk = encode_table(table_up_to(LIMIT - 1, senders), replay_assist=assist)
        assert max(chunk.epoch.max_clock_by_rank.values()) == LIMIT - 1 and chunk.diff.num_moved
        long = senders == max(SENDERS_SHORT_AND_LONG)
        assert used_the_kernels(lambda: assert_round_trips([chunk])) == long
        assert used_the_kernels(lambda: assert_same_outcome(serialize_cdc_chunks([chunk]))) == long
        with pytest.raises(EncodingError, match=f"rank {senders - 1} at clock {LIMIT} .* limit"):
            encode_table(table_up_to(LIMIT, senders), replay_assist=assist)
        for past in (LIMIT, -LIMIT, 2**63, 2**70):
            hand_built = dataclasses.replace(chunk, boundary_exceptions=((0, past),))
            for write in (encode_frame_payload, lambda c: serialize_cdc_chunks([c])):
                with pytest.raises(EncodingError, match=f"value {past} .* limit"):
                    write(hand_built)

    @pytest.mark.parametrize("clock", [LIMIT, 2**63, 2**70])
    @pytest.mark.parametrize("assist", [False, True])
    def test_the_recording_path_refuses_a_clock_at_the_limit(self, clock, assist, tmp_path):
        """``RecordingController.on_outcome`` fed a receive at the limit —
        or past int64, where the builder's columns cannot hold it — raises
        ``EncodingError`` naming it, and no chunk holding it is stored."""
        store = DurableArchiveWriter(str(tmp_path / "rec"), nprocs=1, fsync=False)
        recorder = RecordingController(1, chunk_events=2, replay_assist=assist, store=store)
        proc, message = SimpleNamespace(rank=0, time=0.0), SimpleNamespace(nbytes=8)
        fed = lambda c: recorder.on_outcome(
            proc, MFOutcome("cs", MFKind.TEST, (ReceiveEvent(3, c),)), [message]
        )
        fed(LIMIT - 2), fed(LIMIT - 1)  # one full chunk, flushed
        assert len(recorder.archive.chunks(0)) == 1
        with pytest.raises(EncodingError, match=f"'cs'.* rank 3 at clock {clock} .* limit"):
            fed(7), fed(clock)
        store.close()
        assert store.frames == [1] and len(recorder.archive.chunks(0)) == 1

    @unhurried
    @given(plane_chunks())
    def test_planes_at_their_edges(self, chunk):
        """Events at every byte boundary of a plane, index widths 1, 2 and
        8, empty and full bitmaps, no runs and runs at Rice parameter 0 and
        at the cap: both layouts round-trip and the bit-by-bit reference
        writes the same bytes."""
        if chunk.unmatched_runs:
            gaps = [b - a - 1 for (a, _), (b, _) in zip(((-1, 0), *chunk.unmatched_runs),
                                                        chunk.unmatched_runs)]
            parameters = {rice_parameter(gaps),
                          rice_parameter([c - 1 for _, c in chunk.unmatched_runs])}
            assert parameters <= {0, MAX_RICE_K}
        assert_round_trips([chunk])
        assert_round_trips([paper_twin(chunk)])
        assert assert_same_outcome(serialize_cdc_chunks([chunk, paper_twin(chunk)])) == [
            chunk, paper_twin(chunk)
        ]

    @unhurried
    @given(sender_columns())
    def test_the_sender_plane_as_permutation_rounds(self, drawn):
        """The Lehmer-word coder (record flag 32) is chosen exactly when the
        sender column is rounds of 3 to ``MAX_ROUND_SENDERS`` senders that
        each name every sender once — never on a near miss — and either
        coder reads back what it wrote, byte for byte with the oracle."""
        kind, chunk = drawn
        ranks = sorted(set(chunk.sender_sequence))
        index = [ranks.index(rank) for rank in chunk.sender_sequence]
        payload = encode_frame_payload(chunk)
        chosen = bool(payload[4] & ROUNDS)  # the flags, behind the callsite id
        assert chosen == (kind == "rounds" and 2 < len(ranks) <= MAX_ROUND_SENDERS)
        assert chosen == bool(permutation_rounds(index, len(ranks)))
        assert payload == encode_frame_payload_oracle(chunk)
        assert decode(payload) == chunk == decode_oracle(payload)

    def test_shapes_the_strategies_rarely_draw(self):
        empty = CDCChunk("a", 0, PermutationDiff(0, (), ()), (), (), EpochLine({}), ())
        single = CDCChunk(
            "b", 1, PermutationDiff(1, (0,), (-1,)), (0,), ((0, 3),),
            EpochLine({2: 9}), ((2, 1),), (), ((2, 4),), (2,),
        )
        paper = dataclasses.replace(
            single, sender_min_clocks=((2, 9),), sender_sequence=None
        )
        assisted_empty = dataclasses.replace(empty, sender_sequence=())
        for chunk_list in ([], [empty], [single], [paper], [assisted_empty],
                           [empty, single, paper, assisted_empty, paper, single]):
            data = assert_round_trips(chunk_list)
            assert assert_same_outcome(data) == chunk_list

    def test_negative_in_an_unsigned_column_raises_like_the_oracle(self):
        bad = CDCChunk(
            "a", 1, PermutationDiff(1, (), ()), (), ((0, -2),), EpochLine({}), ()
        )
        for serializer in (serialize_cdc_chunks, serialize_cdc_chunks_oracle):
            with pytest.raises(ValueError, match="uvarint requires value >= 0"):
                serializer([bad])

    @pytest.mark.parametrize("change, message", [
        ({"with_next_indices": (1, 0)}, "with_next indices must ascend"),
        ({"with_next_indices": (0, 0)}, "with_next indices must ascend"),
        ({"with_next_indices": (2,)}, "with_next indices must ascend"),
        ({"with_next_indices": (-1,)}, "with_next indices must ascend"),
        ({"unmatched_runs": ((1, 1), (1, 2))}, "unmatched runs must ascend"),
        ({"unmatched_runs": ((-1, 1),)}, "unmatched runs must ascend"),
        ({"unmatched_runs": ((0, 0),)}, "unmatched runs must ascend"),
        ({"unmatched_runs": ((0, 1), (1, 2**59))}, "too long for the layout"),
    ])
    def test_what_a_plane_cannot_say_is_refused_by_both_serializers(self, change, message):
        """An assist chunk's planes hold ascending positions and non-empty
        runs; a chunk that is neither is not written as something else."""
        base = CDCChunk(
            "a", 2, PermutationDiff(2, (), ()), (), (), EpochLine({3: 5}), ((3, 2),),
            sender_sequence=(3, 3),
        )
        for serializer in (serialize_cdc_chunks, serialize_cdc_chunks_oracle):
            with pytest.raises(ValueError, match=message):
                serializer([dataclasses.replace(base, **change)])
        for change in ({"num_events": 3}, {"epoch": EpochLine({3: 5, 4: 1})}):
            for serializer in (serialize_cdc_chunks, serialize_cdc_chunks_oracle):
                with pytest.raises(RecordFormatError, match="not the sender column's"):
                    serializer([dataclasses.replace(base, **change)])


# -- differential: hostile bytes ------------------------------------------------------


class TestHostileBytes:
    # an example is a few hundred inputs: a quarter of the profile's count
    @settings(unhurried, max_examples=settings.default.max_examples // 4)
    @given(chunk_lists(max_size=2))
    def test_truncation_at_every_offset(self, chunk_list):
        data = serialize_cdc_chunks(chunk_list)
        for cut in range(len(data)):
            assert_same_outcome(data[:cut])

    @unhurried
    @given(chunk_lists(), st.data())
    def test_bit_flips(self, chunk_list, draw):
        data = bytearray(serialize_cdc_chunks(chunk_list))
        for _ in range(draw.draw(st.integers(1, 4))):
            data[draw.draw(st.integers(0, len(data) - 1))] ^= 1 << draw.draw(
                st.integers(0, 7)
            )
        assert_same_outcome(bytes(data))

    @unhurried
    @given(chunks(), st.data())
    def test_bit_flips_in_a_frame_payload(self, chunk, draw):
        data = bytearray(encode_frame_payload(chunk))
        for _ in range(draw.draw(st.integers(1, 3))):
            data[draw.draw(st.integers(0, len(data) - 1))] ^= 1 << draw.draw(
                st.integers(0, 7)
            )
        got = bounded_outcome(bytes(data), decode_frame_payload)
        assert got == outcome(decode_frame_payload_oracle, bytes(data))

    @unhurried
    @given(chunk_lists(), chunk_lists(), st.data())
    def test_spliced_payloads(self, first, second, draw):
        a, b = serialize_cdc_chunks(first), serialize_cdc_chunks(second)
        cut_a = draw.draw(st.integers(0, len(a)))
        cut_b = draw.draw(st.integers(0, len(b)))
        assert_same_outcome(a[:cut_a] + b[cut_b:])

    @unhurried
    @given(chunk_lists(), st.data())
    def test_inflated_value(self, chunk_list, draw):
        """Any varint — chunk count, callsite id, a length prefix, a plane
        size — swapped for one up to 2**62: refused, and never sized an
        allocation."""
        data = serialize_cdc_chunks(chunk_list)
        start, end = draw.draw(st.sampled_from(value_spans(data)))
        inflated = bytearray()
        encode_uvarint(draw.draw(st.integers(2**20, 2**62)), inflated)
        assert_same_outcome(data[:start] + bytes(inflated) + data[end:])

    @pytest.mark.parametrize("assist", [False, True])
    @pytest.mark.parametrize("senders", SENDERS_SHORT_AND_LONG)
    def test_a_varint_past_nine_bytes_at_every_column_position(self, senders, assist):
        """A varint of ten bytes is not a value of the format: spliced in
        for any scalar or column value of a valid frame — one the scalar loop
        reads, one the kernel does — it is refused by ``decode_frame_payload``
        and, the same record in the container, by ``deserialize_cdc_chunks``.
        Nine bytes holding a value at or past ``VALUE_LIMIT`` come back as
        the exact value (the bit-by-bit reference works on unbounded ints)
        or are refused: never another error, never a wrapped value."""
        chunk = encode_table(table_up_to(LIMIT - 1, senders), replay_assist=assist)
        payload = encode_frame_payload(chunk)
        spans = frame_value_spans(payload, chunk)
        assert spans[-1][1] == len(payload) and len(spans) > 2 * senders
        for start, end in spans:
            value = decode_uvarint(payload, start)[0]
            groups = [value >> 7 * k & 0x7F | 0x80 for k in range(9)]
            for spliced in (bytes(groups) + b"\x00", bytes(groups) + b"\x01"):
                hostile = payload[:start] + spliced + payload[end:]
                assert bounded_outcome(hostile, decode_frame_payload) is RecordFormatError
                assert outcome(decode_frame_payload_oracle, hostile) is RecordFormatError
                assert assert_same_outcome(as_container(hostile, assist)) is RecordFormatError
            for big in (LIMIT, 2**62 + 5, 2**63 - 1):
                nine = bytearray()
                encode_uvarint(big, nine)
                hostile = payload[:start] + bytes(nine) + payload[end:]
                got = bounded_outcome(hostile, decode)
                assert got == outcome(decode_oracle, hostile)
                assert assert_same_outcome(as_container(hostile, assist)) in ([got], got)

    @unhurried
    @given(chunks())
    def test_flipped_layout_bit(self, chunk):
        """A head's low bit picks the layout. Set on a paper-exact chunk,
        its event count is read as a record's length and its columns as
        flags and planes; cleared on an assist chunk, the record's length
        is an event count and the planes are columns. Whatever comes out,
        comes out of both decoders."""
        data = bytearray(serialize_cdc_chunks([chunk]))
        head = value_spans(bytes(data))[1][0]
        assert data[head] & 1 == (chunk.sender_sequence is not None)
        data[head] ^= 1
        assert_same_outcome(bytes(data))

    @pytest.mark.parametrize("payload, message", [
        # d = 3 at two bits an event: index 3 names no sender
        (assist_payload(n=3, d=3, planes="00" "01" "11", run=(0, 0, 0, 2, 2, 2)),
         "sender index past the sender list"),
        # two senders, every event the first one's
        (assist_payload(n=3, d=2, planes="000", run=(0, 0, 2, 2)), "a sender no event names"),
        # one sender, and an index bit set
        (assist_payload(n=3, d=1, planes="010", run=(5, 2)), "sender index past the sender list"),
        # more senders than events; events and no sender
        (assist_payload(n=1, d=2, planes="0", run=(0, 0, 2, 2)), "1 events, 2 senders"),
        (assist_payload(n=2, d=0, planes="00"), "2 events, 0 senders"),
        # a ceiling more, a ceiling fewer, than senders
        (assist_payload(n=2, d=1, planes="00", run=(5, 2, 2)), "varint run of 3 values"),
        (assist_payload(n=2, d=1, planes="00", run=(5,)), "varint run of 1 values"),
    ])
    def test_assist_columns_that_contradict_the_sender_column(self, payload, message):
        """An assist chunk's epoch ranks, counts and event count are read
        off its sender column — here, off the packed index and the sender
        list it points into: an index past the list, a sender no event
        names, more senders than events or a ceiling column of another
        length is refused."""
        assert bounded_outcome(payload, decode_frame_payload) is RecordFormatError
        assert outcome(decode_frame_payload_oracle, payload) is RecordFormatError
        with pytest.raises(RecordFormatError, match=message):
            decode_frame_payload(payload)

    #: two runs at Rice 1/0 — gaps, less one, of 2 and 3 ("10" low "0", "10"
    #: low "1"), lengths, less one, of 0 and 1 ("0", "10") — then one event's
    #: index bit: runs at positions 2 and 6, of 1 and 2 tests
    RUNS = dict(n=1, d=1, run=(7, 4))

    @pytest.mark.parametrize("payload, message", [
        (assist_payload(flags=ASSIST | UNMATCHED, rice=(2, 1, 0, 7), planes="1010" "010" "01" "0", **RUNS),
         None),  # the well-formed one
        (assist_payload(flags=ASSIST | UNMATCHED, rice=(2, 1, 0, 7), planes="1110" "010" "01" "0", **RUNS),
         "unary plane holds 3 codes for 2 runs"),
        (assist_payload(flags=ASSIST | UNMATCHED, rice=(2, 1, 0, 7), planes="1000" "010" "01" "0", **RUNS),
         "unary plane holds 5 codes for 2 runs"),
        (assist_payload(flags=ASSIST | UNMATCHED, rice=(2, 1, 0, 8), planes="1010" "010" "1" "01" "0", **RUNS),
         "unary plane holds 4 codes for 2 runs"),  # four zeros, then a one no code owns
        (assist_payload(flags=ASSIST | UNMATCHED, rice=(2, 16, 0, 7), planes="1" * 48, **RUNS),
         "at Rice 16/0"),
        (assist_payload(flags=ASSIST | UNMATCHED, rice=(2, 0, 16, 7), planes="1" * 48, **RUNS),
         "at Rice 0/16"),
        (assist_payload(flags=ASSIST | UNMATCHED, rice=(2, 1, 0, 7), planes="1010" "010" "01" "0" "0001", **RUNS),
         "pad bits behind the planes are not zero"),
        (assist_payload(flags=ASSIST | UNMATCHED, rice=(2, 1, 0, 7), planes="1010" "010" "01", **RUNS)[:-3],
         "in a record of"),  # the last plane byte and the run cut off
        # a run count no plane bit backs up, at Rice 0: nothing is sized by it
        (assist_payload(flags=ASSIST | UNMATCHED, rice=(2**40, 0, 0, 7), planes="1010" "010" "0", **RUNS),
         "unary plane holds 4 codes"),
        (assist_payload(flags=ASSIST | UNMATCHED, rice=(2, 1, 0, 2**50), planes="1", **RUNS),
         "in a record of"),
        # an event count no plane byte backs up
        (assist_payload(n=2**40, d=1, planes="0" * 64, run=(7, 4)), "in a record of"),
        (assist_payload(flags=ASSIST | WITH_NEXT, n=2**33, d=2**33, planes="0" * 64), "in a record of"),
        # a flagged table that is not there; a flag no table has
        (assist_payload(flags=ASSIST | WITH_NEXT, n=1, d=1, planes="0" "0", run=(7, 4)),
         "name a table the record does not hold"),
        (assist_payload(flags=ASSIST | UNMATCHED, rice=(0, 0, 0, 0), n=1, d=1, planes="0", run=(7, 4)),
         "name a table the record does not hold"),
        (assist_payload(flags=ASSIST | MOVED, n=1, d=1, planes="0", run=(0, 7, 4)),
         "name a table the record does not hold"),
        (assist_payload(flags=ASSIST | EXCEPTIONS, n=1, d=1, planes="0", run=(7, 4)),
         "name a table the record does not hold"),
        # the sender plane as permutation rounds: fewer than three senders,
        # events that are not whole rounds, more senders than a round may have,
        # a plane the bytes do not hold, and a word at or past its radix
        # product (3! = 6 in three bits); last, rounds of permutations written
        # as a packed index
        (assist_payload(flags=ASSIST | ROUNDS, n=1, d=1, planes="0", run=(7, 4)),
         "1 events as permutation rounds of 1 senders"),
        (assist_payload(flags=ASSIST | ROUNDS, n=0, d=0, run=()),
         "0 events as permutation rounds of 0 senders"),
        (assist_payload(flags=ASSIST | ROUNDS, n=2, d=2, planes="0", run=(0, 0, 2, 2)),
         "2 events as permutation rounds of 2 senders"),
        (assist_payload(flags=ASSIST | ROUNDS, n=4, d=3, planes="0", run=(0, 0, 0, 2, 2, 2)),
         "4 events as permutation rounds of 3 senders"),
        (assist_payload(flags=ASSIST | ROUNDS, n=1025, d=1025, planes="0" * 64),
         "1025 events as permutation rounds of 1025 senders"),
        (assist_payload(flags=ASSIST | ROUNDS, n=2**33, d=2**33, planes="0" * 64),
         "as permutation rounds of 8589934592 senders"),
        (assist_payload(flags=ASSIST | ROUNDS, n=3 * 2**40, d=3, planes="0" * 64,
                        run=(0, 0, 0, 2, 2, 2)), "in a record of"),
        (assist_payload(flags=ASSIST | ROUNDS, n=3, d=3, planes="110", run=(0, 0, 0, 2, 2, 2)),
         "a permutation word at or past its radix product"),
        (assist_payload(flags=ASSIST | ROUNDS, n=3, d=3, planes="111", run=(0, 0, 0, 2, 2, 2)),
         "a permutation word at or past its radix product"),
        (assist_payload(n=3, d=3, planes="00" "01" "10", run=(0, 0, 0, 2, 2, 2)),
         "name a table the record does not hold"),
        # the varint run: a moved-event count past its values, an odd rest,
        # a cut varint behind it
        (assist_payload(flags=ASSIST | MOVED, n=1, d=1, planes="0", run=(9, 7, 4)),
         "varint run of 3 values for 9 moved"),
        (assist_payload(n=1, d=1, planes="0", run=(7, 4, 1)), "varint run of 3 values"),
        (assist_payload(n=1, d=1, planes="0", run=(7, 4)) + b"\x80", "varint run of 2 values"),
    ])
    def test_malformed_planes_are_refused_before_they_are_unpacked(self, payload, message):
        """Every plane is sized from the record's scalars and checked
        against the bytes present before anything is unpacked; what the
        encoder cannot have written — a unary plane without its 2m zeros, a
        Rice parameter past the cap, pad bits, a flag without its table —
        is refused. (Non-ascending senders cannot be written down at all:
        the list is stored as gaps, less one.) Allocation stays bounded by
        the payload's length whatever its scalars claim."""
        got = bounded_outcome(payload, decode)
        assert got == outcome(decode_oracle, payload)
        if message is None:
            assert got.unmatched_runs == ((2, 1), (6, 2)) and got.sender_sequence == (7,)
            assert encode_frame_payload(got) == payload
            return
        assert got is RecordFormatError
        with pytest.raises(RecordFormatError, match=message):
            decode_frame_payload(payload)
        # inside the multi-chunk container the same record is refused too
        record = payload[4:]
        container = bytearray(serialize_cdc_chunks([]))
        container[4:] = b"\x01\x01a" b"\x01" b"\x01"
        encode_uvarint(len(record), container)
        assert assert_same_outcome(bytes(container) + record) is RecordFormatError

    @unhurried
    @given(chunk_lists(), st.sampled_from([b"\x80", b"\xff\xff", b"\x81" * 12,
                                                  b"\x81" * 9 + b"\x01"]))
    def test_trailing_partial_varint_is_ignored(self, chunk_list, tail):
        """Behind the container's last chunk — cut short, unterminated, or
        ten bytes long; a frame payload is exactly one chunk, and anything
        behind it is refused."""
        data = serialize_cdc_chunks(chunk_list)
        assert assert_same_outcome(data + tail) == chunk_list
        for chunk in chunk_list:
            payload = encode_frame_payload(chunk) + tail
            assert bounded_outcome(payload, decode_frame_payload) is RecordFormatError
            assert outcome(decode_frame_payload_oracle, payload) is RecordFormatError

    @unhurried
    @given(st.binary(max_size=80))
    def test_arbitrary_bytes_behind_the_magic(self, body):
        assert_same_outcome(CDC_MAGIC + body)

    def test_string_table_that_is_not_utf8(self):
        data = bytearray(CDC_MAGIC)
        _write_string_table(data, ["ab"])
        data[-1] = 0xFF
        assert assert_same_outcome(bytes(data) + b"\x00") is RecordFormatError
