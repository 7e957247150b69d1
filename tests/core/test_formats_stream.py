"""The CDC frame path against its oracles: same bytes, same chunks, same errors.

``serialize_cdc_chunks`` / ``deserialize_cdc_chunks`` treat a payload body
as one varint stream driven by the declared column layout (DESIGN.md §6.5).
The per-column code they replaced lives on in ``tests/core/oracles.py``,
bound to the scalar varint and LP references, and every property here is
differential: random chunk lists must serialize to the oracle's bytes and
decode to the oracle's chunks, and hostile bytes — truncations, bit flips,
splices, inflated counts, a flipped layout bit, an assist chunk whose
columns contradict its sender column, dangling tails — must make both
decoders return equal chunks or both raise a ``RecordFormatError``.
Anything else (another exception type, one side accepting what the other
refuses, memory or time out of proportion to the input) fails.

Example counts come from the hypothesis profile: the default locally, the
``ci`` profile registered in ``tests/conftest.py`` in the named CI step.
"""

from __future__ import annotations

import dataclasses
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.epoch import EpochLine
from repro.core.formats import (
    CDC_MAGIC,
    _write_string_table,
    deserialize_cdc_chunks,
    serialize_cdc_chunks,
)
from repro.core.permutation import PermutationDiff
from repro.core.pipeline import CDCChunk
from repro.core.varint import decode_uvarint, encode_uvarint
from repro.errors import RecordFormatError
from tests.core.oracles import deserialize_cdc_chunks_oracle, serialize_cdc_chunks_oracle

#: decoding may hold this many bytes per input byte, plus a fixed floor for
#: the chunk objects and numpy's per-array overhead ...
PEAK_BYTES_PER_INPUT_BYTE = 400
PEAK_FLOOR = 256 * 1024
#: ... and take this long per input, tracemalloc's slowdown included
SECONDS_PER_INPUT = 2.0
#: that is the deadline here: hypothesis's own is per example, and one
#: example below decodes hundreds of inputs with two decoders
unhurried = settings(deadline=None)

# -- random chunks -------------------------------------------------------------

small = st.integers(-70, 70)
#: int64-range values, where the kernels do the work
wide = st.one_of(small, st.integers(-(2**40), 2**40), st.integers(-(2**59), 2**59))
#: clocks at and beyond 2**63: only the scalar producer is exact there
huge = st.one_of(wide, st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63)))


def _unsigned(values):
    return values.map(abs)


@st.composite
def chunks(draw, value=wide, callsites=("a", "b", "mcb:poll")):
    """One structurally valid chunk (the replayer's invariants between the
    columns are not the codec's business and are not generated)."""
    column = lambda elements, **kw: tuple(draw(st.lists(elements, max_size=6, **kw)))
    moved = column(value)
    delays = draw(st.lists(value, min_size=len(moved), max_size=len(moved)))
    run_starts = column(value)
    run_lengths = draw(
        st.lists(_unsigned(value), min_size=len(run_starts), max_size=len(run_starts))
    )
    # the layout bit: an assist chunk stores each fact once, so its event
    # count, epoch ranks and per-sender counts are its sender column's
    senders = draw(st.one_of(st.none(), st.just(()), st.builds(
        tuple, st.lists(st.integers(0, 200), max_size=12))))
    if senders is None:
        ranks = sorted(draw(st.sets(st.integers(0, 40), max_size=5)))
        num_events = draw(st.integers(0, 2000))
        counts = tuple((rank, draw(st.integers(0, 300))) for rank in ranks)
    else:
        ranks = sorted(set(senders))
        num_events = len(senders)
        counts = tuple((rank, senders.count(rank)) for rank in ranks)
    ceilings = {rank: draw(value) for rank in ranks}
    exception_ranks = column(st.integers(0, 40))
    return CDCChunk(
        callsite=draw(st.sampled_from(callsites)),
        num_events=num_events,
        # the diff's size is not stored: decoding sets it to num_events
        diff=PermutationDiff(num_events, moved, tuple(delays)),
        with_next_indices=column(value),
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


# -- running a decoder under the bounds ------------------------------------------


def outcome(decoder, data: bytes):
    """The chunks, or ``RecordFormatError`` — nothing else may come out."""
    try:
        return decoder(data)
    except RecordFormatError:
        return RecordFormatError


def bounded_outcome(data: bytes):
    """:func:`outcome` of the new decoder, held to the memory and time bounds."""
    tracemalloc.start()
    started = time.perf_counter()
    try:
        result = outcome(deserialize_cdc_chunks, data)
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
    return got


def value_spans(data: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` of every complete varint after the string table —
    chunk count, headers, length prefixes and values alike."""
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


def assist_payload(chunk: CDCChunk, edit) -> bytes:
    """``[chunk]`` serialized, after ``edit`` changed the values a one-chunk
    assist payload carries: ``[head, num_events, *columns]`` with each
    column a list (LP columns are empty or left alone here)."""
    data = serialize_cdc_chunks([chunk])
    spans = value_spans(data)
    flat = [decode_uvarint(data, start)[0] for start, _ in spans]
    values, i = flat[1:3], 3  # flat[0] is the chunk count
    while i < len(flat):
        values.append(flat[i + 1 : i + 1 + flat[i]])
        i += 1 + flat[i]
    edit(values)
    out = bytearray(data[: spans[1][0]])
    for value in values:
        for v in [len(value), *value] if isinstance(value, list) else [value]:
            encode_uvarint(v, out)
    return bytes(out)


# -- differential: well-formed payloads ----------------------------------------------


class TestSameBytesSameChunks:
    @unhurried
    @given(chunk_lists())
    def test_int64_range(self, chunk_list):
        data = serialize_cdc_chunks(chunk_list)
        assert data == serialize_cdc_chunks_oracle(chunk_list)
        assert deserialize_cdc_chunks(data) == chunk_list
        assert deserialize_cdc_chunks_oracle(data) == chunk_list

    @unhurried
    @given(chunk_lists(huge))
    def test_beyond_int64_takes_the_scalar_producer(self, chunk_list):
        data = serialize_cdc_chunks(chunk_list)
        assert data == serialize_cdc_chunks_oracle(chunk_list)
        assert deserialize_cdc_chunks(data) == chunk_list
        assert deserialize_cdc_chunks_oracle(data) == chunk_list

    @unhurried
    @given(chunk_lists())
    def test_forced_scalar_producers_change_nothing(self, chunk_list):
        data = serialize_cdc_chunks(chunk_list)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "stream_to_unsigned", lambda *a: None)
            patch.setattr(kernels, "uvarint_decode_batch", lambda *a: None)
            assert serialize_cdc_chunks(chunk_list) == data
            assert deserialize_cdc_chunks(data) == chunk_list

    def test_shapes_the_strategies_rarely_draw(self):
        empty = CDCChunk("a", 0, PermutationDiff(0, (), ()), (), (), EpochLine({}), ())
        single = CDCChunk(
            "b", 1, PermutationDiff(1, (0,), (-1,)), (0,), ((0, 3),),
            EpochLine({2: 9}), ((2, 1),), (), ((2, 4),), (2,),
        )
        paper = dataclasses.replace(
            single, sender_min_clocks=((2, 9),), sender_sequence=None
        )
        for chunk_list in ([], [empty], [single], [paper], [empty, single, paper]):
            data = serialize_cdc_chunks(chunk_list)
            assert data == serialize_cdc_chunks_oracle(chunk_list)
            assert assert_same_outcome(data) == chunk_list

    def test_negative_in_an_unsigned_column_raises_like_the_oracle(self):
        bad = CDCChunk(
            "a", 1, PermutationDiff(1, (), ()), (), ((0, -2),), EpochLine({}), ()
        )
        for serializer in (serialize_cdc_chunks, serialize_cdc_chunks_oracle):
            with pytest.raises(ValueError, match="uvarint requires value >= 0"):
                serializer([bad])


# -- differential: hostile bytes ------------------------------------------------------


class TestHostileBytes:
    # an example is a few hundred inputs: a quarter of the profile's count
    @settings(unhurried, max_examples=settings.default.max_examples // 4)
    @given(chunk_lists(huge, max_size=2))
    def test_truncation_at_every_offset(self, chunk_list):
        data = serialize_cdc_chunks(chunk_list)
        for cut in range(len(data)):
            assert_same_outcome(data[:cut])

    @unhurried
    @given(chunk_lists(huge), st.data())
    def test_bit_flips(self, chunk_list, draw):
        data = bytearray(serialize_cdc_chunks(chunk_list))
        for _ in range(draw.draw(st.integers(1, 4))):
            data[draw.draw(st.integers(0, len(data) - 1))] ^= 1 << draw.draw(
                st.integers(0, 7)
            )
        assert_same_outcome(bytes(data))

    @unhurried
    @given(chunk_lists(), chunk_lists(huge), st.data())
    def test_spliced_payloads(self, first, second, draw):
        a, b = serialize_cdc_chunks(first), serialize_cdc_chunks(second)
        cut_a = draw.draw(st.integers(0, len(a)))
        cut_b = draw.draw(st.integers(0, len(b)))
        assert_same_outcome(a[:cut_a] + b[cut_b:])

    @unhurried
    @given(chunk_lists(), st.data())
    def test_inflated_value(self, chunk_list, draw):
        """Any varint — chunk count, callsite id, a length prefix — swapped
        for one up to 2**62: refused, and never sized an allocation."""
        data = serialize_cdc_chunks(chunk_list)
        start, end = draw.draw(st.sampled_from(value_spans(data)))
        inflated = bytearray()
        encode_uvarint(draw.draw(st.integers(2**20, 2**62)), inflated)
        assert_same_outcome(data[:start] + bytes(inflated) + data[end:])

    @unhurried
    @given(chunks())
    def test_flipped_layout_bit(self, chunk):
        """The header's low bit picks the layout. Set on a paper-exact
        chunk, three columns are read as others and the sender column is
        whatever comes next; cleared on an assist chunk, three columns are
        missing and the sender column is left over. Whatever comes out,
        comes out of both decoders."""
        data = bytearray(serialize_cdc_chunks([chunk]))
        head = value_spans(bytes(data))[1][0]
        assert data[head] & 1 == (chunk.sender_sequence is not None)
        data[head] ^= 1
        assert_same_outcome(bytes(data))

    @unhurried
    @given(
        chunks().filter(lambda c: c.sender_sequence),
        st.sampled_from([
            ("no sender column", "column truncated"),
            ("one sender fewer", "senders .* for .* events"),
            ("one event more", "senders .* for .* events"),
            ("one ceiling more", "distinct.* under .* epoch ceilings"),
            ("one ceiling fewer", "distinct.* under .* epoch ceilings"),
        ]),
    )
    def test_assist_columns_that_contradict_the_sender_column(self, chunk, case):
        """An assist chunk's epoch ranks, counts and event count are read
        off its sender column: a header bit with no such column behind it,
        a ceiling column of another length, or a sender column that is not
        ``num_events`` long, is refused."""
        damage, message = case

        def edit(values):
            steps, senders = values[7], values[-1]
            if damage == "no sender column":
                del values[-1]
            elif damage == "one sender fewer":
                del senders[0]
            elif damage == "one event more":
                values[1] += 1
            elif damage == "one ceiling more":
                steps.append(2)
            else:
                del steps[-1]

        data = assist_payload(chunk, edit)
        assert assert_same_outcome(data) is RecordFormatError
        with pytest.raises(RecordFormatError, match=message):
            deserialize_cdc_chunks(data)

    @unhurried
    @given(chunk_lists(huge), st.sampled_from([b"\x80", b"\xff\xff", b"\x81" * 12]))
    def test_trailing_partial_varint_is_ignored(self, chunk_list, tail):
        data = serialize_cdc_chunks(chunk_list)
        assert assert_same_outcome(data + tail) == chunk_list

    @unhurried
    @given(st.binary(max_size=80))
    def test_arbitrary_bytes_behind_the_magic(self, body):
        assert_same_outcome(CDC_MAGIC + body)

    def test_string_table_that_is_not_utf8(self):
        data = bytearray(CDC_MAGIC)
        _write_string_table(data, ["ab"])
        data[-1] = 0xFF
        assert assert_same_outcome(bytes(data) + b"\x00") is RecordFormatError
