"""Reference implementations the CDC frame path is checked against.

These are *oracles*: the per-column serializer, deserializer and size
walk that used to be the production path, bodies verbatim, kept only so
tests can assert the one-stream replacements give the same bytes, the
same chunks and the same errors. They live under ``tests/`` on purpose —
nothing on the import path may call them. So that they share no kernel
with what they check, every helper name the bodies call is bound here to
the *scalar* reference implementation (one Python step per byte).
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.size_model import SizeBreakdown
from repro.core.epoch import EpochLine
from repro.core.formats import (
    CDC_MAGIC,
    _read_string_table,
    _write_string_table,
)
from repro.core.lp_encoding import lp_decode as lp_decode_auto
from repro.core.lp_encoding import lp_encode as lp_encode_auto
from repro.core.permutation import PermutationDiff
from repro.core.pipeline import CDCChunk
from repro.core.varint import decode_svarint_array_scalar as decode_svarint_array
from repro.core.varint import decode_uvarint
from repro.core.varint import decode_uvarint_array_scalar as decode_uvarint_array
from repro.core.varint import encode_svarint_array_scalar as encode_svarint_array
from repro.core.varint import encode_uvarint
from repro.core.varint import encode_uvarint_array_scalar as encode_uvarint_array
from repro.core.varint import svarint_size, uvarint_size
from repro.errors import RecordFormatError
from repro.obs import get_registry

decode_svarint_array_np = decode_svarint_array

_CDC_TABLE_COUNTERS = (
    "permutation",
    "with_next",
    "unmatched",
    "epoch",
    "exceptions",
    "assist",
)


def _as_list(column) -> list[int]:
    return column


def array_payload_size(values: Sequence[int], signed: bool) -> int:
    size = svarint_size if signed else uvarint_size
    return uvarint_size(len(values)) + sum(size(v) for v in values)


def serialize_cdc_chunks_oracle(chunks: Sequence[CDCChunk]) -> bytes:
    """Serialize fully-encoded CDC chunks (LP-encoded index columns)."""
    registry = get_registry()
    track = registry.enabled
    table_bytes = dict.fromkeys(_CDC_TABLE_COUNTERS, 0) if track else None
    out = bytearray(CDC_MAGIC)
    callsites = sorted({c.callsite for c in chunks})
    _write_string_table(out, callsites)
    cs_id = {c: i for i, c in enumerate(callsites)}
    encode_uvarint(len(chunks), out)
    for chunk in chunks:
        encode_uvarint(cs_id[chunk.callsite], out)
        encode_uvarint(chunk.num_events, out)
        mark = len(out)
        out += encode_svarint_array(lp_encode_auto(chunk.diff.indices))
        out += encode_svarint_array(chunk.diff.delays)
        if track:
            table_bytes["permutation"] += len(out) - mark
            mark = len(out)
        out += encode_svarint_array(lp_encode_auto(chunk.with_next_indices))
        if track:
            table_bytes["with_next"] += len(out) - mark
            mark = len(out)
        out += encode_svarint_array(lp_encode_auto([i for i, _ in chunk.unmatched_runs]))
        out += encode_uvarint_array([c for _, c in chunk.unmatched_runs])
        if track:
            table_bytes["unmatched"] += len(out) - mark
            mark = len(out)
        pairs = chunk.epoch.as_sorted_pairs()
        counts_by_rank = dict(chunk.sender_counts)
        mins_by_rank = dict(chunk.sender_min_clocks)
        ranks = [r for r, _ in pairs]
        if sorted(counts_by_rank) != ranks or sorted(mins_by_rank) != ranks:
            raise RecordFormatError("epoch / count / min-clock ranks disagree")
        out += encode_svarint_array(lp_encode_auto(ranks))
        out += encode_svarint_array([c for _, c in pairs])
        out += encode_uvarint_array([counts_by_rank[r] for r in ranks])
        # first clock per sender, stored as the (>= 0) gap below the epoch
        # ceiling — zero for single-receive senders, tiny after varints.
        out += encode_uvarint_array(
            [clock - mins_by_rank[r] for r, clock in pairs]
        )
        if track:
            table_bytes["epoch"] += len(out) - mark
            mark = len(out)
        # boundary exceptions (DESIGN.md §5.2): usually both arrays empty
        out += encode_uvarint_array([r for r, _ in chunk.boundary_exceptions])
        out += encode_svarint_array([c for _, c in chunk.boundary_exceptions])
        if track:
            table_bytes["exceptions"] += len(out) - mark
            mark = len(out)
        # optional replay-assist sender column (DESIGN.md §5.6)
        if chunk.sender_sequence is None:
            out.append(0)
        else:
            out.append(1)
            out += encode_uvarint_array(chunk.sender_sequence)
        if track:
            table_bytes["assist"] += len(out) - mark
    if track:
        registry.counter("format.cdc.serialize_calls").add()
        registry.counter("format.cdc.chunks_out").add(len(chunks))
        registry.counter("format.cdc.bytes_out").add(len(out))
        for table, n in table_bytes.items():
            registry.counter(f"format.cdc.{table}_bytes").add(n)
    return bytes(out)



def deserialize_cdc_chunks_oracle(data: bytes) -> list[CDCChunk]:
    if data[:4] != CDC_MAGIC:
        raise RecordFormatError("bad CDC-record magic")
    callsites, offset = _read_string_table(data, 4)
    n, offset = decode_uvarint(data, offset)
    chunks: list[CDCChunk] = []
    for _ in range(n):
        cs, offset = decode_uvarint(data, offset)
        if cs >= len(callsites):
            raise RecordFormatError(f"callsite id {cs} out of range")
        num_events, offset = decode_uvarint(data, offset)
        p_idx_lp, offset = decode_svarint_array_np(data, offset)
        p_delay, offset = decode_svarint_array(data, offset)
        w_idx_lp, offset = decode_svarint_array_np(data, offset)
        u_idx_lp, offset = decode_svarint_array_np(data, offset)
        u_cnt, offset = decode_uvarint_array(data, offset)
        e_rank_lp, offset = decode_svarint_array_np(data, offset)
        e_clock, offset = decode_svarint_array(data, offset)
        e_count, offset = decode_uvarint_array(data, offset)
        e_min_gap, offset = decode_uvarint_array(data, offset)
        x_rank, offset = decode_uvarint_array(data, offset)
        x_clock, offset = decode_svarint_array(data, offset)
        if len(x_rank) != len(x_clock):
            raise RecordFormatError("boundary-exception columns disagree")
        if offset >= len(data):
            raise RecordFormatError("chunk truncated before assist flag")
        assist_flag = data[offset]
        offset += 1
        sender_sequence: tuple[int, ...] | None = None
        if assist_flag == 1:
            seq, offset = decode_uvarint_array(data, offset)
            sender_sequence = tuple(seq)
        elif assist_flag != 0:
            raise RecordFormatError(f"bad assist flag {assist_flag}")
        p_idx = _as_list(lp_decode_auto(p_idx_lp))
        if len(p_idx) != len(p_delay):
            raise RecordFormatError("permutation columns disagree")
        u_idx = _as_list(lp_decode_auto(u_idx_lp))
        if len(u_idx) != len(u_cnt):
            raise RecordFormatError("unmatched columns disagree")
        e_rank = _as_list(lp_decode_auto(e_rank_lp))
        if not (len(e_rank) == len(e_clock) == len(e_count) == len(e_min_gap)):
            raise RecordFormatError("epoch columns disagree")
        chunks.append(
            CDCChunk(
                callsite=callsites[cs],
                num_events=num_events,
                diff=PermutationDiff(num_events, tuple(p_idx), tuple(p_delay)),
                with_next_indices=tuple(_as_list(lp_decode_auto(w_idx_lp))),
                unmatched_runs=tuple(zip(u_idx, u_cnt)),
                epoch=EpochLine(dict(zip(e_rank, e_clock))),
                sender_counts=tuple(zip(e_rank, e_count)),
                sender_min_clocks=tuple(
                    (r, c - g) for r, c, g in zip(e_rank, e_clock, e_min_gap)
                ),
                boundary_exceptions=tuple(zip(x_rank, x_clock)),
                sender_sequence=sender_sequence,
            )
        )
    return chunks



def chunk_breakdown_oracle(chunk: CDCChunk, callsite_id: int = 0) -> SizeBreakdown:
    """Exact serialized byte counts of one chunk's tables.

    Mirrors the layout of :func:`repro.core.formats.serialize_cdc_chunks`
    (per-chunk part; the file-level magic and string table are accounted
    separately by :func:`archive_breakdown`).
    """
    b = SizeBreakdown(chunks=1, events=chunk.num_events)
    b.header = uvarint_size(callsite_id) + uvarint_size(chunk.num_events)
    b.permutation = array_payload_size(
        lp_encode_auto(chunk.diff.indices), signed=True
    ) + array_payload_size(chunk.diff.delays, signed=True)
    b.with_next = array_payload_size(
        lp_encode_auto(chunk.with_next_indices), signed=True
    )
    u_idx = [i for i, _ in chunk.unmatched_runs]
    u_cnt = [c for _, c in chunk.unmatched_runs]
    b.unmatched = array_payload_size(
        lp_encode_auto(u_idx), signed=True
    ) + array_payload_size(u_cnt, signed=False)
    pairs = chunk.epoch.as_sorted_pairs()
    counts = dict(chunk.sender_counts)
    mins = dict(chunk.sender_min_clocks)
    ranks = [r for r, _ in pairs]
    b.epoch = (
        array_payload_size(lp_encode_auto(ranks), signed=True)
        + array_payload_size([c for _, c in pairs], signed=True)
        + array_payload_size([counts[r] for r in ranks], signed=False)
        + array_payload_size([c - mins[r] for r, c in pairs], signed=False)
    )
    b.exceptions = array_payload_size(
        [r for r, _ in chunk.boundary_exceptions], signed=False
    ) + array_payload_size([c for _, c in chunk.boundary_exceptions], signed=True)
    b.assist = 1  # the presence flag byte
    if chunk.sender_sequence is not None:
        b.assist += array_payload_size(chunk.sender_sequence, signed=False)
    return b
