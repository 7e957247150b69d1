"""Columnar record buffers — the one way a chunk is built and encoded.

The ``(sender rank, piggybacked clock)`` identifier columns live in
preallocated int64 numpy arrays from the moment an MF outcome is observed:

* :class:`ColumnarTableBuilder` appends into grow-by-doubling arrays (the
  backing capacity survives flushes, so a steady-state rank allocates
  nothing per chunk);
* :class:`ColumnarTable` is the sealed chunk — two contiguous arrays plus
  the Figure 6 with_next / unmatched side tables
  (:meth:`ColumnarTable.to_record_table` hands out the object form);
* :func:`encode_table` CDC-encodes the arrays directly: no object
  iteration, a vectorized epoch line, and an identity-permutation
  short-circuit for chunks already in their reference order — every assist
  chunk of the shipped workloads, and the near-sorted chunks that dominate
  hidden-deterministic ones (Figure 17).

A clock and a rank are int64 values under ``kernels.VALUE_LIMIT`` (2**60,
DESIGN.md §5.12): the builder and the encoder raise
:class:`~repro.errors.EncodingError` on one that is not, so no frame holding
it is written. The object-at-a-time builder and encoder this module replaced
are test references now (``tests/core/oracles.py``); ``tests/core`` holds the
two equal, field for field and byte for byte.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.epoch import EpochLine
from repro.core.events import MFOutcome, ReceiveEvent
from repro.core.kernels import VALUE_LIMIT
from repro.core.pipeline import CDCChunk
from repro.core.permutation import PermutationDiff, encode_permutation
from repro.core.record_table import RecordTable
from repro.errors import DecodingError, EncodingError
from repro.obs import get_registry, span

__all__ = [
    "ColumnarTable",
    "ColumnarTableBuilder",
    "GrowColumn",
    "build_columnar_tables",
    "encode_table",
]

#: starting capacity of a builder's backing arrays (doubles as needed).
_INITIAL_CAPACITY = 256


class GrowColumn:
    """One append-only numpy column with grow-by-doubling backing storage.

    The storage discipline :class:`ColumnarTableBuilder` uses for its
    identifier columns, packaged as a standalone primitive for other
    columnar capture paths (the causal flow recorder appends five of these
    per run instead of one dataclass per event). Appends are amortized
    O(1); :attr:`values` is a zero-copy view of the filled prefix, so a
    consumer can run vectorized passes without a materialization step.
    """

    __slots__ = ("_data", "_count")

    def __init__(self, dtype=np.int64, capacity: int = _INITIAL_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._data = np.empty(capacity, dtype=dtype)
        self._count = 0

    def append(self, value) -> None:
        n = self._count
        data = self._data
        if n == data.shape[0]:
            data = self._grow(n + 1)
        data[n] = value
        self._count = n + 1

    def extend(self, values: Sequence) -> None:
        n = self._count
        end = n + len(values)
        data = self._data
        if end > data.shape[0]:
            data = self._grow(end)
        data[n:end] = values
        self._count = end

    def _grow(self, need: int) -> np.ndarray:
        capacity = self._data.shape[0]
        while capacity < need:
            capacity *= 2
        new = np.empty(capacity, dtype=self._data.dtype)
        new[: self._count] = self._data[: self._count]
        self._data = new
        return new

    def __len__(self) -> int:
        return self._count

    @property
    def values(self) -> np.ndarray:
        """Zero-copy view of the filled prefix (invalidated by growth)."""
        return self._data[: self._count]

    def array(self) -> np.ndarray:
        """Detached copy of the filled prefix (safe across further appends)."""
        return self._data[: self._count].copy()

    def clear(self) -> None:
        """Reset to empty; backing capacity is kept (steady-state reuse)."""
        self._count = 0


class ColumnarTable:
    """One sealed chunk of a callsite's matched receives, as columns.

    ``ranks[i]`` / ``clocks[i]`` identify the i-th matched receive in
    observed (delivery) order — the same information as
    ``RecordTable.matched`` without the per-event objects. The side tables
    carry the Figure 6 with_next / unmatched structure unchanged.
    """

    __slots__ = ("callsite", "ranks", "clocks", "with_next_indices", "unmatched_runs")

    def __init__(
        self,
        callsite: str,
        ranks: np.ndarray,
        clocks: np.ndarray,
        with_next_indices: tuple[int, ...] = (),
        unmatched_runs: tuple[tuple[int, int], ...] = (),
    ) -> None:
        if ranks.shape != clocks.shape:
            raise ValueError("rank and clock columns must have equal length")
        self.callsite = callsite
        self.ranks = ranks
        self.clocks = clocks
        self.with_next_indices = with_next_indices
        self.unmatched_runs = unmatched_runs

    @property
    def num_events(self) -> int:
        return int(self.ranks.shape[0])

    def to_record_table(self) -> RecordTable:
        """Materialize the equivalent object table (tests, diagnostics)."""
        return RecordTable(
            self.callsite,
            tuple(
                ReceiveEvent(r, c)
                for r, c in zip(self.ranks.tolist(), self.clocks.tolist())
            ),
            self.with_next_indices,
            self.unmatched_runs,
        )


class ColumnarTableBuilder:
    """Streaming builder: MF outcomes in, :class:`ColumnarTable` chunks out
    (``add`` / ``flush`` / ``num_events`` / ``dirty``); the flushed chunks
    feed :func:`encode_table`."""

    __slots__ = (
        "callsite",
        "_ranks",
        "_clocks",
        "_count",
        "with_next_indices",
        "unmatched_runs",
        "_pending_unmatched",
    )

    def __init__(self, callsite: str, capacity: int = _INITIAL_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.callsite = callsite
        self._ranks = np.empty(capacity, dtype=np.int64)
        self._clocks = np.empty(capacity, dtype=np.int64)
        self._count = 0
        self.with_next_indices: list[int] = []
        self.unmatched_runs: list[tuple[int, int]] = []
        self._pending_unmatched = 0

    def add(self, outcome: MFOutcome) -> None:
        """Record one MF call outcome."""
        if outcome.callsite != self.callsite:
            raise ValueError(
                f"outcome for callsite {outcome.callsite!r} fed to builder "
                f"for {self.callsite!r}"
            )
        events = outcome.matched
        if not events:
            self._pending_unmatched += 1
            return
        n = self._count
        if self._pending_unmatched:
            self.unmatched_runs.append((n, self._pending_unmatched))
            self._pending_unmatched = 0
        end = n + len(events)
        if end > self._ranks.shape[0]:
            self._grow(end)
        ranks = self._ranks
        clocks = self._clocks
        try:
            if len(events) == 1:  # the overwhelmingly common case
                ev = events[0]
                ranks[n] = ev.rank
                clocks[n] = ev.clock
                self._count = end
                return
            self.with_next_indices.extend(range(n, end - 1))
            for ev in events:
                ranks[n] = ev.rank
                clocks[n] = ev.clock
                n += 1
        except OverflowError:  # no int64: past the limit encode_table holds the rest to
            raise _past_limit(self.callsite, ev.rank, ev.clock) from None
        self._count = end

    def _grow(self, need: int) -> None:
        capacity = self._ranks.shape[0]
        while capacity < need:
            capacity *= 2
        for name in ("_ranks", "_clocks"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=np.int64)
            new[: self._count] = old[: self._count]
            setattr(self, name, new)

    @property
    def num_events(self) -> int:
        return self._count

    @property
    def dirty(self) -> bool:
        """True if the builder holds unflushed events."""
        return bool(self._count or self._pending_unmatched)

    def flush(self) -> ColumnarTable:
        """Seal the current chunk and reset the builder (capacity kept)."""
        if self._pending_unmatched:
            self.unmatched_runs.append((self._count, self._pending_unmatched))
            self._pending_unmatched = 0
        table = ColumnarTable(
            self.callsite,
            self._ranks[: self._count].copy(),
            self._clocks[: self._count].copy(),
            tuple(self.with_next_indices),
            tuple(self.unmatched_runs),
        )
        self._count = 0
        self.with_next_indices.clear()
        self.unmatched_runs.clear()
        return table


def _past_limit(callsite: str, rank: int, clock: int) -> EncodingError:
    return EncodingError(
        f"callsite {callsite!r}: the receive from rank {rank} at clock {clock} is at or "
        f"past the format's limit of 2**60"
    )


def build_columnar_tables(
    outcomes: Sequence[MFOutcome], chunk_events: int | None = None
) -> dict[str, list[ColumnarTable]]:
    """Group an outcome stream by callsite and build chunked tables (the
    offline form of what :mod:`repro.replay.recorder` does per rank)."""
    builders: dict[str, ColumnarTableBuilder] = {}
    chunks: dict[str, list[ColumnarTable]] = {}
    for outcome in outcomes:
        builder = builders.get(outcome.callsite)
        if builder is None:
            builder = builders[outcome.callsite] = ColumnarTableBuilder(
                outcome.callsite
            )
            chunks[outcome.callsite] = []
        builder.add(outcome)
        if chunk_events is not None and builder.num_events >= chunk_events:
            chunks[outcome.callsite].append(builder.flush())
    for callsite, builder in builders.items():
        if builder.dirty:
            chunks[callsite].append(builder.flush())
    return chunks


def encode_table(
    table: ColumnarTable,
    replay_assist: bool = False,
    prior_ceilings: Mapping[int, int] | None = None,
) -> CDCChunk:
    """CDC-encode one chunk.

    ``replay_assist=True`` additionally stores the observed-order sender
    column, enabling deterministic online replay (DESIGN.md §5.6); the
    default reproduces the paper's format exactly.

    ``prior_ceilings`` maps sender rank to the highest clock recorded for
    it in *earlier* chunks of the same callsite; events at or below their
    sender's prior ceiling become boundary exceptions (see CDCChunk).

    A rank or clock at or past ``kernels.VALUE_LIMIT`` in magnitude is an
    :class:`~repro.errors.EncodingError`. Two array-level fast paths:

    * **already in reference order**: with the assist column, every
      sender's clocks ascend along one stable argsort by sender (always,
      over FIFO channels, unless the application observed one sender out of
      order — Figure 3); without it, the observed ``(clock, rank)`` keys
      ascend strictly (the dominant case for hidden-deterministic streams,
      Figure 17). The diff is empty by definition and the second sort, the
      inverse permutation and the LIS are all skipped;
    * the epoch line falls out of a single scatter over the sorted columns
      instead of a per-event dict pass.
    """
    ranks, clocks = table.ranks, table.clocks
    n = int(ranks.shape[0])
    with span("cdc.encode_chunk", callsite=table.callsite, events=n):
        diff = PermutationDiff(n, (), ())
        epoch, sender_counts, sender_min_clocks, exceptions = EpochLine({}), (), (), ()
        if n:
            # The reference order the diff is against: the sender column when
            # it is stored (DESIGN.md §5.9), Definition 6's otherwise.
            # ``order`` stays None while the observed order already is it.
            order = None
            sorted_ranks, sorted_clocks = ranks, clocks
            if replay_assist:
                slots = np.argsort(ranks, kind="stable")
                sorted_ranks, sorted_clocks = ranks[slots], clocks[slots]
                descent = sorted_clocks[1:] <= sorted_clocks[:-1]
                if bool((descent & (sorted_ranks[1:] == sorted_ranks[:-1])).any()):
                    order = np.lexsort((clocks, ranks))  # Figure 3: rare
            elif not bool(
                (
                    (clocks[1:] > clocks[:-1])
                    | ((clocks[1:] == clocks[:-1]) & (ranks[1:] > ranks[:-1]))
                ).all()
            ):
                order = np.lexsort((ranks, clocks))  # Definition 6
                slots = np.arange(n, dtype=np.intp)
            if order is not None:
                sorted_ranks, sorted_clocks = ranks[order], clocks[order]
                repeat = sorted_clocks[1:] == sorted_clocks[:-1]
                if bool((repeat & (sorted_ranks[1:] == sorted_ranks[:-1])).any()):
                    raise DecodingError("reference keys are not unique")
                # observed position p holds the event of reference slot inv[p]
                inv = np.empty(n, dtype=np.intp)
                inv[order] = slots
                diff = encode_permutation(inv.tolist(), validated=True)
            # per-sender stats over dense rank-indexed arrays: sender ranks
            # are small ints (≤ nprocs), so bincount + O(n) scatters beat
            # np.unique's sort. Each sender's clocks ascend along the sorted
            # columns — the last write per sender is its max clock, and over
            # the reversed arrays its min (which an assist chunk does not
            # store). Huge rank values fall back to np.unique.
            max_rank = int(ranks.max())
            min_rank = int(ranks.min())
            if min_rank >= 0 and max_rank <= 4 * n + 1024:
                counts_dense = np.bincount(sorted_ranks, minlength=max_rank + 1)
                uniq = np.flatnonzero(counts_dense)
                rank_counts = counts_dense[uniq]
                stat = np.empty(max_rank + 1, dtype=np.int64)
                if not replay_assist:
                    stat[sorted_ranks[::-1]] = sorted_clocks[::-1]
                    min_by_rank = stat[uniq].tolist()
                stat[sorted_ranks] = sorted_clocks
                max_by_rank = stat[uniq].tolist()
            else:
                uniq, first_idx, rank_counts = np.unique(
                    sorted_ranks, return_index=True, return_counts=True
                )
                min_by_rank = sorted_clocks[first_idx].tolist()
                maxc = np.empty(uniq.shape[0], dtype=np.int64)
                maxc[uniq.searchsorted(sorted_ranks)] = sorted_clocks
                max_by_rank = maxc.tolist()
            # the format's value budget, read off what is computed anyway (a
            # clock is not negative; one that were is not stored, or refused
            # where it would be: ``varint.stream_to_unsigned``)
            if max(max_rank, -min_rank, *max_by_rank) >= VALUE_LIMIT:
                fits = (-VALUE_LIMIT < ranks) & (ranks < VALUE_LIMIT) & (clocks < VALUE_LIMIT)
                first = int(fits.argmin())
                raise _past_limit(table.callsite, int(ranks[first]), int(clocks[first]))
            uniq_list = uniq.tolist()
            sender_counts = tuple(zip(uniq_list, rank_counts.tolist()))
            if not replay_assist:
                sender_min_clocks = tuple(zip(uniq_list, min_by_rank))
            epoch = EpochLine(dict(zip(uniq_list, max_by_rank)))
            if prior_ceilings:
                ceil = np.fromiter(
                    (prior_ceilings.get(r, -1) for r in uniq_list),
                    np.int64,
                    count=len(uniq_list),
                )
                over = clocks <= ceil[uniq.searchsorted(ranks)]
                if bool(over.any()):
                    exceptions = tuple(
                        sorted(zip(ranks[over].tolist(), clocks[over].tolist()))
                    )
        chunk = CDCChunk(
            callsite=table.callsite,
            num_events=n,
            diff=diff,
            with_next_indices=table.with_next_indices,
            unmatched_runs=table.unmatched_runs,
            epoch=epoch,
            sender_counts=sender_counts,
            sender_min_clocks=sender_min_clocks,
            boundary_exceptions=exceptions,
            sender_sequence=tuple(ranks.tolist()) if replay_assist else None,
        )
    registry = get_registry()
    if registry.enabled:
        registry.counter("encode.chunks").add()
        registry.counter("encode.events").add(n)
        registry.counter("encode.moved_events").add(chunk.diff.num_moved)
    return chunk
