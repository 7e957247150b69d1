"""Archive inspection statistics."""

from repro.analysis.inspector import (
    chunk_stats,
    iter_chunk_stats,
    profile_callsites,
)
from repro.core.events import ReceiveEvent
from repro.core.metrics import matched_events, permutation_percentage
from tests.core.test_pipeline import encode_chunk
from repro.core.record_table import RecordTable


def make_chunk(events, with_next=(), unmatched=(), callsite="cs", assist=True):
    table = RecordTable(callsite, tuple(events), tuple(with_next), tuple(unmatched))
    return encode_chunk(table, replay_assist=assist)


class TestChunkStats:
    def test_counts(self):
        chunk = make_chunk(
            [ReceiveEvent(0, 5), ReceiveEvent(1, 3), ReceiveEvent(0, 9)],
            with_next=(0,),
            unmatched=((1, 4),),
        )
        stats = chunk_stats(2, 0, chunk)
        assert stats.events == 3
        assert stats.with_next_entries == 1
        assert stats.unmatched_runs == 1
        assert stats.unmatched_tests == 4
        assert stats.senders == 2
        assert stats.has_assist

    def test_permutation_percentage(self):
        ordered = make_chunk([ReceiveEvent(0, c) for c in (1, 2, 3)])
        assert chunk_stats(0, 0, ordered).permutation_percentage == 0.0

    def test_empty_chunk(self):
        chunk = make_chunk([], unmatched=((0, 2),))
        stats = chunk_stats(0, 0, chunk)
        assert stats.permutation_percentage == 0.0
        assert stats.unmatched_tests == 2


class TestArchiveIteration:
    def test_iter_covers_all_chunks(self, mcb_record):
        _, _, result = mcb_record
        stats = list(iter_chunk_stats(result.archive))
        assert sum(s.events for s in stats) == result.archive.total_events()

    def test_profiles_aggregate_by_callsite(self, mcb_record):
        _, _, result = mcb_record
        profiles = profile_callsites(result.archive)
        names = [p.callsite for p in profiles]
        assert "mcb:particles" in names
        assert names == sorted(names, key=lambda n: -next(
            p.events for p in profiles if p.callsite == n
        ))
        particles = next(p for p in profiles if p.callsite == "mcb:particles")
        assert particles.ranks == result.nprocs
        # the record stores the replay-assist column, so a chunk's diff is
        # against that column: only one sender's messages observed out of
        # clock order would move, and FIFO channels deliver none that way
        # (DESIGN.md §5.9). Figure 14's clock-order disorder is read from
        # the outcomes instead.
        assert particles.permutation_percentage == 0.0
        disorder = [
            permutation_percentage(matched_events(result.outcomes[r]))
            for r in range(result.nprocs)
        ]
        assert all(0.0 <= d < 1.0 for d in disorder) and max(disorder) > 0.0
        assert particles.polling_ratio > 0.0
