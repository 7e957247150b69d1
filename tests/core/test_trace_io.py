"""Portable trace interchange format."""

import io

import pytest

from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.core.trace_io import dump_trace, load_trace, read_trace, save_trace
from repro.errors import RecordFormatError


def trace_to_string(outcomes_by_rank) -> str:
    """In-memory :func:`dump_trace`."""
    buf = io.StringIO()
    dump_trace(outcomes_by_rank, buf)
    return buf.getvalue()


@pytest.fixture
def sample():
    return {
        0: [
            MFOutcome("a", MFKind.TESTSOME, (ReceiveEvent(1, 5), ReceiveEvent(2, 5))),
            MFOutcome("a", MFKind.TEST, ()),
        ],
        1: [MFOutcome("b", MFKind.WAITANY, (ReceiveEvent(0, 3),))],
    }


class TestRoundTrip:
    def test_in_memory(self, sample):
        text = trace_to_string(sample)
        loaded = load_trace(io.StringIO(text))
        assert loaded == sample

    def test_file_roundtrip(self, sample, tmp_path):
        path = str(tmp_path / "sub" / "trace.jsonl")
        lines = save_trace(sample, path)
        assert lines == 3
        assert read_trace(path) == sample

    def test_empty_trace(self):
        loaded = load_trace(io.StringIO(trace_to_string({})))
        assert loaded == {}

    def test_rank_without_outcomes_preserved(self, sample):
        sample[2] = []
        loaded = load_trace(io.StringIO(trace_to_string(sample)))
        assert loaded[2] == []


class TestValidation:
    def test_empty_file_rejected(self):
        with pytest.raises(RecordFormatError):
            load_trace(io.StringIO(""))

    def test_wrong_format_rejected(self):
        with pytest.raises(RecordFormatError):
            load_trace(io.StringIO('{"format": "other", "version": 1}\n'))

    def test_wrong_version_rejected(self):
        with pytest.raises(RecordFormatError):
            load_trace(io.StringIO('{"format": "cdc-trace", "version": 99}\n'))

    def test_bad_line_reported_with_number(self, sample):
        text = trace_to_string(sample) + "{broken\n"
        with pytest.raises(RecordFormatError, match="line 5"):
            load_trace(io.StringIO(text))

    def test_non_json_header_rejected(self):
        with pytest.raises(RecordFormatError):
            load_trace(io.StringIO("garbage\n"))

    def test_rank_beyond_header_nprocs_rejected(self):
        """A record whose rank >= nprocs must not silently extend the dict."""
        text = (
            '{"format": "cdc-trace", "version": 1, "nprocs": 2}\n'
            '{"rank": 5, "callsite": "a", "kind": "test", "matched": []}\n'
        )
        with pytest.raises(RecordFormatError, match="rank 5 out of range"):
            load_trace(io.StringIO(text))

    def test_negative_rank_rejected(self):
        text = (
            '{"format": "cdc-trace", "version": 1, "nprocs": 2}\n'
            '{"rank": -1, "callsite": "a", "kind": "test", "matched": []}\n'
        )
        with pytest.raises(RecordFormatError, match="out of range"):
            load_trace(io.StringIO(text))


class TestInterop:
    def test_trace_feeds_compression_pipeline(self, sample):
        """Loaded traces slot straight into the Figure 13 comparison."""
        from repro.core import compare_methods

        loaded = load_trace(io.StringIO(trace_to_string(sample)))
        report = compare_methods(loaded[0])
        assert report.num_receive_events == 2

    def test_recorded_run_exports(self, mcb_record, tmp_path):
        _, _, result = mcb_record
        path = str(tmp_path / "mcb.jsonl")
        save_trace(result.outcomes, path)
        loaded = read_trace(path)
        assert loaded == result.outcomes
