"""Moved to :mod:`repro.replay.durable_store`; this name stays importable."""

from repro.replay.durable_store import RecordArchive, bytes_per_event, summarize

__all__ = ["RecordArchive", "bytes_per_event", "summarize"]
