"""Moved to :mod:`repro.replay.durable_store`. ``bench/phases.py`` is the
only importer left; the shim goes when it switches (ROADMAP item 1a)."""

from repro.replay.durable_store import RecordArchive, bytes_per_event, summarize

__all__ = ["RecordArchive", "bytes_per_event", "summarize"]
