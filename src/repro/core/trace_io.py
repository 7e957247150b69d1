"""Portable raw-trace I/O: JSON-lines MF outcome streams.

The binary formats of :mod:`repro.core.formats` are the *storage* formats;
this module provides an interchange format so traces can be produced or
consumed outside this library (e.g. converted from a PMPI tool's logs on a
real cluster, or inspected with standard text tooling):

one JSON object per line::

    {"rank": 0, "callsite": "poll", "kind": "testsome",
     "matched": [[1, 42], [3, 42]]}

``matched`` lists ``[sender rank, piggybacked clock]`` pairs in delivery
order; an empty list is an unmatched test. A leading header line carries
the process count and format version.
"""

from __future__ import annotations

import json
import os
from typing import Mapping, Sequence, TextIO

from repro.core.events import MFKind, MFOutcome, ReceiveEvent
from repro.errors import RecordFormatError

FORMAT_NAME = "cdc-trace"
FORMAT_VERSION = 1


def dump_trace(
    outcomes_by_rank: Mapping[int, Sequence[MFOutcome]], fh: TextIO
) -> int:
    """Write a trace; returns the number of outcome lines written."""
    nprocs = (max(outcomes_by_rank) + 1) if outcomes_by_rank else 0
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "nprocs": nprocs}
    fh.write(json.dumps(header) + "\n")
    lines = 0
    for rank in sorted(outcomes_by_rank):
        for outcome in outcomes_by_rank[rank]:
            record = {
                "rank": rank,
                "callsite": outcome.callsite,
                "kind": outcome.kind.value,
                "matched": [[e.rank, e.clock] for e in outcome.matched],
            }
            fh.write(json.dumps(record) + "\n")
            lines += 1
    return lines


def load_trace(fh: TextIO) -> dict[int, list[MFOutcome]]:
    """Read a trace written by :func:`dump_trace` (order preserved)."""
    header_line = fh.readline()
    if not header_line:
        raise RecordFormatError("empty trace file")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise RecordFormatError(f"bad trace header: {exc}") from exc
    if header.get("format") != FORMAT_NAME:
        raise RecordFormatError(f"not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise RecordFormatError(f"unsupported trace version {header.get('version')}")
    nprocs = int(header.get("nprocs", 0))
    outcomes: dict[int, list[MFOutcome]] = {r: [] for r in range(nprocs)}
    for lineno, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            rank = int(record["rank"])
            kind = MFKind(record["kind"])
            matched = tuple(
                ReceiveEvent(int(r), int(c)) for r, c in record["matched"]
            )
            outcome = MFOutcome(str(record["callsite"]), kind, matched)
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise RecordFormatError(f"bad trace line {lineno}: {exc}") from exc
        if not 0 <= rank < nprocs:
            raise RecordFormatError(
                f"bad trace line {lineno}: rank {rank} out of range for "
                f"nprocs {nprocs}"
            )
        outcomes[rank].append(outcome)
    return outcomes


def save_trace(outcomes_by_rank: Mapping[int, Sequence[MFOutcome]], path: str) -> int:
    """:func:`dump_trace` to a file path (parent directories created)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        return dump_trace(outcomes_by_rank, fh)


def read_trace(path: str) -> dict[int, list[MFOutcome]]:
    """:func:`load_trace` from a file path."""
    with open(path, encoding="utf-8") as fh:
        return load_trace(fh)
