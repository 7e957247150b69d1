"""Seed search: find network timings that trigger order-dependent behaviour.

Debugging non-deterministic failures starts with *finding* a failing run.
This utility sweeps network seeds, classifies each run with a user
predicate (crash, bad tally, divergent checksum...), and returns the seeds
per class — the "one run where the bug manifested" that the paper's
record-and-replay flow then makes permanently reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.replay.session import RecordSession, RunResult


@dataclass
class SeedSweep:
    """Outcome of a seed sweep."""

    matching: list[int] = field(default_factory=list)
    non_matching: list[int] = field(default_factory=list)
    #: seed -> exception raised by the run (predicate never called)
    crashed: dict[int, Exception] = field(default_factory=dict)
    #: seed -> recorded run (kept only for matching seeds)
    runs: dict[int, RunResult] = field(default_factory=dict)

    @property
    def first_match(self) -> int | None:
        return self.matching[0] if self.matching else None


def sweep_seeds(
    program: Callable,
    nprocs: int,
    predicate: Callable[[RunResult], bool],
    seeds: Iterable[int] = range(32),
    stop_after: int | None = 1,
    crashes_match: bool = True,
    record_kwargs: dict[str, Any] | None = None,
) -> SeedSweep:
    """Record ``program`` under each seed; classify with ``predicate``.

    ``crashes_match=True`` treats an exception escaping the *application*
    as a match (an intermittent crash is usually exactly what one hunts).
    Matching runs keep their :class:`RunResult` (with the CDC archive) so
    the caller can replay them immediately.
    """
    sweep = SeedSweep()
    kwargs = dict(record_kwargs or {})
    for seed in seeds:
        session = RecordSession(program, nprocs=nprocs, network_seed=seed, **kwargs)
        try:
            run = session.run()
        except Exception as exc:  # noqa: BLE001 - app bugs are the point
            sweep.crashed[seed] = exc
            if crashes_match:
                sweep.matching.append(seed)
                if stop_after and len(sweep.matching) >= stop_after:
                    break
            continue
        if predicate(run):
            sweep.matching.append(seed)
            sweep.runs[seed] = run
            if stop_after and len(sweep.matching) >= stop_after:
                break
        else:
            sweep.non_matching.append(seed)
    return sweep
