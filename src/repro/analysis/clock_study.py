"""Replayable-clock study — the paper's named future work (Section 4.3).

"For future work, we will consider other replayable clock definitions to
further increase similarity between the reference and observed orders."

This module runs a workload once while piggybacking *both* a Lamport clock
and a vector clock on every message, then measures, per rank and callsite,
how many receives a reference order built from each clock would record as
permuted. Lower permutation percentage ⇒ smaller permutation tables ⇒
better compression — but the vector clock's piggyback grows with the rank
count, which is why the paper rejects it for the record itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.clocks.vector import total_order_key
from repro.core.permutation import encode_permutation, observed_as_reference_indices
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.pmpi import MFController


@dataclass(frozen=True)
class DeliverySample:
    """One delivered receive with every piggyback the study tracks."""

    src: int
    lamport: int
    vclock: tuple[int, ...]


class ClockStudyController(MFController):
    """Passthrough controller capturing per-delivery clock metadata."""

    mode = "clock-study"

    def __init__(self) -> None:
        super().__init__()
        self.samples: dict[tuple[int, str], list[DeliverySample]] = {}

    def on_outcome(self, proc, outcome, messages) -> float:
        if not messages:
            return 0.0  # an unmatched poll delivers nothing to sample
        bucket = self.samples.setdefault((proc.rank, outcome.callsite), [])
        for msg in messages:
            assert msg.vclock is not None, "run the engine with track_vector_clocks"
            bucket.append(DeliverySample(msg.src, msg.clock, tuple(msg.vclock)))
        return 0.0


@dataclass
class ClockStudyResult:
    """Permutation percentages per clock definition."""

    nprocs: int
    #: (rank, callsite) -> (lamport perm %, vector perm %) over that stream
    per_stream: dict[tuple[int, str], tuple[float, float]] = field(
        default_factory=dict
    )

    def means(self) -> tuple[float, float]:
        if not self.per_stream:
            return (0.0, 0.0)
        lam = sum(v[0] for v in self.per_stream.values()) / len(self.per_stream)
        vec = sum(v[1] for v in self.per_stream.values()) / len(self.per_stream)
        return lam, vec

    def piggyback_bytes(self) -> tuple[int, int]:
        """(Lamport, vector) piggyback payload per message."""
        return 8, 8 * self.nprocs


def _perm_pct(samples: Sequence[DeliverySample], key: Callable) -> float:
    if not samples:
        return 0.0
    keys = [key(s) for s in samples]
    if len(set(keys)) != len(keys):  # defensive: identifiers must be unique
        raise ValueError("non-unique reference keys in clock study")
    ref = sorted(keys)
    indices = observed_as_reference_indices(keys, ref)
    return encode_permutation(indices).permutation_percentage()


def run_clock_study(
    nprocs: int,
    program: Callable,
    network_seed: int = 0,
    min_stream: int = 4,
) -> ClockStudyResult:
    """Execute ``program`` once and score both clock definitions.

    Streams shorter than ``min_stream`` receives are skipped (their
    permutation percentage is dominated by quantization).
    """
    controller = ClockStudyController()
    engine = Engine(
        nprocs,
        program,
        network=Network(seed=network_seed),
        controller=controller,
        track_vector_clocks=True,
    )
    engine.run()
    result = ClockStudyResult(nprocs=nprocs)
    for key, samples in controller.samples.items():
        if len(samples) < min_stream:
            continue
        lam = _perm_pct(samples, lambda s: (s.lamport, s.src))
        vec = _perm_pct(samples, lambda s: total_order_key(s.vclock, s.src))
        result.per_stream[key] = (lam, vec)
    return result
