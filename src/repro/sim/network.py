"""Network model: seeded latency noise over FIFO per-sender channels.

Run-to-run non-determinism in the simulation comes from exactly one place —
the latency each message experiences, drawn from a seeded RNG. Holding the
application seed fixed and varying the network seed reproduces the paper's
setting: identical programs whose message orders differ because of "network
and system noise" [Hoefler et al.].

Channels are FIFO per ``(src, dst)`` pair: a message never overtakes an
earlier message on the same channel (the MPI non-overtaking guarantee the
paper's message-identifier argument rests on). The model enforces this by
clamping each delivery time to be at least the channel's previous one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class LatencyModel:
    """Latency = base + per-byte cost + exponential jitter.

    ``jitter_mean`` controls how much reordering the network produces; 0
    gives a fully deterministic network (useful in tests). The exponential
    distribution produces the occasional straggler that makes receive
    orders diverge between seeds, like real network/system noise.
    """

    base: float = 2.0e-6
    per_byte: float = 1.0e-9
    jitter_mean: float = 4.0e-6

    def sample(self, rng: random.Random, nbytes: int) -> float:
        latency = self.base + self.per_byte * nbytes
        if self.jitter_mean > 0.0:
            latency += rng.expovariate(1.0 / self.jitter_mean)
        return latency


@dataclass
class Network:
    """Latency sampling + FIFO enforcement for all channels of a job.

    ``piggyback_bytes`` models the clock piggyback the PMPI layer attaches
    (8 bytes in the paper, Section 6.2): it inflates the byte count of
    every message while recording/replaying is active, so its ~1% latency
    cost shows up in the Figure 16 overhead measurements.
    """

    seed: int = 0
    latency: LatencyModel = field(default_factory=LatencyModel)
    piggyback_bytes: int = 0
    _rng: random.Random = field(init=False, repr=False)
    _last_delivery: dict[tuple[int, int], float] = field(
        init=False, repr=False, default_factory=dict
    )
    _channel_seq: dict[tuple[int, int], int] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def post(
        self, src: int, dst: int, send_time: float, nbytes: int
    ) -> tuple[int, float]:
        """One message sent now on (src, dst): ``(channel seq, arrival time)``.

        The sequence number lets the receiving mailbox check FIFO delivery;
        the arrival is :meth:`delivery_time`'s, inlined in its float order
        (``LatencyModel.sample``, ``send_time +``, the clamp): it runs per send.
        """
        key = (src, dst)
        seq = self._channel_seq.get(key, 0)
        self._channel_seq[key] = seq + 1
        model = self.latency
        latency = model.base + model.per_byte * (nbytes + self.piggyback_bytes)
        if model.jitter_mean > 0.0:
            latency += self._rng.expovariate(1.0 / model.jitter_mean)
        arrival = max(send_time + latency, self._last_delivery.get(key, 0.0))
        self._last_delivery[key] = arrival
        return seq, arrival

    def delivery_time(self, src: int, dst: int, send_time: float, nbytes: int) -> float:
        """When a message sent now on (src, dst) arrives, FIFO-clamped."""
        key = (src, dst)
        raw = send_time + self.latency.sample(self._rng, nbytes + self.piggyback_bytes)
        clamped = max(raw, self._last_delivery.get(key, 0.0))
        self._last_delivery[key] = clamped
        return clamped


def payload_nbytes(payload: object) -> int:
    """Rough message size estimate for the latency model.

    Exact sizes do not matter — only that bigger payloads cost more and the
    estimate is deterministic across runs. The estimate feeds the latency
    draw, so any change to the returned values changes delivery order: the
    value for every input is pinned to ``tests/sim/oracles.py``'s plain
    ``isinstance`` chain by a property test. The engine calls this once per
    send and keeps the answer on :attr:`Message.nbytes`.

    Exact-type tests come first and containers of scalars are sized two
    levels deep without recursing — particle batches and boundary lists are
    ``[(x, y), ...]`` — so only unusual elements pay a call each.
    """
    cls = payload.__class__
    if cls is float or cls is int:
        return 8
    if cls is list or cls is tuple:
        total = 8
        for item in payload:  # type: ignore[attr-defined]
            icls = item.__class__
            if icls is float or icls is int:
                total += 8
            elif icls is tuple or icls is list:
                total += 8
                for sub in item:
                    scls = sub.__class__
                    if scls is float or scls is int:
                        total += 8
                    else:
                        total += payload_nbytes(sub)
            else:
                total += payload_nbytes(item)
        return total
    if payload is None:
        return 8
    # subclasses (bool, IntEnum, namedtuple, ...) size like their base
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, (bytes, bytearray, str)):
        return len(payload)
    if isinstance(payload, (list, tuple)):
        return 8 + sum(payload_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return 8 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()
        )
    return 64
