"""Reference implementations the simulator's fast paths are tested against."""

from __future__ import annotations


def payload_nbytes_oracle(payload: object) -> int:
    """The message size estimate as a plain ``isinstance`` chain.

    This is the definition; :func:`repro.sim.network.payload_nbytes` must
    return the same number for every payload, because the number feeds the
    latency draw and so decides the delivery order of a seeded run.
    """
    if payload is None:
        return 8
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, (bytes, bytearray, str)):
        return len(payload)
    if isinstance(payload, (list, tuple)):
        return 8 + sum(payload_nbytes_oracle(p) for p in payload)
    if isinstance(payload, dict):
        return 8 + sum(
            payload_nbytes_oracle(k) + payload_nbytes_oracle(v)
            for k, v in payload.items()
        )
    return 64
