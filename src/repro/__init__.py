"""repro — Clock Delta Compression (CDC) for scalable order-replay.

A full reproduction of Sato et al., "Clock Delta Compression for Scalable
Order-Replay of Non-Deterministic Parallel Applications" (SC '15),
including a deterministic discrete-event MPI simulator substrate, the CDC
encoding/decoding stack, a record-and-replay engine, and the paper's
benchmark workloads.

Quickstart::

    from repro import RecordSession, ReplaySession
    from repro.workloads import mcb

    program = mcb.build_program(mcb.MCBConfig(nprocs=8, particles_per_rank=100, seed=7))
    record = RecordSession(program, nprocs=8, network_seed=1).run()
    replayed = ReplaySession(program, record, network_seed=2).run()
    assert replayed.observed_orders == record.observed_orders
"""

from repro._version import __version__
from repro.errors import (
    DeadlockError,
    DecodingError,
    EncodingError,
    RecordExhausted,
    RecordFormatError,
    ReplayDivergence,
    ReproError,
    SimulationError,
)

__all__ = [
    "__version__",
    "BaselineSession",
    "DeadlockError",
    "DecodingError",
    "EncodingError",
    "RecordArchive",
    "RecordExhausted",
    "RecordFormatError",
    "RecordSession",
    "ReplayDivergence",
    "ReplaySession",
    "ReproError",
    "RunResult",
    "SimulationError",
    "assert_replay_matches",
]

_LAZY = {
    "BaselineSession": ("repro.replay.session", "BaselineSession"),
    "RecordSession": ("repro.replay.session", "RecordSession"),
    "ReplaySession": ("repro.replay.session", "ReplaySession"),
    "RunResult": ("repro.replay.session", "RunResult"),
    "assert_replay_matches": ("repro.replay.session", "assert_replay_matches"),
    "RecordArchive": ("repro.replay.durable_store", "RecordArchive"),
}


def __getattr__(name: str):
    """Lazily expose the high-level API to keep import-time light."""
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
