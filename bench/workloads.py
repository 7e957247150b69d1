"""The four benchmark workloads: inputs only.

Every workload runs the same phases (``bench/phases.py``); what differs
is the program it hands to the sessions. The reasons each exists are in
``BENCHMARK.json`` (``why``) and ``bench/README.md``. The program under
test receives the generated ``program``/``nprocs`` and never the
workload's name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.workloads import make_workload


@dataclass(frozen=True)
class Workload:
    name: str
    #: key into ``repro.workloads.REGISTRY``
    app: str
    nprocs: int
    params: Mapping[str, int]
    #: 16-rank-or-smaller variant for ``--smoke`` and the warm-up.
    smoke_nprocs: int
    smoke_params: Mapping[str, int]
    #: True when two network seeds must produce the identical receive
    #: order (hidden determinism); False when they must differ. The
    #: non-determinism guard fails the run if the workload stops doing
    #: what its row in the README says.
    deterministic: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mcb32", "mcb", 32, {"particles_per_rank": 32},
            16, {"particles_per_rank": 10},
        ),
        Workload(
            "jacobi64", "jacobi", 64, {"iterations": 40},
            16, {"iterations": 10},
            deterministic=True,
        ),
        Workload(
            "unstructured64", "unstructured", 64,
            {"vertices": 256, "iterations": 3},
            16, {"vertices": 64, "iterations": 2},
        ),
        Workload(
            "codec4", "mcb", 4, {"particles_per_rank": 600},
            4, {"particles_per_rank": 60},
        ),
    )
}


@dataclass
class Inputs:
    """What a run hands to the sessions, generated from ``(workload, seed)``."""

    program: Callable
    nprocs: int
    #: manifest metadata: lets ``explain``/``diff`` rehydrate the archive.
    meta: dict[str, Any]
    #: seconds ``make_workload`` took (``workloads.build_s``).
    build_s: float
    #: network seeds of ``record``, ``replay`` and the second record.
    seeds: dict[str, int]


def make_inputs(workload: Workload, seed: int, smoke: bool = False) -> Inputs:
    """Build the program. ``seed`` is the only source of variation: app
    seed = S, record network seed = S+1, replay = S+2, second record = S+3."""
    nprocs = workload.smoke_nprocs if smoke else workload.nprocs
    params = dict(workload.smoke_params if smoke else workload.params, seed=seed)
    t0 = time.perf_counter()
    program, _config = make_workload(workload.app, nprocs, **params)
    build_s = time.perf_counter() - t0
    seeds = {"record": seed + 1, "replay": seed + 2, "record_b": seed + 3}
    meta = {
        "workload": workload.app,
        "nprocs": nprocs,
        "params": params,
        "network_seed": seeds["record"],
    }
    return Inputs(program, nprocs, meta, build_s, seeds)
