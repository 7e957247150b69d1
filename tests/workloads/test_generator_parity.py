"""The workload generators compute what they always computed.

``mcb``, ``jacobi`` and ``unstructured`` build their fixed structure once
and yield shared ``Compute`` (``mcb`` also ``MFCall``) instances; none of
that may move a float, a message or a virtual nanosecond. Each case records one small run to a
durable directory and compares the application results (by ``repr``, so
floats round-trip exactly) and the archive digest with
``generator_parity.json``. The record goldens pin one seed at tiny sizes;
these pin two, with ``jacobi`` crossing its residual ``allreduce``.

The values were generated before the generators were rewritten; regenerate
(only after an intentional behaviour change) with::

    PYTHONPATH=src:. python tests/workloads/test_generator_parity.py
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest

from repro.replay import RecordSession
from repro.workloads import make_workload
from tests.replay.test_record_golden import dir_digest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "generator_parity.json")

#: workload -> (ranks, parameters besides the seed)
WORKLOADS = {
    "mcb": (6, {"particles_per_rank": 24}),
    "jacobi": (5, {"cells_per_rank": 16, "iterations": 24, "residual_interval": 8}),
    # a sparse mesh: at both seeds every rank owns vertices with and
    # without ghost sources, and one to three neighbors
    "unstructured": (4, {"vertices": 96, "radius": 0.15, "iterations": 4}),
}
SEEDS = (7, 11)
CASES = [f"{workload}-seed{seed}" for workload in WORKLOADS for seed in SEEDS]


def facts(case: str) -> dict:
    workload, seed = case.rsplit("-seed", 1)
    nprocs, params = WORKLOADS[workload]
    program, _ = make_workload(workload, nprocs, seed=int(seed), **params)
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = os.path.join(tmp, "archive")
        result = RecordSession(
            program, nprocs=nprocs, network_seed=int(seed), store_dir=store_dir
        ).run()
        archive = dir_digest(store_dir)
    return {
        "app_results": repr(sorted(result.app_results.items())),
        "archive": archive,
        "virtual_time": repr(result.stats.virtual_time),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", CASES)
def test_generator_matches_parent(golden, case):
    assert facts(case) == golden[case]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({case: facts(case) for case in CASES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}: {len(CASES)} cases")
