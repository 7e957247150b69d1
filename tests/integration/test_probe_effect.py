"""Profiling a recording does not change what it records.

Record/replay tools fear the probe effect: watching a run can change its
message order. Here the only non-determinism is the seeded network, which
runs in virtual time, so a record made under cProfile — every Python call
hooked, the wall clock several times slower — must write the same bytes,
reach the same virtual time and engine-event count, and replay to the same
results as a plain one. That is why ``repro profile`` may use cProfile on
the record pass.
"""

import cProfile
import os

import pytest

from repro.replay import RecordSession, ReplaySession
from repro.workloads import make_workload

NPROCS = 8
WORKLOADS = {
    "mcb": {"particles_per_rank": 40, "seed": 3},
    "unstructured": {"vertices": 256, "iterations": 10, "seed": 3},
}
NETWORK_SEED = 7


def archive_bytes(directory):
    """file name -> contents, every file the record wrote."""
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return files


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_profiled_record_is_the_plain_record(tmp_path, workload):
    program, _ = make_workload(workload, NPROCS, **WORKLOADS[workload])

    def record(name):
        return RecordSession(
            program,
            nprocs=NPROCS,
            network_seed=NETWORK_SEED,
            store_dir=str(tmp_path / name),
            store_fsync=False,
        ).run()

    plain = record("plain")
    profiled = cProfile.Profile().runcall(record, "profiled")

    plain_files = archive_bytes(tmp_path / "plain")
    assert "MANIFEST" in plain_files and any(n.startswith("rank-") for n in plain_files)
    assert archive_bytes(tmp_path / "profiled") == plain_files
    assert profiled.stats.virtual_time == plain.stats.virtual_time
    assert profiled.stats.total_events == plain.stats.total_events
    replays = [
        ReplaySession(program, str(tmp_path / name), network_seed=NETWORK_SEED + 1).run()
        for name in ("plain", "profiled")
    ]
    assert replays[0].app_results == replays[1].app_results == plain.app_results


def test_sessions_take_no_profile_keyword():
    program, _ = make_workload("mcb", 2, particles_per_rank=1)
    with pytest.raises(TypeError, match="'profile'"):
        RecordSession(program, nprocs=2, profile=97)
