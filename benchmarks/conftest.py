"""Shared fixtures for the figure-regeneration benchmarks.

Every bench prints the regenerated table/series (like the paper's figures,
in text form) and also writes it under ``benchmarks/output/`` so
EXPERIMENTS.md can quote measured numbers.
"""

from __future__ import annotations

import os

import pytest

from repro.replay import BaselineSession, RecordSession
from repro.workloads import jacobi, mcb

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")

#: the benchmark-scale stand-in for the paper's 3,072-process runs
MCB_RANKS = 48
MCB_PARTICLES = 100


def emit(name: str, text: str) -> None:
    """Print a regenerated figure and persist it for EXPERIMENTS.md."""
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(os.path.join(OUTPUT_DIR, f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print("\n" + text)


@pytest.fixture(scope="session")
def mcb_config():
    return mcb.MCBConfig(nprocs=MCB_RANKS, particles_per_rank=MCB_PARTICLES, seed=7)


@pytest.fixture(scope="session")
def mcb_run(mcb_config):
    """One recorded MCB run: outcomes for compression, archive for sizes."""
    program = mcb.build_program(mcb_config)
    return RecordSession(
        program, nprocs=mcb_config.nprocs, network_seed=1, keep_outcomes=True
    ).run()


@pytest.fixture(scope="session")
def mcb_baseline(mcb_config):
    program = mcb.build_program(mcb_config)
    return BaselineSession(program, nprocs=mcb_config.nprocs, network_seed=1).run()


@pytest.fixture(scope="session")
def jacobi_config():
    # the paper records 1K iterations of the Poisson/Jacobi solver
    return jacobi.JacobiConfig(
        nprocs=32, cells_per_rank=32, iterations=1000, residual_interval=100
    )


@pytest.fixture(scope="session")
def jacobi_run(jacobi_config):
    program = jacobi.build_program(jacobi_config)
    return RecordSession(
        program, nprocs=jacobi_config.nprocs, network_seed=3, keep_outcomes=True
    ).run()
