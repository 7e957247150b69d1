"""Hidden-deterministic Jacobi/Poisson solver (Section 6.3, Figure 17).

Modeled on the Himeno-style benchmark the paper records: a 1-D
domain-decomposed Jacobi iteration for Poisson's equation whose halo
exchange uses wildcard-source nonblocking receives completed by
``Waitall``. The *actual* communication is fully deterministic — each rank
talks to fixed neighbors every iteration — but because the receives use
``MPI_ANY_SOURCE``, no record-and-replay tool can prove it, so every
receive gets recorded ("hidden determinism").

The point of the experiment: gzip over the raw quintuple format still pays
for every event, while CDC's reference order matches the observed order
almost everywhere and its LP-encoded index columns collapse the regular
pattern to almost nothing — the paper measures 91 MB vs 2 MB (2.2%).

A periodic residual ``allreduce`` (deterministic binomial tree, also
recorded) adds the collective flavor of real stencil codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sim.datatypes import ANY_SOURCE

HALO_LEFT_TAG = 11  # message travelling right -> received from the left
HALO_RIGHT_TAG = 12  # message travelling left -> received from the right


@dataclass(frozen=True)
class JacobiConfig:
    """Workload parameters."""

    nprocs: int
    cells_per_rank: int = 64
    iterations: int = 100
    #: iterations between residual allreduces (0 disables them).
    residual_interval: int = 25
    #: virtual seconds per local stencil sweep.
    sweep_cost: float = 5.0e-6
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.nprocs < 2:
            raise ValueError("Jacobi needs at least 2 ranks")
        if self.cells_per_rank < 2:
            raise ValueError("need at least 2 cells per rank")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")


def build_program(config: JacobiConfig) -> Callable:
    """Create the per-rank generator implementing the Jacobi pattern."""

    def program(ctx):
        cfg = config
        rank, size = ctx.rank, ctx.nprocs
        left = rank - 1 if rank > 0 else None
        right = rank + 1 if rank < size - 1 else None

        rng = np.random.default_rng(cfg.seed + rank)
        u = rng.random(cfg.cells_per_rank + 2)  # one ghost cell per side
        u[0] = u[-1] = 0.0
        f = rng.random(cfg.cells_per_rank + 2) * 0.01
        h2 = 1.0 / (cfg.cells_per_rank * size) ** 2
        h2f = h2 * f[1:-1]  # the source term never changes
        sweep = ctx.compute(cfg.sweep_cost)

        residual = 0.0
        for it in range(cfg.iterations):
            # hidden-deterministic halo exchange: wildcard source, fixed tag
            reqs = []
            if left is not None:
                reqs.append(ctx.irecv(source=ANY_SOURCE, tag=HALO_LEFT_TAG))
                ctx.isend(left, float(u[1]), tag=HALO_RIGHT_TAG)
            if right is not None:
                reqs.append(ctx.irecv(source=ANY_SOURCE, tag=HALO_RIGHT_TAG))
                ctx.isend(right, float(u[-2]), tag=HALO_LEFT_TAG)
            if reqs:
                res = yield ctx.waitall(reqs, callsite="jacobi:halo")
                for msg in res.messages:
                    if msg.tag == HALO_LEFT_TAG:
                        u[0] = msg.payload
                    else:
                        u[-1] = msg.payload

            yield sweep
            interior = 0.5 * (u[:-2] + u[2:] - h2f)
            residual = float(np.abs(interior - u[1:-1]).max())
            u[1:-1] = interior

            if cfg.residual_interval and (it + 1) % cfg.residual_interval == 0:
                residual = yield from ctx.allreduce(residual, op=max, tag=-300)

        return {"residual": residual, "checksum": float(u[1:-1].sum())}

    return program
