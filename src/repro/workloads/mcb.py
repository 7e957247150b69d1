"""MCB-like Monte Carlo particle transport benchmark (Section 2.1).

Reimplements the communication pattern of the CORAL Monte Carlo Benchmark
the paper evaluates on — the canonical *non-deterministic* MPI workload:

* the domain is decomposed over a periodic 2-D grid of ranks; particles
  random-walk and, on crossing a domain boundary, are sent to the owning
  neighbor as an asynchronous message;
* each rank pre-posts one wildcard-tagged receive per neighbor, processes
  local particles in batches, and polls ``Testsome`` between batches —
  first-come first-served, so the order in which particles are absorbed
  into the local queue depends on message timing;
* global tallies accumulate in receive/processing order; double-precision
  addition is not associative, so different receive orders yield different
  final tallies (the paper's debugging pain point, reproduced here
  deliberately);
* termination uses an asynchronous counting protocol over a binary tree:
  ranks stream retired-particle counts toward the root through wildcard
  receives (more non-determinism), the root detects global completion and
  a DONE token cascades back down. The tree keeps each rank's control
  traffic O(1) per batch, so recording overhead stays flat under weak
  scaling — the property Figure 16 measures.

The RNG driving particle physics is seeded per rank from the *application*
seed and consumed in processing order; under replay the receive order — and
therefore every tally bit — reproduces exactly.

Weak scaling follows the paper: ``particles_per_rank`` is held constant as
ranks grow. ``comm_intensity`` scales boundary-crossing probability, the
knob behind Figure 15's "MCB comm. intensity x1.5 / x2" curves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from repro.sim.datatypes import ANY_SOURCE

PARTICLE_TAG = 1
CTRL_TAG = 2
DONE_TAG = 3


@dataclass(frozen=True)
class MCBConfig:
    """Workload parameters."""

    nprocs: int
    particles_per_rank: int = 200
    #: random-walk steps per particle (its "lifetime" in tracks).
    steps_per_particle: int = 12
    #: probability that a step crosses a domain boundary (before scaling).
    crossing_probability: float = 0.25
    #: Figure 15's communication-intensity multiplier.
    comm_intensity: float = 1.0
    #: particles processed between Testsome polls.
    batch_size: int = 8
    #: application seed (identical across record/replay runs).
    seed: int = 12345
    #: virtual seconds to track one particle step.
    track_cost: float = 2.0e-6
    #: idle compute between polls when the local queue is empty.
    idle_cost: float = 2.0e-6

    def __post_init__(self) -> None:
        if self.nprocs < 2:
            raise ValueError("MCB needs at least 2 ranks")
        if not 0.0 < self.crossing_probability <= 1.0:
            raise ValueError("crossing probability must be in (0, 1]")
        if self.comm_intensity <= 0:
            raise ValueError("comm_intensity must be positive")

    @property
    def grid(self) -> tuple[int, int]:
        """Process grid (px, py) — the most square factorization."""
        px = int(math.sqrt(self.nprocs))
        while self.nprocs % px:
            px -= 1
        return px, self.nprocs // px

    @property
    def effective_crossing(self) -> float:
        return min(0.95, self.crossing_probability * self.comm_intensity)

    @property
    def total_particles(self) -> int:
        return self.nprocs * self.particles_per_rank

    @property
    def total_tracks(self) -> int:
        """Every particle walks a fixed number of steps (tracks)."""
        return self.total_particles * self.steps_per_particle


def neighbors_of(rank: int, grid: tuple[int, int]) -> list[int]:
    """Periodic 4-neighborhood on the process grid (deduplicated, sorted)."""
    px, py = grid
    x, y = rank % px, rank // px
    raw = {
        ((x - 1) % px) + y * px,
        ((x + 1) % px) + y * px,
        x + ((y - 1) % py) * px,
        x + ((y + 1) % py) * px,
    }
    raw.discard(rank)
    if not raw:
        raise ValueError("degenerate grid: rank has no neighbors")
    return sorted(raw)


def build_program(config: MCBConfig) -> Callable:
    """Create the per-rank generator implementing the MCB pattern."""

    def program(ctx):
        cfg = config
        rank, nprocs = ctx.rank, ctx.nprocs
        grid = cfg.grid
        nbrs = neighbors_of(rank, grid)
        rng = random.Random(cfg.seed * 1_000_003 + rank)
        p_cross = cfg.effective_crossing

        # local particle queue: (energy, steps_left)
        queue: list[tuple[float, int]] = [
            (rng.random(), cfg.steps_per_particle)
            for _ in range(cfg.particles_per_rank)
        ]
        tally = 0.0
        tracked = 0
        retired_unreported = 0
        done = False

        track, idle = ctx.compute(cfg.track_cost), ctx.compute(cfg.idle_cost)

        # one pre-posted particle receive per neighbor, reposted on receipt
        particle_reqs = [ctx.irecv(source=n, tag=PARTICLE_TAG) for n in nbrs]

        # binary termination tree: counts flow up, DONE cascades down
        parent = (rank - 1) // 2 if rank else None
        children = [c for c in (2 * rank + 1, 2 * rank + 2) if c < nprocs]
        ctrl_req = ctx.irecv(source=ANY_SOURCE, tag=CTRL_TAG) if children else None
        done_req = ctx.irecv(source=parent, tag=DONE_TAG) if rank else None
        retired_subtree = 0
        # the MF calls a batch polls with: rebuilt only when a receive is
        # reposted, not per poll
        particles = ctx.testsome(particle_reqs, callsite="mcb:particles")
        ctrl_poll = ctx.test(ctrl_req, callsite="mcb:ctrl") if children else None
        done_poll = ctx.test(done_req, callsite="mcb:done") if rank else None

        outgoing: dict[int, list[tuple[float, int]]] = {n: [] for n in nbrs}

        while not done:
            # -- process a batch of local particles --------------------------
            batch = 0
            while queue and batch < cfg.batch_size:
                energy, steps = queue.pop()
                yield track
                tracked += 1
                steps -= 1
                if steps <= 0:
                    # absorption: order-sensitive tally accumulation
                    tally = tally * (1.0 + 1e-12) + energy
                    retired_unreported += 1
                elif rng.random() < p_cross:
                    dest = nbrs[rng.randrange(len(nbrs))]
                    outgoing[dest].append((energy * 0.999, steps))
                else:
                    queue.append((energy * 0.999, steps))
                batch += 1
            if not queue:
                yield idle

            # -- flush boundary crossings ------------------------------------
            for dest, batch_particles in outgoing.items():
                if batch_particles:
                    ctx.isend(dest, list(batch_particles), tag=PARTICLE_TAG)
                    batch_particles.clear()

            # -- absorb incoming particles (first-come, first-served) --------
            res = yield particles
            for req_index, msg in zip(res.indices, res.messages):
                if msg is None:
                    continue
                for energy, steps in msg.payload:
                    queue.append((energy, steps))
                    # receive-order-sensitive contribution
                    tally = tally * (1.0 + 1e-12) + 1e-6 * energy
                # repost the slot for the next message from that neighbor
                particle_reqs[req_index] = ctx.irecv(source=msg.src, tag=PARTICLE_TAG)
            if res.indices:
                particles = ctx.testsome(particle_reqs, callsite="mcb:particles")

            # -- termination protocol (binary counting tree) -----------------
            retired_subtree += retired_unreported
            retired_unreported = 0
            if ctrl_req is not None:
                while True:
                    res = yield ctrl_poll
                    if not res.flag:
                        break
                    retired_subtree += res.message.payload
                    ctrl_req = ctx.irecv(source=ANY_SOURCE, tag=CTRL_TAG)
                    ctrl_poll = ctx.test(ctrl_req, callsite="mcb:ctrl")
            if rank == 0:
                if retired_subtree >= cfg.total_particles:
                    for child in children:
                        ctx.isend(child, True, tag=DONE_TAG)
                    done = True
            else:
                if retired_subtree:
                    ctx.isend(parent, retired_subtree, tag=CTRL_TAG)
                    retired_subtree = 0
                res = yield done_poll
                if res.flag:
                    for child in children:
                        ctx.isend(child, True, tag=DONE_TAG)
                    done = True

        # drain: cancel receives that never matched (no particles remain
        # in flight once every particle is retired)
        for req in particle_reqs:
            ctx.cancel(req)
        if ctrl_req is not None:
            ctx.cancel(ctrl_req)
        return {"tally": tally, "tracked": tracked}

    return program


def tracks_per_second(config: MCBConfig, virtual_time: float) -> float:
    """The Figure 16 performance metric."""
    if virtual_time <= 0:
        return 0.0
    return config.total_tracks / virtual_time
