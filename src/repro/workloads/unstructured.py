"""Unstructured-mesh halo exchange: irregular neighbor graphs.

MCB and Jacobi live on regular grids; many production codes (finite
elements, AMR) exchange halos over an *irregular* partition graph where
neighbor counts and message sizes vary per rank. This workload builds a
random geometric graph, partitions vertices over ranks, and iterates a
Jacobi-like smoothing where each rank:

* posts one wildcard-source receive per neighbor (expected halo count),
* sends its boundary values to each neighbor,
* polls ``Waitsome`` until all halos arrive (completion order varies —
  recorded non-determinism), applying updates *in arrival order* so the
  smoothed values are order-sensitive in floating point.

The per-rank degree spread stresses CDC's per-sender tables (epoch lines,
quota counts) far harder than a 4-neighbor grid does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.sim.datatypes import ANY_SOURCE

if TYPE_CHECKING:
    import networkx as nx

HALO_TAG = 31
#: ``(pos, adj)``: vertex positions and adjacency lists (see ``UnstructuredConfig.mesh``).
Mesh = tuple[list[list[float]], list[list[int]]]


@dataclass(frozen=True)
class UnstructuredConfig:
    """Workload parameters."""

    nprocs: int
    #: mesh vertices (partitioned round-robin over ranks).
    vertices: int = 96
    #: geometric connection radius (bigger -> denser neighbor graphs).
    radius: float = 0.35
    iterations: int = 10
    seed: int = 404
    smoothing: float = 0.5
    compute_cost: float = 2.0e-6

    def __post_init__(self) -> None:
        if self.nprocs < 2:
            raise ValueError("need at least 2 ranks")
        if self.vertices < self.nprocs:
            raise ValueError("need at least one vertex per rank")
        if not 0 < self.radius <= 1.5:
            raise ValueError("radius must be in (0, 1.5]")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")

    def mesh(self) -> Mesh:
        """``(pos, adj)`` of the shared mesh every rank derives its neighbor
        lists from: what ``networkx.random_geometric_graph(vertices, radius,
        seed=seed)`` builds — positions from ``random.Random(seed)`` in node
        order, an edge per pair within ``radius``, added in sorted ``u < v``
        order — without importing it; ``adj[v]`` is in the order added."""
        rng = random.Random(self.seed)
        pos = [[rng.random(), rng.random()] for _ in range(self.vertices)]
        xy = np.array(pos)
        square = ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2)
        within = square <= self.radius * self.radius
        np.fill_diagonal(within, False)
        # edges added in sorted u < v order leave each list ascending: its row
        adj: list[list[int]] = [np.flatnonzero(row).tolist() for row in within]
        # guarantee connectivity so every rank participates: each component
        # is chained to the next through its first vertex — first out of a
        # breadth-first *set*, as ``networkx.connected_components`` builds
        # it, so that every archive recorded over a networkx mesh replays.
        firsts: list[int] = []
        seen: set[int] = set()
        for source in range(self.vertices):
            if source in seen:
                continue
            component, level = {source}, [source]
            while level:
                reached, level = [w for v in level for w in adj[v]], []
                for w in reached:
                    if w not in component:
                        component.add(w)
                        level.append(w)
            seen |= component
            firsts.append(next(iter(component)))
        for a, b in zip(firsts, firsts[1:]):
            adj[a].append(b)
            adj[b].append(a)
        return pos, adj

    def build_mesh(self) -> nx.Graph:
        """:meth:`mesh` as a ``networkx.Graph`` (node attribute ``pos``), for
        tests and diagnostics. networkx is an optional dependency (the
        ``workloads`` extra) and only this method imports it."""
        try:
            import networkx as nx
        except ModuleNotFoundError as exc:
            raise ModuleNotFoundError(
                "the 'unstructured' workload hands its mesh out as a networkx "
                "graph, which is not installed; install the extra: "
                "pip install 'repro[workloads]'"
            ) from exc
        pos, adj = self.mesh()
        graph = nx.empty_graph(self.vertices)
        nx.set_node_attributes(graph, dict(enumerate(pos)), "pos")
        graph.add_edges_from(mesh_edges(adj))
        return graph


def mesh_edges(adj: list[list[int]]) -> list[tuple[int, int]]:
    """Each edge of :meth:`UnstructuredConfig.mesh` once, ``u < v``, in the
    order ``networkx.Graph.edges`` walks them: by ``u``, then as added."""
    return [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if v > u]


def partition(config: UnstructuredConfig, mesh: Mesh | None = None) -> dict[int, int]:
    """vertex -> owning rank: balanced spatial strips.

    Vertices are sorted by position and sliced into contiguous blocks, so
    each rank owns a spatial region and only ranks with adjacent regions
    exchange halos — giving the irregular, locality-driven neighbor graphs
    the workload exists to exercise. ``mesh`` is ``config.mesh()``, built
    here unless the caller already holds it.
    """
    pos, _ = mesh or config.mesh()
    ordered = sorted(range(config.vertices), key=lambda v: (pos[v][0], pos[v][1]))
    owner: dict[int, int] = {}
    base, extra = divmod(config.vertices, config.nprocs)
    start = 0
    for rank in range(config.nprocs):
        size = base + (1 if rank < extra else 0)
        for v in ordered[start : start + size]:
            owner[v] = rank
        start += size
    return owner


def rank_topology(
    config: UnstructuredConfig,
    mesh: Mesh | None = None,
    owner: dict[int, int] | None = None,
):
    """Per-rank neighbor structure derived from the mesh.

    Returns ``(neighbors, shared_edges)`` where ``neighbors[r]`` is the
    sorted list of ranks sharing at least one cut edge with ``r`` and
    ``shared_edges[(r, s)]`` the cut edges between them (both directions
    present). ``mesh`` and ``owner`` default to ``config.mesh()`` and its
    :func:`partition`.
    """
    if mesh is None:
        mesh = config.mesh()
    if owner is None:
        owner = partition(config, mesh)
    shared: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, adjacent in enumerate(mesh[1]):  # the edges in mesh_edges order
        ru = owner[u]
        for v in adjacent:
            if v > u and owner[v] != ru:
                rv = owner[v]
                shared.setdefault((ru, rv), []).append((u, v))
                shared.setdefault((rv, ru), []).append((v, u))
    neighbors: dict[int, list[int]] = {r: [] for r in range(config.nprocs)}
    for r, s in shared:
        neighbors[r].append(s)
    return {r: sorted(s) for r, s in neighbors.items()}, shared


def build_program(config: UnstructuredConfig) -> Callable:
    """Create the per-rank generator implementing the halo pattern; what is
    fixed about the ranks is derived here, once, in O(vertices + cut edges)."""
    # the random geometric mesh is the costly part of setup: build it once
    mesh = config.mesh()
    owner = partition(config, mesh)
    neighbors, shared = rank_topology(config, mesh, owner)
    ghost_sources = {r: {} for r in range(config.nprocs)}
    for v in range(config.vertices):
        ghost_sources[owner[v]][v] = []
    for rank, nbrs in neighbors.items():
        sources = ghost_sources[rank]  # owned vertex -> the ghosts it averages
        for nbr in nbrs:
            for a, b in shared[(nbr, rank)]:
                sources[b].append(a)

    def program(ctx):
        cfg = config
        rank = ctx.rank
        nbrs = neighbors[rank]
        mine = ghost_sources[rank].items()
        values = {v: float((v * 2654435761) % 1000) / 1000.0 for v, _ in mine}
        ghost: dict[int, float] = {}
        ghost_value, keep = ghost.__getitem__, 1 - cfg.smoothing
        step = ctx.compute(cfg.compute_cost)

        checksum = 0.0
        for it in range(cfg.iterations):
            # per-iteration tags: a neighbor running ahead must not have its
            # next-iteration halo matched into this one (the wildcard is on
            # the *source* only — the order of neighbors still varies)
            tag = HALO_TAG + it
            reqs = [ctx.irecv(source=ANY_SOURCE, tag=tag) for _ in nbrs]
            for nbr in nbrs:
                ctx.isend(nbr, [(u, values[u]) for u, _ in shared[(rank, nbr)]], tag=tag)

            got = 0
            while got < len(reqs):
                res = yield ctx.waitsome(reqs, callsite="mesh:halo")
                for msg in res.messages:
                    if msg is None:
                        continue
                    got += 1
                    # arrival-order-sensitive accumulation
                    for u, value in msg.payload:
                        ghost[u] = value
                        checksum = checksum * (1.0 + 1e-12) + value
            yield step

            # smooth owned vertices toward neighbor averages (every halo of
            # this iteration arrived: each ghost source is present)
            new_values = {}
            for v, sources in mine:
                if sources:
                    avg = sum(map(ghost_value, sources)) / len(sources)
                    new_values[v] = keep * values[v] + cfg.smoothing * avg
                else:
                    new_values[v] = values[v]
            values = new_values

        return {
            "checksum": checksum,
            "degree": len(nbrs),
            "value_sum": sum(values.values()),
        }

    return program
