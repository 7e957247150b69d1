"""Unstructured-mesh workload: topology, numerics, record/replay."""

import subprocess
import sys

import pytest

from repro.replay import BaselineSession, RecordSession, ReplaySession, assert_replay_matches
from repro.workloads.unstructured import (
    UnstructuredConfig,
    build_program,
    mesh_edges,
    partition,
    rank_topology,
)


class TestConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(nprocs=1),
            dict(nprocs=8, vertices=4),
            dict(nprocs=4, radius=0.0),
            dict(nprocs=4, iterations=0),
        ],
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            UnstructuredConfig(**bad)

    def test_mesh_is_connected(self):
        cfg = UnstructuredConfig(nprocs=4, vertices=40, radius=0.15)
        import networkx as nx

        assert nx.is_connected(cfg.build_mesh())

    def test_mesh_deterministic_given_seed(self):
        cfg = UnstructuredConfig(nprocs=4)
        assert sorted(cfg.build_mesh().edges()) == sorted(cfg.build_mesh().edges())


class TestNetworkxIsOptional:
    """numpy is the only declared dependency; networkx is the ``workloads``
    extra, needed by ``build_mesh`` (the mesh as a graph object) and nothing
    else."""

    def test_importing_the_workloads_does_not_import_networkx(self):
        code = (
            "import sys, repro.workloads, repro.cli; "
            "from repro.workloads import make_workload; "
            "make_workload('mcb', 4); "
            "sys.exit('networkx' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_missing_networkx_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)  # import now fails
        with pytest.raises(ModuleNotFoundError, match=r"repro\[workloads\]"):
            UnstructuredConfig(nprocs=4).build_mesh()


class TestTopology:
    @pytest.fixture(scope="class")
    def topo(self):
        cfg = UnstructuredConfig(nprocs=6, vertices=60)
        return cfg, *rank_topology(cfg)

    def test_neighbor_symmetry(self, topo):
        cfg, neighbors, shared = topo
        for r, nbrs in neighbors.items():
            for s in nbrs:
                assert r in neighbors[s]

    def test_shared_edges_mirror(self, topo):
        cfg, neighbors, shared = topo
        for (r, s), edges in shared.items():
            mirrored = {(v, u) for u, v in edges}
            assert mirrored == set(shared[(s, r)])

    def test_irregular_degrees(self, topo):
        """The point of the workload: neighbor counts vary across ranks."""
        cfg, neighbors, _ = topo
        degrees = {len(nbrs) for nbrs in neighbors.values()}
        assert len(degrees) >= 1  # may be uniform on tiny meshes, but...
        cfg2 = UnstructuredConfig(nprocs=8, vertices=96, radius=0.25)
        nbrs2, _ = rank_topology(cfg2)
        assert len({len(n) for n in nbrs2.values()}) > 1

    @staticmethod
    def rank_topology_oracle(cfg):
        """``rank_topology`` as it was first written: one pass over
        ``mesh_edges`` with a set of neighbors per rank."""
        mesh = cfg.mesh()
        owner = partition(cfg, mesh)
        neighbors = {r: set() for r in range(cfg.nprocs)}
        shared = {}
        for u, v in mesh_edges(mesh[1]):
            ru, rv = owner[u], owner[v]
            if ru == rv:
                continue
            neighbors[ru].add(rv)
            neighbors[rv].add(ru)
            shared.setdefault((ru, rv), []).append((u, v))
            shared.setdefault((rv, ru), []).append((v, u))
        return {r: sorted(s) for r, s in neighbors.items()}, shared

    @pytest.mark.parametrize(
        "nprocs, vertices, radius",
        [(2, 2, 1.5), (4, 40, 0.15), (6, 60, 0.35), (16, 200, 0.05), (64, 256, 0.35)],
    )
    def test_topology_matches_the_edge_loop(self, nprocs, vertices, radius):
        for seed in (1, 404):
            cfg = UnstructuredConfig(nprocs, vertices=vertices, radius=radius, seed=seed)
            neighbors, shared = rank_topology(cfg)
            expected = self.rank_topology_oracle(cfg)
            assert (neighbors, shared) == expected
            assert list(shared) == list(expected[1])  # the same key order too

    def test_partition_balanced(self):
        cfg = UnstructuredConfig(nprocs=5, vertices=50)
        owner = partition(cfg)
        counts = [list(owner.values()).count(r) for r in range(5)]
        assert max(counts) - min(counts) <= 1

    def test_build_program_generates_the_mesh_once(self, monkeypatch):
        """The random geometric graph is the costly part of setup: one per
        program, and the mesh/owner handed down give the topology the
        helpers compute alone."""
        generated = []
        real = UnstructuredConfig.mesh

        def counted(config):
            generated.append(config)
            return real(config)

        monkeypatch.setattr(UnstructuredConfig, "mesh", counted)
        cfg = UnstructuredConfig(nprocs=6, vertices=60)
        build_program(cfg)
        assert len(generated) == 1
        mesh = cfg.mesh()
        owner = partition(cfg, mesh)
        assert owner == partition(cfg)
        assert rank_topology(cfg, mesh, owner) == rank_topology(cfg)


class TestMeshWithoutNetworkx:
    """``UnstructuredConfig.mesh`` is ``nx.random_geometric_graph`` plus the
    component chaining, rebuilt from ``random`` and one numpy distance
    matrix: every archive recorded before it existed must still replay."""

    @staticmethod
    def networkx_mesh(cfg):
        """The mesh as ``build_mesh`` built it before PR 22."""
        import networkx as nx

        graph = nx.random_geometric_graph(cfg.vertices, cfg.radius, seed=cfg.seed)
        components = list(nx.connected_components(graph))
        for a, b in zip(components, components[1:]):
            graph.add_edge(next(iter(a)), next(iter(b)))
        return graph, len(components)

    @pytest.mark.parametrize(
        "vertices, radius",
        [(96, 0.35), (256, 0.35), (40, 0.15), (64, 0.08), (300, 0.05), (200, 0.02)],
    )
    def test_same_mesh_as_networkx(self, vertices, radius):
        split = 0
        for seed in range(12):
            cfg = UnstructuredConfig(nprocs=4, vertices=vertices, radius=radius, seed=seed)
            graph, components = self.networkx_mesh(cfg)
            split += components > 1
            pos, adj = cfg.mesh()
            assert dict(enumerate(pos)) == dict(graph.nodes(data="pos"))
            assert dict(enumerate(adj)) == {v: list(graph.adj[v]) for v in graph}
            assert mesh_edges(adj) == list(graph.edges())
            rebuilt = cfg.build_mesh()
            assert list(rebuilt.edges()) == list(graph.edges())
            assert dict(rebuilt.nodes(data="pos")) == dict(graph.nodes(data="pos"))
        assert split or radius > 0.1  # the sparse rows exercise the chaining

    def test_building_the_program_does_not_import_networkx(self):
        code = (
            "import sys; from repro.workloads import make_workload; "
            "make_workload('unstructured', 4, vertices=32); "
            "sys.exit('networkx' in sys.modules or 'scipy' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestExecution:
    @pytest.fixture(scope="class")
    def record(self):
        cfg = UnstructuredConfig(nprocs=6, vertices=48, iterations=6)
        program = build_program(cfg)
        return cfg, program, RecordSession(program, nprocs=6, network_seed=2).run()

    def test_runs_to_completion(self, record):
        cfg, _, run = record
        for r in range(cfg.nprocs):
            assert run.app_results[r]["degree"] >= 1
            assert run.app_results[r]["value_sum"] == pytest.approx(
                run.app_results[r]["value_sum"]
            )

    def test_checksums_order_sensitive_across_seeds(self, record):
        cfg, program, run = record
        other = BaselineSession(program, nprocs=cfg.nprocs, network_seed=7).run()
        a = [run.app_results[r]["checksum"] for r in range(cfg.nprocs)]
        b = [other.app_results[r]["checksum"] for r in range(cfg.nprocs)]
        assert a != b

    def test_smoothing_is_timing_invariant(self, record):
        """value_sum depends on mesh math only, not on arrival order —
        a built-in sanity check separating real state from FP noise."""
        cfg, program, run = record
        other = BaselineSession(program, nprocs=cfg.nprocs, network_seed=7).run()
        for r in range(cfg.nprocs):
            assert run.app_results[r]["value_sum"] == pytest.approx(
                other.app_results[r]["value_sum"], rel=1e-9
            )

    def test_record_replay_exact(self, record):
        cfg, program, run = record
        for seed in (5, 6):
            replayed = ReplaySession(program, run.archive, network_seed=seed).run()
            assert_replay_matches(run, replayed)

    def test_registry_integration(self):
        from repro.workloads import make_workload

        program, cfg = make_workload("unstructured", 4, vertices="32", iterations="3")
        run = RecordSession(program, nprocs=4, network_seed=1).run()
        assert run.total_receive_events() > 0
