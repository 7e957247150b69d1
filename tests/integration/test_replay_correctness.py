"""End-to-end replay correctness (Theorems 1-2) across workloads and seeds.

The strongest claim in the paper: record once, then *any* subsequent run
forced by the CDC record observes identical message orders, identical
piggybacked/derived Lamport clocks, and therefore identical numerics.
"""

import pytest

from repro.replay import RecordSession, ReplaySession, assert_replay_matches
from repro.workloads import jacobi, mcb, synthetic


class TestMCB:
    @pytest.mark.parametrize("replay_seed", [2, 77])
    def test_replay_matches_across_seeds(self, mcb_record, replay_seed):
        cfg, program, record = mcb_record
        replayed = ReplaySession(program, record.archive, network_seed=replay_seed).run()
        assert_replay_matches(record, replayed)

    def test_tallies_bitwise_identical(self, mcb_record):
        cfg, program, record = mcb_record
        replayed = ReplaySession(program, record.archive, network_seed=31).run()
        for rank in range(cfg.nprocs):
            assert replayed.app_results[rank]["tally"] == record.app_results[rank]["tally"]

    def test_unreplayed_runs_actually_differ(self, mcb_record):
        """Sanity: the non-determinism CDC fights is real in our substrate."""
        cfg, program, record = mcb_record
        other = RecordSession(program, nprocs=cfg.nprocs, network_seed=999).run()
        assert other.observed_orders != record.observed_orders
        tallies_a = [record.app_results[r]["tally"] for r in range(cfg.nprocs)]
        tallies_b = [other.app_results[r]["tally"] for r in range(cfg.nprocs)]
        assert tallies_a != tallies_b

    def test_final_clocks_replay(self, mcb_record):
        """Theorem 2: piggyback clocks are replayable."""
        cfg, program, record = mcb_record
        replayed = ReplaySession(program, record.archive, network_seed=55).run()
        assert replayed.final_clocks == record.final_clocks

    @pytest.mark.parametrize("chunk_events", [8, 64])
    def test_small_chunks_exercise_epochs(self, chunk_events):
        cfg = mcb.MCBConfig(nprocs=6, particles_per_rank=25, seed=3)
        program = mcb.build_program(cfg)
        record = RecordSession(
            program, nprocs=6, network_seed=1, chunk_events=chunk_events
        ).run()
        assert len(record.archive.chunks(0)) > 1
        replayed = ReplaySession(program, record.archive, network_seed=17).run()
        assert_replay_matches(record, replayed)

    def test_replay_of_replay_seed_equals_record_seed(self, mcb_record):
        """Replaying under the *same* network seed is also exact."""
        cfg, program, record = mcb_record
        replayed = ReplaySession(program, record.archive, network_seed=4).run()
        assert_replay_matches(record, replayed)


class TestJacobi:
    @pytest.fixture(scope="class")
    def jacobi_record(self):
        cfg = jacobi.JacobiConfig(nprocs=6, cells_per_rank=24, iterations=40)
        program = jacobi.build_program(cfg)
        record = RecordSession(program, nprocs=6, network_seed=8).run()
        return program, record

    def test_replay_matches(self, jacobi_record):
        program, record = jacobi_record
        replayed = ReplaySession(program, record.archive, network_seed=9).run()
        assert_replay_matches(record, replayed)

    def test_checksum_identical(self, jacobi_record):
        program, record = jacobi_record
        replayed = ReplaySession(program, record.archive, network_seed=10).run()
        assert replayed.app_results[0]["checksum"] == record.app_results[0]["checksum"]


class TestSynthetic:
    def replay_matches(self, style, disorder, replay_assist):
        cfg = synthetic.SyntheticConfig(
            nprocs=8, messages_per_rank=10, fanout=2, disorder=disorder, poll_style=style
        )
        program = synthetic.build_program(cfg)
        record = RecordSession(
            program, nprocs=8, network_seed=21, chunk_events=16,
            replay_assist=replay_assist,
        ).run()
        assert all(
            (c.sender_sequence is not None) == replay_assist
            for c in record.archive.chunks(0)
        )
        replayed = ReplaySession(
            program, record.archive, network_seed=22,
            # a wedged assist-less replay spins on beacon retries
            engine_kwargs={"max_events": 20 * record.stats.total_events},
        ).run()
        assert_replay_matches(record, replayed)

    @pytest.mark.parametrize("style", ["testsome", "waitany"])
    @pytest.mark.parametrize("disorder", [0.0, 3.0])
    def test_replay_matches(self, style, disorder):
        self.replay_matches(style, disorder, replay_assist=True)

    @pytest.mark.parametrize("style", ["testsome", "waitany"])
    @pytest.mark.parametrize("disorder", [0.0, 3.0])
    def test_replay_matches_without_assist(self, style, disorder):
        """The same matrix on the paper-exact record: the LMC path."""
        self.replay_matches(style, disorder, replay_assist=False)

    def test_checksums_depend_on_order_without_replay(self):
        cfg = synthetic.SyntheticConfig(nprocs=8, messages_per_rank=10, disorder=3.0)
        program = synthetic.build_program(cfg)
        a = RecordSession(program, nprocs=8, network_seed=1).run()
        b = RecordSession(program, nprocs=8, network_seed=2).run()
        assert [a.app_results[r]["checksum"] for r in range(8)] != [
            b.app_results[r]["checksum"] for r in range(8)
        ]


class TestPersistence:
    def test_archive_roundtrips_through_disk_before_replay(self, tmp_path, mcb_record):
        from repro.replay import RecordArchive

        cfg, program, record = mcb_record
        directory = str(tmp_path / "record")
        record.archive.save(directory)
        loaded = RecordArchive.load(directory)
        replayed = ReplaySession(program, loaded, network_seed=42).run()
        assert_replay_matches(record, replayed)
