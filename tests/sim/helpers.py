"""Run a program on the bare engine, for the simulator's own tests."""

from repro.sim import Engine, Network


def run_program(nprocs, program, network_seed=0, controller=None, **engine_kwargs):
    """Build a seeded network and an engine, run it; return (engine, stats)."""
    engine = Engine(
        nprocs, program, network=Network(seed=network_seed), controller=controller,
        **engine_kwargs,
    )
    return engine, engine.run()
