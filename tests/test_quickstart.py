"""The quickstarts in the package docstrings run as written.

They rotted once (``build_program`` called with keywords, ``RecordSession``
without ``nprocs``, a ``RunResult`` handed to ``ReplaySession`` before it
took one), so they are extracted and executed here.
"""

import textwrap

import repro
import repro.replay.session as session
from repro.workloads import mcb


def literal_block(doc: str) -> str:
    """The first reST literal block (``::`` + indented lines) of ``doc``."""
    lines = doc.split("::\n", 1)[1].splitlines()
    body = []
    for line in lines:
        if line.strip() and not line.startswith("    "):
            break
        body.append(line)
    return textwrap.dedent("\n".join(body))


def test_package_quickstart_runs():
    namespace: dict = {}
    exec(literal_block(repro.__doc__), namespace)  # imports are in the block
    record, replayed = namespace["record"], namespace["replayed"]
    assert record.total_receive_events() > 0
    assert replayed.observed_orders == record.observed_orders


def test_session_module_example_runs():
    namespace = {**vars(session), "mcb": mcb}  # the module's own names
    exec(literal_block(session.__doc__), namespace)
    assert namespace["baseline"].mode == "baseline"
    assert namespace["replayed"].app_results == namespace["record"].app_results
