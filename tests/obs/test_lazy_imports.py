"""``import repro.obs`` loads what the core reports into, nothing else.

Every core module imports the package for ``get_registry`` / ``span``, so
the ledger and the monitor are resolved on first use (PEP 562
``__getattr__`` in ``repro/obs/__init__.py``), not when the package is
imported, and no session or analysis import opens the network stack.
"""

import subprocess
import sys

import repro.obs


def run(code: str) -> int:
    return subprocess.run([sys.executable, "-c", code]).returncode


def test_importing_the_sessions_leaves_the_ledger_and_the_network_out():
    code = (
        "import sys, repro.replay.session, repro.analysis; "
        "loaded = [m for m in ('repro.obs.ledger', "
        "'socket', 'selectors', 'asyncio') "
        "if m in sys.modules]; "
        "sys.exit(', '.join(loaded) or 0)"
    )
    assert run(code) == 0


def test_lazy_names_resolve_on_first_use():
    code = (
        "import sys, repro.obs as obs; "
        "assert 'repro.obs.ledger' not in sys.modules; "
        "from repro.obs import RunLedger; "
        "import repro.obs.ledger; "
        "assert RunLedger is repro.obs.ledger.RunLedger; "
        "assert obs.RunLedger is RunLedger"
    )
    assert run(code) == 0


def test_every_exported_name_exists_and_nothing_else_is_invented():
    assert len(set(repro.obs.__all__)) == len(repro.obs.__all__)
    for name in repro.obs.__all__:
        assert getattr(repro.obs, name) is not None
    try:
        repro.obs.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("a missing attribute must stay an AttributeError")
