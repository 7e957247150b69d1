"""``import repro.obs`` loads what the core reports into, nothing else.

Every core module imports the package for ``get_registry`` / ``span``, so
the dashboard, the ledger and the bench-file loader are resolved on first
use (PEP 562 ``__getattr__`` in ``repro/obs/__init__.py``), not when the
package is imported, and no session or analysis import opens the network
stack.
"""

import subprocess
import sys

import repro.obs


def run(code: str) -> int:
    return subprocess.run([sys.executable, "-c", code]).returncode


def test_importing_the_sessions_leaves_the_server_and_the_dashboard_out():
    code = (
        "import sys, repro.replay.session, repro.analysis; "
        "loaded = [m for m in ('repro.obs.dashboard', 'repro.obs.ledger', "
        "'socket', 'selectors', 'asyncio') "
        "if m in sys.modules]; "
        "sys.exit(', '.join(loaded) or 0)"
    )
    assert run(code) == 0


def test_lazy_names_resolve_on_first_use():
    code = (
        "import sys, repro.obs as obs; "
        "assert 'repro.obs.dashboard' not in sys.modules; "
        "from repro.obs import build_dashboard, RunLedger; "
        "import repro.obs.dashboard; "
        "assert build_dashboard is repro.obs.dashboard.build_dashboard; "
        "assert obs.build_dashboard is build_dashboard"
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
