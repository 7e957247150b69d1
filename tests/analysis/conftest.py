"""Fixtures shared by the analysis tests."""

import pytest

from repro.replay.session import ReplaySession


@pytest.fixture
def replays(monkeypatch):
    """Counts ``ReplaySession.run`` calls: the open mode of each, in order."""
    calls = []
    real = ReplaySession.run

    def counted(session):
        calls.append(session.mode)
        return real(session)

    monkeypatch.setattr(ReplaySession, "run", counted)
    return calls
