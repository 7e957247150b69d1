"""Fixtures shared by the analysis tests."""

import os

import pytest

from repro.replay.session import ReplaySession


class Replays:
    """The open mode of each ``ReplaySession.run`` call, in operand order.

    ``rehydrate_pair`` may replay operand B in a forked child while this
    process replays operand A (DESIGN.md §5.11), so the child's call is
    appended to a file both processes share, keyed by how many calls this
    process had made when the child forked: the call it sits beside is
    operand A of the same diff, and B is listed after it. The two replays
    run at once, so the order of their starts is not defined; the operand
    order is."""

    def __init__(self, path):
        self.pid, self.path, self.here = os.getpid(), path, []

    def count(self, mode):
        if os.getpid() == self.pid:
            self.here.append(mode)
            return
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{len(self.here)} {mode}\n".encode())
        finally:
            os.close(fd)

    def calls(self):
        forked = []
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                forked = [line.split() for line in fh]
        out = []
        for i, mode in enumerate(self.here):
            out += [mode] + [m for at, m in forked if int(at) == i]
        return out + [m for at, m in forked if int(at) >= len(self.here)]

    def __eq__(self, other):
        return self.calls() == list(other)

    def __iter__(self):
        return iter(self.calls())

    def __len__(self):
        return len(self.calls())

    def __repr__(self):
        return repr(self.calls())


@pytest.fixture
def replays(monkeypatch, tmp_path):
    """Counts ``ReplaySession.run`` calls: the open mode of each, operand A
    of a diff before operand B (:class:`Replays`)."""
    calls = Replays(str(tmp_path / "forked-replays"))
    real = ReplaySession.run

    def counted(session):
        calls.count(session.mode)
        return real(session)

    monkeypatch.setattr(ReplaySession, "run", counted)
    return calls
