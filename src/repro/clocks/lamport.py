"""Lamport logical clocks (Definition 4 of the paper).

A :class:`LamportClock` follows the two update rules the paper relies on:

(i)  when a process sends a message it attaches its *current* clock value to
     the message and then increments the clock by 1;
(ii) when a process receives a message it sets its clock to the maximum of
     the piggybacked clock and its own clock, then increments by 1.

Two consequences drive CDC correctness and are enforced/tested here:

* a process's clock is monotonically non-decreasing;
* the sequence of clock values a given sender attaches to its messages is
  strictly increasing, which (together with MPI-level FIFO channels) makes
  the pair ``(sender rank, clock)`` a unique message identifier
  (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: batch size above which the closed-form numpy update beats the loop.
_VECTOR_THRESHOLD = 32


@dataclass
class LamportClock:
    """Per-process Lamport clock.

    Parameters
    ----------
    value:
        Initial clock value (0 in the paper's examples). A clock is a signed
        64-bit quantity (the paper's 8-byte piggyback): the batch receive rule
        does its arithmetic in int64, and the record format stores no clock
        at or past 2**60 (``repro.core.kernels.VALUE_LIMIT``, DESIGN.md §5.12).

    Examples
    --------
    >>> c = LamportClock()
    >>> c.on_send()
    0
    >>> c.on_receive(10)
    >>> c.value
    11
    """

    value: int = 0

    def on_send(self) -> int:
        """Apply send rule (i); return the clock value to piggyback."""
        attached = self.value
        self.value += 1
        return attached

    def on_receive(self, piggybacked: int) -> None:
        """Apply receive rule (ii) for a message carrying ``piggybacked``."""
        if piggybacked < 0:
            raise ValueError(f"piggybacked clock must be >= 0, got {piggybacked}")
        self.value = max(self.value, piggybacked) + 1

    def on_receive_batch(self, clocks) -> None:
        """Apply rule (ii) for every clock in ``clocks``, in order.

        Exactly equivalent to ``for c in clocks: self.on_receive(c)``:
        unrolling the recurrence ``v = max(v, c_i) + 1`` over ``k`` receives
        gives the closed form ``v_k = k + max(v_0, max_i(c_i - i))``, which
        vectorizes — one numpy pass instead of k method calls when a
        matching function delivers a large completion batch.
        """
        k = len(clocks)
        if k == 0:
            return
        if k >= _VECTOR_THRESHOLD:
            arr = np.asarray(clocks, dtype=np.int64)
            if arr.min() < 0:
                raise ValueError("piggybacked clock must be >= 0")
            peak = int((arr - np.arange(k, dtype=np.int64)).max())
            value = self.value
            self.value = k + (value if value > peak else peak)
            return
        value = self.value
        for clock in clocks:
            if clock < 0:
                raise ValueError(f"piggybacked clock must be >= 0, got {clock}")
            value = (value if value > clock else clock) + 1
        self.value = value

    def fork(self) -> "LamportClock":
        """Independent copy (used by tests comparing record/replay clocks)."""
        return LamportClock(self.value)
