"""Reference implementations the replayer is checked against.

These are *oracles*: code that used to be the production path and now
exists only so tests can assert a faster replacement gives the same
answer. They live under ``tests/`` on purpose — nothing on the import
path may call them, and they share no code with what they check.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.datatypes import ANY_SOURCE, ANY_TAG, Message, Request, RequestState


def filter_accepts(req: Request, msg: Message) -> bool:
    """Would this receive request's (source, tag) filter accept ``msg``?"""
    if not req.is_recv:
        return False
    if req.source != ANY_SOURCE and req.source != msg.src:
        return False
    if req.tag != ANY_TAG and req.tag != msg.tag:
        return False
    return True


def assign_slots_oracle(
    requests: Sequence[Request], messages: Sequence[Message]
) -> list[Request] | None:
    """``ReplayController._assign_slots`` as it stood before the
    first-descent rewrite: per message, sort the accepting slots
    specific-first, then a recursive backtracking bipartite matching.

    The body is that method verbatim; only the signature differs (it took
    the call and looked ``messages`` up in the callsite pool itself).
    """
    slots = [
        r
        for r in requests
        if r.is_recv and r.state in (RequestState.COMPLETED, RequestState.PENDING)
    ]
    candidates: list[list[int]] = []
    for msg in messages:
        accept = [i for i, s in enumerate(slots) if filter_accepts(s, msg)]
        # specific filters first, wildcards last
        accept.sort(key=lambda i: (slots[i].source == ANY_SOURCE, slots[i].tag == ANY_TAG))
        if not accept:
            return None
        candidates.append(accept)

    used: set[int] = set()
    chosen: list[int] = []

    def backtrack(k: int) -> bool:
        if k == len(messages):
            return True
        for i in candidates[k]:
            if i in used:
                continue
            used.add(i)
            chosen.append(i)
            if backtrack(k + 1):
                return True
            used.remove(i)
            chosen.pop()
        return False

    if not backtrack(0):
        return None
    return [slots[i] for i in chosen]
