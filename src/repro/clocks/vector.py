"""Vector clocks, for the Section 4.3 scalability ablation.

The paper rejects vector clocks for CDC because the piggyback payload grows
linearly with the number of processes ("Vector clocks are not scalable").
We implement them anyway so the ablation benchmark can measure exactly that
growth and compare reference-order quality against Lamport clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VectorClock:
    """Per-process vector clock over ``nprocs`` processes.

    Component ``i`` counts events known to have happened at process ``i``.
    """

    rank: int
    nprocs: int
    components: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 <= self.rank < self.nprocs:
            raise ValueError(f"rank {self.rank} out of range for {self.nprocs} procs")
        if not self.components:
            self.components = [0] * self.nprocs
        elif len(self.components) != self.nprocs:
            raise ValueError("components length must equal nprocs")

    def on_send(self) -> tuple[int, ...]:
        """Tick own component and return the vector to piggyback."""
        self.components[self.rank] += 1
        return tuple(self.components)

    def on_receive(self, piggybacked) -> None:
        """Merge a piggybacked vector: component-wise max, then tick own."""
        if len(piggybacked) != self.nprocs:
            raise ValueError("piggybacked vector has wrong length")
        self.components = [
            max(mine, theirs) for mine, theirs in zip(self.components, piggybacked)
        ]
        self.components[self.rank] += 1

    def piggyback_bytes(self, bytes_per_component: int = 8) -> int:
        """Size of the piggyback payload — the Section 4.3 scalability cost."""
        return self.nprocs * bytes_per_component

    def happened_before(self, other: "VectorClock") -> bool:
        """Strict causal precedence: self < other component-wise."""
        le = all(a <= b for a, b in zip(self.components, other.components))
        lt = any(a < b for a, b in zip(self.components, other.components))
        return le and lt

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self.components)


def total_order_key(piggybacked, sender_rank: int) -> tuple:
    """Arbitrary total order over vector timestamps for reference ordering.

    Mirrors Definition 6's tie-breaking: sort by the vector's sum (a scalar
    proxy comparable to a Lamport value), then lexicographically by the
    vector, then by sender rank.
    """
    vec = tuple(piggybacked)
    return (sum(vec), vec, sender_rank)
