"""Low-overhead sampling profiler for record/replay sessions.

cProfile is deterministic: it hooks every call and return, which costs
2-5x on the MF-heavy record hot path — exactly the perturbation
record/replay tooling must avoid (observing the run changes the
interleavings being recorded). :class:`SamplingProfiler` instead wakes a
daemon thread ``hz`` times a second, snapshots the target thread's stack
via :func:`sys._current_frames`, and folds it into a bounded
collapsed-stack table. Cost is O(stack depth) per sample regardless of
call rate, so overhead stays in the low single digits percent, and the
sampler's thread adds no calls to the profiled thread
(``tests/sim/test_hot_path_budget.py`` holds that count).

Exports:

* **collapsed stacks** — one ``frame;frame;frame count`` line per unique
  stack, root first (Brendan Gregg's flamegraph input format: pipe it
  through ``flamegraph.pl`` for an SVG);
* **speedscope JSON** — an ``evented``-free ``"sampled"`` profile that
  https://speedscope.app and compatible viewers open directly.

Wire into a session with ``RecordSession(..., profile=True)`` (or an
explicit :class:`SamplingProfiler`); the stopped profiler rides out on
``RunResult.profile``. Standalone use::

    prof = SamplingProfiler(hz=97)
    prof.start()
    ...work...
    prof.stop()
    prof.write_collapsed("profile.folded")
    prof.write_speedscope("profile.speedscope.json")
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Iterable, Mapping

__all__ = [
    "DEFAULT_HZ",
    "SamplingProfiler",
    "resolve_profiler",
    "validate_collapsed_stacks",
    "validate_speedscope",
]

#: default sampling rate. Prime, so the sampler does not phase-lock with
#: periodic work running at round-number frequencies.
DEFAULT_HZ = 97

#: bound on distinct folded stacks kept (memory ceiling ~ a few MB of
#: strings); further novel stacks are counted in ``dropped_stacks``.
DEFAULT_MAX_STACKS = 10_000


def _frame_label(frame) -> str:
    code = frame.f_code
    return f"{os.path.basename(code.co_filename)}:{code.co_name}"


class SamplingProfiler:
    """Thread-based stack sampler with bounded collapsed-stack folding.

    Samples the *target* thread (by default the thread that calls
    :meth:`start`) — the session engine runs in the caller's thread, so
    that is the record/replay hot path. Memory is bounded: at most
    ``max_stacks`` distinct stacks are kept, extras are tallied in
    :attr:`dropped_stacks` rather than grown without limit.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        max_stacks: int = DEFAULT_MAX_STACKS,
        max_depth: int = 128,
    ) -> None:
        if hz <= 0:
            raise ValueError("hz must be positive")
        if max_stacks <= 0:
            raise ValueError("max_stacks must be positive")
        self.hz = float(hz)
        self.max_stacks = int(max_stacks)
        self.max_depth = int(max_depth)
        self.folded: dict[str, int] = {}
        self.samples = 0
        self.dropped_stacks = 0
        self.duration_seconds = 0.0
        self._target_ident: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._started_ns = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self, target_ident: int | None = None) -> "SamplingProfiler":
        """Begin sampling ``target_ident`` (default: the calling thread)."""
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._target_ident = (
            threading.get_ident() if target_ident is None else target_ident
        )
        self._stop.clear()
        self._started_ns = time.perf_counter_ns()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling; idempotent. Totals are final after this returns."""
        thread = self._thread
        if thread is None:
            return self
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        self.duration_seconds += (
            time.perf_counter_ns() - self._started_ns
        ) / 1e9
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------------

    def _sample_loop(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            frame = sys._current_frames().get(self._target_ident)
            if frame is None:  # target thread exited
                continue
            self._record(frame)
            del frame

    def _record(self, frame) -> None:
        labels: list[str] = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            labels.append(_frame_label(frame))
            frame = frame.f_back
            depth += 1
        if not labels:
            return
        labels.reverse()  # root first, flamegraph convention
        key = ";".join(labels)
        self.samples += 1
        if key in self.folded:
            self.folded[key] += 1
        elif len(self.folded) < self.max_stacks:
            self.folded[key] = 1
        else:
            self.dropped_stacks += 1

    # -- exports -------------------------------------------------------------

    def collapsed_stacks(self) -> list[str]:
        """``frame;frame;frame count`` lines, heaviest stacks first."""
        return [
            f"{stack} {count}"
            for stack, count in sorted(
                self.folded.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]

    def write_collapsed(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.collapsed_stacks():
                fh.write(line + "\n")
        return path

    def speedscope_json(self, name: str = "repro sample") -> dict[str, Any]:
        """A speedscope ``"sampled"`` profile (open at speedscope.app)."""
        frame_index: dict[str, int] = {}
        frames: list[dict[str, str]] = []
        samples: list[list[int]] = []
        weights: list[int] = []
        for stack, count in sorted(
            self.folded.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            indexes = []
            for label in stack.split(";"):
                if label not in frame_index:
                    frame_index[label] = len(frames)
                    frames.append({"name": label})
                indexes.append(frame_index[label])
            samples.append(indexes)
            weights.append(count)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "none",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
            "exporter": "repro.obs.profiler",
            "name": name,
        }

    def write_speedscope(self, path: str, name: str = "repro sample") -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.speedscope_json(name), fh)
        return path

    def hotspots(self, top: int = 10) -> list[tuple[str, int]]:
        """(leaf frame, samples) pairs aggregated over all stacks."""
        leaves: dict[str, int] = {}
        for stack, count in self.folded.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        return sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))[:top]

    def render(self, top: int = 10) -> str:
        title = (
            f"sampling profile: {self.samples} samples @ {self.hz:g} Hz "
            f"over {self.duration_seconds:.2f}s"
        )
        lines = [title, "-" * len(title)]
        total = max(self.samples, 1)
        for leaf, count in self.hotspots(top):
            lines.append(f"{count / total * 100:5.1f}%  {count:>6}  {leaf}")
        if self.dropped_stacks:
            lines.append(
                f"(+{self.dropped_stacks} samples in stacks beyond the "
                f"{self.max_stacks}-stack bound)"
            )
        return "\n".join(lines)


def resolve_profiler(profile: Any) -> SamplingProfiler | None:
    """Session ``profile=`` coercion.

    ``None``/``False`` = off, ``True`` = default-rate sampler, a number =
    sampling rate in Hz, a :class:`SamplingProfiler` = use as-is.
    """
    if profile is None or profile is False:
        return None
    if profile is True:
        return SamplingProfiler()
    if isinstance(profile, (int, float)):
        return SamplingProfiler(hz=float(profile))
    if isinstance(profile, SamplingProfiler):
        return profile
    raise TypeError(
        f"profile must be None/bool/Hz/SamplingProfiler, got {profile!r}"
    )


def validate_collapsed_stacks(lines: Iterable[str]) -> list[str]:
    """Schema-check collapsed-stack lines; returns problem strings."""
    problems: list[str] = []
    count = 0
    for i, line in enumerate(lines):
        line = line.rstrip("\n")
        if not line:
            continue
        count += 1
        stack, sep, weight = line.rpartition(" ")
        if not sep or not stack:
            problems.append(f"line {i}: not 'stack count': {line!r}")
            continue
        if not weight.isdigit() or int(weight) <= 0:
            problems.append(f"line {i}: weight not a positive int: {weight!r}")
        if any(not part for part in stack.split(";")):
            problems.append(f"line {i}: empty frame in stack: {stack!r}")
    if count == 0:
        problems.append("no stack lines (empty profile)")
    return problems


def validate_speedscope(doc: Mapping[str, Any]) -> list[str]:
    """Schema-check a speedscope document; returns problem strings."""
    problems: list[str] = []
    frames = doc.get("shared", {}).get("frames")
    if not isinstance(frames, list):
        problems.append("shared.frames missing or not a list")
        frames = []
    for i, frame in enumerate(frames):
        if not isinstance(frame, dict) or not frame.get("name"):
            problems.append(f"frame {i} has no name")
    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        problems.append("profiles missing or empty")
        profiles = []
    for i, prof in enumerate(profiles):
        if prof.get("type") != "sampled":
            problems.append(f"profile {i}: type is not 'sampled'")
            continue
        samples = prof.get("samples", [])
        weights = prof.get("weights", [])
        if len(samples) != len(weights):
            problems.append(
                f"profile {i}: {len(samples)} samples vs {len(weights)} weights"
            )
        for j, sample in enumerate(samples):
            if any(
                not isinstance(ix, int) or not 0 <= ix < len(frames)
                for ix in sample
            ):
                problems.append(f"profile {i} sample {j}: frame index out of range")
                break
        if any(not isinstance(w, int) or w <= 0 for w in weights):
            problems.append(f"profile {i}: non-positive weight")
        if prof.get("endValue") != sum(weights):
            problems.append(f"profile {i}: endValue != sum(weights)")
    return problems
