"""Low-overhead span tracing: ``with span("name", key=value): ...``.

A span measures one wall-clock interval and lands in the active
registry's trace buffer when it closes. Design constraints, in order:

* **Disabled is free.** When telemetry is off, :func:`span` returns one
  shared no-op context manager — no allocation, no clock read, nothing to
  garbage-collect. ``span("a") is span("b")`` holds, and tests assert it.
* **Nesting is structural.** One module-level depth counter (spans open
  and close on the engine's one thread); a span records the depth it
  opened at, so exporters (and the nesting tests)
  can verify that a child's interval lies inside its parent's without
  reconstructing a tree.
* **Exceptions still close the span** (the event is recorded with an
  ``error`` attribute naming the exception type) and propagate.

:func:`event` records an instant marker (zero duration), for things that
happen rather than last — a flush commit, a salvage decision.
"""

from __future__ import annotations

from typing import Any

from repro.obs.registry import get_registry

__all__ = ["NOOP_SPAN", "Span", "event", "span"]

#: how many recording spans are open right now.
_depth = 0


class Span:
    """A live, recording span. Use via :func:`span`, not directly."""

    __slots__ = ("_registry", "name", "attrs", "_t0_ns", "_span_depth")

    def __init__(self, registry, name: str, attrs: dict[str, Any]) -> None:
        self._registry = registry
        self.name = name
        self.attrs = attrs
        self._t0_ns = 0
        self._span_depth = 0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes mid-span (e.g. sizes known only at the end)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        global _depth
        self._span_depth = _depth
        _depth += 1
        self._t0_ns = self._registry.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _depth
        t1 = self._registry.clock()
        _depth = self._span_depth
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._registry.record_span(
            self.name,
            self._t0_ns,
            t1 - self._t0_ns,
            self._span_depth,
            self.attrs,
        )
        return False


class _NoopSpan:
    """The shared disabled span: enters, exits, records nothing."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: singleton returned by :func:`span` whenever telemetry is disabled.
NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs: Any) -> Span | _NoopSpan:
    """Open a trace span against the active registry (no-op when disabled)."""
    registry = get_registry()
    if not registry.enabled:
        return NOOP_SPAN
    return Span(registry, name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Record an instant (zero-duration) trace marker."""
    registry = get_registry()
    if not registry.enabled:
        return
    registry.record_span(
        name,
        registry.clock(),
        0,
        _depth,
        attrs,
        phase="i",
    )
