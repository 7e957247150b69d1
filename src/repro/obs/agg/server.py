"""The fleet telemetry aggregation server (``repro serve-telemetry``).

:class:`TelemetryAggregator` is a small asyncio TCP server speaking the
:mod:`repro.obs.agg.wire` frame protocol. All run/fleet logic lives in
:class:`~repro.obs.agg.state.FleetState`; the server only moves frames:

* shipping connections: ``hello`` -> ``welcome``, then sequenced
  ``delta``/``end`` frames folded into the fleet state, with
  one cumulative ``ack`` per read batch (acking the run's high-water
  ``seq``, so retransmitted duplicates still clear the client's buffer);
* query connections: ``query`` frames answered inline with ``reply``
  frames — the transport behind ``repro fleet status/alerts`` and
  ``repro monitor --remote``.

A protocol violation earns one ``error`` frame and a close; a dead
client just disconnects. Nothing a client sends can take the server
down — the per-connection handler catches its own failures.

:class:`AggregatorServer` wraps the aggregator in a background thread
with its own event loop (bind happens in ``start()``, so ``port=0``
callers can read the real port before any client connects) — what tests
and the in-process benchmark swarm use. :func:`query_aggregator` is the
synchronous query client the CLI verbs build on.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import Any, Mapping

from repro.obs.agg.state import FleetState
from repro.obs.agg.wire import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    encode_frame,
    validate_frame,
)

__all__ = [
    "AggregatorServer",
    "TelemetryAggregator",
    "query_aggregator",
]

_READ_SIZE = 1 << 16

_SERVER_NAME = "repro-fleet"


class TelemetryAggregator:
    """Asyncio TCP front end over a :class:`FleetState`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        state: FleetState | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.state = state if state is not None else FleetState()
        self.connections = 0
        self.protocol_errors = 0
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> "TelemetryAggregator":
        self._server = await asyncio.start_server(
            self._client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- per-connection handler ----------------------------------------------

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        decoder = FrameDecoder()
        run_id: str | None = None
        try:
            while True:
                data = await reader.read(_READ_SIZE)
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except FrameError as exc:
                    await self._bail(writer, str(exc))
                    return
                ack_seq = 0
                for frame in frames:
                    problems = validate_frame(frame)
                    if problems:
                        await self._bail(writer, "; ".join(problems))
                        return
                    kind = frame["type"]
                    if kind == "hello":
                        if int(frame.get("proto", -1)) != PROTOCOL_VERSION:
                            await self._bail(
                                writer,
                                f"protocol mismatch: client speaks "
                                f"{frame.get('proto')}, server "
                                f"{PROTOCOL_VERSION}",
                            )
                            return
                        run = self.state.apply_hello(frame)
                        run_id = run.run_id
                        writer.write(
                            encode_frame(
                                {
                                    "type": "welcome",
                                    "proto": PROTOCOL_VERSION,
                                    "server": _SERVER_NAME,
                                }
                            )
                        )
                    elif kind in ("delta", "end"):
                        if run_id is None:
                            await self._bail(
                                writer, f"{kind} frame before hello"
                            )
                            return
                        self.state.apply_frame(run_id, frame)
                        ack_seq = self.state.runs[run_id].last_seq
                    elif kind == "query":
                        writer.write(
                            encode_frame(
                                {
                                    "type": "reply",
                                    "what": frame["what"],
                                    "data": self._answer(frame),
                                }
                            )
                        )
                    else:
                        await self._bail(
                            writer, f"unexpected {kind} frame from a client"
                        )
                        return
                if ack_seq:
                    # one cumulative ack per batch: covers duplicates too,
                    # so a reconnecting shipper clears its buffer.
                    writer.write(encode_frame({"type": "ack", "seq": ack_seq}))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client went away; state keeps whatever was merged
        except asyncio.CancelledError:
            pass  # server shutting down mid-read; merged state survives
        finally:
            if run_id is not None:
                self.state.disconnect(run_id)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _bail(self, writer: asyncio.StreamWriter, message: str) -> None:
        self.protocol_errors += 1
        try:
            writer.write(encode_frame({"type": "error", "message": message}))
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    def _answer(self, frame: Mapping[str, Any]) -> dict[str, Any]:
        what = frame.get("what")
        if what == "fleet":
            return self.state.fleet_summary()
        if what == "alerts":
            return {"alerts": self.state.alerts(), "rules": self.state.rules}
        if what == "run":
            detail = self.state.run_detail(str(frame.get("run_id")))
            return detail if detail is not None else {"missing": True}
        # "server": liveness + ingest accounting
        return {
            "server": _SERVER_NAME,
            "proto": PROTOCOL_VERSION,
            "connections": self.connections,
            "protocol_errors": self.protocol_errors,
            "frames_received": self.state.frames_received,
            "runs": len(self.state.runs),
        }


class AggregatorServer:
    """A :class:`TelemetryAggregator` on a background thread.

    ``start()`` returns only after the socket is bound, so ``port=0``
    callers can hand ``self.port`` to shippers immediately. ``stop()``
    tears the loop down and joins the thread.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        state: FleetState | None = None,
    ) -> None:
        self.aggregator = TelemetryAggregator(host, port, state=state)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None
        self._bound = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def state(self) -> FleetState:
        return self.aggregator.state

    @property
    def host(self) -> str:
        return self.aggregator.host

    @property
    def port(self) -> int:
        return self.aggregator.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "AggregatorServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-fleet-server", daemon=True
        )
        self._thread.start()
        self._bound.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError(
                f"fleet server failed to start: {self._startup_error}"
            )
        if not self._bound.is_set():
            raise RuntimeError("fleet server did not bind within 10s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        self._stopping = asyncio.Event()
        try:
            await self.aggregator.start()
        except BaseException as exc:
            self._startup_error = exc
            self._bound.set()
            return
        self._bound.set()
        # start_server already accepts; just hold the loop open until stop()
        await self._stopping.wait()
        await self.aggregator.close()
        tasks = [
            t for t in asyncio.all_tasks() if t is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        if thread.is_alive():
            try:
                loop.call_soon_threadsafe(self._stopping.set)
            except RuntimeError:
                pass  # loop already torn down (startup failure)
        thread.join(timeout=10.0)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "AggregatorServer":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False


def query_aggregator(
    host: str,
    port: int,
    what: str,
    run_id: str | None = None,
    timeout: float = 5.0,
) -> dict[str, Any]:
    """One synchronous query round-trip (the CLI's transport).

    Raises ``ConnectionError`` when the server is unreachable or answers
    with an ``error`` frame.
    """
    frame: dict[str, Any] = {"type": "query", "what": what}
    if run_id is not None:
        frame["run_id"] = run_id
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.sendall(encode_frame(frame))
        decoder = FrameDecoder()
        while True:
            data = sock.recv(_READ_SIZE)
            if not data:
                raise ConnectionError(
                    "fleet server closed the connection without replying"
                )
            for obj in decoder.feed(data):
                if obj.get("type") == "reply":
                    data_obj = obj.get("data")
                    return data_obj if isinstance(data_obj, dict) else {}
                if obj.get("type") == "error":
                    raise ConnectionError(
                        f"fleet server refused the query: "
                        f"{obj.get('message')}"
                    )
