"""The fabric worker: an asyncio socket daemon serving job units.

``repro worker --listen HOST:PORT`` runs one of these.  The worker is
stateless between coordinator connections (re-adoption after a
coordinator crash is just a reconnect plus a matching handshake) and
keeps a runner cache keyed by fingerprint digest, so rebinding to the
same campaign skips the harness rebuild and its golden run.

Layout per connection:

* the **read loop** stays on the event loop and answers ``ping``
  frames immediately -- heartbeats flow even while a chunk crunches;
* **compute** runs in a single worker thread (one unit at a time, in
  lease order) so the socket never starves; results stream back as
  ``result`` frames carrying the measured compute seconds the
  coordinator's EWMA feeds on;
* a ``revoke`` frame (work stealing) drops not-yet-started units from
  the local queue; the unit already in flight finishes and its result
  is deduplicated coordinator-side;
* ``--shard-timeout`` arms the **hung-compute watchdog**: a unit that
  exceeds the deadline means the simulator itself is wedged (the
  in-process stall watchdogs should have fired first), and the only
  honest recovery is ``os._exit`` -- die loudly, let the host's
  service manager restart the daemon, let the coordinator requeue the
  chunk.  A quiet zombie would hold its lease forever.

The worker serves one coordinator at a time; a second connection gets
a ``busy`` rejection.  It never touches the checkpoint store -- only
the coordinator writes checkpoints, so worker crashes cannot tear the
store.  :mod:`repro.fabric.local` runs the same server on a listening
socket its parent bound before forking.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import socket
import time
from typing import Dict, List, Optional, Tuple

from repro.fabric.frames import FrameError, encode_frame, read_frame
from repro.fabric.jobs import get_job

__all__ = ["PROTOCOL_VERSION", "WorkerServer", "fingerprint_digest"]

#: Bump on any incompatible frame-sequence change; the handshake
#: rejects version skew before any work is exchanged.
PROTOCOL_VERSION = 1


def fingerprint_digest(fingerprint: Dict[str, object]) -> str:
    """Stable digest of a job fingerprint document (runner-cache key)."""
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint_diff(
    ours: Dict[str, object], theirs: Dict[str, object]
) -> List[str]:
    """The keys on which two fingerprint documents disagree."""
    return sorted(
        key for key in set(ours) | set(theirs)
        if ours.get(key) != theirs.get(key)
    )


class WorkerServer:
    """One listening fabric worker."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_timeout: Optional[float] = None,
        once: bool = False,
        name: Optional[str] = None,
        sock: Optional[socket.socket] = None,
    ) -> None:
        self.host = host
        self.port = port
        #: an already-listening socket to serve instead of binding.
        self.sock = sock
        self.shard_timeout = shard_timeout
        self.once = once
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self._runners: Dict[str, object] = {}
        self._busy = False
        self._server: Optional[asyncio.AbstractServer] = None
        self.served_connections = 0

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        if self.sock is not None:
            self._server = await asyncio.start_server(
                self._handle, sock=self.sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port
            )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            try:
                await self._server.serve_forever()
            except asyncio.CancelledError:
                pass

    def stop(self) -> None:
        if self._server is not None:
            self._server.close()

    # -- one coordinator connection -------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()

        async def send(message: Dict[str, object]) -> None:
            async with write_lock:
                writer.write(encode_frame(message))
                await writer.drain()

        try:
            if self._busy:
                await send({"type": "reject", "reason": "worker busy"})
                return
            self._busy = True
            try:
                await self._session(reader, send)
            finally:
                self._busy = False
                self.served_connections += 1
        except (FrameError, ConnectionError, OSError):
            pass  # coordinator died; drop the connection, keep listening
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if self.once and self._server is not None:
                self._server.close()

    async def _session(self, reader, send) -> None:
        # Handshake: hello/welcome, then init/bound (or reject).
        hello = await read_frame(reader)
        if hello is None or hello.get("type") != "hello":
            return
        if hello.get("version") != PROTOCOL_VERSION:
            await send({
                "type": "reject",
                "reason": (
                    f"protocol version mismatch: coordinator "
                    f"{hello.get('version')}, worker {PROTOCOL_VERSION}"
                ),
            })
            return
        await send({
            "type": "welcome", "version": PROTOCOL_VERSION,
            "worker": self.name, "pid": os.getpid(),
        })
        init = await read_frame(reader)
        if init is None or init.get("type") != "init":
            return
        runner = await self._bind(init, send)
        if runner is None:
            return
        await self._serve_units(reader, send, runner)

    async def _bind(self, init: Dict[str, object], send):
        """Validate the fingerprint and build (or reuse) the runner."""
        loop = asyncio.get_running_loop()
        try:
            job = get_job(str(init.get("job")))
            params = init.get("params") or {}
            ours = await loop.run_in_executor(
                None, lambda: job.fingerprint(params)
            )
        except Exception as exc:  # unknown job, malformed params
            await send({
                "type": "reject",
                "reason": f"cannot bind job: {type(exc).__name__}: {exc}",
            })
            return None
        theirs = init.get("fingerprint") or {}
        diff = fingerprint_diff(ours, theirs)
        if diff:
            await send({
                "type": "reject",
                "reason": (
                    f"fingerprint mismatch on {', '.join(diff)}: this "
                    f"worker computes different {job.name!r} results "
                    "(version skew?) and must not contribute to the report"
                ),
                "mismatch": diff,
                "fingerprint": ours,
            })
            return None
        digest = fingerprint_digest(ours)
        runner = self._runners.get(digest)
        cached = runner is not None
        if runner is None:
            try:
                runner = await loop.run_in_executor(
                    None, lambda: job.build(params)
                )
            except Exception as exc:
                await send({
                    "type": "reject",
                    "reason": f"runner build failed: "
                              f"{type(exc).__name__}: {exc}",
                })
                return None
            self._runners[digest] = runner
        await send({"type": "bound", "fingerprint": ours,
                    "cached": cached})
        return runner

    async def _serve_units(self, reader, send, runner) -> None:
        """Lease/revoke/ping loop plus the single compute consumer."""
        loop = asyncio.get_running_loop()
        queue: List[Tuple[int, object]] = []
        work = asyncio.Event()
        closing = False

        async def compute() -> None:
            while True:
                await work.wait()
                if closing:
                    return
                if not queue:
                    work.clear()
                    await send({"type": "idle"})
                    continue
                index, payload = queue.pop(0)
                started = time.perf_counter()
                future = loop.run_in_executor(None, runner, payload)
                try:
                    if self.shard_timeout is not None:
                        result = await asyncio.wait_for(
                            asyncio.shield(future), self.shard_timeout
                        )
                    else:
                        result = await future
                except asyncio.TimeoutError:
                    # Hung compute: the unit blew the worker-side
                    # watchdog deadline.  The thread cannot be killed,
                    # so the process dies loudly instead of zombieing.
                    os._exit(17)
                except Exception as exc:
                    await send({
                        "type": "error", "index": index,
                        "detail": f"{type(exc).__name__}: {exc}",
                    })
                    continue
                await send({
                    "type": "result", "index": index, "payload": result,
                    "seconds": time.perf_counter() - started,
                })

        consumer = asyncio.ensure_future(compute())
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return
                kind = frame.get("type")
                if kind == "ping":
                    await send({"type": "pong", "t": frame.get("t")})
                elif kind == "lease":
                    queue.extend(
                        (int(i), p) for i, p in frame.get("units", [])
                    )
                    work.set()
                elif kind == "revoke":
                    drop = {int(i) for i in frame.get("indices", [])}
                    queue[:] = [(i, p) for i, p in queue if i not in drop]
                    await send({"type": "revoked",
                                "indices": sorted(drop)})
                elif kind == "bye":
                    return
        finally:
            closing = True
            work.set()
            consumer.cancel()
            try:
                await consumer
            except (asyncio.CancelledError, Exception):
                pass


def serve(
    host: str,
    port: int,
    shard_timeout: Optional[float] = None,
    once: bool = False,
    on_ready=None,
) -> None:
    """Blocking entry point: serve until cancelled (the CLI verb)."""

    async def main() -> None:
        server = WorkerServer(
            host, port, shard_timeout=shard_timeout, once=once
        )
        bound_host, bound_port = await server.start()
        if on_ready is not None:
            on_ready(bound_host, bound_port)
        await server.serve_forever()

    asyncio.run(main())
