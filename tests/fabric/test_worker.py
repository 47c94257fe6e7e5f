"""WorkerServer unit tests: the fingerprint-keyed runner cache."""

import asyncio

from repro.fabric import JobKind, WorkerServer, register_job
from repro.fabric.frames import encode_frame, read_frame
from repro.fabric.worker import PROTOCOL_VERSION

built = []


def _build(params):
    built.append(params)
    return lambda payload: payload


register_job(JobKind(
    name="cache-probe",
    build=_build,
    fingerprint=lambda params: {"kind": "cache-probe", "rev": params["rev"]},
))


async def _bind(host, port, rev):
    """One coordinator connection: handshake, read ``bound``, say bye."""
    reader, writer = await asyncio.open_connection(host, port)

    async def send(message):
        writer.write(encode_frame(message))
        await writer.drain()

    await send({"type": "hello", "version": PROTOCOL_VERSION})
    assert (await read_frame(reader))["type"] == "welcome"
    await send({
        "type": "init", "job": "cache-probe", "params": {"rev": rev},
        "fingerprint": {"kind": "cache-probe", "rev": rev},
    })
    bound = await read_frame(reader)
    await send({"type": "bye"})
    writer.close()
    await writer.wait_closed()
    return bound


def test_rebind_with_same_fingerprint_reuses_the_runner():
    """A replacement coordinator (same campaign) finds the runner cached;
    a different fingerprint builds a new one."""

    async def main():
        server = WorkerServer("127.0.0.1", 0)
        host, port = await server.start()
        bounds = []
        for rev in ("r1", "r1", "r2"):
            served = server.served_connections
            bounds.append(await _bind(host, port, rev))
            while server.served_connections == served:  # worker idle again
                await asyncio.sleep(0.01)
        server.stop()
        return bounds

    del built[:]
    first, rebind, other = asyncio.run(main())
    assert [b["type"] for b in (first, rebind, other)] == ["bound"] * 3
    assert first["cached"] is False
    assert rebind["cached"] is True
    assert other["cached"] is False
    assert built == [{"rev": "r1"}, {"rev": "r2"}]
