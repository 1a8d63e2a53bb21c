"""Integration tests for framed connections over real unix sockets.

Everything here runs an actual asyncio server in-process and talks to it
through the kernel's socket layer — no mocked streams — so partial
writes, torn frames, and connection cuts exercise the same code paths a
live swarm does.
"""

import asyncio
import pathlib
import tempfile

import pytest

from repro.net.connection import (
    ConnectionClosed,
    PeerConnection,
    ReconnectDialer,
    format_address,
    open_connection,
    parse_address,
)
from repro.net.framing import encode_frame


def test_parse_address_unix():
    assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")


def test_parse_address_tcp():
    assert parse_address("tcp:127.0.0.1:9000") == ("tcp", ("127.0.0.1", 9000))


@pytest.mark.parametrize("bad", ["", "udp:1:2", "unix:", "tcp:9000", "tcp:h"])
def test_parse_address_rejects(bad):
    with pytest.raises(ValueError):
        parse_address(bad)


def test_format_address_round_trips():
    for address in ("unix:/tmp/a.sock", "tcp:localhost:1234"):
        assert format_address(*parse_address(address)) == address


def _socket_path(directory):
    return f"unix:{pathlib.Path(directory) / 'peer.sock'}"


def test_send_receive_over_unix_socket():
    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)

            async def echo(reader, writer):
                connection = PeerConnection(reader, writer)
                message = await connection.receive()
                await connection.send({"echo": message})
                await connection.close()

            server = await asyncio.start_unix_server(
                echo, path=parse_address(address)[1]
            )
            client = await open_connection(address)
            await client.send({"type": "ping", "n": 1})
            reply = await client.receive()
            await client.close()
            server.close()
            await server.wait_closed()
            return reply

    assert asyncio.run(scenario()) == {"echo": {"type": "ping", "n": 1}}


def test_frame_split_across_writes_reassembles():
    """A frame dribbled out a few bytes per write still arrives whole."""

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)
            payload = {"type": "sync-batch", "frame": {"entries": list(range(50))}}

            async def dribble(reader, writer):
                data = encode_frame(payload)
                for i in range(0, len(data), 3):
                    writer.write(data[i:i + 3])
                    await writer.drain()
                    await asyncio.sleep(0)
                writer.close()

            server = await asyncio.start_unix_server(
                dribble, path=parse_address(address)[1]
            )
            client = await open_connection(address)
            message = await client.receive()
            await client.close()
            server.close()
            await server.wait_closed()
            return message == payload

    assert asyncio.run(scenario())


def test_junk_on_wire_then_frame():
    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)

            async def noisy(reader, writer):
                writer.write(b"\x00garbage\xff" + encode_frame({"ok": True}))
                await writer.drain()
                writer.close()

            server = await asyncio.start_unix_server(
                noisy, path=parse_address(address)[1]
            )
            client = await open_connection(address)
            message = await client.receive()
            junk = client.decoder.junk_bytes
            await client.close()
            server.close()
            await server.wait_closed()
            return message, junk

    message, junk = asyncio.run(scenario())
    assert message == {"ok": True}
    assert junk == len(b"\x00garbage\xff")


def test_connection_cut_mid_frame_flags_interruption():
    """EOF inside a frame raises ConnectionClosed with mid_frame set."""

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)

            async def cut(reader, writer):
                data = encode_frame({"type": "sync-batch", "big": "x" * 500})
                writer.write(data[: len(data) // 2])
                await writer.drain()
                writer.close()  # crash mid-transfer

            server = await asyncio.start_unix_server(
                cut, path=parse_address(address)[1]
            )
            client = await open_connection(address)
            try:
                await client.receive()
            except ConnectionClosed as error:
                return error.mid_frame
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
            return None

    assert asyncio.run(scenario()) is True


def test_clean_close_is_not_mid_frame():
    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)

            async def close_cleanly(reader, writer):
                writer.write(encode_frame({"bye": 1}))
                await writer.drain()
                writer.close()

            server = await asyncio.start_unix_server(
                close_cleanly, path=parse_address(address)[1]
            )
            client = await open_connection(address)
            first = await client.receive()
            try:
                await client.receive()
            except ConnectionClosed as error:
                return first, error.mid_frame
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
            return first, None

    first, mid_frame = asyncio.run(scenario())
    assert first == {"bye": 1}
    assert mid_frame is False


def test_receive_timeout():
    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)

            release, released = asyncio.Event(), asyncio.Event()

            async def silent(reader, writer):
                await release.wait()  # say nothing until the client is done
                writer.close()
                await writer.wait_closed()
                released.set()

            server = await asyncio.start_unix_server(
                silent, path=parse_address(address)[1]
            )
            client = await open_connection(address, read_timeout=0.05)
            try:
                await client.receive()
            except asyncio.TimeoutError:
                return True
            finally:
                await client.close()
                release.set()
                await asyncio.wait_for(released.wait(), timeout=5)
                server.close()
                await server.wait_closed()
            return False

    assert asyncio.run(scenario())


def test_reconnect_dialer_reaches_late_server():
    """The dialer retries through the peer-health tracker until the
    server shows up — the swarm-startup race, in miniature."""

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = _socket_path(tmp)
            holder = {}
            accepted = asyncio.Event()

            async def hang_up(reader, writer):
                writer.close()
                await writer.wait_closed()
                accepted.set()

            async def start_late():
                await asyncio.sleep(0.15)
                holder["server"] = await asyncio.start_unix_server(
                    hang_up, path=parse_address(address)[1]
                )

            starter = asyncio.ensure_future(start_late())
            dialer = ReconnectDialer(max_attempts=100)
            connection = await dialer.dial("peer", address)
            await asyncio.wait_for(accepted.wait(), timeout=5)
            await connection.close()
            await starter
            holder["server"].close()
            await holder["server"].wait_closed()
            return dialer.redials, dialer.attempts

    redials, attempts = asyncio.run(scenario())
    assert redials >= 1  # at least one dial failed before the bind
    assert attempts == redials + 1  # ... and exactly one succeeded


def test_reconnect_dialer_gives_up():
    async def scenario():
        dialer = ReconnectDialer(max_attempts=3)
        try:
            await dialer.dial("ghost", "unix:/nonexistent/definitely/not.sock")
        except ConnectionError:
            return dialer.attempts
        return None

    assert asyncio.run(scenario()) == 3


def test_dialer_records_outcomes_in_tracker():
    """Dial failures feed the PR-4 peer-health state machine."""

    async def scenario():
        dialer = ReconnectDialer(max_attempts=2)
        try:
            await dialer.dial("ghost", "unix:/nonexistent/nope.sock")
        except ConnectionError:
            pass
        return dialer.tracker.record("ghost").strikes

    assert asyncio.run(scenario()) >= 1
