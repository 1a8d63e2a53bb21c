"""The ``status`` control directive of a live ``repro serve`` node.

Runs a real :class:`~repro.net.server.NodeServer` in-process on a unix
socket and asks it for its summary document over a control connection.
"""

import asyncio
import pathlib
import tempfile

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario
from repro.net.connection import open_connection
from repro.net.server import PROTOCOL_VERSION, NodeServer, ServeConfig

SUMMARY_KEYS = {
    "node",
    "sim_now",
    "stored_items",
    "delivered_messages",
    "encounters",
    "evictions",
    "protocol",
}


def test_status_directive_reports_the_node_summary():
    experiment = ExperimentConfig(scale=0.25)
    node = sorted(build_scenario(experiment).nodes)[0]

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            address = f"unix:{pathlib.Path(tmp) / 'node.sock'}"
            server = NodeServer(
                ServeConfig(node=node, listen=address, experiment=experiment)
            )
            await server.start()
            serving = asyncio.ensure_future(server.serve_forever())
            connection = await open_connection(address)
            try:
                await connection.send({"type": "hello"})
                await connection.receive()
                await connection.send({"type": "status"})
                reply = await connection.receive()
                await connection.send({"type": "shutdown", "persist": False})
                await connection.receive()
            finally:
                await connection.close()
            await asyncio.wait_for(serving, timeout=10)
            return reply

    reply = asyncio.run(scenario())
    assert reply["type"] == "status-ok", reply
    document = reply["document"]
    assert document["kind"] == "serve"
    summary = document["summary"]
    assert set(summary) == SUMMARY_KEYS
    assert summary["node"] == node
    assert summary["delivered_messages"] == 0
    assert summary["protocol"] == PROTOCOL_VERSION
