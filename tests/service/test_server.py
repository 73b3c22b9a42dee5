"""Tests of the asyncio SSE front-end (``repro-multicluster serve``).

The server under test runs in a background thread on an ephemeral port and
is exercised through real ``http.client`` connections — the same byte
stream a curl-driven CI job sees.  Model-only campaigns keep most tests off
the worker pool entirely (inexpensive engines run inline in the serving
executor thread); the one cold/warm simulation test at the end is the
end-to-end acceptance path through spawn workers and shared memory.
"""

import asyncio
import http.client
import json
import socket
import threading

import pytest

from repro import __version__, api
from repro.campaign import (
    Campaign,
    CampaignEntry,
    CampaignProgress,
    TaskCompleted,
    run_campaign,
)
from repro.model.parameters import MessageSpec
from repro.service import CampaignServer, WorkerDaemon
from repro.service.server import MAX_BODY_BYTES, event_name, event_payload
from repro.sim.config import SimulationConfig
from repro.store import ResultStore
from repro.topology.multicluster import MultiClusterSpec
from repro.utils.serialization import to_jsonable
from repro.utils.validation import ValidationError

TINY = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny")
WIDE = MultiClusterSpec(m=4, cluster_heights=(1, 1, 1, 1), name="wide")
FAST = SimulationConfig(measured_messages=300, warmup_messages=30, drain_messages=30, seed=3)


def scenario_for(system, *, traffic=(4e-4, 8e-4)) -> api.Scenario:
    return api.Scenario(
        system=system,
        message=MessageSpec(32, 256),
        offered_traffic=traffic,
        sim=FAST,
        name=system.name,
    )


def model_plan(*systems, traffic=(4e-4, 8e-4)) -> Campaign:
    return Campaign(
        entries=tuple(
            CampaignEntry(scenario=scenario_for(system, traffic=traffic), engines=("model",))
            for system in systems
        ),
        name="served",
    )


def strip_wall_clock(obj):
    if isinstance(obj, dict):
        return {k: strip_wall_clock(v) for k, v in obj.items() if k != "wall_clock_seconds"}
    if isinstance(obj, list):
        return [strip_wall_clock(v) for v in obj]
    return obj


class ServerHandle:
    """A CampaignServer running on its own event-loop thread."""

    def __init__(self, server: CampaignServer) -> None:
        self.server = server
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)

    def __enter__(self) -> "ServerHandle":
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(timeout=30)
        return self

    def __exit__(self, *exc_info) -> None:
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()
        self.server.daemon.shutdown()

    @property
    def port(self) -> int:
        return self.server.port

    def request(self, method: str, path: str, body=None):
        """One full HTTP exchange; returns (status, headers, body bytes)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=300)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()  # Connection: close — reads to EOF
            return response.status, dict(response.getheaders()), payload
        finally:
            conn.close()

    def raw_request(self, head: bytes):
        """Send raw request bytes; returns (status, body bytes) of the answer."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as conn:
            conn.sendall(head)
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        response = b"".join(chunks)
        status_line, _, rest = response.partition(b"\r\n")
        return int(status_line.split()[1]), rest.partition(b"\r\n\r\n")[2]

    def post_plan(self, campaign: Campaign):
        """POST a plan and parse the SSE stream into (name, payload) pairs."""
        status, headers, body = self.request(
            "POST", "/campaigns", json.dumps(campaign.to_dict())
        )
        assert status == 200
        assert headers["Content-Type"] == "text/event-stream"
        events = []
        for frame in body.decode("utf-8").strip().split("\n\n"):
            name = None
            data = []
            for line in frame.split("\n"):
                if line.startswith("event: "):
                    name = line[len("event: "):]
                elif line.startswith("data: "):
                    data.append(line[len("data: "):])
            events.append((name, json.loads("\n".join(data))))
        return events


@pytest.fixture
def handle():
    """A store-less model-only server: no workers ever spawn, so the fixture
    is cheap enough for per-test isolation of the served/active counters."""
    server = CampaignServer(WorkerDaemon(2), store=None)
    with ServerHandle(server) as running:
        yield running


class TestEventCodec:
    def test_event_names_cover_the_stream_vocabulary(self):
        progress = CampaignProgress(0, 4, 0, 0.0)
        assert event_name(progress) == "progress"
        assert event_payload(progress)["total"] == 4

    def test_completed_payload_carries_the_task_id(self):
        result = run_campaign(model_plan(TINY, traffic=(4e-4,)), store=None)
        record = result.runsets[0].records[0]
        from repro.campaign import CampaignExecutor

        task = CampaignExecutor(model_plan(TINY, traffic=(4e-4,)), store=None).tasks()[0]
        event = TaskCompleted(
            task=task, record=record, from_cache=False, done=1, total=1,
            elapsed_seconds=0.1,
        )
        payload = event_payload(event)
        assert event_name(event) == "completed"
        assert payload["task"]["task_id"] == "tiny:model:0"
        assert payload["record"]["lambda_g"] == pytest.approx(4e-4)


class TestHttpSurface:
    def test_health_reports_daemon_and_service_state(self, handle):
        status, headers, body = handle.request("GET", "/health")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert health["max_workers"] == 2
        assert health["campaigns_served"] == 0
        assert health["active_campaigns"] == 0
        assert health["store"] is None and health["store_backend"] is None

    def test_unknown_route_is_404_with_the_route_list(self, handle):
        status, _, body = handle.request("GET", "/nope")
        assert status == 404
        payload = json.loads(body)
        assert "/nope" in payload["error"]
        assert "POST /campaigns" in payload["routes"]

    def test_malformed_json_plan_is_400(self, handle):
        status, _, body = handle.request("POST", "/campaigns", "{not json")
        assert status == 400
        assert "error" in json.loads(body)

    def test_invalid_plan_is_400_not_a_crash(self, handle):
        status, _, body = handle.request("POST", "/campaigns", json.dumps({"x": 1}))
        assert status == 400
        assert "entries" in json.loads(body)["error"]

    @pytest.mark.parametrize("length", ["abc", "-5", "12x", "1_0", "\u00b2"])
    def test_malformed_content_length_is_400(self, handle, length):
        head = (
            f"POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n{{}}"
        ).encode("latin-1")
        status, body = handle.raw_request(head)
        assert status == 400
        assert "Content-Length" in json.loads(body)["error"]

    def test_oversized_body_is_413_without_reading_it(self, handle):
        # The declared body never arrives: the answer must not wait for it.
        head = (
            "POST /campaigns HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        ).encode("latin-1")
        status, body = handle.raw_request(head)
        assert status == 413
        assert str(MAX_BODY_BYTES) in json.loads(body)["error"]
        # The server keeps serving after rejecting the request.
        assert handle.request("GET", "/health")[0] == 200

    def test_rejected_plan_does_not_count_as_served(self, handle):
        handle.request("POST", "/campaigns", "{not json")
        assert json.loads(handle.request("GET", "/health")[2])["campaigns_served"] == 0


class TestCampaignStreaming:
    def test_stream_opens_with_progress_and_closes_with_the_result(self, handle):
        campaign = model_plan(TINY, WIDE)
        events = handle.post_plan(campaign)
        names = [name for name, _ in events]
        assert names[0] == "progress" and events[0][1]["done"] == 0
        assert names[-1] == "result"
        assert names.count("completed") == campaign.total_tasks
        task_ids = {payload["task"]["task_id"] for name, payload in events if name == "completed"}
        assert task_ids == {"tiny:model:0", "tiny:model:1", "wide:model:0", "wide:model:1"}

    def test_result_payload_matches_a_direct_run(self, handle):
        campaign = model_plan(TINY, WIDE)
        expected = run_campaign(campaign, store=None)
        events = handle.post_plan(campaign)
        result = dict(events)["result"]
        assert result["name"] == "served"
        assert result["labels"] == ["tiny", "wide"]
        assert result["execution"]["tasks"] == 4
        assert result["execution"]["cache_misses"] == 4
        assert result["execution"]["parallel"] is True
        assert result["execution"]["workers"] == 2
        assert result["execution"]["failures"] == []
        served = strip_wall_clock(result["runsets"])
        direct = strip_wall_clock(
            {label: to_jsonable(runset) for label, runset in expected}
        )
        assert served == direct

    def test_campaign_counters_track_the_stream(self, handle):
        handle.post_plan(model_plan(TINY, traffic=(4e-4,)))
        health = json.loads(handle.request("GET", "/health")[2])
        assert health["campaigns_served"] == 1
        assert health["active_campaigns"] == 0

    def test_concurrent_clients_each_get_a_complete_stream(self, handle):
        """Two clients multiplexed onto one daemon at the same time: each SSE
        stream must be complete and carry only its own campaign's tasks."""
        plans = {"tiny": model_plan(TINY), "wide": model_plan(WIDE)}
        streams = {}
        errors = []

        def client(key):
            try:
                streams[key] = handle.post_plan(plans[key])
            except Exception as error:  # noqa: BLE001 - surfaced via the list
                errors.append((key, error))

        threads = [threading.Thread(target=client, args=(key,)) for key in plans]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors
        for key, events in streams.items():
            names = [name for name, _ in events]
            assert names[-1] == "result"
            completed = [p for name, p in events if name == "completed"]
            assert len(completed) == plans[key].total_tasks
            assert all(p["task"]["task_id"].startswith(f"{key}:") for p in completed)
        health = json.loads(handle.request("GET", "/health")[2])
        assert health["campaigns_served"] == 2
        assert health["active_campaigns"] == 0


class TestServedSimulationCampaigns:
    def test_cold_then_warm_requests_round_trip_the_store(self, tmp_path):
        """The serving acceptance path: a cold POST simulates on the daemon's
        spawn workers, a warm re-POST answers entirely from the SQLite-backed
        store — identical records, no new worker dispatch."""
        campaign = Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY, traffic=(4e-4,)), engines=("sim",)),
                CampaignEntry(scenario=scenario_for(WIDE, traffic=(4e-4,)), engines=("sim",)),
            ),
            name="cold-warm",
        )
        store = ResultStore(tmp_path / "store", backend="sqlite")
        server = CampaignServer(WorkerDaemon(2), store=store)
        with ServerHandle(server) as handle:
            cold = dict(handle.post_plan(campaign))["result"]
            assert cold["execution"]["cache_misses"] == 2
            assert cold["execution"]["cache_hits"] == 0
            assert cold["execution"]["tasks_dispatched"] == 2
            assert cold["execution"]["store_backend"] == "sqlite"

            warm = dict(handle.post_plan(campaign))["result"]
            assert warm["execution"]["cache_hits"] == 2
            assert warm["execution"]["cache_misses"] == 0
            # Warm requests bypass the workers: nothing new was dispatched.
            assert warm["execution"]["tasks_dispatched"] == 2
            # Cached records are the cold run's bytes, wall clock included.
            assert warm["runsets"] == cold["runsets"]

            # And the daemon-served records match a clean sequential run.
            direct = run_campaign(campaign, store=None)
            assert strip_wall_clock(cold["runsets"]) == strip_wall_clock(
                {label: to_jsonable(runset) for label, runset in direct}
            )


class TestServerConstruction:
    def test_store_argument_validated(self):
        with pytest.raises(ValidationError, match="store"):
            CampaignServer(WorkerDaemon(1), store=123)

    def test_default_daemon_built_from_max_workers(self):
        server = CampaignServer(store=None, max_workers=3)
        try:
            assert server.daemon.max_workers == 3
        finally:
            server.daemon.shutdown()
