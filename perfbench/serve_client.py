"""The ``serve-store`` workload: one closed-loop client against ``repro serve``.

Set-up spawns ``repro serve --workers 1 --backend sqlite`` on a fresh store
and posts every plan of the warm pool once (cold: computed, then stored).
The timed phase sends one POST at a time, each after the previous one's
terminal ``result`` event: about nine in ten replay a pool plan (every task a
store hit, no worker touched), one in ten carries new tiny zoo tasks (daemon
dispatch plus store put).
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import oplists
from summary import host_probe_ms, process_tree, tree_peak_rss_mb

HOST = "127.0.0.1"
ANNOUNCE = re.compile(rb"repro campaign service on http://[^:]+:(\d+)")
START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class Response:
    """One HTTP exchange: status, timings and the SSE events received."""

    def __init__(self, status: int, ttfb_s: float, total_s: float, body: bytes) -> None:
        self.status = status
        self.ttfb_s = ttfb_s
        self.total_s = total_s
        self.body = body

    def events(self) -> List[Tuple[str, Any]]:
        out = []
        for frame in self.body.split(b"\n\n"):
            name = data = None
            for line in frame.split(b"\n"):
                if line.startswith(b"event: "):
                    name = line[7:].decode()
                elif line.startswith(b"data: "):
                    data = json.loads(line[6:])
            if name is not None:
                out.append((name, data))
        return out


def request(port: int, method: str, path: str, body: bytes = b"") -> Response:
    """Send one request on a fresh connection; time first byte and the end.

    For a campaign POST the end is the terminal ``result`` (or ``error``)
    event; the server closes the connection right after it.
    """
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    with socket.create_connection((HOST, port), timeout=REQUEST_TIMEOUT) as sock:
        started = time.perf_counter()
        sock.sendall(head + body)
        chunks = []
        ttfb = None
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            if ttfb is None:
                ttfb = time.perf_counter() - started
            chunks.append(chunk)
        total = time.perf_counter() - started
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    status_line = header.split(b"\r\n", 1)[0].split()
    status = int(status_line[1]) if len(status_line) > 1 else 0
    return Response(status, ttfb if ttfb is not None else total, total, payload)


def health(port: int) -> Dict[str, Any]:
    response = request(port, "GET", "/health")
    if response.status != 200:
        raise RuntimeError(f"GET /health answered {response.status}")
    return json.loads(response.body)


class Server:
    """A ``repro serve`` process on a fresh sqlite store in the work dir."""

    def __init__(self, root: Path, work: Path, env: Dict[str, str], trace: bool, tag: str) -> None:
        store = work / f"store-{tag}"
        self.spans_path = work / f"spans-{tag}.json" if trace else None
        serve_args = ["serve", "--workers", "1", "--backend", "sqlite",
                      "--store", str(store), "--host", HOST, "--port", "0"]
        if trace:
            command = [sys.executable, str(root / "perfbench" / "serve_launcher.py"),
                       str(self.spans_path), *serve_args]
        else:
            command = [sys.executable, "-m", "repro", *serve_args]
        self.log = open(work / f"server-{tag}.log", "wb")
        self.spawned_at = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=root, env=dict(env, PYTHONUNBUFFERED="1"),
            stdout=subprocess.PIPE, stderr=self.log,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        buffered = b""
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline()
                if not line:
                    break
                buffered += line
                match = ANNOUNCE.search(line)
                if match:
                    return int(match.group(1))
            elif self.process.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"repro serve did not start: {buffered[-500:]!r}")

    def rss_mb(self) -> float:
        return tree_peak_rss_mb(self.process.pid)

    def stop(self) -> Optional[list]:
        """SIGTERM, wait for a clean shutdown (kill if stuck); return spans."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                # A stuck shutdown: kill the daemon's workers with the server.
                for pid in reversed(process_tree(self.process.pid)):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.process.wait()
        self.process.stdout.close()
        self.log.close()
        if self.spans_path is not None and self.spans_path.exists():
            return json.loads(self.spans_path.read_text())
        return None


def campaign_failures(response: Response) -> Tuple[List[str], Optional[Dict[str, Any]]]:
    """Failures visible in one campaign response, and its result payload."""
    if response.status != 200:
        return [f"HTTP {response.status}"], None
    failures = []
    result = None
    try:
        events = response.events()
    except ValueError as error:
        return [f"unparseable event stream: {error}"], None
    for name, data in events:
        if name == "result":
            result = data
        elif name in ("failed", "error"):
            failures.append(f"{name} event: {data}")
    if result is None:
        failures.append("no result event")
    elif result["execution"]["failures"]:
        failures.append(f"task failures: {result['execution']['failures']}")
    return failures, result


def canonical_runsets(result: Dict[str, Any]) -> str:
    return json.dumps(result["runsets"], sort_keys=True)


def warm(server: Server, pool: List[Dict[str, Any]]) -> Tuple[List[str], List[str]]:
    """Post every pool plan cold; returns (canonical runsets, failures)."""
    cold = []
    failures = []
    for plan in pool:
        found, result = campaign_failures(request(server.port, "POST", "/campaigns",
                                                  json.dumps(plan).encode()))
        failures += [f"warm-up {plan['name']}: {f}" for f in found]
        cold.append(canonical_runsets(result) if result is not None else "")
    return cold, failures


def sim_records(result: Dict[str, Any]):
    for runset in result["runsets"].values():
        for record in runset["records"]:
            if record["engine"] == "sim":
                yield runset["scenario"], record


def run_serve(root: Path, work: Path, env: Dict[str, str], seed: int, seconds: float,
              trace: bool, setups: int, zero_load) -> Dict[str, Any]:
    """Set up ``setups`` servers (the last one serves the timed loop)."""
    pool = oplists.serve_pool(seed)
    setup_s = []
    span_sets = []
    report: Dict[str, Any] = {"failures": []}
    for index in range(setups):
        server = Server(root, work, env, trace, str(index))
        try:
            cold, failures = warm(server, pool)
            setup_s.append(time.monotonic() - server.spawned_at)
            report["failures"] += failures
            if index == setups - 1:
                timed = timed_loop(server, pool, cold, seed, seconds, trace, zero_load)
                report["failures"] += timed.pop("failures")
                report.update(timed)
                report["rss_mb"] = server.rss_mb()
        finally:
            spans = server.stop()
        if spans is not None:
            span_sets.append(spans)
    report["setup_s"] = setup_s
    report["span_sets"] = span_sets
    return report


def timed_loop(server, pool, cold, seed, seconds, trace, zero_load) -> Dict[str, Any]:
    ops = oplists.serve_ops(seed, oplists.SERVE_PASS_OPS * 20)
    before = health(server.port)
    op_reports = []
    failures = []
    probes = []
    hits = misses = 0
    occurrences: Dict[Any, int] = {}
    done_at = None
    started = time.monotonic()
    for index, (kind, item) in enumerate(ops):
        if index >= oplists.SERVE_PASS_OPS and time.monotonic() - started >= seconds:
            break
        # Each pool plan (and the writes) alternates traced/untraced, so both
        # halves carry the same request mix.
        key = item if kind == "replay" else kind
        traced = trace and occurrences.get(key, 0) % 2 == 0
        occurrences[key] = occurrences.get(key, 0) + 1
        plan = dict(pool[item] if kind == "replay" else item,
                    name=f"op-{index}-{'t' if traced else 'u'}")
        found: List[str] = []
        try:
            response = request(server.port, "POST", "/campaigns", json.dumps(plan).encode())
        except OSError as error:
            found.append(f"request failed: {error!r}")
            response = None
        msgs = 0
        if response is not None:
            found, result = campaign_failures(response)
            if result is not None:
                execution = result["execution"]
                hits += execution["cache_hits"]
                misses += execution["cache_misses"]
                records = list(sim_records(result))
                msgs = sum(record["metadata"]["measured_messages"] for _, record in records)
                if kind == "replay":
                    if canonical_runsets(result) != cold[item]:
                        found.append("replayed runsets differ from the cold response")
                    if execution["cache_misses"]:
                        found.append("replay missed the store")
                else:
                    found += check_write(plan, execution, records, zero_load)
        op_reports.append({
            "kind": key,
            "traced": traced,
            "failures": found,
            "ms": response.total_s * 1000.0 if response is not None else None,
            "ttfb_ms": response.ttfb_s * 1000.0 if response is not None else None,
            "msgs": msgs,
        })
        if index + 1 == oplists.SERVE_PASS_OPS:
            done_at = time.monotonic()
        probes.append(host_probe_ms())
    else:
        failures.append("op list exhausted before the run ended")
    after = health(server.port)
    return {
        "done_at": done_at,
        "ops": op_reports,
        "failures": failures,
        "probe_ms": probes,
        "hits": hits,
        "misses": misses,
        "dispatched": after["tasks_dispatched"] - before["tasks_dispatched"],
        "spawned_at": server.spawned_at,
    }


def check_write(plan, execution, records, zero_load) -> List[str]:
    """A write computes every task fresh and returns sane statistics."""
    found = []
    expected = sum(len(entry["scenario"]["offered_traffic"]) for entry in plan["entries"])
    if execution["cache_misses"] != expected:
        found.append(f"write computed {execution['cache_misses']} of {expected} tasks")
    budget = oplists.SERVE_WRITE_BUDGET["measured_messages"]
    for scenario, record in records:
        if record["metadata"]["measured_messages"] != budget:
            found.append(f"measured {record['metadata']['measured_messages']} != {budget}")
        if not record["latency"] >= zero_load(scenario):
            found.append(f"latency {record['latency']} below zero-load")
    return found
