"""The HTTP side of a run: the ``repro serve`` process and a closed-loop client.

The client holds at most two connections, one per core of the reference
machine: a *streamer* that submits a fresh-seed campaign over
``POST /campaigns`` and reads its NDJSON row stream, and a *reader* that
cycles through store reads and waits for each reply before sending the next
(a closed loop: a slow server receives less load).  The campaign's commits
bump the store generation, which invalidates the service's ETag and response
caches the reader then goes through.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

#: Distinct ``limit`` values the reader rotates through: more query bodies
#: than the service's 64-entry response cache holds.
QUERY_LIMITS = tuple(range(1, 73))

AGGREGATE_GROUPINGS = ("protocol", "adversary", "protocol,adversary", "dimension,fault_bound")

READ_ROUTES = ("/store/query", "/store/aggregate", "/store/stats")

#: The reader's request cycle.  Queries are four of every seven reads, so the
#: median read falls inside the query latencies rather than in the gap between
#: the fast routes (stats, 304 revalidation) and the slow ones.
READ_CYCLE = ("query", "aggregate", "query", "stats", "query", "revalidate", "query")

_READY = re.compile(r"on http://([^:\s]+):(\d+)")


class ServerProcess:
    """``python -m repro.cli serve`` on an ephemeral port, in its own process."""

    def __init__(self, store: Path, log: Path, workers: int) -> None:
        self.log = log
        self._log_handle = log.open("w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(store), "--port", "0",
             "--workers", str(workers)],
            stdout=self._log_handle,
            stderr=subprocess.STDOUT,
        )
        self.host = ""
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _READY.search(self.log.read_text())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self.log.read_text()}")
            time.sleep(0.01)
        raise RuntimeError("server did not print its readiness line in time")

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
        self._log_handle.close()


def get(connection: http.client.HTTPConnection, path: str,
        headers: dict[str, str] | None = None) -> tuple[int, bytes, dict[str, str]]:
    connection.request("GET", path, headers=headers or {})
    response = connection.getresponse()
    body = response.read()
    return response.status, body, {key.lower(): value for key, value in response.getheaders()}


@dataclass
class ReaderStats:
    latencies_ms: list[float] = field(default_factory=list)
    #: The :data:`READ_CYCLE` kind of each latency sample.
    kinds: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    revalidations: int = 0
    not_modified: int = 0
    active_s: float = 0.0
    errors: list[str] = field(default_factory=list)


def read_loop(server: ServerProcess, protocol: str, count: int, stats: ReaderStats) -> None:
    """Make ``count`` closed-loop reads on one connection; ``stats`` accumulates."""
    connection = server.connection()
    etags: dict[str, str] = {}
    started = time.perf_counter()
    try:
        for turn in range(stats.attempted, stats.attempted + count):
            kind = READ_CYCLE[turn % len(READ_CYCLE)]
            headers: dict[str, str] = {}
            if kind == "query":
                path = f"/store/query?protocol={protocol}&limit={QUERY_LIMITS[turn % len(QUERY_LIMITS)]}"
            elif kind == "aggregate":
                grouping = AGGREGATE_GROUPINGS[turn % len(AGGREGATE_GROUPINGS)]
                path = f"/store/aggregate?group_by={grouping}&protocol={protocol}"
            elif kind == "stats":
                path = "/store/stats"
            else:
                path = f"/store/query?protocol={protocol}"
                if path in etags:
                    headers["If-None-Match"] = etags[path]
                    stats.revalidations += 1
            stats.attempted += 1
            sent = time.perf_counter()
            try:
                status, _body, response_headers = get(connection, path, headers)
            except (OSError, http.client.HTTPException) as error:
                stats.failed += 1
                stats.errors.append(f"{path}: {type(error).__name__}: {error}")
                connection.close()
                connection = server.connection()
                continue
            stats.latencies_ms.append((time.perf_counter() - sent) * 1000.0)
            stats.kinds.append(kind)
            if status == 304:
                stats.not_modified += 1
            elif status != 200:
                stats.failed += 1
                stats.errors.append(f"{path}: HTTP {status}")
            if "etag" in response_headers:
                etags[path] = response_headers["etag"]
    finally:
        stats.active_s += time.perf_counter() - started
        connection.close()


@dataclass
class StreamStats:
    lines: list[str] = field(default_factory=list)
    campaigns: int = 0
    expected_rows: int = 0
    stream_s: float = 0.0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def stream_campaign(server: ServerProcess, trials: Sequence[dict], stats: StreamStats) -> None:
    """Submit one campaign and read its NDJSON row stream to the end."""
    connection = server.connection()
    body = json.dumps({"campaign": {"name": f"stream-{stats.campaigns}", "trials": list(trials)}})
    started = time.perf_counter()
    try:
        connection.request(
            "POST", "/campaigns", body=body,
            headers={"Content-Type": "application/json", "X-Api-Key": "perfbench"},
        )
        response = connection.getresponse()
        accepted = json.loads(response.read() or b"{}")
        if response.status != 202:
            raise http.client.HTTPException(f"POST /campaigns: HTTP {response.status} {accepted}")
        connection.request("GET", accepted["rows_url"])
        response = connection.getresponse()
        if response.status != 200:
            response.read()
            raise http.client.HTTPException(f"GET rows: HTTP {response.status}")
        stats.lines.extend(line.decode("utf-8").rstrip("\n") for line in response if line.strip())
    except (OSError, http.client.HTTPException, ValueError) as error:
        stats.failed += 1
        stats.errors.append(f"stream: {type(error).__name__}: {error}")
    finally:
        connection.close()
    stats.stream_s += time.perf_counter() - started
    stats.expected_rows += len(trials)
    stats.campaigns += 1


def scrape_prometheus(server: ServerProcess) -> dict[str, dict[tuple, float]]:
    """``/metrics?format=prometheus`` as ``{sample name: {labels: value}}``."""
    connection = server.connection()
    try:
        status, body, _ = get(connection, "/metrics?format=prometheus")
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered HTTP {status}")
    samples: dict[str, dict[tuple, float]] = {}
    for line in body.decode("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, label_text = head.partition("{")
        labels = tuple(sorted(re.findall(r'(\w+)="([^"]*)"', label_text)))
        samples.setdefault(name, {})[labels] = float(value)
    return samples
