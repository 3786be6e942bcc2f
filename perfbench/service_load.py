"""The ``service-mixed`` workload: ``repro serve`` under a closed-loop load.

One iteration starts ``repro serve`` in its own process (fresh queue and
cache directories, port 0, the service's own defaults except a rate limit
set above anything this loop can reach, so a 429 means the program
misbehaved).  Set-up is launch until ``/healthz`` answers.  Then two client
threads of this process each drive a closed loop over their own
connections: submit one single-point ad-hoc job (bench scale, Eq.-1 lws),
follow ``/jobs/{id}/events`` to the terminal frame, fetch ``/jobs/{id}``
and check its result against the expected results, and scrape
``/metrics`` every few jobs.

The job sequence comes from the seed and the iteration's index within the
run (each iteration of a run replays a different sequence, so a run's
medians do not hang on one interleaving).  The 60 points of the service
universe are shuffled and split between the clients; each client submits
each of its 30 points once (a miss, which writes the cache) and, in
between, 20 repeats of points it has already completed (deterministic
hits).  Every iteration therefore simulates the 60 points of its problem
seed (``common.problem_seed``: the problem data, and so every job hash,
differ between problem seeds), and its 100 jobs put 10 latency samples
beyond p90.  Hits are 40% rather than half, so the median falls among the
misses instead of on the gap between the two modes, where it would jump
from run to run.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import ROOT, problem_seed, proc_memory_mb
from expected import Expected, design_totals, service_points, service_request

CLIENTS = 2
#: Jobs per client per iteration: 30 new points, 20 repeats.
JOBS_PER_CLIENT = 50
#: Every this many jobs a client scrapes ``/metrics``.
SCRAPE_EVERY = 5
HOST = "127.0.0.1"
#: Rate limit far above the loop's peak submission rate.
RATE = "10000"
BURST = "10000"
#: Generous ceilings; a healthy iteration takes seconds.
START_TIMEOUT = 30.0
REQUEST_TIMEOUT = 60.0

#: The line ``repro serve`` logs once bound; the newline proves the port
#: number was written completely.
_LISTENING = re.compile(r"service listening .*port=(\d+)\n")


def client_sequences(seed: int, iteration: int = 0) -> List[List[Tuple[str, str]]]:
    """Each client's ``(problem, config)`` submissions, in order."""
    rng = random.Random(f"{seed}/{iteration}")
    points = service_points()
    rng.shuffle(points)
    sequences = []
    for client in range(CLIENTS):
        fresh = points[client::CLIENTS]
        repeats = JOBS_PER_CLIENT - len(fresh)
        kinds = [True] * len(fresh) + [False] * repeats
        rng.shuffle(kinds)
        kinds.remove(True)
        kinds.insert(0, True)            # a repeat needs a completed point
        sequence: List[Tuple[str, str]] = []
        pending = iter(fresh)
        for new in kinds:
            sequence.append(next(pending) if new else rng.choice(sequence))
        sequences.append(sequence)
    return sequences


# ----------------------------------------------------------------------
class Server:
    """``repro serve`` in a child process, on a port it picked."""

    def __init__(self, run_dir: Path, env: Dict[str, str]):
        self.log_path = run_dir / "serve.log"
        self._log = open(self.log_path, "w")
        self.launched = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", HOST, "--port", "0",
             "--queue-dir", str(run_dir / "service"),
             "--cache-dir", str(run_dir / "cache"),
             "--rate", RATE, "--burst", BURST],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=self._log)
        self.port: Optional[int] = None

    def wait_ready(self) -> float:
        """Block until ``/healthz`` answers; returns seconds since launch."""
        deadline = self.launched + START_TIMEOUT
        while self.port is None:
            match = _LISTENING.search(self.log_path.read_text())
            if match:
                self.port = int(match.group(1))
                break
            self._check_alive(deadline)
            time.sleep(0.002)
        while True:
            connection = self.connect()
            try:
                status, _ = request(connection, "GET", "/healthz")
                if status == 200:
                    return time.monotonic() - self.launched
            except OSError:
                pass
            finally:
                connection.close()
            self._check_alive(deadline)
            time.sleep(0.002)

    def _check_alive(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(f"repro serve exited with {self.process.returncode}: "
                               f"{self.log_path.read_text()[-2000:]}")
        if time.monotonic() > deadline:
            raise RuntimeError("repro serve did not become ready")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(HOST, self.port, timeout=REQUEST_TIMEOUT)

    def memory_mb(self) -> Dict[str, float]:
        return proc_memory_mb(self.process.pid)

    def stop(self) -> None:
        """Interrupt the server (as Ctrl-C would) and wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def request(connection: http.client.HTTPConnection, method: str, path: str,
            body: Optional[Dict] = None, client: str = "") -> Tuple[int, bytes]:
    headers = {"X-Client": client} if client else {}
    payload = None
    if body is not None:
        payload = json.dumps(body).encode()
        headers["Content-Type"] = "application/json"
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


def follow_events(server: Server, job_id: str) -> str:
    """Read the job's SSE stream up to its terminal frame; returns its name."""
    connection = server.connect()
    try:
        connection.request("GET", f"/jobs/{job_id}/events")
        response = connection.getresponse()
        if response.status != 200:
            raise RuntimeError(f"events: HTTP {response.status}")
        while True:
            line = response.readline()
            if not line:
                raise RuntimeError("event stream ended without a terminal frame")
            if line.startswith(b"event: "):
                name = line[7:].strip().decode()
                if name in ("done", "failed"):
                    return name
    finally:
        connection.close()


# ----------------------------------------------------------------------
def _client(server: Server, name: str, sequence, seed: int, expected: Expected,
            jobs: List[Dict]) -> None:
    connection = server.connect()
    try:
        for number, (problem, config) in enumerate(sequence, start=1):
            job: Dict[str, object] = {"point": f"{problem}/{config}"}
            jobs.append(job)
            posted_wall = time.time()
            posted = time.perf_counter()
            status, body = request(connection, "POST", "/jobs",
                                   service_request(problem, config, seed), name)
            job["submit_s"] = time.perf_counter() - posted
            if status != 202:
                job["error"] = f"POST /jobs: HTTP {status} {body[:200]!r}"
                continue
            job_id = json.loads(body)["job"]
            terminal = follow_events(server, job_id)
            job["latency_s"] = time.perf_counter() - posted
            status, body = request(connection, "GET", f"/jobs/{job_id}")
            if status != 200:
                job["error"] = f"GET /jobs/{job_id}: HTTP {status}"
                continue
            record = json.loads(body)
            if terminal != "done" or record["state"] != "done":
                job["error"] = f"job {job_id} {record['state']}: {record['error']}"
                continue
            job["queue_wait_s"] = record["started"] - posted_wall
            job["execute_s"] = record["finished"] - record["started"]
            job["hits"] = record["result"]["stats"]["cache_hits"]
            job["total"] = record["result"]["stats"]["total"]
            results = [entry["result"] for entry in record["result"]["results"]]
            job["results"] = results
            problems = [problem for problem in
                        (expected.check(seed, result) for result in results) if problem]
            if len(results) != 1:
                problems.append(f"job {job_id}: {len(results)} results, expected 1")
            if problems:
                job["error"] = "; ".join(problems)
            if number % SCRAPE_EVERY == 0:
                scraped = time.perf_counter()
                status, body = request(connection, "GET", "/metrics")
                job["scrape_s"] = time.perf_counter() - scraped
                job["scrape_bytes"] = len(body)
                if status != 200:
                    job["error"] = f"GET /metrics: HTTP {status}"
    except (OSError, RuntimeError, ValueError, KeyError) as error:
        # The client stops; its current job and every unsent one are failed.
        if jobs and "error" not in jobs[-1]:
            jobs[-1]["error"] = f"{name}: {type(error).__name__}: {error}"
    finally:
        connection.close()


def run_iteration(seed: int, iteration: int, run_dir: Path, env: Dict[str, str],
                  setup_only: bool = False) -> Dict[str, object]:
    """One server lifetime: set-up, and unless ``setup_only`` the loop."""
    server = Server(run_dir, env)
    try:
        setup_s = server.wait_ready()
        if setup_only:
            return {"setup_s": setup_s}
        pseed = problem_seed(seed)
        expected = Expected.load("service-points")
        per_client: List[List[Dict]] = [[] for _ in range(CLIENTS)]
        threads = [threading.Thread(
            target=_client, args=(server, f"perfbench-{index}", sequence, pseed,
                                  expected, per_client[index]))
            for index, sequence in enumerate(client_sequences(seed, iteration))]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - started
        memory = server.memory_mb()
    finally:
        server.stop()
    jobs = [job for client_jobs in per_client for job in client_jobs]
    done = [job for job in jobs if "error" not in job]
    unique: Dict[str, Dict] = {}
    for job in done:
        for result in job["results"]:
            unique.setdefault(result["job_hash"], result)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        # A job whose result is wrong still completed: its latency counts.
        "latencies": [job["latency_s"] for job in jobs if "latency_s" in job],
        "peak_rss_mb": memory["VmHWM"],
        "rss_mb": memory["VmRSS"],
        "jobs": len(done),
        "winst": sum(result["counters"]["warp_instructions"]
                     for result in unique.values()),
        "design": design_totals(list(unique.values())),
        "attempted": CLIENTS * JOBS_PER_CLIENT,
        "failed": CLIENTS * JOBS_PER_CLIENT - len(done),
        "mismatches": [job["error"] for job in jobs if "error" in job],
        "submit_s": [job["submit_s"] for job in done],
        "queue_wait_s": [job["queue_wait_s"] for job in done],
        "execute_s": [job["execute_s"] for job in done],
        "hits": sum(job["hits"] for job in done),
        "lookups": sum(job["total"] for job in done),
        "scrape_s": [job["scrape_s"] for job in done if "scrape_s" in job],
        "scrape_bytes": [job["scrape_bytes"] for job in done if "scrape_bytes" in job],
    }
