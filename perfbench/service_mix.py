"""The ``service-mix`` workload: a closed loop against ``python -m repro.service``.

Two client threads (the server's default ``job_workers=2``) share one
seeded request plan.  Each client POSTs ``/v1/run``, reads the job's
``/stream`` to its ``end`` event -- never polling status to detect
completion -- and then makes one status GET for the resolve and wall
times.  Four in five requests name a small registered scenario at its
committed artifact's base seed (mostly resolution-cache hits, on the
small-n kernel and the fault path); one in five is an inline ``gnp``
scenario on a fresh topology seed, which misses the cache and pays the
exact-diameter cold compile.

The traced run replays the same plan in-process through
``JobManager.submit`` (untraced, then traced), so engine and dynamics
spans and the queue wait are visible; the HTTP pass supplies the
transport time.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import gc
import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Optional

from repro.experiments.scenarios import Scenario, get_scenario
from repro.service.jobs import TERMINAL_STATES, JobManager, JobSpec
from repro.service.protocol import RequestError, RunOverrides

import verify
from outcome import Outcome, median, peak_rss_mb, percentile
from trace_layers import Tracer, layer_metrics

#: Registered scenarios of the plan: broadcast, election, the decay
#: baseline, the clustered strategy, edge churn and jamming, all n <= 256.
REGISTERED = (
    "broadcast-path-n32",
    "broadcast-grid-n64",
    "broadcast-gnp-n256",
    "broadcast-grid-n256-clustered",
    "decay-broadcast-path-n32",
    "decay-broadcast-grid-n256",
    "election-complete-n32",
    "election-grid-n64",
    "broadcast-grid-n256-churn",
    "election-grid-n256-jam",
)

#: Seconds a client waits on one HTTP exchange before the job counts as
#: timed out.
REQUEST_TIMEOUT = 60.0


@dataclasses.dataclass(frozen=True)
class ServiceWorkload:
    name: str
    registered: tuple[str, ...]
    gnp_nodes: int
    gnp_edge_probability: float
    trials: int
    jobs_per_second: float
    clients: int = 2
    setup_reps: int = 5

    def plan(self, seed: int, seconds: float) -> list[dict[str, Any]]:
        """The request plan: a multiple of 25 jobs, every fifth inline.

        Registered scenarios follow one fixed round-robin order at their
        artifact's base seed, so every run has the same mix in the same
        order and the two clients meet the same contention pattern; the
        seed picks the fresh gnp topology (and trial) seeds.
        """
        blocks = max(1, round(seconds * self.jobs_per_second / 25))
        requests = []
        for index in range(25 * blocks):
            if index % 5 == 4:
                topology_seed = seed * 1000 + index // 5
                requests.append({
                    "label": f"gnp-{topology_seed}",
                    "scenario": {
                        "name": (
                            f"perfbench-gnp-n{self.gnp_nodes}-{topology_seed}"
                        ),
                        "description": "perfbench inline gnp",
                        "family": "gnp",
                        "topology_args": {
                            "num_nodes": self.gnp_nodes,
                            "edge_probability": self.gnp_edge_probability,
                            "seed": topology_seed,
                        },
                        "algorithm": "broadcast",
                    },
                    "seed": topology_seed,
                })
            else:
                name = self.registered[
                    (index - index // 5) % len(self.registered)
                ]
                requests.append({
                    "label": name, "scenario": name,
                    "seed": get_scenario(name).seed,
                })
        return requests


WORKLOAD = ServiceWorkload(
    name="service-mix", registered=REGISTERED, gnp_nodes=384,
    gnp_edge_probability=0.02, trials=2, jobs_per_second=11.0,
)


# -- the spawned server -------------------------------------------------
class Server:
    """One ``python -m repro.service`` child on an ephemeral port."""

    def __init__(self, root: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0"],
            stdout=subprocess.PIPE, env=env, cwd=root,
        )
        try:
            self.port = self._read_port(deadline=started + 60.0)
            while _request(self.port, "GET", "/healthz")[0] != 200:
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError("service did not start listening")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if ready:
                line = stdout.readline().decode("utf-8", "replace")
                if line.startswith("listening on "):
                    return int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _request(port: int, method: str, path: str, body=None):
    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=REQUEST_TIMEOUT
    )
    try:
        connection.request(
            method, path,
            body=None if body is None else json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


def _stream_end(port: int, job_id: str) -> dict:
    """Read a job's event stream until its ``end`` event."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=REQUEST_TIMEOUT
    )
    try:
        connection.request("GET", f"/v1/jobs/{job_id}/stream")
        response = connection.getresponse()
        for line in response:
            event = json.loads(line)
            if event.get("event") == "end":
                return event
        raise RuntimeError(f"stream of {job_id} closed before its end event")
    finally:
        connection.close()


# -- one job record per request ----------------------------------------
@dataclasses.dataclass
class JobRecord:
    index: int
    label: str
    latency: Optional[float] = None
    state: Optional[str] = None
    rejected: bool = False
    error: Optional[str] = None
    result: Optional[dict] = None
    resolve_outcome: Optional[str] = None
    resolve_seconds: Optional[float] = None
    wall_seconds: Optional[float] = None
    queue_wait: Optional[float] = None


def _http_job(port: int, trials: int, index: int, request) -> JobRecord:
    record = JobRecord(index=index, label=request["label"])
    body = {"scenario": request["scenario"], "seed": request["seed"],
            "trials": trials, "include_reference": False}
    started = time.perf_counter()
    try:
        status, reply = _request(port, "POST", "/v1/run", body)
        if status == 429:
            record.rejected = True
            record.error = "rejected (429)"
            return record
        if status != 200:
            record.error = f"POST /v1/run -> {status}: {reply}"
            return record
        end = _stream_end(port, reply["job"])
        record.latency = time.perf_counter() - started
        record.state = end["state"]
        record.result = end.get("result")
        record.error = end.get("error")
        _, job = _request(port, "GET", f"/v1/jobs/{reply['job']}")
        record.resolve_outcome = job["resolve"]["outcome"]
        record.resolve_seconds = job["resolve"]["seconds"]
        record.wall_seconds = job["wall_seconds"]
    except (OSError, http.client.HTTPException, ValueError, KeyError,
            RuntimeError) as error:
        record.error = f"{type(error).__name__}: {error}"
    return record


def _http_pass(port: int, workload, plan) -> tuple[list[JobRecord], float]:
    """Run the plan with ``workload.clients`` closed-loop client threads."""
    records: list[Optional[JobRecord]] = [None] * len(plan)
    pending = iter(enumerate(plan))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            index, request = item
            records[index] = _http_job(port, workload.trials, index, request)

    threads = [
        threading.Thread(target=client, name=f"perfbench-client-{i}")
        for i in range(workload.clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - started


def _scenario_of(request) -> Scenario:
    """A fresh scenario object per job, so traced spans map to the job."""
    value = request["scenario"]
    if isinstance(value, str):
        return dataclasses.replace(get_scenario(value))
    return Scenario.from_dict(value)


async def _in_process(workload, plan, tracer: Optional[Tracer]):
    manager = JobManager(job_workers=workload.clients)
    manager.start()
    records: list[Optional[JobRecord]] = [None] * len(plan)
    pending = iter(enumerate(plan))

    async def client() -> None:
        for index, request in pending:
            record = JobRecord(index=index, label=request["label"])
            records[index] = record
            scenario = _scenario_of(request)
            if tracer is not None:
                tracer.bind(scenario, f"job-{index}")
            spec = JobSpec(scenario=scenario, overrides=RunOverrides(
                trials=workload.trials, seed=request["seed"],
            ))
            started = time.perf_counter()
            try:
                job = manager.submit(spec)
            except RequestError as error:
                record.rejected = True
                record.error = str(error)
                continue
            while True:
                job.changed.clear()
                if job.state in TERMINAL_STATES:
                    break
                await job.changed.wait()
            record.latency = time.perf_counter() - started
            record.state = job.state
            record.result = job.result
            record.error = job.error
            record.resolve_outcome = job.resolve_outcome
            record.resolve_seconds = job.resolve_seconds
            record.wall_seconds = job.wall_seconds
            record.queue_wait = job.started_at - job.created_at

    started = time.perf_counter()
    try:
        await asyncio.gather(*(client() for _ in range(workload.clients)))
    finally:
        await manager.close()
    return records, time.perf_counter() - started


def _verify(workload, records, outcome: Outcome, artifacts, pass_name):
    """Check every job; returns the per-trial rounds of completed jobs."""
    first: dict[tuple, Any] = {}
    rounds = []
    for record in records:
        label = f"{pass_name} job {record.index} ({record.label})"
        if record.error is not None or record.state != "done":
            outcome.record(label, [
                record.error or f"ended in state {record.state!r}"
            ])
            continue
        per_trial = record.result["results"]["per_trial"]
        if record.label in artifacts:
            problems = verify.check_artifact_prefix(
                per_trial, artifacts[record.label]
            )
        else:
            problems = verify.check_payload(record.result, workload.trials)
        key = (record.label, record.result["trials"]["base_seed"])
        if key in first and first[key] != per_trial:
            problems.append("differs from an earlier identical request")
        first.setdefault(key, per_trial)
        outcome.record(label, problems)
        rounds.extend(per_trial["rounds"])
    return rounds


def _load_artifacts(root: Path, names) -> dict[str, dict]:
    artifacts = {}
    for name in names:
        with open(root / "benchmarks" / f"BENCH_{name}.json",
                  encoding="utf-8") as handle:
            artifacts[name] = json.load(handle)
    return artifacts


def _done(records):
    return [r for r in records if r.state == "done" and r.latency is not None]


def run(workload, seed: int, seconds: float, trace: bool,
        trace_path=None, root: Path = Path(".")) -> Outcome:
    outcome = Outcome()
    plan = workload.plan(seed, seconds)
    artifacts = _load_artifacts(root, workload.registered)

    setup_times = []
    server = None
    try:
        for rep in range(workload.setup_reps):
            server = Server(root)
            setup_times.append(server.setup_seconds)
            if rep < workload.setup_reps - 1:
                server.stop()
        records, wall = _http_pass(server.port, workload, plan)
    finally:
        if server is not None:
            server.stop()
    rounds = _verify(workload, records, outcome, artifacts, "http")
    done = _done(records)
    latencies = [r.latency for r in done]
    trials = workload.trials * len(done)
    outcome.metrics = {
        "setup_s": (median(setup_times), "s"),
        "trials_per_s": (trials / wall, "1/s"),
        "rounds_mean": (sum(rounds) / max(len(rounds), 1), "rounds"),
        "peak_rss_mb": (peak_rss_mb(children=True), "MB"),
        "jobs_per_s": (len(done) / wall, "1/s"),
        "job_p50_s": (median(latencies) if latencies else 0.0, "s"),
        "job_p95_s": (percentile(latencies, 0.95) if latencies else 0.0, "s"),
    }
    outcome.details = {
        "job": "one POST /v1/run, streamed to its end event",
        "jobs": len(plan),
        "job_samples": len(latencies),
        "samples_beyond_p95": sum(
            1 for value in latencies if value > outcome.metrics["job_p95_s"][0]
        ),
        "inline_jobs": sum(1 for r in plan if isinstance(r["scenario"], dict)),
        "rejected": sum(1 for r in records if r.rejected),
        "resolve_outcomes": dict(collections.Counter(
            str(r.resolve_outcome) for r in records
        )),
        "setup_samples": setup_times,
        "timed_wall_s": wall,
    }
    if not trace:
        return outcome

    gc.collect()
    baseline, baseline_wall = asyncio.run(_in_process(workload, plan, None))
    _verify(workload, baseline, outcome, artifacts, "in-process")
    tracer = Tracer()
    with tracer:
        traced, traced_wall = asyncio.run(_in_process(workload, plan, tracer))
    _verify(workload, traced, outcome, artifacts, "traced")
    traced_done = _done(traced)
    service = {
        "service.queue_wait_s": median([r.queue_wait for r in traced_done]),
        "service.resolve_hit_s": _median_or_zero(
            r.resolve_seconds for r in traced_done
            if r.resolve_outcome == "hit"
        ),
        "service.resolve_miss_s": _median_or_zero(
            r.resolve_seconds for r in traced_done
            if r.resolve_outcome in ("miss", "coalesced")
        ),
        "service.batch_s": median(
            [r.wall_seconds - r.resolve_seconds for r in traced_done]
        ),
        "service.transport_s": median(
            [r.latency - r.wall_seconds for r in done]
        ),
        "service.cache_hit_ratio": sum(
            1 for r in traced_done if r.resolve_outcome == "hit"
        ) / max(len(traced_done), 1),
        "service.rejected": sum(
            1 for r in records + baseline + traced if r.rejected
        ),
    }
    outcome.layers = layer_metrics(
        tracer, traced_wall / baseline_wall - 1.0, service
    )
    outcome.details["trace"] = {
        "absent": tracer.absent,
        "traced_wall_s": traced_wall,
        "untraced_in_process_wall_s": baseline_wall,
        "engine_children_s": tracer.children_of("engine.run"),
        "layers": tracer.layers(),
    }
    if trace_path is not None:
        tracer.dump(trace_path, {"workload": workload.name, "seed": seed})
    return outcome


def _median_or_zero(values) -> float:
    values = list(values)
    return median(values) if values else 0.0

