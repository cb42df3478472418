"""The in-process simulation workloads: ``path-replay`` and ``grid-decoupled``.

Both broadcast from node 0 through the public registry entry point
(``DEFAULT_ALGORITHMS.run_batch``) on a topology compiled once by
``prepare_scenario``.  The work of a run is fixed by ``(seed, seconds)``
alone: ``seconds`` sets the number of seed batches through a constant
rate calibrated on a 2-core x86-64 host, and ``seed`` sets the trial
seeds, so two runs at one seed simulate exactly the same trials however
fast the program is.
"""

from __future__ import annotations

import dataclasses
import gc
import time
import traceback
from typing import Any, Mapping, Optional

from repro.api import DEFAULT_ALGORITHMS
from repro.experiments.bench import prepare_scenario
from repro.experiments.scenarios import Scenario

import verify
from outcome import Outcome, median, peak_rss_mb, percentile
from trace_layers import Tracer, layer_metrics

#: The seed whose per-trial outcome series ``pinned.json`` records.
DEFAULT_SEED = 0


@dataclasses.dataclass(frozen=True)
class SimWorkload:
    """One broadcast regime, run as ``batches(seconds)`` seed batches."""

    name: str
    family: str
    topology_args: Mapping[str, Any]
    strategy: str
    rng: str
    trials_per_batch: int
    batches_per_second: float
    setup_reps: int = 7

    def scenario(self) -> Scenario:
        return Scenario(
            name=self.name,
            description=f"perfbench {self.name}",
            family=self.family,
            topology_args=dict(self.topology_args),
            algorithm="broadcast",
            strategy=self.strategy,
            rng=self.rng,
            engine="sparse",
        )

    def batch_seeds(self, seed: int, seconds: float) -> list[list[int]]:
        """Trial seeds, batch by batch; prefix-stable in ``seconds``."""
        batches = max(1, round(seconds * self.batches_per_second))
        base = seed * 100_000
        return [
            [base + batch * self.trials_per_batch + trial
             for trial in range(self.trials_per_batch)]
            for batch in range(batches)
        ]


WORKLOADS = {
    # n = D + 1: long, thin runs (~15k rounds over a frontier of a few
    # nodes) where per-round fixed cost, replay draw refills and the
    # all-edges kernel at ~1 % transmit density dominate.
    "path-replay": SimWorkload(
        name="path-replay", family="path",
        topology_args={"num_nodes": 2048}, strategy="clustered",
        rng="replay", trials_per_batch=2, batches_per_second=0.1,
    ),
    # A wide frontier (~4.3k rounds, n = 16384): the transmitter kernel
    # and counter-hash draws dominate; replay draws and the all-edges
    # kernel are bypassed.
    "grid-decoupled": SimWorkload(
        name="grid-decoupled", family="grid",
        topology_args={"rows": 128, "cols": 128}, strategy="skeleton",
        rng="decoupled", trials_per_batch=2, batches_per_second=0.25,
    ),
}


def _setup(workload: SimWorkload):
    # Each repetition starts from the same heap state, so an earlier
    # repetition's garbage is not collected inside a later one's timing.
    gc.collect()
    started = time.perf_counter()
    prepared = prepare_scenario(workload.scenario())
    return prepared, time.perf_counter() - started


def _timed_phase(
    prepared, batches, outcome: Outcome, tracer: Optional[Tracer] = None
):
    """Run every batch; returns (results, per-batch seconds, wall)."""
    scenario = prepared.scenario
    config = prepared.config.replace(
        backend="vectorized", parameters=prepared.parameters
    )
    results, latencies = [], []
    started = time.perf_counter()
    for index, seeds in enumerate(batches):
        if tracer is not None:
            tracer.set_run(f"batch-{index}")
        batch_started = time.perf_counter()
        try:
            batch = DEFAULT_ALGORITHMS.run_batch(
                scenario.algorithm, prepared.graph, seeds=seeds,
                config=config, spontaneous=scenario.spontaneous,
            )
        except Exception:
            # A failed batch fails each of its trials; keep measuring.
            for seed in seeds:
                outcome.record(f"seed {seed}", [traceback.format_exc()])
            continue
        latencies.append(time.perf_counter() - batch_started)
        results.extend(batch)
    return results, latencies, time.perf_counter() - started


def _check(workload, prepared, seed, results, outcome: Outcome, pinned):
    num_nodes = prepared.graph.num_nodes
    budget = prepared.parameters.total_rounds
    for index, result in enumerate(results):
        outcome.record(
            f"{workload.name} trial {index}",
            verify.check_trial(result, num_nodes, budget),
        )
    if seed == DEFAULT_SEED and workload.name in pinned:
        problems = verify.check_pinned(
            verify.outcome_series(results), pinned[workload.name]
        )
        if problems:
            # Count the pinned mismatch as one more failed operation.
            outcome.record(f"{workload.name} pinned series", problems)


def run(
    workload: SimWorkload, seed: int, seconds: float, trace: bool,
    trace_path=None, pinned: Optional[Mapping] = None,
) -> Outcome:
    """Set up, run the fixed trial batches, verify; trace on request."""
    if pinned is None:
        pinned = verify.load_pinned()
    outcome = Outcome()
    batches = workload.batch_seeds(seed, seconds)

    setup_times = []
    for _ in range(workload.setup_reps):
        prepared, seconds_taken = _setup(workload)
        setup_times.append(seconds_taken)
    results, latencies, wall = _timed_phase(prepared, batches, outcome)
    _check(workload, prepared, seed, results, outcome, pinned)
    trials = len(results)
    outcome.metrics = {
        "setup_s": (median(setup_times), "s"),
        "trials_per_s": (trials / wall, "1/s"),
        "rounds_mean": (
            sum(r.rounds for r in results) / max(trials, 1), "rounds"
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "jobs_per_s": (len(latencies) / wall, "1/s"),
        "job_p50_s": (median(latencies) if latencies else 0.0, "s"),
        "job_p95_s": (percentile(latencies, 0.95) if latencies else 0.0, "s"),
    }
    outcome.details = {
        "job": "one run_batch call of a seed batch",
        "jobs": len(latencies),
        "trials": trials,
        "trials_per_batch": workload.trials_per_batch,
        "setup_samples": setup_times,
        "timed_wall_s": wall,
        "per_trial": verify.outcome_series(results),
    }
    if not trace:
        return outcome

    tracer = Tracer()
    with tracer:
        tracer.set_run("setup")
        traced_prepared, _ = _setup(workload)
        traced, _, traced_wall = _timed_phase(
            traced_prepared, batches, outcome, tracer
        )
    for index, result in enumerate(traced):
        outcome.record(
            f"{workload.name} traced trial {index}",
            verify.check_trial(
                result, traced_prepared.graph.num_nodes,
                traced_prepared.parameters.total_rounds,
            ),
        )
    if verify.outcome_series(traced) != verify.outcome_series(results):
        outcome.record(
            f"{workload.name} traced pass",
            ["traced per-trial series differ from the untraced pass"],
        )
    overhead = traced_wall / wall - 1.0
    outcome.layers = layer_metrics(tracer, overhead)
    outcome.details["trace"] = {
        "absent": tracer.absent,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": wall,
        "engine_children_s": tracer.children_of("engine.run"),
        "layers": tracer.layers(),
    }
    if trace_path is not None:
        tracer.dump(trace_path, {"workload": workload.name, "seed": seed})
    return outcome
