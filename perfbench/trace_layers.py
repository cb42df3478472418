"""Out-of-process-style layer tracing: spans around the program's entry points.

The benchmark does not rely on any instrumentation inside ``repro``.
Instead, :class:`Tracer` replaces each layer's public entry point (a
module-level function, a method or a property) with a wrapper that
records a span -- ``(id, name, start, end, parent id, run id)`` -- and
the layer's work counters, and puts the original objects back on
:meth:`Tracer.uninstall`.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of a run.

A target that no longer exists (a later change may delete a kernel or an
engine) is recorded in :attr:`Tracer.absent` instead of failing the run.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Optional

import numpy as np


def _count_draws(counters, args, result):
    counters["rng.draws"] += int(np.count_nonzero(args[1]))


def _count_bits(counters, args, result):
    counters["rng.draws"] += int(result.size)


def _count_kernel(counters, args, result):
    transmit = args[1]
    counters["kernel.calls"] += 1
    counters["kernel.transmitters"] += int(np.count_nonzero(transmit))
    counters["kernel.slots"] += int(transmit.size)


#: ``(span name, module, attribute path, counter hook)`` for every traced
#: entry point.  A module-level function is patched wherever ``repro``
#: binds it (``from x import f`` makes extra bindings); a method or
#: property is patched on its class.
TARGETS = (
    ("topology.build", "repro.experiments.scenarios", "Scenario.build_graph",
     None),
    ("graph.diameter", "repro.topology.validation", "summarize_topology",
     None),
    ("schedule.resolve", "repro.api.config", "resolve_execution", None),
    ("schedule.compile", "repro.api.config", "ResolvedExecution.schedule",
     None),
    ("graph.csr", "repro.network.graph", "Graph.adjacency_csr", None),
    ("engine.run", "repro.api.registry", "AlgorithmRegistry.run_batch",
     None),
    ("rng.draw", "repro.simulation.vectorized", "DrawStreams.take",
     _count_draws),
    ("rng.draw", "repro.simulation.rng", "DecoupledStreams.bits",
     _count_bits),
    ("kernel.round", "repro.simulation.vectorized",
     "VectorizedCompeteEngine._round_reception", _count_kernel),
    ("dynamics.faults", "repro.dynamics.schedule", "FaultSchedule.round_faults",
     None),
    ("service.batch", "repro.service.jobs", "run_benchmark", None),
)

#: Spans whose first argument is a ``Scenario`` start a new run: their
#: run id is looked up from the scenario object (see :meth:`Tracer.bind`).
_RUN_STARTERS = frozenset({"topology.build", "service.batch"})


class Tracer:
    """Span and counter recorder over monkeypatched entry points."""

    def __init__(self, targets=TARGETS) -> None:
        self._targets = targets
        self.spans: list[tuple] = []
        self.counters: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self.batches: list[tuple[int, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._runs: dict[int, str] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- run ids ---------------------------------------------------------
    def bind(self, scenario, run_id: str) -> None:
        """Spans that start from ``scenario`` carry ``run_id``."""
        self._runs[id(scenario)] = run_id

    def set_run(self, run_id: Optional[str]) -> None:
        """Set the run id of spans subsequently opened on this thread."""
        self._state().run = run_id

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.run = None
            local.kernel_calls = 0
        return local

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        modules = {}
        for _, module_name, _, _ in self._targets:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        # Every target module is imported before any binding is scanned,
        # so a ``from x import f`` in one of them is patched too.
        for name, module_name, path, count in self._targets:
            module = modules.get(module_name)
            owner_name, _, attribute = path.rpartition(".")
            owner = module if not owner_name else getattr(
                module, owner_name, None
            )
            raw = getattr(owner, "__dict__", {}).get(attribute)
            if raw is None:
                self.absent.append(f"{module_name}.{path}")
            elif isinstance(raw, property):
                self._patch(owner, attribute, property(
                    self._wrap(name, raw.fget, count), raw.fset, raw.fdel,
                    raw.__doc__,
                ))
            elif owner_name:
                self._patch(owner, attribute, self._wrap(name, raw, count))
            else:
                wrapped = self._wrap(name, raw, count)
                for bound in list(sys.modules.values()):
                    if not getattr(bound, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(bound).items()):
                        if value is raw:
                            self._patch(bound, key, wrapped)

    def _patch(self, owner, attribute: str, wrapped) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Put every original entry point back (reverse patch order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _wrap(self, name: str, function: Callable, count) -> Callable:
        tracer = self
        starts_run = name in _RUN_STARTERS
        is_engine = name == "engine.run"
        is_kernel = name == "kernel.round"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            if starts_run and args:
                run = tracer._runs.get(id(args[0]))
                if run is not None:
                    state.run = run
            parent = state.stack[-1] if state.stack else None
            span_id = next(tracer._ids)
            state.stack.append(span_id)
            kernel_before = state.kernel_calls
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent, state.run)
                )
            if count is not None:
                with tracer._lock:
                    count(tracer.counters, args, result)
            if is_kernel:
                state.kernel_calls += 1
            if is_engine:
                # Lockstep accounting: the engine loop ran once per kernel
                # call for the whole batch, while each trial needed only
                # its own rounds.
                with tracer._lock:
                    tracer.batches.append((
                        sum(int(trial.rounds) for trial in result),
                        len(result),
                        state.kernel_calls - kernel_before,
                    ))
            return result

        return wrapper

    # -- reading ---------------------------------------------------------
    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds, self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so a layer's self time plus its children's totals
        account for its total exactly.
        """
        child_time: dict[int, float] = collections.defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _, _ in self.spans:
            row = table.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time.get(span_id, 0.0)
        return table

    def children_of(self, name: str) -> dict[str, float]:
        """Total time of the direct children of ``name`` spans, by name."""
        names = {span[0]: span[1] for span in self.spans}
        totals: dict[str, float] = collections.defaultdict(float)
        for _, child, start, end, parent, _ in self.spans:
            if parent is not None and names.get(parent) == name:
                totals[child] += end - start
        return dict(totals)

    def dump(self, path, extra: dict[str, Any]) -> None:
        """Write spans, counters and ``extra`` as one JSON document."""
        document = dict(
            extra,
            absent=self.absent,
            counters=dict(self.counters),
            layers=self.layers(),
            span_fields=["id", "name", "start", "end", "parent", "run"],
            spans=self.spans,
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER_UNITS = {
    "topology.build_s": "s",
    "graph.diameter_s": "s",
    "schedule.compile_s": "s",
    "graph.csr_s": "s",
    "engine.run_s": "s",
    "engine.rounds_per_s": "1/s",
    "engine.self_s": "s",
    "engine.live_ratio": "ratio",
    "rng.draw_s": "s",
    "rng.draws": "count",
    "kernel.busy_s": "s",
    "kernel.calls": "count",
    "kernel.transmit_density": "ratio",
    "dynamics.faults_s": "s",
    "service.queue_wait_s": "s",
    "service.resolve_hit_s": "s",
    "service.resolve_miss_s": "s",
    "service.batch_s": "s",
    "service.transport_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.rejected": "count",
    "trace.overhead": "ratio",
}


def layer_metrics(
    tracer: Tracer, overhead: float, service: Optional[dict] = None
) -> dict[str, tuple[float, str]]:
    """Map a finished trace onto the named per-layer metrics.

    Layers a workload does not exercise read 0 (the service layers on
    the simulation workloads, dynamics on static runs); an absent entry
    point reads 0 too and is listed in :attr:`Tracer.absent`.
    """
    table = tracer.layers()

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    engine_rounds = sum(calls for _, _, calls in tracer.batches)
    slots = sum(trials * calls for _, trials, calls in tracer.batches)
    live = sum(rounds for rounds, _, calls in tracer.batches if calls)
    counters = tracer.counters
    values = {
        "topology.build_s": total("topology.build"),
        "graph.diameter_s": total("graph.diameter"),
        "schedule.compile_s": (
            total("schedule.resolve") + total("schedule.compile")
        ),
        "graph.csr_s": total("graph.csr"),
        "engine.run_s": total("engine.run"),
        "engine.rounds_per_s": (
            engine_rounds / total("engine.run") if engine_rounds else 0.0
        ),
        "engine.self_s": table.get("engine.run", {}).get("self_s", 0.0),
        "engine.live_ratio": live / slots if slots else 0.0,
        "rng.draw_s": total("rng.draw"),
        "rng.draws": counters["rng.draws"],
        "kernel.busy_s": total("kernel.round"),
        "kernel.calls": counters["kernel.calls"],
        "kernel.transmit_density": (
            counters["kernel.transmitters"] / counters["kernel.slots"]
            if counters["kernel.slots"] else 0.0
        ),
        "dynamics.faults_s": total("dynamics.faults"),
        "trace.overhead": overhead,
    }
    for name in PER_LAYER_UNITS:
        if name.startswith("service."):
            values[name] = (service or {}).get(name, 0.0)
    return {
        name: (float(values[name]), unit)
        for name, unit in PER_LAYER_UNITS.items()
    }
