"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import service_mix  # noqa: E402
import sim_workloads  # noqa: E402
import trace_layers  # noqa: E402
import verify  # noqa: E402

TINY_PATH = sim_workloads.SimWorkload(
    name="tiny-path", family="path", topology_args={"num_nodes": 24},
    strategy="clustered", rng="replay", trials_per_batch=2,
    batches_per_second=1.0, setup_reps=2,
)
TINY_GRID = sim_workloads.SimWorkload(
    name="tiny-grid", family="grid", topology_args={"rows": 6, "cols": 6},
    strategy="skeleton", rng="decoupled", trials_per_batch=2,
    batches_per_second=1.0, setup_reps=2,
)
TINY_SERVICE = dataclasses.replace(
    service_mix.WORKLOAD,
    registered=("broadcast-path-n32", "broadcast-grid-n64-churn"),
    gnp_nodes=24, gnp_edge_probability=0.3, jobs_per_second=1.0,
    setup_reps=1,
)


def _benchmark_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(sim_workloads.WORKLOADS, "path-replay", TINY_PATH)
    monkeypatch.setitem(sim_workloads.WORKLOADS, "grid-decoupled", TINY_GRID)
    monkeypatch.setattr(service_mix, "WORKLOAD", TINY_SERVICE)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _main(capsys, *argv) -> tuple[int, dict]:
    code = run.main(list(argv))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize(
    "workload", ["path-replay", "grid-decoupled", "service-mix"]
)
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace):
    code, result = _main(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace,
    )
    spec = _benchmark_spec()
    expected = {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end" if trace == "0" else "per_layer"]
    }
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def _raw_targets() -> dict:
    """Every object a tracer may replace, keyed by where it is bound."""
    tracer = trace_layers.Tracer()
    tracer.install()
    where = [(owner, attribute) for owner, attribute, _ in tracer._patches]
    tracer.uninstall()
    return {
        (id(owner), attribute): owner.__dict__[attribute]
        for owner, attribute in where
    }


def test_wrappers_restored_after_traced_run(tmp_path):
    before = _raw_targets()
    assert len(before) >= len(trace_layers.TARGETS)
    outcome = sim_workloads.run(
        TINY_PATH, seed=5, seconds=2, trace=True,
        trace_path=tmp_path / "trace.json", pinned={},
    )
    assert outcome.failed == 0
    assert outcome.layers["kernel.calls"][0] > 0
    assert outcome.layers["engine.run_s"][0] > 0
    assert _raw_targets() == before
    document = json.loads((tmp_path / "trace.json").read_text())
    assert document["absent"] == []
    assert document["spans"]


def test_engine_self_time_plus_children_is_run_time():
    tracer = trace_layers.Tracer()
    with tracer:
        sim_workloads._timed_phase(
            sim_workloads._setup(TINY_GRID)[0], [[1, 2]],
            sim_workloads.Outcome(), tracer,
        )
    engine = tracer.layers()["engine.run"]
    children = sum(tracer.children_of("engine.run").values())
    assert engine["self_s"] + children == pytest.approx(engine["total_s"])


def test_missing_entry_point_is_reported_absent():
    targets = trace_layers.TARGETS + (
        ("kernel.round", "repro.simulation.sparse",
         "CSRAdjacency.no_such_kernel", None),
        ("engine.run", "repro.no_such_module", "run", None),
    )
    tracer = trace_layers.Tracer(targets)
    with tracer:
        pass
    assert tracer.absent == [
        "repro.simulation.sparse.CSRAdjacency.no_such_kernel",
        "repro.no_such_module.run",
    ]


def test_perturbed_pinned_series_fails_verification(
    tiny, capsys, monkeypatch
):
    pinned = verify.load_pinned()
    for workload in ("path-replay", "grid-decoupled"):
        assert verify.check_pinned(pinned[workload], pinned[workload]) == []
        perturbed = {key: list(values) for key, values in pinned[workload].items()}
        perturbed["collisions"][0] += 1
        assert verify.check_pinned(perturbed, pinned[workload])

    # End to end: the tiny workload's real series pass, a perturbed copy
    # fails the run and makes the command exit non-zero.
    good = sim_workloads.run(
        TINY_PATH, seed=0, seconds=2, trace=False, pinned={}
    ).details["per_trial"]
    monkeypatch.setattr(
        verify, "load_pinned", lambda: {TINY_PATH.name: good}
    )
    code, result = _main(
        capsys, "--workload", "path-replay", "--seed", "0", "--seconds", "2"
    )
    assert code == 0 and result["correct"] is True
    bad = dict(good, rounds=[good["rounds"][0] + 1] + good["rounds"][1:])
    monkeypatch.setattr(verify, "load_pinned", lambda: {TINY_PATH.name: bad})
    code, result = _main(
        capsys, "--workload", "path-replay", "--seed", "0", "--seconds", "2"
    )
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1


def test_service_checks_catch_mismatches():
    with open(HERE.parent / "benchmarks" / "BENCH_broadcast-path-n32.json",
              encoding="utf-8") as handle:
        artifact = json.load(handle)
    per_trial = {
        key: values[:2]
        for key, values in artifact["results"]["per_trial"].items()
    }
    assert verify.check_artifact_prefix(per_trial, artifact) == []
    per_trial["rounds"] = [per_trial["rounds"][0] + 1, per_trial["rounds"][1]]
    assert verify.check_artifact_prefix(per_trial, artifact)

    payload = {
        "topology": {"num_nodes": 4},
        "schedule": {"total_rounds": 10},
        "results": {"per_trial": {
            "rounds": [3], "transmissions": [5], "receptions": [4],
            "collisions": [3], "success": [True],
        }},
    }
    assert verify.check_payload(payload, trials=1) == []
    payload["results"]["per_trial"]["collisions"] = [4]
    assert verify.check_payload(payload, trials=1)


def test_service_plan_is_fixed_by_seed():
    plan = service_mix.WORKLOAD.plan(seed=7, seconds=20)
    assert plan == service_mix.WORKLOAD.plan(seed=7, seconds=20)
    assert plan != service_mix.WORKLOAD.plan(seed=8, seconds=20)
    assert len(plan) % 25 == 0 and len(plan) >= 200
    inline = [r for r in plan if isinstance(r["scenario"], dict)]
    assert len(inline) * 5 == len(plan)
    counts = {
        name: sum(1 for r in plan if r["scenario"] == name)
        for name in service_mix.REGISTERED
    }
    assert len(set(counts.values())) == 1
