"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload path-replay --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
work untraced and then traced, and prints the per-layer metrics
(including the tracing overhead).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
record the host environment and the run's details.  The exit code is 0
only when every output checked out.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("path-replay", "grid-decoupled", "service-mix")


def _last_level_cache() -> dict:
    """Largest-level CPU cache of cpu0 as ``/sys`` reports it."""
    best: dict = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level >= best.get("level", 0):
            best = {"level": level, "size": size}
    return best


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "last_level_cache": _last_level_cache(),
        "platform": platform.platform(),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def run_workload(name: str, seed: int, seconds: int, trace: bool):
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{name}.json" if trace else None
    if name == "service-mix":
        import service_mix

        return service_mix.run(
            service_mix.WORKLOAD, seed, seconds, trace, trace_path, ROOT
        )
    import sim_workloads

    return sim_workloads.run(
        sim_workloads.WORKLOADS[name], seed, seconds, trace, trace_path
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        print("perfbench: --seed must be >= 0 and --seconds >= 1",
              file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src / 'repro'} not found; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = environment()
    print(json.dumps({"environment": env}), flush=True)

    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    metrics = outcome.layers if args.trace else outcome.metrics
    correct = outcome.failed == 0 and outcome.attempted > 0
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "end_to_end": outcome.metrics,
        "per_layer": outcome.layers,
        "details": outcome.details,
        "problems": outcome.problems,
    }
    with open(OUT_DIR / f"result-{args.workload}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"details": outcome.details}), flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
