"""Output checks shared by every workload.

Each check returns a list of problem strings (empty when the outputs are
right); the runner counts every trial or job with a problem as a failed
operation and exits non-zero.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Sequence

#: The per-trial outcome series pinned at the default seed.
PINNED_KEYS = ("rounds", "transmissions", "receptions", "collisions")

#: Committed expectations for the pinned workloads.
PINNED_PATH = Path(__file__).with_name("pinned.json")


def outcome_series(results: Sequence) -> dict[str, list[int]]:
    """The pinned per-trial series of in-process result objects."""
    return {
        "rounds": [int(r.rounds) for r in results],
        "transmissions": [int(r.metrics.transmissions) for r in results],
        "receptions": [int(r.metrics.receptions) for r in results],
        "collisions": [int(r.metrics.collisions) for r in results],
    }


def load_pinned() -> dict[str, Any]:
    with open(PINNED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_pinned(
    series: Mapping[str, Sequence[int]], expected: Mapping[str, Sequence[int]]
) -> list[str]:
    """Compare the overlapping prefix of ``series`` with ``expected``.

    Trial seeds are prefix-stable (trial ``i`` of a seed is the same
    whatever the run length), so a shorter or longer run is checked on
    the trials both have.
    """
    problems = []
    for key in PINNED_KEYS:
        got = list(series[key])
        want = list(expected[key])
        common = min(len(got), len(want))
        for trial in range(common):
            if got[trial] != want[trial]:
                problems.append(
                    f"trial {trial}: {key} {got[trial]} != pinned "
                    f"{want[trial]}"
                )
    return problems


def check_trial(result, num_nodes: int, max_rounds: int) -> list[str]:
    """Success, round budget and the static channel conservation law.

    On a static network every node does exactly one thing per round:
    it transmits, receives, hears a collision or idles, so the four
    counters sum to ``rounds * n``.
    """
    problems = []
    metrics = result.metrics
    if not result.success:
        problems.append("broadcast did not complete")
    if not 0 < result.rounds <= max_rounds:
        problems.append(f"rounds {result.rounds} outside (0, {max_rounds}]")
    total = (
        metrics.transmissions + metrics.receptions + metrics.collisions
        + metrics.idle_listens
    )
    if total != result.rounds * num_nodes:
        problems.append(
            f"tx+rx+collisions+idle = {total} != rounds*n = "
            f"{result.rounds * num_nodes}"
        )
    return problems


def check_artifact_prefix(
    per_trial: Mapping[str, Sequence], artifact: Mapping[str, Any]
) -> list[str]:
    """A job's ``per_trial`` against the committed artifact's first trials.

    Per-trial results depend only on the trial seed, so a job run at the
    artifact's base seed must reproduce the artifact's leading entries
    for every series the artifact records.
    """
    expected = artifact["results"]["per_trial"]
    problems = []
    for key, values in expected.items():
        got = list(per_trial.get(key, ()))
        if got != list(values[: len(got)]) or not got:
            problems.append(
                f"per_trial[{key!r}] {got} != artifact {values[: len(got)]}"
            )
    return problems


def check_payload(payload: Mapping[str, Any], trials: int) -> list[str]:
    """Sanity of a served broadcast payload with no artifact to compare.

    The payload's series carry no idle count, so the conservation law
    is checked as an inequality.
    """
    problems = []
    per_trial = payload["results"]["per_trial"]
    n = payload["topology"]["num_nodes"]
    budget = payload["schedule"]["total_rounds"]
    if len(per_trial["rounds"]) != trials:
        problems.append(
            f"{len(per_trial['rounds'])} trials returned, {trials} requested"
        )
    for trial, rounds in enumerate(per_trial["rounds"]):
        busy = (
            per_trial["transmissions"][trial] + per_trial["receptions"][trial]
            + per_trial["collisions"][trial]
        )
        if not per_trial["success"][trial]:
            problems.append(f"trial {trial}: broadcast did not complete")
        if not 0 < rounds <= budget:
            problems.append(f"trial {trial}: rounds {rounds} > {budget}")
        if busy > rounds * n:
            problems.append(f"trial {trial}: {busy} events > rounds*n")
    return problems
