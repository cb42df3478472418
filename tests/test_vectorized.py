"""Internals of the vectorized engine (both kernels).

The *equivalence* guarantee -- reference runner vs dense vs sparse,
round for round, across the family x strategy x collision x algorithm
table -- is pinned by ``tests/test_engine_equivalence.py``.  This file
covers what is not visible from the outside: batch/single consistency,
draw-stream buffering, input validation, cache invalidation on graph
mutation, and the message-ranking reduction.
"""

import numpy as np
import pytest

from repro import topology
from repro.api import ExecutionConfig
from repro.core.compete import Compete
from repro.core.parameters import CompeteParameters
from repro.errors import ConfigurationError
from repro.network.messages import Message
from repro.schedules.transmission import uniform_decay_schedule
from repro.simulation.vectorized import (
    NO_MESSAGE,
    VectorizedCompeteEngine,
    rank_messages,
)


def assert_same_compete_result(reference, vectorized, context=""):
    """Field-by-field equality of two CompeteResults (metrics included)."""
    assert reference.winner == vectorized.winner, context
    assert reference.success == vectorized.success, context
    assert reference.rounds == vectorized.rounds, context
    assert reference.num_candidates == vectorized.num_candidates, context
    assert dict(reference.reception_rounds) == dict(
        vectorized.reception_rounds
    ), context
    assert dict(reference.final_messages) == dict(
        vectorized.final_messages
    ), context
    assert (
        reference.metrics.as_dict() == vectorized.metrics.as_dict()
    ), context


def test_run_batch_matches_individual_runs(kernel):
    graph = topology.grid_graph(4, 5)
    primitive = Compete(graph)
    fast = Compete(graph, config=ExecutionConfig(backend="vectorized"))
    candidates = {0: 5, 19: 9}
    seeds = [0, 1, 2, 3, 4]
    batch = primitive.run_batch(candidates, seeds=seeds, spontaneous=True)
    assert len(batch) == len(seeds)
    for seed, batched in zip(seeds, batch):
        single_vec = fast.run(candidates, seed=seed, spontaneous=True)
        single_ref = primitive.run(candidates, seed=seed, spontaneous=True)
        assert_same_compete_result(single_ref, batched, f"seed={seed}")
        assert_same_compete_result(single_vec, batched, f"seed={seed}")


def test_engine_draw_block_size_is_invisible(kernel):
    # The pre-draw block size is an implementation detail; shrinking it to
    # force mid-run refills must not change any outcome array.
    graph = topology.grid_graph(4, 4)
    parameters = CompeteParameters.from_graph(graph)
    ranks = np.zeros((3, graph.num_nodes), dtype=np.int64)
    ranks[:, 0] = 1
    seeds = [0, 1, 2]
    outcomes = []
    for block in (2, 64, 4096):
        engine_obj = VectorizedCompeteEngine(
            graph,
            schedule=uniform_decay_schedule(
                graph.nodes(), parameters.decay_steps
            ),
            max_rounds=parameters.total_rounds,
            draw_block=block,
        )
        outcomes.append(engine_obj.run_batch(ranks.copy(), 1, seeds))
    first = outcomes[0]
    for other in outcomes[1:]:
        assert np.array_equal(first.rounds, other.rounds)
        assert np.array_equal(first.final_ranks, other.final_ranks)
        assert np.array_equal(first.adopted_rounds, other.adopted_rounds)
        assert np.array_equal(first.transmissions, other.transmissions)


def test_engine_input_validation():
    graph = topology.path_graph(4)
    schedule = uniform_decay_schedule(graph.nodes(), 2)
    engine = VectorizedCompeteEngine(graph, schedule=schedule, max_rounds=10)
    with pytest.raises(ConfigurationError):
        engine.run_batch(np.zeros((2, 3), dtype=int), None, [0, 1])
    with pytest.raises(ConfigurationError):
        engine.run_batch(np.zeros((2, 4), dtype=int), None, [0])
    with pytest.raises(ConfigurationError):
        engine.run_batch(np.full((1, 4), -1), None, [0])
    with pytest.raises(ConfigurationError, match="schedule"):
        VectorizedCompeteEngine(graph, max_rounds=1)
    with pytest.raises(ConfigurationError, match="max_rounds"):
        VectorizedCompeteEngine(graph, schedule=schedule, max_rounds=-1)
    with pytest.raises(ConfigurationError):
        Compete(graph, config=ExecutionConfig(backend="warp-drive"))
    with pytest.raises(ConfigurationError, match="config"):
        VectorizedCompeteEngine(
            graph, config=ExecutionConfig(), max_rounds=4
        )


def test_engine_reports_its_kernel(kernel):
    graph = topology.path_graph(6)
    schedule = uniform_decay_schedule(graph.nodes(), 2)
    assert VectorizedCompeteEngine(
        graph, schedule=schedule, max_rounds=4
    ).kernel == kernel
    assert VectorizedCompeteEngine(
        graph, config=ExecutionConfig(backend="vectorized")
    ).kernel == kernel


def test_engine_cache_tracks_graph_mutation(kernel):
    # The cached engine snapshots the adjacency structure; mutating the
    # graph between runs must rebuild it so both backends keep seeing
    # the same (live) topology.
    graph = topology.path_graph(8)
    primitive = Compete(graph, config=ExecutionConfig(backend="vectorized"))
    before = primitive.run({0: 1}, seed=3, spontaneous=True)
    graph.add_edge(0, 7)  # diameter collapses; propagation changes
    after = primitive.run({0: 1}, seed=3, spontaneous=True)
    reference = Compete(graph).run({0: 1}, seed=3, spontaneous=True)
    assert_same_compete_result(reference, after, "post-mutation")
    assert dict(before.reception_rounds) != dict(after.reception_rounds)


def test_rank_messages_matches_beats_order():
    rng = np.random.default_rng(0)
    messages = [
        Message(value=int(rng.integers(-5, 6)), source=int(rng.integers(20)))
        for _ in range(40)
    ]
    ranks = rank_messages(messages)
    assert set(ranks.values()) == set(range(1, len(ranks) + 1))
    items = list(ranks.items())
    for a, rank_a in items:
        for b, rank_b in items:
            assert (rank_a > rank_b) == a.beats(b)
    assert NO_MESSAGE not in ranks.values()


def test_adjacency_matrix():
    graph = topology.path_graph(4)
    matrix, nodes = graph.adjacency_matrix()
    assert nodes == [0, 1, 2, 3]
    expected = np.zeros((4, 4), dtype=bool)
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        expected[u, v] = expected[v, u] = True
    assert np.array_equal(matrix, expected)

    reordered, order = graph.adjacency_matrix(order=[3, 2, 1, 0])
    assert order == [3, 2, 1, 0]
    assert np.array_equal(reordered, expected[::-1, ::-1])

    from repro.errors import GraphError

    with pytest.raises(GraphError):
        graph.adjacency_matrix(order=[0, 1])
