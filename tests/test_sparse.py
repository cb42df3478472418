"""The CSR substrate: Graph.adjacency_csr and the CSRAdjacency kernel.

Property-style: randomized graphs are converted both ways and the CSR
form must round-trip against the dense adjacency matrix exactly, and the
reception kernel must match the dense matrix products on generated
graphs -- including the degenerate shapes (single node, isolated nodes,
empty edge set) an index-expansion kernel is most likely to mishandle.
"""

import numpy as np
import pytest

from conftest import on_kernel
from repro import topology
from repro.errors import ConfigurationError, GraphError
from repro.network.graph import Graph
from repro.simulation.sparse import CSRAdjacency


# ----------------------------------------------------------------------
# Graph.adjacency_csr
# ----------------------------------------------------------------------
def csr_to_dense(indptr, indices, n):
    matrix = np.zeros((n, n), dtype=bool)
    for row in range(n):
        matrix[row, indices[indptr[row]:indptr[row + 1]]] = True
    return matrix


@pytest.mark.parametrize("seed", range(8))
def test_adjacency_csr_round_trips_against_dense(seed):
    rng = np.random.default_rng(seed)
    graph = topology.connected_gnp_graph(
        int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.6)), seed=seed
    )
    dense, dense_nodes = graph.adjacency_matrix()
    indptr, indices, nodes = graph.adjacency_csr()
    assert nodes == dense_nodes
    assert indptr.dtype == np.int64 and indices.dtype == np.int64
    assert indptr[0] == 0 and indptr[-1] == 2 * graph.num_edges
    # Row contents are sorted (deterministic layout regardless of the
    # adjacency sets' iteration order).
    for row in range(len(nodes)):
        segment = indices[indptr[row]:indptr[row + 1]]
        assert (np.diff(segment) > 0).all()
    assert np.array_equal(csr_to_dense(indptr, indices, len(nodes)), dense)


def test_adjacency_csr_degenerate_graphs():
    single = Graph(nodes=["only"])
    indptr, indices, nodes = single.adjacency_csr()
    assert nodes == ["only"]
    assert list(indptr) == [0, 0] and indices.size == 0

    # Isolated nodes produce empty rows amid non-empty ones.
    graph = Graph(nodes=[0, 1, 2, 3], edges=[(0, 2)])
    indptr, indices, nodes = graph.adjacency_csr()
    assert list(indptr) == [0, 1, 1, 2, 2]
    assert list(indices) == [2, 0]

    empty_edges = Graph(nodes=range(5))
    indptr, indices, _ = empty_edges.adjacency_csr()
    assert list(indptr) == [0] * 6 and indices.size == 0


def test_adjacency_csr_respects_node_order_permutations():
    graph = topology.path_graph(6)
    rng = np.random.default_rng(3)
    for _ in range(5):
        order = list(rng.permutation(6))
        dense, _ = graph.adjacency_matrix(order=order)
        indptr, indices, nodes = graph.adjacency_csr(order=order)
        assert nodes == order
        assert np.array_equal(csr_to_dense(indptr, indices, 6), dense)
    with pytest.raises(GraphError, match="permutation"):
        graph.adjacency_csr(order=[0, 1])
    with pytest.raises(GraphError, match="permutation"):
        graph.adjacency_csr(order=[0, 0, 1, 2, 3, 4])


def test_adjacency_csr_cache_invalidated_by_mutation():
    # The default-order CSR form is memoized; every mutator must drop
    # the cache so later callers never compute over a stale topology.
    graph = topology.path_graph(5)
    first = graph.adjacency_csr()
    # Memoized while unchanged: the same arrays come back, not copies.
    assert graph.adjacency_csr()[0] is first[0]
    assert graph.adjacency_csr()[1] is first[1]
    graph.add_edge(0, 4)
    second = graph.adjacency_csr()
    assert second[1] is not first[1]
    dense, _ = graph.adjacency_matrix()
    assert np.array_equal(csr_to_dense(second[0], second[1], 5), dense)
    # Undoing the mutation rebuilds an equal -- but fresh -- layout.
    graph.remove_edge(0, 4)
    third = graph.adjacency_csr()
    assert third[1] is not second[1]
    assert np.array_equal(
        csr_to_dense(third[0], third[1], 5),
        csr_to_dense(first[0], first[1], 5),
    )
    graph.remove_node(4)
    indptr, indices, nodes = graph.adjacency_csr()
    assert 4 not in nodes and len(nodes) == 4
    dense, _ = graph.adjacency_matrix()
    assert np.array_equal(csr_to_dense(indptr, indices, 4), dense)
    graph.add_node("isolated")
    indptr, indices, nodes = graph.adjacency_csr()
    assert "isolated" in nodes
    assert indptr[-1] == 2 * graph.num_edges


def test_engine_over_mutated_graph_sees_fresh_csr():
    # Engines snapshot the CSR arrays at construction; a graph mutated
    # *between* runs must behave exactly like a from-scratch graph of
    # the final shape -- any divergence means a stale memoized CSR
    # leaked into the new engine.
    from repro.api import ExecutionConfig
    from repro.core.broadcast import broadcast

    mutated = topology.path_graph(9)
    config = ExecutionConfig(backend="vectorized")
    with on_kernel("sparse"):
        before = broadcast(mutated, source=0, seed=3, config=config)
        mutated.add_edge(0, 8)
        after = broadcast(mutated, source=0, seed=3, config=config)
        fresh = Graph(nodes=mutated.nodes(), edges=mutated.edges())
        control = broadcast(fresh, source=0, seed=3, config=config)
    assert after.rounds == control.rounds
    assert dict(after.reception_rounds) == dict(control.reception_rounds)
    assert after.metrics.as_dict() == control.metrics.as_dict()
    # The chord genuinely changed the run (deterministic under replay).
    assert dict(after.reception_rounds) != dict(before.reception_rounds)


# ----------------------------------------------------------------------
# CSRAdjacency
# ----------------------------------------------------------------------
def test_csr_adjacency_from_graph_round_trips():
    graph = topology.grid_graph(4, 3)
    csr, nodes = CSRAdjacency.from_graph(graph)
    dense, dense_nodes = graph.adjacency_matrix()
    assert nodes == dense_nodes
    assert csr.num_nodes == graph.num_nodes
    assert csr.num_entries == 2 * graph.num_edges
    assert np.array_equal(csr.to_dense(), dense)


def test_csr_adjacency_validation():
    with pytest.raises(ConfigurationError, match="starting at 0"):
        CSRAdjacency(np.array([1, 2]), np.array([0]))
    with pytest.raises(ConfigurationError, match="non-decreasing"):
        CSRAdjacency(np.array([0, 2, 1]), np.array([0, 1]))
    with pytest.raises(ConfigurationError, match="entries"):
        CSRAdjacency(np.array([0, 2]), np.array([0]))
    with pytest.raises(ConfigurationError, match="lie in"):
        CSRAdjacency(np.array([0, 1]), np.array([5]))


def kernel_inputs(seed):
    """A small graph (isolated nodes allowed) plus one round's inputs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 17))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # Edge counts from zero to complete, so isolated nodes are common.
    chosen = rng.permutation(len(pairs))[:int(rng.integers(0, len(pairs) + 1))]
    edges = [pairs[index] for index in sorted(chosen)]
    graph = Graph(nodes=range(n), edges=edges)
    trials = int(rng.integers(1, 4))
    transmit = rng.random((trials, n)) < rng.uniform(0.05, 0.95)
    ranks = rng.integers(0, 4 * n + 1, size=(trials, n), dtype=np.int64)
    entry_mask = (
        None if rng.random() < 0.5
        else rng.random(2 * len(edges)) < rng.uniform(0.2, 1.0)
    )
    return graph, transmit, ranks, entry_mask


@pytest.mark.parametrize("seed", range(200))
def test_kernel_matches_dense_products(seed):
    # The CSR reception kernel against the dense formulation: counts
    # must equal transmit @ A exactly, and wherever exactly one
    # neighbour transmits the received rank must be that neighbour's
    # rank (the rank-sum product at count one).  Down entries of the
    # mask drop out of both.
    graph, transmit, ranks, entry_mask = kernel_inputs(seed)
    csr, _ = CSRAdjacency.from_graph(graph)
    n = csr.num_nodes
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    up = (
        np.ones(csr.num_entries, dtype=bool)
        if entry_mask is None else entry_mask
    )
    adjacency = np.zeros((n, n), dtype=np.int64)
    adjacency[rows[up], csr.indices[up]] = 1

    counts, received = csr.counts_and_ranks(transmit, ranks, entry_mask)
    assert counts.dtype == np.int64 and received.dtype == np.int64
    assert counts.shape == received.shape == transmit.shape
    assert np.array_equal(counts, transmit.astype(np.int64) @ adjacency)
    rank_sums = (transmit * ranks) @ adjacency
    unique = counts == 1
    assert np.array_equal(received[unique], rank_sums[unique])
    assert not received[counts == 0].any()


def test_kernel_empty_and_edgeless_cases():
    # No transmitters at all: the early-out path.
    csr, _ = CSRAdjacency.from_graph(topology.path_graph(5))
    silent = np.zeros((2, 5), dtype=bool)
    ranks = np.arange(10, dtype=np.int64).reshape(2, 5)
    counts, received = csr.counts_and_ranks(silent, ranks)
    assert not counts.any() and not received.any()
    assert counts.shape == (2, 5)
    # Transmitters whose CSR rows are all empty: nothing to scatter.
    edgeless, _ = CSRAdjacency.from_graph(Graph(nodes=range(5)))
    loud = np.ones((2, 5), dtype=bool)
    counts, received = edgeless.counts_and_ranks(loud, ranks)
    assert not counts.any() and not received.any()
