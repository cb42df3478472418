"""Sparse (CSR) adjacency kernel for the vectorized Compete engine.

The dense kernel of :mod:`repro.simulation.vectorized` computes one round
as matrix products against the densified adjacency matrix -- ``O(n²)``
memory and ``O(n²)`` work per round regardless of how sparse the topology
is.  That is the right trade for small graphs (BLAS matmuls on small
dense matrices are extremely fast) and the wrong one above a few hundred
nodes: a ``16384``-node path would densify into a 1 GiB ``float32``
matrix whose per-round products are ~10⁴ times more work than its 16383
edges justify.

This module is the ``O(n + m)`` alternative: a minimal pure-NumPy CSR
representation (``indptr``/``indices``, no SciPy dependency) plus the one
kernel the Compete dynamics need per round -- for every listener, the
*number* of transmitting neighbours (the collision rule: receive iff
exactly one) and, where that number is one, the unique transmitter's
rank.  The kernel is driven by the transmitters, batched over the trial
axis, and all-integer, so the engine agrees with the dense kernel and
the reference runner bit for bit (``tests/test_engine_equivalence.py``
pins all three pairwise).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.network.graph import Graph


class CSRAdjacency:
    """A symmetric boolean adjacency structure in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1`` with ``indptr[0] == 0``,
        non-decreasing; row ``i``'s entries live at
        ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        ``int64`` column indices in ``[0, num_nodes)``.  Rows may be
        empty (isolated nodes); entries are one per directed edge.

    The two arrays are exactly what
    :meth:`repro.network.graph.Graph.adjacency_csr` returns, so
    :meth:`from_graph` is the usual constructor.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size < 1 or indptr[0] != 0:
            raise ConfigurationError(
                "indptr must be a 1-D array starting at 0"
            )
        if (np.diff(indptr) < 0).any():
            raise ConfigurationError("indptr must be non-decreasing")
        if indices.ndim != 1 or indices.size != int(indptr[-1]):
            raise ConfigurationError(
                f"indices must be 1-D with indptr[-1] = {int(indptr[-1])} "
                f"entries, got shape {indices.shape}"
            )
        num_nodes = indptr.size - 1
        if indices.size and (
            indices.min() < 0 or indices.max() >= num_nodes
        ):
            raise ConfigurationError(
                f"indices must lie in [0, {num_nodes})"
            )
        self._indptr = indptr
        self._indices = indices
        # Row lengths (node degrees): how many CSR entries each
        # transmitter's row contributes to a round.
        self._lengths = np.diff(indptr)

    @classmethod
    def from_graph(
        cls, graph: Graph, order: Optional[list] = None
    ) -> tuple["CSRAdjacency", list]:
        """Build from a graph; returns ``(csr, nodes)`` like the dense twin."""
        indptr, indices, nodes = graph.adjacency_csr(order=order)
        return cls(indptr, indices), nodes

    @property
    def num_nodes(self) -> int:
        return self._indptr.size - 1

    @property
    def num_entries(self) -> int:
        """Stored entries -- one per directed edge, i.e. ``2m``."""
        return self._indices.size

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    def to_dense(self) -> np.ndarray:
        """The equivalent dense boolean matrix (for tests and round-trips)."""
        n = self.num_nodes
        matrix = np.zeros((n, n), dtype=bool)
        rows = np.repeat(np.arange(n), np.diff(self._indptr))
        matrix[rows, self._indices] = True
        return matrix

    def counts_and_ranks(
        self,
        transmit: np.ndarray,
        ranks: np.ndarray,
        entry_mask: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-listener transmitter counts and the received rank.

        Parameters
        ----------
        transmit:
            Boolean array of shape ``(trials, n)``: who transmits this
            round.
        ranks:
            ``int64`` array of the same shape: each node's current rank.
        entry_mask:
            Optional boolean array of shape ``(num_entries,)``: which
            directed CSR entries currently carry signal.  ``False``
            entries (links held down by ``repro.dynamics`` edge churn
            this round) contribute nothing.  ``None`` is the static
            topology.

        Returns ``(counts, received)``, both ``int64`` of shape
        ``(trials, n)``: ``counts[t, j]`` is how many neighbours of ``j``
        transmit in trial ``t``.  Where ``counts == 1``, ``received`` is
        the unique transmitter's rank -- the only place the engine reads
        it; elsewhere it is 0 (silence) or one of the colliding ranks.

        The kernel walks the problem from the transmitters' side: it
        gathers only their CSR rows and scatters onto the listeners, so
        a round costs ``O(T + sum of transmitter degrees)`` rather than
        ``O(trials * 2m)``.  The rank channel is a plain integer
        scatter-assign, exact wherever exactly one transmitter writes.
        """
        trials, n = transmit.shape
        received = np.zeros(trials * n, dtype=np.int64)
        flat_index = np.flatnonzero(transmit)
        transmitters = flat_index % n
        lengths = self._lengths[transmitters]
        total = int(lengths.sum())
        if total == 0:
            return (
                np.zeros((trials, n), dtype=np.int64),
                received.reshape(trials, n),
            )
        # Expand each transmitter's CSR slice [start, start+length) into
        # one flat position vector: repeat the slice starts (shifted by
        # the running cumulative offset) and add a global arange.  The
        # three per-edge streams -- slice base, trial offset, rank --
        # ride in one stacked repeat call.
        offsets = np.cumsum(lengths) - lengths
        per_edge = np.empty((3, flat_index.size), dtype=np.int64)
        np.subtract(self._indptr[transmitters], offsets, out=per_edge[0])
        np.subtract(flat_index, transmitters, out=per_edge[1])
        per_edge[2] = ranks.ravel()[flat_index]
        expanded = np.repeat(per_edge, lengths, axis=1)
        positions = expanded[0] + np.arange(total)
        flat = expanded[1] + self._indices[positions]
        sent = expanded[2]
        if entry_mask is not None:
            # Drop the contributions riding over down links.
            up = entry_mask[positions]
            flat = flat[up]
            sent = sent[up]
        counts = np.bincount(flat, minlength=trials * n).astype(
            np.int64, copy=False
        )
        received[flat] = sent
        return counts.reshape(trials, n), received.reshape(trials, n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRAdjacency(n={self.num_nodes}, entries={self.num_entries})"
        )
