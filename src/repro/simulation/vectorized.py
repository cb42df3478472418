"""NumPy-vectorized batch simulation of Compete-style message floods.

:class:`~repro.simulation.runner.ProtocolRunner` advances one node at a
time in pure Python -- ideal for auditing the model, far too slow for the
benchmark sweeps the ROADMAP calls for.  This module is the fast path:
one synchronous round of the whole network (and of a whole *batch* of
independent trials) is computed as a handful of dense array operations on
the graph's adjacency matrix.

The engine exploits a structural fact about the Compete dynamics
(:mod:`repro.core.compete`): the only messages ever on the air are the
initial candidate/dummy messages, and nodes compare them through the
total order of :meth:`repro.network.messages.Message.sort_key`.  Ranking
the messages once up front therefore reduces every node's state to a
single integer -- the *rank* of the best message it knows (0 = knows
nothing) -- and one round becomes:

* ``transmit = informed & (uniform_draw < p[round])``  (the per-node
  transmission schedule; the classical uniform Decay rule
  ``p = 2^-step`` is one instance),
* ``counts   = transmit @ A``                          (transmitting
  neighbours per listener),
* a listener with ``counts == 1`` receives the unique transmitter's
  rank, obtained from ``(transmit * rank) @ A``,
* ``rank = max(rank, received_rank)``                  (adopt-if-higher).

All three are batched over an additional leading *trial* axis, so many
seeded trials run simultaneously through the same matrix products.

Two reception kernels execute that step, picked from the node count
alone by :func:`kernel_for`:

* ``"dense"`` (``n <= DENSE_NODE_CUTOFF``) densifies the adjacency matrix
  once and computes ``counts`` and the rank sums as ``float32`` matrix
  products -- the fastest path for small graphs;
* ``"sparse"`` (everything larger) keeps the graph in CSR form
  (:class:`repro.simulation.sparse.CSRAdjacency`) and scatters each
  round's transmitters onto their listeners in ``O(n + m)`` memory --
  this is what opens the ``n >= 10^4`` scenarios.

Both kernels evaluate the identical collision rule on exactly the same
draws, so they agree bit for bit; the choice is invisible in every
result.

Round-exact equivalence with the reference runner
-------------------------------------------------
The engine is a *drop-in* backend, not an approximation: for the same
graph, candidates and seed it reproduces the reference simulation round
for round -- same transmissions, same receptions, same adoption rounds,
same metric counters.  The one subtle requirement is randomness: the
reference gives each node a private generator from
``SeedSequence(seed).spawn(n)`` (:func:`~repro.simulation.runner.spawn_node_rngs`)
and a node consumes exactly one uniform draw per round *while it holds a
message* (uninformed nodes listen without drawing).  :class:`DrawStreams`
replays those per-node streams from identically-spawned generators,
pre-drawing blocks per node and consuming them one element per informed
round, so the k-th decision of every node matches the reference's k-th
decision exactly.  ``tests/test_vectorized.py`` pins this equivalence on
path/star/grid/random topologies.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.network.graph import Graph
from repro.network.metrics import NetworkMetrics
from repro.simulation.rng import RNG_MODES, DecoupledStreams
from repro.simulation.sparse import CSRAdjacency

#: Rank value meaning "this node knows no message yet".
NO_MESSAGE = 0

#: Largest node count run on the dense ``float32`` matmul kernel; larger
#: graphs run on the CSR kernel.  This is the measured crossover: at
#: ``n = 384`` the two take about the same time per round, and above it
#: CSR pulls ahead (about half of dense's time at ``n = 1024`` on a
#: degree-8 G(n, p), 2-core x86-64).  It also keeps the dense kernel
#: exact: counts and rank sums are at most ``n² < 2**24``, inside
#: ``float32``'s integer range.
DENSE_NODE_CUTOFF = 384

#: The reception kernels :func:`kernel_for` picks between.
KERNELS = ("dense", "sparse")


def kernel_for(num_nodes: int) -> str:
    """The reception kernel the engine runs for a graph of ``num_nodes``.

    >>> kernel_for(384), kernel_for(385)
    ('dense', 'sparse')
    """
    return "dense" if num_nodes <= DENSE_NODE_CUTOFF else "sparse"


#: Default number of uniform draws pre-fetched per (trial, node) stream.
#: Larger blocks amortise the per-generator Python call over more rounds
#: at the cost of ``trials * n * block * 8`` bytes of buffer.
DEFAULT_DRAW_BLOCK = 128


class DrawStreams:
    """Replays the reference runner's per-node uniform draw streams, batched.

    One stream per (trial, node) pair, seeded exactly like
    :func:`~repro.simulation.runner.spawn_node_rngs`: trial ``t`` spawns
    ``SeedSequence(seeds[t]).spawn(num_nodes)`` and stream ``i`` draws from
    ``default_rng`` of the i-th child.  :meth:`take` hands out the next
    element of each requested stream; streams that are not requested in a
    round advance by nothing, mirroring a listening (uninformed) node.
    """

    def __init__(
        self,
        seeds: Sequence[Optional[int]],
        num_nodes: int,
        block: int = DEFAULT_DRAW_BLOCK,
    ) -> None:
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        if block < 1:
            raise ConfigurationError(f"block must be >= 1, got {block}")
        self._block = block
        self._generators: list[np.random.Generator] = []
        for seed in seeds:
            children = np.random.SeedSequence(seed).spawn(num_nodes)
            self._generators.extend(np.random.default_rng(c) for c in children)
        count = len(self._generators)
        self._buffer = np.empty((count, block), dtype=np.float64)
        for row, generator in enumerate(self._generators):
            self._buffer[row] = generator.random(block)
        self._position = np.zeros(count, dtype=np.int64)

    def take(self, wanted: np.ndarray) -> np.ndarray:
        """Return the next draw of every stream where ``wanted`` is True.

        ``wanted`` is a flat boolean array over the ``trials * num_nodes``
        streams.  The result has the same shape, with ``nan`` in positions
        that were not requested (callers use the draws only in comparisons,
        where ``nan`` compares False).
        """
        indices = np.nonzero(wanted)[0]
        exhausted = indices[self._position[indices] == self._block]
        for row in exhausted:
            self._buffer[row] = self._generators[row].random(self._block)
            self._position[row] = 0
        draws = np.full(wanted.shape, np.nan)
        draws[indices] = self._buffer[indices, self._position[indices]]
        self._position[indices] += 1
        return draws


@dataclasses.dataclass(frozen=True)
class BatchOutcome:
    """Per-trial outcome arrays of one :meth:`VectorizedCompeteEngine.run_batch`.

    All arrays share the trial axis; per-node arrays are aligned with
    :attr:`nodes` (the graph's insertion order).

    Attributes
    ----------
    nodes:
        Node order of the per-node axes.
    rounds:
        Rounds executed per trial (a trial stops as soon as it saturates).
    saturated:
        Whether every node ended the trial holding ``winner_rank``.
    final_ranks:
        Each node's final best-message rank (:data:`NO_MESSAGE` = none).
    adopted_rounds:
        Round in which each node adopted its final rank; ``-1`` for ranks
        held since before round 0.  Meaningful only where ``final_ranks``
        is not :data:`NO_MESSAGE`.
    transmissions / receptions / collisions / idle_listens:
        Per-trial metric counters with exactly the semantics of
        :class:`~repro.network.metrics.NetworkMetrics`.
    suppressed_links / crashed_nodes / jammed_listens:
        Per-trial fault counters (:mod:`repro.dynamics`), all zero on
        static runs.
    """

    nodes: tuple
    rounds: np.ndarray
    saturated: np.ndarray
    final_ranks: np.ndarray
    adopted_rounds: np.ndarray
    transmissions: np.ndarray
    receptions: np.ndarray
    collisions: np.ndarray
    idle_listens: np.ndarray
    suppressed_links: np.ndarray
    crashed_nodes: np.ndarray
    jammed_listens: np.ndarray

    @property
    def num_trials(self) -> int:
        return int(self.rounds.shape[0])

    def metrics(self, trial: int) -> NetworkMetrics:
        """Return one trial's counters as a :class:`NetworkMetrics`."""
        return NetworkMetrics(
            rounds=int(self.rounds[trial]),
            transmissions=int(self.transmissions[trial]),
            receptions=int(self.receptions[trial]),
            collisions=int(self.collisions[trial]),
            idle_listens=int(self.idle_listens[trial]),
            suppressed_links=int(self.suppressed_links[trial]),
            crashed_nodes=int(self.crashed_nodes[trial]),
            jammed_listens=int(self.jammed_listens[trial]),
        )


class VectorizedCompeteEngine:
    """Batch-simulates the Compete dynamics on one fixed topology.

    Parameters
    ----------
    graph:
        The communication graph.  Its adjacency structure is snapshotted
        once at construction -- densified into an ``n x n`` matrix for
        the dense kernel, converted to CSR for the sparse one
        (:func:`kernel_for` picks by node count).
    schedule:
        A :class:`~repro.schedules.transmission.TransmissionSchedule`
        assigning each node its own periodic probability cycle (for
        example :func:`~repro.schedules.transmission.uniform_decay_schedule`
        for the skeleton, or the clustered strategy's cost-charged
        schedule).  The schedule must cover every node of the graph.
    max_rounds:
        Round budget per trial.
    draw_block:
        Pre-draw block size for :class:`DrawStreams` (replay mode only).
    rng:
        Randomness policy, one of
        :data:`repro.simulation.rng.RNG_MODES`.  ``"replay"`` (the
        default) replays the reference runner's per-node streams via
        :class:`DrawStreams` -- the round-exact parity mode this
        docstring describes.  ``"decoupled"`` evaluates the stateless
        counter-based hash of
        :class:`~repro.simulation.rng.DecoupledStreams` instead:
        much faster at large ``n``, still exactly reproducible from the
        seeds, but only *distributionally* equivalent to the reference
        (``tests/test_rng_decoupled.py`` enforces that contract
        statistically).
    dynamics:
        Optional :class:`repro.dynamics.FaultSchedule` bound to this
        graph.  Each round the engine resolves the schedule's fault
        state and applies it to the channel: crashed nodes neither
        transmit nor receive, down links are masked out of the
        adjacency structure (a per-round masked copy under the dense
        kernel, an entry mask under the sparse one), and jammed alive
        listeners receive nothing.  Fault decisions are pure counter
        hashes shared with the reference runner, so the round-exact
        equivalence contract extends to faulty runs unchanged.
    config:
        An :class:`~repro.api.config.ExecutionConfig` describing the
        whole run: the strategy is compiled to the schedule, the round
        budget derived from the graph (or the config's explicit
        ``parameters``) through the shared
        :func:`~repro.api.config.resolve_execution` path.  Mutually
        exclusive with every other keyword.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        schedule=None,
        max_rounds: Optional[int] = None,
        draw_block: int = DEFAULT_DRAW_BLOCK,
        rng: str = "replay",
        dynamics=None,
        config=None,
    ) -> None:
        if config is not None:
            if (schedule is not None or max_rounds is not None
                    or draw_block != DEFAULT_DRAW_BLOCK
                    or rng != "replay" or dynamics is not None):
                raise ConfigurationError(
                    "pass either config= or the explicit schedule/"
                    "max_rounds/draw_block/rng/dynamics keywords, not "
                    "both (the config carries its own draw_block, rng "
                    "and dynamics)"
                )
            # api sits above simulation in the layering, so the import
            # is local.
            from repro.api.config import resolve_execution

            resolved = resolve_execution(graph, config)
            schedule = resolved.schedule
            max_rounds = resolved.parameters.total_rounds
            draw_block = config.draw_block
            rng = config.rng
            dynamics = resolved.fault_schedule
        if schedule is None or max_rounds is None:
            raise ConfigurationError(
                "schedule and max_rounds are required when no config is "
                "given"
            )
        if max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be >= 0, got {max_rounds}")
        if rng not in RNG_MODES:
            raise ConfigurationError(
                f"rng must be one of {RNG_MODES}, got {rng!r}"
            )
        self._rng = rng
        self._kernel = kernel_for(graph.num_nodes)
        self._csr: Optional[CSRAdjacency] = None
        self._adjacency: Optional[np.ndarray] = None
        if self._kernel == "sparse":
            self._csr, nodes = CSRAdjacency.from_graph(graph)
        else:
            matrix, nodes = graph.adjacency_matrix()
            self._adjacency = matrix.astype(np.float32)
        self._nodes = tuple(nodes)
        self._dynamics = dynamics
        if dynamics is not None and tuple(dynamics.nodes) != self._nodes:
            raise ConfigurationError(
                "dynamics was compiled for a different node order; "
                "build the FaultSchedule from the same graph as the "
                "engine"
            )
        # One row of per-node probabilities per round of the cycle; the
        # run loop indexes row ``round % cycle_length``.
        self._probabilities = schedule.probability_matrix(nodes)
        self._max_rounds = max_rounds
        self._draw_block = draw_block
        if rng == "decoupled":
            # Pre-scale the probability cycle to integer thresholds so
            # the hot loop compares the raw hash words directly: with
            # draw mantissa ``m = bits >> 11``, ``m * 2**-53 < p`` iff
            # ``m < t = ceil(p * 2**53)`` iff ``bits < t << 11``.  The
            # one inexact corner is ``p >= 1`` (threshold saturates at
            # 2**64 - 1, missing the all-ones word with probability
            # 2**-64 per draw); Decay probabilities never exceed 1/2.
            mantissa_thresholds = np.ceil(
                np.clip(self._probabilities, 0.0, 1.0) * 2.0 ** 53
            ).astype(np.uint64)
            self._thresholds = np.where(
                mantissa_thresholds >= np.uint64(2 ** 53),
                np.iinfo(np.uint64).max,
                mantissa_thresholds << np.uint64(11),
            )
        else:
            self._thresholds = None

    @property
    def nodes(self) -> tuple:
        """Node order of the engine's per-node axes."""
        return self._nodes

    @property
    def kernel(self) -> str:
        """The reception kernel in use: ``"dense"`` or ``"sparse"``."""
        return self._kernel

    @property
    def rng(self) -> str:
        """The randomness policy: ``"replay"`` or ``"decoupled"``."""
        return self._rng

    def _round_reception(
        self, transmit: np.ndarray, ranks: np.ndarray, faults=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One round's reception outcome under the engine's kernel.

        Returns ``(unique, collided, received)``: per (trial, node)
        whether exactly one / two-or-more neighbours transmitted, and
        the received rank (meaningful only where ``unique``).  Silent
        air is the complement of the two masks.  Both kernels agree
        wherever ``unique`` holds -- the dense one computes rank sums as
        exact ``float32`` matrix products, the sparse one scatters the
        transmitters' ranks as integers.

        ``faults`` (a :class:`repro.dynamics.RoundFaults`) masks churned
        links out of the structure for this round: the dense kernel
        multiplies against a copy with the down pairs zeroed, the sparse
        kernel drops the down CSR entries.  Both see the identical
        ``edge_up`` array, so they keep agreeing bit for bit.
        """
        if self._kernel == "dense":
            adjacency = self._adjacency
            if faults is not None and faults.edge_up is not None:
                down = ~faults.edge_up
                if down.any():
                    lo, hi = self._dynamics.edge_endpoints
                    adjacency = adjacency.copy()
                    adjacency[lo[down], hi[down]] = 0
                    adjacency[hi[down], lo[down]] = 0
            transmit_f = transmit.astype(adjacency.dtype)
            counts = transmit_f @ adjacency
            received = (
                (transmit_f * ranks.astype(adjacency.dtype)) @ adjacency
            ).astype(np.int64)
            return counts == 1.0, counts >= 2.0, received
        entry_mask = None
        if faults is not None and faults.edge_up is not None:
            entry_mask = faults.edge_up[self._dynamics.entry_edge_ids]
        counts, received = self._csr.counts_and_ranks(
            transmit, ranks, entry_mask
        )
        return counts == 1, counts >= 2, received

    def run_batch(
        self,
        initial_ranks: np.ndarray,
        winner_rank: Optional[int],
        seeds: Sequence[Optional[int]],
    ) -> BatchOutcome:
        """Run one seeded trial per row of ``initial_ranks``.

        Parameters
        ----------
        initial_ranks:
            Integer array of shape ``(trials, n)``: each node's starting
            message rank (:data:`NO_MESSAGE` for nodes that know nothing),
            aligned with :attr:`nodes`.
        winner_rank:
            The rank whose saturation ends a trial early, or ``None`` to
            always run the full budget (the no-candidate case, where the
            reference run can never succeed either).
        seeds:
            One seed per trial, consumed exactly like the reference
            runner's ``seed`` argument.
        """
        ranks = np.asarray(initial_ranks, dtype=np.int64)
        if ranks.ndim != 2 or ranks.shape[1] != len(self._nodes):
            raise ConfigurationError(
                "initial_ranks must have shape (trials, "
                f"{len(self._nodes)}), got {ranks.shape}"
            )
        num_trials = ranks.shape[0]
        if len(seeds) != num_trials:
            raise ConfigurationError(
                f"got {len(seeds)} seeds for {num_trials} trials"
            )
        if (ranks < NO_MESSAGE).any():
            raise ConfigurationError("ranks must be >= 0 (0 = no message)")

        ranks = ranks.copy()
        adopted = np.full(ranks.shape, -1, dtype=np.int64)
        rounds = np.zeros(num_trials, dtype=np.int64)
        transmissions = np.zeros(num_trials, dtype=np.int64)
        receptions = np.zeros(num_trials, dtype=np.int64)
        collisions = np.zeros(num_trials, dtype=np.int64)
        idle_listens = np.zeros(num_trials, dtype=np.int64)
        suppressed_links = np.zeros(num_trials, dtype=np.int64)
        crashed_nodes = np.zeros(num_trials, dtype=np.int64)
        jammed_listens = np.zeros(num_trials, dtype=np.int64)

        def saturated_now() -> np.ndarray:
            if winner_rank is None:
                return np.zeros(num_trials, dtype=bool)
            return (ranks == winner_rank).all(axis=1)

        saturated = saturated_now()
        active = ~saturated

        # A trial with no informed node can never transmit again (ranks
        # only grow through receptions), so its whole remaining schedule
        # is provably silent: charge it in one step -- every node idles
        # every round, exactly what the reference runner would simulate.
        # This makes candidate-less leader-election attempts near-free.
        silent = active & ~(ranks > NO_MESSAGE).any(axis=1)
        if silent.any():
            rounds[silent] = self._max_rounds
            if self._dynamics is None:
                idle_listens[silent] += self._max_rounds * len(self._nodes)
            else:
                # Fault-aware silent charge: nobody ever transmits, but
                # the environment still ticks round by round -- crashed
                # nodes and alive jammed listeners are charged to their
                # own counters, the rest idle, and down links accrue as
                # always.  Scalar per-round totals, shared by every
                # silent trial; the main loop below rewinds the schedule
                # cursor back to round 0 (an O(rounds) hash replay).
                num_nodes = len(self._nodes)
                idle_total = crashed_total = 0
                jammed_total = suppressed_total = 0
                for round_number in range(self._max_rounds):
                    faults = self._dynamics.round_faults(round_number)
                    jam = int((faults.jammed & faults.alive).sum())
                    crashed_total += faults.crashed_count
                    jammed_total += jam
                    idle_total += num_nodes - faults.crashed_count - jam
                    suppressed_total += faults.suppressed
                idle_listens[silent] += idle_total
                crashed_nodes[silent] += crashed_total
                jammed_listens[silent] += jammed_total
                suppressed_links[silent] += suppressed_total
            active &= ~silent

        if not active.any() or self._max_rounds == 0:
            return self._outcome(
                rounds, saturated, ranks, adopted,
                transmissions, receptions, collisions, idle_listens,
                suppressed_links, crashed_nodes, jammed_listens,
            )

        replay = self._rng == "replay"
        if replay:
            streams = DrawStreams(seeds, len(self._nodes), self._draw_block)
        else:
            streams = DecoupledStreams(seeds, len(self._nodes))

        cycle_length = self._probabilities.shape[0]
        num_nodes = len(self._nodes)
        for round_number in range(self._max_rounds):
            probability = self._probabilities[round_number % cycle_length]

            # Masking by ``active`` only matters once some trial has
            # saturated; while all are live the cheap form is identical.
            if active.all():
                informed = ranks > NO_MESSAGE
            else:
                informed = (ranks > NO_MESSAGE) & active[:, None]
            if replay:
                draws = streams.take(informed.ravel()).reshape(informed.shape)
                transmit = informed & (draws < probability[None, :])
            else:
                transmit = informed & (
                    streams.bits(round_number)
                    < self._thresholds[round_number % cycle_length]
                )

            if self._dynamics is not None:
                # Crash suppression happens *after* the draws above were
                # taken: a crashed node's stream still advances exactly
                # as in the reference runner, where the protocol draws
                # and the network drops the transmission.
                faults = self._dynamics.round_faults(round_number)
                alive = faults.alive
                transmit &= alive[None, :]
            else:
                faults = None

            unique, collided, received = self._round_reception(
                transmit, ranks, faults
            )
            # Half-duplex: a transmitter hears nothing this round, so
            # only non-transmitting nodes with a unique transmitting
            # neighbour receive (or, at >= 2, observe a collision).
            # Under faults, crashed and jammed nodes cannot receive
            # (or observe anything) either.
            not_transmitting = ~transmit
            if faults is None:
                eligible = not_transmitting
            else:
                eligible = (
                    not_transmitting & (alive & ~faults.jammed)[None, :]
                )
            receiving = unique & eligible
            received_ranks = np.where(receiving, received, NO_MESSAGE)

            improved = received_ranks > ranks
            if improved.any():
                adopted[improved] = round_number
                np.maximum(ranks, received_ranks, out=ranks)
                saturation_may_change = True
            else:
                # No rank moved: saturation cannot have changed either.
                saturation_may_change = False

            transmit_counts = transmit.sum(axis=1)
            reception_counts = receiving.sum(axis=1)
            collision_counts = (collided & eligible).sum(axis=1)
            rounds[active] += 1
            transmissions += np.where(active, transmit_counts, 0)
            receptions += np.where(active, reception_counts, 0)
            collisions += np.where(active, collision_counts, 0)
            if faults is None:
                # Every non-transmitter listens, and unique/collided/
                # silent air partition what it hears -- so idle listens
                # are the listeners the other two counters did not claim.
                idle_listens += np.where(
                    active,
                    num_nodes - transmit_counts
                    - reception_counts - collision_counts,
                    0,
                )
            else:
                # Faulty partition: transmitters + crashed + jammed
                # alive listeners + receptions + collisions + idle = n,
                # each node in exactly one bucket (crashed beats
                # transmitter beats jammed).
                jam_counts = (
                    (faults.jammed & alive)[None, :] & not_transmitting
                ).sum(axis=1)
                idle_listens += np.where(
                    active,
                    num_nodes - transmit_counts - faults.crashed_count
                    - jam_counts - reception_counts - collision_counts,
                    0,
                )
                suppressed_links += np.where(active, faults.suppressed, 0)
                crashed_nodes += np.where(active, faults.crashed_count, 0)
                jammed_listens += np.where(active, jam_counts, 0)

            if saturation_may_change:
                saturated = saturated_now()
                active &= ~saturated
                if not active.any():
                    break

        return self._outcome(
            rounds, saturated, ranks, adopted,
            transmissions, receptions, collisions, idle_listens,
            suppressed_links, crashed_nodes, jammed_listens,
        )

    def _outcome(
        self,
        rounds: np.ndarray,
        saturated: np.ndarray,
        ranks: np.ndarray,
        adopted: np.ndarray,
        transmissions: np.ndarray,
        receptions: np.ndarray,
        collisions: np.ndarray,
        idle_listens: np.ndarray,
        suppressed_links: np.ndarray,
        crashed_nodes: np.ndarray,
        jammed_listens: np.ndarray,
    ) -> BatchOutcome:
        return BatchOutcome(
            nodes=self._nodes,
            rounds=rounds,
            saturated=saturated,
            final_ranks=ranks,
            adopted_rounds=adopted,
            transmissions=transmissions,
            receptions=receptions,
            collisions=collisions,
            idle_listens=idle_listens,
            suppressed_links=suppressed_links,
            crashed_nodes=crashed_nodes,
            jammed_listens=jammed_listens,
        )


def rank_messages(messages) -> dict:
    """Return the dense rank (1-based) of each distinct message.

    Messages are ranked ascending by
    :meth:`~repro.network.messages.Message.sort_key`, so ``rank(a) >
    rank(b)`` iff ``a.beats(b)`` -- the invariant that lets the engine
    compare integer ranks instead of message objects.  Rank
    :data:`NO_MESSAGE` (0) is reserved for "knows nothing".
    """
    distinct = sorted(set(messages), key=lambda message: message.sort_key())
    return {message: index + 1 for index, message in enumerate(distinct)}
