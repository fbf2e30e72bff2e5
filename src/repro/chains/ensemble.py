"""Batched replica-ensemble engines: advance R independent chains at once.

Every empirical claim in this reproduction (TV decay, marginal error,
agreement curves) averages over hundreds-to-thousands of *independent*
replicas of the same chain.  Running those replicas one
:class:`~repro.chains.fastpaths.FastLocalMetropolisColoring` object at a
time leaves almost all the throughput on the table: per-round numpy-call
overhead dominates once ``n`` is modest, and per-chain construction
(greedy colouring, edge-array setup) is paid R times.

The ensembles in this module store all replicas in one array and advance
them with single whole-ensemble array operations:

* :class:`EnsembleLocalMetropolisColoring` — Algorithm 2 for proper
  q-colourings, R replicas per step;
* :class:`EnsembleLubyGlauberColoring` — Algorithm 1 for proper
  q-colourings, with the per-vertex Python neighbour loop of the
  single-replica fast path replaced by CSR-style neighbour arrays, so the
  rejection resampling of *all* pending (replica, vertex) pairs is one
  vectorised pass per rejection round;
* :class:`EnsembleGlauberDynamics` — batched single-site heat-bath Glauber
  for *general* pairwise MRFs (Ising, hardcore, ...), so ensembles are not
  colouring-only;
* :class:`EnsembleLubyGlauberMRF` and :class:`EnsembleLocalMetropolisMRF`
  — batched Algorithms 1 and 2 for general pairwise MRFs (hardcore,
  Ising, *list* colourings) on one shared construction: a per-edge index
  into a deduplicated edge-activity stack feeds both the CSR heat-bath
  gathers of LubyGlauber and the flat normalised filter tables of
  LocalMetropolis, so the two engines differ only in ``step()``;
* :class:`EnsembleLubyGlauberCSP` and :class:`EnsembleLocalMetropolisCSP` —
  the paper's CSP extensions (remarks after Algorithms 1-2) batched over
  replicas: constraint-scope evaluation is precompiled into flat-table
  offsets plus a constraint-incidence CSR scatter, so heat-bath marginals
  (LubyGlauber) and the ``2^k - 1``-factor mixing filter (LocalMetropolis)
  are whole-ensemble gathers and segmented reductions rather than
  per-vertex ``itertools`` loops.

Array-backend contract
----------------------

Every advance-path kernel below runs through an
:class:`~repro.backend.base.ArrayBackend` (the local ``xp``), selected by
the ``backend=`` constructor argument: numpy by default, torch CPU/CUDA
optionally.  Setup and precompute (CSR construction, table flattening,
greedy starts) stay plain numpy/scipy and hand the finished structures to
the backend once; diagnostics return numpy.  All backends draw randomness
from the engine's single numpy Generator through the backend RNG bridge,
so the proposal stream is backend-independent; only the numpy backend is
*bitwise* reproducible (see :mod:`repro.backend.base`).

Layout and exactness contract
-----------------------------

Publicly an ensemble is an ``(R, n)`` batch: ``config`` returns an
``(R, n)`` int64 numpy array, and ``run(steps)`` returns a fresh
``(R, n)`` copy.  Internally the colouring ensembles store the transposed
*vertex-major* ``(n, R)`` layout in the smallest integer dtype that holds
``q``: every per-edge operation then gathers contiguous rows, and the
edge-to-vertex "any incident edge failed" reduction is a sparse
incidence-matrix product — both memory-bandwidth bound rather than
Python-overhead bound.

Each replica evolves by exactly the same Markov kernel as the
corresponding sequential chain (same proposal distribution, same filters,
same tie-breaking rules), so replica ``i`` is *distributionally* identical
to a sequential run; the test-suite validates this with exact-stationarity
chi-squared tests and cross-implementation agreement.  Replicas are
mutually independent: all randomness is drawn from one shared RNG stream,
but no value is reused across replicas.  For
:class:`EnsembleGlauberDynamics` the equivalence is even bitwise: with
``replicas=1``, the same seed and the same initial configuration it
reproduces :class:`~repro.chains.glauber.GlauberDynamics` state-for-state.

Seed and stream contract
------------------------

Every engine accepts ``seed`` as an int, a
:class:`numpy.random.SeedSequence`, a ``numpy.random.Generator`` or
``None`` (see :func:`repro.chains.base.as_generator`).  One ensemble owns
exactly *one* PCG64 stream shared by all of its replicas; an int seed and
the ``SeedSequence`` wrapping it build the same stream, so both are
bit-reproducible.  This is the contract the sharded execution subsystem
(:mod:`repro.exec`) is built on: a shard plan spawns one ``SeedSequence``
child per shard and constructs each shard's engine from its child, which
makes the concatenated ``(R, n)`` trajectory a pure function of the root
sequence and the shard partition — *not* of how many OS processes execute
the shards.
"""

from __future__ import annotations

from collections.abc import Sequence
from time import perf_counter

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.backend import ArrayBackend, get_backend
from repro.chains.base import as_generator, greedy_feasible_config
from repro.chains.csp_chains import greedy_csp_config
from repro.chains.fastpaths import (
    build_csr_neighbours,
    greedy_coloring,
    sorted_edge_arrays,
)
from repro.chains.sampling import inverse_cdf
from repro.csp.hypergraph import conflict_graph
from repro.csp.model import LocalCSP
from repro.errors import InfeasibleStateError, ModelError, StateSpaceTooLargeError
from repro.graphs.structure import check_vertex_labels
from repro.mrf.model import MRF
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace

__all__ = [
    "EnsembleTrajectoryMixin",
    "EnsembleLocalMetropolisColoring",
    "EnsembleLubyGlauberColoring",
    "EnsembleGlauberDynamics",
    "EnsembleLubyGlauberMRF",
    "EnsembleLocalMetropolisMRF",
    "EnsembleLubyGlauberCSP",
    "EnsembleLocalMetropolisCSP",
]


class EnsembleTrajectoryMixin:
    """Checkpointed advancement shared by every replica-ensemble engine.

    The convergence/diagnostics layer drives ensembles exclusively through
    this protocol: ``advance(steps)`` moves all replicas forward without
    materialising a batch copy, ``run(steps)`` advances and returns the
    fresh ``(R, n)`` batch, and ``iter_checkpoints(checkpoints)`` yields
    ``(round, batch)`` pairs at increasing round counts (measured from the
    ensemble's current position) — the trajectory-recording primitive the
    TV-decay and agreement curves are built on.

    Host classes provide ``step()`` and a ``config`` property returning the
    ``(R, n)`` batch.
    """

    def advance(self, steps: int):
        """Advance all replicas ``steps`` rounds; returns ``self`` for chaining."""
        if steps < 0:
            raise ModelError(f"advance needs steps >= 0, got {steps}")
        if not (_obs_metrics.enabled or _obs_trace.enabled):
            for _ in range(steps):
                self.step()
            return self
        return self._advance_instrumented(steps)

    def _advance_instrumented(self, steps: int):
        engine = type(self).__name__
        backend = getattr(getattr(self, "xp", None), "name", "python")
        with _obs_trace.span(
            "engine.advance",
            engine=engine,
            backend=backend,
            steps=int(steps),
            replicas=int(getattr(self, "replicas", 1)),
        ):
            start = perf_counter()
            for _ in range(steps):
                self.step()
            elapsed = perf_counter() - start
        if _obs_metrics.enabled and steps:
            _obs_metrics.inc("repro_engine_rounds_total", steps, engine=engine, backend=backend)
            _obs_metrics.inc("repro_engine_seconds_total", elapsed, engine=engine, backend=backend)
        return self

    def run(self, steps: int) -> np.ndarray:
        """Advance all replicas ``steps`` rounds; return the ``(R, n)`` batch."""
        return self.advance(steps).config

    def iter_checkpoints(self, checkpoints):
        """Yield ``(round, batch)`` at each checkpoint.

        ``checkpoints`` must be strictly increasing positive integers,
        counted from the ensemble's current position; the ensemble is left
        at the last checkpoint.
        """
        previous = 0
        for checkpoint in checkpoints:
            if int(checkpoint) != checkpoint or checkpoint <= previous:
                raise ModelError(
                    "checkpoints must be strictly increasing positive integers, "
                    f"got {list(checkpoints)!r}"
                )
            self.advance(int(checkpoint) - previous)
            previous = int(checkpoint)
            yield previous, self.config

    def write_batch_into(self, out: np.ndarray) -> np.ndarray:
        """Write the current ``(R, n)`` int64 batch into ``out``; return ``out``.

        The shard-publication hook of the multiprocess execution subsystem:
        :mod:`repro.exec` workers call this after every ``advance`` command
        to publish their shard's block of a ``multiprocessing.shared_memory``
        state array.  Hosts whose internal layout differs from the public
        batch (the vertex-major colouring/CSP engines) override it to write
        straight from internal state instead of materialising the
        intermediate ``config`` copy.
        """
        np.copyto(out, self.config)
        return out


def _record_metropolis_step(engine, blocked) -> None:
    """Accepted-move accounting for a LocalMetropolis round.

    ``blocked`` is the ``(n, R)`` boolean mask of vertices whose proposal
    failed; everything else accepted.  Called only when
    ``repro.obs.metrics.enabled`` — the single device->host sum below is
    the entire enabled-mode overhead of the Metropolis probes.
    """
    xp = engine.xp
    total = engine.n * engine.replicas
    rejected = int(xp.to_numpy(xp.sum(blocked)))
    name = type(engine).__name__
    _obs_metrics.inc("repro_engine_proposals_total", total, engine=name)
    _obs_metrics.inc("repro_engine_accepted_total", total - rejected, engine=name)


def _record_luby_step(engine, v_idx) -> None:
    """Independent-set size accounting for a LubyGlauber round.

    ``v_idx`` is the flat vertex index of every selected (vertex, replica)
    pair across all R replicas; the histogram records the per-replica mean
    independent-set size.
    """
    pairs = int(v_idx.shape[0])
    name = type(engine).__name__
    _obs_metrics.inc("repro_engine_luby_selected_total", pairs, engine=name)
    _obs_metrics.observe(
        "repro_engine_luby_set_size", pairs / max(engine.replicas, 1), engine=name
    )


def _spin_dtype(q: int) -> np.dtype:
    """Smallest signed integer dtype that holds spins ``0..q-1``.

    The ensemble kernels are memory-bound, so halving the element size is a
    direct throughput win.
    """
    if q <= 127:
        return np.dtype(np.int8)
    if q <= 32_767:
        return np.dtype(np.int16)
    return np.dtype(np.int64)


def _initial_spin_batch(
    initial,
    n: int,
    q: int,
    replicas: int,
    dtype: np.dtype,
    default_start,
    noun: str = "spins",
) -> np.ndarray:
    """Validate/tile a start spec into the internal ``(n, R)`` batch.

    ``initial`` is ``None`` (``default_start()`` replicated to all
    replicas), a length-n configuration shared by all replicas, or an
    ``(R, n)`` batch giving each replica its own start.  Shared by the
    colouring and CSP ensemble bases so their start semantics cannot
    drift.
    """
    if initial is None:
        base = np.asarray(default_start(), dtype=np.int64)
        return np.repeat(base[:, None], replicas, axis=1).astype(dtype)
    config = np.asarray(initial, dtype=np.int64)
    if config.shape == (n,):
        config = np.repeat(config[:, None], replicas, axis=1)
    elif config.shape == (replicas, n):
        config = config.T.copy()
    else:
        raise ModelError(
            f"initial configuration must have shape ({n},) or ({replicas}, {n}), "
            f"got {config.shape}"
        )
    if np.any(config < 0) or np.any(config >= q):
        raise ModelError(f"initial {noun} must lie in 0..{q - 1}")
    return config.astype(dtype)


def _as_region(region, n: int) -> np.ndarray:
    """Validate a vertex region into a sorted unique int64 array."""
    vertices = np.unique(np.asarray(sorted(int(v) for v in region), dtype=np.int64))
    if vertices.size == 0:
        raise ModelError("region must contain at least one vertex")
    if vertices[0] < 0 or vertices[-1] >= n:
        raise ModelError(
            f"region vertices must lie in 0..{n - 1}, got "
            f"[{int(vertices[0])}, {int(vertices[-1])}]"
        )
    return vertices


def _side_matrices(edge_u: np.ndarray, edge_v: np.ndarray, n: int):
    """The one-sided ``(n, m)`` vertex-edge incidence matrices (scipy CSR).

    ``side_u @ flags`` scatters a per-edge ``(m, R)`` flag array onto each
    edge's u endpoint (``side_v`` likewise); their sum is the full
    incidence behind "any incident edge failed" reductions.  Sparse matmul
    is the fastest edge-to-vertex scatter available from numpy land —
    ``np.logical_or.reduceat`` is ~50x slower on the same data.
    """
    m = len(edge_u)
    ones = np.ones(m, dtype=np.int32)
    arange = np.arange(m)
    return (
        sp.csr_matrix((ones, (edge_u, arange)), shape=(n, m)),
        sp.csr_matrix((ones, (edge_v, arange)), shape=(n, m)),
    )


class _RegionSelector:
    """Precompiled masked-Luby structures for a vertex region.

    Restricting the Luby step to the *region-internal* edges is exact:
    heat-bath updates preserve the conditional Gibbs distribution given
    the clamped complement for any state-independently selected set that
    is independent *within itself*, and two region vertices are adjacent
    iff the connecting edge has both endpoints in the region.  Ranks are
    drawn only for region vertices (``(|S|, R)`` instead of ``(n, R)``),
    so a region step costs O(|S|·R) — the whole point of incremental
    resampling.
    """

    def __init__(self, xp: ArrayBackend, region: np.ndarray, edge_u, edge_v, n: int):
        self.xp = xp
        self.region = region
        self.size = int(region.size)
        self.region_d = xp.asarray(region)
        local_of = np.full(n, -1, dtype=np.int64)
        local_of[region] = np.arange(self.size, dtype=np.int64)
        if edge_u is not None and len(edge_u):
            internal = (local_of[edge_u] >= 0) & (local_of[edge_v] >= 0)
            leu = local_of[edge_u[internal]]
            lev = local_of[edge_v[internal]]
        else:
            leu = lev = np.zeros(0, dtype=np.int64)
        if len(leu):
            self._leu_d = xp.asarray(leu)
            self._lev_d = xp.asarray(lev)
            side_u, side_v = _side_matrices(leu, lev, self.size)
            self._side_u = xp.csr(side_u)
            self._side_v = xp.csr(side_v)
        else:
            self._leu_d = self._lev_d = None
            self._side_u = self._side_v = None

    def select_pairs(self, rng: np.random.Generator, replicas: int):
        """Luby-select over the region; return global ``(v_idx, r_idx)`` pairs."""
        mask = _batched_luby_select(
            self.xp, rng, self.size, replicas,
            self._leu_d, self._lev_d, self._side_u, self._side_v,
        )
        s_idx, r_idx = self.xp.nonzero_pairs(mask)
        return self.region_d[s_idx], r_idx


def _batched_luby_select(
    xp: ArrayBackend,
    rng: np.random.Generator,
    n: int,
    replicas: int,
    edge_u,
    edge_v,
    side_u,
    side_v,
):
    """Per-replica Luby step: i.i.d. ranks, strict local maxima win.

    Returns an ``(n, R)`` boolean mask; each column is an independent set
    of the graph given by the (device) edge arrays (ties lose on both
    sides, exactly as the sequential kernels).  ``side_u``/``side_v`` are
    backend CSR handles of the one-sided incidence matrices.  Shared by
    the colouring ensembles (simple graph) and the CSP ensembles (conflict
    graph).
    """
    if edge_u is None or int(edge_u.shape[0]) == 0:
        return xp.ones((n, replicas), dtype=bool)
    ranks = xp.random_f32(rng, (n, replicas))
    ru = ranks[edge_u]
    rv = ranks[edge_v]
    lose_counts = xp.spmm_count(side_u, ru <= rv) + xp.spmm_count(side_v, rv <= ru)
    return lose_counts == 0


class _EnsembleColoringBase(EnsembleTrajectoryMixin):
    """Shared state for the batched colouring chains.

    Parameters
    ----------
    graph:
        Simple graph with vertices ``0..n-1``.
    q:
        Number of colours.
    replicas:
        Number of independent replicas R advanced per step.
    initial:
        ``None`` (greedy colouring replicated to all replicas), a length-n
        configuration shared by all replicas, or an ``(R, n)`` batch giving
        each replica its own start.
    seed:
        Seed, :class:`numpy.random.SeedSequence` or Generator for the single
        shared RNG stream (module docstring: seed and stream contract).
    backend:
        Array backend name or instance (module docstring: array-backend
        contract); ``None`` resolves via ``$REPRO_BACKEND``, then numpy.
    """

    def __init__(
        self,
        graph: nx.Graph,
        q: int,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
        backend: str | ArrayBackend | None = None,
    ) -> None:
        check_vertex_labels(graph)
        if q < 2:
            raise ModelError(f"colouring needs q >= 2, got {q}")
        if replicas < 1:
            raise ModelError(f"ensemble needs replicas >= 1, got {replicas}")
        self.n = graph.number_of_nodes()
        self.q = int(q)
        self.replicas = int(replicas)
        self.graph = graph
        self._dtype = _spin_dtype(self.q)
        self.rng = as_generator(seed)
        self.xp = get_backend(backend)

        self._eu, self._ev = sorted_edge_arrays(graph)
        self._m = len(self._eu)
        self._build_adjacency()
        self._config = self.xp.asarray(self._initial_batch(initial))
        self.steps_taken = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_adjacency(self) -> None:
        """CSR neighbour arrays plus the vertex-edge incidence matrices."""
        xp = self.xp
        n, m = self.n, self._m
        self._degrees, self._indptr, self._csr_indices = build_csr_neighbours(
            self._eu, self._ev, n
        )
        self._degrees_d = xp.asarray(self._degrees)
        self._indptr_d = xp.asarray(self._indptr)
        self._csr_indices_d = xp.asarray(self._csr_indices)
        self._eu_d = xp.asarray(self._eu)
        self._ev_d = xp.asarray(self._ev)
        if m:
            side_u, side_v = _side_matrices(self._eu, self._ev, n)
            self._side_u = xp.csr(side_u)
            self._side_v = xp.csr(side_v)
            self._incidence = xp.csr((side_u + side_v).tocsr())
        else:
            self._side_u = self._side_v = self._incidence = None

    def _initial_batch(self, initial) -> np.ndarray:
        return _initial_spin_batch(
            initial,
            self.n,
            self.q,
            self.replicas,
            self._dtype,
            lambda: greedy_coloring(self.graph, self.q),
            noun="colours",
        )

    # ------------------------------------------------------------------
    # batch views and diagnostics
    # ------------------------------------------------------------------
    @property
    def config(self) -> np.ndarray:
        """The current ``(R, n)`` batch (an int64 numpy copy — safe to mutate)."""
        return self.xp.to_numpy(self._config).T.astype(np.int64)

    def write_batch_into(self, out: np.ndarray) -> np.ndarray:
        """Transposed write from the internal vertex-major state, no copy."""
        np.copyto(out, self.xp.to_numpy(self._config).T)
        return out

    def monochromatic_edges(self) -> np.ndarray:
        """Per-replica count of improper (monochromatic) edges, shape ``(R,)``."""
        if self._m == 0:
            return np.zeros(self.replicas, dtype=np.int64)
        xp = self.xp
        same = self._config[self._eu_d] == self._config[self._ev_d]
        return xp.to_numpy(xp.sum(same, axis=0))

    def proper_mask(self) -> np.ndarray:
        """Boolean ``(R,)`` mask of replicas whose colouring is proper."""
        return self.monochromatic_edges() == 0

    def is_proper(self) -> bool:
        """Return True iff *every* replica's colouring is proper."""
        return bool(self.proper_mask().all())

    def step(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # ------------------------------------------------------------------
    # region-restricted advancement (dynamic graphs)
    # ------------------------------------------------------------------
    def _resample_pairs(self, v_idx, r_idx) -> None:
        """Heat-bath-resample the given (vertex, replica) pairs in place.

        The pairs must form an independent set within each replica (their
        neighbours' colours are read as fixed).  Uniform-available-colour
        rejection sampling *is* the heat-bath conditional for proper
        colourings, so this is the shared update kernel of the LubyGlauber
        step and the region-restricted advance.
        """
        xp = self.xp
        result = xp.copy(self._config)
        guard = 0
        while int(v_idx.shape[0]):
            pending = int(v_idx.shape[0])
            draws = xp.uniform_spins(self.rng, self.q, pending, self._dtype)
            if self._m:
                # Expand each pending pair to its CSR neighbour slots.  The
                # neighbours of a selected vertex are unselected (Luby step),
                # so their colours are fixed for the whole resampling pass.
                pair_of_slot, slots = xp.expand_neighbour_slots(
                    v_idx, self._degrees_d, self._indptr_d
                )
                neighbour_spins = self._config[
                    self._csr_indices_d[slots],
                    xp.repeat(r_idx, self._degrees_d[v_idx]),
                ]
                hits = neighbour_spins == draws[pair_of_slot]
                conflict = xp.bincount(pair_of_slot[hits], minlength=pending) > 0
            else:
                conflict = xp.zeros(pending, dtype=bool)
            ok = ~conflict
            result[v_idx[ok], r_idx[ok]] = draws[ok]
            # Carry only the conflicted pairs into the next rejection round —
            # the work per round decays geometrically with the pending set.
            v_idx, r_idx = v_idx[conflict], r_idx[conflict]
            guard += 1
            if guard > 200 * self.q:
                raise ModelError(
                    "rejection sampling stalled: some vertex has no available "
                    "colour (needs q >= Delta + 1)"
                )
        self._config = result

    def advance_region(self, steps: int, region) -> _EnsembleColoringBase:
        """Advance only ``region`` for ``steps`` rounds, boundary clamped.

        Every round Luby-selects an independent set among the region
        vertices (over region-internal edges only) and heat-bath-resamples
        it; vertices outside the region never change, and their colours
        enter the update as fixed boundary conditions through the full CSR
        neighbour gathers.  Used by :mod:`repro.dynamic` for incremental
        resampling after a graph mutation.  Note the kernel is the
        heat-bath (LubyGlauber) one for *both* colouring engines — a
        clamped LocalMetropolis round has no stationarity guarantee.
        """
        if steps < 0:
            raise ModelError(f"advance_region needs steps >= 0, got {steps}")
        selector = _RegionSelector(
            self.xp, _as_region(region, self.n), self._eu, self._ev, self.n
        )
        for _ in range(steps):
            self._resample_pairs(*selector.select_pairs(self.rng, self.replicas))
            self.steps_taken += 1
        return self


class EnsembleLocalMetropolisColoring(_EnsembleColoringBase):
    """Batched Algorithm 2 for proper q-colourings.

    One step advances all R replicas by one LocalMetropolis round: every
    (replica, vertex) pair proposes a uniform colour, every (replica, edge)
    pair applies the three deterministic filtering rules of Section 4.2,
    and a vertex accepts iff none of its incident edges failed.
    """

    def step(self) -> None:
        xp = self.xp
        proposals = xp.uniform_spins(
            self.rng, self.q, (self.n, self.replicas), self._dtype
        )
        if self._m == 0:
            self._config = proposals
            self.steps_taken += 1
            return
        pu = proposals[self._eu_d]
        pv = proposals[self._ev_d]
        xu = self._config[self._eu_d]
        xv = self._config[self._ev_d]
        failed = (pu == pv) | (pu == xv) | (pv == xu)
        # (n, R) count of failed incident edges; a vertex accepts iff zero.
        blocked = xp.spmm_count(self._incidence, failed) > 0
        if _obs_metrics.enabled:
            _record_metropolis_step(self, blocked)
        self._config = xp.where(blocked, self._config, proposals)
        self.steps_taken += 1


class EnsembleLubyGlauberColoring(_EnsembleColoringBase):
    """Batched Algorithm 1 for proper q-colourings.

    One step advances all R replicas by one LubyGlauber round: each replica
    draws its own Luby independent set, then every selected (replica,
    vertex) pair resamples a uniform *available* colour by vectorised
    rejection.  The rejection pass checks every pending pair against its
    neighbours' current colours through flat CSR neighbour arrays — one
    gather + one segmented reduction per rejection round, no per-vertex
    Python loop — and the amount of work decays geometrically as pairs
    accept.
    """

    def _luby_select(self):
        """Per-replica Luby step on the colouring graph, ``(n, R)`` boolean."""
        return _batched_luby_select(
            self.xp, self.rng, self.n, self.replicas, self._eu_d, self._ev_d,
            self._side_u, self._side_v,
        )

    def step(self) -> None:
        xp = self.xp
        v_idx, r_idx = xp.nonzero_pairs(self._luby_select())
        if _obs_metrics.enabled:
            _record_luby_step(self, v_idx)
        self._resample_pairs(v_idx, r_idx)
        self.steps_taken += 1


def _pairwise_edge_tables(mrf: MRF):
    """Sorted edge arrays plus a per-edge index into the stack of ``A_e``.

    ``mrf.edges`` is sorted with ``u < v`` and ``mrf._edge_activity`` holds
    the tables in that same order, so one pass keyed by ``id()`` stacks
    every distinct matrix once: a homogeneous model (or a copy-on-write
    mutation of one) costs a single table however many edges it has.
    Returns ``(edge_u, edge_v, edge_table, stack)``.
    """
    edges = np.asarray(mrf.edges, dtype=np.int64).reshape(-1, 2)
    index_of: dict[int, int] = {}
    stack: list[np.ndarray] = []
    edge_table: list[int] = []
    for matrix in mrf._edge_activity.values():
        index = index_of.get(id(matrix))
        if index is None:
            index = index_of[id(matrix)] = len(stack)
            stack.append(matrix)
        edge_table.append(index)
    tables = np.stack(stack) if stack else np.ones((1, mrf.q, mrf.q))
    return (
        edges[:, 0].copy(),
        edges[:, 1].copy(),
        np.asarray(edge_table, dtype=np.int64),
        tables,
    )


def _ascending_csr(edge_u, edge_v, n: int, edge_table):
    """CSR neighbour slots in ascending-neighbour order, each with its table.

    The neighbours of ``v`` are ``indices[indptr[v]:indptr[v + 1]]`` in the
    order of ``mrf.neighbors(v)`` — the sequential chains' float operation
    order — and ``slot_table[s]`` is the stack index of the edge behind
    slot ``s``.  Returns ``(degrees, indptr, indices, slot_table)``.
    """
    owners = np.concatenate([edge_u, edge_v])
    neighbours = np.concatenate([edge_v, edge_u])
    order = np.lexsort((neighbours, owners))
    degrees = np.bincount(owners, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    slot_table = np.concatenate([edge_table, edge_table])[order]
    return degrees, indptr, neighbours[order], slot_table


class EnsembleGlauberDynamics(EnsembleTrajectoryMixin):
    """Batched single-site heat-bath Glauber for general pairwise MRFs.

    One step advances *each* replica by one single-site update: every
    replica independently picks a uniform vertex and resamples it from the
    conditional marginal of paper eq. (2).  All R conditional weight
    vectors are assembled with padded neighbour arrays (one vectorised pass
    per neighbour position, bounded by the maximum degree) and sampled with
    one vectorised inverse-CDF — no per-replica Python loop.

    With ``replicas=1`` this consumes the RNG stream in exactly the same
    order as :class:`repro.chains.glauber.GlauberDynamics` and reproduces
    it bitwise (same seed, same initial configuration) — the strongest form
    of the ensemble-vs-sequential exactness contract.
    """

    def __init__(
        self,
        mrf: MRF,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
        backend: str | ArrayBackend | None = None,
    ) -> None:
        if replicas < 1:
            raise ModelError(f"ensemble needs replicas >= 1, got {replicas}")
        self.mrf = mrf
        self.replicas = int(replicas)
        self.rng = as_generator(seed)
        self.xp = get_backend(backend)
        n, q, r = mrf.n, mrf.q, self.replicas
        if initial is None:
            base = greedy_feasible_config(mrf, self.rng)
            config = np.repeat(base[None, :], r, axis=0)
        else:
            config = np.asarray(initial, dtype=np.int64)
            if config.shape == (n,):
                config = np.repeat(config[None, :], r, axis=0)
            elif config.shape == (r, n):
                config = config.copy()
            else:
                raise ModelError(
                    f"initial configuration must have shape ({n},) or ({r}, {n}), "
                    f"got {config.shape}"
                )
            if np.any(config < 0) or np.any(config >= q):
                raise ModelError(f"initial spins must lie in 0..{q - 1}")
        self._config = self.xp.asarray(config.astype(np.int64))
        # Padded neighbour table (-1 pad) in ascending-neighbour order plus
        # each slot's index into the deduplicated edge-activity stack, both
        # laid out from the ascending CSR slots.
        eu, ev, edge_table, activities = _pairwise_edge_tables(mrf)
        degrees, indptr, indices, slot_table = _ascending_csr(eu, ev, n, edge_table)
        width = max(int(degrees.max(initial=0)), 1)
        owner = np.repeat(np.arange(n), degrees)
        position = np.arange(indices.size) - indptr[owner]
        self._neighbour_pad = np.full((n, width), -1, dtype=np.int64)
        self._neighbour_pad[owner, position] = indices
        activity_index = np.zeros((n, width), dtype=np.int64)
        activity_index[owner, position] = slot_table
        xp = self.xp
        self._neighbour_pad_d = xp.asarray(self._neighbour_pad)
        self._activity_index_d = xp.asarray(activity_index)
        self._activities = xp.asarray(activities)
        self._vertex_activity = xp.asarray(
            np.asarray(mrf.vertex_activity, dtype=float)
        )
        self._rows = xp.arange(r)
        self.steps_taken = 0

    @property
    def config(self) -> np.ndarray:
        """The current ``(R, n)`` batch (a numpy copy — safe to mutate)."""
        return np.array(self.xp.to_numpy(self._config))

    def step(self) -> None:
        """One single-site heat-bath update in every replica."""
        vertices = self.xp.integers(self.rng, self.mrf.n, self.replicas)
        if _obs_metrics.enabled:
            _obs_metrics.inc(
                "repro_engine_site_updates_total", self.replicas, engine=type(self).__name__
            )
        self._update_sites(vertices)
        self.steps_taken += 1

    def advance_region(self, steps: int, region) -> EnsembleGlauberDynamics:
        """Advance only ``region`` for ``steps`` rounds, boundary clamped.

        Each round every replica heat-bath-updates one uniformly chosen
        *region* vertex; the complement never changes and enters the
        conditional weights as fixed boundary spins.  Used by
        :mod:`repro.dynamic` for incremental resampling.
        """
        if steps < 0:
            raise ModelError(f"advance_region needs steps >= 0, got {steps}")
        xp = self.xp
        region = _as_region(region, self.mrf.n)
        region_d = xp.asarray(region)
        for _ in range(steps):
            picks = xp.integers(self.rng, int(region.size), self.replicas)
            self._update_sites(region_d[picks])
            self.steps_taken += 1
        return self

    def _update_sites(self, vertices) -> None:
        """Heat-bath-resample ``vertices[i]`` in replica ``i``, in place."""
        xp = self.xp
        r, q = self.replicas, self.mrf.q
        # Conditional weights b_v(c) * prod_u A_uv(c, X_u), eq. (2), built
        # in ascending-neighbour order (bitwise-matching the sequential
        # implementation's float operation order).
        weights = xp.take_rows(self._vertex_activity, vertices)
        rows = self._rows
        for k in range(self._neighbour_pad.shape[1]):
            neighbour = self._neighbour_pad_d[vertices, k]
            valid = neighbour >= 0
            if not xp.any(valid):
                continue
            spins = self._config[rows[valid], neighbour[valid]]
            weights[valid] *= self._activities[
                self._activity_index_d[vertices[valid], k], :, spins
            ]
        totals = xp.sum(weights, axis=1)
        if xp.any(totals <= 0.0):
            bad = int(vertices[xp.argmax(totals <= 0.0)])
            raise InfeasibleStateError(
                f"conditional marginal at vertex {bad} is undefined: all {q} "
                "spins have zero weight given the neighbours' spins"
            )
        cdf = xp.cumsum(weights / totals[:, None], axis=1)
        self._config[rows, vertices] = inverse_cdf(cdf.T, xp.random(self.rng, r), xp)

    def is_feasible(self) -> np.ndarray:
        """Per-replica feasibility mask, shape ``(R,)``."""
        config = self.xp.to_numpy(self._config)
        return np.array(
            [self.mrf.is_feasible(config[i]) for i in range(self.replicas)]
        )


class _EnsemblePairwiseMRFBase(EnsembleTrajectoryMixin):
    """Shared vectorised structure of the batched pairwise-MRF kernels.

    One construction serves both distributed algorithms on any pairwise
    MRF, and the two engines differ only in ``step()``:

    * the sorted edge arrays, straight from ``mrf.edges``;
    * a per-edge index into the deduplicated stack of edge activities
      ``A_e``, from which the flat normalised filter tables ``Ã_e`` of
      Algorithm 2 and the CSR neighbour slots of the heat-bath update are
      both derived;
    * the one-sided and full vertex-edge incidence matrices (Luby step;
      "any incident edge failed" reduction);
    * the per-vertex proposal CDF of ``b_v``.

    The state is the vertex-major ``(n, R)`` batch in the smallest spin
    dtype.  The heat-bath update and the region-restricted advance live
    here: a clamped LocalMetropolis round has no stationarity guarantee,
    so both engines re-mix a region with the LubyGlauber kernel.

    Parameters
    ----------
    mrf:
        The pairwise MRF.
    replicas:
        Number of independent replicas R advanced per step.
    initial:
        ``None`` (:func:`~repro.chains.base.greedy_feasible_config`
        replicated to all replicas), a length-n configuration shared by all
        replicas, or an ``(R, n)`` batch giving each replica its own start.
    seed:
        Seed, :class:`numpy.random.SeedSequence` or Generator for the single
        shared RNG stream (module docstring: seed and stream contract).
    backend:
        Array backend name or instance (module docstring: array-backend
        contract); ``None`` resolves via ``$REPRO_BACKEND``, then numpy.
    """

    def __init__(
        self,
        mrf: MRF,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
        backend: str | ArrayBackend | None = None,
    ) -> None:
        if replicas < 1:
            raise ModelError(f"ensemble needs replicas >= 1, got {replicas}")
        self.mrf = mrf
        self.n = n = mrf.n
        self.q = q = mrf.q
        self.replicas = int(replicas)
        self._dtype = _spin_dtype(q)
        self.rng = as_generator(seed)
        self.xp = xp = get_backend(backend)
        self._eu, self._ev, edge_table, stack = _pairwise_edge_tables(mrf)
        self._m = len(self._eu)
        self._degrees, indptr, indices, slot_table = _ascending_csr(
            self._eu, self._ev, n, edge_table
        )
        self._degrees_d = xp.asarray(self._degrees)
        self._indptr_d = xp.asarray(indptr)
        self._csr_indices_d = xp.asarray(indices)
        self._slot_table_d = xp.asarray(slot_table)
        self._eu_d = xp.asarray(self._eu)
        self._ev_d = xp.asarray(self._ev)
        if self._m:
            side_u, side_v = _side_matrices(self._eu, self._ev, n)
            self._side_u = xp.csr(side_u)
            self._side_v = xp.csr(side_v)
            self._incidence = xp.csr((side_u + side_v).tocsr())
        else:
            self._side_u = self._side_v = self._incidence = None
        self._activities = xp.asarray(stack)
        self._vertex_activity_d = xp.asarray(
            np.asarray(mrf.vertex_activity, dtype=float)
        )
        # Flat Ã_e stack, addressed at table * q^2 + a * q + b.
        self._filter_flat = xp.asarray(
            (stack / stack.max(axis=(1, 2), keepdims=True)).ravel()
        )
        # int32 filter offsets halve the memory traffic of the per-round
        # index arithmetic (int64 only for a stack past 2^31 entries).
        self._index_dtype = np.int32 if stack.size < 2**31 else np.int64
        self._edge_base_d = xp.asarray((edge_table * q * q)[:, None].astype(self._index_dtype))
        activity = mrf.vertex_activity
        cdf = np.cumsum(activity / activity.sum(axis=1, keepdims=True), axis=1)
        self._proposal_cdf = xp.asarray(np.ascontiguousarray(cdf.T[:, :, None]))
        self._config = xp.asarray(
            _initial_spin_batch(
                initial,
                n,
                q,
                self.replicas,
                self._dtype,
                lambda: greedy_feasible_config(mrf, self.rng),
            )
        )
        self.steps_taken = 0

    # ------------------------------------------------------------------
    # batch views and diagnostics
    # ------------------------------------------------------------------
    @property
    def config(self) -> np.ndarray:
        """The current ``(R, n)`` batch (an int64 numpy copy — safe to mutate)."""
        return self.xp.to_numpy(self._config).T.astype(np.int64)

    def write_batch_into(self, out: np.ndarray) -> np.ndarray:
        """Transposed write from the internal vertex-major state, no copy."""
        np.copyto(out, self.xp.to_numpy(self._config).T)
        return out

    def is_feasible(self) -> np.ndarray:
        """Per-replica feasibility mask, shape ``(R,)``."""
        config = self.xp.to_numpy(self._config).T
        return np.array(
            [self.mrf.is_feasible(config[i]) for i in range(self.replicas)]
        )

    def step(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # ------------------------------------------------------------------
    # heat-bath machinery (LubyGlauber step and region-restricted advance)
    # ------------------------------------------------------------------
    def advance_region(self, steps: int, region) -> _EnsemblePairwiseMRFBase:
        """Advance only ``region`` for ``steps`` rounds, boundary clamped.

        Every round Luby-selects an independent set among the region
        vertices (over region-internal edges only) and heat-bath-resamples
        it from the exact conditional marginals; vertices outside the
        region never change and enter the weights as fixed boundary spins
        through the full CSR neighbour gathers.  Used by
        :mod:`repro.dynamic` for incremental resampling.
        """
        if steps < 0:
            raise ModelError(f"advance_region needs steps >= 0, got {steps}")
        selector = _RegionSelector(
            self.xp, _as_region(region, self.n), self._eu, self._ev, self.n
        )
        for _ in range(steps):
            self._heatbath_update(*selector.select_pairs(self.rng, self.replicas))
            self.steps_taken += 1
        return self

    def _heatbath_update(self, v_idx, r_idx) -> None:
        """Heat-bath-resample the given (vertex, replica) pairs in place.

        The pairs must form an independent set within each replica (their
        neighbours' spins are read as fixed conditioning).
        """
        xp = self.xp
        pairs = int(v_idx.shape[0])
        if pairs == 0:  # pragma: no cover - Luby always selects someone
            return
        # Conditional weights b_v(c) * prod_u A_uv(c, X_u), eq. (2).  The
        # neighbours of a selected vertex are unselected (Luby step), so
        # their spins are fixed for the whole update.  Undirected edge
        # matrices are symmetric, so gathering column ``X_u`` equals the
        # row gather the sequential chain performs.
        weights = xp.take_rows(self._vertex_activity_d, v_idx)
        if self._m:
            pair_of_slot, slots = xp.expand_neighbour_slots(
                v_idx, self._degrees_d, self._indptr_d
            )
            neighbour_spins = self._config[
                self._csr_indices_d[slots],
                xp.repeat(r_idx, self._degrees_d[v_idx]),
            ]
            values = self._activities[
                self._slot_table_d[slots], :, xp.astype(neighbour_spins, np.int64)
            ]
            weights = weights * xp.segment_prod(
                values, self._degrees[xp.to_numpy(v_idx)]
            )
        totals = xp.sum(weights, axis=1)
        if xp.any(totals <= 0.0):
            bad = int(v_idx[xp.argmax(totals <= 0.0)])
            raise InfeasibleStateError(
                f"conditional marginal at vertex {bad} is undefined: all {self.q} "
                "spins have zero weight given the neighbours' spins"
            )
        cdf = xp.cumsum(weights / totals[:, None], axis=1)
        spins = inverse_cdf(cdf.T, xp.random(self.rng, pairs), xp)
        self._config[v_idx, r_idx] = xp.astype(spins, self._dtype)


class EnsembleLubyGlauberMRF(_EnsemblePairwiseMRFBase):
    """Batched Algorithm 1 (LubyGlauber) for *general* pairwise MRFs.

    The general-model sibling of :class:`EnsembleLubyGlauberColoring`:
    where the colouring engine rejection-samples uniform available
    colours, this engine heat-bath-resamples every selected (replica,
    vertex) pair from its exact conditional marginal (paper eq. (2)), so
    it covers hardcore, Ising and *list-colouring* models — any pairwise
    MRF — with one batched kernel.

    One step advances all R replicas by one LubyGlauber round: each
    replica draws its own Luby independent set, then the conditional
    weight vectors of *all* selected pairs are assembled at once — the
    CSR neighbour arrays expand each pair to its neighbour slots, one
    gather pulls the neighbours' current spins, a second gather pulls the
    matching columns of the deduplicated edge-activity stack, and a
    segmented product reduces slots back to per-pair ``(q,)`` weight
    vectors.  Sampling is one vectorised inverse-CDF
    (:func:`repro.chains.sampling.inverse_cdf`).

    Each replica evolves by exactly the same Markov kernel as the
    sequential :class:`~repro.chains.luby_glauber.LubyGlauberChain` (same
    Luby selection law, same heat-bath conditional), so the ensemble is
    distributionally identical to independent sequential runs.
    """

    def _luby_select(self):
        """Per-replica Luby step on the model graph, ``(n, R)`` boolean."""
        return _batched_luby_select(
            self.xp, self.rng, self.n, self.replicas, self._eu_d, self._ev_d,
            self._side_u, self._side_v,
        )

    def step(self) -> None:
        """Select independent sets; heat-bath-update all pairs in parallel."""
        v_idx, r_idx = self.xp.nonzero_pairs(self._luby_select())
        if _obs_metrics.enabled:
            _record_luby_step(self, v_idx)
        self._heatbath_update(v_idx, r_idx)
        self.steps_taken += 1


class EnsembleLocalMetropolisMRF(_EnsemblePairwiseMRFBase):
    """Batched Algorithm 2 (LocalMetropolis) for *general* pairwise MRFs.

    One step advances all R replicas by one LocalMetropolis round: every
    (vertex, replica) pair proposes ``sigma_v`` from ``b_v`` by inverse
    CDF; every (edge, replica) pair passes with probability
    ``Ã_e(sigma_u, sigma_v) * Ã_e(X_u, sigma_v) * Ã_e(sigma_u, X_v)``
    (three gathers from the flat ``Ã_e`` stack and one shared coin); and a
    vertex accepts iff none of its incident edges failed.

    Each replica evolves by exactly the same Markov kernel as the
    sequential :class:`~repro.chains.local_metropolis.LocalMetropolisChain`
    (Theorem 4.1: reversible with respect to the Gibbs distribution).
    """

    def step(self) -> None:
        """Propose from ``b_v``; filter every edge; accept where clean."""
        xp = self.xp
        uniforms = xp.random(self.rng, (self.n, self.replicas))
        proposals = xp.astype(inverse_cdf(self._proposal_cdf, uniforms, xp), self._dtype)
        if self._m:
            q, index = self.q, self._index_dtype
            pu = xp.astype(proposals[self._eu_d], index)
            pv = xp.astype(proposals[self._ev_d], index)
            xu = xp.astype(self._config[self._eu_d], index)
            xv = xp.astype(self._config[self._ev_d], index)
            from_proposal = self._edge_base_d + pu * q
            from_current = self._edge_base_d + xu * q
            table = self._filter_flat
            pass_probability = (
                table[from_proposal + pv]
                * table[from_current + pv]
                * table[from_proposal + xv]
            )
            # One shared coin per (edge, replica): u < p always holds at
            # p = 1 and never at p = 0, as in the sequential chain.
            coins = xp.random(self.rng, (self._m, self.replicas))
            blocked = xp.spmm_count(self._incidence, coins >= pass_probability) > 0
            if _obs_metrics.enabled:
                _record_metropolis_step(self, blocked)
            self._config = xp.where(blocked, self._config, proposals)
        else:
            self._config = proposals
        self.steps_taken += 1


# ----------------------------------------------------------------------
# CSP ensembles: batched extensions of Algorithms 1-2 to weighted local
# CSPs (the remarks after both algorithms).
# ----------------------------------------------------------------------
class _EnsembleCSPBase(EnsembleTrajectoryMixin):
    """Shared precompiled structure for the batched CSP chains.

    Constraint tables are concatenated into one flat array addressed by
    per-constraint offsets and row-major scope strides; a sparse
    ``(C, n)`` stride matrix turns the whole ``(n, R)`` spin batch into the
    ``(C, R)`` array of flat scope indices with a single sparse matmul.
    Both kernels are built from that primitive: any mixing of two spin
    batches over every scope is two sparse matmuls plus one flat gather.

    Parameters
    ----------
    csp:
        The weighted local CSP.
    replicas:
        Number of independent replicas R advanced per step.
    initial:
        ``None`` (the deterministic greedy configuration of
        :func:`repro.chains.csp_chains.greedy_csp_config` replicated to all
        replicas), a length-n configuration shared by all replicas, or an
        ``(R, n)`` batch giving each replica its own start.
    seed:
        Seed, :class:`numpy.random.SeedSequence` or Generator for the single
        shared RNG stream (module docstring: seed and stream contract).
    backend:
        Array backend name or instance (module docstring: array-backend
        contract); ``None`` resolves via ``$REPRO_BACKEND``, then numpy.
    """

    def __init__(
        self,
        csp: LocalCSP,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
        backend: str | ArrayBackend | None = None,
    ) -> None:
        if replicas < 1:
            raise ModelError(f"ensemble needs replicas >= 1, got {replicas}")
        self.csp = csp
        self.n = csp.n
        self.q = csp.q
        self.replicas = int(replicas)
        self._dtype = _spin_dtype(self.q)
        self.rng = as_generator(seed)
        self.xp = get_backend(backend)
        self._build_scope_tables()
        self._config = self.xp.asarray(self._initial_batch(initial))
        self._spin_arange = self.xp.arange(self.q)
        self._heatbath_ready = False
        self.steps_taken = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_scope_tables(self) -> None:
        """Flatten all constraint tables and precompile the scope strides."""
        csp, n, xp = self.csp, self.n, self.xp
        constraints = csp.constraints
        self._num_constraints = len(constraints)
        raw_parts: list[np.ndarray] = []
        starts = np.zeros(self._num_constraints, dtype=np.int64)
        self._strides: list[np.ndarray] = []
        offset = 0
        rows: list[int] = []
        cols: list[int] = []
        data: list[int] = []
        for index, constraint in enumerate(constraints):
            table = np.asarray(constraint.table, dtype=float).ravel()
            starts[index] = offset
            raw_parts.append(table)
            offset += table.size
            arity = constraint.arity
            strides = self.q ** np.arange(arity - 1, -1, -1, dtype=np.int64)
            self._strides.append(strides)
            rows.extend([index] * arity)
            cols.extend(constraint.scope)
            data.extend(int(s) for s in strides)
        self._table_starts = starts
        self._table_starts_d = xp.asarray(starts)
        flat_raw = (
            np.concatenate(raw_parts) if raw_parts else np.zeros(0, dtype=float)
        )
        self._flat_raw = flat_raw
        self._flat_raw_d = xp.asarray(flat_raw)
        if self._num_constraints:
            self._scope_matrix = xp.csr(
                sp.csr_matrix(
                    (np.asarray(data, dtype=np.int64), (rows, cols)),
                    shape=(self._num_constraints, n),
                )
            )
            ones = np.ones(len(rows), dtype=np.int32)
            self._vertex_incidence = xp.csr(
                sp.csr_matrix(
                    (ones, (cols, rows)), shape=(n, self._num_constraints)
                )
            )
        else:
            self._scope_matrix = self._vertex_incidence = None

    def _initial_batch(self, initial) -> np.ndarray:
        return _initial_spin_batch(
            initial,
            self.n,
            self.q,
            self.replicas,
            self._dtype,
            lambda: greedy_csp_config(self.csp),
        )

    # ------------------------------------------------------------------
    # batch views and diagnostics
    # ------------------------------------------------------------------
    @property
    def config(self) -> np.ndarray:
        """The current ``(R, n)`` batch (an int64 numpy copy — safe to mutate)."""
        return self.xp.to_numpy(self._config).T.astype(np.int64)

    def write_batch_into(self, out: np.ndarray) -> np.ndarray:
        """Transposed write from the internal vertex-major state, no copy."""
        np.copyto(out, self.xp.to_numpy(self._config).T)
        return out

    def _scope_flat_indices(self, batch):
        """Flat row-major index of every scope restriction, shape ``(C, R)``.

        ``result[c, i]`` addresses ``f_c(batch|_{S_c})`` for replica ``i``
        inside the flattened table stack (relative to the constraint's
        table start).
        """
        return self.xp.spmm_int(self._scope_matrix, batch)

    def feasible_mask(self) -> np.ndarray:
        """Boolean ``(R,)`` mask of replicas with positive total weight."""
        if not self._num_constraints:
            return np.ones(self.replicas, dtype=bool)
        xp = self.xp
        flat = self._scope_flat_indices(self._config)
        values = self._flat_raw_d[self._table_starts_d[:, None] + flat]
        return np.all(xp.to_numpy(values) > 0.0, axis=0)

    def is_feasible(self) -> bool:
        """Return True iff *every* replica's configuration is feasible."""
        return bool(self.feasible_mask().all())

    def step(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # ------------------------------------------------------------------
    # heat-bath machinery (LubyGlauber step and region-restricted advance)
    # ------------------------------------------------------------------
    def _ensure_heatbath_structures(self) -> None:
        """Conflict-graph edge arrays plus the (constraint, stride) incidence.

        Built eagerly by :class:`EnsembleLubyGlauberCSP` (its every step
        needs them) and lazily by the region-restricted advance on
        :class:`EnsembleLocalMetropolisCSP` (which otherwise never pays
        for them).
        """
        if self._heatbath_ready:
            return
        xp, csp = self.xp, self.csp
        # Conflict-graph edge arrays drive the batched Luby step; ties lose
        # on both sides, exactly as LubyScheduler's strict local maxima.
        self._cu, self._cv = sorted_edge_arrays(conflict_graph(csp))
        self._conflict_m = len(self._cu)
        self._cu_d = xp.asarray(self._cu)
        self._cv_d = xp.asarray(self._cv)
        if self._conflict_m:
            side_u, side_v = _side_matrices(self._cu, self._cv, self.n)
            self._conflict_u = xp.csr(side_u)
            self._conflict_v = xp.csr(side_v)
        else:
            self._conflict_u = self._conflict_v = None
        # Vertex -> (constraint, stride-of-vertex) incidence CSR: the slots
        # of vertex v enumerate the constraints containing v together with
        # the stride of v's axis in each table.
        inc_constraint: list[int] = []
        inc_stride: list[int] = []
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        for v in range(self.n):
            for index in csp.incident[v]:
                position = csp.constraints[index].scope.index(v)
                inc_constraint.append(index)
                inc_stride.append(int(self._strides[index][position]))
            indptr[v + 1] = len(inc_constraint)
        self._inc_indptr = indptr
        self._inc_degrees = np.diff(indptr)
        self._inc_indptr_d = xp.asarray(indptr)
        self._inc_degrees_d = xp.asarray(self._inc_degrees)
        self._inc_constraint = xp.asarray(np.asarray(inc_constraint, dtype=np.int64))
        self._inc_stride = xp.asarray(np.asarray(inc_stride, dtype=np.int64))
        self._heatbath_ready = True

    def _heatbath_update(self, v_idx, r_idx) -> None:
        """Heat-bath-resample the given (vertex, replica) pairs in place.

        The pairs must be strongly independent within each replica (no two
        share a constraint scope), so every co-scoped vertex is fixed
        conditioning.  Requires :meth:`_ensure_heatbath_structures`.
        """
        xp = self.xp
        pairs = int(v_idx.shape[0])
        if pairs == 0:  # pragma: no cover - Luby always selects someone
            return
        q = self.q
        if self._num_constraints:
            config64 = xp.astype(self._config, np.int64)
            flat = self._scope_flat_indices(self._config)
            # Expand each selected pair to its constraint-incidence slots.
            # Selected vertices are strongly independent, so every co-scoped
            # vertex is unselected and its spin is fixed this round.
            pair_of_slot, slots = xp.expand_neighbour_slots(
                v_idx, self._inc_degrees_d, self._inc_indptr_d
            )
            constraint = self._inc_constraint[slots]
            stride = self._inc_stride[slots]
            r_slot = r_idx[pair_of_slot]
            current = config64[v_idx[pair_of_slot], r_slot]
            base = (
                self._table_starts_d[constraint]
                + flat[constraint, r_slot]
                - current * stride
            )
            # (slots, q) factor values for every candidate spin of the pair.
            values = self._flat_raw_d[
                base[:, None] + stride[:, None] * self._spin_arange
            ]
            weights = xp.segment_prod(
                values, self._inc_degrees[xp.to_numpy(v_idx)]
            )
        else:
            weights = xp.ones((pairs, q))
        totals = xp.sum(weights, axis=1)
        if xp.any(totals <= 0.0):
            bad = int(v_idx[xp.argmax(totals <= 0.0)])
            raise ModelError(
                f"CSP conditional marginal at vertex {bad} is undefined (zero mass)"
            )
        cdf = xp.cumsum(weights / totals[:, None], axis=1)
        spins = inverse_cdf(cdf.T, xp.random(self.rng, pairs), xp)
        self._config[v_idx, r_idx] = xp.astype(spins, self._dtype)

    def advance_region(self, steps: int, region) -> _EnsembleCSPBase:
        """Advance only ``region`` for ``steps`` rounds, boundary clamped.

        Every round Luby-selects a strongly independent set among the
        region vertices (over region-internal *conflict-graph* edges) and
        heat-bath-resamples it; vertices outside the region never change
        and enter the marginals as fixed conditioning.  Used by
        :mod:`repro.dynamic` for incremental resampling after a constraint
        mutation.  Note the kernel is the heat-bath (LubyGlauber) one for
        *both* CSP engines — a clamped LocalMetropolis round has no
        stationarity guarantee.
        """
        if steps < 0:
            raise ModelError(f"advance_region needs steps >= 0, got {steps}")
        self._ensure_heatbath_structures()
        selector = _RegionSelector(
            self.xp, _as_region(region, self.n), self._cu, self._cv, self.n
        )
        for _ in range(steps):
            self._heatbath_update(*selector.select_pairs(self.rng, self.replicas))
            self.steps_taken += 1
        return self


class EnsembleLubyGlauberCSP(_EnsembleCSPBase):
    """Batched LubyGlauber on a weighted local CSP (remark after Algorithm 1).

    One step advances all R replicas by one round: each replica draws its
    own Luby independent set *of the CSP's conflict graph* (so the selected
    set is strongly independent in the constraint hypergraph), then every
    selected (replica, vertex) pair heat-bath-resamples from its
    conditional marginal.  The marginal weights of *all* selected pairs are
    assembled at once: the vertex-to-(constraint, stride) incidence CSR
    expands each pair to its constraint slots, one flat gather pulls the
    ``q`` candidate factor values per slot, and a segmented product reduces
    slots back to per-pair weight vectors — no per-vertex Python loop.
    """

    def __init__(
        self,
        csp: LocalCSP,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
        backend: str | ArrayBackend | None = None,
    ) -> None:
        super().__init__(csp, replicas, initial=initial, seed=seed, backend=backend)
        # Every step Luby-selects on the conflict graph and heat-bath
        # updates through the incidence CSRs — build them eagerly.
        self._ensure_heatbath_structures()

    def _luby_select(self):
        """Per-replica Luby step on the conflict graph, ``(n, R)`` boolean."""
        return _batched_luby_select(
            self.xp, self.rng, self.n, self.replicas, self._cu_d, self._cv_d,
            self._conflict_u, self._conflict_v,
        )

    def step(self) -> None:
        """Select strongly independent sets; heat-bath-update them in parallel."""
        v_idx, r_idx = self.xp.nonzero_pairs(self._luby_select())
        if _obs_metrics.enabled:
            _record_luby_step(self, v_idx)
        self._heatbath_update(v_idx, r_idx)
        self.steps_taken += 1


class EnsembleLocalMetropolisCSP(_EnsembleCSPBase):
    """Batched LocalMetropolis on a weighted local CSP (remark after Algorithm 2).

    One step advances all R replicas by one round: every (replica, vertex)
    pair proposes a uniform spin; every constraint of arity ``k`` passes
    with probability equal to the product of its ``2^k - 1`` normalised
    factors over the mixings of the proposal vector with the current vector
    on its scope; a vertex accepts iff every incident constraint passed.

    The mixing enumeration is *precompiled*: every (constraint, mixing)
    pair becomes one row of two sparse stride matrices — one selecting the
    proposal spins, one the current spins — so all factor lookups of a
    round are two sparse matmuls, one flat gather, and one segmented
    product over rows.  The per-constraint coins are shared across the
    scope exactly as in the sequential chain.
    """

    #: Hard cap on precompiled (constraint, mixing) rows — the filter
    #: enumerates 2^arity - 1 mixings per constraint, so very-high-arity
    #: CSPs must use the sequential chain instead.
    MAX_MIXING_ROWS = 1_000_000

    def __init__(
        self,
        csp: LocalCSP,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
        backend: str | ArrayBackend | None = None,
    ) -> None:
        super().__init__(csp, replicas, initial=initial, seed=seed, backend=backend)
        xp = self.xp
        norm_parts = [
            np.asarray(c.normalized_table(), dtype=float).ravel()
            for c in csp.constraints
        ]
        flat_norm = (
            np.concatenate(norm_parts) if norm_parts else np.zeros(0, dtype=float)
        )
        self._flat_norm = xp.asarray(flat_norm)
        total_rows = sum(2**c.arity - 1 for c in csp.constraints)
        if total_rows > self.MAX_MIXING_ROWS:
            raise StateSpaceTooLargeError(
                f"LocalMetropolis mixing filter needs {total_rows} precompiled "
                f"rows (2^arity - 1 per constraint), over the "
                f"{self.MAX_MIXING_ROWS} cap; use the sequential "
                "LocalMetropolisCSP chain for very-high-arity CSPs"
            )
        rows_p: list[int] = []
        cols_p: list[int] = []
        data_p: list[int] = []
        rows_c: list[int] = []
        cols_c: list[int] = []
        data_c: list[int] = []
        row_start: list[int] = []
        mask_starts = np.zeros(max(self._num_constraints, 1), dtype=np.int64)
        row = 0
        for index, constraint in enumerate(csp.constraints):
            mask_starts[index] = row
            scope = constraint.scope
            strides = self._strides[index]
            for mask in range(1, 2**constraint.arity):
                for position, vertex in enumerate(scope):
                    if (mask >> position) & 1:
                        rows_p.append(row)
                        cols_p.append(vertex)
                        data_p.append(int(strides[position]))
                    else:
                        rows_c.append(row)
                        cols_c.append(vertex)
                        data_c.append(int(strides[position]))
                row_start.append(int(self._table_starts[index]))
                row += 1
        self._mask_rows = row
        self._mask_starts = mask_starts[: self._num_constraints]
        # Segment sizes of the per-constraint mixing-row blocks (each is
        # 2^arity - 1 >= 1, so every segment is non-empty).
        self._mask_sizes = np.diff(np.append(self._mask_starts, self._mask_rows))
        self._row_table_start = xp.asarray(np.asarray(row_start, dtype=np.int64))
        if self._num_constraints:
            shape = (self._mask_rows, self.n)
            self._proposal_matrix = xp.csr(
                sp.csr_matrix(
                    (np.asarray(data_p, dtype=np.int64), (rows_p, cols_p)),
                    shape=shape,
                )
            )
            self._current_matrix = xp.csr(
                sp.csr_matrix(
                    (np.asarray(data_c, dtype=np.int64), (rows_c, cols_c)),
                    shape=shape,
                )
            )
        else:
            self._proposal_matrix = self._current_matrix = None

    def step(self) -> None:
        """Uniform proposals; batched 2^k - 1-factor filter; accept if clean."""
        xp = self.xp
        proposals = xp.uniform_spins(
            self.rng, self.q, (self.n, self.replicas), self._dtype
        )
        if not self._num_constraints:
            self._config = proposals
            self.steps_taken += 1
            return
        # Flat table index of every (constraint, mixing) row: proposal spins
        # where the mixing reads the proposal, current spins elsewhere.
        flat = xp.spmm_int(self._proposal_matrix, proposals) + xp.spmm_int(
            self._current_matrix, self._config
        )
        factors = self._flat_norm[self._row_table_start[:, None] + flat]
        pass_probability = xp.segment_prod(factors, self._mask_sizes)
        # One shared coin per (constraint, replica): u < p is almost surely
        # true at p = 1 and never true at p = 0, so the deterministic
        # branches of the sequential chain need no special-casing.
        coins = xp.random(self.rng, (self._num_constraints, self.replicas))
        failed = coins >= pass_probability
        blocked = xp.spmm_count(self._vertex_incidence, failed) > 0
        if _obs_metrics.enabled:
            _record_metropolis_step(self, blocked)
        self._config = xp.where(blocked, self._config, proposals)
        self.steps_taken += 1
