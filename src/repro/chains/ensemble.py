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
  heat-bath draw of *all* selected (replica, vertex) pairs — uniform over
  the available colours — is one vectorised pass;
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

The default start (``initial=None``) is deterministic and draws nothing
from the stream: the greedy colouring for the colouring engines,
:func:`~repro.chains.base.greedy_feasible_config` for the pairwise-MRF
engines and :func:`~repro.chains.csp_chains.greedy_csp_config` for the
CSP engines.

Plan contract
-------------

Everything an engine precomputes from its model lives in a read-only
:class:`~repro.chains.plans.Plan`, built once per model, engine family
and backend, and shared by every later engine on that model (see
:mod:`repro.chains.plans`).  The default start is cached the same way.
An engine owns only its RNG stream, its replica batch and its step
counter, so building one on a model seen before costs almost nothing.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
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
from repro.chains.plans import Plan, frozen, model_plan
from repro.chains.sampling import inverse_cdf
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
    "default_start",
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
    drift.  The result is a fresh C-contiguous array, made in one copy.
    """
    if initial is None:
        base = np.asarray(default_start()).astype(dtype)
        return np.repeat(base[:, None], replicas, axis=1)
    config = np.asarray(initial, dtype=np.int64)
    if config.shape not in ((n,), (replicas, n)):
        raise ModelError(
            f"initial configuration must have shape ({n},) or ({replicas}, {n}), "
            f"got {config.shape}"
        )
    if np.any(config < 0) or np.any(config >= q):
        raise ModelError(f"initial {noun} must lie in 0..{q - 1}")
    if config.ndim == 1:
        return np.repeat(config.astype(dtype)[:, None], replicas, axis=1)
    return config.T.astype(dtype, order="C")


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


def _incidence_plan_fields(xp: ArrayBackend, edge_u: np.ndarray, edge_v: np.ndarray, n: int):
    """Device edge arrays plus the one-sided and full incidence handles.

    The shared plan fields of every engine that Luby-selects and reduces
    "any incident edge failed" over a graph: ``eu``/``ev`` (host),
    ``eu_d``/``ev_d``, ``side_u``/``side_v`` and ``incidence`` (``None``
    without edges).
    """
    fields = {
        "m": len(edge_u),
        "eu": edge_u,
        "ev": edge_v,
        "eu_d": xp.asarray(edge_u),
        "ev_d": xp.asarray(edge_v),
        "side_u": None,
        "side_v": None,
        "incidence": None,
    }
    if len(edge_u):
        side_u, side_v = _side_matrices(edge_u, edge_v, n)
        fields["side_u"] = xp.csr(side_u)
        fields["side_v"] = xp.csr(side_v)
        fields["incidence"] = xp.csr((side_u + side_v).tocsr())
    return fields


def _edge_arrays(model: MRF | nx.Graph) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ``u < v`` edge endpoint arrays of an MRF or a graph.

    An MRF's edge list is already sorted, so its arrays are one C-level
    pass over it; a bare graph goes through
    :func:`~repro.chains.fastpaths.sorted_edge_arrays`.
    """
    if not isinstance(model, MRF):
        return sorted_edge_arrays(model)
    m = len(model.edges)
    flat = np.fromiter(chain.from_iterable(model.edges), dtype=np.int64, count=2 * m)
    return flat[0::2].copy(), flat[1::2].copy()


def _edge_tables(mrf: MRF) -> tuple[np.ndarray, np.ndarray]:
    """The per-edge index into the deduplicated stack of edge activities ``A_e``.

    The tables are read in ``mrf.edges`` order (the activity dict of a
    copy-on-write mutation is not in that order).  A homogeneous model,
    or a mutation of one, shares one matrix object across its edges, so
    tables are deduplicated by identity: each distinct object is stacked
    once, in order of first use.  Returns ``(edge_table, stack)``;
    ``stack`` is ``(k, q, q)``, empty for an edgeless model.  Built once
    per model and shared by the colouring check of
    :func:`repro.api.make_ensemble`, the MRF plans and
    :meth:`repro.dynamic.DynamicEnsemble.add_edge`.
    """

    def build():
        tables = list(map(mrf._edge_activity.__getitem__, mrf.edges))
        if not tables:
            return frozen(np.zeros(0, dtype=np.int64)), frozen(np.zeros((0, mrf.q, mrf.q)))
        ids = np.fromiter(map(id, tables), dtype=np.uint64, count=len(tables))
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        stack = np.stack([tables[i] for i in first[order]])
        return frozen(rank[inverse].astype(np.int64)), frozen(stack)

    return model_plan(mrf, "edge_tables", build)


def default_start(model: MRF | LocalCSP) -> np.ndarray:
    """The deterministic default start of the MRF or CSP engines on ``model``.

    :func:`~repro.chains.base.greedy_feasible_config` for an MRF and
    :func:`~repro.chains.csp_chains.greedy_csp_config` for a CSP, built
    once per model and shared read-only (:mod:`repro.chains.plans`).
    """
    build = greedy_csp_config if isinstance(model, LocalCSP) else greedy_feasible_config
    return model_plan(model, "start", lambda: frozen(build(model)))


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


def _coloring_plan(model: nx.Graph | MRF, xp: ArrayBackend) -> Plan:
    """The colouring kernels' plan: CSR neighbour arrays plus incidences.

    An MRF's plan comes from its sorted edge list alone; its ``graph`` is
    never read.
    """
    if isinstance(model, MRF):
        n = model.n
    else:
        check_vertex_labels(model)
        n = model.number_of_nodes()
    edge_u, edge_v = _edge_arrays(model)
    degrees, indptr, indices = build_csr_neighbours(edge_u, edge_v, n)
    return Plan(
        n=n,
        degrees_d=xp.asarray(degrees),
        indptr_d=xp.asarray(indptr),
        csr_indices_d=xp.asarray(indices),
        **_incidence_plan_fields(xp, edge_u, edge_v, n),
    )


def _coloring_start(model: nx.Graph | MRF, q: int) -> np.ndarray:
    """The first-fit greedy colouring start, cached per model and ``q``.

    The only read of an MRF's ``graph`` by the colouring engines, made
    once per model and only when a start is needed.
    """

    def build():
        graph = model.graph if isinstance(model, MRF) else model
        return frozen(greedy_coloring(graph, q))

    return model_plan(model, ("start", q), build)


class _EnsembleColoringBase(EnsembleTrajectoryMixin):
    """Shared state for the batched colouring chains.

    Parameters
    ----------
    graph:
        Simple graph with vertices ``0..n-1``, or a uniform-colouring
        :class:`~repro.mrf.model.MRF` whose graph to colour (what
        :func:`repro.api.make_ensemble` passes: the plan is then cached on
        the model and built from its sorted edge list).
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
        graph: nx.Graph | MRF,
        q: int,
        replicas: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
        backend: str | ArrayBackend | None = None,
    ) -> None:
        model = graph
        if q < 2:
            raise ModelError(f"colouring needs q >= 2, got {q}")
        if replicas < 1:
            raise ModelError(f"ensemble needs replicas >= 1, got {replicas}")
        self.q = int(q)
        self.replicas = int(replicas)
        self._dtype = _spin_dtype(self.q)
        self._count_dtype = _spin_dtype(self.q + 1)  # colour counts 0..q
        self.rng = as_generator(seed)
        self.xp = get_backend(backend)
        self._plan = model_plan(
            model, ("coloring", self.xp.name), lambda: _coloring_plan(model, self.xp)
        )
        self.n = self._plan.n
        self._config = self.xp.asarray(
            _initial_spin_batch(
                initial,
                self.n,
                self.q,
                self.replicas,
                self._dtype,
                lambda: _coloring_start(model, self.q),
                noun="colours",
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

    def monochromatic_edges(self) -> np.ndarray:
        """Per-replica count of improper (monochromatic) edges, shape ``(R,)``."""
        plan = self._plan
        if plan.m == 0:
            return np.zeros(self.replicas, dtype=np.int64)
        xp = self.xp
        same = self._config[plan.eu_d] == self._config[plan.ev_d]
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
        neighbours' colours are read as fixed).  The heat-bath conditional
        of a proper colouring is uniform over the available colours, so
        one pass draws it exactly: gather the neighbour colours, mark them
        in a spin-axis-first ``(q, pairs)`` table, count the available
        colours cumulatively in the narrowest dtype that holds ``q``, and
        take available colour number ``floor(u * count)`` for one uniform
        ``u`` in ``[0, 1)`` per pair.  For ``u < 1`` the float64 product
        rounds below ``count`` (rounding is monotone, and the largest
        double below 1 times an integer below ``2**53`` rounds down), so
        the draw is always an available colour: never a neighbour's
        colour and never a value ``>= q``.  The shared update kernel of
        the LubyGlauber step and the region-restricted advance.

        Raises :class:`~repro.errors.ModelError` if some pair has no
        available colour (possible only when ``q <= Delta``).
        """
        xp, plan, q = self.xp, self._plan, self.q
        pairs = int(v_idx.shape[0])
        forbidden = xp.zeros((q, pairs), dtype=bool)
        if plan.m:
            pair_of_slot, slots = xp.expand_neighbour_slots(
                v_idx, plan.degrees_d, plan.indptr_d
            )
            neighbour_spins = self._config[
                plan.csr_indices_d[slots],
                xp.repeat(r_idx, plan.degrees_d[v_idx]),
            ]
            forbidden[xp.astype(neighbour_spins, np.int64), pair_of_slot] = True
        available = xp.cumsum(~forbidden, axis=0, dtype=self._count_dtype)
        count = available[-1]
        empty = count == 0
        if xp.any(empty):
            bad = int(v_idx[xp.argmax(empty)])
            raise ModelError(
                f"no available colour at vertex {bad}: its neighbours use all "
                f"{q} colours (needs q >= Delta + 1)"
            )
        rank = xp.astype(xp.random(self.rng, pairs) * count, self._count_dtype)
        spins = xp.sum(available <= rank, axis=0)
        self._config[v_idx, r_idx] = xp.astype(spins, self._dtype)

    def advance_region(self, steps: int, region) -> _EnsembleColoringBase:
        """Advance only ``region`` for ``steps`` rounds, boundary clamped.

        Every round Luby-selects an independent set among the region
        vertices (over region-internal edges only) and draws each selected
        pair a uniform available colour in one pass
        (:meth:`_resample_pairs`), written in place, so a round costs
        O(|S|·R), not a copy of the whole batch.  Vertices outside the
        region never change, and their colours enter the update as fixed
        boundary conditions through the full CSR neighbour gathers.  Used
        by :mod:`repro.dynamic` for incremental resampling after a graph
        mutation.  Note the kernel is the heat-bath (LubyGlauber) one for
        *both* colouring engines — a clamped LocalMetropolis round has no
        stationarity guarantee.
        """
        if steps < 0:
            raise ModelError(f"advance_region needs steps >= 0, got {steps}")
        selector = _RegionSelector(
            self.xp, _as_region(region, self.n), self._plan.eu, self._plan.ev, self.n
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
        xp, plan = self.xp, self._plan
        proposals = xp.uniform_spins(
            self.rng, self.q, (self.n, self.replicas), self._dtype
        )
        if plan.m == 0:
            self._config = proposals
            self.steps_taken += 1
            return
        pu = proposals[plan.eu_d]
        pv = proposals[plan.ev_d]
        xu = self._config[plan.eu_d]
        xv = self._config[plan.ev_d]
        failed = (pu == pv) | (pu == xv) | (pv == xu)
        # (n, R) count of failed incident edges; a vertex accepts iff zero.
        blocked = xp.spmm_count(plan.incidence, failed) > 0
        if _obs_metrics.enabled:
            _record_metropolis_step(self, blocked)
        self._config = xp.where(blocked, self._config, proposals)
        self.steps_taken += 1


class EnsembleLubyGlauberColoring(_EnsembleColoringBase):
    """Batched Algorithm 1 for proper q-colourings.

    One step advances all R replicas by one LubyGlauber round: each replica
    draws its own Luby independent set, then every selected (replica,
    vertex) pair draws a uniform *available* colour — the exact heat-bath
    conditional of a proper colouring — in one vectorised pass: one CSR
    gather of the neighbours' current colours, one scatter into a
    ``(q, pairs)`` table of forbidden colours, a cumulative count of the
    available ones and one uniform per pair, with no per-vertex Python
    loop and no rejection rounds (:meth:`_resample_pairs`).
    """

    def _luby_select(self):
        """Per-replica Luby step on the colouring graph, ``(n, R)`` boolean."""
        plan = self._plan
        return _batched_luby_select(
            self.xp, self.rng, self.n, self.replicas, plan.eu_d, plan.ev_d,
            plan.side_u, plan.side_v,
        )

    def step(self) -> None:
        xp = self.xp
        v_idx, r_idx = xp.nonzero_pairs(self._luby_select())
        if _obs_metrics.enabled:
            _record_luby_step(self, v_idx)
        self._resample_pairs(v_idx, r_idx)
        self.steps_taken += 1


def _ascending_csr(edge_u, edge_v, n: int, edge_table):
    """CSR neighbour slots in ascending-neighbour order, each with its table.

    The neighbours of ``v`` are ``indices[indptr[v]:indptr[v + 1]]`` in the
    order of ``mrf.neighbors(v)`` — the sequential chains' float operation
    order — and ``slot_table[s]`` is the stack index of the edge behind
    slot ``s``.  Returns ``(degrees, indptr, indices, slot_table)``.

    The edges must be sorted with ``u < v`` (as :func:`_edge_arrays`
    returns them): a stable sort by owner then lists each vertex's
    smaller neighbours (the ``v`` side, ascending) before its larger ones
    (the ``u`` side, ascending).
    """
    owners = np.concatenate([edge_v, edge_u])
    neighbours = np.concatenate([edge_u, edge_v])
    order = np.argsort(owners, kind="stable")
    degrees = np.bincount(owners, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    slot_table = np.concatenate([edge_table, edge_table])[order]
    return degrees, indptr, neighbours[order], slot_table


def _glauber_plan(mrf: MRF, xp: ArrayBackend) -> Plan:
    """The single-site Glauber plan.

    A padded neighbour table (-1 pad) in ascending-neighbour order, each
    slot's index into the deduplicated edge-activity stack, the stack and
    the vertex activities.
    """
    edge_u, edge_v = _edge_arrays(mrf)
    edge_table, activities = _edge_tables(mrf)
    n = mrf.n
    degrees, indptr, indices, slot_table = _ascending_csr(edge_u, edge_v, n, edge_table)
    width = max(int(degrees.max(initial=0)), 1)
    owner = np.repeat(np.arange(n), degrees)
    position = np.arange(indices.size) - indptr[owner]
    neighbour_pad = np.full((n, width), -1, dtype=np.int64)
    neighbour_pad[owner, position] = indices
    activity_index = np.zeros((n, width), dtype=np.int64)
    activity_index[owner, position] = slot_table
    return Plan(
        width=width,
        neighbour_pad_d=xp.asarray(neighbour_pad),
        activity_index_d=xp.asarray(activity_index),
        activities=xp.asarray(activities),
        vertex_activity=xp.asarray(np.asarray(mrf.vertex_activity, dtype=float)),
    )


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
        self.xp = xp = get_backend(backend)
        n, q, r = mrf.n, mrf.q, self.replicas
        self._plan = model_plan(mrf, ("glauber", xp.name), lambda: _glauber_plan(mrf, xp))
        if initial is None:
            config = np.repeat(default_start(mrf)[None, :], r, axis=0)
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
        self._config = xp.asarray(config.astype(np.int64, copy=False))
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
        xp, plan = self.xp, self._plan
        r, q = self.replicas, self.mrf.q
        # Conditional weights b_v(c) * prod_u A_uv(c, X_u), eq. (2), built
        # in ascending-neighbour order (bitwise-matching the sequential
        # implementation's float operation order).
        weights = xp.take_rows(plan.vertex_activity, vertices)
        rows = self._rows
        for k in range(plan.width):
            neighbour = plan.neighbour_pad_d[vertices, k]
            valid = neighbour >= 0
            if not xp.any(valid):
                continue
            spins = self._config[rows[valid], neighbour[valid]]
            weights[valid] *= plan.activities[
                plan.activity_index_d[vertices[valid], k], :, spins
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


def _pairwise_plan(mrf: MRF, xp: ArrayBackend) -> Plan:
    """The plan both batched pairwise-MRF kernels share (see the class below)."""
    n, q = mrf.n, mrf.q
    edge_u, edge_v = _edge_arrays(mrf)
    edge_table, stack = _edge_tables(mrf)
    degrees, indptr, indices, slot_table = _ascending_csr(edge_u, edge_v, n, edge_table)
    # int32 filter offsets halve the memory traffic of the per-round
    # index arithmetic (int64 only for a stack past 2^31 entries).
    index_dtype = np.int32 if stack.size < 2**31 else np.int64
    activity = mrf.vertex_activity
    cdf = np.cumsum(activity / activity.sum(axis=1, keepdims=True), axis=1)
    return Plan(
        degrees=degrees,
        degrees_d=xp.asarray(degrees),
        indptr_d=xp.asarray(indptr),
        csr_indices_d=xp.asarray(indices),
        slot_table_d=xp.asarray(slot_table),
        activities=xp.asarray(stack),
        vertex_activity_d=xp.asarray(np.asarray(activity, dtype=float)),
        # Flat Ã_e stack, addressed at table * q^2 + a * q + b.
        filter_flat=xp.asarray((stack / stack.max(axis=(1, 2), keepdims=True)).ravel()),
        index_dtype=index_dtype,
        edge_base_d=xp.asarray((edge_table * q * q)[:, None].astype(index_dtype)),
        proposal_cdf=xp.asarray(np.ascontiguousarray(cdf.T[:, :, None])),
        **_incidence_plan_fields(xp, edge_u, edge_v, n),
    )


class _EnsemblePairwiseMRFBase(EnsembleTrajectoryMixin):
    """Shared vectorised structure of the batched pairwise-MRF kernels.

    One plan (:func:`_pairwise_plan`, built once per model) serves both
    distributed algorithms on any pairwise MRF, and the two engines differ
    only in ``step()``:

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
        self.n, self.q = mrf.n, mrf.q
        self.replicas = int(replicas)
        self._dtype = _spin_dtype(self.q)
        self.rng = as_generator(seed)
        self.xp = xp = get_backend(backend)
        self._plan = model_plan(mrf, ("pairwise", xp.name), lambda: _pairwise_plan(mrf, xp))
        self._config = xp.asarray(
            _initial_spin_batch(
                initial,
                self.n,
                self.q,
                self.replicas,
                self._dtype,
                lambda: default_start(mrf),
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
            self.xp, _as_region(region, self.n), self._plan.eu, self._plan.ev, self.n
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
        xp, plan = self.xp, self._plan
        pairs = int(v_idx.shape[0])
        if pairs == 0:  # pragma: no cover - Luby always selects someone
            return
        # Conditional weights b_v(c) * prod_u A_uv(c, X_u), eq. (2).  The
        # neighbours of a selected vertex are unselected (Luby step), so
        # their spins are fixed for the whole update.  Undirected edge
        # matrices are symmetric, so gathering column ``X_u`` equals the
        # row gather the sequential chain performs.
        weights = xp.take_rows(plan.vertex_activity_d, v_idx)
        if plan.m:
            pair_of_slot, slots = xp.expand_neighbour_slots(
                v_idx, plan.degrees_d, plan.indptr_d
            )
            neighbour_spins = self._config[
                plan.csr_indices_d[slots],
                xp.repeat(r_idx, plan.degrees_d[v_idx]),
            ]
            values = plan.activities[
                plan.slot_table_d[slots], :, xp.astype(neighbour_spins, np.int64)
            ]
            weights = weights * xp.segment_prod(
                values, plan.degrees[xp.to_numpy(v_idx)]
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
    where the colouring engine draws uniformly among the available
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
        plan = self._plan
        return _batched_luby_select(
            self.xp, self.rng, self.n, self.replicas, plan.eu_d, plan.ev_d,
            plan.side_u, plan.side_v,
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
        xp, plan = self.xp, self._plan
        uniforms = xp.random(self.rng, (self.n, self.replicas))
        proposals = xp.astype(inverse_cdf(plan.proposal_cdf, uniforms, xp), self._dtype)
        if plan.m:
            q, index = self.q, plan.index_dtype
            pu = xp.astype(proposals[plan.eu_d], index)
            pv = xp.astype(proposals[plan.ev_d], index)
            xu = xp.astype(self._config[plan.eu_d], index)
            xv = xp.astype(self._config[plan.ev_d], index)
            from_proposal = plan.edge_base_d + pu * q
            from_current = plan.edge_base_d + xu * q
            table = plan.filter_flat
            pass_probability = (
                table[from_proposal + pv]
                * table[from_current + pv]
                * table[from_proposal + xv]
            )
            # One shared coin per (edge, replica): u < p always holds at
            # p = 1 and never at p = 0, as in the sequential chain.
            coins = xp.random(self.rng, (plan.m, self.replicas))
            blocked = xp.spmm_count(plan.incidence, coins >= pass_probability) > 0
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
def _csp_scope_plan(csp: LocalCSP, xp: ArrayBackend) -> Plan:
    """Flat constraint tables plus the precompiled scope strides.

    Besides the kernel structures it keeps, host-side, one entry per
    (constraint, scope position) — ``entry_constraint``, ``entry_vertex``
    and ``entry_stride`` — from which the heat-bath and mixing plans are
    derived with array code.
    """
    n, q = csp.n, csp.q
    constraints = csp.constraints
    count = len(constraints)
    arities = np.fromiter((c.arity for c in constraints), dtype=np.int64, count=count)
    total = int(arities.sum())
    vertices = np.fromiter(
        chain.from_iterable(c.scope for c in constraints), dtype=np.int64, count=total
    )
    owner = np.repeat(np.arange(count), arities)
    offsets = np.cumsum(arities) - arities
    position = np.arange(total) - offsets[owner]
    # Row-major strides: position p of an arity-k scope strides q^(k-1-p).
    strides = q ** (arities[owner] - 1 - position)
    sizes = q**arities
    starts = np.cumsum(sizes) - sizes
    flat_raw = (
        np.concatenate([c.table.ravel() for c in constraints])
        if count
        else np.zeros(0, dtype=float)
    )
    scope_matrix = vertex_incidence = None
    if count:
        scope_matrix = xp.csr(
            sp.csr_matrix((strides, (owner, vertices)), shape=(count, n))
        )
        ones = np.ones(total, dtype=np.int32)
        vertex_incidence = xp.csr(
            sp.csr_matrix((ones, (vertices, owner)), shape=(n, count))
        )
    return Plan(
        num_constraints=count,
        arities=arities,
        entry_offsets=offsets,
        entry_constraint=owner,
        entry_vertex=vertices,
        entry_stride=strides,
        table_starts=starts,
        table_sizes=sizes,
        table_starts_d=xp.asarray(starts),
        flat_raw=flat_raw,
        flat_raw_d=xp.asarray(flat_raw),
        scope_matrix=scope_matrix,
        vertex_incidence=vertex_incidence,
        spin_arange=xp.arange(q),
        mixing_rows=int((2**arities - 1).sum()),
    )


def _scope_entries_by_arity(scope: Plan):
    """Yield ``(arity, constraints, entries)`` per distinct arity.

    ``entries[i, p]`` is the entry index of position ``p`` in the scope of
    constraint ``constraints[i]``.
    """
    for arity in np.unique(scope.arities):
        members = np.flatnonzero(scope.arities == arity)
        yield int(arity), members, scope.entry_offsets[members][:, None] + np.arange(arity)


def _csp_heatbath_plan(csp: LocalCSP, scope: Plan, xp: ArrayBackend) -> Plan:
    """Conflict-graph edge arrays plus the (constraint, stride) incidence.

    The conflict graph joins every two co-scoped vertices; its edge
    arrays drive the batched Luby step (ties lose on both sides, exactly
    as LubyScheduler's strict local maxima).  The incidence CSR's slots of
    vertex ``v`` enumerate the constraints containing ``v`` in index order
    together with the stride of ``v``'s axis in each table.
    """
    n = csp.n
    lows, highs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for arity, _, entries in _scope_entries_by_arity(scope):
        first, second = np.triu_indices(arity, 1)
        u = scope.entry_vertex[entries[:, first]].ravel()
        v = scope.entry_vertex[entries[:, second]].ravel()
        lows.append(np.minimum(u, v))
        highs.append(np.maximum(u, v))
    keys = np.unique(np.concatenate(lows) * n + np.concatenate(highs))
    conflict_u, conflict_v = keys // n, keys % n
    order = np.lexsort((scope.entry_constraint, scope.entry_vertex))
    degrees = np.bincount(scope.entry_vertex, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    side_u = side_v = None
    if conflict_u.size:
        side_u, side_v = (xp.csr(side) for side in _side_matrices(conflict_u, conflict_v, n))
    return Plan(
        cu=conflict_u,
        cv=conflict_v,
        cu_d=xp.asarray(conflict_u),
        cv_d=xp.asarray(conflict_v),
        conflict_u=side_u,
        conflict_v=side_v,
        inc_degrees=degrees,
        inc_degrees_d=xp.asarray(degrees),
        inc_indptr_d=xp.asarray(indptr),
        inc_constraint=xp.asarray(scope.entry_constraint[order]),
        inc_stride=xp.asarray(scope.entry_stride[order]),
    )


def _csp_mixing_plan(csp: LocalCSP, scope: Plan, xp: ArrayBackend) -> Plan:
    """The precompiled LocalMetropolis mixing filter (class docstring).

    Row ``row_start[c] + mask - 1`` of the two stride matrices is the
    mixing ``mask`` (``1 .. 2^k - 1``) of constraint ``c``: scope position
    ``p`` reads the proposal where bit ``p`` of ``mask`` is set and the
    current spin elsewhere.
    """
    if not scope.num_constraints:  # the step never filters
        return Plan()
    mask_sizes = 2**scope.arities - 1
    row_start = np.cumsum(mask_sizes) - mask_sizes
    rows, entries, reads = [], [], []
    for arity, members, entry in _scope_entries_by_arity(scope):
        masks = np.arange(1, 2**arity)
        shape = (members.size, masks.size, arity)
        row = (row_start[members][:, None] + masks - 1)[:, :, None]
        rows.append(np.broadcast_to(row, shape).ravel())
        entries.append(np.broadcast_to(entry[:, None, :], shape).ravel())
        bits = ((masks[:, None] >> np.arange(arity)) & 1) == 1
        reads.append(np.broadcast_to(bits, shape).ravel())
    row, entry, read = (np.concatenate(parts) for parts in (rows, entries, reads))

    def stride_matrix(select):
        strides = scope.entry_stride[entry[select]]
        vertices = scope.entry_vertex[entry[select]]
        shape = (int(mask_sizes.sum()), csp.n)
        return xp.csr(sp.csr_matrix((strides, (row[select], vertices)), shape=shape))

    # f~_c = f_c / max f_c, the filter factor of every table entry.
    maxima = np.maximum.reduceat(scope.flat_raw, scope.table_starts)
    return Plan(
        flat_norm=xp.asarray(scope.flat_raw / np.repeat(maxima, scope.table_sizes)),
        # Segment sizes of the per-constraint mixing-row blocks (each is
        # 2^arity - 1 >= 1, so every segment is non-empty).
        mask_sizes=mask_sizes,
        row_table_start=xp.asarray(np.repeat(scope.table_starts, mask_sizes)),
        proposal_matrix=stride_matrix(read),
        current_matrix=stride_matrix(~read),
    )


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
        self.xp = xp = get_backend(backend)
        self._plan = model_plan(csp, ("csp", xp.name), lambda: _csp_scope_plan(csp, xp))
        self._config = xp.asarray(
            _initial_spin_batch(
                initial,
                self.n,
                self.q,
                self.replicas,
                self._dtype,
                lambda: default_start(csp),
            )
        )
        self.steps_taken = 0

    def _heatbath(self) -> Plan:
        """The heat-bath plan (:func:`_csp_heatbath_plan`), built on first use.

        :class:`EnsembleLubyGlauberCSP` needs it every step;
        :class:`EnsembleLocalMetropolisCSP` only for the region-restricted
        advance, so it otherwise never pays for it.
        """
        csp, scope, xp = self.csp, self._plan, self.xp
        return model_plan(
            csp, ("csp-heatbath", xp.name), lambda: _csp_heatbath_plan(csp, scope, xp)
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
        return self.xp.spmm_int(self._plan.scope_matrix, batch)

    def feasible_mask(self) -> np.ndarray:
        """Boolean ``(R,)`` mask of replicas with positive total weight."""
        scope = self._plan
        if not scope.num_constraints:
            return np.ones(self.replicas, dtype=bool)
        xp = self.xp
        flat = self._scope_flat_indices(self._config)
        values = scope.flat_raw_d[scope.table_starts_d[:, None] + flat]
        return np.all(xp.to_numpy(values) > 0.0, axis=0)

    def is_feasible(self) -> bool:
        """Return True iff *every* replica's configuration is feasible."""
        return bool(self.feasible_mask().all())

    def step(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # ------------------------------------------------------------------
    # heat-bath machinery (LubyGlauber step and region-restricted advance)
    # ------------------------------------------------------------------
    def _heatbath_update(self, v_idx, r_idx) -> None:
        """Heat-bath-resample the given (vertex, replica) pairs in place.

        The pairs must be strongly independent within each replica (no two
        share a constraint scope), so every co-scoped vertex is fixed
        conditioning.
        """
        xp, scope = self.xp, self._plan
        pairs = int(v_idx.shape[0])
        if pairs == 0:  # pragma: no cover - Luby always selects someone
            return
        q = self.q
        if scope.num_constraints:
            plan = self._heatbath()
            config64 = xp.astype(self._config, np.int64)
            flat = self._scope_flat_indices(self._config)
            # Expand each selected pair to its constraint-incidence slots.
            # Selected vertices are strongly independent, so every co-scoped
            # vertex is unselected and its spin is fixed this round.
            pair_of_slot, slots = xp.expand_neighbour_slots(
                v_idx, plan.inc_degrees_d, plan.inc_indptr_d
            )
            constraint = plan.inc_constraint[slots]
            stride = plan.inc_stride[slots]
            r_slot = r_idx[pair_of_slot]
            current = config64[v_idx[pair_of_slot], r_slot]
            base = (
                scope.table_starts_d[constraint]
                + flat[constraint, r_slot]
                - current * stride
            )
            # (slots, q) factor values for every candidate spin of the pair.
            values = scope.flat_raw_d[
                base[:, None] + stride[:, None] * scope.spin_arange
            ]
            weights = xp.segment_prod(
                values, plan.inc_degrees[xp.to_numpy(v_idx)]
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
        plan = self._heatbath()
        selector = _RegionSelector(
            self.xp, _as_region(region, self.n), plan.cu, plan.cv, self.n
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
        # updates through the incidence CSR: build that plan eagerly.
        self._heatbath()

    def _luby_select(self):
        """Per-replica Luby step on the conflict graph, ``(n, R)`` boolean."""
        plan = self._heatbath()
        return _batched_luby_select(
            self.xp, self.rng, self.n, self.replicas, plan.cu_d, plan.cv_d,
            plan.conflict_u, plan.conflict_v,
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
        total_rows = self._plan.mixing_rows
        if total_rows > self.MAX_MIXING_ROWS:
            raise StateSpaceTooLargeError(
                f"LocalMetropolis mixing filter needs {total_rows} precompiled "
                f"rows (2^arity - 1 per constraint), over the "
                f"{self.MAX_MIXING_ROWS} cap; use the sequential "
                "LocalMetropolisCSP chain for very-high-arity CSPs"
            )
        scope, xp = self._plan, self.xp
        self._mixing = model_plan(
            csp, ("csp-mixing", xp.name), lambda: _csp_mixing_plan(csp, scope, xp)
        )

    def step(self) -> None:
        """Uniform proposals; batched 2^k - 1-factor filter; accept if clean."""
        xp, scope, plan = self.xp, self._plan, self._mixing
        proposals = xp.uniform_spins(
            self.rng, self.q, (self.n, self.replicas), self._dtype
        )
        if not scope.num_constraints:
            self._config = proposals
            self.steps_taken += 1
            return
        # Flat table index of every (constraint, mixing) row: proposal spins
        # where the mixing reads the proposal, current spins elsewhere.
        flat = xp.spmm_int(plan.proposal_matrix, proposals) + xp.spmm_int(
            plan.current_matrix, self._config
        )
        factors = plan.flat_norm[plan.row_table_start[:, None] + flat]
        pass_probability = xp.segment_prod(factors, plan.mask_sizes)
        # One shared coin per (constraint, replica): u < p is almost surely
        # true at p = 1 and never true at p = 0, so the deterministic
        # branches of the sequential chain need no special-casing.
        coins = xp.random(self.rng, (scope.num_constraints, self.replicas))
        failed = coins >= pass_probability
        blocked = xp.spmm_count(scope.vertex_incidence, failed) > 0
        if _obs_metrics.enabled:
            _record_metropolis_step(self, blocked)
        self._config = xp.where(blocked, self._config, proposals)
        self.steps_taken += 1
