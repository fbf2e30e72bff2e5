"""Vectorised implementations of both chains for proper q-colourings.

The generic chains in :mod:`repro.chains` favour clarity and generality
(arbitrary activities, per-edge coins); for colourings — the model the
paper's headline theorems address — every filter is deterministic given the
proposals and both algorithms vectorise over numpy arrays.  These fast
paths make 10^4-10^5-vertex experiments practical and are validated against
the generic implementations by the test-suite (same stationary behaviour,
same per-round invariants).

* :class:`FastLocalMetropolisColoring` — Algorithm 2 specialised: uniform
  proposals; an edge fails iff one of the three colouring rules trips
  (``c_u = c_v``, ``c_u = X_v``, ``c_v = X_u``); all edges checked with
  three array comparisons.
* :class:`FastLubyGlauberColoring` — Algorithm 1 specialised: the Luby step
  is two array comparisons over the edge list; selected vertices resample
  uniformly over available colours by vectorised rejection (propose a
  uniform colour, keep if unused in the neighbourhood — the accepted value
  is exactly uniform over available colours).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

import networkx as nx
import numpy as np

from repro.errors import ModelError
from repro.graphs.structure import check_vertex_labels

__all__ = [
    "FastLocalMetropolisColoring",
    "FastLubyGlauberColoring",
    "FastCoupledLocalMetropolis",
    "sorted_edge_arrays",
    "build_csr_neighbours",
    "expand_neighbour_slots",
    "greedy_coloring",
]


def sorted_edge_arrays(graph: nx.Graph) -> tuple[np.ndarray, np.ndarray]:
    """Return the edge endpoints as two sorted int64 arrays (u < v per edge)."""
    m = graph.number_of_edges()
    flat = np.fromiter(chain.from_iterable(graph.edges()), dtype=np.int64, count=2 * m)
    edges = np.sort(flat.reshape(m, 2), axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order, 0], edges[order, 1]


def build_csr_neighbours(
    edge_u: np.ndarray, edge_v: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR-style neighbour arrays from edge lists.

    Returns ``(degrees, indptr, indices)``: the neighbours of vertex ``v``
    are ``indices[indptr[v]:indptr[v + 1]]``.  Shared by the single-replica
    fast paths and the batched ensembles so the two kernels cannot drift.
    """
    owners = np.concatenate([edge_u, edge_v])
    degrees = np.bincount(owners, minlength=n).astype(np.int64)
    order = np.argsort(owners, kind="stable")
    indices = np.concatenate([edge_v, edge_u])[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return degrees, indptr, indices


def expand_neighbour_slots(
    vertices: np.ndarray, degrees: np.ndarray, indptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand each vertex in ``vertices`` to its CSR neighbour slots.

    Returns ``(pair_of_slot, slots)``: entry ``k`` of a per-slot array
    belongs to ``vertices[pair_of_slot[k]]`` and addresses neighbour
    ``indices[slots[k]]``.  The neighbour gather of the vectorised colour
    resamples (rejection here, the one-pass heat-bath of the ensembles).
    """
    deg = degrees[vertices]
    pair_of_slot = np.repeat(np.arange(vertices.size), deg)
    within = np.arange(pair_of_slot.size) - np.repeat(np.cumsum(deg) - deg, deg)
    slots = np.repeat(indptr[vertices], deg) + within
    return pair_of_slot, slots


def greedy_coloring(graph: nx.Graph, q: int) -> np.ndarray:
    """First-fit greedy colouring in vertex order (proper for q >= Delta + 1)."""
    n = graph.number_of_nodes()
    config = np.zeros(n, dtype=np.int64)
    for v in range(n):
        used = {int(config[u]) for u in graph.neighbors(v) if u < v}
        for color in range(q):
            if color not in used:
                config[v] = color
                break
    return config


class _FastColoringBase:
    """Shared state: edge arrays, configuration, RNG."""

    def __init__(
        self,
        graph: nx.Graph,
        q: int,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_vertex_labels(graph)
        if q < 2:
            raise ModelError(f"colouring needs q >= 2, got {q}")
        self.n = graph.number_of_nodes()
        self.q = int(q)
        self.edge_u, self.edge_v = sorted_edge_arrays(graph)
        self.graph = graph
        # CSR-style neighbour arrays let the Luby resample check all pending
        # vertices in one vectorised pass.
        self._degrees, self._indptr, self._csr_indices = build_csr_neighbours(
            self.edge_u, self.edge_v, self.n
        )
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.default_rng(seed)
        if initial is None:
            self.config = self._greedy_coloring()
        else:
            config = np.asarray(initial, dtype=np.int64)
            if config.shape != (self.n,):
                raise ModelError(f"initial configuration must have shape ({self.n},)")
            if np.any(config < 0) or np.any(config >= q):
                raise ModelError(f"initial colours must lie in 0..{q - 1}")
            self.config = config.copy()
        self.steps_taken = 0

    def _greedy_coloring(self) -> np.ndarray:
        return greedy_coloring(self.graph, self.q)

    def monochromatic_edges(self) -> int:
        """Return the number of improper (monochromatic) edges."""
        if len(self.edge_u) == 0:
            return 0
        return int((self.config[self.edge_u] == self.config[self.edge_v]).sum())

    def is_proper(self) -> bool:
        """Return True iff the current colouring is proper."""
        return self.monochromatic_edges() == 0

    def run(self, steps: int) -> np.ndarray:
        """Advance ``steps`` rounds; return a *copy* of the configuration.

        Returning a copy (matching :func:`repro.api.sample`) keeps callers
        from silently corrupting the live chain state through the returned
        array.
        """
        for _ in range(steps):
            self.step()
        return self.config.copy()

    def step(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class FastLocalMetropolisColoring(_FastColoringBase):
    """Vectorised Algorithm 2 for proper q-colourings."""

    def step(self) -> None:
        proposals = self.rng.integers(0, self.q, size=self.n)
        blocked = np.zeros(self.n, dtype=bool)
        if len(self.edge_u):
            pu = proposals[self.edge_u]
            pv = proposals[self.edge_v]
            xu = self.config[self.edge_u]
            xv = self.config[self.edge_v]
            # The three filtering rules of Section 4.2 (all deterministic).
            failed = (pu == pv) | (pu == xv) | (pv == xu)
            blocked[self.edge_u[failed]] = True
            blocked[self.edge_v[failed]] = True
        accept = ~blocked
        self.config[accept] = proposals[accept]
        self.steps_taken += 1


class FastLubyGlauberColoring(_FastColoringBase):
    """Vectorised Algorithm 1 for proper q-colourings."""

    def _luby_select(self) -> np.ndarray:
        ranks = self.rng.random(self.n)
        loses = np.zeros(self.n, dtype=bool)
        if len(self.edge_u):
            ru = ranks[self.edge_u]
            rv = ranks[self.edge_v]
            loses[self.edge_u[ru <= rv]] = True
            loses[self.edge_v[rv <= ru]] = True
        return ~loses

    def step(self) -> None:
        selected = self._luby_select()
        pending = np.nonzero(selected)[0]
        if pending.size == 0:
            self.steps_taken += 1
            return
        # Vectorised rejection sampling of a uniform available colour:
        # propose uniform colours for all pending vertices, accept the ones
        # avoiding every neighbour's *current* colour.  The neighbours of a
        # selected vertex are unselected (independent set), so their colours
        # are fixed throughout; each accepted colour is exactly a draw from
        # the conditional marginal (uniform over available colours).  The
        # neighbour check expands each pending vertex to its CSR neighbour
        # slots — one gather and one bincount per rejection round, with the
        # work decaying geometrically as vertices accept.
        result = self.config.copy()
        guard = 0
        while pending.size:
            proposals = self.rng.integers(0, self.q, size=pending.size)
            pair_of_slot, slots = expand_neighbour_slots(
                pending, self._degrees, self._indptr
            )
            hits = self.config[self._csr_indices[slots]] == proposals[pair_of_slot]
            keep = np.bincount(pair_of_slot[hits], minlength=pending.size) == 0
            accepted = pending[keep]
            result[accepted] = proposals[keep]
            pending = pending[~keep]
            guard += 1
            if guard > 200 * self.q:
                raise ModelError(
                    "rejection sampling stalled: some vertex has no available "
                    "colour (needs q >= Delta + 1)"
                )
        self.config = result
        self.steps_taken += 1


class FastCoupledLocalMetropolis(_FastColoringBase):
    """Vectorised identical-proposal coupling of two LocalMetropolis copies.

    Both copies share proposals; colouring filters are deterministic, so
    the coupling is exactly the Lemma 4.4 local coupling.  Enables
    coalescence-time measurements at 10^4-10^5 vertices (experiment E3's
    large-scale series).
    """

    def __init__(
        self,
        graph: nx.Graph,
        q: int,
        initial_x: Sequence[int] | np.ndarray,
        initial_y: Sequence[int] | np.ndarray,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(graph, q, initial=initial_x, seed=seed)
        other = np.asarray(initial_y, dtype=np.int64)
        if other.shape != (self.n,):
            raise ModelError(f"initial_y must have shape ({self.n},)")
        self.config_y = other.copy()

    def _accept_mask(self, config: np.ndarray, proposals: np.ndarray) -> np.ndarray:
        blocked = np.zeros(self.n, dtype=bool)
        if len(self.edge_u):
            pu = proposals[self.edge_u]
            pv = proposals[self.edge_v]
            xu = config[self.edge_u]
            xv = config[self.edge_v]
            failed = (pu == pv) | (pu == xv) | (pv == xu)
            blocked[self.edge_u[failed]] = True
            blocked[self.edge_v[failed]] = True
        return ~blocked

    def step(self) -> None:
        proposals = self.rng.integers(0, self.q, size=self.n)
        accept_x = self._accept_mask(self.config, proposals)
        accept_y = self._accept_mask(self.config_y, proposals)
        self.config[accept_x] = proposals[accept_x]
        self.config_y[accept_y] = proposals[accept_y]
        self.steps_taken += 1

    def agree(self) -> bool:
        """Return True iff the two copies coincide everywhere."""
        return bool(np.array_equal(self.config, self.config_y))

    def hamming(self) -> int:
        """Return the number of disagreeing vertices."""
        return int((self.config != self.config_y).sum())
