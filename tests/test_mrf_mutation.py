"""Copy-on-write MRF mutations agree with a model built from scratch.

``MRF.with_edge`` / ``without_edge`` / ``with_edge_activity`` /
``with_vertex_activity`` derive their sibling in O(Δ) work: they patch the
two endpoints' neighbour tuples, bisect the sorted edge list, share the
frozen tables and leave the ``networkx`` graph unbuilt until it is read.
Hypothesis drives random mutation sequences (derandomized) and checks
every intermediate model against an :class:`~repro.mrf.model.MRF` built
from scratch on the same content: structure, activities, the canonical
payload and fingerprint, the lazily built graph, and bit-identical
engine output for all three methods.  :func:`influenced_region` is
checked against a brute-force networkx ball in the union graph, for MRF
and CSP mutations.
"""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make_ensemble
from repro.csp import not_all_equal_csp
from repro.csp.hypergraph import conflict_graph
from repro.csp.model import Constraint
from repro.dynamic import DynamicEnsemble, influenced_region
from repro.graphs import cycle_graph, torus_graph
from repro.mrf import MRF, proper_coloring_mrf

N, Q = 6, 7
METHODS = ("local-metropolis", "luby-glauber", "glauber")
OPS = ("with_edge", "without_edge", "with_edge_activity", "with_vertex_activity")


def _frozen(array) -> np.ndarray:
    array = np.asarray(array, dtype=float)
    array.setflags(write=False)
    return array


def _edge_pool() -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    pool = [_frozen(np.ones((Q, Q)) - np.eye(Q))]  # proper colouring
    for _ in range(2):
        matrix = rng.random((Q, Q)) + 0.2
        pool.append(_frozen(matrix + matrix.T))
    return pool


EDGE_POOL = _edge_pool()
VERTEX_POOL = [np.ones(Q), np.linspace(0.5, 2.0, Q), np.full(Q, 3.0)]

steps = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(0, 99),
        st.integers(0, 99),
        st.integers(0, 2),
    ),
    min_size=1,
    max_size=6,
)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _base() -> MRF:
    """A colouring of C6 with a chord, every edge on one shared table."""
    graph = cycle_graph(N)
    graph.add_edge(0, 3)
    return MRF(graph, Q, EDGE_POOL[0], np.ones(Q))


def _apply(model: MRF, tables: dict, vertex: np.ndarray, step):
    """Apply one step to the model and to its from-scratch description.

    Returns the mutated model and the vertices the step touched.
    """
    op, a, b, pick = step
    if op == "with_edge":
        u = a % N
        v = (u + 1 + b % (N - 1)) % N
        tables[(min(u, v), max(u, v))] = EDGE_POOL[pick]
        return model.with_edge(u, v, EDGE_POOL[pick]), (u, v)
    if op == "with_vertex_activity" or not model.edges:
        vertex[a % N] = VERTEX_POOL[pick]
        return model.with_vertex_activity(a % N, VERTEX_POOL[pick]), (a % N,)
    u, v = model.edges[a % len(model.edges)]
    if op == "without_edge":
        del tables[(u, v)]
        return model.without_edge(v, u), (u, v)
    tables[(u, v)] = EDGE_POOL[pick]
    return model.with_edge_activity(v, u, EDGE_POOL[pick]), (u, v)


def _from_scratch(tables: dict, vertex: np.ndarray) -> MRF:
    graph = nx.Graph()
    graph.add_nodes_from(range(N))
    graph.add_edges_from(tables)
    # Writable copies: the scratch model owns one table per edge.
    return MRF(graph, Q, {e: np.array(t) for e, t in tables.items()}, vertex.copy())


def _assert_same_model(model: MRF, scratch: MRF) -> None:
    assert model.edges == scratch.edges
    assert [model.neighbors(v) for v in range(N)] == [
        scratch.neighbors(v) for v in range(N)
    ]
    assert model.max_degree == scratch.max_degree
    for u, v in scratch.edges:
        np.testing.assert_array_equal(model.edge_activity(v, u), scratch.edge_activity(u, v))
    np.testing.assert_array_equal(model.vertex_activity, scratch.vertex_activity)
    assert model.to_dict() == scratch.to_dict()
    assert model.model_fingerprint() == scratch.model_fingerprint()


@given(steps=steps)
@PROPERTY
def test_mutation_sequences_match_a_from_scratch_model(steps):
    model = _base()
    tables = {edge: EDGE_POOL[0] for edge in model.edges}
    vertex = np.ones((N, Q))
    for step in steps:
        before = model.to_dict()
        mutated, _ = _apply(model, tables, vertex, step)
        assert model.to_dict() == before  # copy-on-write: the parent is untouched
        model = mutated
        scratch = _from_scratch(tables, vertex)
        _assert_same_model(model, scratch)
        for seed, method in enumerate(METHODS):
            ours = make_ensemble(model, 3, method=method, seed=seed).run(4)
            theirs = make_ensemble(scratch, 3, method=method, seed=seed).run(4)
            np.testing.assert_array_equal(ours, theirs)
        # The graph is built lazily, from the edge list, on first read.
        graph = model.graph
        assert graph.number_of_nodes() == N
        assert sorted(tuple(sorted(e)) for e in graph.edges()) == scratch.edges


def _brute_force_ball(old_graph, new_graph, touched, radius):
    union = nx.compose(old_graph, new_graph)
    ball = set()
    for t in touched:
        ball.update(nx.single_source_shortest_path_length(union, t, cutoff=radius))
    return sorted(ball)


@given(steps=steps, radius=st.integers(0, 3))
@PROPERTY
def test_influenced_region_is_the_union_graph_ball_mrf(steps, radius):
    model = _base()
    tables = {edge: EDGE_POOL[0] for edge in model.edges}
    vertex = np.ones((N, Q))
    for step in steps:
        mutated, touched = _apply(model, tables, vertex, step)
        # One endpoint alone reaches the other only through the union.
        for sources in (touched, touched[:1]):
            region = influenced_region(model, mutated, sources, radius=radius)
            expected = _brute_force_ball(model.graph, mutated.graph, sources, radius)
            assert region.tolist() == expected
        model = mutated


@given(
    scopes=st.lists(
        st.lists(st.integers(0, 7), min_size=2, max_size=3, unique=True),
        min_size=1,
        max_size=5,
    ),
    remove=st.integers(0, 99),
    radius=st.integers(0, 3),
)
@PROPERTY
def test_influenced_region_is_the_union_graph_ball_csp(scopes, remove, radius):
    csp = not_all_equal_csp([(0, 1, 2), (2, 3), (5, 6, 7)], n=8, q=3)
    for scope in scopes:
        table = np.ones((3,) * len(scope))
        table[(0,) * len(scope)] = 0.0
        constraint = Constraint(tuple(scope), table)
        grown = csp.with_constraint(constraint)
        region = influenced_region(csp, grown, constraint.scope, radius=radius)
        expected = _brute_force_ball(
            conflict_graph(csp), conflict_graph(grown), constraint.scope, radius
        )
        assert region.tolist() == expected
        csp = grown
    index = remove % len(csp.constraints)
    scope = csp.constraints[index].scope
    shrunk = csp.without_constraint(index)
    for sources in (scope, scope[:1]):
        region = influenced_region(csp, shrunk, sources, radius=radius)
        expected = _brute_force_ball(
            conflict_graph(csp), conflict_graph(shrunk), sources, radius
        )
        assert region.tolist() == expected


def test_dynamic_events_never_build_the_graph():
    # Every O(n + m) step is gone from an event, the networkx graph too:
    # add/remove/update events and their resamples never read it.
    dyn = DynamicEnsemble(proper_coloring_mrf(torus_graph(8, 8), 6), 4, seed=1)
    for _ in range(2):
        dyn.remove_edge(0, 1).resample()
        assert dyn.model._graph is None
        dyn.add_edge(0, 1).resample()
        assert dyn.model._graph is None
