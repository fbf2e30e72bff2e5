"""Engine plans: seed-independent precompute built once per model and shared.

The contracts under test:

* a cache hit is bit-identical to a miss, and a model built separately
  with equal content gets its own plan and the same bits;
* every copy-on-write mutation gets a fresh plan;
* a plan never keeps its model alive, and its arrays are read-only;
* the default start is deterministic: no engine draws it from the seed.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.api import make_ensemble
from repro.chains.ensemble import (
    EnsembleLocalMetropolisColoring,
    EnsembleLocalMetropolisCSP,
    EnsembleLubyGlauberColoring,
    EnsembleLubyGlauberCSP,
    _edge_tables,
)
from repro.chains.fastpaths import sorted_edge_arrays
from repro.csp import not_all_equal_csp
from repro.csp.hypergraph import conflict_graph
from repro.csp.model import Constraint, LocalCSP
from repro.graphs import grid_graph, random_regular_graph
from repro.mrf import MRF, hardcore_mrf, ising_mrf, proper_coloring_mrf

REPLICAS = 6


def _coloring():
    return proper_coloring_mrf(grid_graph(4, 4), 6)


def _ising():
    return ising_mrf(grid_graph(4, 4), beta=0.8, field=0.3)


def _hardcore():
    return hardcore_mrf(grid_graph(4, 4), 1.5)


def _nae():
    return not_all_equal_csp([(0, 1, 2), (1, 2, 3), (2, 3, 4), (4, 5, 0)], n=6, q=3)


#: family -> (fresh-model factory, method); the colouring MRF dispatches to
#: the colouring kernels, Ising to the general pairwise-MRF kernels.
FAMILIES = {
    "coloring-lm": (_coloring, "local-metropolis"),
    "coloring-lg": (_coloring, "luby-glauber"),
    "mrf-lm": (_ising, "local-metropolis"),
    "mrf-lg": (_ising, "luby-glauber"),
    "glauber": (_ising, "glauber"),
    "csp-lm": (_nae, "local-metropolis"),
    "csp-lg": (_nae, "luby-glauber"),
}


def _run(model, method, seed=7, rounds=5, backend=None):
    engine = make_ensemble(model, REPLICAS, method=method, seed=seed, backend=backend)
    return engine, engine.run(rounds)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_hit_is_bit_identical_to_miss(family):
    build, method = FAMILIES[family]
    model = build()
    miss_engine, miss = _run(model, method)
    hit_engine, hit = _run(model, method)
    twin_engine, twin = _run(build(), method)
    assert hit_engine._plan is miss_engine._plan
    assert twin_engine._plan is not miss_engine._plan
    np.testing.assert_array_equal(hit, miss)
    np.testing.assert_array_equal(twin, miss)


@pytest.mark.parametrize("cls", [EnsembleLocalMetropolisColoring, EnsembleLubyGlauberColoring])
def test_colouring_engine_on_a_bare_graph_caches_per_graph(cls):
    graph = grid_graph(4, 4)
    first = cls(graph, 6, REPLICAS, seed=3)
    second = cls(graph, 6, REPLICAS, seed=3)
    other = cls(grid_graph(4, 4), 6, REPLICAS, seed=3)
    assert first._plan is second._plan and other._plan is not first._plan
    np.testing.assert_array_equal(first.run(4), second.run(4))
    np.testing.assert_array_equal(first.config, other.run(4))


MUTATIONS = {
    "with_edge": lambda m: m.with_edge(0, 5, m.edge_activity(0, 1)),
    "without_edge": lambda m: m.without_edge(0, 1),
    "with_vertex_activity": lambda m: m.with_vertex_activity(3, np.full(m.q, 2.0)),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("build", [_coloring, _ising], ids=["coloring", "ising"])
@pytest.mark.parametrize("method", ["local-metropolis", "luby-glauber", "glauber"])
def test_every_mutation_gets_a_fresh_plan(mutation, build, method):
    model = build()
    original, _ = _run(model, method)
    mutated = MUTATIONS[mutation](model)
    engine, batch = _run(mutated, method)
    assert engine._plan is not original._plan
    # The mutated model's plan describes the mutated model: a model built
    # from scratch with the same content gives the same bits.
    _, rebuilt = _run(type(mutated).from_dict(mutated.to_dict()), method)
    np.testing.assert_array_equal(batch, rebuilt)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_plan_does_not_keep_its_model_alive(family):
    build, method = FAMILIES[family]
    model = build()
    engine, _ = _run(model, method)
    plan = weakref.ref(engine._plan)
    alive = weakref.ref(model)
    del engine, model
    gc.collect()
    assert alive() is None
    assert plan() is None


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_plan_arrays_are_read_only(family):
    build, method = FAMILIES[family]
    engine, _ = _run(build(), method, backend="numpy")
    arrays = [value for value in vars(engine._plan).values() if isinstance(value, np.ndarray)]
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]


START_CASES = [
    (build, method)
    for build in (_coloring, _ising, _hardcore)
    for method in ("local-metropolis", "luby-glauber", "glauber")
] + [(_nae, "local-metropolis"), (_nae, "luby-glauber")]


@pytest.mark.parametrize(
    ("build", "method"), START_CASES, ids=[f"{b.__name__[1:]}-{m}" for b, m in START_CASES]
)
def test_default_start_does_not_depend_on_the_seed(build, method):
    model = build()
    starts = [make_ensemble(model, REPLICAS, method=method, seed=s).run(0) for s in range(4)]
    starts.append(make_ensemble(build(), REPLICAS, method=method, seed=None).run(0))
    for start in starts[1:]:
        np.testing.assert_array_equal(start, starts[0])
    # One shared start, replicated to every replica.
    assert (starts[0] == starts[0][0]).all()


# ----------------------------------------------------------------------
# The plans are built with array code; the loops they replace are the
# reference.
# ----------------------------------------------------------------------
def test_sorted_edge_arrays_match_the_sorted_edge_list():
    graph = random_regular_graph(3, 40, seed=1)
    expected = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    edge_u, edge_v = sorted_edge_arrays(graph)
    assert list(zip(edge_u.tolist(), edge_v.tolist())) == expected


def test_edge_tables_index_each_edge_to_its_own_matrix():
    rng = np.random.default_rng(0)
    shared = []
    for _ in range(3):
        matrix = rng.random((3, 3)) + 0.1
        matrix = matrix + matrix.T
        matrix.setflags(write=False)  # frozen tables are shared, not copied
        shared.append(matrix)
    graph = grid_graph(3, 4)
    edges = sorted(graph.edges())
    mrf = MRF(graph, 3, {edge: shared[i % 3] for i, edge in enumerate(edges)}, np.ones(3))
    edge_table, stack = _edge_tables(mrf)
    assert stack.shape == (3, 3, 3)
    for index, (u, v) in zip(edge_table, mrf.edges):
        np.testing.assert_array_equal(stack[index], mrf.edge_activity(u, v))


@pytest.mark.parametrize("method", ["local-metropolis", "luby-glauber", "glauber"])
def test_mutated_edge_tables_follow_the_edge_order(method):
    # A copy-on-write sibling appends the new edge to its activity dict, so
    # the dict is not in ``edges`` order; a distinct table on an edge in the
    # middle of the sort order must still reach that edge and no other.
    model = ising_mrf(grid_graph(4, 4), beta=0.8, field=0.3)
    distinct = np.array([[0.5, 2.0], [2.0, 0.25]])
    mutated = model.without_edge(5, 6).with_edge(5, 6, distinct)
    assert 0 < mutated.edges.index((5, 6)) < len(mutated.edges) - 1
    assert list(mutated._edge_activity)[-1] == (5, 6)
    scratch = MRF.from_dict(mutated.to_dict())
    edge_table, stack = _edge_tables(mutated)
    for index, (u, v) in zip(edge_table, mutated.edges):
        np.testing.assert_array_equal(stack[index], mutated.edge_activity(u, v))
        np.testing.assert_array_equal(stack[index], scratch.edge_activity(u, v))
    plan = make_ensemble(mutated, REPLICAS, method=method, seed=1)._plan
    if method == "glauber":
        slots = [
            (v, int(u), int(table))
            for v in range(mutated.n)
            for u, table in zip(plan.neighbour_pad_d[v], plan.activity_index_d[v])
            if u >= 0
        ]
    else:
        slots = [
            (v, int(plan.csr_indices_d[s]), int(plan.slot_table_d[s]))
            for v in range(mutated.n)
            for s in range(plan.indptr_d[v], plan.indptr_d[v + 1])
        ]
    assert len(slots) == 2 * len(mutated.edges)
    for v, u, table in slots:
        np.testing.assert_array_equal(plan.activities[table], mutated.edge_activity(u, v))
        np.testing.assert_array_equal(plan.activities[table], scratch.edge_activity(u, v))


def _mixed_arity_csp():
    rng = np.random.default_rng(3)
    scopes = [(0, 1, 2), (2, 5), (3,), (4, 6, 7, 1), (5, 0, 3)]
    return LocalCSP(
        8, 3, [Constraint(s, rng.random((3,) * len(s)) + 0.05) for s in scopes]
    )


def test_csp_plans_match_their_loop_definitions():
    csp = _mixed_arity_csp()
    n, q = csp.n, csp.q
    heatbath = EnsembleLubyGlauberCSP(csp, 2, backend="numpy")._heatbath()
    conflict_u, conflict_v = sorted_edge_arrays(conflict_graph(csp))
    np.testing.assert_array_equal(heatbath.cu, conflict_u)
    np.testing.assert_array_equal(heatbath.cv, conflict_v)
    # The incidence slots of v: the constraints containing v, in index
    # order, with the stride of v's axis in each table.
    slots = [
        (index, q ** (csp.constraints[index].arity - 1 - csp.constraints[index].scope.index(v)))
        for v in range(n)
        for index in csp.incident[v]
    ]
    assert list(zip(heatbath.inc_constraint.tolist(), heatbath.inc_stride.tolist())) == slots
    np.testing.assert_array_equal(heatbath.inc_degrees, [len(i) for i in csp.incident])

    mixing = EnsembleLocalMetropolisCSP(csp, 2, backend="numpy")._mixing
    proposal = mixing.proposal_matrix.toarray()
    current = mixing.current_matrix.toarray()
    row = 0
    for constraint in csp.constraints:
        strides = q ** np.arange(constraint.arity - 1, -1, -1)
        for mask in range(1, 2**constraint.arity):
            expected_proposal, expected_current = np.zeros(n), np.zeros(n)
            for position, vertex in enumerate(constraint.scope):
                side = expected_proposal if (mask >> position) & 1 else expected_current
                side[vertex] = strides[position]
            np.testing.assert_array_equal(proposal[row], expected_proposal)
            np.testing.assert_array_equal(current[row], expected_current)
            row += 1
    assert row == proposal.shape[0]
    np.testing.assert_array_equal(
        mixing.flat_norm,
        np.concatenate([c.normalized_table().ravel() for c in csp.constraints]),
    )
