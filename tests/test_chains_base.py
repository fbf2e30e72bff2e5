"""Tests for chain infrastructure (repro.chains.base)."""

import numpy as np
import pytest

from repro.chains import GlauberDynamics, greedy_feasible_config, random_config
from repro.errors import ModelError
from repro.graphs import cycle_graph, grid_graph, path_graph, torus_graph
from repro.mrf import (
    MRF,
    hardcore_mrf,
    ising_mrf,
    list_coloring_mrf,
    proper_coloring_mrf,
    vertex_cover_mrf,
)


def _frozen_greedy_feasible_config(mrf, rng=None):
    """The original per-vertex numpy implementation, kept as the oracle."""
    config = np.zeros(mrf.n, dtype=np.int64)
    assigned = np.zeros(mrf.n, dtype=bool)
    for v in range(mrf.n):
        weights = mrf.vertex_activity[v].copy()
        for u in mrf.neighbors(v):
            if assigned[u]:
                weights = weights * (mrf.edge_activity(u, v)[:, config[u]] > 0)
        candidates = np.nonzero(weights > 0)[0]
        if candidates.size == 0:
            config[v] = int(np.argmax(mrf.vertex_activity[v]))
        elif rng is None:
            config[v] = int(candidates[0])
        else:
            config[v] = int(rng.choice(candidates))
        assigned[v] = True
    return config


def _heterogeneous_mrf():
    """Three-spin model with two edge tables shared by identity, hard zeros
    and per-vertex fields, one of which allows a single spin."""
    graph = grid_graph(3, 4)
    soft = np.array([[2.0, 0.5, 1.0], [0.5, 2.0, 0.0], [1.0, 0.0, 2.0]])
    hard = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    tables = {edge: (soft if sum(edge) % 2 else hard) for edge in graph.edges()}
    fields = np.tile([1.0, 0.5, 2.0], (12, 1))
    fields[5] = [0.0, 3.0, 0.0]
    return MRF(graph, 3, tables, fields)


GREEDY_MODELS = {
    "coloring": lambda: proper_coloring_mrf(torus_graph(5, 5), 6),
    "coloring-tight": lambda: proper_coloring_mrf(cycle_graph(7), 2),
    "list-coloring": lambda: list_coloring_mrf(
        cycle_graph(6), 4, {v: [v % 4, (v + 1) % 4, 3] for v in range(6)}
    ),
    "hardcore": lambda: hardcore_mrf(torus_graph(5, 5), 1.5),
    "ising": lambda: ising_mrf(grid_graph(4, 4), beta=0.7, field=1.3),
    "vertex-cover": lambda: vertex_cover_mrf(torus_graph(4, 4), 2.0),
    "heterogeneous": _heterogeneous_mrf,
}


class TestInitialConfigs:
    def test_greedy_coloring_is_proper_when_q_exceeds_degree(self):
        for q in (3, 4, 5):
            mrf = proper_coloring_mrf(cycle_graph(7), q)
            config = greedy_feasible_config(mrf)
            assert mrf.is_feasible(config)

    def test_greedy_hardcore_feasible(self):
        mrf = hardcore_mrf(cycle_graph(6), 2.0)
        assert mrf.is_feasible(greedy_feasible_config(mrf))

    def test_greedy_with_rng_still_feasible(self, rng):
        mrf = proper_coloring_mrf(cycle_graph(7), 4)
        config = greedy_feasible_config(mrf, rng)
        assert mrf.is_feasible(config)

    @pytest.mark.parametrize("name", sorted(GREEDY_MODELS))
    def test_greedy_matches_frozen_implementation(self, name):
        """Same output and same post-call RNG position as the original."""
        mrf = GREEDY_MODELS[name]()
        assert np.array_equal(
            greedy_feasible_config(mrf), _frozen_greedy_feasible_config(mrf)
        )
        for seed in range(6):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(
                greedy_feasible_config(mrf, ours),
                _frozen_greedy_feasible_config(mrf, theirs),
            )
            assert ours.random() == theirs.random()

    def test_random_config_in_range(self, rng):
        mrf = proper_coloring_mrf(path_graph(5), 3)
        config = random_config(mrf, rng)
        assert config.shape == (5,)
        assert np.all((config >= 0) & (config < 3))


class TestChainMechanics:
    def test_explicit_initial_config(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        chain = GlauberDynamics(mrf, initial=[0, 1, 2], seed=0)
        assert tuple(chain.config) == (0, 1, 2)

    def test_initial_validation(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        with pytest.raises(ModelError):
            GlauberDynamics(mrf, initial=[0, 1])
        with pytest.raises(ModelError):
            GlauberDynamics(mrf, initial=[0, 1, 5])

    def test_run_counts_steps(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        chain = GlauberDynamics(mrf, seed=0)
        chain.run(17)
        assert chain.steps_taken == 17

    def test_trajectory_records_initial_and_strides(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        chain = GlauberDynamics(mrf, initial=[0, 1, 0], seed=0)
        states = chain.trajectory(10, record_every=2)
        assert states[0] == (0, 1, 0)
        assert len(states) == 6  # initial + 5 checkpoints

    def test_trajectory_rejects_bad_stride(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        chain = GlauberDynamics(mrf, seed=0)
        with pytest.raises(ModelError):
            chain.trajectory(5, record_every=0)

    def test_seeding_reproducible(self):
        mrf = proper_coloring_mrf(cycle_graph(5), 4)
        a = GlauberDynamics(mrf, initial=[0, 1, 0, 1, 2], seed=5).run(100)
        b = GlauberDynamics(mrf, initial=[0, 1, 0, 1, 2], seed=5).run(100)
        assert np.array_equal(a, b)

    def test_generator_seed_accepted(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        chain = GlauberDynamics(mrf, seed=np.random.default_rng(3))
        chain.run(5)
        assert chain.steps_taken == 5

    def test_current_returns_tuple(self):
        mrf = proper_coloring_mrf(path_graph(3), 3)
        chain = GlauberDynamics(mrf, initial=[0, 1, 0], seed=0)
        assert chain.current == (0, 1, 0)


class TestSeedCoercion:
    """The shared SeedLike coercion helper (as_seed_sequence).

    One helper serves every entry point that needs a spawnable root:
    the LOCAL runtime, the sharded exec subsystem, the sequential-chain
    fallback ensemble and the facade's protocol engines.
    """

    def test_int_and_seed_sequence_give_same_root(self):
        from repro.chains.base import as_seed_sequence

        a = as_seed_sequence(7)
        b = as_seed_sequence(np.random.SeedSequence(7))
        assert a.entropy == b.entropy == 7
        assert np.random.default_rng(a).integers(1 << 30) == np.random.default_rng(
            b
        ).integers(1 << 30)

    def test_none_draws_fresh_entropy(self):
        from repro.chains.base import as_seed_sequence

        assert as_seed_sequence(None).entropy != as_seed_sequence(None).entropy

    def test_generator_derives_one_draw(self):
        from repro.chains.base import as_seed_sequence

        root = as_seed_sequence(np.random.default_rng(3))
        expected = int(
            np.random.default_rng(3).integers(np.iinfo(np.int64).max)
        )
        assert root.entropy == expected

    def test_generator_rejected_when_disallowed(self):
        from repro.chains.base import as_seed_sequence

        with pytest.raises(ModelError, match="Generator"):
            as_seed_sequence(np.random.default_rng(3), allow_generator=False)

    def test_unsupported_type_rejected(self):
        from repro.chains.base import as_seed_sequence

        with pytest.raises(ModelError, match="seed type"):
            as_seed_sequence("nope")

    def test_facade_local_engine_accepts_seed_sequence(self):
        import repro

        mrf = proper_coloring_mrf(cycle_graph(5), 5)
        by_int = repro.sample(mrf, engine="reference", rounds=4, seed=11)
        by_seq = repro.sample(
            mrf, engine="reference", rounds=4, seed=np.random.SeedSequence(11)
        )
        assert np.array_equal(by_int, by_seq)

    def test_fallback_ensemble_accepts_seed_sequence(self):
        from repro.analysis.convergence import SequentialChainEnsemble

        mrf = proper_coloring_mrf(cycle_graph(5), 4)

        def factory(rng):
            return GlauberDynamics(mrf, seed=rng)

        a = SequentialChainEnsemble(factory, 4, seed=9).advance(10).config
        b = SequentialChainEnsemble(
            factory, 4, seed=np.random.SeedSequence(9)
        ).advance(10).config
        assert np.array_equal(a, b)
