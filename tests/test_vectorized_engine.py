"""Tests for the two engines of the paper's LOCAL-model sampler runners.

The contract under test (see :mod:`repro.distributed.sampling_protocols`):

* **exact accounting** — ``RunStats.rounds`` / ``messages`` /
  ``messages_per_round`` / ``max_message_atoms`` match the reference
  engine's measured values exactly (the vectorized values are analytic);
* **distributional equivalence** — at matched round budgets the two
  engines realise the same per-round Markov kernel, so their output
  distributions agree (within sampling tolerance) even though the
  vectorized engine (the ensemble kernel at R=1) consumes randomness from
  one shared stream.
"""

import numpy as np
import pytest

import repro
from repro.analysis import empirical_distribution
from repro.backend import NumpyBackend, resolve_backend_name
from repro.distributed import (
    run_local_metropolis_protocol,
    run_luby_glauber_protocol,
)
from repro.errors import ModelError, ProtocolError
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.mrf import (
    exact_gibbs_distribution,
    hardcore_mrf,
    ising_mrf,
    proper_coloring_mrf,
)
from repro.obs import metrics

RUNNERS = (run_luby_glauber_protocol, run_local_metropolis_protocol)


class TestEngineDispatch:
    def test_unknown_engine_rejected(self):
        mrf = proper_coloring_mrf(cycle_graph(4), 4)
        with pytest.raises(ProtocolError, match="unknown engine"):
            run_luby_glauber_protocol(mrf, rounds=1, seed=0, engine="gpu")

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_backend_reaches_the_kernel(self, runner, monkeypatch):
        import repro.backend as backend_mod

        draws = []

        class Counting(NumpyBackend):
            name = "counting"

            def random(self, rng, size):
                draws.append(size)
                return super().random(rng, size)

        monkeypatch.setattr(backend_mod, "_FACTORIES", {"counting": Counting})
        monkeypatch.setattr(backend_mod, "_INSTANCES", {})
        mrf = ising_mrf(cycle_graph(4), 0.5)
        runner(mrf, rounds=3, seed=0, engine="vectorized", backend="counting")
        assert draws

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_probes_count_local_rounds_and_messages(self, runner):
        mrf = proper_coloring_mrf(cycle_graph(5), 4)
        metrics.reset()
        metrics.enable()
        try:
            _, stats = runner(mrf, rounds=6, seed=0, engine="vectorized")
            counters = {
                c["name"]: c for c in metrics.snapshot()["counters"]
                if c["name"].startswith("repro_local_")
            }
        finally:
            metrics.disable()
            metrics.reset()
        assert set(counters) == {
            "repro_local_rounds_total",
            "repro_local_messages_total",
            "repro_local_seconds_total",
        }
        protocol = "LubyGlauberProtocol" if runner is RUNNERS[0] else "LocalMetropolisProtocol"
        labels = {"protocol": protocol, "backend": resolve_backend_name()}
        for counter in counters.values():
            assert counter["labels"] == labels
        assert counters["repro_local_rounds_total"]["value"] == stats.rounds == 6
        assert counters["repro_local_messages_total"]["value"] == stats.messages == 60


class TestStatsMatchExactly:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_rounds_messages_and_atoms_match_reference(self, runner):
        mrf = proper_coloring_mrf(grid_graph(3, 4), 10)
        _, reference = runner(mrf, rounds=13, seed=5, engine="reference")
        _, vectorized = runner(mrf, rounds=13, seed=5, engine="vectorized")
        assert vectorized.rounds == reference.rounds == 13
        assert vectorized.messages == reference.messages
        assert vectorized.messages_per_round == reference.messages_per_round
        assert vectorized.max_message_atoms == reference.max_message_atoms

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_zero_rounds(self, runner):
        mrf = proper_coloring_mrf(cycle_graph(5), 4)
        initial = np.arange(5) % 2
        config, stats = runner(
            mrf, rounds=0, seed=0, initial=initial, engine="vectorized"
        )
        assert np.array_equal(config, initial)
        assert stats.rounds == 0
        assert stats.messages == 0
        assert stats.max_message_atoms == 0

    def test_edgeless_graph_sends_no_messages(self):
        import networkx as nx

        graph = nx.empty_graph(4)
        mrf = proper_coloring_mrf(graph, 3)
        for engine in ("reference", "vectorized"):
            _, stats = run_luby_glauber_protocol(mrf, rounds=3, seed=0, engine=engine)
            assert stats.messages == 0
            assert stats.max_message_atoms == 0


class TestVectorizedOutputs:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_produces_feasible_configurations(self, runner):
        mrf = proper_coloring_mrf(grid_graph(3, 3), 12)
        config, _ = runner(mrf, rounds=40, seed=0, engine="vectorized")
        assert mrf.is_feasible(config)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_seed_reproducible(self, runner):
        mrf = proper_coloring_mrf(cycle_graph(7), 5)
        a, _ = runner(mrf, rounds=25, seed=11, engine="vectorized")
        b, _ = runner(mrf, rounds=25, seed=11, engine="vectorized")
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_general_soft_constraint_models_supported(self, runner):
        mrf = ising_mrf(grid_graph(3, 3), 1.4)
        config, _ = runner(mrf, rounds=20, seed=3, engine="vectorized")
        assert config.shape == (9,)
        assert set(np.unique(config)) <= {0, 1}

    def test_luby_glauber_rejects_undefined_conditional(self):
        # A 2-colouring path whose middle vertex sees both colours in its
        # neighbourhood: once the middle wins the Luby step (seed chosen so
        # it does in round 1), its conditional marginal is identically zero
        # and the colouring heat-bath has no available colour to draw.
        mrf = proper_coloring_mrf(path_graph(3), 2)
        with pytest.raises(ModelError, match="no available colour") as caught:
            run_luby_glauber_protocol(
                mrf,
                rounds=1,
                seed=4,
                initial=np.array([0, 0, 1]),
                engine="vectorized",
            )
        assert caught.type is ModelError


class TestDistributionalEquivalence:
    """The two engines run the same kernel: matched budgets, matched laws."""

    def _joint_samples(self, runner, mrf, rounds, engine, trials, base_seed):
        return [
            tuple(
                int(s)
                for s in runner(
                    mrf, rounds=rounds, seed=base_seed + seed, engine=engine
                )[0]
            )
            for seed in range(trials)
        ]

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_engines_agree_distributionally(self, runner):
        mrf = hardcore_mrf(path_graph(3), 1.0)
        reference = self._joint_samples(runner, mrf, 30, "reference", 1200, 0)
        vectorized = self._joint_samples(runner, mrf, 30, "vectorized", 1200, 50_000)
        a = empirical_distribution(reference, mrf.n, mrf.q)
        b = empirical_distribution(vectorized, mrf.n, mrf.q)
        assert a.tv_distance(b) < 0.08

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_vectorized_matches_exact_gibbs(self, runner):
        """End-to-end Theorems 1.1/1.2 through the vectorized engine."""
        mrf = hardcore_mrf(path_graph(3), 1.0)
        gibbs = exact_gibbs_distribution(mrf)
        samples = self._joint_samples(runner, mrf, 40, "vectorized", 1500, 0)
        empirical = empirical_distribution(samples, mrf.n, mrf.q)
        assert gibbs.tv_distance(empirical) < 0.06

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_marginals_match_at_matched_budgets(self, runner):
        """Per-vertex marginals agree within tolerance at the same round
        budget — the satellite acceptance statement, on a colouring model."""
        mrf = proper_coloring_mrf(cycle_graph(4), 3)
        trials, rounds = 900, 12
        counts = {engine: np.zeros((mrf.n, mrf.q)) for engine in ("reference", "vectorized")}
        for engine in counts:
            for seed in range(trials):
                config, _ = runner(mrf, rounds=rounds, seed=7_000 + seed, engine=engine)
                counts[engine][np.arange(mrf.n), config] += 1
        reference = counts["reference"] / trials
        vectorized = counts["vectorized"] / trials
        assert np.max(np.abs(reference - vectorized)) < 0.08


class TestCollectStats:
    def test_reference_fast_path_skips_payload_walk(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 4)
        _, full = run_luby_glauber_protocol(mrf, rounds=5, seed=0, collect_stats=True)
        _, fast = run_luby_glauber_protocol(mrf, rounds=5, seed=0, collect_stats=False)
        assert fast.rounds == full.rounds
        assert fast.messages == full.messages
        assert fast.max_message_atoms == 0  # payload walking skipped
        assert fast.messages_per_round == []
        assert full.max_message_atoms == 2

    def test_engines_report_identical_stats_without_collection(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 4)
        _, ref = run_luby_glauber_protocol(
            mrf, rounds=5, seed=0, engine="reference", collect_stats=False
        )
        _, vec = run_luby_glauber_protocol(
            mrf, rounds=5, seed=0, engine="vectorized", collect_stats=False
        )
        assert (ref.rounds, ref.messages) == (vec.rounds, vec.messages)
        assert ref.messages_per_round == vec.messages_per_round == []
        assert ref.max_message_atoms == vec.max_message_atoms == 0


class TestApiEngine:
    def test_sample_vectorized_engine(self):
        mrf = proper_coloring_mrf(grid_graph(4, 4), 16)
        config = repro.sample(mrf, seed=0, engine="vectorized")
        assert config.shape == (16,)
        assert mrf.is_feasible(config)

    def test_sample_reference_engine(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        config = repro.sample(
            mrf, method="luby-glauber", rounds=20, seed=1, engine="reference"
        )
        assert mrf.is_feasible(config)

    def test_sample_generator_seed_accepted_by_local_engines(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        config = repro.sample(
            mrf, rounds=15, seed=np.random.default_rng(5), engine="vectorized"
        )
        assert mrf.is_feasible(config)

    def test_glauber_has_no_local_engine(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        with pytest.raises(ModelError, match="no LOCAL-model protocol"):
            repro.sample(mrf, method="glauber", engine="vectorized")

    def test_unknown_engine_rejected(self):
        mrf = proper_coloring_mrf(cycle_graph(6), 5)
        with pytest.raises(ModelError, match="unknown engine"):
            repro.sample(mrf, engine="warp-drive")

    def test_engines_constant_exported(self):
        assert repro.ENGINES == ("chain", "reference", "vectorized")


class TestCliEngine:
    def test_sample_with_vectorized_engine(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sample",
                "--graph",
                "grid",
                "--size",
                "4",
                "--q",
                "12",
                "--seed",
                "2",
                "--rounds",
                "30",
                "--engine",
                "vectorized",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine: vectorized" in out
        assert "feasible: True" in out

    def test_glauber_engine_conflict_is_reported(self, capsys):
        from repro.cli import main

        code = main(
            ["sample", "--method", "glauber", "--engine", "vectorized", "--size", "6"]
        )
        assert code == 1
        assert "no LOCAL-model protocol" in capsys.readouterr().err
