"""Every inverse-CDF call site falls through to a positive-mass spin.

``w = [0.1] * 7 + [0]`` normalises to a CDF that tops out at
``0.9999999999999998``, so the uniform ``nextafter(1, 0)`` lands past
every spin.  Clipping that draw to ``q - 1`` would emit spin 7, which has
zero mass; the shared rule of :mod:`repro.chains.sampling` picks spin 6.
Each test below drives one sampler with that exact uniform on a model
whose relevant distribution is ``w`` (edgeless graphs, so the proposal
and conditional distributions are both ``b_v = w``).
"""

import networkx as nx
import numpy as np
import pytest

from repro.backend import NumpyBackend
from repro.chains.cftp import _inverse_cdf_spin
from repro.chains.coupling import CoupledLocalMetropolis
from repro.chains.ensemble import (
    EnsembleGlauberDynamics,
    EnsembleLocalMetropolisMRF,
    EnsembleLubyGlauberMRF,
)
from repro.chains.glauber import GlauberDynamics, sample_spin
from repro.chains.local_metropolis import LocalMetropolisChain
from repro.chains.sampling import inverse_cdf, inverse_cdf_spin
from repro.distributed.sampling_protocols import (
    run_local_metropolis_protocol,
    run_luby_glauber_protocol,
)
from repro.dynamic.region import sequential_region_glauber
from repro.errors import InfeasibleStateError
from repro.mrf import MRF

WEIGHTS = np.array([0.1] * 7 + [0.0])
TOP = np.nextafter(1.0, 0.0)
ZERO_MASS = 7


class _TopUniforms:
    """Generator stand-in: every uniform is ``TOP``; integers are real."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def random(self, size=None, dtype=np.float64):
        if size is None:
            return float(TOP)
        return np.full(size, TOP, dtype=dtype)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


def _model(n: int = 3) -> MRF:
    return MRF(nx.empty_graph(n), 8, np.ones((8, 8)), WEIGHTS)


def test_the_shortfall_scenario_is_real():
    cdf = np.cumsum(WEIGHTS / WEIGHTS.sum())
    assert cdf[-1] < TOP
    assert int(np.sum(cdf <= TOP)) == 8  # a clip would pick spin 7


def test_helpers():
    cdf = np.cumsum(WEIGHTS / WEIGHTS.sum())
    assert int(inverse_cdf(cdf, np.float64(TOP))) == 6
    assert inverse_cdf(cdf[:, None, None], np.full((2, 3), TOP)).tolist() == [[6] * 3] * 2
    distribution = WEIGHTS / WEIGHTS.sum()
    assert inverse_cdf_spin(distribution, TOP) == 6
    assert _inverse_cdf_spin(distribution, TOP) == 6
    assert sample_spin(distribution, _TopUniforms()) == 6
    with pytest.raises(InfeasibleStateError):
        inverse_cdf_spin(np.zeros(3), 0.5)


def test_helpers_agree_away_from_the_fallthrough():
    rng = np.random.default_rng(1)
    distribution = rng.random(6)
    distribution /= distribution.sum()
    uniforms = rng.random(200)
    batched = inverse_cdf(np.cumsum(distribution)[:, None], uniforms)
    scalar = [inverse_cdf_spin(distribution, u) for u in uniforms]
    assert batched.tolist() == scalar


@pytest.mark.parametrize(
    "engine_cls",
    [EnsembleGlauberDynamics, EnsembleLubyGlauberMRF, EnsembleLocalMetropolisMRF],
)
def test_ensemble_engines(engine_cls):
    ensemble = engine_cls(_model(), 4, initial=np.zeros(3, dtype=np.int64), seed=0)
    ensemble.rng = _TopUniforms()
    for _ in range(3):
        ensemble.step()
        assert not np.any(ensemble.config == ZERO_MASS)
    assert np.all(ensemble.config[:, 0] == 6)


def test_sequential_chains():
    for chain in (
        LocalMetropolisChain(_model(), initial=np.zeros(3, dtype=np.int64)),
        GlauberDynamics(_model(), initial=np.zeros(3, dtype=np.int64)),
    ):
        chain.rng = _TopUniforms()
        for _ in range(3):
            chain.step()
        assert not np.any(chain.config == ZERO_MASS)
    assert chain.config.tolist() != [0, 0, 0]


def test_coupled_local_metropolis():
    start = np.zeros(3, dtype=np.int64)
    coupled = CoupledLocalMetropolis(_model(), start, start + 1)
    coupled.rng = _TopUniforms()
    coupled.step()
    assert coupled.x.tolist() == coupled.y.tolist() == [6, 6, 6]


def test_sequential_region_oracle():
    batch = np.zeros((4, 3), dtype=np.int64)
    sequential_region_glauber(_model(), batch, [0, 1, 2], 6, _TopUniforms())
    assert not np.any(batch == ZERO_MASS)
    assert np.any(batch == 6)


@pytest.mark.parametrize(
    "run", [run_luby_glauber_protocol, run_local_metropolis_protocol]
)
def test_vectorized_protocols(run, monkeypatch):
    monkeypatch.setattr(
        NumpyBackend, "random", lambda self, rng, size: np.full(size, TOP)
    )
    config, _ = run(_model(), 2, seed=0, engine="vectorized", collect_stats=False)
    assert config.tolist() == [6, 6, 6]


def test_reference_local_metropolis_protocol(monkeypatch):
    import repro.local.runtime as runtime

    monkeypatch.setattr(
        runtime, "spawn_node_rngs", lambda seed, n: [_TopUniforms() for _ in range(n)]
    )
    config, _ = run_local_metropolis_protocol(
        _model(), 1, seed=0, engine="reference", collect_stats=False
    )
    assert config.tolist() == [6, 6, 6]
