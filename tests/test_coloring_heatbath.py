"""The colouring heat-bath: one pass, uniform over the available colours.

:meth:`~repro.chains.ensemble._EnsembleColoringBase._resample_pairs` is
the update kernel of the LubyGlauber colouring step, of both colouring
engines' ``advance_region`` and of the vectorized R=1 engine.  These
tests feed it adversarial uniforms (``0.0`` and the largest double below
1) through a backend whose ``random`` returns a constant, so each draw is
pinned to the first or last available colour, and check that it never
picks a neighbour's colour or a value ``>= q`` — also for ``q > 255``,
where a one-byte count would wrap.  A pair with no available colour
raises before any uniform is drawn.  A chi-square check pins the law.
"""

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from repro.api import make_ensemble
from repro.backend import get_backend
from repro.chains.ensemble import EnsembleLubyGlauberColoring
from repro.errors import ModelError
from repro.graphs import torus_graph
from repro.mrf import proper_coloring_mrf

LAST_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _fixed_uniform_backend(value: float):
    """The session's backend, with every float uniform replaced by ``value``."""
    base = type(get_backend())

    class FixedUniforms(base):
        draws = 0

        def random(self, rng, size):
            self.draws += 1
            return self.asarray(np.full(size, value))

    return FixedUniforms()


def _star_engine(leaf_colours, q, replicas, backend=None, seed=0):
    """A star whose centre 0 sees ``leaf_colours[r]`` in replica ``r``."""
    leaf_colours = np.asarray(leaf_colours, dtype=np.int64)
    leaves = leaf_colours.shape[1]
    graph = nx.star_graph(leaves)
    initial = np.zeros((replicas, leaves + 1), dtype=np.int64)
    initial[:, 1:] = leaf_colours
    return EnsembleLubyGlauberColoring(
        proper_coloring_mrf(graph, q), q, replicas, initial=initial, seed=seed,
        backend=backend,
    )


def _resample_centre(engine):
    xp = engine.xp
    v_idx = xp.asarray(np.zeros(engine.replicas, dtype=np.int64))
    r_idx = xp.asarray(np.arange(engine.replicas, dtype=np.int64))
    engine._resample_pairs(v_idx, r_idx)
    return engine.config[:, 0]


@pytest.mark.parametrize("q", [3, 8, 126, 127, 300])
@pytest.mark.parametrize("value", [0.0, LAST_BELOW_ONE])
def test_adversarial_uniforms_pick_the_extreme_available_colours(q, value):
    rng = np.random.default_rng(q)
    leaves = min(q - 1, 6)
    leaf_colours = rng.integers(0, q, size=(40, leaves))
    leaf_colours[0] = np.arange(leaves)  # the lowest colours taken
    leaf_colours[1] = np.arange(q - leaves, q)  # the highest colours taken
    backend = _fixed_uniform_backend(value)
    centre = _resample_centre(_star_engine(leaf_colours, q, 40, backend))
    for r, colour in enumerate(centre):
        available = sorted(set(range(q)) - set(leaf_colours[r].tolist()))
        assert 0 <= colour < q
        assert colour not in leaf_colours[r]
        assert colour == (available[0] if value == 0.0 else available[-1])


@pytest.mark.parametrize("value", [0.0, LAST_BELOW_ONE])
def test_wide_counts_past_one_byte(value):
    # q = 300 with 299 leaves: the only free colour is found whichever
    # colour is free, and with 3 taken colours the count (297) needs more
    # than one byte to index the last available colour.
    q = 300
    full = np.stack([np.delete(np.arange(q), free) for free in (0, 150, 299)])
    centre = _resample_centre(_star_engine(full, q, 3, _fixed_uniform_backend(value)))
    assert centre.tolist() == [0, 150, 299]
    few = np.array([[0, 1, 2], [297, 298, 299]])
    centre = _resample_centre(_star_engine(few, q, 2, _fixed_uniform_backend(value)))
    assert centre.tolist() == ([3, 0] if value == 0.0 else [299, 296])


def test_no_available_colour_raises_before_drawing():
    backend = _fixed_uniform_backend(0.5)
    engine = _star_engine([[0, 1, 2], [0, 0, 1]], 3, 2, backend)
    with pytest.raises(ModelError, match="no available colour at vertex 0"):
        _resample_centre(engine)
    assert backend.draws == 0


@pytest.mark.parametrize("value", [0.0, LAST_BELOW_ONE])
def test_luby_glauber_steps_stay_proper_under_adversarial_uniforms(value):
    # q = Delta + 1 on the torus: a selected vertex may have one free colour.
    model = proper_coloring_mrf(torus_graph(6, 6), 5)
    engine = make_ensemble(model, 8, method="luby-glauber", seed=3)
    engine.xp = _fixed_uniform_backend(value)
    for _ in range(10):
        engine.step()
        assert engine.is_proper()
    engine.advance_region(10, [0, 1, 2, 6, 7, 8])
    assert engine.is_proper()


def test_centre_colour_is_uniform_over_the_available_colours():
    replicas, q = 6000, 6
    engine = _star_engine(np.tile([0, 2, 2], (replicas, 1)), q, replicas, seed=11)
    centre = _resample_centre(engine)
    counts = np.bincount(centre, minlength=q)
    assert counts[0] == counts[2] == 0
    statistic = stats.chisquare(counts[[1, 3, 4, 5]]).statistic
    assert statistic < stats.chi2.ppf(1 - 1e-4, df=3)
