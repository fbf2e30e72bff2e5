"""Coupling from the past (CFTP): *exact* Gibbs sampling.

The reproduction needs trustworthy ground-truth samples on models too large
for ``q**n`` enumeration (e.g. to validate the distributed chains' outputs
on 100+-vertex graphs).  Propp–Wilson coupling-from-the-past provides them:
run a grand coupling of Glauber dynamics from time ``-T`` to 0 with fixed
randomness; if all initial states coalesce, the common value at time 0 is
an exact sample from the stationary distribution.

Two engines:

* :class:`MonotoneCFTP` — for *monotone* spin systems (attractive models
  such as the ferromagnetic Ising model, and the hardcore model on
  bipartite graphs via the standard order-reversal), tracking only the
  top and bottom trajectories of the partial order;
* :class:`SmallStateCFTP` — for arbitrary models with small ``q**n``,
  tracking every state explicitly (exponential, but exact and
  assumption-free; used to cross-validate the monotone engine).

Both reuse randomness across doubling horizons exactly as Propp-Wilson
requires — re-running a longer horizon *extends the past*, it never
resamples the already-used updates.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from repro.chains.sampling import inverse_cdf_spin as _inverse_cdf_spin
from repro.errors import ConvergenceError, ModelError, StateSpaceTooLargeError
from repro.mrf.marginals import conditional_marginal
from repro.mrf.model import MRF

__all__ = ["MonotoneCFTP", "SmallStateCFTP", "is_monotone_model"]


def _glauber_update(
    mrf: MRF, config: np.ndarray, vertex: int, uniform: float
) -> int:
    """Deterministic Glauber update: new spin of ``vertex`` from one uniform.

    Uses inverse-CDF sampling so that, for two-state monotone models, a
    *common* uniform draw yields a monotone update (larger neighbourhoods
    give stochastically larger marginals and the inverse CDF preserves it).
    """
    return _inverse_cdf_spin(conditional_marginal(mrf, config, vertex), uniform)


def is_monotone_model(mrf: MRF) -> bool:
    """Heuristically check the attractivity condition for two-state models.

    A two-state MRF is monotone (attractive) for the coordinatewise order
    iff every edge activity satisfies ``A(0,0) * A(1,1) >= A(0,1) * A(1,0)``
    — the FKG-type lattice condition.  The ferromagnetic Ising model
    (``A(i,i) = beta > 1``) qualifies; the hardcore model does **not** (it
    is anti-monotone) and must go through the bipartite order-reversal.
    """
    if mrf.q != 2:
        return False
    for u, v in mrf.edges:
        matrix = mrf.edge_activity(u, v)
        if matrix[0, 0] * matrix[1, 1] < matrix[0, 1] * matrix[1, 0] - 1e-15:
            return False
    return True


class MonotoneCFTP:
    """Propp-Wilson CFTP for monotone two-state models.

    Parameters
    ----------
    mrf:
        A two-state model satisfying :func:`is_monotone_model`, or any
        two-state model together with ``flip_vertices`` implementing an
        order-reversal (see below).
    flip_vertices:
        Optional set of vertices whose spin is interpreted *reversed* in
        the partial order.  For the hardcore model on a bipartite graph
        with parts ``(L, R)``, passing ``R`` makes the model monotone in
        the twisted order (the classical trick), enabling exact hardcore
        sampling.
    seed:
        Seed for the randomness of the past.
    """

    def __init__(
        self,
        mrf: MRF,
        flip_vertices: Sequence[int] | None = None,
        seed: int | None = None,
    ) -> None:
        if mrf.q != 2:
            raise ModelError("MonotoneCFTP supports two-state models only")
        self.mrf = mrf
        self.flip = np.zeros(mrf.n, dtype=bool)
        if flip_vertices is not None:
            self.flip[list(flip_vertices)] = True
        if not self._twisted_monotone():
            raise ModelError(
                "model is not monotone under the given order; for hardcore "
                "models pass one side of a bipartition as flip_vertices"
            )
        self._seed_sequence = np.random.SeedSequence(seed)

    def _twisted_monotone(self) -> bool:
        """Check the lattice condition in the (possibly) twisted order."""
        for u, v in self.mrf.edges:
            matrix = np.array(self.mrf.edge_activity(u, v))
            if self.flip[u] != self.flip[v]:
                matrix = matrix[:, ::-1]  # reverse v's spin order
            if matrix[0, 0] * matrix[1, 1] < matrix[0, 1] * matrix[1, 0] - 1e-15:
                return False
        return True

    # ------------------------------------------------------------------
    def _order_leq(self, low: np.ndarray, high: np.ndarray) -> bool:
        """Twisted coordinatewise order: spins at flipped vertices reverse."""
        a = np.where(self.flip, 1 - low, low)
        b = np.where(self.flip, 1 - high, high)
        return bool(np.all(a <= b))

    def _bottom_top(self) -> tuple[np.ndarray, np.ndarray]:
        bottom = np.where(self.flip, 1, 0).astype(np.int64)
        top = np.where(self.flip, 0, 1).astype(np.int64)
        return bottom, top

    def _updates_for_block(self, block_index: int, length: int):
        """Randomness for time block ``[-2^{k+1}, -2^k)`` — fixed per block."""
        rng = np.random.default_rng(self._seed_sequence.spawn(block_index + 1)[0])
        vertices = rng.integers(0, self.mrf.n, size=length)
        uniforms = rng.random(length)
        return vertices, uniforms

    def _twisted_update(self, config: np.ndarray, vertex: int, uniform: float) -> int:
        """Glauber update with the uniform draw twisted at flipped vertices.

        Using ``1 - u`` at flipped vertices makes the common-uniform grand
        coupling monotone in the twisted order.
        """
        u = 1.0 - uniform if self.flip[vertex] else uniform
        # Clamp away from 1.0 so inverse-CDF stays within range.
        u = min(u, np.nextafter(1.0, 0.0))
        return _glauber_update(self.mrf, config, vertex, u)

    def sample(self, max_doublings: int = 22) -> np.ndarray:
        """Return one exact Gibbs sample.

        Doubles the horizon ``T = n, 2n, 4n, ...`` until the top and bottom
        chains coalesce at time 0.  Raises :class:`ConvergenceError` after
        ``max_doublings`` doublings (torpid models — e.g. strongly
        ferromagnetic Ising — may legitimately hit this).
        """
        base = max(1, self.mrf.n)
        blocks: list[tuple[np.ndarray, np.ndarray]] = []
        for doubling in range(max_doublings):
            length = base * (2**doubling)
            if len(blocks) <= doubling:
                blocks.append(self._updates_for_block(doubling, length))
            bottom, top = self._bottom_top()
            # Evolve from -sum(lengths) to 0: oldest block first.
            for block in range(doubling, -1, -1):
                vertices, uniforms = blocks[block]
                for vertex, uniform in zip(vertices, uniforms):
                    bottom[vertex] = self._twisted_update(bottom, vertex, uniform)
                    top[vertex] = self._twisted_update(top, vertex, uniform)
                if not self._order_leq(bottom, top):
                    raise ConvergenceError(
                        "sandwich order violated: model is not monotone "
                        "under the configured order"
                    )
            if np.array_equal(bottom, top):
                return bottom
        raise ConvergenceError(
            f"no coalescence within {max_doublings} horizon doublings"
        )


class SmallStateCFTP:
    """Assumption-free CFTP tracking the full grand coupling.

    Evolves *every* configuration under common randomness; coalescence of
    all of them certifies an exact sample.  Cost ``q**n`` per step — only
    for cross-validation on tiny models.
    """

    def __init__(self, mrf: MRF, seed: int | None = None, max_states: int = 4096) -> None:
        if mrf.q**mrf.n > max_states:
            raise StateSpaceTooLargeError(
                f"SmallStateCFTP tracks {mrf.q}**{mrf.n} states"
            )
        self.mrf = mrf
        self._seed_sequence = np.random.SeedSequence(seed)
        self._states = [
            np.array(config, dtype=np.int64)
            for config in itertools.product(range(mrf.q), repeat=mrf.n)
            if mrf.is_feasible(config)
        ]
        if not self._states:
            raise ModelError("model has no feasible configuration")

    def _updates_for_block(self, block_index: int, length: int):
        rng = np.random.default_rng(self._seed_sequence.spawn(block_index + 1)[0])
        vertices = rng.integers(0, self.mrf.n, size=length)
        uniforms = rng.random(length)
        return vertices, uniforms

    def sample(self, max_doublings: int = 18) -> np.ndarray:
        """Return one exact Gibbs sample (over feasible starting states)."""
        base = max(1, self.mrf.n)
        blocks: list[tuple[np.ndarray, np.ndarray]] = []
        for doubling in range(max_doublings):
            length = base * (2**doubling)
            if len(blocks) <= doubling:
                blocks.append(self._updates_for_block(doubling, length))
            current = [state.copy() for state in self._states]
            for block in range(doubling, -1, -1):
                vertices, uniforms = blocks[block]
                for vertex, uniform in zip(vertices, uniforms):
                    for state in current:
                        state[vertex] = _glauber_update(
                            self.mrf, state, int(vertex), float(uniform)
                        )
            first = current[0]
            if all(np.array_equal(first, other) for other in current[1:]):
                return first
        raise ConvergenceError(
            f"no coalescence within {max_doublings} horizon doublings"
        )
