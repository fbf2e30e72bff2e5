"""Common infrastructure for Markov chains over ``[q]^V``.

A :class:`Chain` owns an MRF, a current configuration (numpy int array) and a
private RNG; ``step()`` advances one transition.  Chains are deliberately
*mutable and cheap*: mixing experiments run ensembles of thousands of chains.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.errors import ModelError
from repro.mrf.model import MRF, Config, as_config

__all__ = [
    "Chain",
    "SeedLike",
    "as_generator",
    "as_seed_sequence",
    "greedy_feasible_config",
    "random_config",
]

#: Everything the chains and replica-ensemble engines accept as a seed.
#: ``np.random.SeedSequence`` is the spawnable form the sharded execution
#: subsystem (:mod:`repro.exec`) relies on: ``root.spawn(k)`` derives ``k``
#: independent child streams deterministically, so a run partitioned into
#: shards is reproducible from the root sequence alone.
SeedLike = int | np.random.SeedSequence | np.random.Generator | None


def as_generator(
    seed: int | np.random.SeedSequence | np.random.Generator | None,
) -> np.random.Generator:
    """Resolve a seed of any accepted form into a ``numpy.random.Generator``.

    A Generator is passed through (shared-stream semantics: the caller keeps
    ownership of the stream); an int, a :class:`numpy.random.SeedSequence`
    or ``None`` seeds a fresh PCG64 Generator.  Because
    ``default_rng(SeedSequence(x))`` and ``default_rng(x)`` build the same
    stream, integer-seeded runs are bit-identical to runs seeded with the
    equivalent SeedSequence.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_seed_sequence(
    seed: SeedLike, *, allow_generator: bool = True
) -> np.random.SeedSequence:
    """Resolve a :data:`SeedLike` into a root ``numpy.random.SeedSequence``.

    The one shared seed-coercion helper: every public entry point that
    needs a *spawnable* root (per-node streams, per-replica streams, shard
    plans) funnels through here, so all of them accept the same
    ``int | SeedSequence | Generator | None`` surface with the same
    semantics:

    * a ``SeedSequence`` is passed through unchanged, so
      ``SeedSequence(x)`` and the int ``x`` build the same root;
    * ``None`` or an int seeds a fresh root;
    * a ``Generator`` draws one int63 to form the root — a live stream
      cannot be split deterministically, so passing the same Generator
      twice intentionally gives two different roots.  Callers for whom
      that non-reproducibility would be a silent footgun (sharded
      execution, result caching) pass ``allow_generator=False`` to reject
      Generators with a :class:`~repro.errors.ModelError` instead.
    """
    if isinstance(seed, np.random.Generator):
        if not allow_generator:
            raise ModelError(
                "this entry point needs an int or numpy.random.SeedSequence seed "
                "(a live Generator cannot be split into spawned streams), got "
                f"{type(seed).__name__}"
            )
        seed = int(seed.integers(np.iinfo(np.int64).max))
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(seed if seed is None else int(seed))
    raise ModelError(
        f"unsupported seed type {type(seed).__name__}; expected "
        "int | numpy.random.SeedSequence | numpy.random.Generator | None"
    )


def random_config(mrf: MRF, rng: np.random.Generator) -> np.ndarray:
    """Return a uniformly random (not necessarily feasible) configuration."""
    return rng.integers(0, mrf.q, size=mrf.n, dtype=np.int64)


def greedy_feasible_config(mrf: MRF, rng: np.random.Generator | None = None) -> np.ndarray:
    """Construct a configuration greedily, preferring feasibility.

    Vertices are assigned in order; each vertex picks a spin with positive
    vertex activity that is compatible (positive edge activity) with all
    already-assigned neighbours, chosen at random among such spins when an
    RNG is supplied, else the smallest.  If no compatible spin exists the
    vertex falls back to its highest-activity spin — the chains of this paper
    tolerate infeasible starts (they are absorbing towards feasible
    configurations), so a best-effort start is fine.

    For proper colourings with ``q >= Delta + 1`` and for occupancy models
    (hardcore, vertex cover) the result is always feasible.
    """
    q = mrf.q
    tables = mrf._edge_activity
    # Spin sets as Python-int bitmasks: bit c of ``masks[s]`` is set iff
    # spin c is compatible with a neighbour holding spin s (one list per
    # distinct edge table), and bit c of ``allowed[v]`` iff b_v(c) > 0.
    compatible: dict[int, list[int]] = {}
    allowed = _bitmasks(mrf.vertex_activity > 0)
    config: list[int] = []
    for v in range(mrf.n):
        mask = allowed[v]
        for u in mrf.neighbors(v):
            if u >= v:  # sorted: the rest are not yet assigned
                break
            table = tables[(u, v)]
            masks = compatible.get(id(table))
            if masks is None:
                masks = compatible[id(table)] = _bitmasks(table.T > 0)
            mask &= masks[config[u]]
        if not mask:
            config.append(int(np.argmax(mrf.vertex_activity[v])))
        elif rng is None or not mask & (mask - 1):
            # The smallest candidate; a lone candidate draws no randomness,
            # just as rng.choice of a one-element array draws none.
            config.append((mask & -mask).bit_length() - 1)
        else:
            candidates = [c for c in range(q) if mask >> c & 1]
            # Consumes the stream exactly as rng.choice(candidates) would.
            config.append(candidates[rng.integers(len(candidates))])
    return np.asarray(config, dtype=np.int64)


def _bitmasks(flags: np.ndarray) -> list[int]:
    """Row ``i`` of a boolean ``(k, q)`` array as an int with bit c = ``flags[i, c]``."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in map(bytes, packed)]


class Chain(ABC):
    """A Markov chain over configurations of an MRF.

    Parameters
    ----------
    mrf:
        The target model; the stationary distribution should be its Gibbs
        distribution (verified exactly in the test-suite via transition
        matrices).
    initial:
        Starting configuration; ``None`` uses :func:`greedy_feasible_config`.
    seed:
        Seed, :class:`numpy.random.SeedSequence` or Generator for the
        chain's private randomness (see :func:`as_generator`).
    """

    def __init__(
        self,
        mrf: MRF,
        initial: Sequence[int] | np.ndarray | None = None,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> None:
        self.mrf = mrf
        self.rng = as_generator(seed)
        if initial is None:
            self.config = greedy_feasible_config(mrf, self.rng)
        else:
            config = np.asarray(initial, dtype=np.int64)
            if config.shape != (mrf.n,):
                raise ModelError(
                    f"initial configuration must have shape ({mrf.n},), got {config.shape}"
                )
            if np.any(config < 0) or np.any(config >= mrf.q):
                raise ModelError(f"initial spins must lie in 0..{mrf.q - 1}")
            self.config = config.copy()
        self.steps_taken = 0

    @abstractmethod
    def step(self) -> None:
        """Advance the chain by one transition."""

    def run(self, steps: int) -> np.ndarray:
        """Advance ``steps`` transitions and return the current configuration."""
        for _ in range(steps):
            self.step()
        return self.config

    def trajectory(self, steps: int, record_every: int = 1) -> list[Config]:
        """Run ``steps`` transitions, recording the state every ``record_every``.

        The initial state is included as the first entry.
        """
        if record_every < 1:
            raise ModelError("record_every must be >= 1")
        states: list[Config] = [as_config(self.config)]
        for t in range(1, steps + 1):
            self.step()
            if t % record_every == 0:
                states.append(as_config(self.config))
        return states

    @property
    def current(self) -> Config:
        """Return the current configuration as an immutable tuple."""
        return as_config(self.config)

    def is_feasible(self) -> bool:
        """Return True iff the current configuration has positive Gibbs mass."""
        return self.mrf.is_feasible(self.config)
