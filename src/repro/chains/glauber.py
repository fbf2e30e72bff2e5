"""Single-site heat-bath Glauber dynamics — the sequential baseline.

Paper Section 3: starting from an arbitrary ``X in [q]^V``, each step

* samples a vertex ``v`` uniformly at random, and
* resamples ``X_v`` from the conditional marginal ``mu_v(. | X_Gamma(v))``
  of equation (2).

Under Dobrushin's condition the mixing rate is ``O(n/(1-alpha) log(n/eps))``
— the ``Theta(n / Delta)`` sequential slowdown that LubyGlauber removes.
"""

from __future__ import annotations

import numpy as np

from repro.chains.base import Chain
from repro.chains.sampling import inverse_cdf_spin
from repro.mrf.marginals import conditional_marginal

__all__ = ["GlauberDynamics"]


class GlauberDynamics(Chain):
    """The classic single-site heat-bath chain."""

    def step(self) -> None:
        """Resample one uniformly random vertex from its conditional marginal."""
        v = int(self.rng.integers(self.mrf.n))
        distribution = conditional_marginal(self.mrf, self.config, v)
        self.config[v] = sample_spin(distribution, self.rng)
        self.steps_taken += 1

    def sweep(self) -> None:
        """Perform ``n`` single-site steps (one expected full scan)."""
        for _ in range(self.mrf.n):
            self.step()


def sample_spin(distribution: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one spin from a probability vector via inverse CDF.

    Equivalent to ``rng.choice(q, p=distribution)`` but considerably faster,
    which matters because chain ensembles call this millions of times.  A
    draw past a CDF that tops out below 1.0 gets the largest positive-mass
    spin (:func:`repro.chains.sampling.inverse_cdf_spin`).
    """
    return inverse_cdf_spin(distribution, rng.random())
