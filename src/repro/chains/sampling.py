"""Inverse-CDF spin sampling: the one fallthrough rule every sampler shares.

A cumulative sum of normalised weights often ends slightly *below* 1.0
(``w = [0.1] * 7 + [0]`` gives ``cdf[-1] = 0.9999999999999998``), so a
uniform draw in ``[cdf[-1], 1)`` falls past every spin.  Clipping that
draw to spin ``q - 1`` would emit a spin of zero mass — an occupied
blocked vertex in a hardcore model, say.  Both helpers below fall through
to the *largest spin with positive mass* instead: the first index at
which the CDF reaches its final value.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InfeasibleStateError

__all__ = ["inverse_cdf", "inverse_cdf_spin"]


def inverse_cdf(cdf, uniforms, xp=None):
    """Spin index of every uniform under the CDFs ``cdf``, spin axis first.

    ``cdf[c]`` is the (normalised or not) cumulative weight of spins
    ``0..c``, and ``uniforms`` lives on the same scale with the trailing
    shape; the two broadcast, so one ``(q, n, 1)`` table serves an
    ``(n, R)`` block of uniforms, and the ``(q, pairs)`` transpose of
    row-wise CDFs serves one uniform per pair.  A spin is the number of
    CDF entries at or below its uniform, capped at the largest
    positive-mass spin.  ``xp`` is an
    :class:`~repro.backend.base.ArrayBackend` (``None``: numpy).  With the
    spin axis leading, both reductions add whole slabs, which is several
    times faster than reducing a short trailing axis.
    """
    if xp is None:
        from repro.backend import get_backend

        xp = get_backend("numpy")
    spins = xp.sum(cdf <= uniforms, axis=0)
    last_positive = xp.argmax_axis(cdf >= cdf[-1], axis=0)
    return xp.minimum(spins, last_positive)


def inverse_cdf_spin(distribution: np.ndarray, uniform: float) -> int:
    """Scalar :func:`inverse_cdf` over a probability vector ``distribution``.

    The smallest spin whose cumulative mass exceeds ``uniform``; the same
    largest-positive-mass fallthrough as :func:`inverse_cdf`.  A plain
    Python loop, because the sequential chains call it once per update.
    """
    cumulative = 0.0
    for spin, mass in enumerate(distribution):
        cumulative += mass
        if uniform < cumulative:
            return spin
    cdf = np.cumsum(distribution)
    if not cdf.size or cdf[-1] <= 0.0:
        raise InfeasibleStateError(
            "inverse-CDF sampling needs a distribution with positive total mass"
        )
    return int(np.argmax(cdf >= cdf[-1]))
