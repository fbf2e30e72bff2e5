"""Output checks.  They run outside every timed region.

A failed check never raises: it returns a message, the run reports
``"correct": false`` and exits non-zero.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.csp import LocalCSP


def infeasible_rows(model, batch) -> np.ndarray:
    """Boolean mask of the rows of an ``(R, n)`` batch with zero weight under ``model``.

    A vectorised form of ``model.is_feasible(row)`` for every row: a spin
    outside ``0..q-1``, a zero vertex activity, or a zero edge activity or
    constraint value marks the row.
    """
    batch = np.asarray(batch)
    bad = ((batch < 0) | (batch >= model.q)).any(axis=1)
    spins = np.clip(batch, 0, model.q - 1)
    if isinstance(model, LocalCSP):
        for constraint in model.constraints:
            values = constraint.table[tuple(spins[:, v] for v in constraint.scope)]
            bad |= values <= 0
        return bad
    bad |= (model.vertex_activity[np.arange(model.n), spins] <= 0).any(axis=1)
    if model.edges:
        eu = np.array([u for u, _ in model.edges])
        ev = np.array([v for _, v in model.edges])
        tables: dict[int, int] = {}
        stacked = []
        index = np.empty(len(model.edges), dtype=np.int64)
        for position, (u, v) in enumerate(model.edges):
            matrix = model.edge_activity(u, v)
            if id(matrix) not in tables:
                tables[id(matrix)] = len(stacked)
                stacked.append(matrix)
            index[position] = tables[id(matrix)]
        activity = np.stack(stacked)[index[None, :], spins[:, eu], spins[:, ev]]
        bad |= (activity <= 0).any(axis=1)
    return bad


def feasibility_error(model, batch, replicas: int, what: str) -> str | None:
    """Why ``batch`` is not ``replicas`` feasible samples of ``model``, or ``None``."""
    shape = np.shape(batch)
    if shape != (replicas, model.n):
        return f"{what}: batch has shape {shape}, expected {(replicas, model.n)}"
    bad = infeasible_rows(model, batch)
    if bad.any():
        return f"{what}: {int(bad.sum())} of {bad.size} rows infeasible"
    return None


def digest(kind: str, result) -> str:
    """Bit-exact fingerprint of a :mod:`repro.api` result of job kind ``kind``."""
    hasher = hashlib.sha256(kind.encode())
    if kind == "sample_many":
        array = np.ascontiguousarray(result, dtype=np.int64)
        hasher.update(repr(array.shape).encode())
        hasher.update(array.tobytes())
    elif kind == "tv_curve":
        for rounds, tv in result:
            hasher.update(np.array([rounds], dtype=np.int64).tobytes())
            hasher.update(np.array([tv], dtype=np.float64).tobytes())
    else:
        hasher.update(repr(int(result)).encode())
    return hasher.hexdigest()
