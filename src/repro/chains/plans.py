"""Engine plans: an engine's seed-independent precompute, built once per model.

A replica-ensemble engine (:mod:`repro.chains.ensemble`) has two parts.
Its *plan* holds the edge and CSR arrays, the incidence matrices, the
activity and filter tables and the default start; all of these are a
pure function of the model.  The rest is per run: the RNG stream, the
replica batch and the step counter.  The paper's chains mix in
``O(log n)`` rounds, so a typical job runs only a few rounds and the
precompute would otherwise dominate it.  :func:`model_plan` builds a plan
the first time it is asked for one on a model and hands the same object
to every later request.

Plans live in one module-level :class:`weakref.WeakKeyDictionary`, keyed
by the model object (an :class:`~repro.mrf.model.MRF`, a
:class:`~repro.csp.model.LocalCSP` or a colouring graph) and then by a
key that names the engine family and the array backend.

* Models are immutable: their copy-on-write mutations (``with_edge``,
  ``without_constraint``, ...) return new objects, and a new object gets
  new plans.  A graph handed straight to a colouring engine must likewise
  not be mutated after the engine is built.
* A plan never references its model, so dropping the model frees its
  plans.
* Plan arrays are read-only (:func:`frozen`).
* Two threads that miss at once both build the plan, and the last to
  finish is kept.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Hashable
from typing import Any

import numpy as np
import scipy.sparse as sp

__all__ = ["Plan", "frozen", "model_plan"]

_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def model_plan(model: object, key: Hashable, build: Callable[[], Any]) -> Any:
    """The value cached under ``key`` for ``model``; ``build()`` makes it on a miss.

    ``build`` runs at most once per ``(model, key)`` (barring a thread
    race) and must return a value that does not reference ``model``.
    """
    plans = _PLANS.get(model)
    if plans is None:
        plans = _PLANS.setdefault(model, {})
    try:
        return plans[key]
    except KeyError:
        value = plans[key] = build()
        return value


def frozen(value):
    """Make a numpy array (or a scipy matrix's arrays) read-only; return it."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif sp.issparse(value):
        for part in (value.data, value.indices, value.indptr):
            part.setflags(write=False)
    return value


class Plan:
    """The read-only structures one engine family shares on one model.

    Each keyword becomes an attribute, made read-only by :func:`frozen`.
    """

    def __init__(self, **fields: Any) -> None:
        for name, value in fields.items():
            setattr(self, name, frozen(value))
