"""Algorithms 1 and 2 as LOCAL-model message-passing protocols.

Private input of node ``v`` (paper Algorithms 1-2): the activity matrices
``{A_uv}_{u in Gamma(v)}`` and the vertex activity ``b_v``.  Nothing else
about the model is globally shared.

**LubyGlauberProtocol** — one iteration per round.  Each round node ``v``
draws its rank ``beta_v`` and sends ``(beta_v, X_v)`` to all neighbours; on
delivery it updates ``X_v`` by a heat-bath draw iff its rank beats every
neighbour's.  The spins carried by the messages are the pre-round values, so
all marginals are evaluated against a consistent snapshot, exactly as in
Algorithm 1.

**LocalMetropolisProtocol** — one iteration per round.  Each round node ``v``
draws its proposal ``sigma_v`` (with probability proportional to ``b_v``)
and a coin share ``r_v``; it sends ``(sigma_v, X_v, r_v)``.  On delivery,
the edge coin of ``uv`` is the shared uniform value ``(r_u + r_v) mod 1`` —
both endpoints compute the identical value, realising the paper's
requirement that "the two endpoints access the same random coin".  Node
``v`` accepts its proposal iff every incident edge check passes.

Both runners take ``engine="reference"`` (the protocols above, node by node
on :func:`repro.local.runtime.run_protocol`) or ``engine="vectorized"``:
the replica-ensemble kernel :func:`repro.api.make_ensemble` picks for the
model, advanced at R=1.  That kernel is the same per-round Markov chain,
one LOCAL round per step, drawing from one shared stream instead of ``n``
per-node ones; since every round each vertex sends one constant-size
message to each neighbour, its :class:`~repro.local.runtime.RunStats` are
computed analytically and equal the reference engine's measured ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any

import numpy as np

from repro.chains.base import SeedLike, as_seed_sequence
from repro.chains.ensemble import default_start
from repro.chains.glauber import sample_spin
from repro.chains.sampling import inverse_cdf_spin
from repro.errors import ProtocolError
from repro.local.network import Network
from repro.local.protocol import NodeContext, Protocol
from repro.local.runtime import RunStats, run_protocol
from repro.mrf.model import MRF
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace

__all__ = [
    "SamplingInput",
    "LubyGlauberProtocol",
    "LocalMetropolisProtocol",
    "run_luby_glauber_protocol",
    "run_local_metropolis_protocol",
    "make_private_inputs",
]


@dataclass
class SamplingInput:
    """Private input of one node: its local slice of the MRF.

    Attributes
    ----------
    q:
        Domain size (shared by convention, as in the paper).
    vertex_activity:
        ``b_v`` as a length-q vector.
    edge_activities:
        ``{u: Ã_uv}`` for each neighbour ``u`` — already max-normalised, as
        only ratios/normalised values are ever used by the algorithms.
    initial_spin:
        The arbitrary initial value ``X_v`` (Algorithms 1-2, line 1).
    """

    q: int
    vertex_activity: np.ndarray
    edge_activities: dict[int, np.ndarray]
    initial_spin: int


def make_private_inputs(mrf: MRF, initial: np.ndarray) -> list[SamplingInput]:
    """Slice an MRF into per-node private inputs."""
    inputs = []
    for v in range(mrf.n):
        inputs.append(
            SamplingInput(
                q=mrf.q,
                vertex_activity=mrf.vertex_activity[v].copy(),
                edge_activities={
                    u: mrf.normalized_edge_activity(u, v) for u in mrf.neighbors(v)
                },
                initial_spin=int(initial[v]),
            )
        )
    return inputs


class LubyGlauberProtocol(Protocol):
    """Algorithm 1 as a LOCAL protocol; one iteration per communication round."""

    method = "luby-glauber"
    message_atoms = 2  # (rank, spin)

    def initialize(self, ctx: NodeContext) -> None:
        inp: SamplingInput = ctx.private_input
        if inp is None:
            raise ProtocolError("LubyGlauberProtocol needs SamplingInput private inputs")
        ctx.state["spin"] = inp.initial_spin
        ctx.state["rank"] = None

    def compose(self, ctx: NodeContext, round_index: int) -> dict[int, Any]:
        rank = float(ctx.rng.random())
        ctx.state["rank"] = rank
        message = (rank, ctx.state["spin"])
        return {u: message for u in ctx.neighbors}

    def deliver(self, ctx: NodeContext, round_index: int, inbox: dict[int, Any]) -> None:
        inp: SamplingInput = ctx.private_input
        my_rank = ctx.state["rank"]
        neighbor_spins = {u: inbox[u][1] for u in ctx.neighbors}
        if ctx.neighbors and any(inbox[u][0] >= my_rank for u in ctx.neighbors):
            return  # not a local maximum: stay put this round
        # Heat-bath update from the conditional marginal (paper eq. (2)).
        weights = inp.vertex_activity.copy()
        for u in ctx.neighbors:
            weights = weights * inp.edge_activities[u][:, neighbor_spins[u]]
        total = weights.sum()
        if total <= 0.0:
            raise ProtocolError(
                f"node {ctx.node}: conditional marginal undefined "
                "(Glauber well-definedness assumption violated)"
            )
        ctx.state["spin"] = sample_spin(weights / total, ctx.rng)

    def finalize(self, ctx: NodeContext) -> int:
        return int(ctx.state["spin"])


class LocalMetropolisProtocol(Protocol):
    """Algorithm 2 as a LOCAL protocol; one iteration per communication round."""

    method = "local-metropolis"
    message_atoms = 3  # (proposal, spin, coin share)

    def initialize(self, ctx: NodeContext) -> None:
        inp: SamplingInput = ctx.private_input
        if inp is None:
            raise ProtocolError("LocalMetropolisProtocol needs SamplingInput private inputs")
        ctx.state["spin"] = inp.initial_spin
        total = inp.vertex_activity.sum()
        ctx.state["proposal_distribution"] = inp.vertex_activity / total

    def compose(self, ctx: NodeContext, round_index: int) -> dict[int, Any]:
        distribution = ctx.state["proposal_distribution"]
        proposal = inverse_cdf_spin(distribution, float(ctx.rng.random()))
        coin_share = float(ctx.rng.random())
        ctx.state["proposal"] = proposal
        ctx.state["coin_share"] = coin_share
        message = (proposal, ctx.state["spin"], coin_share)
        return {u: message for u in ctx.neighbors}

    def deliver(self, ctx: NodeContext, round_index: int, inbox: dict[int, Any]) -> None:
        inp: SamplingInput = ctx.private_input
        my_spin = ctx.state["spin"]
        my_proposal = ctx.state["proposal"]
        my_share = ctx.state["coin_share"]
        for u in ctx.neighbors:
            their_proposal, their_spin, their_share = inbox[u]
            table = inp.edge_activities[u]
            # Both endpoints evaluate the same product of three normalised
            # activities (paper Algorithm 2, line 6).
            probability = (
                table[their_proposal, my_proposal]
                * table[their_spin, my_proposal]
                * table[their_proposal, my_spin]
            )
            # Shared edge coin: (r_u + r_v) mod 1 is uniform and identical
            # at both endpoints.
            coin = (my_share + their_share) % 1.0
            if coin >= probability:
                return  # an incident edge failed its check: keep X_v
        ctx.state["spin"] = my_proposal

    def finalize(self, ctx: NodeContext) -> int:
        return int(ctx.state["spin"])


_ENGINES = ("reference", "vectorized")


def _run_sampling_protocol(
    protocol: LubyGlauberProtocol | LocalMetropolisProtocol,
    mrf: MRF,
    rounds: int,
    seed: SeedLike,
    initial: np.ndarray | None,
    engine: str,
    collect_stats: bool,
    backend: str | None,
) -> tuple[np.ndarray, RunStats]:
    """Run ``protocol`` on ``engine`` (module docstring); shared by both runners."""
    if engine not in _ENGINES:
        raise ProtocolError(f"unknown engine {engine!r}; choose from {_ENGINES}")
    if initial is None:
        initial = default_start(mrf)
    if engine == "reference":
        outputs, stats = run_protocol(
            protocol,
            Network(mrf.graph),
            rounds,
            seed=seed,
            private_inputs=make_private_inputs(mrf, initial),
            collect_stats=collect_stats,
        )
        return np.asarray(outputs, dtype=np.int64), stats

    from repro.api import make_ensemble

    ensemble = make_ensemble(
        mrf,
        1,
        method=protocol.method,
        seed=as_seed_sequence(seed),
        initial=initial,
        backend=backend,
    )
    rounds = int(rounds)
    name, backend_name = type(protocol).__name__, ensemble.xp.name
    with _obs_trace.span(
        "local.run_vectorized", protocol=name, n=mrf.n, rounds=rounds, backend=backend_name
    ):
        start = perf_counter()
        ensemble.advance(rounds)
        elapsed = perf_counter() - start
    # Every round each vertex messages each neighbour: 2m messages.
    round_messages = 2 * len(mrf.edges)
    stats = RunStats(rounds=rounds, messages=round_messages * rounds)
    if collect_stats:
        stats.messages_per_round = [round_messages] * rounds
        if stats.messages:
            stats.max_message_atoms = protocol.message_atoms
    if _obs_metrics.enabled and rounds:
        labels = {"protocol": name, "backend": backend_name}
        _obs_metrics.inc("repro_local_rounds_total", stats.rounds, **labels)
        _obs_metrics.inc("repro_local_messages_total", stats.messages, **labels)
        _obs_metrics.inc("repro_local_seconds_total", elapsed, **labels)
    return ensemble.config[0], stats


def run_luby_glauber_protocol(
    mrf: MRF,
    rounds: int,
    seed: int | np.random.SeedSequence | None = None,
    initial: np.ndarray | None = None,
    engine: str = "reference",
    collect_stats: bool = True,
    backend: str | None = None,
) -> tuple[np.ndarray, RunStats]:
    """Run Algorithm 1 on the LOCAL runtime; return (configuration, stats)."""
    return _run_sampling_protocol(
        LubyGlauberProtocol(), mrf, rounds, seed, initial, engine, collect_stats, backend
    )


def run_local_metropolis_protocol(
    mrf: MRF,
    rounds: int,
    seed: int | np.random.SeedSequence | None = None,
    initial: np.ndarray | None = None,
    engine: str = "reference",
    collect_stats: bool = True,
    backend: str | None = None,
) -> tuple[np.ndarray, RunStats]:
    """Run Algorithm 2 on the LOCAL runtime; return (configuration, stats)."""
    return _run_sampling_protocol(
        LocalMetropolisProtocol(), mrf, rounds, seed, initial, engine, collect_stats, backend
    )
