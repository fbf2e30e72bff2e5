"""E13 — LOCAL-engine throughput: reference vs vectorized rounds/sec.

The reference engine (`engine="reference"`) executes every round as
per-vertex Python dict message passing — the executable *definition* of the
LOCAL model.  The vectorized engine (`engine="vectorized"`) runs the same
per-round Markov kernel as the batched ensemble engine at one replica.  This experiment
measures rounds/sec of both engines for both paper protocols (LubyGlauber,
LocalMetropolis) on random 6-regular colouring instances at
n ∈ {1024, 4096, 16384}, and asserts the tentpole acceptance criterion:
the vectorized engine is ≥ 10x the reference engine's rounds/sec for
LubyGlauber at n = 4096.

Timings are end-to-end per engine invocation (the reference engine's
private-input slicing and the vectorized engine's ensemble construction
included), so the speedup is what a round-complexity experiment actually
gains.  Set ``REPRO_BENCH_SMOKE=1`` for CI-smoke sizes;
the 10x assertion is only enforced at full size.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import report, write_bench_json
from repro.distributed import (
    run_local_metropolis_protocol,
    run_luby_glauber_protocol,
)
from repro.graphs import random_regular_graph
from repro.mrf import proper_coloring_mrf

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Best-of-k timing under smoke: the tiny CI sizes finish in milliseconds,
#: where scheduler noise alone can fake a >30% "regression" at the gate.
#: Full-size runs are long enough to be stable single-shot.
REPEATS = 3 if SMOKE else 1

DEGREE = 6
Q = 21  # > (2 + sqrt 2) * Delta: inside Theorem 1.2's regime
SIZES = (128, 256, 512) if SMOKE else (1024, 4096, 16384)
#: The acceptance-criterion size (closest smoke size stands in under SMOKE).
TARGET_N = 256 if SMOKE else 4096
PROTOCOLS = (
    ("luby-glauber", run_luby_glauber_protocol),
    ("local-metropolis", run_local_metropolis_protocol),
)


def _rounds_per_sec(runner, mrf, rounds: int, engine: str) -> float:
    best = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        config, stats = runner(mrf, rounds=rounds, seed=20170625, engine=engine)
        elapsed = time.perf_counter() - start
        assert stats.rounds == rounds
        assert mrf.is_feasible(config)
        best = max(best, rounds / elapsed)
    return best


def engine_throughput_series() -> tuple[list[str], dict[str, float]]:
    lines = [
        f"random {DEGREE}-regular graphs, q={Q} colourings; rounds/sec per engine",
        f"{'protocol':>18} {'n':>7} {'reference':>11} {'vectorized':>11} {'speedup':>8}",
    ]
    metrics: dict[str, float] = {}
    for n in SIZES:
        graph = random_regular_graph(DEGREE, n, seed=20170625)
        mrf = proper_coloring_mrf(graph, Q)
        # Budgets sized so each timing takes O(seconds): the reference
        # engine pays ~2|E| dict messages per round, the vectorized engine
        # a fixed number of array passes.
        reference_rounds = 4 if SMOKE else max(3, 300_000 // (n * DEGREE))
        vectorized_rounds = 20 if SMOKE else 200
        for name, runner in PROTOCOLS:
            reference_rps = _rounds_per_sec(runner, mrf, reference_rounds, "reference")
            vectorized_rps = _rounds_per_sec(runner, mrf, vectorized_rounds, "vectorized")
            speedup = vectorized_rps / reference_rps
            key = name.replace("-", "_")
            metrics[f"{key}_reference_rounds_per_sec_n{n}"] = reference_rps
            metrics[f"{key}_vectorized_rounds_per_sec_n{n}"] = vectorized_rps
            metrics[f"{key}_speedup_n{n}"] = speedup
            lines.append(
                f"{name:>18} {n:>7} {reference_rps:>11.3g} "
                f"{vectorized_rps:>11.3g} {speedup:>7.1f}x"
            )
    return lines, metrics


def test_local_engine_throughput():
    lines, metrics = engine_throughput_series()
    target = metrics[f"luby_glauber_speedup_n{TARGET_N}"]
    write_bench_json("E13", metrics, smoke=SMOKE)
    report(
        "E13",
        "LOCAL-engine throughput (reference vs vectorized)",
        lines
        + [
            "",
            "claim: the vectorized LOCAL engine runs the same per-round",
            "Markov kernel as the per-vertex reference runtime at >= 10x",
            "the rounds/sec, making the paper's round-complexity",
            "experiments practical at 10^4+ vertices.",
            f"measured: {target:.1f}x for LubyGlauber at n={TARGET_N}.",
        ],
    )
    if not SMOKE:
        assert target >= 10.0, (
            f"vectorized LubyGlauber speedup {target:.1f}x at n={TARGET_N} "
            "is below the 10x acceptance criterion"
        )
