"""Per-layer metrics: the traced run's ladder over every layer of the program.

Every traced run, whatever its workload, runs this whole suite so that it
reports every per-layer metric.  Names are ``<module>.<metric>`` with the
module path below ``repro``.  Calls are timed from here, around the
public functions of each layer; the counts come from ``repro.obs``
probes, which the traced run turns on.

For each request class of the ``served`` workload one spec goes down the
ladder

1. kernel only (``make_ensemble`` plus ``advance``),
2. ``run_spec``,
3. a ``JobRunner(workers=1)`` submit,
4. served unary,
5. served streamed,
6. cache hit,

and the gap between two adjacent stages is the cost of the layer between
them.  Every result on the way is checked against the direct one.
"""

from __future__ import annotations

import itertools
import json
import statistics
from time import perf_counter

import numpy as np

import repro
from checks import digest, feasibility_error
from repro import JobSpec, api
from repro.analysis import batch_tv_to_exact
from repro.exec import JobRunner
from repro.mrf.distribution import exact_gibbs_distribution
from repro.serve import ReproServer, ServeClient, decode_result, encode_result
from workloads import (
    CELLS,
    SERVED_COLD,
    WARMUP_SEED_BASE,
    Dynamic,
    cell_updates,
    kernel_models,
    served_models,
    served_spec,
    spec_rounds,
)

KERNEL_REPS = 3
LADDER_REPS = 5
CALL_REPS = 20
DYNAMIC_EVENTS = 8
#: Ladder specs draw seeds above every seed the workloads use.
LADDER_SEED_BASE = WARMUP_SEED_BASE + 1000


def unit(name: str) -> str:
    """The unit of a per-layer metric, which its name spells."""
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_ratio", ".speedup", ".trace_overhead")):
        return "ratio"
    return "count"


def _median_ms(samples) -> float:
    return statistics.median(samples) * 1e3


def _timed(call):
    start = perf_counter()
    value = call()
    return value, perf_counter() - start


def _counter(snapshot: dict, name: str) -> float:
    return sum(row["value"] for row in snapshot["counters"] if row["name"] == name)


def _histogram_mean(snapshot: dict, name: str) -> float:
    rows = [row for row in snapshot["histograms"] if row["name"] == name]
    return sum(row["sum"] for row in rows) / sum(row["count"] for row in rows)


def kernel_layers(seeds, rec) -> dict:
    """``chains.ensemble``, ``exec.pool`` and ``local`` on the kernels cells."""
    models = kernel_models()
    n = next(iter(models.values())).n
    metrics: dict[str, float] = {}
    for cell, (model_key, method, replicas, rounds, execution) in CELLS.items():
        model = models[model_key]
        if execution == "vectorized":
            samples = []
            for _ in range(KERNEL_REPS):
                with rec.span("local.run_vectorized", cell=cell):
                    _, seconds = _timed(
                        lambda: repro.sample(
                            model, method=method, rounds=rounds, seed=next(seeds),
                            engine="vectorized",
                        )
                    )
                samples.append(seconds)
            metrics[f"local.{cell}.rounds_per_s"] = rounds / statistics.median(samples)
            continue
        parallel = 2 if execution == "sharded" else None
        builds, advances = [], []
        for rep in range(KERNEL_REPS):
            repro.obs.reset()
            with rec.span("chains.ensemble.build", cell=cell):
                ensemble, seconds = _timed(
                    lambda: api.make_ensemble(
                        model, replicas, method=method, seed=next(seeds), parallel=parallel
                    )
                )
            builds.append(seconds)
            try:
                with rec.span("chains.ensemble.advance", cell=cell):
                    _, seconds = _timed(lambda: ensemble.advance(rounds))
            finally:
                if parallel is not None:
                    ensemble.close()
            advances.append(seconds)
            if rep == 0:
                counts = repro.obs.snapshot()
        rate = cell_updates(cell, n) / statistics.median(advances)
        if execution == "sharded":
            metrics[f"exec.pool.{cell}.updates_per_s"] = rate
            continue
        prefix = f"chains.ensemble.{cell}"
        metrics[f"{prefix}.updates_per_s"] = rate
        metrics[f"{prefix}.build_ms"] = _median_ms(builds)
        if method == "local-metropolis" and model_key != "hardcore":
            # The hardcore cell runs the sequential fallback, which has no probes.
            proposals = _counter(counts, "repro_engine_proposals_total")
            accepts = _counter(counts, "repro_engine_accepted_total")
            metrics[f"{prefix}.proposals"] = proposals
            metrics[f"{prefix}.accepts"] = accepts
            metrics[f"{prefix}.accept_frac"] = accepts / proposals
        elif method == "luby-glauber":
            selected = _counter(counts, "repro_engine_luby_selected_total")
            # Out of R*n*rounds; Luby selects a vertex w.p. 1/(deg+1) of its
            # conflict-graph degree: 1/5 on the torus, 1/7 for the NAE scopes.
            metrics[f"{prefix}.luby_selected"] = selected
            metrics[f"{prefix}.luby_selected_frac"] = selected / (replicas * n * rounds)
    metrics["exec.pool.speedup"] = (
        metrics["exec.pool.lg_coloring_sharded.updates_per_s"]
        / metrics["chains.ensemble.lg_coloring.updates_per_s"]
    )
    return metrics


def _run_on_runner(runner: JobRunner, spec: JobSpec):
    """Submit one job and wait for it: (result, dispatch_s, exec_s, return_s, total_s)."""
    submitted = perf_counter()
    job_id = runner.submit(spec)
    started = None
    while True:
        event = runner.next_event(timeout=60.0)
        if event is None:
            raise RuntimeError("JobRunner produced no event within 60 s")
        if event.job_id != job_id:
            continue
        if event.kind == "started":
            started = perf_counter()
        elif event.kind == "error":
            raise RuntimeError(f"job failed: {event.payload}")
        elif event.kind == "result":
            finished = perf_counter()
            return (
                event.payload,
                started - submitted,
                event.elapsed,
                finished - started - event.elapsed,
                finished - submitted,
            )


def served_layers(seeds, rec, errors: list[str]) -> dict:
    """``api``, ``analysis``, ``spec``, ``serialize``, ``serve.wire``, ``exec.jobs``, ``serve``."""
    models = served_models()
    samples: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    # The runner forks its worker before the server starts its threads.
    runner = JobRunner(workers=1)
    server = ReproServer(workers=1)
    try:
        server.start()
        client = ServeClient(*server.address)
        for cls in SERVED_COLD:  # warm both pools and register every model
            spec = served_spec(models, cls, next(seeds))
            _run_on_runner(runner, spec)
            client.submit(spec)
        for _, cls in itertools.product(range(LADDER_REPS), SERVED_COLD):
            spec = served_spec(models, cls, next(seeds))
            streamed_spec = served_spec(models, cls, next(seeds))
            where = f"ladder {cls} seed {spec.seed}"
            with rec.span("ladder", cls=cls):
                with rec.span("api.run_spec"):
                    direct, seconds = _timed(lambda: api.run_spec(spec))
                add(f"api.run_spec_ms.{cls}", seconds)
                expected = digest(spec.kind, direct)
                if spec.kind == "sample_many":
                    problem = feasibility_error(spec.model, direct, spec.replicas, where)
                    if problem:
                        errors.append(problem)

                with rec.span("chains.ensemble.kernel"):
                    start = perf_counter()
                    ensemble = api.make_ensemble(
                        spec.model, spec.replicas, method=spec.method, seed=spec.seed
                    )
                    built = perf_counter()
                    ensemble.advance(spec_rounds(spec, direct))
                    finished = perf_counter()
                add(f"api.make_ensemble_ms.{cls}", built - start)
                add(f"chains.ensemble.kernel_ms.{cls}", finished - start)
                if spec.kind != "sample_many":
                    with rec.span("analysis.exact_target"):
                        target, seconds = _timed(lambda: exact_gibbs_distribution(spec.model))
                    add(f"analysis.exact_target_ms.{cls}", seconds)
                    with rec.span("analysis.tv"):
                        _, seconds = _timed(lambda: batch_tv_to_exact(ensemble.config, target))
                    add(f"analysis.tv_ms.{cls}", seconds)
                if spec.kind == "mixing_time":
                    add("analysis.tv_probes", int(direct) // spec.stride)

                with rec.span("exec.jobs.job"):
                    result, dispatch, execute, returned, total = _run_on_runner(runner, spec)
                add("exec.jobs.dispatch_ms", dispatch)
                add("exec.jobs.exec_ms", execute)
                add("exec.jobs.return_ms", returned)
                add(f"exec.jobs.job_ms.{cls}", total)
                if digest(spec.kind, result) != expected:
                    errors.append(f"{where}: JobRunner result differs from run_spec")

                with rec.span("serve.unary"):
                    document, seconds = _timed(lambda: client.submit(spec))
                add(f"serve.unary_ms.{cls}", seconds)
                if document.get("cached") or digest(spec.kind, document["result"]) != expected:
                    errors.append(f"{where}: served unary result is not the cold run_spec one")

                with rec.span("serve.stream"):
                    start = perf_counter()
                    first = streamed = None
                    for event in client.stream(streamed_spec):
                        if first is None and event["event"] == "checkpoint":
                            first = perf_counter() - start
                        if event["event"] == "result":
                            streamed = event["result"]
                        elif event["event"] == "error":
                            raise RuntimeError(f"streamed job failed: {event}")
                    add(f"serve.stream_ms.{cls}", perf_counter() - start)
                if first is not None:
                    add(f"serve.first_event_ms.{cls}", first)
                if digest(spec.kind, streamed) != digest(
                    spec.kind, api.run_spec(streamed_spec)
                ):
                    errors.append(f"{where}: served stream differs from run_spec")

                with rec.span("serve.hit"):
                    document, seconds = _timed(lambda: client.submit(spec))
                add(f"serve.hit_ms.{cls}", seconds)
                if not document.get("cached") or digest(spec.kind, document["result"]) != expected:
                    errors.append(f"{where}: cache hit is not the cold result")
        stats = server.stats()
    finally:
        server.close()
        runner.close()

    spec = served_spec(models, "batch", next(seeds))
    batch = api.run_spec(spec)
    payload = spec.to_wire()
    encoded = encode_result(spec.kind, batch)
    calls = {
        "spec.to_wire_ms": spec.to_wire,
        "spec.from_wire_ms": lambda: JobSpec.from_wire(payload),
        "spec.cache_key_ms": spec.cache_key,
        "serialize.fingerprint_ms": spec.model.model_fingerprint,
        "serve.wire.encode_ms": lambda: encode_result(spec.kind, batch),
        "serve.wire.decode_ms": lambda: decode_result(spec.kind, encoded),
    }
    for name, call in calls.items():
        for _ in range(CALL_REPS):
            with rec.span(name.removesuffix("_ms")):
                _, seconds = _timed(call)
            add(name, seconds)
    if not np.array_equal(decode_result(spec.kind, encoded), batch):
        errors.append("serve.wire: encode/decode round trip is not bit-exact")

    metrics = {}
    for name, values in samples.items():
        if name == "analysis.tv_probes":
            metrics[name] = statistics.mean(values)
        else:
            metrics[name] = _median_ms(values)
    for cls in SERVED_COLD:
        metrics[f"serve.overhead_ms.{cls}"] = (
            metrics[f"serve.unary_ms.{cls}"] - metrics[f"exec.jobs.job_ms.{cls}"]
        )
    cache = stats["cache"]
    metrics["serve.cache.hit_ratio"] = cache["hits"] / (cache["hits"] + cache["misses"])
    metrics["serve.rejected"] = stats["jobs"]["rejected"]
    metrics["spec.wire_bytes"] = len(json.dumps(payload))
    metrics["spec.wire_fp_bytes"] = len(json.dumps(spec.to_wire_fingerprint()))
    metrics["serve.wire.result_bytes"] = len(json.dumps(encoded))
    return metrics


def dynamic_layers(seed: int, rec, errors: list[str]) -> dict:
    """``dynamic``: mutation and region resampling on the dynamic workload's models."""
    state = Dynamic(seed)
    repro.obs.reset()
    mutate, resample = [], []
    for op in itertools.islice(Dynamic.inputs(seed), DYNAMIC_EVENTS):
        outcome = state.run_op(op, rec)
        if outcome.error is not None:
            errors.append(f"dynamic layer event {op}: {outcome.error}")
            continue
        mutate.append(state.last_split[0])
        resample.append(state.last_split[1])
    errors.extend(state.errors)
    counts = repro.obs.snapshot()
    return {
        "dynamic.mutate_ms": _median_ms(mutate),
        "dynamic.resample_ms": _median_ms(resample),
        "dynamic.region_size": _histogram_mean(counts, "repro_dynamic_region_size"),
        "dynamic.region_rounds": _histogram_mean(counts, "repro_dynamic_region_rounds"),
    }


def layer_metrics(seed: int, rec, errors: list[str]) -> dict:
    """Every per-layer metric except ``obs.trace_overhead``."""
    seeds = itertools.count(LADDER_SEED_BASE + (int(seed) % 1000) * 1000)
    repro.obs.enable()
    try:
        metrics = kernel_layers(seeds, rec)
        metrics.update(served_layers(seeds, rec, errors))
        metrics.update(dynamic_layers(seed, rec, errors))
    finally:
        repro.obs.disable()
    return metrics
