"""End-to-end benchmark of the sampling stack, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``kernels``: in-process ``JobSpec.sample_many(...).run()`` batches over
  ten engine cells on the 32x32 torus;
* ``served``: one closed-loop ``ServeClient`` against an in-process
  ``ReproServer(workers=1)``, sending mixing-time, streamed TV-curve,
  bulk ``sample_many`` and cache-hit requests in equal shares;
* ``dynamic``: single-edge mutations plus region resampling on
  ``DynamicEnsemble`` colouring and Ising models on the 64x64 torus.

With ``--trace 0`` the run sets up the workload five times, measures it
for ``--seconds`` with tracing and probes off, checks every output and
prints the end-to-end metrics:

* ``setup_s``: median set-up time (model build, exact targets, server or
  pool start, warm-up) in seconds at the nominal reference speed (see
  below);
* ``peak_rss_mb``: peak resident memory of the run and its children;
* ``op_p50_ref`` and ``op_p90_ref``: operation latency, median and p90;
* ``ops_per_kref``: operations completed per unit of busy time;
* ``updates_per_kref``: replica-site updates delivered per unit of busy
  time.

An *operation* is one cell batch, one request or one mutation event; its
class is its cell, request class or mutated model.  The timings are in
units of a reference loop timed around each operation
(``harness.ReferenceLoop``; one ``ref`` is its time, about a millisecond,
a ``kref`` a thousand of them), which cancels changes of machine speed
during a run.  ``setup_s`` must be in seconds, so it is the measured
seconds scaled to the speed at which the reference loop takes exactly a
millisecond.  The same figures in plain milliseconds and seconds are
printed on the ``raw`` line.

With ``--trace 1`` it measures the workload for half the time untraced
and then the same number of further operations with the benchmark's span
recorder and the ``repro.obs`` probes on (their time ratio is
``obs.trace_overhead``), runs the per-layer ladder of ``layers.py``,
writes the spans to ``perfbench/out/`` and prints their summary and every
per-layer metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import warnings
from pathlib import Path
from time import perf_counter

import harness

SETUPS = 5

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_p50_ref": "ref",
    "op_p90_ref": "ref",
    "ops_per_kref": "1/kref",
    "updates_per_kref": "1/kref",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("kernels", "served", "dynamic"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(state, stream, seconds: float, rec, classes, reference, limit: int | None = None):
    """Closed loop over ``stream`` for ``seconds`` (or ``limit`` operations).

    A time-bounded loop also runs until every class has at least one
    operation, so even a very short run reports every metric.  The
    reference loop runs between operations; each operation records the
    mean of the two runs around it.
    """
    ops = []
    seen: set[str] = set()
    start = perf_counter()
    before = reference.sample()
    while True:
        if limit is not None:
            if len(ops) >= limit:
                break
        elif perf_counter() - start >= seconds and seen.issuperset(classes):
            break
        op = state.run_op(next(stream), rec)
        after = reference.sample()
        op.reference = (before + after) / 2
        before = after
        ops.append(op)
        seen.add(op.cls)
    return ops


def main(argv=None) -> int:
    """Run the benchmark; on every way out, stop and reap the processes it started."""
    # A terminated run unwinds through the finally below like any other exit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(parse_args(argv))
    finally:
        stray = harness.stop_children()
        if stray:
            print(f"perfbench: terminated stray child processes {stray}", file=sys.stderr)


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/repro was not found", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    harness.pin_environment()
    sys.path.insert(0, str(root / "src"))
    import spans
    from repro.errors import FallbackEngineWarning
    from workloads import WORKLOADS

    # The hardcore cell uses the fallback on purpose; say so once, not per op.
    warnings.simplefilter("ignore", FallbackEngineWarning)

    workload = WORKLOADS[args.workload]
    print("machine " + json.dumps(harness.machine(root), sort_keys=True), flush=True)

    reference = harness.ReferenceLoop()
    setups = []  # (seconds, reference-loop seconds around the set-up)
    state = None
    for _ in range(SETUPS if not args.trace else 1):
        if state is not None:
            state.close()
        before = reference.median()
        start = perf_counter()
        state = workload(args.seed)
        seconds = perf_counter() - start
        setups.append((seconds, (before + reference.median()) / 2))

    stream = workload.inputs(args.seed)
    try:
        if args.trace:
            untraced = measure(
                state, stream, args.seconds / 2, spans.NullRecorder(), workload.classes, reference
            )
            import repro

            rec = spans.SpanRecorder()
            repro.obs.enable()
            try:
                traced = measure(
                    state, stream, 0, rec, workload.classes, reference, limit=len(untraced)
                )
            finally:
                repro.obs.disable()
            ops = untraced + traced
        else:
            ops = measure(
                state, stream, args.seconds, spans.NullRecorder(), workload.classes, reference
            )
        state.finish()
    finally:
        state.close()
    errors = list(state.errors)
    if all(op.error is not None for op in ops):
        print(f"perfbench: every operation failed; first: {ops[0].error}", file=sys.stderr)
        return 1

    if args.trace:
        from layers import layer_metrics, unit

        values = layer_metrics(args.seed, rec, errors)
        # Both halves in reference-loop units, so a change of machine speed cancels.
        values["obs.trace_overhead"] = sum(o.seconds / o.reference for o in traced) / sum(
            o.seconds / o.reference for o in untraced
        )
        path = root / "perfbench" / "out" / f"trace-{workload.name}-{args.seed}.jsonl"
        rec.write(path)
        print(f"spans written to {path.relative_to(root)}")
        print(spans.format_summary(spans.summarise(spans.read_spans(path))))
        print(f"obs.trace_overhead ({workload.name}) = {values['obs.trace_overhead']:.4f}")
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in values.items()}
    else:
        values, raw, classes = harness.summarise(ops)
        values["setup_s"] = statistics.median(
            seconds * harness.NOMINAL_REFERENCE_S / ref for seconds, ref in setups
        )
        raw["setup_s"] = statistics.median(seconds for seconds, _ in setups)
        values["peak_rss_mb"] = harness.peak_rss_mb()
        for name, row in classes.items():
            print(
                f"class {name}: {row['count']} ops, p50 {row['p50_ms']:.3f} ms, "
                f"p90 {row['p90_ms']:.3f} ms"
            )
        print("raw " + ", ".join(f"{name} = {value:.6g}" for name, value in raw.items()))
        metrics = {
            name: {"value": values[name], "unit": symbol} for name, symbol in E2E_UNITS.items()
        }

    failed = [op for op in ops if op.error is not None]
    for op in failed[:5]:
        print(f"failed {op.cls}: {op.error}", file=sys.stderr)
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    correct = not errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
