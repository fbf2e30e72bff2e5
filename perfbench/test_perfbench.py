"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from checks import digest, feasibility_error, infeasible_rows  # noqa: E402
from repro.csp.builders import not_all_equal_csp  # noqa: E402
from repro.graphs import torus_graph  # noqa: E402
from repro.mrf import hardcore_mrf, proper_coloring_mrf  # noqa: E402
from spans import NullRecorder, SpanRecorder, read_spans, summarise  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[int, dict | None, str]:
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return process.returncode, result, process.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_run_emits_every_end_to_end_metric(workload):
    code, result, stderr = _run("--workload", workload, "--seed", "5", "--seconds", "0.5")
    assert code == 0, stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_short_traced_run_emits_every_per_layer_metric():
    code, result, stderr = _run(
        "--workload", "served", "--seed", "5", "--seconds", "0.5", "--trace", "1"
    )
    assert code == 0, stderr
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert (ROOT / "perfbench" / "out" / "trace-served-5.jsonl").is_file()


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "kernels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout


STOP_CHILDREN_SCRIPT = """
import multiprocessing, os, sys, time
from multiprocessing import resource_tracker, shared_memory
sys.path.insert(0, sys.argv[1])
import harness

block = shared_memory.SharedMemory(create=True, size=8)  # starts the resource tracker
tracker = resource_tracker._resource_tracker._pid
sleeper = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
sleeper.start()
block.close()
block.unlink()
harness.stop_children(timeout=5)
for pid in (tracker, sleeper.pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        continue
    sys.exit(f"process {pid} is still running")
assert not harness._child_pids()
"""


def test_stop_children_ends_the_resource_tracker_and_workers():
    process = subprocess.run(
        [sys.executable, "-c", STOP_CHILDREN_SCRIPT, str(HERE)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert process.returncode == 0, process.stderr


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS.values()))
def test_inputs_are_a_pure_function_of_the_seed(workload):
    def first(seed):
        return list(itertools.islice(workload.inputs(seed), 60))

    assert first(3) == first(3)
    assert first(3) != first(4)
    assert {op[0] for op in first(3)} == set(workload.classes)


def test_dynamic_inputs_only_add_back_removed_edges():
    removed = {}
    for key, operation, u, v, _ in itertools.islice(workloads.Dynamic.inputs(9), 200):
        if operation == "remove_edge":
            assert key not in removed
            removed[key] = (u, v)
        elif operation == "add_edge":
            assert removed.pop(key) == (u, v)


def _coloring_batch():
    model = proper_coloring_mrf(torus_graph(4, 4), 4)
    # (r + 2c + shift) mod 4 is a proper colouring of the 4x4 torus.
    batch = np.array(
        [[(r + 2 * c + shift) % 4 for r in range(4) for c in range(4)] for shift in range(3)]
    )
    assert not infeasible_rows(model, batch).any()
    return model, batch


def test_corrupted_colouring_trips_the_feasibility_check():
    model, batch = _coloring_batch()
    batch[1, 0] = batch[1, 1]  # vertices 0 and 1 are adjacent on the torus
    assert infeasible_rows(model, batch).tolist() == [False, True, False]
    assert feasibility_error(model, batch, 3, "x") == "x: 1 of 3 rows infeasible"
    assert feasibility_error(model, batch[:2], 3, "x").startswith("x: batch has shape (2, 16)")
    batch[2, 5] = 7  # a spin outside 0..q-1
    assert infeasible_rows(model, batch).tolist() == [False, True, True]


def test_corrupted_hardcore_and_nae_trip_the_feasibility_check():
    hardcore = hardcore_mrf(torus_graph(3, 3), 1.0)
    batch = np.zeros((2, 9), dtype=np.int64)
    batch[:, 0] = 1
    batch[1, 1] = 1  # two adjacent occupied sites
    assert infeasible_rows(hardcore, batch).tolist() == [False, True]
    nae = not_all_equal_csp(workloads.nae_torus_scopes(3), 9, 3)
    batch = np.tile(np.arange(9) % 3, (2, 1))
    batch[1, [0, 1, 3]] = 2  # scope (0, 1, 3) monochromatic
    assert infeasible_rows(nae, batch).tolist() == [False, True]


def test_digest_sees_one_changed_bit():
    batch = np.arange(12).reshape(3, 4)
    changed = batch.copy()
    changed[2, 3] += 1
    assert digest("sample_many", batch) != digest("sample_many", changed)
    curve = [(1, 0.5), (2, 0.25)]
    nudged = [(1, 0.5), (2, np.nextafter(0.25, 1.0))]
    assert digest("tv_curve", curve) != digest("tv_curve", nudged)
    assert digest("mixing_time", 8) != digest("mixing_time", 9)


@pytest.mark.filterwarnings("ignore::repro.errors.FallbackEngineWarning")
def test_corrupted_kernel_output_trips_the_run_check(monkeypatch):
    state = workloads.Kernels(1)
    honest = workloads.run_cell

    def corrupt(models, cell, seed):
        batch = honest(models, cell, seed).copy()
        batch[0, 1] = batch[0, 0]  # adjacent on the torus; equal spins break colourings
        return batch

    monkeypatch.setattr(workloads, "run_cell", corrupt)
    op = state.run_op(("lm_coloring", 11), NullRecorder())
    assert op.error is None
    assert state.errors and "lm_coloring" in state.errors[0]


def test_corrupted_served_result_trips_the_run_check():
    state = workloads.Served(1)
    try:
        stream = workloads.Served.inputs(1)
        for op in itertools.islice(stream, 8):
            assert state.run_op(op, NullRecorder()).error is None
        state.finish()
        assert state.errors == []
        state.cold["batch"][-1].digest = "0" * 64
        state.finish()
        assert any("not bit-identical" in message for message in state.errors)
    finally:
        state.close()


def test_change_outside_the_region_trips_the_dynamic_check(monkeypatch):
    state = workloads.Dynamic(1)
    ensemble = state.ensembles["ising"]
    resampled_before = ensemble.resamples
    honest = type(ensemble).config

    def leaky_config(self):
        batch = honest.fget(self)
        if self is ensemble and self.resamples > resampled_before:
            batch[:, 32 * 64 + 32] ^= 1  # vertex (32, 32), far from edge (0, 1)
        return batch

    monkeypatch.setattr(type(ensemble), "config", property(leaky_config))
    op = state.run_op(("ising", "update_factor", 0, 1, 1.1), NullRecorder())
    assert op.error is None
    assert any("outside the region changed" in message for message in state.errors)


def test_span_summary_self_time_excludes_children(tmp_path):
    rec = SpanRecorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    path = tmp_path / "spans.jsonl"
    rec.write(path)
    spans = read_spans(path)
    assert [s["name"] for s in spans] == ["inner", "outer"]
    assert spans[0]["parent_id"] == spans[1]["span_id"]
    assert spans[0]["trace_id"] == spans[1]["trace_id"]
    summary = summarise(spans)
    inner = spans[0]["end"] - spans[0]["start"]
    outer = spans[1]["end"] - spans[1]["start"]
    assert summary["outer"]["self_s"] == pytest.approx(outer - inner)
    assert summary["inner"]["self_s"] == pytest.approx(inner)
    assert summary["outer"]["count"] == 1
