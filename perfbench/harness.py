"""Environment pinning, machine record and the end-to-end metric summary.

Everything here is benchmark-side: the program under test is only ever
imported and called, never configured from this module beyond the
environment variables it already reads.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

#: Pinned before numpy is imported: one BLAS thread (so the two kernels
#: that use BLAS do not fight the pool workers for the machine's cores),
#: the numpy array backend, and the platform's default start method named
#: explicitly so a changed default cannot silently change what is timed.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "REPRO_BACKEND": "numpy",
    "REPRO_EXEC_START_METHOD": "fork",
}


def pin_environment() -> None:
    """Apply :data:`PINNED_ENV`; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_environment() must run before numpy is imported")
    os.environ.update(PINNED_ENV)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout's git metadata, or ``"unknown"`` when it has none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def machine(root: Path) -> dict:
    """What a result needs beside it to be compared with another run."""
    import numpy
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "backend": os.environ["REPRO_BACKEND"],
        "start_method": os.environ["REPRO_EXEC_START_METHOD"],
        "commit": _git_commit(root),
    }


def _child_pids() -> list[int]:
    """Live children of this process, from ``/proc/self/task/*/children``."""
    pids: list[int] = []
    for task in Path("/proc/self/task").glob("*"):
        try:
            pids.extend(int(pid) for pid in (task / "children").read_text().split())
        except (OSError, ValueError):
            pass
    return pids


def stop_children(timeout: float = 20.0) -> list[int]:
    """Stop every process this run started and wait until each has ended.

    The program's pools and job runners join their workers on ``close()``,
    but ``multiprocessing.shared_memory`` also starts a resource-tracker
    process that, left alone, outlives the run until it notices its
    parent is gone.  This stops the tracker (it unlinks whatever is still
    registered, then exits), terminates any other child still running and
    reaps them all.  Returns the pids it had to terminate.
    """
    import multiprocessing
    import signal
    import time
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
    resource_tracker._resource_tracker._stop()
    stray = _child_pids()
    for pid in stray:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return stray  # no children left, live or zombie
        if pid:
            continue
        if time.monotonic() > deadline:
            left = _child_pids()
            if killed:
                raise RuntimeError(f"child processes {left} did not exit")
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + timeout
        time.sleep(0.01)


def peak_rss_mb() -> float:
    """Peak resident set size in MiB: this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


@dataclass
class Op:
    """One timed operation of a workload.

    ``cls`` is the operation's class (a kernel cell, a request class, a
    mutated model); ``updates`` the replica-site updates its result
    represents; ``error`` the failure message of an operation that raised
    or was refused.  ``seconds`` is set from inside the operation, so it
    leaves out the output checks.
    """

    cls: str
    seconds: float
    updates: float
    error: str | None = None
    #: The reference loop's time around this operation (see ReferenceLoop).
    reference: float = math.nan


#: The reference loop's time at the nominal speed ``setup_s`` is scaled to.
NOMINAL_REFERENCE_S = 1e-3


class ReferenceLoop:
    """A fixed CPU-bound loop that calls no program code, timed between operations.

    A shared virtual machine can switch between speeds for seconds at a
    time, and a switch moves every timing together: on a 2-vCPU Xeon VM a
    fixed loop took 35-58 ms per iteration within ten seconds, and runs of
    the same workload differed by up to a quarter in raw milliseconds.
    Each operation is therefore also measured in units of this loop, timed
    just before and just after it (a ratio taken within one run), which
    cancels the switch; the raw milliseconds are printed beside them.  The
    loop mixes a numpy sort with interpreted Python, as the program's
    operations do, and takes about a millisecond on that VM.
    """

    def __init__(self) -> None:
        import numpy

        self._data = numpy.random.default_rng(0).random(20_000)
        for _ in range(5):  # the first runs pay for cold caches
            self.sample()

    def sample(self) -> float:
        """Run the loop once; its seconds."""
        start = perf_counter()
        self._data.copy().sort()
        total = 0
        for value in range(20_000):
            total += value
        return perf_counter() - start

    def median(self, count: int = 5) -> float:
        """Median of ``count`` fresh samples: steadier than one, for rare use."""
        return percentile([self.sample() for _ in range(count)], 50)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of a sample."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarise(ops: list[Op]) -> tuple[dict, dict, dict]:
    """End-to-end timing metrics of a run.

    Returns the metrics in reference-loop units (an operation's time in
    ``ref`` is its seconds over the :class:`ReferenceLoop` time around it;
    a ``kref`` is a thousand of them), the same metrics in milliseconds
    and seconds, and each class's count, p50 and p90 in milliseconds.

    Latency percentiles are taken within each operation class and combined
    by geometric mean over classes, so a median never sits on the boundary
    between two classes of very different cost (which would make it jump
    between runs), and every class weighs the same whatever its cost.
    ``updates`` throughput is combined the same way; ``ops`` throughput is
    that of the whole mix over busy time.
    """
    done = [op for op in ops if op.error is None]
    by_class: dict[str, list[Op]] = {}
    for op in done:
        by_class.setdefault(op.cls, []).append(op)

    def timing(duration) -> dict:
        return {
            "p50": geomean(
                percentile([duration(o) for o in group], 50) for group in by_class.values()
            ),
            "p90": geomean(
                percentile([duration(o) for o in group], 90) for group in by_class.values()
            ),
            "ops": len(done) / sum(duration(o) for o in done),
            "updates": geomean(
                sum(o.updates for o in group) / sum(duration(o) for o in group)
                for group in by_class.values()
            ),
        }

    seconds = timing(lambda op: op.seconds)
    refs = timing(lambda op: op.seconds / op.reference)
    metrics = {
        "op_p50_ref": refs["p50"],
        "op_p90_ref": refs["p90"],
        "ops_per_kref": refs["ops"] * 1000,
        "updates_per_kref": refs["updates"] * 1000,
    }
    raw = {
        "op_ms_p50": seconds["p50"] * 1e3,
        "op_ms_p90": seconds["p90"] * 1e3,
        "ops_per_s": seconds["ops"],
        "updates_per_s": seconds["updates"],
        "reference_ms": percentile([op.reference for op in done], 50) * 1e3,
    }
    classes = {
        name: {
            "count": len(group),
            "p50_ms": percentile([o.seconds for o in group], 50) * 1e3,
            "p90_ms": percentile([o.seconds for o in group], 90) * 1e3,
        }
        for name, group in sorted(by_class.items())
    }
    return metrics, raw, classes
