"""The three workloads: ``kernels``, ``served`` and ``dynamic``.

Each workload has

* an input stream, ``<Workload>.inputs(seed)``: an endless generator of
  plain-tuple operation descriptors that is a pure function of the seed
  (the program receives only what the stream describes);
* a constructor that does the set-up (model build, exact targets,
  server or pool start, warm-up);
* ``run_op(op, rec)``, which times one operation and returns an
  :class:`~harness.Op`, checking its output outside the timed region;
* ``finish()``, the checks that need the whole run, and ``close()``.

Check failures are collected in ``errors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

import repro
from checks import digest, feasibility_error
from harness import Op
from repro import JobSpec, api
from repro.csp.builders import not_all_equal_csp
from repro.dynamic import DynamicEnsemble
from repro.dynamic.region import region_round_budget
from repro.graphs import cycle_graph, path_graph, torus_graph
from repro.mrf import hardcore_mrf, ising_mrf, proper_coloring_mrf
from repro.serve import ReproServer, ServeClient

SEED_SPACE = 2**31
#: Warm-up requests draw seeds from a range the measured inputs never use,
#: so a measured "cold" request can never be answered by a warm-up's entry.
WARMUP_SEED_BASE = 2**31


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _fresh_seed(rng: np.random.Generator, used: set[int]) -> int:
    while True:
        value = int(rng.integers(SEED_SPACE))
        if value not in used:
            used.add(value)
            return value


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# kernels: in-process offline batches on the 32x32 torus (n = 1024)
# ----------------------------------------------------------------------
def nae_torus_scopes(side: int) -> list[tuple[int, int, int]]:
    """One 3-uniform scope per vertex: itself, its right and its lower neighbour."""
    return [
        (r * side + c, r * side + (c + 1) % side, ((r + 1) % side) * side + c)
        for r in range(side)
        for c in range(side)
    ]


#: cell -> (model, method, replicas R, rounds, execution).  Rounds are
#: sized so one operation takes 40-160 ms on a 2-vCPU Xeon VM, which gives
#: every cell enough samples in a run for a median and a p90.
CELLS = {
    "lm_coloring": ("coloring", "local-metropolis", 512, 4, "spec"),
    "lg_coloring": ("coloring", "luby-glauber", 512, 2, "spec"),
    "lg_ising": ("ising", "luby-glauber", 256, 2, "spec"),
    # No batched kernel: the SequentialChainEnsemble fallback, hence tiny R.
    "lm_hardcore": ("hardcore", "local-metropolis", 2, 2, "spec"),
    "glauber_ising": ("ising", "glauber", 512, 256, "spec"),
    "lm_nae": ("nae", "local-metropolis", 128, 2, "spec"),
    "lg_nae": ("nae", "luby-glauber", 256, 2, "spec"),
    "lg_coloring_sharded": ("coloring", "luby-glauber", 512, 2, "sharded"),
    "vec_lm_ising": ("ising", "local-metropolis", 1, 20, "vectorized"),
    "vec_lg_ising": ("ising", "luby-glauber", 1, 20, "vectorized"),
}
KERNEL_SIDE = 32


def kernel_models() -> dict:
    graph = torus_graph(KERNEL_SIDE, KERNEL_SIDE)
    n = KERNEL_SIDE * KERNEL_SIDE
    return {
        "coloring": proper_coloring_mrf(graph, 8),
        "ising": ising_mrf(graph, 1.2, 1.0),
        "hardcore": hardcore_mrf(graph, 1.0),
        "nae": not_all_equal_csp(nae_torus_scopes(KERNEL_SIDE), n, 3),
    }


def cell_updates(cell: str, n: int) -> int:
    """Replica-site updates one operation of ``cell`` performs.

    A Glauber step updates one site per replica; a LubyGlauber or
    LocalMetropolis round counts every site of every replica.
    """
    _, method, replicas, rounds, _ = CELLS[cell]
    return replicas * rounds * (1 if method == "glauber" else n)


def run_cell(models: dict, cell: str, seed: int) -> np.ndarray:
    """One operation of ``cell``: the ``(R, n)`` batch it returns."""
    model_key, method, replicas, rounds, execution = CELLS[cell]
    model = models[model_key]
    if execution == "vectorized":
        return repro.sample(
            model, method=method, rounds=rounds, seed=seed, engine="vectorized"
        )[None, :]
    spec = JobSpec.sample_many(
        model,
        replicas,
        method=method,
        rounds=rounds,
        seed=seed,
        parallel=2 if execution == "sharded" else None,
    )
    return spec.run()


class Kernels:
    """Engine kernels carry almost all the work; serve, spec and wire none."""

    name = "kernels"
    classes = tuple(CELLS)

    @staticmethod
    def inputs(seed: int):
        """Rounds over every cell in a seeded order, each with a fresh seed."""
        rng = _rng(seed, 1)
        used: set[int] = set()
        while True:
            for cell in rng.permutation(list(CELLS)):
                yield str(cell), _fresh_seed(rng, used)

    def __init__(self, seed: int) -> None:
        self.models = kernel_models()
        self.n = KERNEL_SIDE * KERNEL_SIDE
        self.errors: list[str] = []
        for offset, cell in enumerate(CELLS):
            run_cell(self.models, cell, WARMUP_SEED_BASE + offset)

    def run_op(self, op, rec) -> Op:
        cell, seed = op
        try:
            with rec.span("kernels.op", cell=cell):
                with rec.span("api.sample" if cell.startswith("vec_") else "api.run_spec"):
                    start = perf_counter()
                    batch = run_cell(self.models, cell, seed)
                    seconds = perf_counter() - start
        except Exception as exc:  # one failed cell must not end the run
            return Op(cell, 0.0, 0.0, _error(exc))
        model_key, _, replicas, _, _ = CELLS[cell]
        problem = feasibility_error(
            self.models[model_key], batch, replicas, f"kernels {cell} seed {seed}"
        )
        if problem:
            self.errors.append(problem)
        return Op(cell, seconds, cell_updates(cell, self.n))

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# served: one closed-loop client against an in-process server
# ----------------------------------------------------------------------
SERVED_COLD = ("mix", "tv", "batch")


def served_models() -> dict:
    return {
        "mix": proper_coloring_mrf(path_graph(3), 3),
        "tv": proper_coloring_mrf(cycle_graph(6), 3),
        "batch": proper_coloring_mrf(torus_graph(8, 8), 8),
    }


def served_spec(models: dict, cls: str, seed: int) -> JobSpec:
    """The request of class ``cls`` with seed ``seed``."""
    if cls == "mix":
        return JobSpec.mixing_time(
            models["mix"], eps=0.35, replicas=64, stride=4, max_rounds=64, seed=seed
        )
    if cls == "tv":
        return JobSpec.tv_curve(models["tv"], (1, 2, 4, 8), replicas=1024, seed=seed)
    return JobSpec.sample_many(models["batch"], 256, rounds=16, seed=seed)


def spec_rounds(spec: JobSpec, result) -> int:
    """Rounds the engine ran to produce ``result`` for ``spec``."""
    if spec.kind == "mixing_time":
        return int(result)
    if spec.kind == "tv_curve":
        return max(spec.checkpoints)
    return spec.rounds


def spec_updates(spec: JobSpec, result) -> int:
    """Replica-site updates a served result represents."""
    return spec.replicas * spec.model.n * spec_rounds(spec, result)


@dataclass
class _Cold:
    """A completed cold request: what the run needs to check and to repeat it."""

    spec: JobSpec
    digest: str
    updates: int
    cached: bool


class Served:
    """Serve, spec, wire, exec.jobs and the estimator dominate each request."""

    name = "served"
    classes = SERVED_COLD + ("hit",)
    #: A hit repeats one of the last HIT_WINDOW cold requests of its class,
    #: all of which are still in the server's result cache.
    HIT_WINDOW = 8

    @staticmethod
    def inputs(seed: int):
        """Blocks of one request per class in a seeded order.

        A cold request is ``(class, seed)``; a cache hit is ``("hit",
        class, back)``: a repeat of the ``back``-th most recent cold
        request of ``class``.
        """
        rng = _rng(seed, 2)
        used: set[int] = set()
        while True:
            for cls in rng.permutation(list(Served.classes)):
                if cls == "hit":
                    target = str(rng.choice(SERVED_COLD))
                    yield "hit", target, int(rng.integers(Served.HIT_WINDOW))
                else:
                    yield str(cls), _fresh_seed(rng, used)

    def __init__(self, seed: int) -> None:
        self.models = served_models()
        self.errors: list[str] = []
        self.cold: dict[str, list[_Cold]] = {cls: [] for cls in SERVED_COLD}
        self.server = ReproServer(workers=1)
        self.server.start()
        self.client = ServeClient(*self.server.address)
        for offset, cls in enumerate(SERVED_COLD):
            self._submit_cold(cls, WARMUP_SEED_BASE + offset)

    def _submit_cold(self, cls: str, seed: int) -> float:
        """Send one cold request (the TV-curve class streamed); its seconds."""
        spec = served_spec(self.models, cls, seed)
        start = perf_counter()
        if cls == "tv":
            document = None
            for event in self.client.stream(spec):
                if event["event"] in ("result", "error"):
                    document = event
            seconds = perf_counter() - start
            if document is None or document["event"] != "result":
                raise RuntimeError(f"stream ended without a result: {document}")
        else:
            document = self.client.submit(spec)
            seconds = perf_counter() - start
        result = document["result"]
        self.cold[cls].append(
            _Cold(
                spec,
                digest(spec.kind, result),
                spec_updates(spec, result),
                bool(document.get("cached")),
            )
        )
        return seconds

    def run_op(self, op, rec) -> Op:
        cls = op[0]
        try:
            if cls != "hit":
                with rec.span("serve.client", cls=cls):
                    seconds = self._submit_cold(cls, op[1])
                return Op(cls, seconds, self.cold[cls][-1].updates)
            history = self.cold[op[1]]
            target = history[-1 - min(op[2], len(history) - 1)]
            with rec.span("serve.client", cls="hit"):
                start = perf_counter()
                document = self.client.submit(target.spec)
                seconds = perf_counter() - start
        except Exception as exc:  # errors and 429 refusals count as failed
            return Op(cls, 0.0, 0.0, _error(exc))
        if not document.get("cached"):
            self.errors.append(f"served hit on {op[1]} came back uncached")
        elif digest(target.spec.kind, document["result"]) != target.digest:
            self.errors.append(f"served hit on {op[1]} differs from the cold result")
        return Op("hit", seconds, target.updates)

    def finish(self) -> None:
        """Every cold result against a direct ``run_spec`` of the same spec."""
        for cls, history in self.cold.items():
            for record in history:
                spec = record.spec
                direct = api.run_spec(spec)
                where = f"served {cls} seed {spec.seed}"
                if record.cached:
                    self.errors.append(f"{where}: a cold request came back cached")
                if digest(spec.kind, direct) != record.digest:
                    self.errors.append(f"{where}: not bit-identical to run_spec")
                if spec.kind == "mixing_time" and not 0 < int(direct) <= spec.max_rounds:
                    self.errors.append(f"{where}: mixing time {direct} out of range")
                if spec.kind == "sample_many":
                    problem = feasibility_error(spec.model, direct, spec.replicas, where)
                    if problem:
                        self.errors.append(problem)

    def close(self) -> None:
        self.server.close()


# ----------------------------------------------------------------------
# dynamic: single-edge mutations on the 64x64 torus (n = 4096)
# ----------------------------------------------------------------------
DYNAMIC_SIDE = 64
DYNAMIC_REPLICAS = 64
ISING_BETA = 1.2
#: update_factor draws its new coupling from these fixed matrices, so the
#: number of distinct factor tables stays small however long a run lasts.
ISING_TABLES = {
    beta: np.array([[beta, 1.0], [1.0, beta]]) for beta in (ISING_BETA, 1.1, 1.35)
}
DYNAMIC_CYCLES = {
    "coloring": ("remove_edge", "add_edge"),
    "ising": ("remove_edge", "add_edge", "update_factor"),
}


def dynamic_models() -> dict:
    graph = torus_graph(DYNAMIC_SIDE, DYNAMIC_SIDE)
    return {
        "coloring": proper_coloring_mrf(graph, 8),
        "ising": ising_mrf(graph, ISING_BETA, 1.0),
    }


class Dynamic:
    """Each event rebuilds the engine, then re-mixes a small region only."""

    name = "dynamic"
    classes = tuple(DYNAMIC_CYCLES)

    @staticmethod
    def inputs(seed: int):
        """Events alternate between the models; each model cycles its operations.

        An event is ``(model, operation, u, v, beta)``.  ``add_edge``
        restores the edge the previous ``remove_edge`` took away, so the
        graph stays a torus but for at most one edge per model.
        """
        rng = _rng(seed, 3)
        graph = torus_graph(DYNAMIC_SIDE, DYNAMIC_SIDE)
        edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
        removed: dict[str, tuple[int, int] | None] = {key: None for key in DYNAMIC_CYCLES}
        step = 0
        while True:
            for key, cycle in DYNAMIC_CYCLES.items():
                operation = cycle[step % len(cycle)]
                if operation == "add_edge":
                    (u, v), removed[key] = removed[key], None
                    yield key, operation, u, v, None
                    continue
                u, v = edges[int(rng.integers(len(edges)))]
                beta = None
                if operation == "remove_edge":
                    removed[key] = (u, v)
                else:
                    beta = float(rng.choice(sorted(ISING_TABLES)))
                yield key, operation, u, v, beta
            step += 1

    def __init__(self, seed: int) -> None:
        models = dynamic_models()
        self.ensembles = {
            key: DynamicEnsemble(
                model,
                DYNAMIC_REPLICAS,
                method="luby-glauber",
                radius=2,
                seed=np.random.SeedSequence([int(seed), 4, index]),
            )
            for index, (key, model) in enumerate(models.items())
        }
        self.errors: list[str] = []
        for key, ensemble in self.ensembles.items():
            ensemble.advance(8)
            u, v = ensemble.model.edges[0]
            ensemble.remove_edge(u, v).resample()
            self._add_edge(key, u, v)
            ensemble.resample()

    def _add_edge(self, key: str, u: int, v: int) -> None:
        ensemble = self.ensembles[key]
        if key == "ising":
            ensemble.add_edge(u, v, ISING_TABLES[ISING_BETA])
        else:
            ensemble.add_edge(u, v)

    def run_op(self, op, rec) -> Op:
        key, operation, u, v, beta = op
        ensemble = self.ensembles[key]
        before = ensemble.config
        try:
            with rec.span("dynamic.event", model=key, op=operation):
                start = perf_counter()
                with rec.span("dynamic.mutate"):
                    if operation == "remove_edge":
                        ensemble.remove_edge(u, v)
                    elif operation == "add_edge":
                        self._add_edge(key, u, v)
                    else:
                        ensemble.update_factor(u, v, ISING_TABLES[beta])
                mutated = perf_counter()
                region = ensemble.pending_region
                resample_start = perf_counter()
                with rec.span("dynamic.resample", region=int(region.size)):
                    ensemble.resample()
                resampled = perf_counter()
        except Exception as exc:  # a failed event must not end the run
            return Op(key, 0.0, 0.0, _error(exc))
        # (mutate, resample) seconds of the last event, for the layer ladder.
        self.last_split = (mutated - start, resampled - resample_start)
        after = ensemble.config
        where = f"dynamic {key} {operation} ({u}, {v})"
        problem = feasibility_error(ensemble.model, after, ensemble.replicas, where)
        if problem:
            self.errors.append(problem)
        outside = np.ones(after.shape[1], dtype=bool)
        outside[region] = False
        if not np.array_equal(after[:, outside], before[:, outside]):
            self.errors.append(f"{where}: vertices outside the region changed")
        rounds = region_round_budget(
            ensemble.model, ensemble.method, int(region.size), ensemble.eps
        )
        return Op(key, sum(self.last_split), ensemble.replicas * int(region.size) * rounds)

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass


WORKLOADS = {workload.name: workload for workload in (Kernels, Served, Dynamic)}
