"""The in-process workloads: ``sweep``, ``robust`` and ``parallel``.

Each op calls the program's public API the way the CLI ``batch`` and
``sweep`` commands do.  An op's latency covers the program calls only
(loading the op's model documents, building its requests, evaluating);
drawing inputs and checking results against the oracle happen outside
it.  Throughput is the correct points over the summed op latencies.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

from common import (
    ROOT,
    WORK,
    Ledger,
    Tracer,
    absorb_checks,
    child_env,
    close,
    median,
    overhead_share,
)
from inputs import Generator
from oracle import Oracle

SETUP_RUNS = 5
WARMUP_OPS = 1


class Workload:
    """One in-process workload: inputs, one op, and its layer probes."""

    name = ""
    #: modules the workload imports, also imported by the set-up probe
    imports: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.gen = Generator(seed)
        self.oracle = Oracle()
        self.batch_entries = 0
        self.fused_entries = 0

    def op(self, index: int, tracer: Tracer) -> tuple[float, bool, str, int]:
        """Run op ``index``; return (latency s, correct, why not, points)."""
        raise NotImplementedError

    def first_result(self) -> tuple[dict, np.ndarray]:
        """The set-up probe's request and the result it must produce."""
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer) -> dict:
        raise NotImplementedError

    def _count_batch(self, stats) -> None:
        self.batch_entries += stats.entries
        self.fused_entries += stats.fused_entries


# -- sweep --------------------------------------------------------------------


class Sweep(Workload):
    """Fused kernel execution, stack building and per-group plan lookup.

    One op is one what-if study: a ``BatchEngine.run`` over 8 model
    variants x 512 points, one variant freshly generated per study (so
    1/8 of the plans compile cold), then a 4096-point ``sweep_parameter``
    on a warm variant.  Every study has the same shape -- the fresh
    variant is always a remote Figure 6 assembly and the swept variant
    is always the first warm one -- so op latencies form one population
    and their median is steady.
    """

    name = "sweep"
    imports = ("repro.engine", "repro.analysis")
    WARM_KINDS = ("local", "local", "local", "remote", "remote", "pipeline", "booking")
    POINTS = 512
    SWEEP_POINTS = 4096
    NUMERIC_DISTINCT = 16

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.dsl import assembly_from_dict
        from repro.engine import BatchEngine, BatchRequest

        self.engine = BatchEngine(jobs=1)
        self.warm = [self.gen.model(kind) for kind in self.WARM_KINDS]
        self.values = {}
        self.requests = []
        expected = []
        for model in self.warm:
            numeric = model.kind in ("pipeline", "booking")
            values = self.gen.values(
                model, self.POINTS, self.NUMERIC_DISTINCT if numeric else None
            )
            self.values[model.key] = values
            self.oracle.prepare(model, values)
            expected.append(self.oracle.expected(model, values))
            assembly = assembly_from_dict(model.doc)
            self.requests += [
                BatchRequest(assembly, model.service, model.point(v)) for v in values
            ]
        self.expected = np.concatenate(expected)
        self.sweep_model = self.warm[0]
        self.sweep_assembly = self.requests[0].assembly
        self.grid = np.linspace(1.0, 1000.0, self.SWEEP_POINTS)
        self.sweep_expected = self.oracle.expected(self.sweep_model, self.grid)

    def op(self, index, tracer):
        from repro.analysis import sweep_parameter
        from repro.dsl import assembly_from_dict
        from repro.engine import BatchRequest

        fresh = self.gen.model("remote")
        values = self.gen.values(fresh, self.POINTS)
        expected = np.concatenate([self.expected, self.oracle.expected(fresh, values)])
        model = self.sweep_model
        started = time.perf_counter()
        with tracer.span("op", request=index):
            with tracer.span("dsl.load"):
                assembly = assembly_from_dict(fresh.doc)
            requests = self.requests + [
                BatchRequest(assembly, fresh.service, fresh.point(v)) for v in values
            ]
            with tracer.span("batch.run"):
                result = self.engine.run(requests)
            with tracer.span("sweep.run"):
                sweep = sweep_parameter(
                    self.sweep_assembly, model.service, model.parameter, self.grid,
                    model.fixed, cache=self.engine.cache,
                )
        latency = time.perf_counter() - started
        self._count_batch(result.stats)
        if not close(result.pfails(), expected):
            return latency, False, "batch Pfail off its oracle", 0
        if not close(sweep.pfail, self.sweep_expected):
            return latency, False, "sweep Pfail off its oracle", 0
        return latency, True, "", len(requests) + self.SWEEP_POINTS

    def first_result(self):
        model = self.warm[0]
        value = self.values[model.key][0]
        return (
            {"doc": model.doc, "service": model.service,
             "point": model.point(value), "jobs": 1, "copies": 1},
            self.oracle.expected(model, [value]),
        )

    def layer_metrics(self, tracer):
        import layers

        sample = self.warm[::2]
        return {
            **layers.probe_documents(tracer, sample),
            **layers.probe_plans(tracer, sample, self.values),
            **layers.probe_batch_overhead(tracer, self.requests),
            **layers.probe_sweep_overhead(tracer, self.sweep_model, self.grid),
        }


# -- robust -------------------------------------------------------------------


class Robust(Workload):
    """Chain build, factorization, condition estimate and substitution.

    One op is a 32-point ``BatchEngine.run`` over a recursive variant
    (cyclic, so the robust chain ends in the fixed-point tier), then a
    64-point numeric ``sweep_parameter`` on a remote Figure 6 variant.
    Ops rotate over variants of the same shape, so their latencies form
    one population.
    """

    name = "robust"
    imports = ("repro.engine", "repro.analysis")
    jobs = 1
    VARIANTS = 8
    BATCH_POINTS = 32
    SWEEP_POINTS = 64

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.engine import BatchEngine

        self.engine = BatchEngine(jobs=self.jobs)
        self.recursive = [self.gen.model("recursive") for _ in range(self.VARIANTS)]
        self.figure6 = [self.gen.model("remote") for _ in range(self.VARIANTS)]
        self.values = {
            m.key: self.gen.values(m, self.BATCH_POINTS) for m in self.recursive
        }
        self.values.update({
            m.key: self.gen.values(m, self.SWEEP_POINTS) for m in self.figure6
        })
        self.grid = np.linspace(1.0, 1000.0, self.SWEEP_POINTS).round()

    def _requests(self, model, assembly):
        from repro.engine import BatchRequest

        return [
            BatchRequest(assembly, model.service, model.point(v))
            for v in self.values[model.key]
        ]

    def _robust_batch(self, model, tracer):
        from repro.dsl import assembly_from_dict

        with tracer.span("dsl.load"):
            assembly = assembly_from_dict(model.doc)
        requests = self._requests(model, assembly)
        with tracer.span("batch.run"):
            result = self.engine.run(requests)
        self._count_batch(result.stats)
        return result

    def _numeric_sweep(self, model, tracer):
        from repro.analysis import sweep_parameter
        from repro.dsl import assembly_from_dict

        with tracer.span("dsl.load"):
            assembly = assembly_from_dict(model.doc)
        with tracer.span("sweep.run"):
            return sweep_parameter(
                assembly, model.service, model.parameter, self.grid,
                model.fixed, method="numeric",
            )

    def op(self, index, tracer):
        recursive = self.recursive[index % self.VARIANTS]
        figure6 = self.figure6[index % self.VARIANTS]
        started = time.perf_counter()
        with tracer.span("op", request=index):
            result = self._robust_batch(recursive, tracer)
            sweep = self._numeric_sweep(figure6, tracer)
        latency = time.perf_counter() - started
        points = self.BATCH_POINTS + self.SWEEP_POINTS
        if not close(result.pfails(),
                     self.oracle.expected(recursive, self.values[recursive.key])):
            return latency, False, "robust batch Pfail off its oracle", 0
        if not close(sweep.pfail, self.oracle.expected(figure6, self.grid)):
            return latency, False, "numeric sweep Pfail off its oracle", 0
        return latency, True, "", points

    def first_result(self):
        model = self.recursive[0]
        value = self.values[model.key][0]
        copies = 2 if self.jobs > 1 else 1
        return (
            {"doc": model.doc, "service": model.service,
             "point": model.point(value), "jobs": self.jobs, "copies": copies},
            self.oracle.expected(model, [value] * copies),
        )

    def _campaign_inputs(self):
        """Two batch campaigns: Figure 6 and recursive variants."""
        from repro.dsl import assembly_from_dict

        inputs = []
        for models in (self.figure6[:2], self.recursive[:2]):
            points = [models[0].point(v) for v in self.values[models[0].key][:8]]
            inputs.append((
                models[0].service,
                [(m.key, assembly_from_dict(m.doc)) for m in models],
                points,
            ))
        return inputs

    def layer_metrics(self, tracer):
        import layers
        from repro.dsl import assembly_from_dict

        model = self.recursive[0]
        requests = self._requests(model, assembly_from_dict(model.doc))
        return {
            **layers.probe_documents(tracer, [self.recursive[0], self.figure6[0]]),
            **layers.probe_plans(tracer, [self.recursive[0]], self.values),
            **layers.probe_batch_overhead(tracer, requests, reps=2),
            **self.path_probes(tracer),
        }

    def path_probes(self, tracer):
        """Robust chain, fixed point and solver calls on this workload's
        models, and the jobs=2 pool, transport and campaign probes on its
        robust batch."""
        import layers
        from repro.dsl import assembly_from_dict

        model = self.recursive[0]
        requests = self._requests(model, assembly_from_dict(model.doc))
        sample = [self.recursive[0], self.figure6[0], self.figure6[1]]
        return {
            **layers.probe_chains(tracer, sample, self.values),
            **layers.probe_parallel(tracer, requests, self._campaign_inputs()),
        }


# -- parallel -----------------------------------------------------------------


class Parallel(Robust):
    """The robust batch at ``jobs=2`` (process pool and shared-memory
    transport), plus a journaled ``batch_campaign`` of Figure 6 and
    recursive variants through ``run_campaign(jobs=2)`` and a resume pass
    over the finished journal."""

    name = "parallel"
    imports = ("repro.engine", "repro.analysis", "repro.workunits")
    jobs = 2
    CAMPAIGN_POINTS = 8

    def op(self, index, tracer):
        from repro.dsl import assembly_from_dict
        from repro.workunits import assemble_batch, batch_campaign, run_campaign

        recursive = self.recursive[index % self.VARIANTS]
        pairs = (
            [self.figure6[index % self.VARIANTS], self.figure6[(index + 1) % self.VARIANTS]],
            [recursive, self.recursive[(index + 1) % self.VARIANTS]],
        )
        WORK.mkdir(exist_ok=True)
        stores = [WORK / f"journal-{index}-{k}.jsonl" for k in range(len(pairs))]
        outcomes = []
        started = time.perf_counter()
        try:
            with tracer.span("op", request=index):
                result = self._robust_batch(recursive, tracer)
                for models, store in zip(pairs, stores):
                    values = self.values[models[0].key][: self.CAMPAIGN_POINTS]
                    points = [models[0].point(v) for v in values]
                    with tracer.span("dsl.load"):
                        loaded = [(m.key, assembly_from_dict(m.doc)) for m in models]
                    with tracer.span("campaign.run"):
                        campaign = batch_campaign(loaded, models[0].service, points)
                        report = run_campaign(campaign, store, jobs=2)
                    with tracer.span("campaign.resume"):
                        resumed = run_campaign(campaign, store, jobs=2)
                    outcomes.append((models, values, campaign, report, resumed))
            latency = time.perf_counter() - started
        finally:
            for store in stores:
                store.unlink(missing_ok=True)
        if not close(result.pfails(),
                     self.oracle.expected(recursive, self.values[recursive.key])):
            return latency, False, "parallel robust batch Pfail off its oracle", 0
        points = self.BATCH_POINTS
        for models, values, campaign, report, resumed in outcomes:
            expected = np.concatenate([self.oracle.expected(m, values) for m in models])
            got = [e.pfail for e in assemble_batch(campaign, report)]
            again = [e.pfail for e in assemble_batch(campaign, resumed)]
            if not report.ok or not close(got, expected):
                return latency, False, "campaign Pfail off its oracle", 0
            if resumed.resumed != len(campaign) or again != got:
                return latency, False, "resume pass did not replay the journal", 0
            points += len(got)
        return latency, True, "", points


WORKLOADS = {cls.name: cls for cls in (Sweep, Robust, Parallel)}


# -- running ------------------------------------------------------------------


def measure_setup(workload: Workload, checks: Ledger) -> float:
    """Median fresh interpreter → first correct result over
    :data:`SETUP_RUNS` interpreters."""
    request, expected = workload.first_result()
    request["imports"] = list(workload.imports)
    payload = json.dumps(request)
    samples = []
    for _ in range(SETUP_RUNS):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "first_result.py")],
            input=payload, cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=120,
        )
        samples.append(time.perf_counter() - started)
        ok = proc.returncode == 0 and close(json.loads(proc.stdout), expected)
        checks.check(ok, f"setup: exit {proc.returncode} {proc.stderr[-300:]}")
    return median(samples)


def loop(workload: Workload, seconds: float, tracer: Tracer, start: int = 0) -> Ledger:
    """Closed loop of ops for ``seconds`` of wall time."""
    ledger = Ledger()
    deadline = time.perf_counter() + seconds
    index = start
    while time.perf_counter() < deadline:
        try:
            latency, ok, why, points = workload.op(index, tracer)
        except Exception as exc:  # a typed or untyped error fails the op
            latency, ok, why, points = 0.0, False, f"{type(exc).__name__}: {exc}", 0
        ledger.record(ok, latency, points, why)
        index += 1
    return ledger


def _warm_up(workload: Workload, checks: Ledger) -> None:
    for index in range(-WARMUP_OPS, 0):
        _, ok, why, _ = workload.op(index, Tracer(enabled=False))
        checks.check(ok, f"warm-up: {why}")


def run(name: str, seed: int, seconds: float) -> tuple[Ledger, dict, dict]:
    """The untraced run: end-to-end metrics."""
    import resource

    workload = WORKLOADS[name](seed)
    checks = Ledger()
    setup_s = measure_setup(workload, checks)
    _warm_up(workload, checks)
    ledger = loop(workload, seconds, Tracer(enabled=False))
    absorb_checks(ledger, checks)
    busy = sum(ledger.latencies) or float("inf")
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": ledger.p50_ms(),
        "requests_per_s": len(ledger.latencies) / busy,
        "points_per_s": ledger.points / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return ledger, metrics, {}


def run_traced(name: str, seed: int, seconds: float, tracer: Tracer) -> tuple[Ledger, dict, dict]:
    """The traced run: per-layer metrics from counters and probes."""
    import layers
    from repro import observability as obs

    workload = WORKLOADS[name](seed)
    checks = Ledger()
    _warm_up(workload, checks)
    untraced = loop(workload, seconds / 2, Tracer(enabled=False))
    obs.enable()
    try:
        before = obs.registry().snapshot()["counters"]
        workload.batch_entries = workload.fused_entries = 0
        traced = loop(workload, seconds / 2, tracer, start=10_000)
        after = obs.registry().snapshot()["counters"]
        metrics = _counter_metrics(before, after, traced, workload)
        metrics["trace.overhead_share"] = overhead_share(traced, untraced)
        metrics.update(workload.layer_metrics(tracer))
    finally:
        obs.disable()
    ledger = Ledger()
    ledger.merge(untraced)
    ledger.merge(traced)
    absorb_checks(ledger, checks)
    return ledger, metrics, {}


def _counter_metrics(before: dict, after: dict, traced: Ledger, workload: Workload) -> dict:
    """Per-op and per-point ratios from the program's own counters,
    summed over the parent and (merged) worker registries."""
    from layers import counter_delta

    def delta(name):
        return counter_delta(before, after, name)

    def ratio(prefix):
        hits, misses = delta(f"{prefix}.hits"), delta(f"{prefix}.misses")
        return hits / (hits + misses) if hits + misses else 0.0

    ops = max(1, traced.attempted)
    points = max(1, traced.points)
    compiled = delta("plan.compiled.symbolic") + delta("plan.compiled.robust")
    return {
        "plan_cache.hit_ratio": ratio("cache.plan"),
        "kernel_cache.hit_ratio": ratio("cache.kernel"),
        "solver_cache.hit_ratio": ratio("cache.solver"),
        "plan.compilations_per_op": compiled / ops,
        "solver.factorizations_per_point": delta("solver.factorizations") / points,
        "solver.plans_per_op": delta("solver.plans") / ops,
        "solver.backend.dense": delta("solver.backend.dense") / ops,
        "solver.backend.sparse-tri": delta("solver.backend.sparse-tri") / ops,
        "solver.backend.sparse-lu": delta("solver.backend.sparse-lu") / ops,
        "batch.fused_share": (
            workload.fused_entries / workload.batch_entries
            if workload.batch_entries else 0.0
        ),
    }
