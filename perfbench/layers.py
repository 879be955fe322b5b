"""Per-layer probes: time calls into each layer's public functions.

The traced run of a workload reports every metric in :data:`PER_LAYER`.
A layer the workload reaches is measured on that workload's own inputs
(its model documents, points and request bodies); a layer it does not
reach reads 0.  Timings come from :class:`common.Tracer` spans around
the calls; counts come from the counters the program already exposes.
"""

from __future__ import annotations

import ctypes
import json
import pickle
from typing import TYPE_CHECKING

import numpy as np

from common import WORK, Tracer, median

if TYPE_CHECKING:
    from inputs import Model

#: Points per ``evaluate_stack`` call in the kernel probe.
STACK_POINTS = 512

#: name -> (unit, better).  BENCHMARK.json lists the same metrics.
PER_LAYER = {
    # server (serve)
    "server.decode_us": ("us", "lower"),
    "server.validate_us": ("us", "lower"),
    "server.encode_us": ("us", "lower"),
    "server.evaluate_us": ("us", "lower"),
    "server.sweep_us": ("us", "lower"),
    "server.batch_us": ("us", "lower"),
    "server.side_p50_ms": ("ms", "lower"),
    "server.wire_ms": ("ms", "lower"),
    "server.coalesced_share": ("ratio", "higher"),
    "server.shed": ("count", "lower"),
    # dsl and engine.fingerprint
    "dsl.load_us": ("us", "lower"),
    "model_cache.hit_ratio": ("ratio", "higher"),
    "fingerprint.canonical_json_us": ("us", "lower"),
    "fingerprint.service_us": ("us", "lower"),
    "fingerprint.plan_key_us": ("us", "lower"),
    "fingerprint.canonical_json_kb": ("KiB", "lower"),
    # engine.cache and engine.plan
    "plan_cache.hit_ratio": ("ratio", "higher"),
    "plan_cache.lookup_us": ("us", "lower"),
    "plan.compile_ms": ("ms", "lower"),
    "plan.compilations_per_op": ("count", "lower"),
    "plan.pfail_us": ("us", "lower"),
    # core.symbolic_evaluator and symbolic.compiler
    "symbolic.derive_ms": ("ms", "lower"),
    "kernel.compile_us": ("us", "lower"),
    "kernel.ops": ("count", "lower"),
    "kernel.eval_us": ("us", "lower"),
    "kernel.stack_ns_per_point": ("ns", "lower"),
    "kernel_cache.hit_ratio": ("ratio", "higher"),
    # engine.batch and analysis.sweep
    "batch.fused_share": ("ratio", "higher"),
    "batch.overhead_share": ("ratio", "lower"),
    "sweep.overhead_share": ("ratio", "lower"),
    # runtime.robust, core.fixed_point, markov.solvers
    "robust.point_ms": ("ms", "lower"),
    "robust.refused_tier_ms": ("ms", "lower"),
    "robust.useful_share": ("ratio", "higher"),
    "fixed_point.point_ms": ("ms", "lower"),
    "fixed_point.iterations": ("count", "lower"),
    "solver.factorizations_per_point": ("count", "lower"),
    "solver.plans_per_op": ("count", "lower"),
    "solver_cache.hit_ratio": ("ratio", "higher"),
    "solver.backend.dense": ("count", "lower"),
    "solver.backend.sparse-tri": ("count", "lower"),
    "solver.backend.sparse-lu": ("count", "lower"),
    "solver.factorize_us": ("us", "lower"),
    "solver.condition_us": ("us", "lower"),
    "solver.solve_us": ("us", "lower"),
    # engine.parallel, engine.shm, workunits
    "pool.start_ms": ("ms", "lower"),
    "parallel.efficiency": ("ratio", "higher"),
    "parallel.jobs1_points_per_s": ("1/s", "higher"),
    "parallel.jobs2_points_per_s": ("1/s", "higher"),
    "shm.rows_share": ("ratio", "lower"),
    "transport.pickle_kb": ("KiB", "lower"),
    "campaign.unit_ms": ("ms", "lower"),
    "campaign.journal_kb": ("KiB", "lower"),
    "campaign.resume_s": ("s", "lower"),
    "workunits.retry": ("count", "lower"),
    "workunits.pool_restarts": ("count", "lower"),
    "blas.threads": ("count", "lower"),
    # import, every workload
    "import.repro_cli_ms": ("ms", "lower"),
    "import.scipy_ms": ("ms", "lower"),
    "import.numpy_ms": ("ms", "lower"),
    # the traced run against the untraced one
    "trace.overhead_share": ("ratio", "lower"),
}


def idle_metrics() -> dict[str, float]:
    """Every per-layer metric at 0: the reading of a layer not reached."""
    return {name: 0.0 for name in PER_LAYER}


def hit_ratio(before: dict, after: dict) -> float:
    """Hit share of the lookups between two ``CacheStats`` snapshots."""
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def counter_delta(before: dict, after: dict, name: str) -> float:
    return float(after.get(name, 0) - before.get(name, 0))


def _repeat(tracer: Tracer, name: str, reps: int, fn):
    result = None
    for _ in range(reps):
        with tracer.span(name):
            result = fn()
    return result


# -- dsl and fingerprint -----------------------------------------------------


def probe_documents(tracer: Tracer, models: list[Model], reps: int = 10) -> dict:
    """Model loading and fingerprinting on the workload's documents."""
    from repro.dsl import assembly_from_dict
    from repro.engine import canonical_json, plan_key, service_fingerprint

    sizes = []
    for model in models:
        assembly = _repeat(tracer, "dsl.load", reps,
                           lambda: assembly_from_dict(model.doc))
        text = _repeat(tracer, "fingerprint.canonical_json", reps,
                       lambda: canonical_json(assembly))
        _repeat(tracer, "fingerprint.service", reps,
                lambda: service_fingerprint(assembly, model.service))
        _repeat(tracer, "fingerprint.plan_key", reps,
                lambda: plan_key(assembly, model.service))
        sizes.append(len(text.encode("utf-8")) / 1024)
    return {
        "dsl.load_us": tracer.median_us("dsl.load"),
        "fingerprint.canonical_json_us": tracer.median_us("fingerprint.canonical_json"),
        "fingerprint.service_us": tracer.median_us("fingerprint.service"),
        "fingerprint.plan_key_us": tracer.median_us("fingerprint.plan_key"),
        "fingerprint.canonical_json_kb": float(np.mean(sizes)),
    }


# -- plans, derivation and kernels -------------------------------------------


def probe_plans(tracer: Tracer, models: list[Model], values: dict, reps: int = 20) -> dict:
    """Cold compile, warm cache lookup and warm ``pfail`` of each model's
    plan, plus derivation and kernel costs for closed-form models."""
    from repro.core.symbolic_evaluator import SymbolicEvaluator
    from repro.dsl import assembly_from_dict
    from repro.engine import PlanCache, compile_plan
    from repro.symbolic.compiler import KernelCache

    ops, stack_points = [], []
    for model in models:
        assembly = assembly_from_dict(model.doc)
        point = model.point(values[model.key][0])
        plan = _repeat(tracer, "plan.compile", 3,
                       lambda: compile_plan(assembly, model.service))
        cache = PlanCache()
        cache.get_or_compile(assembly, model.service)
        _repeat(tracer, "plan_cache.lookup", reps,
                lambda: cache.get_or_compile(assembly, model.service))
        plan.pfail(point)  # first call builds evaluators and kernel variants
        _repeat(tracer, "plan.pfail", reps if plan.backend == "symbolic" else 3,
                lambda: plan.pfail(point))
        if plan.backend != "symbolic":
            continue
        expression = _repeat(
            tracer, "symbolic.derive", 3,
            lambda: SymbolicEvaluator(assembly).pfail_expression(model.service),
        )
        kernel = _repeat(tracer, "kernel.compile", 3,
                         lambda: KernelCache().get_or_compile(expression))
        ops.append(kernel.op_count)
        env = {name: float(v) for name, v in point.items()}
        kernel.evaluate(env)
        _repeat(tracer, "kernel.eval", reps, lambda: kernel.evaluate(env))
        pool = [float(v) for v in values[model.key]]
        stack = (pool * (STACK_POINTS // len(pool) + 1))[:STACK_POINTS]
        columns = {
            name: np.full(len(stack), env[name]) for name in kernel.parameters
        }
        if model.parameter in columns:
            columns[model.parameter] = np.asarray(stack)
        kernel.evaluate_stack(columns, len(stack))
        with tracer.span("kernel.stack"):
            kernel.evaluate_stack(columns, len(stack))
        stack_points.append(len(stack))
    return {
        "plan.compile_ms": tracer.median_us("plan.compile") / 1e3,
        "plan_cache.lookup_us": tracer.median_us("plan_cache.lookup"),
        "plan.pfail_us": tracer.median_us("plan.pfail"),
        **_symbolic_metrics(tracer, ops, stack_points),
    }


def _symbolic_metrics(tracer: Tracer, ops: list, stack_points: list) -> dict:
    if not ops:
        return {}
    per_point = [
        d / n * 1e9 for d, n in zip(tracer.durations("kernel.stack"), stack_points)
    ]
    return {
        "symbolic.derive_ms": tracer.median_us("symbolic.derive") / 1e3,
        "kernel.compile_us": tracer.median_us("kernel.compile"),
        "kernel.ops": float(np.mean(ops)),
        "kernel.eval_us": tracer.median_us("kernel.eval"),
        "kernel.stack_ns_per_point": median(per_point),
    }


# -- batch and sweep overhead ------------------------------------------------


def probe_batch_overhead(tracer: Tracer, requests, reps: int = 5) -> dict:
    """``BatchEngine.run`` wall against the ``pfail_stack`` wall of the
    same groups, as a share of the former."""
    from repro.engine import BatchEngine

    engine = BatchEngine(jobs=1)
    engine.run(requests)
    groups: dict[int, tuple] = {}
    for request in requests:
        entry = groups.setdefault(
            id(request.assembly),
            (engine.cache.get_or_compile(request.assembly, request.service), []),
        )
        entry[1].append(request.actuals)
    for _ in range(reps):
        with tracer.span("batch.engine_run"):
            engine.run(requests)
        with tracer.span("batch.stack"):
            for plan, points in groups.values():
                plan.pfail_stack(points)
    run = median(tracer.durations("batch.engine_run"))
    stack = median(tracer.durations("batch.stack"))
    return {"batch.overhead_share": (run - stack) / run}


def probe_sweep_overhead(tracer: Tracer, model: Model, grid, reps: int = 5) -> dict:
    """``sweep_parameter`` wall against ``pfail_grid`` on the same plan."""
    from repro.analysis import sweep_parameter
    from repro.dsl import assembly_from_dict
    from repro.engine import PlanCache

    assembly = assembly_from_dict(model.doc)
    cache = PlanCache()
    sweep_parameter(assembly, model.service, model.parameter, grid,
                    model.fixed, cache=cache)
    plan = cache.get_or_compile(assembly, model.service, backend="symbolic")
    for _ in range(reps):
        with tracer.span("sweep.run"):
            sweep_parameter(assembly, model.service, model.parameter, grid,
                            model.fixed, cache=cache)
        with tracer.span("sweep.grid"):
            plan.pfail_grid(model.parameter, grid, model.fixed)
    run = median(tracer.durations("sweep.run"))
    grid_wall = median(tracer.durations("sweep.grid"))
    return {"sweep.overhead_share": (run - grid_wall) / run}


# -- robust chain, fixed point and solvers -----------------------------------


def _capturing(base):
    """A subclass of evaluator ``base`` that keeps every chain it solves."""

    class Capturing(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.chains = []

        def _solve_chain(self, service_name, chain):
            self.chains.append(chain)
            return super()._solve_chain(service_name, chain)

    return Capturing


def probe_chains(tracer: Tracer, models: list[Model], values: dict, reps: int = 5) -> dict:
    """Robust-chain and fixed-point points, and the factorize / condition
    estimate / solve calls on the chains those points build."""
    from repro.core.evaluator import ReliabilityEvaluator
    from repro.core.fixed_point import FixedPointEvaluator
    from repro.dsl import assembly_from_dict
    from repro.markov.solvers import factorize
    from repro.runtime.robust import RobustEvaluator

    refused, useful, iterations = [], [], []
    chains = {}
    for model in models:
        assembly = assembly_from_dict(model.doc)
        point = model.point(values[model.key][0])
        base = FixedPointEvaluator if model.kind == "recursive" else ReliabilityEvaluator
        capture = _capturing(base)(assembly)
        capture.pfail(model.service, **point)
        for chain in capture.chains:
            chains.setdefault(chain.matrix.shape, chain)
        if model.kind != "recursive":
            continue
        robust = RobustEvaluator(assembly)
        robust.evaluate(model.service, **point)
        for value in values[model.key][:reps]:
            with tracer.span("robust.point"):
                result = robust.evaluate(model.service, **model.point(value))
            lost = sum(d.elapsed for d in result.diagnostics)
            refused.append(lost)
            useful.append(1.0 - lost / result.elapsed if result.elapsed else 0.0)
            evaluator = FixedPointEvaluator(assembly)
            with tracer.span("fixed_point.point"):
                evaluator.pfail(model.service, **model.point(value))
            iterations.append(evaluator.iterations_used)
    for chain in chains.values():
        transient = [chain.index(s) for s in chain.transient_states()]
        system = np.eye(len(transient)) - chain.matrix[np.ix_(transient, transient)]
        rhs = np.ones(len(transient))
        for _ in range(reps * 4):
            with tracer.span("solver.factorize"):
                factorization = factorize(system)
            with tracer.span("solver.condition"):
                factorization.condition_estimate()
            with tracer.span("solver.solve"):
                factorization.solve(rhs)
    metrics = {
        "solver.factorize_us": tracer.median_us("solver.factorize"),
        "solver.condition_us": tracer.median_us("solver.condition"),
        "solver.solve_us": tracer.median_us("solver.solve"),
    }
    if refused:
        metrics.update({
            "robust.point_ms": tracer.median_us("robust.point") / 1e3,
            "robust.refused_tier_ms": median(refused) * 1e3,
            "robust.useful_share": median(useful),
            "fixed_point.point_ms": tracer.median_us("fixed_point.point") / 1e3,
            "fixed_point.iterations": median(iterations),
        })
    return metrics


# -- parallel pool, shared memory, campaigns ---------------------------------


def _noop() -> int:
    return 0


def blas_threads() -> int:
    """The largest thread count any loaded OpenBLAS reports, as found."""
    found = 0
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                found = max(found, int(function()))
                break
    return found


def probe_parallel(tracer: Tracer, requests, campaign_inputs, reps: int = 3) -> dict:
    """Pool start, jobs=2 against jobs=1 on one robust batch, transport
    sizes, and one journaled campaign with a resume pass.

    ``campaign_inputs`` is a list of ``(service, [(label, assembly)],
    points)`` batch campaigns.
    """
    from repro import observability as obs
    from repro.engine import BatchEngine, make_executor, shm_counts
    from repro.workunits import batch_campaign, run_campaign

    for _ in range(reps):
        executor = None
        try:
            with tracer.span("pool.start"):
                executor = make_executor(2)
                executor.submit(_noop).result()
        finally:
            if executor is not None:
                executor.shutdown(wait=True)

    serial = BatchEngine(jobs=1)
    parallel = BatchEngine(jobs=2)
    serial.run(requests)
    rows_before = shm_counts()["rows"]
    for _ in range(reps):
        with tracer.span("parallel.jobs1"):
            serial.run(requests)
        with tracer.span("parallel.jobs2"):
            parallel.run(requests)
    rows = shm_counts()["rows"] - rows_before
    rate1 = len(requests) / median(tracer.durations("parallel.jobs1"))
    rate2 = len(requests) / median(tracer.durations("parallel.jobs2"))
    plan = serial.cache.get_or_compile(requests[0].assembly, requests[0].service)
    payload = {"plan": plan, "points": [r.actuals for r in requests]}

    collecting = obs.enabled()
    obs.enable()  # the supervisor's attempt histogram and retry counters
    before = obs.registry().snapshot()
    journal_bytes = 0
    WORK.mkdir(exist_ok=True)
    try:
        for index, (service, models, points) in enumerate(campaign_inputs):
            campaign = batch_campaign(models, service, points)
            store = WORK / f"probe-journal-{index}.jsonl"
            store.unlink(missing_ok=True)
            try:
                run_campaign(campaign, store, jobs=2)
                journal_bytes += store.stat().st_size
                with tracer.span("campaign.resume"):
                    run_campaign(campaign, store, jobs=2)
            finally:
                store.unlink(missing_ok=True)
    finally:
        if not collecting:
            obs.disable()
    after = obs.registry().snapshot()
    attempts = [
        snapshot["histograms"].get("workunits.attempt.seconds", {})
        for snapshot in (before, after)
    ]
    attempt_count = attempts[1].get("count", 0) - attempts[0].get("count", 0)
    attempt_sum = attempts[1].get("sum", 0.0) - attempts[0].get("sum", 0.0)
    counters_before, counters = before["counters"], after["counters"]
    return {
        "pool.start_ms": tracer.median_us("pool.start") / 1e3,
        "parallel.efficiency": rate2 / (2 * rate1),
        "parallel.jobs1_points_per_s": rate1,
        "parallel.jobs2_points_per_s": rate2,
        "shm.rows_share": rows / (reps * len(requests)),
        "transport.pickle_kb": len(pickle.dumps(payload)) / 1024,
        "campaign.unit_ms": attempt_sum / attempt_count * 1e3 if attempt_count else 0.0,
        "campaign.journal_kb": journal_bytes / 1024,
        "campaign.resume_s": median(tracer.durations("campaign.resume")),
        "workunits.retry": counter_delta(counters_before, counters, "workunits.retry"),
        "workunits.pool_restarts": counter_delta(
            counters_before, counters, "workunits.pool_restarts"
        ),
        "blas.threads": float(blas_threads()),
    }


# -- server layer, in process -------------------------------------------------


def probe_server(tracer: Tracer, bodies: list[tuple[str, bytes]], reps: int = 3) -> dict:
    """Decode, validate, evaluate and encode of the workload's request
    bodies through an in-process ``EvaluationService``."""
    from repro.server import (
        BATCH_REQUEST,
        EVALUATE_REQUEST,
        SWEEP_REQUEST,
        EvaluationService,
        validate_request,
    )

    service = EvaluationService()
    routes = {
        "/v1/evaluate": ("server.evaluate", EVALUATE_REQUEST, service.evaluate),
        "/v1/sweep": ("server.sweep", SWEEP_REQUEST, service.sweep),
        "/v1/batch": ("server.batch", BATCH_REQUEST, service.batch),
    }
    for path, body in bodies:
        name, schema, handler = routes[path]
        handler(json.loads(body))  # warm the service caches for this body
        for _ in range(reps):
            with tracer.span("server.decode"):
                payload = json.loads(body)
            with tracer.span("server.validate"):
                validate_request(path, payload, schema)
            with tracer.span(name):
                response = handler(payload)
            with tracer.span("server.encode"):
                json.dumps(response, sort_keys=True)
    return {
        "server.decode_us": tracer.median_us("server.decode"),
        "server.validate_us": tracer.median_us("server.validate"),
        "server.encode_us": tracer.median_us("server.encode"),
        "server.evaluate_us": tracer.median_us("server.evaluate"),
        "server.sweep_us": tracer.median_us("server.sweep"),
        "server.batch_us": tracer.median_us("server.batch"),
    }
