"""Worker-pool plumbing: the one fan-out loop, picklable workers, budgets.

The batch engine fans independent work units — plan evaluations, sweep
chunks, Monte-Carlo trial blocks, fuzz cases — across a
:mod:`concurrent.futures` process pool.  This module holds all of it:

- **pool construction** (:func:`resolve_jobs`, :func:`process_pool`,
  :func:`make_executor`): ``jobs <= 1`` short-circuits to the serial path
  (no pool, no pickling); anything else is a
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers are pinned
  to one BLAS thread (:func:`pin_blas_threads`), the one transport every
  fan-out uses (payloads travel by pickle);
- **the fan-out loop** (:func:`fan_out`): submit, collect in completion
  order, enforce the parent deadline, rebuild worker failures and map a
  dead pool to :class:`~repro.errors.WorkerCrashedError` — the only code
  outside the work-unit supervisor that drives a pool;
- **module-level worker functions** (process pools can only call picklable
  top-level callables) that receive plain-data payloads: compiled
  :class:`~repro.engine.plan.EvaluationPlan` objects, canonical assembly
  JSON, mutation documents — never live model objects, which do not pickle;
- **cooperative budget semantics**: the parent computes the *remaining*
  deadline at dispatch (:func:`remaining_deadline`) and each worker
  enforces it locally through its own :class:`~repro.runtime.EvaluationBudget`;
  consumption caps (Monte-Carlo trials) are charged once, in the parent,
  before dispatch.  A worker that trips its local budget reports a typed
  :class:`WorkerFailure` which the parent rehydrates into the original
  error class (:func:`rebuild_error`), so ``--jobs 8`` surfaces the same
  exit codes as ``--jobs 1``.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import repro.errors as _errors
from repro import observability as obs
from repro.errors import (
    BudgetExceededError,
    EvaluationError,
    ReproError,
    WorkerCrashedError,
    error_chain,
)
from repro.runtime.budget import EvaluationBudget

__all__ = [
    "WorkerFailure",
    "evaluate_plan_points",
    "fan_out",
    "fused_counts",
    "fuzz_block",
    "make_executor",
    "numeric_sweep_chunk",
    "pin_blas_threads",
    "process_pool",
    "rebuild_error",
    "remaining_deadline",
    "reset_clamp_warning",
    "reset_fused_counts",
    "resolve_jobs",
    "shm_counts",
    "simulate_block",
    "split_evenly",
    "unpack_worker_payload",
]


# ---------------------------------------------------------------------------
# fused-execution counters (shared by the batch engine and the sweep layer)
# ---------------------------------------------------------------------------

_fused_lock = threading.Lock()
_fused = {"groups": 0, "entries": 0, "fallbacks": 0}


def fused_counts() -> dict:
    """Process-wide fused-execution counters.

    ``groups``: same-fingerprint groups served by one stacked kernel call;
    ``entries``: individual (model, point) evaluations those calls fused;
    ``fallbacks``: groups the fused path handed back to the per-point path
    (a poisoned point, so errors stay per-entry).
    """
    with _fused_lock:
        return dict(_fused)


def reset_fused_counts() -> None:
    """Zero the fused counters (test isolation helper)."""
    with _fused_lock:
        for key in _fused:
            _fused[key] = 0


def shm_counts() -> dict:
    """Always ``{"segments": 0, "rows": 0}``: no work travels through
    shared memory.  Kept only because the repository benchmark's parallel
    probe still reads it; it goes when the benchmark drops that probe."""
    return {"segments": 0, "rows": 0}


def charge_fused(groups: int = 0, entries: int = 0, fallbacks: int = 0) -> None:
    """Charge fused-execution work to the module counters and metrics."""
    with _fused_lock:
        _fused["groups"] += groups
        _fused["entries"] += entries
        _fused["fallbacks"] += fallbacks
    if groups:
        obs.count("engine.fused.groups", groups)
    if entries:
        obs.count("engine.fused.entries", entries)
    if fallbacks:
        obs.count("engine.fused.fallbacks", fallbacks)


def split_evenly(items: list, parts: int) -> list[list]:
    """Split ``items`` into at most ``parts`` contiguous, near-equal chunks.

    Contiguity preserves result ordering under simple concatenation; the
    first ``len(items) % parts`` chunks carry one extra element.  Empty
    chunks are never produced.
    """
    parts = max(1, min(int(parts), len(items)))
    base, extra = divmod(len(items), parts)
    chunks: list[list] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


#: Environment marker that makes the clamp-warning once-flag survive
#: process boundaries: child processes (including the fresh workers a
#: :class:`~repro.workunits.Supervisor` spawns after a
#: ``BrokenProcessPool`` pool restart) inherit the parent's environment,
#: import this module with the marker set, and stay silent instead of
#: re-emitting a warning the user already saw.
_CLAMP_WARNED_ENV = "REPRO_JOBS_CLAMP_WARNED"

#: Process-wide once-flag for the jobs-clamp warning.  Campaign layers call
#: :func:`resolve_jobs` once per dispatch round; repeating the same warning
#: every round is noise, so it fires once per process *tree* — the flag is
#: seeded from :data:`_CLAMP_WARNED_ENV` so restarted/spawned pools do not
#: re-warn (tests reset it via :func:`reset_clamp_warning`).
_clamp_warning_emitted = os.environ.get(_CLAMP_WARNED_ENV) == "1"


def reset_clamp_warning() -> None:
    """Re-arm the once-per-process-tree jobs-clamp warning (test helper)."""
    global _clamp_warning_emitted
    _clamp_warning_emitted = False
    os.environ.pop(_CLAMP_WARNED_ENV, None)


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` request: ``None``/1 → serial, 0 → all cores.

    Explicit requests are clamped to ``os.cpu_count()`` with a
    :class:`RuntimeWarning` — benchmarking showed an oversubscribed pool
    is strictly *slower* than a right-sized one on this workload (workers
    are CPU-bound; extra processes only add spawn and pickling overhead).
    The warning is emitted once per process tree — the once-flag is
    mirrored into the environment (:data:`_CLAMP_WARNED_ENV`) so worker
    processes, including pools the work-unit supervisor restarts after a
    ``BrokenProcessPool``, never repeat it; every call still records the
    resolved count on the ``engine.jobs.resolved`` gauge.
    """
    global _clamp_warning_emitted
    if jobs is None:
        obs.gauge("engine.jobs.resolved", 1)
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise EvaluationError(f"jobs must be >= 0, got {jobs}")
    cores = os.cpu_count() or 1
    if jobs == 0:
        resolved = cores
    elif jobs > cores:
        if not _clamp_warning_emitted:
            _clamp_warning_emitted = True
            os.environ[_CLAMP_WARNED_ENV] = "1"
            warnings.warn(
                f"requested jobs={jobs} exceeds the {cores} available "
                f"core(s); clamping to {cores} (oversubscribed pools are "
                f"slower, not faster, on CPU-bound evaluation)",
                RuntimeWarning,
                stacklevel=2,
            )
        resolved = cores
    else:
        resolved = jobs
    obs.gauge("engine.jobs.resolved", resolved)
    return resolved


#: Thread setters an OpenBLAS build may export, tried in order on each
#: loaded library: numpy's wheel ships ``scipy_openblas64_``, scipy's
#: ``scipy_openblas``, a system build plain ``openblas``.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def pin_blas_threads() -> None:
    """Pool initializer: one BLAS thread per worker process.

    ``jobs`` CPU-bound workers each running a core-sized OpenBLAS thread
    pool oversubscribe the machine (the default solver's robust batch ran
    at half its serial speed at ``jobs=2``).  A library the worker loads
    later reads the environment variables; one already mapped into the
    process (inherited through ``fork``, or imported while unpickling this
    initializer) is set through its exported setter.  Without OpenBLAS
    this does nothing.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1] for line in maps
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_SETTERS:
            setter = getattr(library, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def process_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool of ``workers`` BLAS-pinned workers — the one pool
    constructor (the work-unit supervisor builds even ``workers=1`` pools
    through it, for isolation)."""
    return ProcessPoolExecutor(max_workers=workers, initializer=pin_blas_threads)


def make_executor(jobs: int) -> ProcessPoolExecutor | None:
    """A process pool of ``jobs`` workers, or ``None`` for the serial path
    (``jobs <= 1``; ``jobs`` is a count resolved by :func:`resolve_jobs`)."""
    if jobs <= 1:
        return None
    return process_pool(jobs)


def remaining_deadline(budget: EvaluationBudget | None) -> float | None:
    """Seconds of deadline left to hand a worker, or ``None`` if unlimited.

    Checks the parent's budget first, so dispatching past the deadline
    raises in the parent rather than fanning out doomed work.
    """
    if budget is None or budget.deadline is None:
        return None
    budget.check_deadline("parallel dispatch")
    return budget.remaining_time()


def worker_budget(deadline: float | None, **limits) -> EvaluationBudget | None:
    """A worker-local budget enforcing the parent's remaining envelope."""
    if deadline is None and not any(v is not None for v in limits.values()):
        return None
    return EvaluationBudget(deadline=deadline, **limits)


# ---------------------------------------------------------------------------
# typed-error transport
# ---------------------------------------------------------------------------


@dataclass
class WorkerFailure:
    """A typed error captured in a worker, in picklable form.

    Custom :class:`~repro.errors.ReproError` subclasses take structured
    ``__init__`` arguments, so the live exceptions do not survive pickling
    across a process boundary; workers ship this transport record and the
    parent rebuilds an equivalent error with :func:`rebuild_error`.

    ``cause_chain`` carries the stringified ``__cause__``/``__context__``
    chain of the original error (outermost first), so nested failures keep
    their root cause across the process boundary instead of flattening to
    the outer message alone.
    """

    kind: str
    message: str
    resource: str | None = None  # BudgetExceededError fields, when present
    limit: float | None = None
    used: float | None = None
    cause_chain: tuple[str, ...] = field(default_factory=tuple)

    @classmethod
    def from_error(cls, error: ReproError) -> "WorkerFailure":
        chain = error_chain(error)[1:]  # [0] repeats kind/message
        if isinstance(error, BudgetExceededError):
            return cls(
                type(error).__name__, str(error),
                resource=error.resource, limit=error.limit, used=error.used,
                cause_chain=chain,
            )
        return cls(type(error).__name__, str(error), cause_chain=chain)


def rebuild_error(failure: WorkerFailure) -> ReproError:
    """Rehydrate a :class:`WorkerFailure` into a raisable typed error.

    Budget trips reconstruct exactly (resource/limit/used survive the
    transport); other classes are rebuilt by name when their constructor
    takes a bare message, and fall back to the nearest base class
    otherwise — the CLI exit-code taxonomy keys on ``isinstance``, so a
    base-class fallback still maps to the right exit code family.

    A transported ``cause_chain`` is re-attached as exception notes
    (``add_note``), so ``--jobs 8`` tracebacks show the same root causes
    as ``--jobs 1``.
    """
    if failure.resource is not None:
        error: ReproError | None = BudgetExceededError(
            failure.resource, failure.limit, failure.used, failure.message
        )
    else:
        error = None
        cls = getattr(_errors, failure.kind, None)
        if isinstance(cls, type) and issubclass(cls, ReproError):
            try:
                error = cls(failure.message)
            except TypeError:
                for base in cls.__mro__[1:]:
                    if issubclass(base, ReproError):
                        try:
                            error = base(f"[{failure.kind}] {failure.message}")
                            break
                        except TypeError:
                            continue
        if error is None:
            error = EvaluationError(f"[{failure.kind}] {failure.message}")
    for link in getattr(failure, "cause_chain", ()):
        error.add_note(f"caused by {link}")
    return error


# ---------------------------------------------------------------------------
# worker-side observability (metrics/span shipping across the pool)
# ---------------------------------------------------------------------------


def _begin_worker_observation(payload: dict) -> bool:
    """Start a private collection scope in this worker, if asked to.

    Returns True when this call owns a scope whose data must be shipped
    back.  A call made in the process whose collection is live (the
    work-unit supervisor's ``mode="inline"`` path) records into that
    scope directly and ships nothing (returns False).  A forked worker
    inherits the parent's enabled flag along with a private copy of its
    registry, so the flag alone does not tell the two apart: the pid that
    enabled collection does.
    """
    if not payload.get("observe"):
        return False
    if obs.enabled_pid() == os.getpid():
        return False  # in-process call: the live scope collects directly
    obs.reset()
    obs.enable()
    dispatched = payload.get("dispatched_at")
    if dispatched is not None:
        obs.observe("batch.queue.seconds", max(0.0, time.time() - dispatched))
    return True


def _ship_worker_observation(results, owned: bool):
    """Wrap worker results with this scope's metrics/span deltas."""
    if not owned:
        return results
    snapshot = obs.registry().snapshot()
    spans = obs.tracer().export()
    obs.reset()  # pooled workers are reused: next payload gets a clean delta
    return {"results": results, "metrics": snapshot, "spans": spans}


def unpack_worker_payload(outcome):
    """Parent-side inverse of :func:`_ship_worker_observation`.

    Merges any shipped metrics into the parent registry and adopts shipped
    spans under the parent's current span, then returns the bare results.
    Plain (unwrapped) outcomes pass through untouched, so callers can
    unpack unconditionally.
    """
    if isinstance(outcome, dict) and "results" in outcome:
        metrics = outcome.get("metrics")
        if metrics:
            obs.registry().merge(metrics)
        spans = outcome.get("spans")
        if spans:
            obs.tracer().merge(spans)
        return outcome["results"]
    return outcome


def observed_worker(worker):
    """Open the worker-side observation scope a payload asks for around
    ``worker`` and ship its metrics/spans back with the results.

    The wrapper keeps the worker's module and name, so the decorated
    function still pickles by name.
    """

    @functools.wraps(worker)
    def run(payload: dict):
        owned = _begin_worker_observation(payload)
        return _ship_worker_observation(worker(payload), owned)

    return run


# ---------------------------------------------------------------------------
# the fan-out loop
# ---------------------------------------------------------------------------


def fan_out(
    worker,
    tasks: list,
    *,
    jobs: int,
    what: str,
    budget: EvaluationBudget | None = None,
) -> list:
    """Run ``worker`` over ``tasks`` on a fresh pool; outcomes in task order.

    Each task is ``(indices, payload)``: ``payload`` is the worker's plain
    dict argument, ``indices`` the caller's item indices it covers (batch
    entries, grid points, trial blocks, fuzz cases).  Every payload is
    stamped with ``observe``/``dispatched_at``, and with the ``deadline``
    left on ``budget`` when one is given (without a budget a payload keeps
    its own ``deadline``).  Results are collected as they complete, and
    the parent's deadline is checked between completions.

    Failures, whatever ``jobs`` is:

    - an outcome that is a :class:`WorkerFailure` is rebuilt and raised
      for the earliest such task, once every task before it is in;
    - a dead pool raises :class:`~repro.errors.WorkerCrashedError` naming
      the indices of every task not collected yet;
    - any raise cancels the tasks not started yet.
    """
    if not tasks:
        return []
    outcomes: dict[int, object] = {}
    first_failure = len(tasks)
    executor = process_pool(min(jobs, len(tasks)))
    try:
        futures = {}
        for position, (_, payload) in enumerate(tasks):
            payload = {
                **payload, "observe": obs.enabled(), "dispatched_at": time.time(),
            }
            if budget is not None:
                payload["deadline"] = remaining_deadline(budget)
            futures[executor.submit(worker, payload)] = position
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            if budget is not None:
                budget.check_deadline(what)
            crash = None
            for future in done:
                try:
                    outcome = unpack_worker_payload(future.result())
                except BrokenProcessPool as exc:
                    crash = exc
                    continue
                position = futures[future]
                outcomes[position] = outcome
                if isinstance(outcome, WorkerFailure):
                    first_failure = min(first_failure, position)
            if crash is not None:
                # a worker killed hard (SIGKILL, OOM, native crash) breaks
                # the whole pool; name what was lost in the typed taxonomy
                obs.count("engine.worker_crashes")
                lost = [
                    index
                    for position, (indices, _) in enumerate(tasks)
                    if position not in outcomes
                    for index in indices
                ]
                raise WorkerCrashedError(what, lost) from crash
            if first_failure < len(tasks) and all(
                position in outcomes for position in range(first_failure)
            ):
                raise rebuild_error(outcomes[first_failure])
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
    return [outcomes[position] for position in range(len(tasks))]


# ---------------------------------------------------------------------------
# worker functions (must stay module-level: process pools pickle by name)
# ---------------------------------------------------------------------------


@observed_worker
def evaluate_plan_points(payload: dict) -> list:
    """Evaluate one compiled plan at many actual-parameter points.

    Payload: ``plan`` (:class:`EvaluationPlan`), ``points`` (list of
    name→value dicts), ``deadline`` (remaining seconds or ``None``).
    Returns one entry per point: a float ``Pfail`` or a
    :class:`WorkerFailure` (per-point isolation: one bad point does not
    poison the block).
    """
    plan = payload["plan"]
    budget = worker_budget(payload.get("deadline"))
    results: list = []
    for point in payload["points"]:
        t0 = time.perf_counter()
        try:
            results.append(plan.pfail(point, budget=budget))
        except ReproError as exc:
            results.append(WorkerFailure.from_error(exc))
        obs.observe("batch.entry.seconds", time.perf_counter() - t0)
    return results


@observed_worker
def numeric_sweep_chunk(payload: dict) -> list[float] | WorkerFailure:
    """Evaluate one grid chunk through the recursive numeric evaluator.

    Payload: ``assembly_json`` (canonical ``repro/1`` text), ``service``,
    ``parameter``, ``values``, ``fixed``, ``deadline``, optional
    ``solver`` and ``incremental``.  The assembly is rebuilt from JSON
    because live assemblies do not pickle.
    """
    from repro.core.evaluator import ReliabilityEvaluator
    from repro.dsl import load_assembly

    budget = worker_budget(payload.get("deadline"))
    t0 = time.perf_counter()
    try:
        assembly = load_assembly(payload["assembly_json"])
        evaluator = ReliabilityEvaluator(
            assembly, validate=False, check_domains=False, budget=budget,
            solver=payload.get("solver", "auto"),
            incremental=payload.get("incremental", False),
        )
        fixed = payload["fixed"]
        parameter = payload["parameter"]
        result: list[float] | WorkerFailure = [
            evaluator.pfail(
                payload["service"], **{**fixed, parameter: float(v)}
            )
            for v in payload["values"]
        ]
    except ReproError as exc:
        result = WorkerFailure.from_error(exc)
    obs.observe("batch.entry.seconds", time.perf_counter() - t0)
    return result


@observed_worker
def simulate_block(payload: dict) -> tuple[int, int] | WorkerFailure:
    """Run one Monte-Carlo trial block; returns ``(trials, failures)``.

    Payload: ``assembly_json``, ``service``, ``actuals``, ``trials``,
    ``seed``, ``deadline``.  Trials were already charged against the
    parent's budget; the worker enforces only the remaining deadline.
    """
    from repro.dsl import load_assembly
    from repro.simulation.engine import MonteCarloSimulator

    budget = worker_budget(payload.get("deadline"))
    t0 = time.perf_counter()
    try:
        assembly = load_assembly(payload["assembly_json"])
        simulator = MonteCarloSimulator(
            assembly, seed=payload["seed"], validate=False, budget=budget
        )
        estimate = simulator.estimate_pfail(
            payload["service"], payload["trials"], **payload["actuals"]
        )
        result: tuple[int, int] | WorkerFailure = (
            estimate.trials, estimate.failures
        )
    except ReproError as exc:
        result = WorkerFailure.from_error(exc)
    obs.observe("batch.entry.seconds", time.perf_counter() - t0)
    return result


@observed_worker
def fuzz_block(payload: dict) -> list:
    """Run a block of fuzz cases; returns the list of ``FuzzCase`` records.

    Payload: ``cases`` (list of ``(index, mutation)`` pairs — mutations
    are picklable documents), ``service``, ``actuals``, ``seed``,
    ``trials``, ``deadline``.  Case classification already treats every
    outcome as data (ok / typed-error / violation), so no failure
    transport is needed here.
    """
    from repro.robustness.harness import run_fuzz_case

    results = []
    for index, mutation in payload["cases"]:
        t0 = time.perf_counter()
        results.append(
            run_fuzz_case(
                index,
                mutation,
                service=payload["service"],
                actuals=payload["actuals"],
                seed=payload["seed"],
                trials=payload["trials"],
                deadline=payload["deadline"],
            )
        )
        obs.observe("batch.entry.seconds", time.perf_counter() - t0)
    return results
