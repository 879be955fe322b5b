"""Zero-pickle shared-memory transport for heavy parallel workloads.

The process-pool path ships every payload — model JSON, point dicts,
result floats — through pickle.  For microsecond-scale compiled kernels
that overhead inverts the speedup entirely (the fused in-parent path is
the answer there), but even for the genuinely heavy workloads — sparse
Markov solves, Monte-Carlo — pickling the model document once per chunk
and one result object per entry is pure tax.  This module moves those
workloads onto :mod:`multiprocessing.shared_memory`:

- the parent lays out one **workspace** per fan-out: the canonical model
  document as a byte segment, the stacked actual-parameter matrix (rows =
  entries, columns = the plan's formal parameters) with a presence mask
  (absent actuals must stay absent — ``NaN`` is a legal user value), and
  result/status rows the workers fill in place;
- workers attach by segment *name* (the only thing pickled is a small
  spec dict), rebuild the evaluator from the shared document — cached per
  worker process by content digest, so pool reuse skips the JSON parse
  and skeleton build — and write result rows directly into the shared
  arrays.  Only typed :class:`~repro.engine.parallel.WorkerFailure`
  records travel back through the future;
- **lifecycle survives worker SIGKILL**: the parent owns every segment
  and closes + unlinks them in its ``finally`` (same discipline as the
  workunits supervisor's pool teardown), a module-level registry backed
  by a single ``atexit`` hook drains anything a crashed caller leaked,
  and workers suppress the duplicate resource-tracker registration an
  attach would otherwise create — without that, trackers both warn about
  and double-unlink segments the parent already released at interpreter
  shutdown (the duplicate-teardown warnings seen under ``--chaos`` runs).

Status rows double as crash forensics: a row still ``0`` (unset) after a
``BrokenProcessPool`` identifies exactly which entries the dead worker
never served.
"""

from __future__ import annotations

import atexit
import hashlib
import threading
import time
import warnings

import numpy as np

from repro import observability as obs
from repro.engine.parallel import (
    WorkerFailure,
    _begin_worker_observation,
    _ship_worker_observation,
    worker_budget,
)
from repro.errors import ReproError

try:  # pragma: no cover - present on every supported CPython
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None
    resource_tracker = None

__all__ = [
    "ShmWorkspace",
    "available",
    "reset_shm_counts",
    "shm_counts",
    "shm_numeric_sweep_rows",
    "shm_plan_rows",
]

#: Row status codes written by workers.
ROW_UNSET, ROW_OK, ROW_FAILED = 0, 1, 2


# ---------------------------------------------------------------------------
# availability + counters
# ---------------------------------------------------------------------------

_probe_lock = threading.Lock()
_probe_result: bool | None = None


def available() -> bool:
    """Whether shared-memory segments actually work on this platform.

    Probed once per process: some sandboxes import
    :mod:`multiprocessing.shared_memory` fine but refuse the underlying
    ``shm_open``.
    """
    global _probe_result
    if _probe_result is None:
        with _probe_lock:
            if _probe_result is None:
                if shared_memory is None:
                    _probe_result = False
                else:
                    try:
                        probe = shared_memory.SharedMemory(create=True, size=16)
                        probe.close()
                        probe.unlink()
                        _probe_result = True
                    except OSError:
                        _probe_result = False
    return _probe_result


_counts_lock = threading.Lock()
_counts = {"segments": 0, "rows": 0}


def shm_counts() -> dict:
    """Process-wide shared-memory transport counters (``segments`` created
    by this process, result ``rows`` served through them)."""
    with _counts_lock:
        return dict(_counts)


def reset_shm_counts() -> None:
    """Zero the transport counters (test isolation helper)."""
    with _counts_lock:
        for key in _counts:
            _counts[key] = 0


def _charge(segments: int = 0, rows: int = 0) -> None:
    with _counts_lock:
        _counts["segments"] += segments
        _counts["rows"] += rows
    if segments:
        obs.count("engine.fused.shm.segments", segments)
    if rows:
        obs.count("engine.fused.shm.rows", rows)


# ---------------------------------------------------------------------------
# leak backstop: one atexit hook drains workspaces a caller never closed
# ---------------------------------------------------------------------------

_live_lock = threading.Lock()
_live: set = set()
_atexit_registered = False


def _track(workspace: "ShmWorkspace") -> None:
    global _atexit_registered
    with _live_lock:
        _live.add(workspace)
        if not _atexit_registered:
            # registered lazily (and exactly once) so it runs *before*
            # multiprocessing's own atexit machinery — atexit is LIFO and
            # multiprocessing registers at import, long before the first
            # workspace exists
            atexit.register(_drain_at_exit)
            _atexit_registered = True


def _untrack(workspace: "ShmWorkspace") -> None:
    with _live_lock:
        _live.discard(workspace)


def _drain_at_exit() -> None:  # pragma: no cover - interpreter shutdown
    """Release workspaces leaked by callers that died mid-flight.

    Runs once, silently: every close here is a *backstop* for a teardown
    that already failed loudly elsewhere, and duplicate resource-tracker
    chatter at shutdown is exactly the noise this hook exists to remove.
    """
    with _live_lock:
        leftover = list(_live)
        _live.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for workspace in leftover:
            workspace.close()


_attach_lock = threading.Lock()


def _attach(name: str):
    """Worker-side attach that leaves lifecycle ownership with the parent.

    Attaching by name registers the segment with a resource tracker a
    *second* time, and ``close()`` never unregisters.  In a forked worker
    the tracker is the parent's (so the parent's later unlink-time
    unregister would miss and the tracker complains); in a spawned worker
    it is a private tracker that double-unlinks and warns about leaked
    segments at worker exit.  Either way the fix is the same — the parent
    owns create *and* unlink, so an attach must not register at all
    (CPython grows a ``track=False`` kwarg for exactly this in 3.13; this
    is the standard back-port).
    """
    with _attach_lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


# ---------------------------------------------------------------------------
# parent-side workspace
# ---------------------------------------------------------------------------


class ShmWorkspace:
    """Parent-owned shared segments for one fan-out.

    Holds one byte segment for the model document plus named float/uint8
    arrays (points, mask, results, status).  ``close()`` is idempotent and
    both closes and unlinks every segment; it runs from the caller's
    ``finally`` even when the pool broke, and the module ``atexit`` hook
    drains anything that still slipped through.
    """

    def __init__(self) -> None:
        self._segments: dict[str, "shared_memory.SharedMemory"] = {}
        self._arrays: dict[str, tuple[str, tuple, str]] = {}
        self._views: dict[str, np.ndarray] = {}
        self._doc_size = 0
        self._closed = False

    @classmethod
    def create(cls, doc: bytes, arrays: dict) -> "ShmWorkspace":
        """Lay out a workspace: ``doc`` bytes plus ``{key: (shape, dtype)}``
        arrays, all zero-initialized."""
        if not available():
            raise ReproError("shared-memory transport is unavailable")
        workspace = cls()
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, len(doc))
            )
            segment.buf[: len(doc)] = doc
            workspace._segments["doc"] = segment
            workspace._doc_size = len(doc)
            for key, (shape, dtype) in arrays.items():
                nbytes = int(np.dtype(dtype).itemsize * int(np.prod(shape)))
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, nbytes)
                )
                view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
                view[...] = 0
                workspace._segments[key] = segment
                workspace._arrays[key] = (segment.name, tuple(shape), str(dtype))
                workspace._views[key] = view
        except BaseException:
            workspace.close()
            raise
        _track(workspace)
        _charge(segments=len(workspace._segments))
        return workspace

    def array(self, key: str) -> np.ndarray:
        """The live parent-side view of a named array."""
        return self._views[key]

    def spec(self) -> dict:
        """The small picklable payload a worker needs to attach."""
        return {
            "doc": {
                "name": self._segments["doc"].name,
                "size": self._doc_size,
            },
            "arrays": dict(self._arrays),
        }

    def close(self) -> None:
        """Close and unlink every segment (idempotent, crash-tolerant)."""
        if self._closed:
            return
        self._closed = True
        _untrack(self)
        # numpy views pin the exported buffers; drop them before close()
        self._views.clear()
        for segment in self._segments.values():
            try:
                segment.close()
            except OSError:  # pragma: no cover - already gone
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments.clear()

    def __enter__(self) -> "ShmWorkspace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# worker-side attachment + evaluator caches
# ---------------------------------------------------------------------------


class _Attached:
    """Worker-side mirror of a :class:`ShmWorkspace` spec."""

    def __init__(self, spec: dict) -> None:
        self._segments = []
        doc_segment = _attach(spec["doc"]["name"])
        self._segments.append(doc_segment)
        self.doc = bytes(doc_segment.buf[: spec["doc"]["size"]])
        self.arrays: dict[str, np.ndarray] = {}
        for key, (name, shape, dtype) in spec["arrays"].items():
            segment = _attach(name)
            self._segments.append(segment)
            self.arrays[key] = np.ndarray(shape, dtype=dtype, buffer=segment.buf)

    def close(self) -> None:
        self.arrays.clear()
        for segment in self._segments:
            try:
                segment.close()  # close only — the parent owns unlink
            except OSError:  # pragma: no cover
                pass
        self._segments.clear()


#: Per-worker-process caches keyed by document digest (+ solver config):
#: pool-reused workers skip the JSON parse and evaluator rebuild on every
#: chunk after their first.  Bounded FIFO — workers see a handful of
#: distinct models per campaign, not an unbounded stream.
_CACHE_CAP = 8
_plan_cache: dict = {}
_assembly_cache: dict = {}


def _cache_put(cache: dict, key, value) -> None:
    if len(cache) >= _CACHE_CAP:
        cache.pop(next(iter(cache)))
    cache[key] = value


def _plan_for(doc: bytes, config: dict):
    from repro.engine.plan import EvaluationPlan

    digest = hashlib.sha256(doc).hexdigest()
    key = (
        digest,
        config["service"],
        config.get("solver", "auto"),
        bool(config.get("incremental", False)),
    )
    plan = _plan_cache.get(key)
    if plan is None:
        plan = EvaluationPlan(
            config["service"],
            config["fingerprint"],
            "robust",
            tuple(config["formals"]),
            assembly_json=doc.decode("utf-8"),
            solver=config.get("solver", "auto"),
            incremental=bool(config.get("incremental", False)),
        )
        _cache_put(_plan_cache, key, plan)
    return plan


def _assembly_for(doc: bytes):
    from repro.dsl import load_assembly

    digest = hashlib.sha256(doc).hexdigest()
    assembly = _assembly_cache.get(digest)
    if assembly is None:
        assembly = load_assembly(doc.decode("utf-8"))
        _cache_put(_assembly_cache, digest, assembly)
    return assembly


# ---------------------------------------------------------------------------
# worker functions (module-level: process pools pickle by name)
# ---------------------------------------------------------------------------


def shm_plan_rows(payload: dict) -> dict:
    """Evaluate robust-plan rows ``[start, stop)`` against shared arrays.

    Payload: ``spec`` (workspace layout), ``config`` (service,
    fingerprint, formals, solver, incremental), ``start``/``stop`` row
    range, ``deadline``, ``observe``/``dispatched_at``.  Results land in
    the shared ``results``/``status`` rows; only per-row
    :class:`WorkerFailure` records (keyed by row index) come back through
    the future.
    """
    owned = _begin_worker_observation(payload)
    attached = _Attached(payload["spec"])
    try:
        config = payload["config"]
        plan = _plan_for(attached.doc, config)
        budget = worker_budget(payload.get("deadline"))
        formals = tuple(config["formals"])
        points = attached.arrays["points"]
        mask = attached.arrays["mask"]
        results = attached.arrays["results"]
        status = attached.arrays["status"]
        failures: dict[int, WorkerFailure] = {}
        for row in range(payload["start"], payload["stop"]):
            point = {
                name: float(points[row, column])
                for column, name in enumerate(formals)
                if mask[row, column]
            }
            t0 = time.perf_counter()
            try:
                results[row] = plan.pfail(point, budget=budget)
                status[row] = ROW_OK
            except ReproError as exc:
                failures[row] = WorkerFailure.from_error(exc)
                status[row] = ROW_FAILED
            obs.observe("batch.entry.seconds", time.perf_counter() - t0)
        return _ship_worker_observation(failures, owned)
    finally:
        attached.close()


def shm_numeric_sweep_rows(payload: dict) -> dict:
    """Evaluate numeric-sweep rows ``[start, stop)`` against shared arrays.

    Payload: ``spec`` (``values``/``results``/``status`` arrays plus the
    model document), ``config`` (service, parameter, fixed, solver,
    incremental), row range, ``deadline``, observability markers.  A grid
    chunk fails as a unit (matching :func:`numeric_sweep_chunk`): the
    first error marks the remaining rows failed and comes back as
    ``{start: WorkerFailure}``.
    """
    from repro.core.evaluator import ReliabilityEvaluator

    owned = _begin_worker_observation(payload)
    attached = _Attached(payload["spec"])
    try:
        config = payload["config"]
        budget = worker_budget(payload.get("deadline"))
        values = attached.arrays["values"]
        results = attached.arrays["results"]
        status = attached.arrays["status"]
        start, stop = payload["start"], payload["stop"]
        t0 = time.perf_counter()
        try:
            evaluator = ReliabilityEvaluator(
                _assembly_for(attached.doc),
                validate=False, check_domains=False, budget=budget,
                solver=config.get("solver", "auto"),
                incremental=bool(config.get("incremental", False)),
            )
            fixed = config["fixed"]
            parameter = config["parameter"]
            failures: dict[int, WorkerFailure] = {}
            for row in range(start, stop):
                results[row] = evaluator.pfail(
                    config["service"],
                    **{**fixed, parameter: float(values[row])},
                )
                status[row] = ROW_OK
        except ReproError as exc:
            failures = {start: WorkerFailure.from_error(exc)}
            status[start:stop] = np.where(
                status[start:stop] == ROW_OK, ROW_OK, ROW_FAILED
            )
        obs.observe("batch.entry.seconds", time.perf_counter() - t0)
        return _ship_worker_observation(failures, owned)
    finally:
        attached.close()
