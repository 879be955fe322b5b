"""Shared plumbing of the benchmark: paths, statistics, op ledger, spans.

Everything here is plain arithmetic or process plumbing that the
workloads share; ``perfbench/tests`` checks the arithmetic.  Nothing in
this module imports the program under test.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: The checkout root: ``perfbench/`` sits directly under it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for journals and probe files, inside the checkout.
WORK = ROOT / ".perfbench_work"

#: Percentiles tried, highest first, when picking the reported tail.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Relative and absolute tolerance of every oracle comparison.
REL_TOL = 1e-8
ABS_TOL = 1e-14

#: Environment variables that set BLAS/OpenMP thread counts; the
#: benchmark records them as found and sets none.
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program source)."""


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or raise.

    The benchmark measures the program in *this* checkout and nothing
    else, so an installed copy elsewhere must never stand in for it.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")


def stop_helper_processes() -> None:
    """Stop the helper process ``multiprocessing`` leaves running, and wait.

    Process pools and shared memory start a resource tracker that
    otherwise outlives this interpreter; registered with :mod:`atexit`
    before the program is imported, this runs after every other exit
    hook (shared-memory drains included), so nothing restarts it.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- statistics --------------------------------------------------------------


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """The nearest-rank ``q``-th percentile of ascending ``sorted_values``
    and the number of samples strictly beyond its rank."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail_percentile(values: list[float]) -> tuple[float, float, int] | None:
    """``(q, value, beyond)`` for the highest candidate percentile that
    has at least :data:`MIN_BEYOND` samples beyond it, else ``None``."""
    ordered = sorted(values)
    for q in TAIL_CANDIDATES:
        if not ordered:
            break
        value, beyond = nearest_rank(ordered, q)
        if beyond >= MIN_BEYOND:
            return q, value, beyond
    return None


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def close(got, want) -> bool:
    """Whether ``got`` matches the oracle ``want`` within tolerance
    (scalars or equal-length sequences; a missing value, NaN or a length
    mismatch fails)."""
    if got is None or (isinstance(got, (list, tuple)) and None in got):
        return False
    got_arr = np.asarray(got, dtype=float).ravel()
    want_arr = np.asarray(want, dtype=float).ravel()
    if got_arr.shape != want_arr.shape or not np.all(np.isfinite(got_arr)):
        return False
    return bool(np.all(np.abs(got_arr - want_arr) <= REL_TOL * np.abs(want_arr) + ABS_TOL))


class Ledger:
    """Operations attempted, failed, and the latency and points of each
    correct one.  A failed op (typed error, non-200, off its oracle)
    counts as attempted and failed, never as skipped; only correct ops
    contribute latency samples and points."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.points = 0
        self.failures: list[str] = []

    def record(self, ok: bool, latency_s: float, points: int, why: str = "") -> None:
        self.attempted += 1
        if ok:
            self.latencies.append(latency_s)
            self.points += points
        else:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(why)

    def merge(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies.extend(other.latencies)
        self.points += other.points
        self.failures.extend(other.failures[: max(0, 5 - len(self.failures))])

    def check(self, ok: bool, why: str = "") -> None:
        """A checked result with no latency sample (set-up, warm-up)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(why)

    @property
    def correct(self) -> int:
        return self.attempted - self.failed

    def p50_ms(self) -> float:
        return median(self.latencies) * 1e3


def overhead_share(traced: Ledger, untraced: Ledger) -> float:
    """Traced against untraced median op latency, as a share of the latter."""
    base = untraced.p50_ms()
    return traced.p50_ms() / base - 1.0 if base else 0.0


def absorb_checks(ledger: Ledger, checks: Ledger) -> None:
    """Count set-up and warm-up results as checked ops, without latency."""
    ledger.attempted += checks.attempted
    ledger.failed += checks.failed
    ledger.failures.extend(checks.failures[: max(0, 5 - len(ledger.failures))])


# -- spans -------------------------------------------------------------------


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "request")

    def __init__(self, span_id, name, start, end, parent, request):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    Each span has a name, start, end, parent and the request id shared
    by the spans of one request; they are kept in memory and summarized
    when the run ends.  A disabled tracer records nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()  # per-thread (span id, request) stack

    @contextmanager
    def span(self, name: str, request=None):
        """Record one span; a nested span inherits its parent's request."""
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = None
        if stack:
            parent, parent_request = stack[-1]
            if request is None:
                request = parent_request
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, request))

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def median_us(self, name: str) -> float:
        return median(self.durations(name)) * 1e6


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    result = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for child in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s.span_id] = s.duration - covered
    return result


def profile(spans: list[Span]) -> dict[str, dict]:
    """Per span name: count, total and median self time in ms."""
    selfs = self_times(spans)
    by_name: dict[str, list[float]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(selfs[s.span_id])
    return {
        name: {
            "count": len(values),
            "self_total_ms": sum(values) * 1e3,
            "self_p50_ms": median(values) * 1e3,
        }
        for name, values in sorted(by_name.items())
    }


# -- environment and the import probe ---------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    """The environment record every result carries."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    commit = None  # a plain checkout carries no git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
        "git_commit": commit,
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """``-X importtime`` output → import costs in ms: ``repro.cli``
    cumulative, and the summed self time of every ``scipy`` / ``numpy``
    module."""
    cli_us = 0
    totals = {"scipy": 0, "numpy": 0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        self_us, cumulative_us = int(fields[0]), int(fields[1])
        module = fields[2].strip()
        if module == "repro.cli":
            cli_us = cumulative_us
        top = module.split(".")[0]
        if top in totals:
            totals[top] += self_us
    return {
        "import.repro_cli_ms": cli_us / 1e3,
        "import.scipy_ms": totals["scipy"] / 1e3,
        "import.numpy_ms": totals["numpy"] / 1e3,
    }


def import_probe(runs: int = 3) -> dict[str, float]:
    """Median over ``runs`` fresh ``python -X importtime -c "import
    repro.cli"`` interpreters."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    return {key: median([s[key] for s in samples]) for key in samples[0]}
