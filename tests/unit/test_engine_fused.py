"""The fused execution path: stacked kernels, counters, the process pool.

Covers the contracts the fused executor adds on top of the batch engine:

- ``pfail_grid``'s symbolic fast path (grid-shaped kernel results return
  directly; scalar closed forms — the swept parameter eliminated — still
  materialize a full grid);
- robust-backend ``pfail_grid``/``pfail_stack`` under cooperative budget
  deadlines: a deadline hit mid-grid raises with a partial-progress note,
  never a silently truncated result;
- ``BatchEngine`` fused-group accounting (``fused_entries``,
  ``engine.fused.*`` counters), bitwise agreement with per-point
  ``plan.pfail`` calls, and per-entry error isolation when a poisoned
  point forces the fallback;
- the process pool that serves what fusion leaves (robust groups):
  bitwise parity with serial, per-entry error isolation, and a typed
  :class:`~repro.errors.WorkerCrashedError` naming exactly the unserved
  entries when a worker is SIGKILLed mid-batch — and the lost grid
  points, trial blocks and fuzz cases on the other fan-outs; pool
  workers run one BLAS thread;
- the removed ``fused``/``compile`` options end to end: the CLI flags
  exit 2, the server request schemas reject the fields, ``/v1/cache-stats``
  keeps its ``engine.fused`` block, and campaign ids stay pinned so
  journals written while the options existed keep resuming.
"""

import ctypes
import multiprocessing
import os
import signal

import numpy as np
import pytest

import repro.robustness.harness as harness_module
from repro.analysis.sweep import sweep_parameter
from repro.core.evaluator import ReliabilityEvaluator
from repro.engine import (
    BatchEngine,
    BatchRequest,
    PlanCache,
    fused_counts,
    make_executor,
    reset_fused_counts,
)
from repro.engine.plan import EvaluationPlan, compile_plan
from repro.errors import BudgetExceededError, ReproError, WorkerCrashedError
from repro.robustness.harness import FuzzHarness
from repro.runtime.budget import EvaluationBudget
from repro.scenarios import local_assembly, recursive_assembly
from repro.simulation.engine import MonteCarloSimulator


# ---------------------------------------------------------------------------
# pfail_grid symbolic fast path (satellite: no broadcast_to(...).copy())
# ---------------------------------------------------------------------------


class TestGridFastPath:
    def test_grid_shaped_result_is_returned_directly(self, local):
        plan = compile_plan(local, "search")
        grid = np.linspace(1.0, 1000.0, 16)
        fixed = {"elem": 1.0, "res": 1.0}
        values = plan.pfail_grid("list", grid, fixed)
        assert values.shape == grid.shape
        loop = [plan.pfail({**fixed, "list": float(v)}) for v in grid]
        assert np.array_equal(values, np.asarray(loop))

    def test_scalar_closed_form_materializes_grid(self, local):
        # sort1's closed form depends on "list" only: sweeping an unused
        # name folds to a scalar, which must still come back grid-shaped
        plan = compile_plan(local, "sort1")
        assert plan.formals == ("list",)
        grid = np.linspace(0.0, 9.0, 7)
        values = plan.pfail_grid("unused", grid, {"list": 100.0})
        assert values.shape == grid.shape
        expected = plan.pfail({"list": 100.0})
        assert np.array_equal(values, np.full(grid.shape, expected))

    def test_grid_result_does_not_alias_grid(self, local):
        plan = compile_plan(local, "search")
        grid = np.linspace(1.0, 500.0, 8)
        values = plan.pfail_grid("list", grid, {"elem": 1.0, "res": 1.0})
        assert not np.shares_memory(values, grid)


# ---------------------------------------------------------------------------
# robust backend under cooperative deadlines (satellite 3)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def robust_plan():
    return compile_plan(recursive_assembly(), "A", solver="sparse")


class TestRobustDeadlines:
    def test_grid_deadline_reports_partial_progress(self, robust_plan):
        budget = EvaluationBudget(deadline=0.2)
        with pytest.raises(BudgetExceededError) as info:
            robust_plan.pfail_grid(
                "size", np.arange(1.0, 64.0), {}, budget=budget
            )
        notes = "\n".join(getattr(info.value, "__notes__", []))
        assert "stopped at point" in notes
        assert "partial results discarded" in notes

    def test_stack_deadline_reports_partial_progress(self, robust_plan):
        budget = EvaluationBudget(deadline=0.2)
        points = [{"size": float(v)} for v in range(1, 64)]
        with pytest.raises(BudgetExceededError) as info:
            robust_plan.pfail_stack(points, budget=budget)
        notes = "\n".join(getattr(info.value, "__notes__", []))
        assert "stacked evaluation" in notes
        assert "stopped at point" in notes

    def test_no_silent_truncation_under_generous_deadline(self, robust_plan):
        budget = EvaluationBudget(deadline=60.0)
        points = [{"size": float(v)} for v in range(1, 5)]
        stacked = robust_plan.pfail_stack(points, budget=budget)
        assert stacked.shape == (len(points),)
        loop = [robust_plan.pfail(p) for p in points]
        assert np.array_equal(stacked, np.asarray(loop))


# ---------------------------------------------------------------------------
# BatchEngine fused groups: accounting, loop parity, fallback isolation
# ---------------------------------------------------------------------------


class TestEngineFused:
    def _points(self, n):
        return [
            {"elem": 1.0, "res": 1.0, "list": float(v)}
            for v in np.linspace(1.0, 1000.0, n)
        ]

    def test_fused_group_counts_entries(self, local):
        reset_fused_counts()
        engine = BatchEngine(jobs=1, cache=PlanCache())
        result = engine.evaluate(local, "search", self._points(6))
        assert result.ok
        assert result.stats.fused_entries == 6
        counts = fused_counts()
        assert counts["groups"] == 1
        assert counts["entries"] == 6
        assert counts["fallbacks"] == 0

    def test_fused_and_loop_agree_bitwise(self, local):
        points = self._points(9)
        fused = BatchEngine(jobs=1, cache=PlanCache())
        result = fused.evaluate(local, "search", points)
        assert result.stats.fused_entries == len(points)
        plan = compile_plan(local, "search")
        assert [e.pfail for e in result] == [plan.pfail(p) for p in points]

    def test_poisoned_point_falls_back_to_per_entry_isolation(self, local):
        reset_fused_counts()
        points = self._points(4)
        del points[2]["list"]  # unbound parameter poisons the stack
        engine = BatchEngine(jobs=1, cache=PlanCache())
        result = engine.evaluate(local, "search", points)
        assert not result.ok
        entries = list(result)
        assert [entry.ok for entry in entries] == [True, True, False, True]
        assert result.stats.fused_entries == 0
        assert fused_counts()["fallbacks"] == 1
        # the healthy entries still carry correct values
        plan = compile_plan(local, "search")
        assert entries[0].pfail == plan.pfail(points[0])


# ---------------------------------------------------------------------------
# the process pool: what fusion leaves (robust groups) fans out by pickling
# ---------------------------------------------------------------------------


def _kill_self():  # pragma: no cover - dies by design
    os.kill(os.getpid(), signal.SIGKILL)


def _blas_threads() -> list[int]:
    """The thread count each OpenBLAS library mapped into this process
    reports (empty without OpenBLAS)."""
    with open("/proc/self/maps") as maps:
        paths = {
            line.split()[-1] for line in maps
            if "openblas" in line.lower() and ".so" in line
        }
    counts = []
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts.append(int(getter()))
                break
    return counts


#: A robust point no real batch uses; the patched ``pfail`` dies on it.
SENTINEL_SIZE = 7777.0


class TestProcessPool:
    @pytest.fixture(autouse=True)
    def _two_workers(self, monkeypatch):
        # the engine clamps jobs to the cpu count; pretend there are
        # enough cores for jobs=2 to build a real pool on any runner
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def _robust(self, engine, points):
        return engine.evaluate(recursive_assembly(), "A", points)

    def test_robust_batch_matches_serial_bitwise(self):
        points = [{"size": float(1 + (i % 5))} for i in range(8)]
        serial = self._robust(
            BatchEngine(jobs=1, cache=PlanCache(), solver="sparse"), points
        )
        parallel = self._robust(
            BatchEngine(jobs=2, cache=PlanCache(), solver="sparse"), points
        )
        assert parallel.ok
        assert parallel.stats.fused_entries == 0  # robust: served by the pool
        assert parallel.pfails() == serial.pfails()

    def test_bad_point_in_robust_group_fails_alone(self):
        points = [{"size": float(v)} for v in (1, 2, -1, 3, 4)]
        serial = self._robust(BatchEngine(jobs=1, cache=PlanCache()), points)
        parallel = self._robust(BatchEngine(jobs=2, cache=PlanCache()), points)
        assert [e.ok for e in parallel] == [True, True, False, True, True]
        error = parallel.entries[2].error
        assert isinstance(error, ReproError)
        assert "outside domain" in str(error)
        good = [i for i in range(len(points)) if i != 2]
        assert [parallel.entries[i].pfail for i in good] == [
            serial.entries[i].pfail for i in good
        ]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched pfail reaches workers only through fork",
    )
    def test_sigkilled_worker_names_the_unserved_entries(
        self, monkeypatch, local
    ):
        original = EvaluationPlan.pfail

        def pfail(plan, actuals=None, **kwargs):
            if (actuals or {}).get("size") == SENTINEL_SIZE:
                _kill_self()
            return original(plan, actuals, **kwargs)

        monkeypatch.setattr(EvaluationPlan, "pfail", pfail)
        recursive = recursive_assembly()
        symbolic = {"elem": 1.0, "res": 1.0}
        requests = [
            # a fused symbolic group: served in the parent, before the pool
            BatchRequest(local, "search", {**symbolic, "list": 10.0}),
            BatchRequest(local, "search", {**symbolic, "list": 20.0}),
            # a robust group split into two chunks, each of which serves
            # one point and then dies on the sentinel
            BatchRequest(recursive, "A", {"size": 1.0}),
            BatchRequest(recursive, "A", {"size": SENTINEL_SIZE}),
            BatchRequest(recursive, "A", {"size": 2.0}),
            BatchRequest(recursive, "A", {"size": SENTINEL_SIZE}),
        ]
        engine = BatchEngine(jobs=2, cache=PlanCache())
        with pytest.raises(WorkerCrashedError) as excinfo:
            engine.run(requests)
        assert excinfo.value.indices == (2, 3, 4, 5)
        assert "affected entry indices: [2, 3, 4, 5]" in str(excinfo.value)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched worker code reaches workers only through fork",
    )
    @pytest.mark.parametrize(
        "path, target, expected",
        [
            # grid points of a numeric sweep
            ("sweep", (ReliabilityEvaluator, "pfail"), tuple(range(6))),
            # trial blocks of a Monte Carlo estimate
            ("simulate", (MonteCarloSimulator, "compile"), (0, 1)),
            # case indices of a fuzz run
            ("fuzz", (harness_module, "run_fuzz_case"), tuple(range(6))),
        ],
    )
    def test_sigkilled_workers_name_every_lost_index(
        self, monkeypatch, local, path, target, expected
    ):
        # every worker dies on its first item, so nothing is collected
        monkeypatch.setattr(*target, lambda *args, **kwargs: _kill_self())
        fixed = {"elem": 1.0, "res": 1.0}
        runs = {
            "sweep": lambda: sweep_parameter(
                local, "search", "list", np.linspace(100.0, 600.0, 6), fixed,
                method="numeric", jobs=2,
            ),
            "simulate": lambda: MonteCarloSimulator(local, seed=1).estimate_pfail(
                "search", 100, jobs=2, list=500.0, **fixed
            ),
            "fuzz": lambda: FuzzHarness(local, seed=0, trials=50).run(
                count=6, jobs=2
            ),
        }
        with pytest.raises(WorkerCrashedError) as excinfo:
            runs[path]()
        assert excinfo.value.indices == expected

    @pytest.mark.parametrize("pool", ["make_executor", "supervisor"])
    def test_pool_workers_run_one_blas_thread(self, pool):
        if not _blas_threads():
            pytest.skip("no OpenBLAS library loaded")
        if pool == "make_executor":
            executor = make_executor(2)
        else:
            from repro.workunits import Supervisor, sweep_campaign

            campaign = sweep_campaign(
                local_assembly(), "search", "list", [100.0],
                {"elem": 1.0, "res": 1.0},
            )
            executor = Supervisor(campaign, jobs=1)._make_pool()
        with executor:
            counts = executor.submit(_blas_threads).result()
        assert counts and set(counts) == {1}


# ---------------------------------------------------------------------------
# the removed fused/compile options: CLI, server, work units
# ---------------------------------------------------------------------------

#: Campaign ids measured on ``local_assembly()`` while the ``compile`` and
#: ``fused`` options still existed; default campaigns must keep them.
SWEEP_CAMPAIGN_ID = (
    "c396d7320eb92e541e3a1df40acbbd1c932ee1637e4ba6a5a759c65098d4da4b"
)
BATCH_CAMPAIGN_ID = (
    "9e9137de5a7b09322c92526bfc23f7b6b6e44419a27d32617e3dd9b6c09c3491"
)
#: The same batch campaign as written with ``fused=False``.
NO_FUSED_BATCH_CAMPAIGN_ID = (
    "4628ff795dea4e8b159b8a1405a37255a1567faead79da1435eb8abe13e5b7fe"
)
BATCH_POINTS = [
    {"elem": 1.0, "list": 500.0, "res": 1.0},
    {"elem": 1.0, "list": 1000.0, "res": 1.0},
]


class TestFusedKnob:
    def test_cli_flags_parse(self, capsys):
        from repro.cli import build_parser, main

        for command in (
            ["batch", "search", "--model", "m.json"],
            ["sweep", "m.json", "search", "list", "--from", "1", "--to", "10"],
        ):
            args = build_parser().parse_args(command)
            assert not hasattr(args, "fused")
            assert not hasattr(args, "no_compile")
            for flag in ("--no-compile", "--no-fused", "--fused"):
                with pytest.raises(SystemExit) as excinfo:
                    main(command + [flag])
                assert excinfo.value.code == 2
                assert flag in capsys.readouterr().err

    def test_server_schema_rejects_removed_fields(self, local):
        from repro.dsl.serializer import assembly_to_dict
        from repro.errors import RequestValidationError
        from repro.server import EvaluationService, http_status_for

        model = assembly_to_dict(local)
        service = EvaluationService()
        bodies = {
            service.evaluate: {
                "model": model, "service": "search",
                "actuals": BATCH_POINTS[0],
            },
            service.batch: {
                "requests": [{"model": model, "service": "search",
                              "actuals": BATCH_POINTS[0]}],
            },
            service.sweep: {
                "model": model, "service": "search", "parameter": "list",
                "start": 1, "stop": 10, "fixed": {"elem": 1, "res": 1},
            },
        }
        for endpoint, body in bodies.items():
            endpoint(body)  # the body is valid without the fields
            for field in ("compile", "fused"):
                with pytest.raises(RequestValidationError) as excinfo:
                    endpoint({**body, field: True})
                assert http_status_for(excinfo.value) == 400
                assert any(
                    f"unexpected key {field!r}" in problem
                    for problem in excinfo.value.problems
                )

    def test_cache_stats_carries_engine_fused_block(self):
        from repro.server.service import EvaluationService

        stats = EvaluationService().cache_stats()
        fused = stats["engine"]["fused"]
        assert set(fused) == {"groups", "entries", "fallbacks"}

    def test_campaign_ids_pinned_across_option_removal(self, local):
        from repro.workunits import batch_campaign, sweep_campaign

        sweep = sweep_campaign(
            local, "search", "list", [100.0, 200.0, 300.0, 400.0],
            {"elem": 1.0, "res": 1.0}, units=2,
        )
        assert sweep.campaign_id == SWEEP_CAMPAIGN_ID
        batch = batch_campaign(
            [("local", local)], "search", BATCH_POINTS, units=2
        )
        assert batch.campaign_id == BATCH_CAMPAIGN_ID

    def test_resuming_a_no_fused_journal_fails_loudly(self, local, tmp_path):
        from repro.errors import CampaignStoreError
        from repro.workunits import (
            Campaign,
            ResultStore,
            WorkUnit,
            batch_campaign,
            run_campaign,
        )

        current = batch_campaign(
            [("local", local)], "search", BATCH_POINTS, units=2
        )
        # rebuild the campaign a ``fused=False`` run journaled
        old = Campaign(
            current.kind,
            tuple(
                WorkUnit(u.kind, u.index, u.fingerprint,
                         {**u.config, "fused": False}, u.payload)
                for u in current.units
            ),
            {**current.config, "fused": False},
        )
        assert old.campaign_id == NO_FUSED_BATCH_CAMPAIGN_ID
        journal = tmp_path / "old.jsonl"
        store, _ = ResultStore.for_campaign(journal, old)
        store.close()
        with pytest.raises(CampaignStoreError):
            run_campaign(current, journal)
