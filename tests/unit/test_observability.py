"""Unit tests for :mod:`repro.observability` — metrics, tracing, hooks,
facade, and the cross-process merge paths the worker pool relies on."""

import json
import threading

import pytest

from repro import observability as obs
from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    SummarySink,
    Tracer,
)
from repro.observability.tracing import NO_SPAN


@pytest.fixture(autouse=True)
def _pristine_observability():
    obs.reset()
    yield
    obs.reset()


# -- metrics primitives -----------------------------------------------------


class TestCounter:
    def test_monotone_increment(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0

    def test_thread_safety(self):
        counter = Counter()
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(1_000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8_000


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.add(1.5)
        assert gauge.value == 5.0


class TestHistogram:
    def test_exact_moments(self):
        hist = Histogram("t")
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert snap["mean"] == 2.5

    def test_empty_snapshot(self):
        assert Histogram("t").snapshot() == {"count": 0, "sum": 0.0}

    def test_reservoir_is_bounded(self):
        hist = Histogram("t", max_samples=16)
        for v in range(1_000):
            hist.observe(float(v))
        snap = hist.snapshot()
        assert snap["count"] == 1_000
        assert snap["samples_kept"] == 16
        assert snap["min"] == 0.0 and snap["max"] == 999.0

    def test_reservoir_deterministic_per_name(self):
        a, b = Histogram("same"), Histogram("same")
        for v in range(2_000):
            a.observe(float(v))
            b.observe(float(v))
        assert a.snapshot() == b.snapshot()

    def test_quantile(self):
        hist = Histogram("t")
        for v in range(101):
            hist.observe(float(v))
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == 100.0
        assert 40.0 <= hist.quantile(0.5) <= 60.0


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert len(registry) == 3

    def test_snapshot_schema_and_json(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.25)
        snap = registry.snapshot()
        assert snap["schema"] == "repro/metrics/1"
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        assert json.loads(registry.to_json()) == snap

    def test_merge_adds_counters_overwrites_gauges(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("c").inc(3)
        worker.counter("c").inc(4)
        worker.gauge("g").set(9.0)
        worker.histogram("h").observe(1.0)
        worker.histogram("h").observe(3.0)
        parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["c"] == 7
        assert snap["gauges"]["g"] == 9.0
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["sum"] == 4.0

    def test_merge_histograms_from_two_workers(self):
        parent = MetricsRegistry()
        for low, high in ((1.0, 2.0), (10.0, 20.0)):
            worker = MetricsRegistry()
            worker.histogram("h").observe(low)
            worker.histogram("h").observe(high)
            parent.merge(worker.snapshot())
        merged = parent.snapshot()["histograms"]["h"]
        assert merged["count"] == 4
        assert merged["min"] == 1.0 and merged["max"] == 20.0
        assert merged["sum"] == 33.0


# -- tracing ----------------------------------------------------------------


class TestTracer:
    def test_nesting_sets_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s.name for s in tracer.finished] == ["inner", "outer"]
        assert all(s.status == "ok" for s in tracer.finished)
        assert tracer.current() is None

    def test_error_span_records_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("work"):
                raise RuntimeError("boom")
        (span,) = tracer.finished
        assert span.status == "error"
        assert span.error == "RuntimeError: boom"

    def test_tags_at_open_and_set_tag(self):
        tracer = Tracer()
        with tracer.span("work", phase="a") as span:
            span.set_tag(result="ok", phase="b")
        assert tracer.finished[0].tags == {"phase": "b", "result": "ok"}

    def test_bounded_retention_counts_drops(self):
        tracer = Tracer(max_spans=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished) == 2
        assert tracer.dropped == 3

    def test_export_round_trips_through_dicts(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", k=1):
                pass
        records = tracer.export()
        assert {r["name"] for r in records} == {"inner", "outer"}
        assert all("wall" in r and "span_id" in r for r in records)

    def test_merge_reparents_worker_roots(self):
        worker = Tracer()
        with worker.span("worker.outer"):
            with worker.span("worker.inner"):
                pass
        records = worker.export()

        parent = Tracer()
        with parent.span("dispatch") as dispatch:
            adopted = parent.merge(records)
        assert adopted == 2
        by_name = {s.name: s for s in parent.finished}
        # the worker's root now hangs off the dispatching span ...
        assert by_name["worker.outer"].parent_id == dispatch.span_id
        # ... while intra-worker nesting is preserved
        assert (
            by_name["worker.inner"].parent_id
            == by_name["worker.outer"].span_id
        )

    def test_merge_notifies_hooks_of_every_incoming_span(self):
        worker = Tracer()
        with worker.span("w.outer"), worker.span("w.inner"):
            pass
        sink = InMemorySink()
        parent = Tracer(hooks=[sink], max_spans=1)
        parent.merge(worker.export())
        # hooks see both spans, including the one retention dropped
        assert [s.name for s in sink.spans] == ["w.inner", "w.outer"]
        assert sink.open_spans == 0
        assert parent.dropped == 1

    def test_merge_without_open_span_keeps_roots(self):
        worker = Tracer()
        with worker.span("w"):
            pass
        parent = Tracer()
        parent.merge(worker.export())
        assert parent.finished[0].parent_id is None

    def test_span_ids_unique_and_pid_prefixed(self):
        import os

        tracer = Tracer()
        with tracer.span("a"), tracer.span("b"):
            pass
        ids = [s.span_id for s in tracer.finished]
        assert len(set(ids)) == 2
        assert all(i.startswith(f"{os.getpid()}-") for i in ids)


# -- hooks ------------------------------------------------------------------


class TestHooks:
    def test_in_memory_sink_balance(self):
        sink = InMemorySink()
        tracer = Tracer(hooks=[sink])
        with tracer.span("a"):
            assert sink.open_spans == 1
            with tracer.span("b"):
                pass
        assert sink.open_spans == 0
        assert [s.name for s in sink.spans] == ["b", "a"]

    def test_jsonl_sink_writes_one_line_per_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        tracer = Tracer(hooks=[sink])
        with tracer.span("a", k=1):
            pass
        with tracer.span("b"):
            pass
        sink.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in lines] == ["a", "b"]
        assert lines[0]["tags"] == {"k": 1}
        assert sink.write_errors == 0

    def test_jsonl_sink_swallows_io_errors(self):
        sink = JsonlSink("/nonexistent-dir/trace.jsonl")
        tracer = Tracer(hooks=[sink])
        with tracer.span("a"):
            pass
        assert sink.write_errors == 1

    def test_summary_sink_table(self):
        sink = SummarySink()
        tracer = Tracer(hooks=[sink])
        with tracer.span("work"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("work"):
                raise ValueError("x")
        row = sink.rows["work"]
        assert row["count"] == 2 and row["errors"] == 1
        assert "work" in sink.render()

    def test_summary_sink_merges_exported_records(self):
        tracer = Tracer()
        with tracer.span("remote"):
            pass
        sink = SummarySink()
        sink.merge_records(tracer.export())
        assert sink.rows["remote"]["count"] == 1

    def test_empty_summary_renders(self):
        assert "no spans" in SummarySink().render()


# -- the facade -------------------------------------------------------------


class TestFacade:
    def test_disabled_helpers_record_nothing(self):
        assert not obs.enabled()
        obs.count("c")
        obs.gauge("g", 1.0)
        obs.observe("h", 1.0)
        assert obs.span("s") is NO_SPAN
        assert len(obs.registry()) == 0
        assert obs.tracer().finished == []

    def test_no_span_is_inert_context_manager(self):
        with obs.span("anything") as span:
            span.set_tag(whatever=1)
        assert span is NO_SPAN

    def test_enabled_helpers_record(self):
        obs.enable()
        obs.count("c", 2)
        obs.gauge("g", 4.5)
        obs.observe("h", 0.5)
        with obs.span("s", k=1):
            pass
        snap = obs.registry().snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 4.5}
        assert obs.tracer().finished[0].name == "s"

    def test_enable_is_idempotent_and_appends_hooks(self):
        sink = InMemorySink()
        registry, tracer = obs.enable(hooks=[sink])
        registry2, tracer2 = obs.enable(hooks=[sink])
        assert registry is registry2 and tracer is tracer2
        assert tracer.hooks.count(sink) == 1

    def test_disable_keeps_data_readable(self):
        obs.enable()
        obs.count("c")
        obs.disable()
        assert not obs.enabled()
        assert obs.registry().snapshot()["counters"] == {"c": 1}
        obs.count("c")  # no-op now
        assert obs.registry().snapshot()["counters"] == {"c": 1}

    def test_reset_forgets_everything(self):
        obs.enable()
        obs.count("c")
        obs.reset()
        assert not obs.enabled()
        assert len(obs.registry()) == 0


# -- worker payload shipping (the cross-process join) -----------------------


class TestWorkerObservation:
    def test_worker_scope_ships_and_parent_merges(self):
        from repro.engine.parallel import (
            _begin_worker_observation,
            _ship_worker_observation,
            unpack_worker_payload,
        )

        # "worker process": observability starts disabled there
        owned = _begin_worker_observation(
            {"observe": True, "dispatched_at": 0.0}
        )
        assert owned
        obs.count("cache.plan.hits", 3)
        with obs.span("worker.work"):
            pass
        wrapped = _ship_worker_observation(["r1", "r2"], owned)
        assert set(wrapped) == {"results", "metrics", "spans"}
        # shipping resets the worker scope for the next payload
        assert len(obs.registry()) == 0

        # "parent process": merge into an enabled scope
        obs.enable()
        with obs.span("dispatch"):
            results = unpack_worker_payload(wrapped)
        assert results == ["r1", "r2"]
        snap = obs.registry().snapshot()
        assert snap["counters"]["cache.plan.hits"] == 3
        assert "batch.queue.seconds" in snap["histograms"]
        assert "worker.work" in {s.name for s in obs.tracer().finished}

    def test_worker_scope_not_started_without_flag(self):
        from repro.engine.parallel import _begin_worker_observation

        assert not _begin_worker_observation({})
        assert not _begin_worker_observation({"observe": False})
        assert not obs.enabled()

    def test_in_process_call_keeps_parent_scope(self):
        from repro.engine.parallel import (
            _begin_worker_observation,
            _ship_worker_observation,
        )

        obs.enable()
        obs.count("pre.existing")
        # a worker function called in the process that enabled collection
        # (the supervisor's inline mode): no private scope, results pass
        # through unwrapped, parent data survives
        owned = _begin_worker_observation({"observe": True})
        assert not owned
        assert _ship_worker_observation([1.0], owned) == [1.0]
        assert obs.registry().snapshot()["counters"] == {"pre.existing": 1}

    def test_forked_worker_opens_its_own_scope(self, monkeypatch):
        import os

        from repro.engine.parallel import _begin_worker_observation

        obs.enable()
        obs.count("parent.only")
        # a forked worker inherits the enabled flag and a copy of the
        # parent's registry, but runs under a different pid
        parent = os.getpid()
        monkeypatch.setattr(os, "getpid", lambda: parent + 1)
        assert _begin_worker_observation({"observe": True})
        assert obs.registry().snapshot()["counters"] == {}
        assert obs.enabled_pid() == parent + 1

    def test_enabled_pid_tracks_the_enabling_process(self):
        import os

        assert obs.enabled_pid() is None
        obs.enable()
        assert obs.enabled_pid() == os.getpid()
        obs.disable()
        assert obs.enabled_pid() is None

    def test_unpack_passes_plain_results_through(self):
        from repro.engine.parallel import unpack_worker_payload

        assert unpack_worker_payload([1.0, 2.0]) == [1.0, 2.0]
        failure_list = ["anything"]
        assert unpack_worker_payload(failure_list) is failure_list


# -- worker metrics and spans reach the parent at jobs > 1 ------------------


class TestParallelObservation:
    """Fork-started workers inherit the parent's enabled flag; what they
    record must still be shipped back and merged exactly once."""

    @pytest.fixture(autouse=True)
    def _two_workers(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def test_robust_batch_at_jobs2_ships_worker_metrics(self):
        from repro.engine import BatchEngine, PlanCache
        from repro.scenarios import recursive_assembly

        points = [{"size": float(v)} for v in (1, 2, 3, 4, 5, 6)]
        obs.enable()
        result = BatchEngine(jobs=2, cache=PlanCache()).evaluate(
            recursive_assembly(), "A", points
        )
        assert result.ok
        snapshot = obs.registry().snapshot()
        entries = snapshot["histograms"]["batch.entry.seconds"]
        assert entries["count"] == len(points)
        assert any(
            name.startswith("solver.") and value > 0
            for name, value in snapshot["counters"].items()
        )

    def test_numeric_sweep_at_jobs2_ships_worker_spans(self, local):
        import numpy as np

        from repro.analysis import sweep_parameter

        sink = InMemorySink()
        obs.enable(hooks=[sink])
        grid = np.linspace(100.0, 2000.0, 40)
        sweep_parameter(
            local, "search", "list", grid, {"elem": 1.0, "res": 1.0},
            method="numeric", jobs=2,
        )
        pfail_spans = [
            s for s in obs.tracer().finished if s.name == "evaluator.pfail"
        ]
        assert len(pfail_spans) == len(grid)
        assert len({s.span_id for s in pfail_spans}) == len(grid)
        assert sum(s.name == "evaluator.pfail" for s in sink.spans) == len(grid)
        counters = obs.registry().snapshot()["counters"]
        assert counters.get("solver.factorizations", 0) > 0
