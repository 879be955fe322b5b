"""Self-tests for the benchmark's own arithmetic.

Run from the checkout root: ``python3 -m pytest perfbench/tests``.
"""

import json

import numpy as np
import pytest

import common
import layers
import run
import serve_load
from common import Ledger, Span, Tracer, nearest_rank, self_times, tail_percentile


# -- percentile selection ------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 1001)]
    assert tail_percentile(values) == (99.0, 990.0, 10)


def test_one_sample_short_falls_back_to_a_lower_percentile():
    values = [float(v) for v in range(1, 1000)]  # 999 samples: p99 has 9 beyond
    assert nearest_rank(values, 99.0) == (990.0, 9)
    assert tail_percentile(values) == (95.0, 950.0, 49)


def test_too_few_samples_report_no_tail():
    assert tail_percentile([float(v) for v in range(30)]) is None
    assert tail_percentile([]) is None


def test_percentile_ignores_sample_order():
    values = list(np.random.default_rng(0).permutation(np.arange(1.0, 2001.0)))
    assert tail_percentile(values) == (99.0, 1980.0, 20)


# -- span self time -----------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "request", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "b", 3.0, 6.0, 0, "r"),  # overlaps a: covered once
        Span(3, "a.child", 2.0, 3.0, 1, "r"),
        Span(4, "late", 9.0, 12.0, 0, "r"),  # runs past its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_tracer_nests_spans_and_shares_the_request_id():
    tracer = Tracer()
    with tracer.span("outer", request="req-1"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    with tracer.span("other", request="req-2"):
        pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent is None
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["leaf"].parent == by_name["inner"].span_id
    assert {by_name[n].request for n in ("outer", "inner", "leaf")} == {"req-1"}
    assert by_name["other"].request == "req-2"
    profile = common.profile(tracer.spans)
    assert profile["outer"]["count"] == 1
    assert profile["outer"]["self_total_ms"] <= by_name["outer"].duration * 1e3


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x"):
        pass
    assert tracer.spans == []


# -- failed-op accounting --------------------------------------------------------


def _request(path="/v1/evaluate", expected=(0.25,)):
    return serve_load.Request(path, b"{}", len(expected), np.array(expected))


def test_wrong_pfail_counts_as_a_failed_op():
    ledger = Ledger()
    request = _request()
    ok, why = request.verify(200, json.dumps({"pfail": 0.25 * (1 + 1e-6)}).encode())
    ledger.record(ok, 0.01, request.points, why)
    ok, why = request.verify(200, json.dumps({"pfail": 0.25}).encode())
    ledger.record(ok, 0.02, request.points, why)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (2, 1, 1)
    assert ledger.latencies == [0.02] and ledger.points == 1
    assert "oracle" in ledger.failures[0]


def test_non_200_response_counts_as_a_failed_op():
    ledger = Ledger()
    request = _request("/v1/batch", (0.1, 0.2))
    ok, why = request.verify(503, b'{"error": "budget"}')
    ledger.record(ok, 0.5, request.points, why)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert ledger.latencies == [] and ledger.points == 0
    assert "HTTP 503" in ledger.failures[0]


def test_missing_or_nan_values_fail_the_oracle():
    assert common.close([0.1, 0.2], [0.1, 0.2])
    assert not common.close([0.1, None], [0.1, 0.2])
    assert not common.close([0.1, float("nan")], [0.1, 0.2])
    assert not common.close([0.1], [0.1, 0.2])


def test_setup_checks_count_without_latency():
    ledger, checks = Ledger(), Ledger()
    checks.check(True)
    checks.check(False, "setup: exit 1")
    ledger.record(True, 0.1, 4)
    common.absorb_checks(ledger, checks)
    assert (ledger.attempted, ledger.failed, ledger.latencies) == (3, 1, [0.1])


# -- import probe and the metric list ----------------------------------------


def test_importtime_parsing():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       1500 |   numpy.core",
        "import time:       500 |       2000 | numpy",
        "import time:      3000 |       3000 |     scipy.linalg",
        "import time:       200 |       3200 |   scipy",
        "import time:       100 |      9000 | repro.cli",
    ])
    assert common.parse_importtime(stderr) == {
        "import.repro_cli_ms": 9.0,
        "import.scipy_ms": 3.2,
        "import.numpy_ms": 1.5,
    }


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
