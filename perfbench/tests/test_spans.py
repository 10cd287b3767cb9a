"""Self-test of the benchmark's span bookkeeping and metric plumbing.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import crownlab  # noqa: E402
from crownlab import growth, iwasawa  # noqa: E402
from layers import TARGETS, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RATIONALE = json.loads((BENCH / "rationale.json").read_text())


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install(TARGETS)
    yield tr
    tr.uninstall()


def _element(rng, n=3):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return np.exp(-0.7j * np.linspace(0.6, -0.6, n))[:, None] * q


def test_nested_self_times_sum_to_outer_duration(tracer):
    growth.component_scales(_element(np.random.default_rng(0)))
    names = [rec[0] for rec in tracer.spans]
    assert names == [
        "growth.component_scales",
        "growth.component_scales_batch",
        "iwasawa.leading_minors_batch",
    ]
    assert [rec[3] for rec in tracer.spans] == [-1, 0, 1]
    own = tracer.self_times()
    outer = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(own) == pytest.approx(outer, rel=1e-9, abs=1e-12)
    assert all(t >= 0.0 for t in own)


def test_name_bound_in_several_modules_counts_once_per_call(tracer):
    s = np.eye(3)[None]
    assert growth.leading_minors_batch is iwasawa.leading_minors_batch
    growth.leading_minors_batch(s)
    iwasawa.leading_minors_batch(s)
    crownlab.component_scales(_element(np.random.default_rng(1)))
    calls, _ = tracer.totals()
    assert calls["iwasawa.leading_minors_batch"] == 3
    assert calls["growth.component_scales_batch"] == 1
    assert tracer.counts["iwasawa.leading_minors_batch.rows"] == 3


def test_nested_calls_count_only_calls_from_traced_functions(tracer):
    g = _element(np.random.default_rng(2))
    with tracer.span("bench.item"):
        iwasawa.leading_minors_batch(np.eye(3)[None])
        growth.component_scales(g)
    calls, _ = tracer.totals()
    nested = tracer.nested_calls()
    assert calls["iwasawa.leading_minors_batch"] == 2
    assert nested["iwasawa.leading_minors_batch"] == 1
    assert nested["growth.component_scales"] == 0
    assert nested["bench.item"] == 0


def test_uninstall_restores_every_binding():
    original = iwasawa.leading_minors_batch
    tr = Tracer()
    tr.install(TARGETS)
    assert growth.leading_minors_batch is not original
    tr.uninstall()
    assert growth.leading_minors_batch is original
    assert iwasawa.leading_minors_batch is original
    assert crownlab.prinseries.ModeVector.evaluate.__name__ == "evaluate"
    assert not hasattr(crownlab.prinseries.ModeVector.evaluate, "__wrapped__")


def test_span_closes_when_the_call_raises(tracer):
    with pytest.raises(ValueError):
        iwasawa.domain_test(np.ones((2, 3)))
    assert tracer.spans[0][0] == "iwasawa.domain_test"
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    assert not tracer._stack
    assert tracer.counts["iwasawa.domain_exits"] == 0


def test_every_per_layer_metric_has_a_derivation():
    names = [m["name"] for m in SPEC["per_layer"]]
    extra = {"trace.overhead_s": 0.0, "trace.traced_s": 0.0}
    assert set(layer_metrics(Tracer(), names, extra)) == set(names)
    workloads = {w["name"] for w in SPEC["workloads"]}
    for group in ("predicted_nonzero", "predicted_zero"):
        assert set(RATIONALE[group]) == workloads
        for workload, metrics in RATIONALE[group].items():
            assert set(metrics) <= set(names), (group, workload)
    assert set(RATIONALE["predicted_nested"]) == workloads
    for functions in RATIONALE["predicted_nested"].values():
        assert set(functions) <= set(TARGETS)
