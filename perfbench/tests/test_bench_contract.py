"""BENCHMARK.json against its format rules and against what the runs print."""

import json
import re
from pathlib import Path

import inputs
import layers
import run

SPEC = json.loads((Path(run.__file__).parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Per-layer metrics every run prints, plus the traced run's own.
CHEAP = {
    "loadgen.fire_lag_p99_ms", "loadgen.fire_lag_max_ms", "loadgen.backlog_max",
    "loadgen.cpu_share", "env.calibration_ms", "env.server_ipc", "error_rate",
    "service.region_share",
    "service.computed_share", "invalidation.kept_ratio",
    "storage.plans_dropped_per_mutation",
}


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert UNIT.match(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    for w in SPEC["workloads"]:
        assert f"{inputs.WORKLOADS[w['name']].rate:g} ops/s" in w["why"]


def test_end_to_end_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


def _span(sid, name, start, end, parent=-1, attr=None, thread=1):
    return (sid, name, start, end, thread, parent, attr)


def test_layer_metrics_cover_per_layer_and_split_adds_up():
    us = 1000
    spans = [
        # one closed-loop query: handle 100us, execute 60us (lookup 10, compute 40)
        _span(1, "gateway.loads", 0, 5 * us, attr=None),
        _span(2, "gateway.handle", 5 * us, 105 * us, attr="query"),
        _span(3, "service.execute", 20 * us, 80 * us, thread=2),
        _span(4, "cache.lookup", 21 * us, 31 * us, parent=3, attr="miss", thread=2),
        _span(5, "engine.compute", 35 * us, 75 * us, parent=3, attr=1, thread=2),
        _span(6, "shards.call", 36 * us, 40 * us, parent=5, attr=("topk", 1, 1), thread=2),
        _span(7, "kernels.fused_scores", 37 * us, 38 * us, parent=6, attr=320, thread=2),
        _span(8, "storage.plan_for", 36 * us, 37 * us, parent=6, thread=2),
        _span(9, "stats.record", 85 * us, 90 * us, attr=None),
        _span(10, "gateway.dumps", 105 * us, 110 * us, attr=None),
    ]
    metrics, split = layers.compute(spans, (0, 200 * us), [(0, 200 * us)], client_mean_us=150.0)
    durable = layers.durability(
        [
            _span(20, "durability.wal", 0, 2 * us),
            _span(21, "durability.fsync", us, 2 * us, parent=20),
            _span(22, "durability.snapshot", 3 * us, 9 * us),
        ],
        (0, 3 * us),
    )
    assert durable["durability.fsyncs_per_batch"][0] == 1.0
    assert durable["durability.snapshots"][0] == 1  # counted over the server's life
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    times = {name for name, _ in run.TIMES}
    assert set(metrics) | set(durable) | CHEAP | times | {"trace.overhead_pct"} == per_layer
    assert metrics["gateway.hop_us_mean"][0] == 40.0  # handle - execute
    assert metrics["gateway.codec_us_mean"][0] == 10.0
    assert metrics["gateway.wire_us_mean"][0] == 40.0  # client - handle - codec
    assert metrics["service.self_us_mean"][0] == 10.0  # 60 - 10 - 40
    assert metrics["shards.topk_shards_per_query"][0] == 0.25
    assert metrics["kernels.bytes_per_query"][0] == 320
    assert abs(sum(split.values()) - 150.0) < 1e-9
    assert split["stats"] == 5.0 and split["hop"] == 35.0
    assert min(split.values()) >= 0
