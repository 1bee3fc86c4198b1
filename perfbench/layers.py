"""Per-layer metrics from the traced run's spans.

Windows are ``(start_ns, end_ns)`` on the shared monotonic clock; a span
belongs to a window when it starts inside it.  ``timed`` covers every
timed step (closed- and open-loop segments, write probe); ``closed`` lists
the closed-loop segments alone, whose client mean the gateway metrics split.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import stats
from inputs import SHARDS

US, MS = 1e3, 1e6  # nanoseconds per unit


class Spans:
    """Spans grouped by name within disjoint, ordered windows."""

    def __init__(self, spans, windows: Sequence[Tuple[int, int]]) -> None:
        starts = [lo for lo, _ in windows]
        self.by_name: Dict[str, list] = defaultdict(list)
        for span in spans:
            at = bisect.bisect_right(starts, span[2]) - 1
            if at >= 0 and span[2] < windows[at][1]:
                self.by_name[span[1]].append(span)
        self.all = spans

    def durations(self, name: str, unit: float, where=None) -> List[float]:
        return [
            (s[3] - s[2]) / unit
            for s in self.by_name.get(name, ())
            if where is None or where(s)
        ]

    def count(self, name: str, where=None) -> int:
        return sum(1 for s in self.by_name.get(name, ()) if where is None or where(s))

    def total(self, name: str, unit: float) -> float:
        return sum(s[3] - s[2] for s in self.by_name.get(name, ())) / unit

    def self_times(self, name: str, unit: float) -> List[float]:
        """Per-span self time: duration minus what its direct children cover."""
        parents = {s[0]: s for s in self.by_name.get(name, ())}
        children: Dict[int, list] = defaultdict(list)
        for span in self.all:
            if span[5] in parents:
                children[span[5]].append((span[2], span[3]))
        return [
            stats.self_time(s[2], s[3], children.get(sid, ())) / unit
            for sid, s in parents.items()
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(
    spans, timed: Tuple[int, int], closed: Sequence[Tuple[int, int]], client_mean_us: float
):
    """Span-derived metrics ``{name: (value, unit, samples)}`` and the split
    of the traced closed-loop client mean latency (microseconds)."""
    t = Spans(spans, [timed])
    c = Spans(spans, closed)
    out: Dict[str, Tuple[float, str, int]] = {}

    def put(name, value, unit, n):
        out[name] = (float(value), unit, int(n))

    # gateway (closed loop, queries): handle = hop + execute; client = wire + codec + handle
    is_query = lambda s: s[6] == "query"
    handle = c.durations("gateway.handle", US, is_query)
    execute_c = c.durations("service.execute", US)
    n_requests = c.count("gateway.handle")
    codec = _ratio(c.total("gateway.loads", US) + c.total("gateway.dumps", US), n_requests)
    handle_mean = stats.mean(handle)
    hop = handle_mean - stats.mean(execute_c)
    put("gateway.handle_us_p50", stats.median(handle), "us", len(handle))
    put("gateway.codec_us_mean", codec, "us", n_requests)
    put("gateway.hop_us_mean", hop, "us", len(handle))
    put("gateway.wire_us_mean", client_mean_us - handle_mean - codec, "us", len(handle))

    # stats
    record = t.durations("stats.record", US)
    put("stats.record_us_mean", stats.mean(record), "us", len(record))

    # service
    execute = t.durations("service.execute", US)
    self_us = t.self_times("service.execute", US)
    apply_ms = t.durations("service.apply", MS)
    put("service.execute_us_p50", stats.median(execute), "us", len(execute))
    put("service.self_us_mean", stats.mean(self_us), "us", len(self_us))
    put("service.apply_ms_p50", stats.median(apply_ms), "ms", len(apply_ms))

    # cache
    lookups = t.by_name.get("cache.lookup", [])
    lookup_us = t.durations("cache.lookup", US)
    rebase_us = t.durations("cache.rebase", US)
    put_us = t.durations("cache.put", US)
    region_hits = sum(1 for s in lookups if s[6] == "region")
    before = [s[6] for s in spans if s[1] == "cache.put" and s[2] < timed[0]]
    during = [s[6] for s in t.by_name.get("cache.put", ())]
    evictions = (max(during) - max(before, default=0)) if during else 0
    put("cache.lookup_us_p50", stats.median(lookup_us), "us", len(lookup_us))
    put("cache.rebase_us_p50", stats.median(rebase_us), "us", len(rebase_us))
    put("cache.put_us_p50", stats.median(put_us), "us", len(put_us))
    put("cache.region_hit_ratio", _ratio(region_hits, len(lookups)), "1", len(lookups))
    put("cache.evictions", evictions, "count", len(during))

    # invalidation
    sweep = t.durations("invalidation.sweep", MS)
    put("invalidation.sweep_ms_p50", stats.median(sweep), "ms", len(sweep))

    # engine: distributed coordinator, plus top-level calls of the unsharded oracle
    compute_ms = t.durations("engine.compute", MS)
    engine_queries = sum(s[6] or 0 for s in t.by_name.get("engine.compute", ()))
    oracle_ids = {s[0] for s in t.by_name.get("engine.oracle", ())}
    oracle_calls = sum(1 for s in t.by_name.get("engine.oracle", ()) if s[5] not in oracle_ids)
    put("engine.compute_ms_p50", stats.median(compute_ms), "ms", len(compute_ms))
    put("engine.compute_ms_p99", stats.nearest_rank(compute_ms, 99), "ms", len(compute_ms))
    put("engine.queries_per_call", _ratio(engine_queries, len(compute_ms)), "1", len(compute_ms))
    put("engine.oracle_calls", oracle_calls, "count", oracle_calls)

    # shards: (op, calls delivered, queries scored) per transport span
    transport = t.by_name.get("shards.map", []) + t.by_name.get("shards.call", [])
    shard_calls = sum(s[6][1] for s in transport)
    scored = sum(s[6][2] for s in transport)
    map_ms = t.durations("shards.map", MS)
    put("shards.map_ms_mean", stats.mean(map_ms), "ms", len(map_ms))
    put("shards.calls_per_query", _ratio(shard_calls, engine_queries), "1", engine_queries)
    put(
        "shards.topk_shards_per_query",
        _ratio(scored, engine_queries * SHARDS),
        "1",
        engine_queries,
    )

    # kernels
    scores_us = t.durations("kernels.fused_scores", US)
    topk_us = t.durations("kernels.fused_topk", US)
    scored_bytes = sum(s[6] for s in t.by_name.get("kernels.fused_scores", ()))
    put("kernels.fused_scores_us_mean", stats.mean(scores_us), "us", len(scores_us))
    put("kernels.fused_topk_us_mean", stats.mean(topk_us), "us", len(topk_us))
    put("kernels.bytes_per_query", _ratio(scored_bytes, engine_queries), "B", engine_queries)

    # storage
    plan_us = t.durations("storage.plan_for", US)
    builds = t.count("storage.plan_build")
    storage_apply = t.durations("storage.apply", MS)
    put("storage.plan_for_us_p50", stats.median(plan_us), "us", len(plan_us))
    put("storage.plan_for_ms_p99", stats.nearest_rank(plan_us, 99) / 1e3, "ms", len(plan_us))
    put("storage.plan_hit_ratio", 1.0 - _ratio(builds, len(plan_us)), "1", len(plan_us))
    put("storage.apply_ms_p50", stats.median(storage_apply), "ms", len(storage_apply))

    # runtime: the server's garbage collector
    gc_ms = t.durations("runtime.gc", MS)
    gen2 = t.count("runtime.gc", lambda s: s[6] == 2)
    put("runtime.gc_pause_ms_total", sum(gc_ms), "ms", len(gc_ms))
    put("runtime.gc_pause_ms_max", max(gc_ms, default=0.0), "ms", len(gc_ms))
    put("runtime.gc_gen2_count", gen2, "count", gen2)

    # The split of the closed-loop client mean (per query, microseconds).
    n_exec = max(len(execute_c), 1)
    stats_c = c.total("stats.record", US) / n_exec
    split = {
        "wire": out["gateway.wire_us_mean"][0],
        "codec": codec,
        "hop": hop - stats_c,
        "stats": stats_c,
        "service_self": stats.mean(c.self_times("service.execute", US)),
        "cache": (c.total("cache.lookup", US) + c.total("cache.put", US)) / n_exec,
        "engine": c.total("engine.compute", US) / n_exec,
    }
    return out, split


def durability(spans, window: Tuple[int, int]):
    """The durability server's metrics: WAL and fsyncs during the write
    probe, snapshots over the server's life (boot, every 8 writes, drain)."""
    t = Spans(spans, [window])
    wal = t.durations("durability.wal", MS)
    snapshots = [(s[3] - s[2]) / MS for s in spans if s[1] == "durability.snapshot"]
    fsyncs = t.count("durability.fsync")
    return {
        "durability.wal_ms_p50": (stats.median(wal), "ms", len(wal)),
        "durability.snapshot_ms_p50": (stats.median(snapshots), "ms", len(snapshots)),
        "durability.snapshots": (len(snapshots), "count", len(snapshots)),
        "durability.fsyncs_per_batch": (_ratio(fsyncs, len(wal)), "1", len(wal)),
    }
