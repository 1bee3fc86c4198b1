"""In-memory span recorder that wraps a layer's public callables from outside.

A span is ``(id, name, start_ns, end_ns, thread, parent, attr)``.  Times
come from ``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on Linux, so
comparable with the generator's clock in another process).  The parent
is the innermost open span on the same thread; coroutine spans
(``AsyncGateway.handle``) are recorded without entering the thread's
stack, because other requests run on the loop thread while one awaits.

:class:`Tracer.install` patches class methods on their class and module
functions in the namespace of each module that calls them, remembering
every original; :meth:`Tracer.uninstall` puts each one back.  No file of
the program is edited.
"""

from __future__ import annotations

import functools
import gc
import itertools
import marshal
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_start = 0

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn: Callable, name: str, attr: Optional[Callable] = None) -> Callable:
        """A synchronous wrapper recording one span per call.

        ``attr(args, kwargs, result)`` may derive a small value stored
        with the span (computed after the clock stops).
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                stack.pop()
                spans.append(
                    (
                        sid,
                        name,
                        start,
                        end,
                        threading.get_ident(),
                        parent,
                        attr(args, kwargs, result) if attr is not None else None,
                    )
                )

        traced.__wrapped_by_tracer__ = True
        return traced

    def wrap_async(self, fn: Callable, name: str, attr: Optional[Callable] = None) -> Callable:
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            sid = next(ids)
            start = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                spans.append(
                    (
                        sid,
                        name,
                        start,
                        _now(),
                        threading.get_ident(),
                        -1,
                        attr(args, kwargs, None) if attr is not None else None,
                    )
                )

        traced.__wrapped_by_tracer__ = True
        return traced

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_start = _now()
        else:
            self.spans.append(
                (
                    next(self._ids),
                    "runtime.gc",
                    self._gc_start,
                    _now(),
                    threading.get_ident(),
                    -1,
                    info.get("generation"),
                )
            )

    # -- patching ------------------------------------------------------

    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def patch_method(self, owner: type, method: str, name: str, attr=None) -> None:
        original = owner.__dict__[method]
        self.patch(owner, method, self.wrap(original, name, attr))

    def patch_function(self, module, function: str, name: str, attr=None) -> None:
        """Wrap *function* where *module* looks it up (its own namespace)."""
        self.patch(module, function, self.wrap(module.__dict__[function], name, attr))

    def install(self, targets) -> None:
        """Apply *targets* (a callable taking this tracer) and hook the GC."""
        targets(self)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first, and unhook the GC."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path: str) -> None:
        with open(path, "wb") as handle:
            marshal.dump({"pid": os.getpid(), "spans": self.spans}, handle)


def load(path: str) -> List[tuple]:
    with open(path, "rb") as handle:
        return marshal.load(handle)["spans"]


class _TracedJson:
    """Stands in for the ``json`` module inside one module's namespace."""

    def __init__(self, tracer: Tracer, module, prefix: str) -> None:
        self._module = module
        self.loads = tracer.wrap(module.loads, f"{prefix}.loads")
        self.dumps = tracer.wrap(module.dumps, f"{prefix}.dumps")

    def __getattr__(self, name: str):
        return getattr(self._module, name)


class _TracedTransport:
    """Wraps the shard transport ``make_transport`` returns: map/call by op."""

    def __init__(self, tracer: Tracer, transport) -> None:
        self._transport = transport
        self.map = tracer.wrap(transport.map, "shards.map", _map_attr)
        self.call = tracer.wrap(transport.call, "shards.call", _call_attr)

    def __getattr__(self, name: str):
        return getattr(self._transport, name)


def _map_attr(args, kwargs, result):
    calls = args[0]
    op = calls[0][1] if calls else ""
    # topk's 4th argument lists the query positions the shard scores.
    scored = sum(len(call[2][3]) for call in calls) if op == "topk" else 0
    return (op, len(calls), scored)


def _call_attr(args, kwargs, result):
    op = args[1]
    return (op, 1, len(args[2][3]) if op == "topk" else 0)


def _payload_op(args, kwargs, result):
    payload = args[1]
    return payload.get("op", "query") if isinstance(payload, dict) else None


def _tier(args, kwargs, result):
    return result[1] if result is not None else None


def _evictions(args, kwargs, result):
    return args[0].stats().evictions


def _n_queries(args, kwargs, result):
    return len(result) if result is not None else 0


def _scored_bytes(args, kwargs, result):
    block, weights = args[0], args[1]
    rows = weights.shape[0] if getattr(weights, "ndim", 1) == 2 else 1
    return int(block.nbytes) * rows


def repro_targets(tracer: Tracer) -> None:
    """The layers of ``repro serve`` this benchmark times (see README)."""
    from repro.core import distributed, engine
    from repro.service import cache, gateway, recovery, service, stats
    from repro.storage import plan, sharded

    # gateway: request handling plus the json calls the gateway module makes.
    tracer.patch(
        gateway.AsyncGateway,
        "handle",
        tracer.wrap_async(gateway.AsyncGateway.__dict__["handle"], "gateway.handle", _payload_op),
    )
    tracer.patch(gateway, "json", _TracedJson(tracer, gateway.json, "gateway"))
    # stats
    tracer.patch_method(stats.ServiceStats, "record", "stats.record")
    # service
    tracer.patch_method(service.QueryService, "execute_tiered", "service.execute", _tier)
    for owner in (service.QueryService, gateway.ShardedQueryService):
        tracer.patch_method(owner, "apply_mutations", "service.apply")
    # cache
    tracer.patch_method(cache.RegionCache, "lookup", "cache.lookup", _tier)
    tracer.patch_method(cache.RegionCache, "put", "cache.put", _evictions)
    tracer.patch_function(cache, "rebase_computation", "cache.rebase")
    # invalidation, where the service modules call it
    for module in (service, gateway):
        tracer.patch_function(module, "invalidate_region_cache", "invalidation.sweep")
    # engine: the distributed coordinator and the unsharded oracle path
    tracer.patch_method(distributed.DistributedEngine, "compute_many", "engine.compute", _n_queries)
    for method in ("compute_many", "compute"):
        tracer.patch_method(engine.ImmutableRegionEngine, method, "engine.oracle")
    # shards: the transport make_transport returns
    for module in (gateway, distributed):
        original = module.make_transport

        def make_transport(*args, _original=original, **kwargs):
            return _TracedTransport(tracer, _original(*args, **kwargs))

        tracer.patch(module, "make_transport", make_transport)
    # kernels, as core/distributed calls them
    tracer.patch_function(distributed, "fused_scores", "kernels.fused_scores", _scored_bytes)
    tracer.patch_function(distributed, "fused_topk", "kernels.fused_topk")
    # storage
    tracer.patch_method(plan.SubspacePlanCache, "plan_for", "storage.plan_for")
    tracer.patch_method(plan.SubspacePlan, "__init__", "storage.plan_build")
    tracer.patch_method(sharded.ShardedIndex, "apply", "storage.apply")
    # durability, with every fsync the process makes
    tracer.patch_method(recovery.DurabilityManager, "log", "durability.wal")
    tracer.patch_method(recovery.DurabilityManager, "snapshot", "durability.snapshot")
    tracer.patch(os, "fsync", tracer.wrap(os.fsync, "durability.fsync"))
