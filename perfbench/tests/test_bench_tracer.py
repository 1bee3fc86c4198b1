"""The traced launcher's wrapping: spans, nesting and restoration."""

import asyncio
import gc
import os

import tracer as tracer_mod
from tracer import Tracer, repro_targets


def _collect_targets():
    """(owner, attribute, original) for every attribute repro_targets patches."""
    probe = Tracer()
    repro_targets(probe)
    patched = [(owner, attr, original) for owner, attr, original in probe._patches]
    probe.uninstall()
    return patched


def test_launcher_restores_every_wrapped_callable():
    patched = _collect_targets()
    assert len(patched) >= 20
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patched]
    callbacks = list(gc.callbacks)
    tracer = Tracer()
    tracer.install(repro_targets)
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is not original, (owner, attr)
    tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert gc.callbacks == callbacks
    assert os.fsync.__name__ == "fsync" and not hasattr(os.fsync, "__wrapped_by_tracer__")


def test_spans_nest_per_thread():
    tracer = Tracer()

    def inner():
        return 7

    traced_inner = tracer.wrap(inner, "inner")

    def outer():
        return traced_inner() + traced_inner()

    traced_outer = tracer.wrap(outer, "outer", lambda args, kwargs, result: result)
    assert traced_outer() == 14
    spans = {s[1]: s for s in tracer.spans if s[1] == "outer"}
    outer_span = spans["outer"]
    children = [s for s in tracer.spans if s[1] == "inner"]
    assert len(children) == 2
    assert all(child[5] == outer_span[0] for child in children)
    assert outer_span[5] == -1 and outer_span[6] == 14
    assert all(outer_span[2] <= c[2] and c[3] <= outer_span[3] for c in children)


def test_coroutine_spans_stay_off_the_thread_stack():
    tracer = Tracer()
    sync_call = tracer.wrap(lambda: None, "sync")

    async def handler():
        await asyncio.sleep(0)
        sync_call()

    traced = tracer.wrap_async(handler, "async")
    asyncio.run(traced())
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["async"][5] == -1
    assert by_name["sync"][5] == -1  # not parented by the suspended coroutine


def test_spans_survive_a_dump(tmp_path):
    tracer = Tracer()
    tracer.wrap(lambda: None, "x", lambda a, k, r: ("topk", 1, 3))()
    path = tmp_path / "spans.bin"
    tracer.dump(str(path))
    (span,) = tracer_mod.load(str(path))
    assert span[1] == "x" and span[6] == ("topk", 1, 3)
