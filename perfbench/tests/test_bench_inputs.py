"""Seeded inputs: reproducible, prefix-stable and pinned in full."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import inputs
import run

PINNED = json.loads((Path(inputs.__file__).parent / "fingerprints.json").read_text())


def test_fingerprint_stable_across_two_generations():
    for workload in inputs.WORKLOADS.values():
        first = inputs.build(workload, 3, 1.0)
        second = inputs.build(workload, 3, 1.0)
        assert first.fingerprint == second.fingerprint
        assert first.payloads == second.payloads
        assert np.array_equal(first.offsets, second.offsets)


def test_fingerprint_covers_everything_a_run_sends():
    slider = inputs.WORKLOADS["slider"]
    short = inputs.build(slider, 5, 1.0)
    longer = inputs.build(slider, 5, 3.0)
    assert inputs.build(slider, 6, 1.0).fingerprint != short.fingerprint
    # A longer run extends the same streams, and sends more of them.
    assert longer.payloads[: len(short.payloads) // 2] == short.payloads[: len(short.payloads) // 2]
    assert longer.fingerprint != short.fingerprint
    # The last byte of every stream counts, not only a prefix.
    for stream in ("payloads", "probe_payloads"):
        tampered = inputs.build(slider, 5, 1.0)
        getattr(tampered, stream)[-1] = getattr(tampered, stream)[-1].replace(b"}", b" }")
        assert inputs.fingerprint(tampered) != short.fingerprint, stream
    tampered = inputs.build(slider, 5, 1.0)
    tampered.offsets[-1] += 1e-9
    assert inputs.fingerprint(tampered) != short.fingerprint


@pytest.fixture(scope="module")
def seed0():
    """Seed 0 of every workload at the pinned length."""
    return {name: inputs.build(w, 0, PINNED["seconds"]) for name, w in inputs.WORKLOADS.items()}


def test_pinned_fingerprints_match_the_generators(seed0):
    for name, built in seed0.items():
        assert built.fingerprint == PINNED[name]["0"], name


def test_runs_refuse_changed_inputs(seed0):
    built = seed0["slider"]
    run.check_fingerprint(built, PINNED["seconds"])
    payloads = built.payloads[:-1] + [built.payloads[-1].replace(b"}", b" }")]
    changed = dataclasses.replace(built, payloads=payloads)
    changed.fingerprint = inputs.fingerprint(changed)
    with pytest.raises(SystemExit) as refused:
        run.check_fingerprint(changed, PINNED["seconds"])
    assert refused.value.code == 3


def test_churn_sends_one_write_per_hundred_queries():
    churn = inputs.build(inputs.WORKLOADS["churn"], 0, 1.0)
    writes = [i for i, kind in enumerate(churn.kinds) if kind == "m"]
    assert writes[:3] == [100, 201, 302]
    assert len(churn.payloads) == churn.phases.total
    assert all(b'"op": "mutate"' in churn.payloads[i] for i in writes)
    open_steps = [(lo, hi) for phase, lo, hi, _ in churn.phases.steps() if phase == "open"]
    assert sum(1 for i in writes if any(lo <= i < hi for lo, hi in open_steps)) >= 100


def test_steps_cover_the_stream_in_send_order():
    for workload in inputs.WORKLOADS.values():
        phases = inputs.phases_for(workload, 25)
        steps = phases.steps()
        assert [s[0] for s in steps] == ["warmup"] + ["closed", "open"] * inputs.ROUNDS
        assert steps[0][1] == 0 and steps[-1][2] == phases.total
        assert all(a[2] == b[1] for a, b in zip(steps, steps[1:]))
        opens = [s for s in steps if s[0] == "open"]
        assert sum(hi - lo for _, lo, hi, _ in opens) == phases.open
        assert [s[3] for s in opens] == [
            sum(hi - lo for _, lo, hi, _ in opens[:i]) for i in range(len(opens))
        ]
        # the pooled open loop supports its p99
        per_write = inputs.CHURN_EVERY + 1 if workload.writes else 10**9
        reads = [hi - lo - (hi - lo) // per_write for _, lo, hi, _ in opens]
        assert sum(reads) >= 1000


def test_read_only_mixes_close_with_a_write_probe():
    for name in ("slider", "cold"):
        built = inputs.build(inputs.WORKLOADS[name], 0, 1.0)
        assert set(built.kinds) == {"q"}
        assert len(built.probe_payloads) == inputs.PROBE_WRITES
        assert built.phases.open >= 1000
        assert len(set(built.payloads)) == len(built.payloads), "no query repeats in a run"


def test_cold_queries_spread_over_subspaces():
    built = inputs.build(inputs.WORKLOADS["cold"], 0, 1.0)
    subspaces = {tuple(op.dims) for op in built.ops}
    # 495 subspaces of 4 of 12 dimensions: far more than a 32-plan cache holds
    assert len(subspaces) > 100
