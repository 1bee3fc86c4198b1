"""Correctness gate: sampled replies, bit for bit, at the epoch each names.

Top-k ids and scores are checked against ``core/brute.brute_force_topk``
and every returned interval against a fresh unsharded
``ImmutableRegionEngine`` built over the dataset as of the reply's
epoch.  With writes, that dataset is rebuilt by applying the
acknowledged mutations in the epoch order their ``mutate`` replies
report.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.core.brute import brute_force_topk
from repro.core.engine import ImmutableRegionEngine
from repro.storage.index import InvertedIndex
from repro.storage.mutations import MutationBatch

from inputs import K


def sample_indices(n: int, size: int, seed: int) -> List[int]:
    """A deterministic sample of reply positions."""
    return sorted(random.Random(seed).sample(range(n), min(size, n)))


def _check(engine, dataset, query, reply: Dict) -> List[str]:
    problems = []
    brute = brute_force_topk(dataset, query, K)
    got_ids = [int(tid) for tid, _ in reply["result"]]
    got_scores = [float(score) for _, score in reply["result"]]
    if got_ids != [int(t) for t in brute.ids]:
        problems.append(f"top-k ids {got_ids} != {list(brute.ids)}")
    elif got_scores != [float(s) for s in brute.scores]:
        problems.append("top-k scores differ from brute force")
    fresh = engine.compute(query, K, phi=0)
    want = {
        str(int(dim)): [float(b) for b in fresh.immutable_interval(dim)]
        for dim in fresh.sequences
    }
    got = {dim: [float(b) for b in region["interval"]] for dim, region in reply["regions"].items()}
    # A region-tier reply re-bases one cached dimension and returns that
    # interval alone; every other tier returns all of them.
    if not got or (reply.get("tier") != "region" and got.keys() != want.keys()):
        problems.append(f"interval dims {sorted(got)} != {sorted(want)}")
    wrong = {dim: bounds for dim, bounds in got.items() if want.get(dim) != bounds}
    if wrong:
        problems.append(f"intervals {wrong} != {dict((d, want.get(d)) for d in wrong)}")
    return problems


def check(
    dataset,
    checks: Sequence[Tuple[object, Dict]],
    mutations: Sequence[Tuple[int, object]] = (),
) -> List[str]:
    """Check ``(query, reply)`` pairs; return a list of mismatch messages.

    *mutations* holds ``(epoch, mutation)`` for every acknowledged write.
    The base *dataset* is not modified.
    """
    problems: List[str] = []
    pending = sorted(mutations, key=lambda item: item[0])
    epochs = [epoch for epoch, _ in pending]
    if epochs != list(range(1, len(epochs) + 1)):
        problems.append(f"acknowledged epochs are not 1..{len(epochs)}: {epochs[:10]}...")
        return problems
    current = dataset.compacted()  # a private copy to mutate
    applied = 0
    engine = None
    for query, reply in sorted(checks, key=lambda item: item[1]["epoch"]):
        epoch = int(reply["epoch"])
        if epoch > len(pending):
            problems.append(f"reply names epoch {epoch} beyond the last write")
            continue
        while applied < epoch:
            current.apply(MutationBatch((pending[applied][1],)))
            applied += 1
            engine = None
        if engine is None:
            engine = ImmutableRegionEngine(InvertedIndex(current), method="cpt")
        problems += [f"epoch {epoch}: {p}" for p in _check(engine, current, query, reply)]
    return problems
