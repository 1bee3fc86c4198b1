"""The correctness gate flags wrong answers and unordered writes."""

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import ImmutableRegionEngine
from repro.datasets.synthetic import generate_correlated
from repro.datasets.workloads import sample_queries
from repro.loadgen.schedule import sample_update_mutations
from repro.storage.index import InvertedIndex
from repro.storage.mutations import MutationBatch

import oracle
from inputs import K


def _reply(dataset, query, epoch=0):
    """A reply as the gateway renders it, from a fresh computation."""
    computation = ImmutableRegionEngine(InvertedIndex(dataset), method="cpt").compute(
        query, K, phi=0
    )
    return {
        "ok": True,
        "tier": "computed",
        "epoch": epoch,
        "result": [[int(t), float(s)] for t, s in zip(computation.result.ids, computation.result.scores)],
        "regions": {
            str(int(dim)): {"interval": list(computation.immutable_interval(dim))}
            for dim in computation.sequences
        },
    }


@pytest.fixture(scope="module")
def world():
    dataset = generate_correlated(n_tuples=400, n_dims=6, seed=1)
    queries = sample_queries(dataset, qlen=3, n_queries=3, seed=2).queries
    return dataset, queries


def test_right_answers_pass(world):
    dataset, queries = world
    checks = [(q, _reply(dataset, q)) for q in queries]
    assert oracle.check(dataset, checks) == []


def test_wrong_scores_ids_and_intervals_fail(world):
    dataset, queries = world
    good = _reply(dataset, queries[0])
    bad_score = copy.deepcopy(good)
    bad_score["result"][0][1] = np.nextafter(bad_score["result"][0][1], 2.0)
    bad_ids = copy.deepcopy(good)
    bad_ids["result"][0], bad_ids["result"][1] = bad_ids["result"][1], bad_ids["result"][0]
    bad_interval = copy.deepcopy(good)
    dim = next(iter(bad_interval["regions"]))
    bad_interval["regions"][dim]["interval"][1] += 1e-12
    missing = copy.deepcopy(good)
    missing["regions"].pop(dim)
    for reply in (bad_score, bad_ids, bad_interval, missing):
        assert oracle.check(dataset, [(queries[0], reply)]), reply
    # A region-tier reply carries only the interval it re-based.
    region = copy.deepcopy(good)
    region["tier"] = "region"
    region["regions"] = {dim: good["regions"][dim]}
    assert oracle.check(dataset, [(queries[0], region)]) == []


def test_replies_are_checked_at_their_epoch(world):
    dataset, queries = world
    writes = sample_update_mutations(dataset, n=3, seed=4)
    mutated = dataset.compacted()
    for mutation in writes:
        mutated.apply(MutationBatch((mutation,)))
    after = _reply(mutated, queries[1], epoch=3)
    before = _reply(dataset, queries[1], epoch=0)
    acks = [(1, writes[0]), (2, writes[1]), (3, writes[2])]
    assert oracle.check(dataset, [(queries[1], after), (queries[1], before)], acks) == []
    assert oracle.check(dataset, [(queries[1], after)], acks[::2])  # epochs not 1..n
    assert dataset.epoch == 0  # the base dataset is never mutated


def test_runs_refuse_a_checkout_without_the_program(tmp_path):
    bench = Path(oracle.__file__).parent
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "slider", "--seed", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 2 and run.stdout == ""
