"""Workload definitions and their seeded inputs.

Each workload is a traffic mix against one server configuration.  Its
inputs -- the served dataset, the operation stream, the mutation stream
and the open-loop arrival schedule -- come from the repository's own
seeded generators, called with fixed arguments, and are encoded to wire
bytes before any timing starts.  :func:`fingerprint` hashes every byte a
run sends, so a change to a generator shows up as a refused run rather
than as a silent change of what is measured.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.datasets.synthetic import generate_correlated
from repro.datasets.workloads import sample_queries, slider_drag
from repro.loadgen.schedule import sample_update_mutations

#: The dataset ``repro serve --family st --seed S`` builds.
N_TUPLES, N_DIMS = 10_000, 12
SHARDS = 4
QLEN = 4
K = 10

#: One mutation per this many queries in ``churn``.
CHURN_EVERY = 100
#: Mutations in the write probe (after the rounds of a read-only workload,
#: and against the traced run's durability server).
PROBE_WRITES = 120


@dataclass(frozen=True)
class Workload:
    name: str
    #: Nominal closed-loop throughput at the commit that defined the
    #: benchmark (ops/s).  Sizes the fixed-count phases only.
    capacity: float
    #: Fixed open-loop rate (ops/s), about a fifth of ``capacity``.
    rate: float
    #: Warm-up operations: enough to fill the 1,024-entry region cache.
    warmup: int
    writes: bool  # mutations interleaved with the reads
    #: The query stream: ``slider`` (drags) or ``cold`` (independent queries).
    stream: str = "slider"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("slider", 4000.0, rate=800.0, warmup=12_000, writes=False),
        Workload("cold", 500.0, rate=100.0, warmup=1_200, writes=False, stream="cold"),
        Workload("churn", 2600.0, rate=500.0, warmup=12_000, writes=True),
    )
}


#: Alternations of a closed-loop and an open-loop segment per run.  The
#: machine slows down for seconds at a time; interleaving spreads such a
#: spell over both phases and the per-round medians shed it.
ROUNDS = 5


@dataclass(frozen=True)
class Phases:
    """Operation counts of one run (fixed by workload and ``--seconds``)."""

    warmup: int
    closed: int
    open: int
    probe: int  # write-probe mutations after the rounds (read-only mixes)

    @property
    def total(self) -> int:
        return self.warmup + self.closed + self.open

    def steps(self) -> List[Tuple[str, int, int, int]]:
        """``(phase, lo, hi, open_lo)`` stream slices in send order: the
        warm-up, then :data:`ROUNDS` alternations of a closed-loop segment
        and an open-loop segment.  ``open_lo`` indexes the arrival schedule."""

        def share(count: int, r: int) -> int:
            return round((r + 1) * count / ROUNDS) - round(r * count / ROUNDS)

        steps = [("warmup", 0, self.warmup, 0)]
        at = self.warmup
        opened = 0
        for r in range(ROUNDS):
            closed, open_ = share(self.closed, r), share(self.open, r)
            steps.append(("closed", at, at + closed, 0))
            steps.append(("open", at + closed, at + closed + open_, opened))
            at += closed + open_
            opened += open_
        return steps


def phases_for(workload: Workload, seconds: float) -> Phases:
    """Fixed operation counts: a warm-up that fills the region cache, then
    ~20% of *seconds* in closed-loop and ~60% in open-loop segments at the
    workload's nominal rates.  The open loop holds >= 1,000 queries (its
    pooled p99); with writes it holds >= 100 mutations (p90)."""
    open_ops = max(1000, round(workload.rate * seconds * 0.6))
    if workload.writes:
        open_ops = max(open_ops, 102 * (CHURN_EVERY + 1))
    return Phases(
        warmup=workload.warmup,
        closed=max(ROUNDS * 100, round(workload.capacity * seconds * 0.2)),
        open=open_ops,
        probe=0 if workload.writes else PROBE_WRITES,
    )


@dataclass
class Inputs:
    """Everything a run sends, encoded before timing."""

    workload: Workload
    seed: int
    phases: Phases
    dataset: object  # repro.datasets.base.Dataset
    #: Wire payloads in send order; ``kinds[i]`` is "q" or "m".
    payloads: List[bytes]
    kinds: List[str]
    #: The structured operations (Query objects or Mutation objects).
    ops: list
    #: Write-probe payloads and their mutations (sent after the open loop
    #: by the read-only mixes, and to the traced run's durability server).
    probe_payloads: List[bytes] = field(default_factory=list)
    probe_ops: list = field(default_factory=list)
    #: Open-loop arrival offsets (seconds from the phase start).
    offsets: Optional[np.ndarray] = None
    fingerprint: str = ""


def query_payload(query) -> bytes:
    return (
        json.dumps(
            {
                "op": "query",
                "dims": [int(d) for d in query.dims],
                "weights": [float(w) for w in query.weights],
            }
        ).encode()
        + b"\n"
    )


def mutation_payload(mutation) -> bytes:
    return (
        json.dumps(
            {
                "op": "mutate",
                "mutations": [
                    {
                        "kind": "update",
                        "id": int(mutation.tuple_id),
                        "dim": int(mutation.dims[0]),
                        "value": float(mutation.values[0]),
                    }
                ],
            }
        ).encode()
        + b"\n"
    )


def _slider_stream(dataset, seed: int, n: int) -> list:
    """*n* queries of the slider stream."""
    # Each anchor yields ~42 queries (anchor + 40 ticks + ~5% cold).
    anchors = n // 40 + 2
    while True:
        queries = slider_drag(
            dataset,
            qlen=QLEN,
            n_anchors=anchors,
            drags_per_anchor=40,
            seed=seed,
            cold_fraction=0.05,
            cold_signatures=8,
        ).queries
        if len(queries) >= n:
            return list(queries[:n])
        anchors += anchors // 4 + 1


def _cold_stream(dataset, seed: int, n: int) -> list:
    """*n* independent queries: a fresh random subspace and weights each."""
    return list(sample_queries(dataset, qlen=QLEN, n_queries=n, seed=seed).queries)


STREAMS = {"slider": _slider_stream, "cold": _cold_stream}


def arrival_offsets(seed: int, rate: float, n: int) -> np.ndarray:
    """Seeded Poisson arrivals at *rate*: cumulative exponential gaps."""
    rng = np.random.default_rng([seed, 0x0A11])
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def build(workload: Workload, seed: int, seconds: float) -> Inputs:
    phases = phases_for(workload, seconds)
    dataset = generate_correlated(n_tuples=N_TUPLES, n_dims=N_DIMS, seed=seed)
    total = phases.total
    n_mutations = total // (CHURN_EVERY + 1) if workload.writes else 0
    n_queries = total - n_mutations
    queries = STREAMS[workload.stream](dataset, seed, n_queries)
    mutations = sample_update_mutations(
        dataset, n=max(n_mutations, PROBE_WRITES), seed=seed + 17
    )
    ops: list = []
    kinds: List[str] = []
    qi = mi = 0
    for i in range(total):
        if workload.writes and i % (CHURN_EVERY + 1) == CHURN_EVERY:
            ops.append(mutations[mi])
            kinds.append("m")
            mi += 1
        else:
            ops.append(queries[qi])
            kinds.append("q")
            qi += 1
    payloads = [
        query_payload(op) if kind == "q" else mutation_payload(op)
        for op, kind in zip(ops, kinds)
    ]
    probe_ops = list(mutations[:PROBE_WRITES])
    inputs = Inputs(
        workload=workload,
        seed=seed,
        phases=phases,
        dataset=dataset,
        payloads=payloads,
        kinds=kinds,
        ops=ops,
        probe_payloads=[mutation_payload(m) for m in probe_ops],
        probe_ops=probe_ops,
        offsets=arrival_offsets(seed, workload.rate, phases.open),
    )
    inputs.fingerprint = fingerprint(inputs)
    return inputs


def fingerprint(inputs: Inputs) -> str:
    """SHA-256 over the served data's fingerprint and everything the run
    sends: every payload in send order, the write probe and the arrival
    schedule.  It depends on the run's length, so pins are per ``--seconds``."""
    digest = hashlib.sha256()
    digest.update(inputs.dataset.fingerprint().encode())
    for part in (inputs.payloads, inputs.probe_payloads):
        digest.update(len(part).to_bytes(8, "little"))
        for payload in part:
            digest.update(payload)
    digest.update(np.ascontiguousarray(inputs.offsets, dtype="<f8").tobytes())
    return digest.hexdigest()
