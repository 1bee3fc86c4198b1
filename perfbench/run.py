"""Front-door benchmark of ``repro serve`` over loopback TCP.

    python3 perfbench/run.py --workload slider --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each run boots fresh servers from the
checkout's ``src/`` and drives one of them through fixed-count steps (a
warm-up, five rounds of a closed-loop and a fixed-rate open-loop segment,
and a write probe on the read-only mixes), checks sampled replies against
the oracle, and prints every metric with its unit and sample count.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` it carries the end-to-end metrics: the server's work
per request in retired instructions, its memory and its set-up; with
``--trace 1`` the per-layer metrics of a traced run, among them the
client-side times, which every run prints (see README.md).  Exit codes: 0
done; 1 a reply mismatched the oracle (the JSON still prints, with
``"correct": false``); 2 no program to measure here; 3 the generated
inputs do not match their pinned fingerprint; 4 the machine offers no
hardware counters to count the server's instructions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Tuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("server_kinstr_per_op", "kinstr"),
    ("setup_minstr", "Minstr"),
    ("server_rss_mb", "MiB"),
    ("setup_s", "s"),
)
#: (name, unit) of the wall-clock times a client sees.  Every run prints
#: them; the traced run reports them, from its untraced server, among the
#: per-layer metrics, because the host moves them too far to bound.
TIMES = (
    ("throughput_qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("mutation_p50_ms", "ms"),
    ("mutation_p90_ms", "ms"),
)
#: Server boots per run; ``setup_s`` is their median.
BOOTS = 5
#: Replies checked against the oracle per run.
CHECKS = 96


def calibrate() -> float:
    """A fixed CPU probe (ms, median of 5): flags a slow machine."""
    import numpy as np

    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        np.sort(np.random.default_rng(0).random(200_000))
        samples.append(time.perf_counter() - start)
    return sorted(samples)[2] * 1e3


def check_fingerprint(inputs, seconds: float) -> None:
    """Refuse inputs that differ from the pinned ones (exit code 3)."""
    from inputs import build

    pins = json.loads((HERE / "fingerprints.json").read_text())
    name, seed = inputs.workload.name, inputs.seed
    pinned = pins[name]
    if seconds == pins["seconds"] and str(seed) in pinned:
        if pinned[str(seed)] != inputs.fingerprint:
            sys.exit(_refuse(f"inputs of {name} seed {seed} changed: {inputs.fingerprint}"))
        return
    # Unpinned seed or length: the same generators must still reproduce
    # seed 0 at the pinned length.
    canary = build(inputs.workload, 0, pins["seconds"]).fingerprint
    if canary != pinned["0"]:
        sys.exit(_refuse(f"input generators changed: {name} seed 0 -> {canary}"))


def filesystem(path: Path) -> str:
    """``type (device, options)`` of the mount holding *path*."""
    best = ("?", "?", "?", "?")
    with open("/proc/mounts") as mounts:
        for entry in mounts:
            device, point, kind, options = entry.split()[:4]
            if str(path).startswith(point) and len(point) >= len(best[1]):
                best = (device, point, kind, options)
    return f"{best[2]} ({best[0]} on {best[1]}, {best[3]})"


def _refuse(message: str) -> int:
    print(f"fingerprint mismatch: {message}", file=sys.stderr)
    return 3


# -- driving ---------------------------------------------------------------


async def _counted(server, step):
    """Await *step*, recording what the server retired while it ran."""
    instructions, cycles = server.counters.read()
    result = await step
    after = server.counters.read()
    result.instructions, result.cycles = after[0] - instructions, after[1] - cycles
    return result


async def _drive(server, inputs) -> list:
    """Send every step of the run; ``[(phase, lo, hi, PhaseResult)]``."""
    from client import Client, quiet_gc

    client = Client(server.host, server.port)
    await client.open()
    out = []
    try:
        for phase, lo, hi, open_lo in inputs.phases.steps():
            payloads = inputs.payloads[lo:hi]
            if phase == "warmup":
                result = await client.closed_loop(payloads)
            elif phase == "closed":
                with quiet_gc():
                    result = await _counted(server, client.closed_loop(payloads))
            else:
                offsets = inputs.offsets[open_lo : open_lo + hi - lo]
                base = inputs.offsets[open_lo - 1] if open_lo else 0.0
                with quiet_gc():
                    result = await _counted(server, client.open_loop(payloads, offsets - base))
            out.append((phase, lo, hi, result))
        if inputs.phases.probe:
            # One writer on one connection: each ack is a clean service time.
            with quiet_gc():
                result = await _counted(
                    server, client.closed_loop(inputs.probe_payloads, client.conns[:1])
                )
            out.append(("probe", 0, inputs.phases.probe, result))
    finally:
        await client.close()
    return out


async def _drive_writes(server, payloads):
    from client import Client, quiet_gc

    client = Client(server.host, server.port)
    await client.open()
    try:
        with quiet_gc():
            return await client.closed_loop(payloads, client.conns[:1])
    finally:
        await client.close()


def _run(coroutine):
    from client import new_loop

    loop = new_loop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


def drive(server, inputs) -> list:
    return _run(_drive(server, inputs))


def drive_writes(server, payloads):
    """The write probe alone, one write at a time on one connection."""
    return _run(_drive_writes(server, payloads))


class Outcomes:
    """Decoded replies of every step, aligned with the operations sent.

    A row is ``(step, kind, op, latency or inf, reply dict or None)``;
    ``steps`` holds ``(phase, PhaseResult)`` in send order.
    """

    def __init__(self, inputs, steps: list) -> None:
        from stats import FAILED

        self.steps = [(phase, result) for phase, _, _, result in steps]
        self.rows = []
        self.by_step = []
        for index, (phase, lo, hi, result) in enumerate(steps):
            first = len(self.rows)
            if phase == "probe":
                ops, kinds = inputs.probe_ops[lo:hi], ["m"] * (hi - lo)
            else:
                ops, kinds = inputs.ops[lo:hi], inputs.kinds[lo:hi]
            for i, (op, kind) in enumerate(zip(ops, kinds)):
                raw = result.reply[i]
                reply = json.loads(raw) if raw else None
                ok = bool(reply and reply.get("ok"))
                latency = result.end[i] - result.start[i] if ok else FAILED
                self.rows.append((index, kind, op, latency, reply if ok else None))
            self.by_step.append(self.rows[first:])

    def of(self, phase: str, kind: str = None) -> list:
        """Rows of every *phase* step, one list per step."""
        return [
            [row for row in rows if kind in (None, row[1])]
            for (name, _), rows in zip(self.steps, self.by_step)
            if name == phase
        ]

    def results(self, *phases: str) -> list:
        return [result for name, result in self.steps if name in phases]

    def server_instructions(self, *phases: str) -> Tuple[float, int]:
        """Instructions the server retired per operation sent in *phases*,
        and the operation count."""
        results = self.results(*phases)
        ops = sum(len(result.reply) for result in results)
        return sum(result.instructions for result in results) / ops, ops

    def throughput(self) -> float:
        """Median over closed-loop segments of answered operations per second."""
        from stats import median

        return median(
            [
                sum(1 for row in rows if row[4] is not None) / result.wall
                for rows, result in zip(self.of("closed"), self.results("closed"))
            ]
        )

    def percentile_ms(self, phase: str, kind: str, q: float, pooled: bool = False) -> float:
        """The *q*-th latency percentile of *phase* rows: the median over its
        steps of each step's percentile, or of all steps pooled."""
        from stats import median, percentile

        samples = [[row[3] for row in rows] for rows in self.of(phase, kind)]
        if pooled:
            samples = [[x for sample in samples for x in sample]]
        return median([percentile(sample, q) for sample in samples]) * 1e3

    @property
    def attempted(self) -> int:
        return len(self.rows)

    @property
    def failed(self) -> int:
        return sum(1 for row in self.rows if row[4] is None)


def verify(inputs, outcomes: Outcomes, seed: int):
    """Oracle-check a deterministic sample of query replies."""
    import oracle

    answered = [row for row in outcomes.rows if row[1] == "q" and row[4] is not None]
    picked = oracle.sample_indices(len(answered), CHECKS, seed)
    writes = [
        (int(row[4]["epoch"]), row[2]) for row in outcomes.rows if row[1] == "m" and row[4]
    ]
    return oracle.check(
        inputs.dataset, [(answered[i][2], answered[i][4]) for i in picked], writes
    ), len(picked)


# -- reporting -------------------------------------------------------------


def line(name: str, value: float, unit: str, n=None) -> None:
    count = f"  (n={n})" if n is not None else ""
    print(f"  {name:<36} {value:>14.6g} {unit:<6}{count}")


def cheap_metrics(outcomes: Outcomes, calibration_ms: float, errors: int) -> dict:
    """Generator, machine and reply-derived metrics printed with every run."""
    import stats

    opens = outcomes.results("open")
    timed = outcomes.results("closed", "open", "probe")
    instructions = sum(r.instructions for r in timed)
    cycles = sum(r.cycles for r in timed)
    lags = [lag for result in opens for lag in result.fire_lag]
    timed_rows = [row for row in outcomes.rows if outcomes.steps[row[0]][0] != "warmup"]
    tiers = [row[4]["tier"] for row in timed_rows if row[1] == "q" and row[4]]
    acks = [row[4] for row in outcomes.rows if row[1] == "m" and row[4]]
    kept = sum(a["regions_kept"] for a in acks)
    evicted = sum(a["regions_evicted"] for a in acks)
    return {
        "loadgen.fire_lag_p99_ms": (stats.percentile(lags, 99) * 1e3, "ms", len(lags)),
        "loadgen.fire_lag_max_ms": (max(lags) * 1e3, "ms", len(lags)),
        "loadgen.backlog_max": (max(r.backlog_max for r in opens), "count", len(lags)),
        "loadgen.cpu_share": (
            sum(r.cpu for r in timed) / sum(r.wall for r in timed),
            "1",
            len(timed),
        ),
        "env.calibration_ms": (calibration_ms, "ms", 5),
        "env.server_ipc": (instructions / cycles, "1", len(timed)),
        "error_rate": (errors / outcomes.attempted, "1", outcomes.attempted),
        "service.region_share": (tiers.count("region") / len(tiers), "1", len(tiers)),
        "service.computed_share": (tiers.count("computed") / len(tiers), "1", len(tiers)),
        "invalidation.kept_ratio": (
            kept / (kept + evicted) if kept + evicted else 0.0,
            "1",
            len(acks),
        ),
        "storage.plans_dropped_per_mutation": (
            sum(a["plans_dropped"] for a in acks) / max(len(acks), 1),
            "1",
            len(acks),
        ),
    }


def times(inputs, outcomes: Outcomes) -> dict:
    """Capacity and latencies as the client sees them (:data:`TIMES`)."""
    writes = "open" if inputs.workload.writes else "probe"
    n_reads = sum(map(len, outcomes.of("open", "q")))
    n_writes = sum(map(len, outcomes.of(writes, "m")))
    return {
        "throughput_qps": (
            outcomes.throughput(),
            "1/s",
            sum(map(len, outcomes.of("closed"))),
        ),
        "query_p50_ms": (outcomes.percentile_ms("open", "q", 50), "ms", n_reads),
        "query_p99_ms": (outcomes.percentile_ms("open", "q", 99, pooled=True), "ms", n_reads),
        "mutation_p50_ms": (outcomes.percentile_ms(writes, "m", 50, pooled=True), "ms", n_writes),
        "mutation_p90_ms": (outcomes.percentile_ms(writes, "m", 90, pooled=True), "ms", n_writes),
    }


def end_to_end(outcomes: Outcomes, setups, rss_mb: float) -> dict:
    """The server's work per operation, its memory and its set-up
    (:data:`END_TO_END`); *setups* holds ``(seconds, instructions)`` per
    boot."""
    from stats import median

    per_op, n_ops = outcomes.server_instructions("closed", "open")
    return {
        "server_kinstr_per_op": (per_op / 1e3, "kinstr", n_ops),
        "setup_minstr": (median([i for _, i in setups]) / 1e6, "Minstr", len(setups)),
        "server_rss_mb": (rss_mb, "MiB", 1),
        "setup_s": (median([s for s, _ in setups]), "s", len(setups)),
    }


def per_layer(outcomes: Outcomes, untraced: Outcomes, spans, writes, durable_spans):
    """Span-derived metrics of the traced run plus the tracing overhead."""
    import layers
    import stats

    ns = lambda result: (int(result.t0 * 1e9), int(result.t1 * 1e9))
    timed = outcomes.results("closed", "open", "probe")
    closed = [ns(result) for result in outcomes.results("closed")]
    client_us = (
        stats.mean([row[3] for rows in outcomes.of("closed", "q") for row in rows if row[4]])
        * 1e6
    )
    metrics, split = layers.compute(
        spans, (ns(timed[0])[0], ns(timed[-1])[1]), closed, client_us
    )
    metrics.update(layers.durability(durable_spans, ns(writes)))
    plain, n_plain = untraced.server_instructions("closed")
    traced, n_traced = outcomes.server_instructions("closed")
    metrics["trace.overhead_pct"] = ((traced - plain) / plain * 100.0, "%", n_plain + n_traced)
    return metrics, split, client_us


# -- runs ------------------------------------------------------------------


def run_plain(inputs, seed: int):
    from server import Server

    setups = []
    for boot in range(BOOTS):
        server = Server(ROOT, seed)
        setups.append((server.setup_s, server.setup_instructions))
        if boot < BOOTS - 1:
            server.stop()
    try:
        steps = drive(server, inputs)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return steps, setups, rss


def run_traced(inputs, seed: int, scratch: Path):
    """An untraced run, the traced run, then the durability probe."""
    from server import Server
    from tracer import load

    plain = Server(ROOT, seed)
    try:
        untraced = drive(plain, inputs)
    finally:
        plain.stop()
    spans_path = scratch / "spans.bin"
    traced = Server(ROOT, seed, spans_out=spans_path)
    try:
        steps = drive(traced, inputs)
    finally:
        traced.stop()
    # The durability layer, timed on a server of its own with a data dir:
    # the write probe, WAL fsync before each ack, a snapshot every 8 writes.
    durable_path = scratch / "durable.bin"
    durable = Server(ROOT, seed, data_dir=scratch / "data", spans_out=durable_path)
    try:
        writes = drive_writes(durable, inputs.probe_payloads)
    finally:
        durable.stop()
    return untraced, steps, load(str(spans_path)), writes, load(str(durable_path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    from counters import Counters, CountersUnavailable

    try:
        Counters(os.getpid()).close()
    except CountersUnavailable as exc:
        print(f"cannot count the server's instructions: {exc}", file=sys.stderr)
        return 4
    sys.path.insert(0, str(ROOT / "src"))
    import inputs as inputs_mod

    workload = inputs_mod.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(inputs_mod.WORKLOADS)}")
    calibration_ms = calibrate()
    inputs = inputs_mod.build(workload, args.seed, args.seconds)
    check_fingerprint(inputs, args.seconds)
    ph = inputs.phases
    print(
        f"workload {workload.name}  seed {args.seed}  inputs {inputs.fingerprint[:16]}  "
        f"warm-up {ph.warmup}, then {inputs_mod.ROUNDS} rounds of closed {ph.closed} + "
        f"open {ph.open} @ {workload.rate:g}/s in all, probe {ph.probe}"
    )

    if args.trace:
        scratch = ROOT / ".perfbench-run" / f"{workload.name}-{args.seed}-{time.time_ns()}"
        scratch.mkdir(parents=True)
        print(f"durability probe data dir: {filesystem(scratch)}")
        try:
            untraced, steps, spans, writes, durable_spans = run_traced(inputs, args.seed, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                scratch.parent.rmdir()
            except OSError:
                pass
    else:
        steps, setups, rss = run_plain(inputs, args.seed)

    outcomes = Outcomes(inputs, steps)
    problems, n_checked = verify(inputs, outcomes, args.seed)
    for problem in problems[:10]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    errors = outcomes.failed + len(problems)
    cheap = cheap_metrics(outcomes, calibration_ms, errors)
    print(f"checked {n_checked} replies against the oracle: {len(problems)} mismatches")
    rates = [
        sum(1 for row in rows if row[4]) / result.wall
        for rows, result in zip(outcomes.of("closed"), outcomes.results("closed"))
    ]
    print("closed-loop segments (ops/s): " + ", ".join(f"{rate:.0f}" for rate in rates))
    print("every run:")
    for name, (value, unit, n) in cheap.items():
        line(name, value, unit, n)

    if args.trace:
        plain = Outcomes(inputs, untraced)
        clock = times(inputs, plain)
        print("client-side times (untraced server):")
        for name, (value, unit, n) in clock.items():
            line(name, value, unit, n)
        metrics, split, client_us = per_layer(outcomes, plain, spans, writes, durable_spans)
        print("per layer (traced run):")
        for name, (value, unit, n) in metrics.items():
            line(name, value, unit, n)
        metrics.update(cheap)
        metrics.update(clock)
        print(f"traced closed-loop client mean {client_us:.1f} us =")
        for part, value in split.items():
            line(part, value, "us")
        print(f"  (parts sum to {sum(split.values()):.1f} us)")
    else:
        print("client-side times:")
        for name, (value, unit, n) in times(inputs, outcomes).items():
            line(name, value, unit, n)
        metrics = end_to_end(outcomes, setups, rss)
        print("end to end:")
        for name, (value, unit, n) in metrics.items():
            line(name, value, unit, n)

    from stats import finite

    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": outcomes.attempted,
                "failed": errors,
                "metrics": {
                    name: {"value": finite(value), "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
