"""The load generator: one asyncio thread, at most two connections.

Phases are fixed operation counts.  A closed loop keeps one request in
flight per connection; an open loop releases requests at their scheduled
instants and times each from that instant, so a request that waits in
the generator for a free connection carries the wait.  Payloads arrive
pre-encoded, replies are stored raw and decoded after the phase, and the
generator's garbage collector is collected and frozen for the duration
of every timed phase (:func:`quiet_gc`).

The event loop uses ``select`` rather than ``epoll``: epoll rounds sleep
timeouts up to whole milliseconds, which would make the open loop fire
up to 1 ms late against sub-millisecond replies.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import selectors
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: A step still unanswered after this long means a hung server.
STEP_TIMEOUT = 60.0
CONNECTIONS = 2
#: The open loop's first arrival is this far after its start (seconds).
LEAD = 0.05


@dataclass
class PhaseResult:
    """Per-operation records of one step (index-aligned with its payloads).

    ``start[i]`` is the send time (closed loop) or the scheduled time
    (open loop); ``end[i]`` the reply time; ``reply[i]`` the raw reply
    line, or ``None`` when the connection failed first.  ``instructions``
    and ``cycles`` are what the server retired during the step.
    """

    start: List[float]
    end: List[float]
    reply: List[Optional[bytes]]
    wall: float = 0.0
    t0: float = 0.0
    t1: float = 0.0
    cpu: float = 0.0
    fire_lag: List[float] = field(default_factory=list)
    backlog_max: int = 0
    instructions: int = 0
    cycles: int = 0


def new_loop() -> asyncio.AbstractEventLoop:
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


@contextmanager
def quiet_gc():
    """Collect, freeze and disable the generator's GC for a timed phase."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Client:
    """Two JSON-lines connections to one gateway."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.conns: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def open(self) -> None:
        for _ in range(CONNECTIONS):
            self.conns.append(await asyncio.open_connection(self.host, self.port))

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
        for _, writer in self.conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.conns = []

    @staticmethod
    async def _roundtrip(conn, payload: bytes) -> Optional[bytes]:
        """Send one request and read its reply; ``None`` if the connection fails."""
        reader, writer = conn
        try:
            writer.write(payload)
            await writer.drain()
            line = await reader.readline()
        except (ConnectionError, OSError):
            return None
        return line or None

    @staticmethod
    async def _within_timeout(*workers) -> None:
        try:
            await asyncio.wait_for(asyncio.gather(*workers), STEP_TIMEOUT)
        except asyncio.TimeoutError:
            raise RuntimeError(f"server left a step unanswered for {STEP_TIMEOUT:g} s") from None

    async def closed_loop(self, payloads: Sequence[bytes], conns=None) -> PhaseResult:
        """Each connection (default: all) sends its next request as soon as
        a reply lands."""
        n = len(payloads)
        result = PhaseResult([0.0] * n, [0.0] * n, [None] * n)
        cursor = iter(range(n))

        async def worker(conn) -> None:
            for i in cursor:
                start = time.perf_counter()
                reply = await self._roundtrip(conn, payloads[i])
                result.start[i] = start
                result.end[i] = time.perf_counter()
                result.reply[i] = reply

        cpu0 = _cpu()
        result.t0 = time.perf_counter()
        await self._within_timeout(*(worker(conn) for conn in conns or self.conns))
        result.t1 = time.perf_counter()
        result.cpu = _cpu() - cpu0
        result.wall = result.t1 - result.t0
        return result

    async def open_loop(self, payloads: Sequence[bytes], offsets: Sequence[float]) -> PhaseResult:
        """Release request *i* at ``t0 + offsets[i]``; time it from then."""
        n = len(payloads)
        result = PhaseResult([0.0] * n, [0.0] * n, [None] * n)
        backlog: deque = deque()
        ready = asyncio.Event()
        done = False

        async def worker(conn) -> None:
            while True:
                while not backlog:
                    if done:
                        return
                    ready.clear()
                    await ready.wait()
                i = backlog.popleft()
                reply = await self._roundtrip(conn, payloads[i])
                result.end[i] = time.perf_counter()
                result.reply[i] = reply

        workers = [asyncio.ensure_future(worker(conn)) for conn in self.conns]
        cpu0 = _cpu()
        t0 = time.perf_counter() + LEAD
        result.t0 = t0
        lags = result.fire_lag
        for i in range(n):
            due = t0 + offsets[i]
            now = time.perf_counter()
            if due > now:
                await asyncio.sleep(due - now)
                now = time.perf_counter()
            lags.append(now - due)
            result.start[i] = due
            backlog.append(i)
            if len(backlog) > result.backlog_max:
                result.backlog_max = len(backlog)
            ready.set()
        done = True
        ready.set()
        await self._within_timeout(*workers)
        result.t1 = time.perf_counter()
        result.cpu = _cpu() - cpu0
        result.wall = result.t1 - t0
        return result
