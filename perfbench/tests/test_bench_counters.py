"""Hardware counters follow a held process and every thread it starts."""

import subprocess
import sys

import pytest

from counters import Counters, CountersUnavailable
from server import HOLD

LOOP = """
import threading
def spin():
    acc = 0
    for i in range({n}):
        acc += i * i % 7
worker = threading.Thread(target=spin)
worker.start()
worker.join()
"""


def _instructions(n: int) -> int:
    proc = subprocess.Popen(
        HOLD + [sys.executable, "-c", LOOP.format(n=n)], stdin=subprocess.PIPE, text=True
    )
    try:
        counters = Counters(proc.pid)
    except CountersUnavailable as exc:
        proc.kill()
        proc.communicate()
        pytest.skip(str(exc))
    try:
        proc.communicate("go\n", timeout=60)
        assert proc.returncode == 0
        instructions, cycles = counters.read()
        assert cycles > 0
        return instructions
    finally:
        counters.close()


def test_counts_the_exec_d_program_and_its_threads():
    base = _instructions(0)
    one = _instructions(200_000)
    two = _instructions(400_000)
    # The loop runs in a thread started after exec: it is counted, and
    # twice the loop retires twice the instructions.
    assert one - base > 10_000_000
    assert 1.8 < (two - base) / (one - base) < 2.2
