"""Boot, probe and stop one ``repro serve`` process.

The server runs from the checkout's ``src/`` in a process of its own,
either directly (``python -m repro serve``) or through the benchmark's
traced launcher (``perfbench/launcher.py``), which serves the same way
after wrapping each layer's public callables.  A shell holds the process
until its instruction and cycle counters are open, then execs the server,
so the counters cover everything the server does from its first
instruction on (:mod:`counters`).
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from counters import Counters
from inputs import SHARDS

_SERVING = re.compile(r"serving on ([0-9.]+):(\d+)")
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
#: Waits for one line on stdin, then execs its arguments.
HOLD = ["sh", "-c", 'read go && exec "$@"', "hold"]


def serve_args(seed: int, data_dir: Optional[Path] = None) -> List[str]:
    """The server configuration: ``repro serve`` defaults, in memory unless
    *data_dir* is given (then with the CLI's default snapshot cadence)."""
    args = ["serve", "--family", "st", "--shards", str(SHARDS), "--port", "0", "--seed", str(seed)]
    if data_dir is not None:
        args += ["--data-dir", str(data_dir)]
    return args


class Server:
    """A running server process and its bound port."""

    def __init__(
        self,
        root: Path,
        seed: int,
        data_dir: Optional[Path] = None,
        spans_out: Optional[Path] = None,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        args = serve_args(seed, data_dir)
        if spans_out is None:
            cmd = [sys.executable, "-u", "-m", "repro", *args]
        else:
            launcher = root / "perfbench" / "launcher.py"
            cmd = [sys.executable, "-u", str(launcher), str(spans_out), *args]
        self.counters = None
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            HOLD + cmd,
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.counters = Counters(self.proc.pid)
            self.proc.stdin.write("go\n")
            self.proc.stdin.close()
            self.proc.stdin = None  # communicate() must not flush it
            self.host, self.port = self._await_port()
            self.setup_s = self._first_ping() - self.spawned
            #: Instructions from exec to the first answered ``ping``.
            self.setup_instructions = self.counters.read()[0]
        except BaseException:
            self.kill()
            raise

    def _await_port(self):
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _SERVING.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("server exited or stalled before listening")

    def _first_ping(self) -> float:
        with socket.create_connection((self.host, self.port), timeout=BOOT_TIMEOUT) as sock:
            sock.sendall(b'{"op": "ping"}\n')
            reply = sock.makefile("rb").readline()
            answered = time.perf_counter()
        if not json.loads(reply).get("ok"):
            raise RuntimeError(f"bad ping reply {reply!r}")
        return answered

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then wait; kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
        self._close_counters()
        if self.proc.returncode not in (0, -signal.SIGTERM):
            raise RuntimeError(f"server exited with {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        self._close_counters()

    def _close_counters(self) -> None:
        if self.counters is not None:
            self.counters.close()
            self.counters = None
