"""Hardware instruction and cycle counts of a server process.

On a host shared with other machines, the instructions a core retires
per cycle move by up to half from one minute to the next, and wall times
drift with them by tens of percent, while the number of instructions the
server retires for a fixed stream of requests does not.  The benchmark
therefore bounds the server's work in retired user-space instructions
and reports times beside it.

:class:`Counters` attaches two ``perf_event_open(2)`` counters
(instructions and cycles, user space only, inherited by every thread and
child the process starts afterwards) to a process that has not yet
exec'd the program.  ``read()`` on an inherited counter sums the process
and every inheriting task, live or exited.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct
from typing import Tuple

#: The ``perf_event_open`` syscall number on x86-64.
_SYSCALL = 298
PERF_TYPE_HARDWARE = 0
PERF_COUNT_HW_CPU_CYCLES = 0
PERF_COUNT_HW_INSTRUCTIONS = 1
#: ``perf_event_attr`` flag bits.
_INHERIT, _EXCLUDE_KERNEL, _EXCLUDE_HV = 1 << 1, 1 << 5, 1 << 6
_ATTR_SIZE = 112  # PERF_ATTR_SIZE_VER5


class CountersUnavailable(RuntimeError):
    """The kernel or the virtual machine offers no hardware counters."""


def _open(pid: int, config: int) -> int:
    if platform.machine() != "x86_64":
        raise CountersUnavailable(f"perf_event_open: no syscall number for {platform.machine()}")
    attr = bytearray(_ATTR_SIZE)
    flags = _INHERIT | _EXCLUDE_KERNEL | _EXCLUDE_HV
    struct.pack_into("IIQQQQQ", attr, 0, PERF_TYPE_HARDWARE, _ATTR_SIZE, config, 0, 0, 0, flags)
    libc = ctypes.CDLL(None, use_errno=True)
    buffer = ctypes.create_string_buffer(bytes(attr), _ATTR_SIZE)
    fd = libc.syscall(_SYSCALL, buffer, pid, -1, -1, 0)
    if fd < 0:
        errno = ctypes.get_errno()
        raise CountersUnavailable(f"perf_event_open: {os.strerror(errno)}")
    return fd


class Counters:
    """Retired instructions and cycles of one process tree, user space."""

    def __init__(self, pid: int) -> None:
        self._fds = []
        try:
            for config in (PERF_COUNT_HW_INSTRUCTIONS, PERF_COUNT_HW_CPU_CYCLES):
                self._fds.append(_open(pid, config))
        except BaseException:
            self.close()
            raise

    def read(self) -> Tuple[int, int]:
        """``(instructions, cycles)`` since the counters were opened."""
        instructions, cycles = (struct.unpack("Q", os.read(fd, 8))[0] for fd in self._fds)
        return instructions, cycles

    def close(self) -> None:
        for fd in self._fds:
            os.close(fd)
        self._fds = []
