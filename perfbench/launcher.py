"""Traced launcher: ``python launcher.py SPANS_OUT serve ARGS...``.

Wraps the layers listed in :func:`tracer.repro_targets`, runs the
ordinary ``repro`` command line (which serves until SIGTERM and drains),
restores every wrapped callable, and only then writes the spans it kept
in memory to *SPANS_OUT*.
"""

from __future__ import annotations

import sys

from tracer import Tracer, repro_targets


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    from repro.cli import main as repro_main

    tracer = Tracer()
    tracer.install(repro_targets)
    try:
        code = repro_main(cli_args)
    finally:
        tracer.uninstall()
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
