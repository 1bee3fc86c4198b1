"""Regenerate ``fingerprints.json``: the pinned input fingerprints.

    python3 perfbench/pin_fingerprints.py [N_SEEDS]

Run from the root of a checkout.  Pins seeds 0..N_SEEDS-1 (default 32)
of every workload at the ``run_seconds`` of ``BENCHMARK.json``: the
fingerprint covers every byte a run sends, so it depends on the run's
length.  Only a change that means to alter the benchmark's inputs should
rewrite this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from inputs import WORKLOADS, build

    n_seeds = int(argv[0]) if argv else 32
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    pinned = {"seconds": seconds}
    for name, workload in WORKLOADS.items():
        pinned[name] = {
            str(seed): build(workload, seed, seconds).fingerprint for seed in range(n_seeds)
        }
    (HERE / "fingerprints.json").write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
