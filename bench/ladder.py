"""One-shot size ladder: ``build_gram`` time and peak memory by raw Gram dim.

Informational only (not a workload, not a gate).  Each rung runs in its
own process, one after another, on ``random_instance(seed=1, ...)`` with
the shapes of the ROADMAP baseline table.  Run from the repository root:

    python3 bench/ladder.py                 # print JSON lines
    python3 bench/ladder.py -o bench/ladder_baseline.json
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3  # build_gram timings per rung; the median is reported

# raw Gram dim = n * sum(d_b^2) * h1
RUNGS = (
    dict(n=3, block_dims=[3, 3], h1=4),  # 216
    dict(n=3, block_dims=[6], h1=4),     # 432
    dict(n=2, block_dims=[10], h1=4),    # 800
    dict(n=3, block_dims=[12], h1=4),    # 1728
)


def measure(rung: dict) -> dict:
    """Time ``build_gram`` on one rung in this process."""
    import numpy as np

    from cpdilate import build_gram, random_instance

    shape = dict(rung, mults=[1] * len(rung["block_dims"]), h2=4)
    inst = random_instance(seed=1, **shape)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        g = build_gram(inst.cp)
        times.append(time.perf_counter() - t0)
    return {
        **shape,
        "raw_dim": g.raw_dim,
        "r1": g.r1,
        "build_gram_s": statistics.median(times),
        "build_gram_runs_s": times,
        "rss_before_mb": rss_before,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rung", type=int, help="measure one rung in this process")
    parser.add_argument("-o", "--out", help="also write the results as a JSON list")
    args = parser.parse_args(argv)

    if args.rung is not None:
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(measure(RUNGS[args.rung])))
        return 0

    results = []
    for index in range(len(RUNGS)):
        proc = subprocess.run(
            [sys.executable, __file__, "--rung", str(index)],
            capture_output=True, text=True, check=True,
        )
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(json.dumps(results[-1]), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
