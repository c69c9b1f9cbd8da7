"""Host-speed probe: a fixed memory-heavy Python + numpy job.

The benchmark's host times are scaled by how fast this job runs next to
them, because the shared hosts it runs on drift by up to 2x over tens of
minutes (measured on a 2-vCPU Xeon VM: a paper-cells pass went from
2.7 to 1.5 Minstr/s while this job went from 0.095 to 0.20 s).  The job
mixes dict probes with a gather over a 64 MB array, like the simulator's
mix of Python objects and numpy traces; a small cache-resident loop
tracked the drift much worse.

It runs as a child process so its arrays stay out of the benchmark's
peak RSS: each line read from stdin runs the job once and answers with
its wall seconds.  The job is fixed benchmark code, so no change to the
simulator can move it.
"""

import sys
import time

import numpy as np


def make_job():
    rng = np.random.default_rng(0)
    table = rng.integers(0, 1 << 30, 8_000_000)
    index = rng.integers(0, len(table), 400_000)
    keys = rng.integers(0, 1 << 40, 300_000).tolist()
    lookup = {key: position for position, key in enumerate(keys)}
    probes = [keys[i] for i in rng.integers(0, len(keys), 200_000)]

    def job() -> int:
        total = 0
        for key in probes:
            total += lookup[key]
        for _ in range(4):
            total += int(table[index].sum())
        return total

    return job


def main() -> None:
    job = make_job()
    for _ in sys.stdin:
        start = time.perf_counter()
        job()
        print(f"{time.perf_counter() - start:.9f}", flush=True)


if __name__ == "__main__":
    main()
