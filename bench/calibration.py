"""Host-speed calibration: a fixed loop timed next to every measurement.

On a shared host the speed available to one process drifts by tens of
percent over tens of seconds, and memory-heavy code (large dicts, many
small objects: the ingest and per-topic paths) slows more than code that
stays in cache.  A run therefore times a fixed calibration loop between
its operations and scales every time it took by REFERENCE_S / (median
of those loop times): the run is reported at the speed at which the
loop takes REFERENCE_S.  The median over a whole process follows the
slow drift without adding the loop's own second-to-second noise.

The loop is the benchmark's own code, never ipso's, so a change to ipso
cannot move it.  It looks up random keys in a dict of TABLE_SIZE
(topic, document) keys, builds tuples and a dict from them, then runs
numpy cumulative sums, comparisons and reductions over small int8
matrices (as the kernels do).  It runs in a helper process, started with
`Calibrator()` and driven over a pipe, so its table does not count
towards the peak RSS of the process being measured; the two never run
at the same time.  Raw wall times are kept beside the scaled ones.

Run as a script, this file is that helper: one loop per input line, one
elapsed time per output line.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
from time import perf_counter

#: Seconds the loop takes at the reference speed: a round figure near its
#: median on the machine that recorded BENCH_baseline.json.
REFERENCE_S = 0.05
TABLE_SIZE = 300_000
LOOKUPS = 20_000


class Calibrator:
    """A helper process that runs the calibration loop on request."""

    def __init__(self):
        self.samples: list = []
        self._process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        """Seconds one calibration loop takes now."""
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        self.samples.append(float(self._process.stdout.readline()))
        return self.samples[-1]

    def close(self) -> None:
        self._process.stdin.close()
        self._process.wait(timeout=30)
        self._process.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def scale(samples: list) -> float:
    """Factor that turns seconds measured beside these loop times into reference seconds."""
    return REFERENCE_S / statistics.median(samples)


def _serve() -> None:
    import numpy as np

    rng = random.Random(7)
    table = {(str(301 + i % 249), f"D{i:07d}"): i for i in range(TABLE_SIZE)}
    keys = rng.sample(list(table), LOOKUPS)
    bits = (np.arange(512 * 64).reshape(512, 64) * 2654435761 % 7 < 3).astype(np.int8)

    def loop() -> int:
        total = sum(table[key] for key in keys)
        rows = [(topic, doc, i) for i, (topic, doc) in enumerate(keys)]
        total += len({row[1]: row for row in rows})
        for _ in range(4):
            walk = np.cumsum(bits[:, None, :] - bits[None, :32, :], axis=2, dtype=np.int8)
            total += int(((walk > 0).any(axis=2) + 2 * (walk < 0).any(axis=2)).sum())
        return total

    loop()
    for _ in sys.stdin:
        start = perf_counter()
        loop()
        print(perf_counter() - start, flush=True)


if __name__ == "__main__":
    _serve()
