"""Machine-speed gauge: fixed numpy and scipy kernels, timed between cycles.

On a machine whose cores are shared with other tenants, their load changes
the speed of every computation by up to a third over minutes, far more than
the change a regression bound should catch.  Between cycles the worker asks
this gauge to time three fixed kernels, one for each kind of work the
workloads do: a non-integer-order Bessel function on 12k points (special
function arithmetic, like the good-bad witness search), a cosine streamed
over an 8 MB array (memory bound, like the transform's kernel chunks) and a
256 x 256 power iteration (cache-resident BLAS, like the eigensolvers).
Times multiplied by NOMINAL_S / (gauge time around them) are *reference
seconds*: they follow the program's speed and not the neighbours' load.
The gauge uses no hconc code, so no change to the program moves it.

The gauge runs in its own process, so that its arrays do not count in the
measured process's peak memory; the caller waits while it runs.  Protocol:
each line read from stdin asks for one sample; the reply is its time in
seconds, the median of three timings.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# gauge time on an unloaded 2.1 GHz x86-64 core, roughly; it only fixes the
# unit of reference seconds, so it must never change
NOMINAL_S = 0.025


class Gauge:
    """Client side: starts the gauge process and collects its samples."""

    def __init__(self, env: dict):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.samples: list[float] = []

    def sample(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("gauge process ended")
        self.samples.append(float(reply))

    def scale(self) -> float:
        """Reference seconds per measured second, from the median sample."""
        return NOMINAL_S / statistics.median(self.samples)

    def scales(self) -> list[float]:
        """Reference seconds per measured second between each pair of
        consecutive samples."""
        g = self.samples
        return [2.0 * NOMINAL_S / (g[i] + g[i + 1]) for i in range(len(g) - 1)]

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()


def _serve() -> None:
    import numpy as np
    from scipy import special

    points = np.linspace(0.1, 300.0, 12_000)
    stream = np.linspace(0.0, 500.0, 1_000_000)
    out = np.empty_like(stream)
    a = np.random.default_rng(0).random((256, 256)) / 256.0
    v0 = np.ones(256)

    def once() -> float:
        start = perf_counter()
        special.jv(0.3, points)
        np.cos(stream, out=out)
        v = v0
        for _ in range(400):
            v = a.T @ (a @ v)
            v = v / np.linalg.norm(v)
        return perf_counter() - start

    once()  # first touch of the arrays, BLAS start-up
    for _ in sys.stdin:
        print(statistics.median(once() for _ in range(3)), flush=True)


if __name__ == "__main__":
    _serve()
