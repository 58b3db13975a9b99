"""CPU time of fixed reference work, sampled through a run.

The hosts this benchmark runs on share physical cores with other machines,
so the CPU time of the same work drifts by a fifth or more within minutes.
Two references run no quiverlab code, so no change to quiverlab moves them,
and each slows in step with one kind of work:

- ``process_reference``: a fresh interpreter importing numpy, timed from
  the rusage of the reaped child.  It tracks the start-up that dominates a
  fresh `quiverlab` process; it does not track computation inside a
  long-lived process.
- ``loop_reference``: a fixed pure-Python loop in the calling process, the
  median of three runs.  It tracks computation in a long-lived library
  process.

Every CPU time the benchmark gates on is multiplied by the reference's
nominal time over a sample of it taken next to the work: CPU seconds on a
host where the import takes ``REF_S`` and the loop ``LOOP_S``.
"""
from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from typing import Callable

REF_CMD = [sys.executable, "-c", "import numpy"]
REF_S = 0.30
LOOP_S = 0.0047
LOOP_EVERY_S = 0.25  # wall seconds between loop samples


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Reference:
    def __init__(self, measure: Callable[[], float], nominal_s: float, every_s: float = 0.0):
        self.measure, self.nominal_s, self.every_s = measure, nominal_s, every_s
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(self.measure())
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def scale(self, i: int = -1) -> float:
        """Factor that turns CPU seconds measured next to sample ``i`` into
        reference-host seconds."""
        return self.nominal_s / self.samples[i]


def process_reference(env: dict) -> Reference:
    def measure() -> float:
        c0 = children_cpu_s()
        subprocess.run(REF_CMD, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60)
        return children_cpu_s() - c0

    return Reference(measure, REF_S)


def _loop_once() -> float:
    t0 = time.process_time()
    d: dict[int, int] = {}
    for i in range(20000):
        k = (i * 7919) % 1013
        d[k] = d.get(k, 0) + i
    return time.process_time() - t0


def _loop_cpu_s() -> float:
    return statistics.median(_loop_once() for _ in range(3))


def loop_reference() -> Reference:
    return Reference(_loop_cpu_s, LOOP_S, LOOP_EVERY_S)
