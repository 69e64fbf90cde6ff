"""Timing corrected for the speed of a shared host.

The benchmark's host is a small VM on a shared machine. As neighbours load
the machine, the VM runs the same code up to twice as slowly for seconds to
minutes at a time, and GEMMs and Python code slow down together: on a
2-vCPU x86-64 VM, a GEMM and a Python loop timed in turn each moved by
about 20% over three minutes while the ratio of the two stayed within 8%.

A fixed probe -- one (333, 500) @ (500, 500) float32 GEMM, the planner's
Q-trunk shape, then a 10k-iteration Python loop -- runs before every timed
operation and before every control step, so it samples the host's speed
through the run. An operation's time, less the probes run inside it, is
scaled by ``REF_S / p``, where ``p`` is the median probe time around the
operation: the result reads as the operation's time on a host where the
probe takes REF_S.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Probe time on an uncontended 2-vCPU x86-64 VM (numpy 2.4, OpenBLAS, one
# BLAS thread); corrected times on such a host read as wall time.
REF_S = 2.0e-3
# Probes that start within WINDOW_S of an operation describe its host
# speed; with fewer than MIN_PROBES there, the MIN_PROBES nearest are used.
WINDOW_S = 0.5
MIN_PROBES = 3
PROBE_SHAPE = (333, 500, 500)
PROBE_LOOP = 10_000


@dataclass(frozen=True)
class Interval:
    """One timed operation: its start and end, and its wall time less the probes inside."""

    start: float
    end: float
    seconds: float


class HostClock:
    """Times operations and corrects their times by the probes around them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        m, k, n = PROBE_SHAPE
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((m, k), dtype=np.float32)
        self._b = rng.standard_normal((k, n), dtype=np.float32)
        self.at, self.took = [], []
        self.spent = 0.0

    def probe(self) -> None:
        t0 = self.clock()
        self._a @ self._b
        x = 0
        for i in range(PROBE_LOOP):
            x += i
        self.record(t0, self.clock() - t0)

    def record(self, at: float, took: float) -> None:
        """Add a probe that started at ``at`` and took ``took`` seconds."""
        self.at.append(at)
        self.took.append(took)
        self.spent += took

    def start(self):
        """Probe, then mark the start of an operation."""
        self.probe()
        return self.clock(), self.spent

    def stop(self, mark) -> Interval:
        t0, spent0 = mark
        t1 = self.clock()
        return Interval(t0, t1, t1 - t0 - (self.spent - spent0))

    def factor(self, iv: Interval) -> float:
        """REF_S over the median time of the probes around ``iv``."""
        at = np.asarray(self.at)
        took = np.asarray(self.took)
        near = (at >= iv.start - WINDOW_S) & (at <= iv.end + WINDOW_S)
        if near.sum() < MIN_PROBES:
            gap = np.maximum(iv.start - at, at - iv.end)
            near = np.argsort(gap, kind="stable")[:MIN_PROBES]
        return REF_S / float(np.median(took[near]))

    def corrected(self, iv: Interval) -> float:
        return iv.seconds * self.factor(iv)
