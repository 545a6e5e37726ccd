"""The reference probe: a fixed pure-Python loop timed between jobs.

The benchmark runs on a few cores of a shared host, whose speed changes
by a factor of up to two within seconds as other tenants load it.  Both
flipproc and this probe slow down together, so the harness times the
probe between jobs and reports job times scaled to the speed at which
the probe takes ``REFERENCE_S``: a job time t measured while the probe's
median time in the same run is p is reported as t * REFERENCE_S / p.

The probe mixes what flipproc's hot loops do: bytecode arithmetic, dict
and tuple traffic, shifts and toggles on 2000-bit integers (a simulator
adjacency row) and exact Fraction sums (certificates).  It is the
benchmark's own code, and no flipproc code runs while it is timed.
"""

import statistics
import time
from fractions import Fraction

# the probe's median time in the runs the benchmark's bounds were set on
# (2 vCPUs of a shared x86-64 host, CPython 3.11)
REFERENCE_S = 0.0023

# probe time spent per second of job time
SHARE = 0.05

_ROW = (1 << 2000) // 3


def _work():
    acc = 0
    row = _ROW
    seen = {}
    total = Fraction(0)
    for i in range(2500):
        acc += (i * i) % 7
        seen[i & 63] = (acc, i)
        row ^= 1 << (i * 7 % 1999)
        acc += row >> (i * 13 % 1990) & 1
        if i % 25 == 0:
            total += Fraction(i % 5 + 1, 12)
    return acc, total


class Probe:
    """Times the probe after each job, so that probe time stays about
    SHARE of job time and its samples are spread over the whole run.  While
    a job waits for a child process, the probe runs during the wait
    instead (see `during_wait`)."""

    def __init__(self):
        self.samples = []
        self._owed = 0.0

    def _sample(self):
        t0 = time.perf_counter()
        _work()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self._owed -= elapsed
        return elapsed

    def after_job(self, job_seconds):
        self._owed += SHARE * job_seconds
        while self._owed > 0:
            self._sample()

    def during_wait(self):
        """One sample taken while a child process runs; returns the pause
        before the next, so that samples fill about SHARE of the wait."""
        return self._sample() * (1 / SHARE - 1)

    def speed(self):
        """REFERENCE_S over the median probe time: the factor that scales a
        measured time to the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
