"""A fixed reference computation that measures the machine's current speed.

The shared 2-core machine the benchmark runs on changes speed by 10-50%
over seconds to minutes, and CPU time follows wall time, so the slow-down
is contention on the host that no amount of repetition inside one run
removes.  The benchmark therefore times this kernel next to the program
and divides the program's times by the kernel's:

- during an operation, a timer signal runs a short kernel pass every
  ``SAMPLE_INTERVAL_S`` seconds in the main thread, between two bytecodes
  of the program (``Sampler``); the time spent in these passes is taken
  off the operation's wall time;
- each set-up pass, which takes milliseconds, is followed by kernel passes
  for about a third of its time, and scaled by them.

Timing the kernel only in bursts before and after an operation does not
work: the speed changes within seconds, and such a scale was no steadier
than the plain wall time.

The kernel does not import saddlesolve, so no change to the program can
change it.  It mixes the kinds of work the program does: pure-Python
elimination on sets with a heap, as in the minimum-degree ordering, and
sparse products and small dense vector operations, as in Crout and
FGMRES.
"""

from __future__ import annotations

import functools
import heapq
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp

# The kernel's usual pass in seconds on the 2-core Intel Xeon VM the
# baselines ran on.  Scaled times are wall times multiplied by
# REF_KERNEL_S / (the kernel's pass time next to them), so they read as
# seconds at that machine's usual speed; the constant cancels in any
# comparison.
REF_KERNEL_S = 0.0148
N = 300  # graph size; one pass takes about 15 ms
SAMPLE_INTERVAL_S = 0.5
_sampling_s = 0.0  # wall time every Sampler has spent so far


@functools.lru_cache(maxsize=1)
def _inputs():
    rng = np.random.default_rng(20201114)
    a = sp.random(N, N, density=6.0 / N, random_state=rng, format="csr")
    a = (a + a.T + sp.eye(N)).tocsr()
    adj = [frozenset(a.indices[a.indptr[i]:a.indptr[i + 1]].tolist()) - {i}
           for i in range(N)]
    return a, adj, rng.standard_normal(N)


def kernel() -> int:
    """One pass of the reference computation; returns a checksum."""
    a, adj0, x = _inputs()
    adj = [set(s) for s in adj0]
    heap = [(len(s), i) for i, s in enumerate(adj)]
    heapq.heapify(heap)
    done = [False] * N
    fill = 0
    for _ in range(N // 2):
        while True:
            d, p = heapq.heappop(heap)
            if not done[p] and d == len(adj[p]):
                break
        done[p] = True
        nb = {i for i in adj[p] if not done[i]}
        for i in nb:
            adj[i] |= nb
            adj[i] -= {i, p}
            if len(adj[i]) > 32:
                adj[i] = set(sorted(adj[i])[:32])
            heapq.heappush(heap, (len(adj[i]), i))
        fill += len(nb)
    y = x
    for _ in range(100):
        y = a @ y
        y = y / np.linalg.norm(y)
        fill += int(y[:8] @ y[:8] > 0.5)
    return fill


def timed_pass() -> float:
    """Wall time of one kernel pass."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(wall_s: float, samples: list[float]) -> float:
    """``wall_s`` at the reference speed, given kernel passes timed next to
    it.  The mean, not the median: the machine often switches between two
    speeds within an operation, and passes evenly spread over the
    operation's time average its slowness over that time."""
    return wall_s * REF_KERNEL_S / statistics.fmean(samples)


def program_clock() -> float:
    """``time.perf_counter()`` less the time spent sampling, so that spans
    around the program's calls leave the kernel passes out."""
    return time.perf_counter() - _sampling_s


class Sampler:
    """Runs a kernel pass every ``SAMPLE_INTERVAL_S`` seconds of wall time
    while it is entered.  ``samples`` holds the pass times and ``spent``
    the wall time taken by the signal handler, passes included."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _handle(self, signum, frame):
        global _sampling_s
        t0 = time.perf_counter()
        self.samples.append(timed_pass())
        spent = time.perf_counter() - t0
        self.spent += spent
        _sampling_s += spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # an operation that failed within the first interval
            self._handle(signal.SIGALRM, None)
        return False

    def scaled(self, wall_s: float) -> float:
        """``wall_s`` less the sampling time, at the reference speed."""
        return scale(wall_s - self.spent, self.samples)
