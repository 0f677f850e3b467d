"""Summary rules shared by every workload.

Kept free of any import from the package under test, so the rules can be
tested on their own.
"""

import math
import statistics
import time

import numpy as np

# Percentiles a tail latency may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond it.

    Returns None when even the median has fewer than ten samples above it.
    """
    best = None
    for p in PERCENTILE_LADDER:
        # Round before flooring: 1000 * 0.01 is 9.99... in binary floating point.
        if math.floor(round(n * (100.0 - p) / 100.0, 9)) >= MIN_BEYOND:
            best = p
    return best


def percentile_name(p):
    """``90.0 -> 'p90'``, ``99.9 -> 'p99.9'``."""
    return f"p{p:g}"


def nearest_rank(values, p):
    """Nearest-rank percentile; +inf entries sort last and stay +inf."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def op_latencies(seconds, failed):
    """Per-operation latencies in seconds, with failed operations at +inf."""
    return [math.inf if bad else s for s, bad in zip(seconds, failed)]


def latency_summary(seconds, failed):
    """Median and tail latency in ms, failures counted as +inf.

    The tail is the highest ladder percentile with at least ten samples
    beyond it; its key is None when the sample is too small for one.
    """
    lat = op_latencies(seconds, failed)
    tail = tail_percentile(len(lat))
    return {
        "n": len(lat),
        "p50_ms": 1e3 * nearest_rank(lat, 50.0),
        "tail": None if tail is None else percentile_name(tail),
        "tail_ms": None if tail is None else 1e3 * nearest_rank(lat, tail),
    }


def work_rate(work, seconds, failed):
    """Work of the successful operations over the wall time of all of them.

    A failed operation adds its time to the denominator and nothing to the
    numerator.
    """
    total = sum(seconds)
    done = sum(w for w, bad in zip(work, failed) if not bad)
    return done / total if total > 0 else 0.0


def self_times(start, end, parent):
    """Span duration minus the time covered by its direct children.

    ``parent`` holds each span's parent index, or -1 for a root.  Spans come
    from one thread's call stack, so siblings never overlap and the time
    children cover is the sum of their durations.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered.astype(np.int64)


# ---------------------------------------------------------------------------
# Host speed.  The VM's speed drifts by up to 1.8x over minutes with the load
# of its neighbours.  A fixed numpy workload, timed now and then between
# operations, tracks that drift; operation timings are scaled to the speed
# at which it takes REFERENCE_NOMINAL_MS.
# ---------------------------------------------------------------------------

REFERENCE_NOMINAL_MS = 12.0

def reference_kernel():
    """Fixed numpy work: a tiny-array leapfrog loop, then panel-sized arrays."""
    q = np.zeros((2, 2))
    p = np.ones((2, 2))
    prec = np.array([1.0, 4.0])
    for _ in range(400):
        p = p - 0.05 * q * prec[None, :]
        q = q + 0.1 * p
        energy = 0.5 * np.sum(p * p, axis=1) + 0.5 * np.sum(q * q * prec[None, :], axis=1)
        q = np.where(np.isfinite(energy)[:, None], q, 0.0)
    x = np.linspace(-3.0, 3.0, 48 * 225).reshape(48, 15, 15)
    w = np.linspace(0.1, 1.0, 15)
    total = float(q.sum())
    for _ in range(24):
        f = np.exp(-0.5 * x * x)
        comps = np.stack([f, x * f, x * x * f, np.exp(0.1 * x) * f], axis=-1)
        total += float(np.einsum("i,j,kijc->kc", w, w, comps).sum())
    return total


class HostSpeed:
    """Times `reference_kernel` between operations, never during one."""

    def __init__(self, every_s=0.25):
        self.at = []            # midpoint of each sample, perf_counter seconds
        self.ms = []            # its duration
        self.every_s = every_s
        self._next = 0.0

    def sample(self):
        if time.perf_counter() < self._next:
            return
        t = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.at.append(0.5 * (t + end))
        self.ms.append(1e3 * (end - t))
        self._next = end + self.every_s

    def median_ms(self):
        return statistics.median(self.ms)

    def scale(self, at=None, k=5):
        """Factor taking a time measured at ``at`` to the nominal host.

        Uses the median of the ``k`` samples nearest in time, or of all
        samples when ``at`` is None.
        """
        if at is None:
            return REFERENCE_NOMINAL_MS / self.median_ms()
        order = np.argsort(np.abs(np.asarray(self.at) - at))[:k]
        return REFERENCE_NOMINAL_MS / statistics.median(self.ms[i] for i in order)
