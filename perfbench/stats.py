"""Statistics the benchmark reports. Pure functions, tested in test_stats.py.

Timings are reported as a median, plus the highest percentile that still
has at least MIN_TAIL samples beyond it. A failed or refused request is an
infinite latency: it misses every latency limit.
"""

import math

MIN_TAIL = 10
FAILED = math.inf


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no values")
    mid = len(s) // 2
    if len(s) % 2:
        return s[mid]
    lo, hi = s[mid - 1], s[mid]
    if math.isinf(lo) or math.isinf(hi):
        return max(lo, hi)
    return (lo + hi) / 2


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - math.ceil(q / 100 * n)


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q < 100).

    Raises ValueError unless at least MIN_TAIL samples lie beyond it, so a
    reported tail percentile always rests on enough samples.
    """
    n = len(values)
    if n == 0 or samples_beyond(n, q) < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples has fewer than {MIN_TAIL} beyond it")
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * n) - 1)]


def open_loop(due_ms, sent_ms, done_ms):
    """Latency and generator lag of each open-loop request, in ms.

    Latency runs from when the request was due, not from when it was sent,
    so a stall of the generator or of the server is charged to every
    request it delayed. `done_ms` < 0 marks a failed or refused request,
    whose latency is FAILED. Lag is sent - due.
    """
    if not (len(due_ms) == len(sent_ms) == len(done_ms)):
        raise ValueError("open-loop arrays differ in length")
    latency = [d - due if d >= 0 else FAILED for due, d in zip(due_ms, done_ms)]
    lag = [s - due for due, s in zip(due_ms, sent_ms)]
    return latency, lag


def ratio_median(pairs):
    """Median of num/den over interleaved (num, den) pairs.

    Each pair was measured back to back, so its ratio cancels drift that a
    ratio of two separate medians would keep.
    """
    return median([num / den for num, den in pairs])


def outcome(attempted, failed):
    """(correct, attempted, failed): correct only when at least one
    operation ran and none failed."""
    attempted, failed = int(attempted), int(failed)
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return attempted >= 1 and failed == 0, attempted, failed
