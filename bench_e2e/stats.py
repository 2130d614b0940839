"""Pure helpers behind bench_e2e's metrics; test_stats.py covers them."""

import math

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of percentile p in n sorted samples. The product
    is rounded first so that, e.g., p99.9 of 10000 is rank 9990, not the
    9991 that binary floating point would give."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p):
    """Nearest-rank percentile p (0 < p <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the percentile-p sample."""
    return n - rank(n, p)


def supported(n, p):
    """True when at least MIN_BEYOND samples lie beyond percentile p."""
    return samples_beyond(n, p) >= MIN_BEYOND


def tail_percentile(n):
    """The highest candidate percentile with >= MIN_BEYOND samples beyond it,
    or None when even the median is not supported."""
    for p in TAIL_PERCENTILES:
        if supported(n, p):
            return p
    return None


def median(values):
    return percentile(values, 50.0)


def due_time_latencies(due, done, ok, end_ns):
    """Open-loop latency of each request, from its due time.

    A request that succeeded is timed due -> done. A failed, shed or expired
    request is a miss: it never got a usable answer, so it is charged as
    having waited until the end of the run (end_ns), which ranks it behind
    every answered request that was due at the same time or later."""
    out = []
    for d, e, good in zip(due, done, ok):
        out.append((e - d) if good else max(end_ns - d, e - d))
    return out


def generator_lateness(due, sent, done, inline):
    """How late the generator itself sent each request.

    With the inline path the sender is also the caller, so request i cannot
    be sent before request i-1 returned; only the delay beyond
    max(due_i, done_{i-1}) is the generator's own. With the asynchronous
    path the sender never waits for answers and lateness is sent - due."""
    out = []
    prev_done = None
    for d, s, e in zip(due, sent, done):
        ready = d if (not inline or prev_done is None) else max(d, prev_done)
        out.append(max(0, s - ready))
        prev_done = e
    return out


def covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover. spans are (trace, id, parent, name, start, end) tuples;
    parent 0 marks a root. Returns {id: (name, trace, self_ns)}."""
    children = {}
    for trace, sid, parent, name, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for trace, sid, parent, name, start, end in spans:
        kids = children.get(sid, ())
        out[sid] = (name, trace, (end - start) - covered(kids, start, end))
    return out


def self_time_by_trace(spans):
    """{trace: {name: self_ns}} summed over the spans of each trace."""
    out = {}
    for name, trace, self_ns in self_times(spans).values():
        per = out.setdefault(trace, {})
        per[name] = per.get(name, 0) + self_ns
    return out

