"""Statistics the benchmark reports: weighted percentiles with a guaranteed
tail, open- and closed-loop latencies and rates, and self time of trace
spans."""

import statistics

MIN_BEYOND = 10


def reportable_percentile(count, want, min_beyond=MIN_BEYOND):
    """Highest percentile <= `want` that leaves at least `min_beyond` of
    `count` samples above it, or None when there are too few samples.

    Candidates are `want` and then the whole percentiles below it, so p99 is
    reported as p99 from 1000 samples on and as a lower percentile before.
    """
    q = float(want)
    while q >= 50.0:
        if count - nearest_rank(count, q) >= min_beyond:
            return q
        q = float(int(q) if q != int(q) else q - 1)
    return None


def nearest_rank(count, q):
    """1-based rank of the q-th percentile among `count` sorted samples."""
    rank = -(-count * q // 100)  # ceil without float error for integral q
    return max(1, int(rank))


def weighted_percentile(pairs, q):
    """q-th percentile (nearest rank) of (value, weight) pairs, where a pair
    stands for `weight` samples equal to `value`."""
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    if total <= 0:
        raise ValueError("no samples")
    rank = nearest_rank(total, q)
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= rank:
            return value
    return pairs[-1][0]


def latency_summary(pairs, tail=99.0):
    """Median and tail latency of (value, weight) pairs, with the tail
    percentile actually used and the sample count."""
    count = sum(w for _, w in pairs)
    q = reportable_percentile(count, tail)
    if q is None:
        raise ValueError(f"{count} samples are too few for a tail percentile")
    return {"p50": weighted_percentile(pairs, 50.0),
            "tail": weighted_percentile(pairs, q),
            "tail_q": q, "count": count}


def median_over_passes(passes, tail=99.0):
    """Latency summary of a run from its passes, each a list of (value,
    weight) pairs: every pass's median and tail, then the median of each
    across passes, so a slow stretch of a shared host moves one pass's
    figures instead of setting the tail of the whole run. Passes too short
    for the `tail` percentile are left out; if every pass is, they are
    pooled."""
    full = [p for p in passes if reportable_percentile(sum(w for _, w in p), tail) == tail]
    if not full:
        return latency_summary([x for p in passes for x in p], tail)
    per_pass = [latency_summary(p, tail) for p in full]
    return {"p50": statistics.median(s["p50"] for s in per_pass),
            "tail": statistics.median(s["tail"] for s in per_pass),
            "tail_q": float(tail), "count": sum(s["count"] for s in per_pass),
            "passes": len(per_pass)}


def open_loop_latencies(t0_ns, rate, batches, from_row=0):
    """Per-row latency of an open loop, ns: row i is due at t0 + i/rate and
    done when the batch that holds it commits. `batches` lists
    (rows, commit_ns) in commit order, covering rows 0, 1, 2, ... in turn.
    Rows before `from_row` are left out."""
    gap = 1e9 / rate
    out = []
    first = 0
    for rows, commit in batches:
        for i in range(max(first, from_row), first + rows):
            out.append((commit - (t0_ns + i * gap), 1))
        first += rows
    return out


def _batch_medians(passes):
    """Per batch index: (rows, median of commit - due across passes)."""
    times = {}
    rows = {}
    for batches in passes:
        for b, (n, due, commit) in enumerate(batches):
            times.setdefault(b, []).append(commit - due)
            rows[b] = n
    if not times:
        raise ValueError("no batches")
    return [(rows[b], statistics.median(t)) for b, t in sorted(times.items())]


def closed_loop_batch_latencies(passes):
    """(latency_ns, rows) per batch of a closed loop that hands over whole
    batches: every row of batch b is due when the batch is handed over and
    done when it returns; batch b's latency is its median across passes."""
    return [(t, n) for n, t in _batch_medians(passes)]


def closed_loop_rate(passes):
    """Rows per second of one pass over the input, from the median time of
    each batch across passes (batch b of every pass does the same work).
    A pass cut short by the deadline contributes to the batches it reached."""
    medians = _batch_medians(passes)
    return sum(n for n, _ in medians) / (sum(t for _, t in medians) / 1e9)


def open_loop_rate(p):
    """Rows per second an open-loop pass achieved after it settled: rows from
    `settle_rows` on, over the time from the first of them being due to the
    last commit."""
    settle = p.get("settle_rows", 0)
    last_commit = max(c for _, c in p["batches"])
    return (p["rows"] - settle) / ((last_commit - (p["t0_ns"] + settle * 1e9 / p["rate"])) / 1e9)


def self_times(spans):
    """Per span name: span count, calls, total and self time in ns. A span's
    self time is its duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        cur_s = cur_e = None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            cs, ce = max(c["start_ns"], start), min(c["end_ns"], end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        row = out.setdefault(s["name"], {"spans": 0, "calls": 0, "total_ns": 0, "self_ns": 0})
        row["spans"] += 1
        row["calls"] += s.get("calls", 1)
        row["total_ns"] += end - start
        row["self_ns"] += (end - start) - covered
    return out
