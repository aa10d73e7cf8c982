"""Turns perfbench's raw records into the benchmark's metrics.

The C++ program (perfbench.cpp) writes one JSON object per line: a "setup"
record, a "req" record per request, "span" records of the traced pass,
"counters" at the end of the exact prefix and an "end" record. Everything
here is a pure function of those records, so the unit tests in
test_metrics.py can pin it down.

Passes: pass 0 is the untraced stream, pass 1 the traced replay of the same
requests (only with --trace 1); span pass 2 holds the write probe's spans.
"""

import math
import re
import statistics

# Name and unit of every reported metric. BENCHMARK.json lists the same
# names and units (test_metrics checks that they agree).
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "ti_query_p50_ms": "ms",
    "throughput_qps": "1/s",
    "ingest_p50_ms": "ms",
    "delete_p50_ms": "ms",
    "ndcg_at_10": "ratio",
    "peak_rss_mb": "MB",
    "disk_bytes_per_image": "bytes",
}

PER_LAYER = {
    "core.encode_us": "us",
    "planner.plan_us": "us",
    "planner.lossy_frac": "ratio",
    "planner.estimate_ratio": "ratio",
    "access.generate_ms": "ms",
    "access.generated_per_query": "count",
    "access.nodes_per_query": "count",
    "access.kept_frac": "ratio",
    "scan.ms": "ms",
    "scan.scored_per_query": "count",
    "scan.pruned_frac": "ratio",
    "scan.band_rejected_frac": "ratio",
    "scan.ti_ms": "ms",
    "scan.ti_scored_per_query": "count",
    "lcs.pair_us": "us",
    "lcs.bounded_pair_us": "us",
    "lcs.ti_pair_us": "us",
    "cache.key_us": "us",
    "cache.hit_us": "us",
    "cache.hit_frac": "ratio",
    "cache.delta_frac": "ratio",
    "cache.miss_frac": "ratio",
    "cache.delta_us": "us",
    "cache.delta_rescored_per_refresh": "count",
    "cache.miss_ms": "ms",
    "cache.evictions_per_1k": "count",
    "db.add_us": "us",
    "db.remove_us": "us",
    "db.candidates_us": "us",
    "group_commit.wait_ms": "ms",
    "group_commit.syncs_per_delete": "ratio",
    "group_commit.deletes_per_record": "ratio",
    "storage.load_s": "s",
    "index.build_s": "s",
    "storage.bytes_per_image": "bytes",
    "shard.fanout_ms": "ms",
    "shard.scored_per_query": "count",
    "net.overhead_ms": "ms",
    "net.scored_per_query": "count",
    "net.extra_scored_frac": "ratio",
    "net.degraded_frac": "ratio",
    "net.server_start_s": "s",
    "trace.overhead_ms": "ms",
    "trace.coverage_frac": "ratio",
}

LOSSY_PATHS = {"rtree_window", "combined", "hybrid"}

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name):
    """True for a name of at most 64 of [A-Za-z0-9_.-], starting alnum."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def median(values):
    """Median of a non-empty sequence; 0.0 for an empty one (a layer the
    workload never exercises does no work)."""
    return statistics.median(values) if values else 0.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# The percentile query_tail_ms reports on each workload: the highest of
# p99.9, p99 and p90 that leaves at least 10 identity queries beyond it on
# every run at the benchmark's run length (20 s), even on a box half as
# fast. Fixed per workload, so a run never flips between two percentiles.
# At 20 s query-1e5 completes ~340 identity queries, remote-1e5 ~700 and
# live-zipf ~12 000 (p99.9 would need 10 010).
TAIL_PERCENTILE = {"query-1e5": 90.0, "remote-1e5": 90.0, "live-zipf": 99.0}


def nearest_rank(samples, p, min_beyond=10):
    """The p-th percentile of `samples` by nearest rank: the sample at
    1-based rank ceil(p/100 * n) of the n sorted samples. Raises ValueError
    when fewer than `min_beyond` samples lie beyond that rank."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
    if n - rank < min_beyond:
        raise ValueError(f"p{p:g} of {n} samples leaves {n - rank} beyond it,"
                         f" fewer than {min_beyond}")
    return ordered[rank - 1]


def dcg(grades, k):
    """Graded DCG@k: exponential gain 2^g - 1, log2(rank + 1) discount."""
    return sum((2 ** g - 1) / math.log2(rank + 2)
               for rank, g in enumerate(grades[:k]))


def ndcg_at_k(grades, judgment_grades, k=10):
    """nDCG@k of a ranked list's grades against the query's judgments (the
    grades of every relevant document; all others are grade 0). Matches
    metrics/retrieval.hpp's ndcg_at_k; 0 when nothing is relevant."""
    ideal = dcg(sorted(judgment_grades, reverse=True), k)
    return dcg(grades, k) / ideal if ideal > 0 else 0.0


def grades_of(text):
    return [int(c) for c in text]


def distinct_query_ndcg(rows, k=10):
    """Mean nDCG@k over the distinct queries among `rows` (request records
    in order), each scored by its last answer: a hot query counts once, so
    the figure reflects the query set rather than the few hottest queries."""
    last = {}
    for r in rows:
        if r["k"] == "q":
            last[(r["arg"], r["ti"])] = r
    return mean([ndcg_at_k(grades_of(r["grades"]), grades_of(r["ideal"]), k)
                 for r in last.values()])


def failure_tally(records):
    """(attempted, failed) over every request record: a request fails when
    it raised, returned a degraded remote answer, or its checked answer
    differed from the reference."""
    reqs = [r for r in records if r["t"] == "req"]
    return len(reqs), sum(1 for r in reqs if r["fail"])


def failed_frac(attempted, failed):
    if attempted <= 0:
        raise ValueError("no operations attempted")
    return failed / attempted


def _union_length(intervals):
    total = 0
    end = None
    for b, e in sorted(intervals):
        if end is None or b > end:
            total += e - b
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def covered_by_children(spans):
    """For each span id, the length of its interval that its direct children
    cover (children clipped to the parent, overlaps counted once)."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for sid, s in by_id.items():
        clipped = [(max(c["b"], s["b"]), min(c["e"], s["e"]))
                   for c in children.get(sid, [])]
        out[sid] = _union_length([(b, e) for b, e in clipped if e > b])
    return out


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    its child spans cover."""
    covered = covered_by_children(spans)
    return {s["id"]: (s["e"] - s["b"]) - covered[s["id"]] for s in spans}


def root_time(spans):
    """Total duration of the request roots (spans without a parent)."""
    return sum(s["e"] - s["b"] for s in spans if s["parent"] < 0)


def covered_time(spans):
    """The part of the request roots' time that their layer spans cover."""
    covered = covered_by_children(spans)
    return sum(covered[s["id"]] for s in spans if s["parent"] < 0)


# ----------------------------------------------------------------- records

def split(records):
    kinds = {}
    for r in records:
        kinds.setdefault(r["t"], []).append(r)
    return kinds


def _reqs(kinds, passno):
    return [r for r in kinds.get("req", []) if r["pass"] == passno]


def prefix_rows(rows, prefix):
    return [r for r in rows if r["i"] < prefix and not r["probe"]]


def _queries(rows, ti=None):
    return [r for r in rows
            if r["k"] == "q" and (ti is None or bool(r["ti"]) == ti)]


def _first(kinds, name):
    found = kinds.get(name, [])
    if not found:
        raise ValueError(f"no '{name}' record")
    return found[0]


def end_to_end(records, prefix, tail_p):
    """Every END_TO_END metric from an untraced (pass 0) stream, with
    query_tail_ms at percentile `tail_p`, as (metrics, notes)."""
    kinds = split(records)
    rows = _reqs(kinds, 0)
    stream = [r for r in rows if not r["probe"]]
    identity_ns = [r["ns"] for r in _queries(stream, ti=False)]
    tail_ns = nearest_rank(identity_ns, tail_p)
    queries = _queries(stream)
    wall_s = sum(r["ns"] for r in stream) / 1e9
    adds = [r["ns"] for r in rows if r["k"] == "a"]
    deletes = [r["ns"] for r in rows if r["k"] == "d"]
    setup = _first(kinds, "setup")
    counters = _first(kinds, "counters")
    metrics = {
        "setup_s": median(setup["total_s"]),
        "query_p50_ms": median(identity_ns) / 1e6,
        "query_tail_ms": tail_ns / 1e6,
        "ti_query_p50_ms": median([r["ns"] for r in _queries(stream, True)])
        / 1e6,
        "throughput_qps": ratio(len(queries), wall_s),
        "ingest_p50_ms": median(adds) / 1e6,
        "delete_p50_ms": median(deletes) / 1e6,
        "ndcg_at_10": distinct_query_ndcg(prefix_rows(rows, prefix)),
        "peak_rss_mb": _first(kinds, "end")["peak_rss_kb"] / 1024.0,
        "disk_bytes_per_image": ratio(counters["disk_bytes"],
                                      counters["live"]),
    }
    notes = {
        "query_tail_percentile": tail_p,
        "identity_queries": len(identity_ns),
        "ti_queries": len(queries) - len(identity_ns),
        "adds": len(adds),
        "deletes": len(deletes),
        "kernel": _first(kinds, "end")["kernel"],
    }
    return metrics, notes


def per_layer(records, prefix):
    """Every PER_LAYER metric from a traced run. Times are medians over the
    traced pass; counts and fractions are over its exact prefix, so they
    repeat exactly for a seed."""
    kinds = split(records)
    rows = _reqs(kinds, 1)
    by_index = {r["i"]: r for r in rows}
    # Each span pass numbers its spans from 0.
    span_passes = [[s for s in kinds.get("span", []) if s["pass"] == p]
                   for p in (1, 2)]
    span_times = {}
    span_rows = {}
    for spans in span_passes:
        selfs = self_times(spans)
        for s in spans:
            span_times.setdefault(s["name"], []).append(selfs[s["id"]])
            span_rows.setdefault(s["name"], []).append(
                (by_index.get(s["req"]), s["e"] - s["b"]))

    def span_median(name, scale):
        return median(span_times.get(name, [])) / scale

    def cache_median(outcome, scale):
        return median([d for r, d in span_rows.get("cache.search", [])
                       if r is not None and r["cache"] == outcome]) / scale

    head = prefix_rows(rows, prefix)
    identity = _queries(head, ti=False)
    ti = _queries(head, ti=True)
    planned = [r for r in _queries(head) if r["plan"] != "-"]
    outcomes = [r["cache"] for r in _queries(head) if r["cache"] != "-"]
    deltas = [r for r in _queries(head) if r["cache"] == "d"]
    remote = [r for r in _queries(rows) if r["fan_ns"] >= 0]
    net_spans = {r["i"]: d for r, d in span_rows.get("net.search", [])
                 if r is not None}
    setup = _first(kinds, "setup")
    counters = [c for c in kinds.get("counters", []) if c["pass"] == 1]
    counters = counters[0] if counters else _first(kinds, "counters")
    pass_end = [c for c in kinds.get("pass_end", []) if c["pass"] == 1]
    untraced = [r["ns"] for r in _queries(_reqs(kinds, 0), ti=False)
                if not r["probe"]]
    traced = [r["ns"] for r in _queries(rows, ti=False)]

    def per_pair(ns_key, n_key):
        return ratio(sum(r[ns_key] for r in rows),
                     sum(r[n_key] for r in rows)) / 1e3

    fan_scored = sum(r["fan_scored"] for r in remote)
    return {
        "core.encode_us": span_median("core.encode", 1e3),
        "planner.plan_us": span_median("planner.plan", 1e3),
        "planner.lossy_frac": ratio(
            sum(1 for r in planned if r["plan"] in LOSSY_PATHS), len(planned)),
        "planner.estimate_ratio": median(
            [r["est"] / r["act"] for r in planned if r["act"] > 0]),
        "access.generate_ms": span_median("access.generate", 1e6),
        "access.generated_per_query": mean([r["gen"] for r in planned]),
        "access.nodes_per_query": mean([r["nodes"] for r in planned]),
        "access.kept_frac": ratio(sum(r["scanned"] for r in planned),
                                  sum(r["gen"] for r in planned)),
        "scan.ms": span_median("scan", 1e6),
        "scan.scored_per_query": mean([r["scored"] for r in identity]),
        "scan.pruned_frac": ratio(sum(r["pruned"] for r in identity),
                                  sum(r["scanned"] for r in identity)),
        "scan.band_rejected_frac": ratio(sum(r["band"] for r in identity),
                                         sum(r["scored"] for r in identity)),
        "scan.ti_ms": span_median("scan.ti", 1e6),
        "scan.ti_scored_per_query": mean([r["scored"] for r in ti]),
        "lcs.pair_us": per_pair("lcs_ns", "lcs_n"),
        "lcs.bounded_pair_us": per_pair("bnd_ns", "bnd_n"),
        "lcs.ti_pair_us": per_pair("tip_ns", "tip_n"),
        "cache.key_us": median([r["key_ns"] for r in rows
                                if r["key_ns"] >= 0]) / 1e3,
        "cache.hit_us": cache_median("h", 1e3),
        "cache.hit_frac": ratio(outcomes.count("h"), len(outcomes)),
        "cache.delta_frac": ratio(outcomes.count("d"), len(outcomes)),
        "cache.miss_frac": ratio(outcomes.count("m"), len(outcomes)),
        "cache.delta_us": cache_median("d", 1e3),
        "cache.delta_rescored_per_refresh": mean(
            [r["rescored"] for r in deltas]),
        "cache.miss_ms": cache_median("m", 1e6),
        "cache.evictions_per_1k": ratio(
            1000 * sum(c["cache_evictions"] for c in pass_end),
            sum(c["requests"] for c in pass_end)),
        "db.add_us": span_median("db.add", 1e3),
        "db.remove_us": span_median("db.remove", 1e3),
        "db.candidates_us": median([r["cand_ns"] for r in rows
                                    if r["cand_ns"] >= 0]) / 1e3,
        "group_commit.wait_ms": span_median("group_commit.remove", 1e6),
        "group_commit.syncs_per_delete": ratio(counters["gc_syncs"],
                                               counters["gc_deletes"]),
        "group_commit.deletes_per_record": ratio(counters["gc_deletes"],
                                                 counters["gc_records"]),
        "storage.load_s": median(setup["load_s"]),
        "index.build_s": median(setup["build_s"]),
        "storage.bytes_per_image": ratio(setup["bytes"], setup["images"]),
        "shard.fanout_ms": median([r["fan_ns"] for r in remote]) / 1e6,
        "shard.scored_per_query": mean([r["fan_scored"] for r in remote]),
        "net.overhead_ms": median([net_spans[r["i"]] - r["fan_ns"]
                                   for r in remote if r["i"] in net_spans])
        / 1e6,
        "net.scored_per_query": mean([r["scored"] for r in remote]),
        "net.extra_scored_frac": ratio(
            sum(r["scored"] for r in remote) - fan_scored, fan_scored),
        "net.degraded_frac": ratio(sum(r["degraded"] for r in remote),
                                   len(remote)),
        "net.server_start_s": median(setup["start_s"]),
        "trace.overhead_ms": (median(traced) - median(untraced)) / 1e6,
        "trace.coverage_frac": ratio(
            sum(covered_time(spans) for spans in span_passes),
            sum(root_time(spans) for spans in span_passes)),
    }


def exact_counters(records, prefix, scan_counts=True):
    """Counts that are a pure function of the seed: they must repeat
    bit-for-bit in every run of one seed, traced or not. `scan_counts` is
    False where shards scan concurrently under a gossiped threshold, which
    makes the scored/pruned split depend on timing."""
    kinds = split(records)
    rows = _reqs(kinds, 0)
    head = prefix_rows(rows, prefix)
    queries = _queries(head)
    counters = _first(kinds, "counters")
    out = {
        "prefix_requests": len(head),
        "access.generated": sum(r["gen"] for r in queries),
        "cache.outcomes": "".join(r["cache"] for r in queries),
        "ndcg_at_10": repr(distinct_query_ndcg(head)),
    }
    if scan_counts:
        out["scan.scored"] = sum(r["scored"] for r in queries)
        out["scan.pruned"] = sum(r["pruned"] for r in queries)
    for key in ("disk_bytes", "live", "gc_deletes", "gc_records", "gc_syncs",
                "cache_hits", "cache_misses", "cache_deltas",
                "cache_rescored", "cache_evictions"):
        out["counters." + key] = counters[key]
    return out


def counter_mismatches(before, after):
    """Keys whose values differ between two runs of one seed."""
    return sorted(k for k in before.keys() & after.keys()
                  if before[k] != after[k])
