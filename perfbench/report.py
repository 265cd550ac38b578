"""Turns one raw perfbench run into the reported metrics.

END_TO_END and PER_LAYER are the metric tables of BENCHMARK.json (name,
unit, direction); test_stats.py keeps the two in step.
"""

import math

import stats

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("speedup_vs_pull", "x", "higher"),
]

PER_LAYER = [
    ("graph.load_s", "s", "lower"),
    ("core.hub_select_s", "s", "lower"),
    ("core.build_s", "s", "lower"),
    ("core.preprocess.relabel_s", "s", "lower"),
    ("core.preprocess.build-flipped_s", "s", "lower"),
    ("core.preprocess.build-sparse_s", "s", "lower"),
    ("core.engine_init_ms", "ms", "lower"),
    ("core.flipped_edge_frac", "frac", "higher"),
    ("core.hubs", "count", "higher"),
    ("core.blocks", "count", "lower"),
    ("core.topology_bytes", "B", "lower"),
    ("spmv.iter_ms", "ms", "lower"),
    ("spmv.iter_t1_ms", "ms", "lower"),
    ("spmv.reset_ms", "ms", "lower"),
    ("spmv.push_ms", "ms", "lower"),
    ("spmv.merge_ms", "ms", "lower"),
    ("spmv.pull_ms", "ms", "lower"),
    ("spmv.reset_values_cleared", "count", "lower"),
    ("spmv.merge_segments_streamed", "count", "lower"),
    ("spmv.single_owner_blocks", "count", "higher"),
    ("spmv.sparse_binned", "bool", "higher"),
    ("spmv.bins", "count", "higher"),
    ("spmv.edges_per_s", "1/s", "higher"),
    ("spmv.scaling_eff", "frac", "higher"),
    ("spmv.vs_pull", "x", "higher"),
    ("pull.iter_ms", "ms", "lower"),
    ("spmv.bytes_per_edge", "B", "lower"),
    ("spmv.bw_frac", "frac", "higher"),
    ("mem.triad_gbs", "GB/s", "higher"),
    ("pagerank.solve_s", "s", "lower"),
    ("pagerank.solve_t1_s", "s", "lower"),
    ("pagerank.iterations", "count", "lower"),
    ("pagerank.driver_ms_per_iter", "ms", "lower"),
    ("pool.steals_per_call", "count", "lower"),
    ("pool.imbalance", "ratio", "lower"),
    ("sharded.imbalance", "ratio", "lower"),
    ("sharded.iter_ms", "ms", "lower"),
    ("cachesim.ihtl_l2_miss_per_edge", "miss/edge", "lower"),
    ("cachesim.pull_l2_miss_per_edge", "miss/edge", "lower"),
    ("serve.setup_s", "s", "lower"),
    ("serve.ppr_qps", "1/s", "higher"),
    ("serve.ppr_p50_ms", "ms", "lower"),
    ("serve.ppr_p90_ms", "ms", "lower"),
    ("serve.update_p50_ms", "ms", "lower"),
    ("serve.queue_p50_ms", "ms", "lower"),
    ("serve.queue_p90_ms", "ms", "lower"),
    ("serve.compute_p50_ms", "ms", "lower"),
    ("serve.compute_p90_ms", "ms", "lower"),
    ("serve.cache_p50_ms", "ms", "lower"),
    ("serve.cache_p90_ms", "ms", "lower"),
    ("serve.serialize_p50_ms", "ms", "lower"),
    ("serve.serialize_p90_ms", "ms", "lower"),
    ("session.ppr_k1_ms", "ms", "lower"),
    ("session.ppr_k8_ms", "ms", "lower"),
    ("spmv.batch_gain", "x", "higher"),
    ("batcher.lane_occupancy", "lanes", "higher"),
    ("batcher.full_flushes", "count", "higher"),
    ("batcher.deadline_flushes", "count", "lower"),
    ("cache.hit_ratio", "frac", "higher"),
    ("update.apply_ms", "ms", "lower"),
    ("update.rebuild_frac", "frac", "lower"),
    ("gen.lag_p90_ms", "ms", "lower"),
    ("trace_overhead", "x", "lower"),
    ("self.graph_s", "s", "lower"),
    ("self.core_s", "s", "lower"),
    ("self.baselines_s", "s", "lower"),
    ("self.apps_s", "s", "lower"),
    ("self.cachesim_s", "s", "lower"),
    ("self.serve_s", "s", "lower"),
]


def _open_loop(raw):
    """(read latencies, update latencies, generator lags) of the open loop."""
    ol = raw["open_loop"]
    latency, lag = stats.open_loop(ol["due_ms"], ol["sent_ms"], ol["done_ms"])
    reads = [x for x, k in zip(latency, ol["kind"]) if k == 0]
    updates = [x for x, k in zip(latency, ol["kind"]) if k == 1]
    return reads, updates, lag


def end_to_end(raw):
    s = raw["samples"]
    setups = [a + b for a, b in zip(s["setup_s"], s["serve_setup_s"])]
    return {
        "setup_s": stats.median(setups),
        "speedup_vs_pull": stats.ratio_median(raw["pairs"]["speedup_vs_pull"]),
    }


def unbounded(raw):
    """What an untraced run measures besides its end-to-end metrics: too
    sensitive to the host's CPU steal to carry a bound (see README), so it
    goes to the context line. -1 stands for an infinite latency."""
    s = raw["samples"]
    out = {
        "e2e_s": stats.median(s["e2e_s"]),
        "ppr_qps": stats.median(s["closed.qps"]),
        "update_p50_ms": stats.percentile(_open_loop(raw)[1], 50),
    }
    return {k: x if math.isfinite(x) else -1.0 for k, x in out.items()}


def per_layer(raw):
    v, s = raw["values"], raw["samples"]
    out = {k: x for k, x in v.items()}
    for k, xs in s.items():
        out[k] = stats.median(xs)
    for k, ps in raw["pairs"].items():
        out[k] = stats.ratio_median(ps)
    threads = raw["host"]["threads"]
    iter_s = out["spmv.iter_ms"] / 1e3
    out["spmv.edges_per_s"] = v["graph.edges"] / iter_s
    out["spmv.scaling_eff"] = out["spmv.iter_t1_ms"] / (threads * out["spmv.iter_ms"])
    out["spmv.bytes_per_edge"] = v["spmv.compulsory_bytes"] / v["graph.edges"]
    out["spmv.bw_frac"] = v["spmv.compulsory_bytes"] / iter_s / (v["mem.triad_gbs"] * 1e9)
    out["pagerank.driver_ms_per_iter"] = (
        v["pagerank.solve_s"] * 1e3 / v["pagerank.iterations"]
        - out["spmv.iter_ms"])
    out["spmv.batch_gain"] = 8 * out["session.ppr_k1_ms"] / out["session.ppr_k8_ms"]
    out["update.rebuild_frac"] = v["update.rebuilt"] / v["update.acked"]
    reads, updates, lag = _open_loop(raw)
    out["serve.ppr_qps"] = stats.median(s["closed.qps"])
    out["serve.ppr_p50_ms"] = stats.percentile(reads, 50)
    out["serve.ppr_p90_ms"] = stats.percentile(reads, 90)
    out["serve.update_p50_ms"] = stats.percentile(updates, 50)
    out["gen.lag_p90_ms"] = stats.percentile(lag, 90)
    for layer, sec in raw["self_s"].items():
        out[f"self.{layer}_s"] = sec
    return out


def info(raw):
    """Context printed before the result: host, inputs, validity."""
    host = raw["host"]
    l2 = host["l2"]["bytes"]
    graphs = {}
    for key in ("graph", "serve_graph"):
        g = dict(raw[key])
        g["x_over_l2"] = g["x_bytes"] / l2
        graphs[key] = g
    lag = _open_loop(raw)[2]
    ctx = {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "trace": raw["trace"],
        "host": host,
        "graphs": graphs,
        "generate_s": raw["generate_s"],
        "steal_by_segment": raw["samples"].get("segment.steal", []),
        "gen_lag_max_ms": max(lag) if lag else 0.0,
        "failures": raw["failures"],
        "checked": {k: raw["values"][k]
                    for k in ("reference.samples", "reference.fresher_than_label",
                              "cache.pairs_compared", "reads.racing_update")},
        "self_s": raw.get("self_s", {}),
    }
    if not raw["trace"]:
        ctx["unbounded"] = unbounded(raw)
    return ctx


def result(raw, trace):
    """The final line: {correct, attempted, failed, metrics}.

    Too few samples for a percentile stops the run (SystemExit). A failed
    request that lands in a reported percentile makes it infinite: the run
    is then incorrect and the value prints as -1."""
    correct, attempted, failed = stats.outcome(raw["attempted"], raw["failed"])
    table = PER_LAYER if trace else END_TO_END
    try:
        values = per_layer(raw) if trace else end_to_end(raw)
    except (KeyError, ValueError, ZeroDivisionError) as e:
        raise SystemExit(f"perfbench: cannot report metrics: {e!r}")
    metrics = {}
    for name, unit, _ in table:
        if name not in values:
            raise SystemExit(f"perfbench: metric {name} was not measured")
        x = float(values[name])
        if not math.isfinite(x):
            correct = False
            x = -1.0
        metrics[name] = {"value": x, "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
