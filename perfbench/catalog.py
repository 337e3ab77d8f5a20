"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` lists the same names (a test keeps the two equal).
Every untraced run prints all of :data:`END_TO_END`; every traced run
prints all of :data:`PER_LAYER`.  A per-layer metric whose layer is not
on a workload's path reads 0 there (the sweep parses no instance
documents, the offline loop never touches the result cache).
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "ops_per_s": "1/s",
    "messages_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "late_feed_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Offline corpus cells: ``solve.<cell>.ms`` is the kernel time of that
#: cell (``telemetry["seconds"]``).
SOLVE_CELLS = (
    "line-bufferless-bfl",
    "line-buffered-bfl",
    "line-buffered-ca",
    "line-buffered-greedy",
    "ring-bufferless-bfl",
    "line-online-greedy",
    "line-bufferless-exact",
)

PER_LAYER = {
    # the trace itself
    "obs.trace_overhead": "ratio",
    "trace.e2e_ms": "ms",
    "trace.layers_ms": "ms",
    "trace.unattributed_share": "ratio",
    # api facade
    "api.parse_instance.ms": "ms",
    "api.to_dict.ms": "ms",
    "api.json_encode.ms": "ms",
    "api.facade_overhead.ms": "ms",
    # solver cells
    **{f"solve.{cell}.ms": "ms" for cell in SOLVE_CELLS},
    "network.bounded.numpy_over_python": "ratio",
    # client
    "client.encode.ms": "ms",
    "client.decode.ms": "ms",
    "client.transport.ms": "ms",
    "client.cpu_ms_per_op": "ms",
    "loadgen.closed_p95_ms": "ms",
    "loadgen.open_p95_ms": "ms",
    "loadgen.late_p95_ms": "ms",
    # server
    "server.queue_wait.ms": "ms",
    "server.solve.ms": "ms",
    "server.residual.ms": "ms",
    "server.request.ms": "ms",
    "wire.request_bytes": "bytes",
    "wire.response_bytes": "bytes",
    # stream sessions and the online policies behind them
    "online.run_online.ms_per_feed": "ms",
    "online.runs_per_feed": "count",
    "online.messages_replayed_per_feed": "count",
    **{f"online.messages_replayed_per_feed.q{q}": "count" for q in (1, 2, 3, 4)},
    "journal.append_feed.ms": "ms",
    # sweep engine and result cache
    "engine.map_overhead.ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.warm_cells_per_s": "1/s",
    "exact.opt_bufferless.ms": "ms",
    "core.bfl.ms": "ms",
}


def per_layer_metrics(measured: dict[str, float]) -> dict[str, tuple[float, str]]:
    """All per-layer metrics, 0 where the workload does not reach the layer."""
    unknown = set(measured) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {sorted(unknown)}")
    return {name: (measured.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}
