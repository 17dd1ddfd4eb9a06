"""Metric definitions: names, units, direction, and what each one moves.

``END_TO_END`` metrics are measured with tracing off; ``PER_LAYER``
metrics come from the traced run.  ``BENCHMARK.json`` lists the same
names and units; ``run.py`` refuses to run if the two disagree.

Units: ``s`` is host (wall) time, in reference seconds for the
end-to-end metrics (``reference.py``); ``sim_ms`` and ``sim_s`` are
simulated time, a pure function of the seed.  ``*_us_per_req`` is
wall self time per completed request, or per recovered session on
``restart``; ``*_per_req`` counts use the same base.
"""

from __future__ import annotations

#: name -> (unit, better, meaning)
END_TO_END = {
    "setup_s": ("s", "lower",
                "median host time to build the world before the measured phase "
                "(restart: the N-session build)"),
    "req_per_wall_s": ("req/s", "higher",
                       "completed requests per host second of the measured phase "
                       "(restart: the verification round after the drain)"),
    "recovery_wall_s": ("s", "lower",
                        "restart: host time from the crash until every session is "
                        "recovered; paper, overload: host time inside the crashed "
                        "MSP's restart until it reopens (paper: mean of 10 restarts; "
                        "overload: median of 3 per fleet, summed over fleets); "
                        "collector pauses excluded"),
    "resp_p50_ms": ("sim_ms", "lower", "exact median response time over per-request samples"),
    "resp_p99_ms": ("sim_ms", "lower",
                    "exact 99th percentile; the run prints its sample count and the "
                    "samples beyond it"),
    "goodput_rps": ("req/sim_s", "higher",
                    "requests completed within the latency limit (paper, restart "
                    "200 ms; overload 1000 ms) per simulated second"),
    "ok_frac": ("ratio", "higher",
                "offered operations that completed and passed every correctness "
                "check, over operations offered (1 - fail fraction)"),
    "log_bytes_per_req": ("B/req", "lower",
                          "log bytes appended on all MSPs per completed request"),
    "ttfr_ms": ("sim_ms", "lower",
                "from the crashed MSP's restart to the first non-busy reply it "
                "sends (paper: mean over restarts; overload: the fastest of the "
                "fleets, each cut off at the run's end)"),
    "recovery_ms": ("sim_ms", "lower",
                    "restart: from restart until the lazy pump drained every "
                    "session; paper, overload: the crashed MSP's reopen duration "
                    "(median over restarts or fleets)"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the run"),
}

#: name -> (unit, better, end-to-end metrics it should move, where)
PER_LAYER = {
    "sim.kernel.steps_per_req": ("steps/req", "lower", "req_per_wall_s, recovery_wall_s",
                                 "all"),
    "sim.kernel.self_us_per_req": ("us/req", "lower", "req_per_wall_s, recovery_wall_s",
                                   "paper, overload; less on restart"),
    "sim.resources.self_us_per_req": ("us/req", "lower", "req_per_wall_s",
                                      "overload; less on paper"),
    "core.msp.cpu_util": ("ratio", "lower", "resp_p99_ms (queueing)", "overload"),
    "net.msgs_per_req": ("msgs/req", "lower", "req_per_wall_s, goodput_rps", "overload"),
    "net.bytes_per_req": ("B/req", "lower", "req_per_wall_s, goodput_rps", "overload"),
    "net.drop_frac": ("ratio", "lower", "goodput_rps, ok_frac", "overload"),
    "net.self_us_per_req": ("us/req", "lower", "req_per_wall_s", "overload; less on paper"),
    "core.client.resends_per_req": ("msgs/req", "lower", "goodput_rps, ok_frac, resp_p99_ms",
                                    "overload; ~0 on paper"),
    "core.client.busy_retries_per_req": ("msgs/req", "lower", "goodput_rps, ok_frac, resp_p99_ms",
                                         "overload; ~0 on paper"),
    "core.client.self_us_per_req": ("us/req", "lower", "req_per_wall_s", "overload"),
    "core.msp.dup_frac": ("ratio", "lower", "goodput_rps, ok_frac", "overload"),
    "core.msp.busy_replies": ("count", "lower", "goodput_rps, ok_frac", "overload, restart"),
    "core.msp.self_us_per_req": ("us/req", "lower", "req_per_wall_s", "paper, overload"),
    "core.dv.ops_per_req": ("ops/req", "lower", "req_per_wall_s", "paper, overload"),
    "core.dv.bytes_per_req": ("B/req", "lower", "req_per_wall_s, log_bytes_per_req",
                              "paper, overload"),
    "core.dv.self_us_per_req": ("us/req", "lower", "req_per_wall_s",
                                "paper, overload; ~0 on restart"),
    "core.records.encoded_per_req": ("records/req", "lower", "setup_s, req_per_wall_s",
                                     "restart build, paper"),
    "core.records.decoded_per_session": ("records/session", "lower", "recovery_wall_s",
                                         "restart"),
    "wire.self_us_per_req": ("us/req", "lower", "recovery_wall_s, setup_s",
                             "restart; less on paper"),
    "core.log_manager.records_per_req": ("records/req", "lower", "log_bytes_per_req",
                                         "paper"),
    "core.log_manager.flushes_per_req": ("flushes/req", "lower", "resp_p50_ms", "paper"),
    "core.log_manager.coalesce_frac": ("ratio", "higher", "resp_p50_ms", "paper, overload"),
    "core.log_manager.flush_wait_ms": ("sim_ms", "lower", "resp_p50_ms",
                                       "paper, overload"),
    "core.log_manager.decode_hit_frac": ("ratio", "higher", "recovery_wall_s", "restart"),
    "core.log_manager.self_us_per_req": ("us/req", "lower", "req_per_wall_s, recovery_wall_s",
                                         "paper, restart"),
    "core.flush.distributed_per_req": ("flushes/req", "lower", "resp_p50_ms", "paper"),
    "storage.disk.sectors_per_req": ("sectors/req", "lower", "resp_p50_ms", "paper"),
    "storage.disk.util": ("ratio", "lower", "resp_p50_ms", "paper"),
    "storage.live_bytes": ("B", "lower", "peak_rss_mb", "paper, restart"),
    "storage.self_us_per_req": ("us/req", "lower", "req_per_wall_s, peak_rss_mb",
                                "paper; less on restart"),
    "core.checkpoint.session_ckpts": ("count", "lower", "log_bytes_per_req", "paper"),
    "core.checkpoint.msp_ckpts": ("count", "lower", "setup_s", "restart build"),
    "core.checkpoint.self_s": ("s", "lower", "setup_s", "restart build; less on paper"),
    "core.crash_recovery.scan_records": ("records", "lower", "recovery_ms, ttfr_ms",
                                         "restart"),
    "core.crash_recovery.scan_ms": ("sim_ms", "lower", "ttfr_ms, recovery_ms", "restart"),
    "core.crash_recovery.pump_picks": ("count", "lower", "recovery_wall_s", "restart"),
    "core.crash_recovery.self_s": ("s", "lower", "recovery_wall_s", "restart"),
    "core.replay.replayed_requests": ("count", "lower", "recovery_ms, recovery_wall_s",
                                      "restart, paper"),
    "core.replay.self_s": ("s", "lower", "recovery_wall_s", "restart, paper"),
    "fleet.epochs": ("count", "lower", "req_per_wall_s", "overload"),
    "fleet.cross_shard_msgs": ("count", "lower", "req_per_wall_s", "overload"),
    "fleet.self_frac": ("ratio", "lower", "req_per_wall_s", "overload; 0 elsewhere"),
    "trace.overhead": ("ratio", "lower", "(none: traced over untraced host time)", "all"),
    "trace.coverage": ("ratio", "higher",
                       "(none: summed self time over traced host time)", "all"),
}

#: Per-layer metrics read straight from the deterministic counts.
_COUNTED = (
    "sim.kernel.steps_per_req", "core.msp.cpu_util", "net.msgs_per_req",
    "net.bytes_per_req", "net.drop_frac", "core.client.resends_per_req",
    "core.client.busy_retries_per_req", "core.msp.dup_frac", "core.msp.busy_replies",
    "core.log_manager.records_per_req", "core.log_manager.flushes_per_req",
    "core.log_manager.coalesce_frac", "core.log_manager.decode_hit_frac",
    "core.flush.distributed_per_req", "storage.disk.sectors_per_req", "storage.disk.util",
    "storage.live_bytes", "core.checkpoint.session_ckpts", "core.checkpoint.msp_ckpts",
    "core.crash_recovery.scan_records", "core.crash_recovery.scan_ms",
    "core.crash_recovery.pump_picks", "core.replay.replayed_requests",
)

_US_PER_REQ_LAYERS = (
    "sim.kernel", "sim.resources", "net", "core.client", "core.msp", "core.dv", "wire",
    "core.log_manager", "storage",
)


def per_layer_values(counts: dict, ledger, traced_s: float, untraced_s: float) -> dict:
    """Every ``PER_LAYER`` value from one traced run."""
    base = counts["base"]
    values = {name: counts[name] for name in _COUNTED}
    for layer in _US_PER_REQ_LAYERS:
        values[f"{layer}.self_us_per_req"] = ledger.self_s.get(layer, 0.0) / base * 1e6
    for layer in ("core.checkpoint", "core.crash_recovery", "core.replay"):
        values[f"{layer}.self_s"] = ledger.self_s.get(layer, 0.0)
    values["fleet.self_frac"] = ledger.self_s.get("fleet", 0.0) / traced_s
    values["fleet.epochs"] = counts.get("fleet.epochs", 0)
    values["fleet.cross_shard_msgs"] = counts.get("fleet.cross_shard_msgs", 0)
    flushes = ledger.calls.get("log.flush", 0)
    values["core.log_manager.flush_wait_ms"] = (
        ledger.sim_ms.get("log.flush", 0.0) / flushes if flushes else 0.0
    )
    values["core.dv.ops_per_req"] = ledger.calls.get("dv.ops", 0) / base
    values["core.dv.bytes_per_req"] = ledger.dv_bytes / base
    values["core.records.encoded_per_req"] = ledger.calls.get("records.encoded", 0) / base
    sessions = max(counts["sessions_recovered"], 1)
    values["core.records.decoded_per_session"] = ledger.calls.get("records.decoded", 0) / sessions
    values["trace.overhead"] = traced_s / untraced_s
    values["trace.coverage"] = ledger.total_self_s() / traced_s
    return values
