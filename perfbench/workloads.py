"""The three benchmark workloads, driven through the program's public API.

Each ``run_*`` function builds one world from the seed, runs it once and
returns a :class:`Rep`.  ``Rep.sim`` holds everything simulated or
counted: it is a pure function of the seed, so repeated runs and the
traced run must reproduce it exactly.  ``Rep.wall`` holds host times.

Why these workloads:

- ``paper``: the paper's §5.1 Fig. 13 closed loop.  It runs the normal
  path (dependency vectors, log append, group commit, distributed
  flush, network, MSP dispatch, kernel) and cannot overload.  After the
  measured phase MSP1 is restarted a few times, each time recovering a
  fixed amount of the same traffic, so the recovery metrics price
  recovery of the log this workload writes (§5 weighs both costs).
- ``restart``: one MSP holding thousands of live sessions restarts in
  lazy mode.  Almost all measured work is the analysis scan, record
  decoding, chain replay and the background pump; the normal path is
  the build (``setup_s``) and four verification calls per session after
  the drain.
- ``overload``: an open-loop fleet offered about twice the load it
  completes cleanly, with one MSP crash during traffic.  Client resends,
  duplicate handling, resource queues, eager recovery under traffic,
  cross-domain flushes and the fleet's epoch merge do real work only
  here.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.checkpoint import perform_msp_checkpoint, sv_checkpoint, take_session_checkpoint
from repro.core.client import EndClient
from repro.core.config import RecoveryConfig
from repro.core.domain import ServiceDomainConfig
from repro.core.log_manager import LogStats
from repro.core.messages import Reply
from repro.core.msp import MiddlewareServer
from repro.core.session import SessionStatus
from repro.fleet import FleetSpec, FleetTopology, generate_session_plans, run_fleet
from repro.net import Network
from repro.sim import RngRegistry, Simulator
from repro.workloads import PaperWorkload, WorkloadParams

_now = time.perf_counter

#: Simulated-time limit for the workloads' run loops.
_SIM_LIMIT_MS = 36_000_000.0

PAPER_CLIENTS = 4
PAPER_REQUESTS_PER_CLIENT = 1500
PAPER_LIMIT_MS = 200.0
#: Restarts of MSP1 after the measured phase, and the requests per
#: session logged after a full checkpoint that each of them recovers.
PAPER_RESTARTS = 10
PAPER_RESTART_REQUESTS = 250
#: Constructions timed per paper run: one takes well under a
#: millisecond, so a single sample is mostly timer and cache noise.
PAPER_SETUP_SAMPLES = 400

RESTART_SESSIONS = 3000
#: Simulated window over which the build's calls arrive; long enough
#: for several MSP checkpoints, so the analysis scan starts from one.
RESTART_BUILD_MS = 20_000.0
RESTART_CKPT_MS = 10_000.0
RESTART_CLIENTS = 32
#: Verification calls per session after the drain.  They arrive at
#: random over exactly one MSP checkpoint period per call, so the round
#: logs that many MSP checkpoints whatever their phase.  Four calls give
#: ~12000 latency samples and a round of ~5 host seconds; with two, the
#: round's host time and p99 spread too widely from seed to seed.
RESTART_VERIFY_CALLS = 4
RESTART_VERIFY_MS = RESTART_VERIFY_CALLS * RESTART_CKPT_MS
RESTART_LIMIT_MS = 200.0
#: Drain poll period; bounds the error of ``recovery_ms``.
RESTART_POLL_MS = 10.0

OVERLOAD_SESSIONS = 1200
#: Independent fleets per run (seeds drawn from the run's seed).  How
#: many calls a collapsing fleet completes varies by ~20% from seed to
#: seed, so one fleet is too few for a steady figure (and, at ~750
#: client exchanges, for a p99 with ten samples beyond it).
OVERLOAD_FLEETS = 6
OVERLOAD_LIMIT_MS = 1000.0
#: Time after the arrival window before unfinished calls count as
#: failed.  The collapsed fleet completes nothing more between 1 s and
#: the 30 s default (measured on seeds 1-3), so the default only burns
#: host time.
OVERLOAD_SETTLE_MS = 1_000.0
OVERLOAD_CRASH = (2_000.0, "m001")
#: Restarts of the crashed MSP after each fleet run, for its host time.
OVERLOAD_RESTARTS = 3


@dataclass
class Rep:
    """One run of a workload."""

    #: Simulated results and deterministic counts (compared exactly).
    sim: dict
    #: Host times: ``setup_s`` samples, the phase the workload's wall
    #: metric divides by, and ``total_s`` for the whole run.
    wall: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    #: Printed with the results but never compared (fleet verdicts).
    notes: dict = field(default_factory=dict)


# -- shared measurement helpers ------------------------------------------


def quantile(sorted_samples: list, q: float) -> float:
    """Exact nearest-rank quantile of already sorted samples."""
    if not sorted_samples:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


def latency_metrics(samples: list, limit_ms: float, sim_s: float) -> dict:
    ordered = sorted(samples)
    n = len(ordered)
    return {
        "resp_p50_ms": quantile(ordered, 0.50),
        "resp_p99_ms": quantile(ordered, 0.99),
        "resp_samples": n,
        "resp_beyond_p99": n - max(1, math.ceil(0.99 * n)) if n else 0,
        "goodput_rps": sum(1 for s in ordered if s <= limit_ms) / sim_s if sim_s else 0.0,
    }


class _GcPauses:
    """Running total of garbage-collector pause time (a ``gc.callbacks``
    hook).  A full collection of a fleet-sized heap takes up to half a
    second on a shared 2-core x86 host; landing in a 20 ms recovery
    window it would be the whole measurement, and where it lands varies
    from seed to seed."""

    def __init__(self):
        self.total_s = 0.0
        self._started = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._started = _now()
        else:
            self.total_s += _now() - self._started


GC_PAUSES = _GcPauses()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class MspWatch:
    """Observes one MSP's crashes from outside, through instance hooks.

    It banks the log counters of each incarnation before a crash (the
    restarted MSP starts a fresh ``LogManager``), sums the host time
    spent inside the ``restart`` generator (recovery up to reopening,
    collector pauses excluded), and notes when the restarted MSP reopens
    and when it sends its first non-busy reply.  The hooks only forward
    calls.
    """

    def __init__(self, msp: MiddlewareServer):
        self.msp = msp
        self.banked: list[LogStats] = []
        self.crashed_at: Optional[float] = None
        self.reopened_at: Optional[float] = None
        self.first_reply_at: Optional[float] = None
        self.restart_wall_s = 0.0
        self.sessions_recovered = 0
        self._crash = msp.crash
        self._restart = msp.restart
        msp.crash = self.crash
        msp.restart = self.restart

    def crash(self) -> None:
        if self.msp.log is not None:
            self.banked.append(self.msp.log.stats.snapshot())
        self.crashed_at = self.msp.sim.now
        self.reopened_at = None
        self.first_reply_at = None
        self._crash()
        self.msp.send = self._send

    def restart(self):
        return _WallTimer(self._restart(), self)

    def _reopened(self) -> None:
        self.reopened_at = self.msp.sim.now
        self.sessions_recovered += len(self.msp.sessions)

    def _send(self, destination, port, payload) -> None:
        if isinstance(payload, Reply) and not payload.busy:
            self.first_reply_at = self.msp.sim.now
            del self.msp.send  # back to the class method
        MiddlewareServer.send(self.msp, destination, port, payload)

    def log_totals(self) -> dict:
        stats = list(self.banked)
        if self.msp.log is not None:
            stats.append(self.msp.log.stats)
        return {
            name: sum(getattr(s, name) for s in stats)
            for name in ("appended_records", "appended_bytes", "flush_requests",
                         "physical_flushes", "decode_cache_hits", "decode_cache_misses")
        }


class _WallTimer:
    """Generator proxy summing the host time of every resume, less the
    collector pauses inside them.  It exposes the inner generator's
    code, so the per-layer ledger charges the process to its layer."""

    __slots__ = ("_gen", "_watch")

    def __init__(self, gen, watch: MspWatch):
        self._gen = gen
        self._watch = watch

    @property
    def gi_code(self):
        return self._gen.gi_code

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        paused = GC_PAUSES.total_s
        t0 = _now()
        try:
            return self._gen.send(value)
        except StopIteration:
            self._watch._reopened()
            raise
        finally:
            self._watch.restart_wall_s += _now() - t0 - (GC_PAUSES.total_s - paused)

    def throw(self, *exc):
        return self._gen.throw(*exc)

    def close(self):
        return self._gen.close()


_MSP_COUNTERS = (
    "requests_processed", "requests_duplicate", "busy_replies", "distributed_flushes",
    "session_checkpoints", "msp_checkpoints", "recovery_scan_records", "recovery_scan_ms",
    "pump_recoveries", "replayed_requests", "served_before_recovery",
)


def raw_counts(watches, clients, networks, sims) -> dict:
    """Deterministic work counts of one world, summable across worlds."""
    msps = [w.msp for w in watches]
    disks = [d for m in msps for d in m.disks]
    counts = {
        "steps": sum(s.steps for s in sims),
        "resends": sum(c.stats.resends for c in clients),
        "busy_retries": sum(c.stats.busy_retries for c in clients),
        "sectors": sum(d.stats.sectors_written + d.stats.sectors_read for d in disks),
        "disk_util_sum": sum(d.utilization() for d in disks),
        "disks": len(disks),
        "cpu_util_sum": sum(m.cpu_utilization() for m in msps),
        "msps": len(msps),
        "live_bytes": sum(s.live_bytes for m in msps for s in m.stores),
        "sessions_recovered": sum(w.sessions_recovered for w in watches),
    }
    for ledger in (n.ledger() for n in networks):
        for name in ("messages_sent", "messages_duplicated", "messages_dropped", "bytes_sent"):
            counts[name] = counts.get(name, 0) + ledger[name]
    for totals in (w.log_totals() for w in watches):
        for name, value in totals.items():
            counts[name] = counts.get(name, 0) + value
    for name in _MSP_COUNTERS:
        counts[name] = sum(getattr(m.stats, name) for m in msps)
    return counts


def add_counts(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b[k] for k in b}


def layer_counts(raw: dict, base: float) -> dict:
    """Per-layer work metrics from raw counts, per ``base`` (completed
    requests, or recovered sessions on ``restart``)."""
    base = max(base, 1)
    sent = raw["messages_sent"] + raw["messages_duplicated"]
    served = raw["requests_processed"] + raw["requests_duplicate"]
    lookups = raw["decode_cache_hits"] + raw["decode_cache_misses"]
    return {
        "sim.kernel.steps_per_req": raw["steps"] / base,
        "core.msp.cpu_util": raw["cpu_util_sum"] / raw["msps"],
        "net.msgs_per_req": raw["messages_sent"] / base,
        "net.bytes_per_req": raw["bytes_sent"] / base,
        "net.drop_frac": raw["messages_dropped"] / sent if sent else 0.0,
        "core.client.resends_per_req": raw["resends"] / base,
        "core.client.busy_retries_per_req": raw["busy_retries"] / base,
        "core.msp.dup_frac": raw["requests_duplicate"] / served if served else 0.0,
        "core.msp.busy_replies": raw["busy_replies"],
        "core.log_manager.records_per_req": raw["appended_records"] / base,
        "core.log_manager.flushes_per_req": raw["physical_flushes"] / base,
        "core.log_manager.coalesce_frac": (
            1.0 - raw["physical_flushes"] / raw["flush_requests"] if raw["flush_requests"] else 0.0
        ),
        "core.log_manager.decode_hit_frac": raw["decode_cache_hits"] / lookups if lookups else 0.0,
        "core.flush.distributed_per_req": raw["distributed_flushes"] / base,
        "storage.disk.sectors_per_req": raw["sectors"] / base,
        "storage.disk.util": raw["disk_util_sum"] / raw["disks"],
        "storage.live_bytes": raw["live_bytes"],
        "core.checkpoint.session_ckpts": raw["session_checkpoints"],
        "core.checkpoint.msp_ckpts": raw["msp_checkpoints"],
        "core.crash_recovery.scan_records": raw["recovery_scan_records"],
        "core.crash_recovery.scan_ms": raw["recovery_scan_ms"],
        "core.crash_recovery.pump_picks": raw["pump_recoveries"],
        "core.replay.replayed_requests": raw["replayed_requests"],
        "sessions_recovered": raw["sessions_recovered"],
        "served_before_recovery": raw["served_before_recovery"],
        "base": base,
    }


def _settle() -> None:
    # Start every run from a collected heap, so garbage left by the
    # previous run is not charged to this one.
    gc.collect()
    if GC_PAUSES not in gc.callbacks:
        gc.callbacks.append(GC_PAUSES)


# -- paper ------------------------------------------------------------------


def _paper_params(seed: int) -> WorkloadParams:
    return WorkloadParams(
        configuration="LoOptimistic",
        num_clients=PAPER_CLIENTS,
        requests_per_client=PAPER_REQUESTS_PER_CLIENT,
        calls_to_sm2=1,
        atomic_sv_updates=True,
        recovery_mode="eager",
        logging_mode="value",
        log_partitions=1,
        seed=seed,
    )


def run_paper(seed: int) -> Rep:
    _settle()
    started = _now()
    params = _paper_params(seed)
    setup = []
    for _ in range(PAPER_SETUP_SAMPLES):
        t0 = _now()
        world = PaperWorkload(params)
        setup.append(_now() - t0)
    sim, msp1, msp2 = world.sim, world.msp1, world.msp2
    watches = [MspWatch(m) for m in (msp1, msp2)]
    problems = []

    t0 = _now()
    result = world.run(limit_ms=_SIM_LIMIT_MS)
    normal_s = _now() - t0
    offered = PAPER_CLIENTS * PAPER_REQUESTS_PER_CLIENT
    completed = result.completed_requests
    try:
        world.verify_exactly_once()
    except AssertionError as exc:
        problems.append(f"after the normal path: {exc}")
    log_bytes = sum(w.log_totals()["appended_bytes"] for w in watches)
    sim_metrics = latency_metrics(result.response_times_ms, PAPER_LIMIT_MS, result.elapsed_ms / 1000.0)

    # Then restart MSP1 several times on one log state: a full
    # checkpoint followed by a fixed number of requests per session.  A
    # crash at the end of the measured phase instead would make the scan
    # reach back to the oldest of four session checkpoints, whose phase
    # varies from seed to seed by over 3x.  Back-to-back restarts of the
    # same log (each adds one probe request) do the same work; a shared
    # 2-core host runs one restart ~20% faster or slower from moment to
    # moment, so the mean over all of them is reported.
    watch = watches[0]
    argument = b"\x00" * params.request_arg_bytes

    def traffic(session):
        for _ in range(PAPER_RESTART_REQUESTS):
            yield from session.call("service_method1", argument)

    _quiesce(sim, (msp1, msp2))
    _finish(sim, _checkpoint_all(msp1), "bench.checkpoint")
    drivers = [sim.spawn(traffic(s), name=f"bench.traffic{i}") for i, s in enumerate(world.sessions)]
    for proc in drivers:
        sim.run_until_process(proc, limit=sim.now + _SIM_LIMIT_MS)
    counts = [PAPER_REQUESTS_PER_CLIENT + PAPER_RESTART_REQUESTS] * PAPER_CLIENTS
    extra = PAPER_CLIENTS * PAPER_RESTART_REQUESTS
    ttfr, reopen, restart_s = [], [], []
    for cycle in range(PAPER_RESTARTS):
        _quiesce(sim, (msp1, msp2))
        before = watch.restart_wall_s
        msp1.crash()
        msp1.restart_process()
        k = cycle % PAPER_CLIENTS
        reply = _finish(sim, world.sessions[k].call("service_method1", argument), "bench.probe")
        counts[k] += 1
        if reply is None or watch.first_reply_at is None:
            problems.append(f"restart {cycle}: the probe never completed")
            break
        served = int.from_bytes(reply.payload[:8], "big")
        if served != counts[k]:
            problems.append(f"restart {cycle}: session {k} read {served}, expected {counts[k]}")
        ttfr.append(watch.first_reply_at - watch.crashed_at)
        reopen.append(watch.reopened_at - watch.crashed_at)
        restart_s.append(watch.restart_wall_s - before)
    _quiesce(sim, (msp1, msp2))
    try:
        world.verify_exactly_once()
    except AssertionError as exc:
        problems.append(f"after the restarts: {exc}")

    attempted = offered + extra + PAPER_RESTARTS
    failed = attempted if problems else attempted - world.client.stats.calls
    sim_metrics.update(
        log_bytes_per_req=log_bytes / max(completed, 1),
        # Means, not medians: the simulated times move in whole disk
        # rotations, so a median would repeat one value across seeds.
        ttfr_ms=statistics.fmean(ttfr) if ttfr else sim.now,
        recovery_ms=statistics.fmean(reopen) if reopen else sim.now,
        ok_frac=(attempted - failed) / attempted,
        completed=world.client.stats.calls,
        offered=attempted,
    )
    sim_metrics.update(
        layer_counts(
            raw_counts(watches, [world.client], [world.network], [sim]), world.client.stats.calls
        )
    )
    return Rep(
        sim=sim_metrics,
        wall={
            "setup_s": setup,
            "req_per_wall_s": completed / normal_s,
            "recovery_wall_s": statistics.fmean(restart_s) if restart_s else 0.0,
            "total_s": _now() - started,
        },
        attempted=attempted,
        failed=failed,
        problems=problems,
    )


def _finish(sim: Simulator, gen, name: str):
    """Run ``gen`` as a process to completion; its result, or None if
    it failed or did not finish."""
    process = sim.spawn(gen, name=name)
    sim.run_until_process(process, limit=sim.now + _SIM_LIMIT_MS)
    if process.alive:
        return None
    try:
        return process.result
    except Exception:  # noqa: BLE001 - reported by the caller as a failed check
        return None


def _quiesce(sim: Simulator, msps) -> None:
    """Step until every MSP is open with no session busy or recovering."""
    def quiet():
        return all(
            m.running and not any(
                s.lazy_pending or s.recovery_pending or s.status is not SessionStatus.NORMAL
                for s in m.sessions.values()
            )
            for m in msps
        )

    deadline = sim.now + 600_000.0
    while not quiet() and sim.now < deadline and sim.step():
        pass


def _checkpoint_all(msp: MiddlewareServer):
    """Checkpoint every session and shared variable, then the MSP."""
    for session in list(msp.sessions.values()):
        yield from take_session_checkpoint(msp, session)
    for sv in list(msp.shared.values()):
        yield from sv_checkpoint(msp, sv)
    yield from perform_msp_checkpoint(msp)


# -- restart ----------------------------------------------------------------


def _bump(ctx, argument):
    yield from ctx.compute(0.05)
    raw = yield from ctx.get_session_var("n")
    n = int.from_bytes(raw or b"\x00", "big") + 1
    yield from ctx.set_session_var("n", n.to_bytes(4, "big"))
    return n.to_bytes(4, "big")


def run_restart(seed: int) -> Rep:
    _settle()
    started = _now()
    n = RESTART_SESSIONS
    draw = random.Random(seed)
    # The inputs: how often each session calls (the probe session
    # always twice, so its chain replay is the same size), and when;
    # then when each session makes its verification call.
    schedule = [
        sorted(draw.uniform(0.0, RESTART_BUILD_MS) for _ in range(2 if i == 0 else draw.randint(1, 3)))
        for i in range(n)
    ]
    verify_at = [
        sorted(draw.uniform(0.0, RESTART_VERIFY_MS) for _ in range(RESTART_VERIFY_CALLS))
        for _ in range(n)
    ]

    t0 = _now()
    sim = Simulator()
    rng = RngRegistry(seed)
    net = Network(sim, rng=rng)
    config = RecoveryConfig(
        recovery_mode="lazy",
        log_partitions=1,
        msp_ckpt_interval_ms=RESTART_CKPT_MS,
        # No forced per-session checkpoints: the scan and the chains
        # then reach back to the build, which is what a restart pays.
        forced_ckpt_msp_count=1_000_000,
    )
    msp = MiddlewareServer(sim, net, "msp1", ServiceDomainConfig(), config=config, rng=rng)
    msp.register_service("bump", _bump)
    msp.start_process()
    # The probe's client resends on a fine period, which quantizes the
    # time to first reply; build clients never resend (a fault-free
    # network loses nothing before the crash).
    probe_client = EndClient(sim, net, "client0", resend_timeout_ms=5.0, busy_sleep_ms=5.0)
    clients = [
        EndClient(sim, net, f"client{i}", resend_timeout_ms=600_000.0)
        for i in range(1, RESTART_CLIENTS + 1)
    ]
    sessions = [probe_client.open_session("msp1")] + [
        clients[i % RESTART_CLIENTS].open_session("msp1") for i in range(n - 1)
    ]

    def build(i):
        for when in schedule[i]:
            yield max(0.0, when - sim.now)
            yield from sessions[i].call("bump", b"")

    builders = [sim.spawn(build(i), name=f"bench.build{i}") for i in range(n)]
    for proc in builders:
        sim.run_until_process(proc, limit=_SIM_LIMIT_MS)
    setup_s = _now() - t0
    problems = []

    watch = MspWatch(msp)
    paused = GC_PAUSES.total_s
    t0 = _now()
    msp.crash()
    restarted_at = sim.now
    msp.restart_process()
    probe_reply = []

    def probe():
        probe_reply.append((yield from sessions[0].call("bump", b"")))

    sim.run_until_process(sim.spawn(probe(), name="bench.probe"), limit=_SIM_LIMIT_MS)

    def settled():
        return not any(
            s.lazy_pending or s.recovery_pending or s.status is not SessionStatus.NORMAL
            for s in msp.sessions.values()
        )

    def drain():
        # The cheap counter test runs every poll; the O(sessions) scan
        # only once every session has been claimed.
        while not (msp.running and msp.stats.lazy_recoveries >= n and settled()):
            yield RESTART_POLL_MS

    sim.run_until_process(sim.spawn(drain(), name="bench.drain"), limit=_SIM_LIMIT_MS)
    recovery_wall_s = _now() - t0 - (GC_PAUSES.total_s - paused)
    drained_at = sim.now
    if not probe_reply:
        problems.append("the probe after the restart never completed")
    elif int.from_bytes(probe_reply[0].payload, "big") != len(schedule[0]) + 1:
        problems.append(
            f"probe read {int.from_bytes(probe_reply[0].payload, 'big')}, "
            f"expected {len(schedule[0]) + 1}"
        )
    if msp.stats.served_before_recovery:
        problems.append(f"served_before_recovery = {msp.stats.served_before_recovery}")
    if not settled():
        problems.append("sessions still pending after the drain")

    # Verification round: every other session calls again and must
    # read its own count, so each recovered state is checked.
    before = watch.log_totals()["appended_bytes"]
    replies = {}

    def verify(i):
        replies[i] = []
        for when in verify_at[i]:
            yield max(0.0, verify_from + when - sim.now)
            replies[i].append((yield from sessions[i].call("bump", b"")))

    t0 = _now()
    verify_from = sim.now
    checkers = [sim.spawn(verify(i), name=f"bench.verify{i}") for i in range(1, n)]
    for proc in checkers:
        sim.run_until_process(proc, limit=_SIM_LIMIT_MS)
    verify_s = _now() - t0
    verify_sim_s = (sim.now - verify_from) / 1000.0
    expected = {i: list(range(len(schedule[i]) + 1, len(schedule[i]) + 1 + RESTART_VERIFY_CALLS)) for i in range(1, n)}
    wrong = [
        i for i in range(1, n)
        if [int.from_bytes(r.payload, "big") for r in replies.get(i, [])] != expected[i]
    ]
    if wrong:
        problems.append(f"{len(wrong)} sessions read a wrong count after recovery, first {wrong[0]}")
    samples = [r.response_time_ms for rs in replies.values() for r in rs]
    verified = len(samples)

    sim_metrics = latency_metrics(samples, RESTART_LIMIT_MS, verify_sim_s)
    sim_metrics.update(
        log_bytes_per_req=(watch.log_totals()["appended_bytes"] - before) / max(verified, 1),
        ttfr_ms=(watch.first_reply_at or drained_at) - restarted_at,
        recovery_ms=drained_at - restarted_at,
        completed=len(probe_reply) + verified,
        offered=1 + (n - 1) * RESTART_VERIFY_CALLS,
    )
    sim_metrics.update(
        layer_counts(raw_counts([watch], [probe_client] + clients, [net], [sim]), n)
    )
    attempted = 1 + (n - 1) * RESTART_VERIFY_CALLS
    failed = attempted if problems else attempted - len(probe_reply) - verified
    sim_metrics["ok_frac"] = (attempted - failed) / attempted
    return Rep(
        sim=sim_metrics,
        wall={
            "setup_s": [setup_s],
            "req_per_wall_s": verified / verify_s,
            "recovery_wall_s": recovery_wall_s,
            "total_s": _now() - started,
        },
        attempted=attempted,
        failed=failed,
        problems=problems,
    )


# -- overload ---------------------------------------------------------------


def overload_spec(seed: int) -> FleetSpec:
    return FleetSpec(
        msps=8,
        domains=4,
        shards=2,
        seed=seed,
        sessions=OVERLOAD_SESSIONS,
        duration_ms=4_000.0,
        settle_ms=OVERLOAD_SETTLE_MS,
        crash_plan=(OVERLOAD_CRASH,),
    )


def planned_traffic(spec: FleetSpec):
    """Offered exchanges and per-MSP planned hits, from the same plan
    generator and stream the shards use."""
    plans = list(
        generate_session_plans(
            FleetTopology(spec), RngRegistry(spec.seed).stream("fleet.traffic")
        )
    )
    hits: dict[str, int] = {}
    calls = 0
    for plan in plans:
        for hops in plan.calls:
            calls += 1
            for msp in (plan.home,) + tuple(hops):
                hits[msp] = hits.get(msp, 0) + 1
    # Each session's calls plus its end-of-session exchange.
    return calls + len(plans), hits


def _run_fleet(spec: FleetSpec) -> dict:
    """One fleet run, observed through ``run_fleet``'s tracer hook.

    Returns the fleet's numbers and drops the fleet itself, so the next
    fleet does not run with this one's heap still alive.
    """
    crash_at, crash_msp = OVERLOAD_CRASH
    shards, watches = [], {}
    t0 = _now()
    setup = []

    def attach(shard):
        # run_fleet calls this once per shard, right after building it.
        shards.append(shard)
        watches.update((name, MspWatch(msp)) for name, msp in shard.msps.items())
        if len(shards) == spec.shards:
            setup.append(_now() - t0)

    result = run_fleet(spec, jobs=1, tracer_factory=attach)
    run_s = _now() - t0 - setup[0]
    clients = [c for s in shards for c in s.clients.values()]
    crashed = watches[crash_msp]
    offered, planned_hits = planned_traffic(spec)
    problems = []
    # Safety from the plan: no MSP may count fewer hits than its
    # completed calls made, nor more than the plan could make.
    for name in sorted(planned_hits):
        done = result["expected_hits"].get(name, 0)
        seen = result["actual_hits"].get(name, 0)
        if not done <= seen <= planned_hits[name]:
            problems.append(f"{name}: hit counter {seen} outside [{done}, {planned_hits[name]}]")
    if crashed.reopened_at is None:
        problems.append(f"{crash_msp} never reopened after its crash")
    end_ms = result["sim_time_ms"]
    samples = [t for c in clients for t in c.stats.response_times]
    completed = sum(c.stats.calls for c in clients)
    recovery_ms = (crashed.reopened_at or end_ms) - crash_at
    # A restarted MSP that serves nothing before the horizon is
    # censored there.  The first reply waits for a fleet client to call
    # the restarted MSP, and whether one does soon after it reopens is
    # a coin toss per fleet: ~150 ms, or 0.9-1.8 s (3 of 6 fleets on
    # seeds 203 and 205).
    ttfr_ms = (crashed.first_reply_at or end_ms) - crash_at

    # The crash under traffic recovers 10-30 ms of host work that varies
    # with the seed and lands in a different cache and collector state
    # each time.  So the host time is taken from restarts of the same
    # MSP after the run, on the log the overload left behind (the
    # median of three).
    sim = crashed.msp.sim
    restart_s = []
    for _ in range(OVERLOAD_RESTARTS):
        before = crashed.restart_wall_s
        crashed.msp.crash()
        crashed.msp.restart_process()
        while not crashed.msp.running and sim.step():
            pass
        restart_s.append(crashed.restart_wall_s - before)
    return {
        "setup_s": setup[0],
        "run_s": run_s,
        "offered": offered,
        "completed": completed,
        "errors": result["totals"]["call_errors"],
        "samples": samples,
        "sim_ms": end_ms,
        "recovery_wall_s": statistics.median(restart_s),
        "recovery_ms": recovery_ms,
        "ttfr_ms": ttfr_ms,
        "raw": raw_counts(
            list(watches.values()), clients, [s.network for s in shards], [s.sim for s in shards]
        ),
        "epochs": result["epochs"],
        "cross_shard_msgs": result["cross_shard_messages"],
        "problems": problems,
        # Verbatim, including the known ledger false positive.
        "note": {
            "seed": spec.seed,
            "ttfr_ms": ttfr_ms,
            "verdicts": result["verdicts"],
            "violations": result["violations"],
            "ledger": result["ledger"],
        },
    }


def run_overload(seed: int, n_fleets: int = OVERLOAD_FLEETS) -> Rep:
    _settle()
    started = _now()
    draw = random.Random(seed)
    fleets = []
    for _ in range(n_fleets):
        fleets.append(_run_fleet(overload_spec(draw.randrange(2**31))))
        gc.collect()

    def total(key):
        return sum(f[key] for f in fleets)

    completed, offered = total("completed"), total("offered")
    good = completed - total("errors")
    problems = [f"fleet {k}: {p}" for k, f in enumerate(fleets) for p in f["problems"]]
    raw = {}
    for f in fleets:
        raw = add_counts(raw, f["raw"])
    sim_metrics = latency_metrics(
        [t for f in fleets for t in f["samples"]], OVERLOAD_LIMIT_MS, total("sim_ms") / 1000.0
    )
    sim_metrics.update(
        log_bytes_per_req=raw["appended_bytes"] / max(completed, 1),
        # The fastest of the fleets: with half the fleets in each mode,
        # the median over six jumped between the modes from seed to
        # seed.  Every fleet's value is printed with its verdicts.
        ttfr_ms=min(f["ttfr_ms"] for f in fleets),
        recovery_ms=statistics.median(f["recovery_ms"] for f in fleets),
        completed=completed,
        offered=offered,
        call_errors=total("errors"),
        ok_frac=good / offered if not problems else 0.0,
        **{"fleet.epochs": total("epochs"), "fleet.cross_shard_msgs": total("cross_shard_msgs")},
    )
    sim_metrics.update(layer_counts(raw, completed))
    return Rep(
        sim=sim_metrics,
        wall={
            "setup_s": [f["setup_s"] for f in fleets],
            "req_per_wall_s": completed / total("run_s"),
            "recovery_wall_s": total("recovery_wall_s"),
            "total_s": _now() - started,
        },
        attempted=offered,
        failed=offered if problems else offered - good,
        problems=problems,
        notes={f"fleet{k}": f["note"] for k, f in enumerate(fleets)},
    )


WORKLOADS = {"paper": run_paper, "restart": run_restart, "overload": run_overload}

#: Arguments for the traced run and its untraced twin.  The traced
#: overload runs the first three of its six fleets: per-request layer
#: figures need no more, and all six traced take over a minute.
TRACED_ARGS = {"overload": {"n_fleets": 3}}
