"""Property: the lazy recovery pump claims sessions hottest first.

The pump keeps its claim order in a heap (``PumpQueue``).  The order it
must reproduce is the one the original linear pick defined: among the
sessions still ``lazy_pending``, the greatest request heat wins and ties
break to the smallest session id.  That pick survives here as the
oracle.  Every claim the pump makes, with or without a tracer (heat is
a tracer counter, so untraced runs order by id alone), is checked
against what the oracle picks from the same state at the same instant —
including while requests for pending sessions raise their heat or claim
them inline mid-drain.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.client import EndClient
from repro.core.crash_recovery import PumpQueue
from repro.core.msp import MiddlewareServer
from repro.net import Network
from repro.sim import RngRegistry, Simulator
from repro.trace import Tracer


def counter_method(ctx, argument):
    yield from ctx.compute(0.2)
    raw = yield from ctx.get_session_var("count")
    count = int.from_bytes(raw or b"\x00", "big") + 1
    yield from ctx.set_session_var("count", count.to_bytes(4, "big"))
    return count.to_bytes(4, "big")


def oracle_heat(msp, session_id):
    tracer = msp.sim.tracer
    if tracer is None:
        return 0
    counter = tracer.metrics.counters.get(f"heat.session.{session_id}")
    return counter.value if counter is not None else 0


def oracle_next(msp):
    """The O(n) pick: strictly greater heat wins, ties break to the
    smallest id."""
    best = None
    best_heat = -1
    for session_id in sorted(msp.sessions):
        session = msp.sessions[session_id]
        if not session.lazy_pending:
            continue
        heat = oracle_heat(msp, session_id)
        if heat > best_heat:
            best, best_heat = session, heat
    return best


def run_drain(calls_before, concurrency, traced, late_calls, seed, cpu_cores=1):
    """Build one session per entry of ``calls_before`` (that many calls
    each), crash and restart lazily, and issue ``late_calls`` —
    ``(session index, delay after reopen)`` — into the drain.  Checks
    that every call was answered exactly once and returns the MSP's
    stats."""
    sim = Simulator()
    if traced:
        Tracer(sim).attach()
    rng = RngRegistry(seed)
    net = Network(sim, rng=rng)
    config = RecoveryConfig(
        recovery_mode="lazy",
        recovery_pump_concurrency=concurrency,
        cpu_cores=cpu_cores,
    )
    msp = MiddlewareServer(
        sim, net, "msp1", ServiceDomainConfig(), config=config, rng=rng
    )
    msp.register_service("counter", counter_method)
    msp.start_process()
    clients = [EndClient(sim, net, f"client{i:02d}") for i in range(len(calls_before))]
    sessions = [c.open_session("msp1") for c in clients]
    results = [[] for _ in clients]

    def call(idx):
        result = yield from sessions[idx].call("counter", b"")
        results[idx].append(int.from_bytes(result.payload, "big"))

    def before(idx):
        yield 1.0
        for _ in range(calls_before[idx]):
            yield from call(idx)

    procs = [sim.spawn(before(idx)) for idx in range(len(clients))]
    for proc in procs:
        sim.run_until_process(proc, limit=600_000)

    msp.crash()
    msp.restart_process()

    # A client session is strictly sequential: one process per session
    # makes all of its late calls, starting at its first delay.
    late = {}
    for idx, delay in late_calls:
        late.setdefault(idx, [delay, 0])[1] += 1

    def after(idx, delay, count):
        while not msp.running:
            yield 1.0
        yield delay
        for _ in range(count):
            yield from call(idx)

    procs = [sim.spawn(after(idx, *late[idx])) for idx in sorted(late)]
    for proc in procs:
        sim.run_until_process(proc, limit=sim.now + 600_000)

    def settle():
        while not msp.running or any(
            s.lazy_pending or s.recovery_pending for s in msp.sessions.values()
        ):
            yield 50.0

    proc = sim.spawn(settle())
    sim.run_until_process(proc, limit=sim.now + 600_000)

    for idx, n in enumerate(calls_before):
        n += late.get(idx, (0, 0))[1]
        assert results[idx] == list(range(1, n + 1))
    stats = msp.stats
    assert not any(s.lazy_pending for s in msp.sessions.values())
    assert stats.served_before_recovery == 0
    assert stats.lazy_recoveries == stats.inline_recoveries + stats.pump_recoveries
    assert stats.lazy_recoveries == len(calls_before)
    return stats


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    calls_before=st.lists(st.integers(1, 3), min_size=1, max_size=60),
    concurrency=st.integers(1, 4),
    traced=st.booleans(),
    late=st.lists(
        st.tuples(st.integers(0, 59), st.floats(0.0, 300.0)), max_size=12
    ),
    seed=st.integers(0, 1000),
    cpu_cores=st.integers(1, 2),
)
# With a second core a pump worker can claim while a request that just
# raised a pending session's heat still waits for dispatch: the claim
# must see that heat.
@example(
    calls_before=[3, 2, 3, 3, 3, 1, 1, 1, 2, 2, 3, 2, 3, 1],
    concurrency=4,
    traced=True,
    late=[(1, 88.0), (12, 298.0), (9, 146.0), (5, 276.0), (2, 186.0),
          (6, 0.0), (7, 177.0)],
    seed=284,
    cpu_cores=2,
)
def test_pump_claims_match_linear_oracle(
    calls_before, concurrency, traced, late, seed, cpu_cores
):
    late_calls = [(idx % len(calls_before), delay) for idx, delay in late]
    claims = []
    real_pop = PumpQueue.pop

    def checked_pop(queue):
        expected = oracle_next(queue._msp)
        got = real_pop(queue)
        claims.append((
            expected.id if expected is not None else None,
            got.id if got is not None else None,
        ))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PumpQueue, "pop", checked_pop)
        stats = run_drain(
            calls_before, concurrency, traced, late_calls, seed, cpu_cores
        )

    assert [got for _expected, got in claims] == [expected for expected, _got in claims]
    picked = [got for _expected, got in claims if got is not None]
    assert len(picked) == len(set(picked)) == stats.pump_recoveries
    # Every worker ends on an empty queue.
    assert claims.count((None, None)) == min(concurrency, len(calls_before))


def test_traced_pump_prefers_hot_sessions():
    """A session with more requests before the crash is claimed before
    cooler ones; untraced, the order is by id alone."""
    claims = {}
    for traced in (False, True):
        order = []
        real_pop = PumpQueue.pop

        def recording_pop(queue):
            got = real_pop(queue)
            if got is not None:
                order.append(got.id)
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PumpQueue, "pop", recording_pop)
            run_drain([1, 3, 2, 1], 1, traced, [], seed=3)
        claims[traced] = order
    assert claims[False] == sorted(claims[False])
    hottest = claims[True][0]
    assert claims[True] != claims[False]
    assert hottest in claims[False] and claims[False].index(hottest) == 1


def test_queue_rekeys_on_heat_changes():
    """Direct rule check: a bumped session overtakes hotter-at-build
    ones and its stale entry is dropped; a claimed one is skipped."""
    sim = Simulator()
    tracer = Tracer(sim).attach()
    ids = ["a", "b", "c", "d"]
    sessions = {sid: SimpleNamespace(id=sid, lazy_pending=True) for sid in ids}
    msp = SimpleNamespace(sim=sim, sessions=sessions)
    tracer.metrics.inc("heat.session.d", 1)
    queue = PumpQueue(msp)
    assert len(queue) == 4

    tracer.metrics.inc("heat.session.c", 2)
    queue.bump("c")
    sessions["a"].lazy_pending = False
    order = []
    while True:
        expected = oracle_next(msp)
        session = queue.pop()
        assert session is expected
        if session is None:
            break
        session.lazy_pending = False
        order.append(session.id)
    assert order == ["c", "d", "b"]
