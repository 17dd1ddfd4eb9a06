"""MSP crash recovery (paper §4.3, Fig. 12).

The sequence after a restart:

1. re-initialize from the most recent MSP checkpoint (found via the log
   anchor);
2. a single-threaded analysis scan of the durable log from the minimal
   LSN: reconstruct position streams (pruning at EOS records and
   session-end markers), roll shared variables forward to their most
   recent logged values, and rebuild recovered-state-number knowledge;
3. broadcast the recovery announcement (the largest persistent LSN)
   within the service domain — peers ack with their own knowledge, so
   announcements we slept through are caught up;
4. take a fresh MSP checkpoint;
5. recover all sessions **in parallel** along their reconstructed
   position streams while already accepting new sessions.

Lazy mode (``recovery_mode: lazy``, DESIGN.md §15) replaces step 5: the
MSP opens for traffic right after the analysis scan with every surviving
session marked ``lazy_pending``; a session's chain is replayed on demand
— inline when its next request arrives (:func:`recover_session`), or by
a background pump draining the rest hot-first under a concurrency
budget.  Time-to-first-served-request drops from O(total log replay) to
O(analysis + one session chain).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.dv import PKEY_BITS, RecoveryTable
from repro.core.errors import LogTruncatedError, RecoveryMergeError
from repro.core.plsn import (
    OFFSET_BITS,
    OFFSET_MASK,
    encode_frontier,
    make_plsn,
    plsn_offset,
)
from repro.core.records import (
    NO_LSN,
    AnnouncementRecord,
    CommandRecord,
    EosRecord,
    LogRecord,
    MspCheckpointRecord,
    ReplyRecord,
    RequestRecord,
    SessionCheckpointRecord,
    SessionEndRecord,
    SvCheckpointRecord,
    SvOrderRecord,
    SvReadRecord,
    SvUpdateRecord,
    SvWriteRecord,
)
from repro.core.replay import run_session_recovery
from repro.core.session import SessionStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.msp import MiddlewareServer


@dataclass
class AnalysisState:
    """Everything the single-threaded analysis scan reconstructs."""

    #: session id -> LSNs of its position-stream records.
    positions: dict[str, list[int]] = field(default_factory=dict)
    #: session id -> LSN of its most recent session checkpoint.
    session_ckpts: dict[str, int] = field(default_factory=dict)
    #: sessions whose end marker was seen (never rebuilt).
    ended: set[str] = field(default_factory=set)
    #: access-order logging: variable -> last logged write version.
    order_writes: dict[str, int] = field(default_factory=dict)
    #: access-order logging: variable -> {version: read count}.
    order_reads: dict[str, dict[int, int]] = field(default_factory=dict)

    def chain_heads(self) -> dict[str, int]:
        """Per-session backward-chain heads (lazy recovery, DESIGN.md §15).

        The chain and the position stream cover exactly the same
        records and are pruned identically (reset at session
        checkpoints, filtered at EOS, dropped at session end), so the
        head is simply each stream's most recent position — NO_LSN for
        a session whose stream is empty (just checkpointed).
        """
        return {
            sid: (stream[-1] if stream else NO_LSN)
            for sid, stream in self.positions.items()
        }


# -- per-record-kind handlers of the analysis scan ---------------------------
#
# The scan decodes *every* durable record, so its inner loop is the
# hottest CPU path of recovery.  Dispatch is a single dict lookup on the
# record's concrete class (``decode_record`` always produces leaf
# types), replacing the old chain of up to ~10 sequential ``isinstance``
# checks per record; the ``recovery_scan`` benchmark tracks the
# per-record cost.  Each handler does *all* the work for its kind,
# including position-stream membership.


def _scan_position(msp, state: AnalysisState, lsn: int, record) -> None:
    state.positions.setdefault(record.session_id, []).append(lsn)


def _scan_sv_write(msp, state: AnalysisState, lsn: int, record) -> None:
    state.positions.setdefault(record.session_id, []).append(lsn)
    sv = msp.shared.get(record.variable)
    if sv is not None:
        sv.apply_write(lsn, record.value, record.writer_dv)


def _scan_sv_update(msp, state: AnalysisState, lsn: int, record) -> None:
    state.positions.setdefault(record.session_id, []).append(lsn)
    sv = msp.shared.get(record.variable)
    if sv is not None:
        sv.apply_write(lsn, record.new_value, record.writer_dv)


def _scan_sv_checkpoint(msp, state: AnalysisState, lsn: int, record) -> None:
    sv = msp.shared.get(record.variable)
    if sv is not None:
        sv.value = record.value
        sv.apply_checkpoint(lsn)
        sv.write_seq = record.version
        # Command/value adaptive logging (DESIGN.md §16): the frontier
        # says which command effects the checkpointed value already
        # includes, so replayed commands at or below it skip re-apply.
        sv.command_frontier = dict(record.command_frontier)
        sv._frontier_floor = dict(record.command_frontier)
        state.order_writes[record.variable] = record.version
        state.order_reads[record.variable] = {}


def _scan_sv_order(msp, state: AnalysisState, lsn: int, record) -> None:
    state.positions.setdefault(record.session_id, []).append(lsn)
    if record.is_write:
        state.order_writes[record.variable] = record.version
    else:
        reads = state.order_reads.setdefault(record.variable, {})
        reads[record.version] = reads.get(record.version, 0) + 1


def _scan_session_checkpoint(msp, state: AnalysisState, lsn: int, record) -> None:
    state.session_ckpts[record.session_id] = lsn
    state.positions[record.session_id] = []
    state.ended.discard(record.session_id)


def _scan_eos(msp, state: AnalysisState, lsn: int, record) -> None:
    kept = state.positions.get(record.session_id)
    if kept is not None:
        state.positions[record.session_id] = [
            p for p in kept if p < record.orphan_lsn
        ]


def _scan_announcement(msp, state: AnalysisState, lsn: int, record) -> None:
    msp.table.record(record.msp, record.epoch, record.recovered_lsn)


def _scan_msp_checkpoint(msp, state: AnalysisState, lsn: int, record) -> None:
    msp.table.merge(RecoveryTable.from_snapshot(record.recovered_snapshot))


def _scan_session_end(msp, state: AnalysisState, lsn: int, record) -> None:
    state.ended.add(record.session_id)
    state.positions.pop(record.session_id, None)
    state.session_ckpts.pop(record.session_id, None)
    # An ended session's command effects can never replay again; drop
    # its frontier entries so they cannot pin variables' state.
    for sv in msp.shared.values():
        sv.command_frontier.pop(record.session_id, None)
        sv._frontier_floor.pop(record.session_id, None)


#: Type-keyed dispatch table of the analysis scan.  Kinds not listed
#: here (e.g. filler frames) carry no recovery information and are
#: skipped with one failed lookup.
_ANALYSIS_DISPATCH: dict[type, Callable] = {
    RequestRecord: _scan_position,
    CommandRecord: _scan_position,
    ReplyRecord: _scan_position,
    SvReadRecord: _scan_position,
    SvWriteRecord: _scan_sv_write,
    SvUpdateRecord: _scan_sv_update,
    SvCheckpointRecord: _scan_sv_checkpoint,
    SvOrderRecord: _scan_sv_order,
    SessionCheckpointRecord: _scan_session_checkpoint,
    EosRecord: _scan_eos,
    AnnouncementRecord: _scan_announcement,
    MspCheckpointRecord: _scan_msp_checkpoint,
    SessionEndRecord: _scan_session_end,
}


def analyze_scan(
    msp: "MiddlewareServer", records: list[tuple[int, LogRecord]]
) -> AnalysisState:
    """The analysis pass over scanned ``(lsn, record)`` pairs (§4.3 step 2).

    Pure CPU — no simulated time; callers charge scan cost separately.
    Factored out of :func:`recover_msp` so the ``recovery_scan``
    benchmark can measure it against log length in isolation.
    """
    state = AnalysisState()
    dispatch = _ANALYSIS_DISPATCH
    for lsn, record in records:
        handler = dispatch.get(record.__class__)
        if handler is not None:
            handler(msp, state, lsn, record)
    return state


# -- partitioned recovery: consistent cut + DV-ordered merge -----------------
#
# With the log split across partitions (DESIGN.md §14), "the durable
# log" is N durable prefixes whose relative order the disks never
# recorded.  Zhou et al.'s partially-constrained-log result says that is
# fine: only the dependency-constrained partial order matters for
# recoverability, and this repo materializes exactly those constraints —
# per-record intra-MSP DV entries and the shared-variable backward write
# chains.  Recovery therefore (a) lowers each partition's durable end to
# a *consistent cut* in which no surviving record depends on a lost one,
# then (b) linearizes the cut by a dependency-respecting merge that the
# analysis pass consumes exactly like a single-partition scan.


def _own_dependencies(msp_name: str, old_epoch: int, record) -> list[int]:
    """The intra-MSP plsns ``record`` depends on within ``old_epoch``.

    Two edge kinds exist: DV entries naming our own MSP in the crashed
    epoch (entries for older epochs are resolved through the recovery
    table, not the current scan), and the shared-variable backward
    write chain (``prev_write_lsn``), including the partitioned sv
    checkpoint's sealing edge.
    """
    deps: list[int] = []
    prev = getattr(record, "prev_write_lsn", None)
    if prev is not None and prev != NO_LSN:
        deps.append(prev)
    for attr in ("sender_dv", "variable_dv", "writer_dv"):
        dv = getattr(record, attr, None)
        if dv is None:
            continue
        keys = dv._entries.get(msp_name)
        if not keys:
            continue
        for key, lsn in keys.items():
            if (key >> PKEY_BITS) == old_epoch:
                deps.append(lsn)
    return deps


def compute_partition_cut(
    msp_name: str,
    old_epoch: int,
    partition_records: dict[int, list[tuple[int, LogRecord]]],
    durable_ends: dict[int, int],
) -> dict[int, int]:
    """Lower per-partition durable ends to a consistent cut.

    A durable record may depend on a record that was buffered on
    *another* partition and lost in the crash (the disks flush
    independently).  Keeping it would recover state derived from lost
    state — our own orphan.  Fixpoint: excise any record one of whose
    intra-MSP dependencies lies at or beyond the (current) cut of its
    partition, together with everything after it in its own partition
    (suffix exclusion keeps each partition a prefix, which is what the
    announcement frontier and position streams require).
    """
    cut = dict(durable_ends)
    nparts = len(cut)
    changed = True
    while changed:
        changed = False
        for partition, records in partition_records.items():
            limit = cut[partition]
            for offset, record in records:
                if offset >= limit:
                    break
                violated = False
                for dep in _own_dependencies(msp_name, old_epoch, record):
                    dep_partition = dep >> OFFSET_BITS
                    if dep_partition >= nparts:
                        continue
                    if (dep & OFFSET_MASK) >= cut[dep_partition]:
                        violated = True
                        break
                if violated:
                    cut[partition] = offset
                    changed = True
                    break
    return cut


def merge_partition_scans(
    msp_name: str,
    old_epoch: int,
    partition_records: dict[int, list[tuple[int, LogRecord]]],
    cut: dict[int, int],
) -> list[tuple[int, LogRecord]]:
    """Linearize per-partition scans into one dependency-respecting order.

    Each partition's list (offset-sorted, already filtered below the
    cut) is consumed through a cursor; a head record is *eligible* when
    every intra-MSP dependency is already applied — i.e. lies before
    its own partition's cursor (same-partition order is the scan order)
    or before another partition's cursor.  Among eligible heads the
    (offset, partition) minimum is picked, making the merge
    deterministic.  Happens-before acyclicity guarantees progress; a
    stall means the log (or this merge) is broken and raises
    :class:`RecoveryMergeError`.
    """
    lists = {p: records for p, records in sorted(partition_records.items())}
    index = {p: 0 for p in lists}

    def cursor_offset(partition: int) -> int:
        records = lists[partition]
        i = index[partition]
        return records[i][0] if i < len(records) else cut[partition]

    merged: list[tuple[int, LogRecord]] = []
    remaining = sum(len(records) for records in lists.values())
    while remaining:
        best = None
        for partition, records in lists.items():
            i = index[partition]
            if i >= len(records):
                continue
            offset, record = records[i]
            if best is not None and (offset, partition) >= best[:2]:
                continue
            eligible = True
            for dep in _own_dependencies(msp_name, old_epoch, record):
                dep_partition = dep >> OFFSET_BITS
                dep_offset = dep & OFFSET_MASK
                if dep_partition == partition:
                    if dep_offset >= offset:
                        eligible = False  # forward edge: broken log
                        break
                elif dep_partition in lists and dep_offset >= cursor_offset(
                    dep_partition
                ):
                    eligible = False
                    break
            if eligible:
                best = (offset, partition, record)
        if best is None:
            stalled = {
                p: lists[p][index[p]][0]
                for p in lists
                if index[p] < len(lists[p])
            }
            raise RecoveryMergeError(
                f"{msp_name}: no eligible head among partition cursors "
                f"{stalled} — dependency cycle or corrupt log"
            )
        offset, partition, record = best
        index[partition] += 1
        remaining -= 1
        merged.append((make_plsn(partition, offset), record))
    return merged


def assert_merge_order(
    msp_name: str,
    old_epoch: int,
    merged: list[tuple[int, LogRecord]],
) -> None:
    """The DV-merge correctness assertion (``recovery_merge_assert``).

    Re-walks the merged order and verifies every record's intra-MSP
    dependencies were applied before it (dependencies below the scan
    starts — outside the merge — are durably checkpointed state and
    count as applied).  The merge construction guarantees this; the
    assertion guards the construction itself and documents the
    invariant executable-y.
    """
    applied: dict[int, int] = {}
    starts: dict[int, int] = {}
    for plsn, _record in merged:
        partition = plsn >> OFFSET_BITS
        starts.setdefault(partition, plsn & OFFSET_MASK)
    for plsn, record in merged:
        partition = plsn >> OFFSET_BITS
        offset = plsn & OFFSET_MASK
        for dep in _own_dependencies(msp_name, old_epoch, record):
            dep_partition = dep >> OFFSET_BITS
            dep_offset = dep & OFFSET_MASK
            if dep_offset < starts.get(dep_partition, 0):
                continue  # below the scan: checkpoint-covered
            if dep_offset >= applied.get(dep_partition, 0):
                raise RecoveryMergeError(
                    f"{msp_name}: record at p{partition}+{offset} ordered "
                    f"before its dependency p{dep_partition}+{dep_offset}"
                )
        end = offset + 1
        if applied.get(partition, 0) < end:
            applied[partition] = end
    return None


def recover_msp(msp: "MiddlewareServer"):
    """Run full crash recovery (generator); called from ``start()``."""
    started_at = msp.sim.now
    log = msp.log
    msp.sim.probe("recovery.begin", owner=msp.name)
    tracer = msp.sim.tracer
    span = step = None
    if tracer is not None:
        span = tracer.span("recovery", owner=msp.name)
        step = tracer.span("recovery.anchor", owner=msp.name)

    # 1. Re-initialize from the most recent MSP checkpoint.
    nparts = log.nparts
    anchor = log.read_anchor()
    old_epoch = 0
    scan_start = 0
    scan_starts = [0] * nparts
    ckpt_chain_heads: dict[str, int] = {}
    if anchor is not None:
        # One random read to pull the checkpoint record itself.
        yield from msp.disk.read(1, sequential=False)
        ckpt, _next = log.record_at(anchor)
        if not isinstance(ckpt, MspCheckpointRecord):
            raise ValueError(f"{msp.name}: anchor does not point at an MSP checkpoint")
        msp.table = RecoveryTable.from_snapshot(ckpt.recovered_snapshot)
        old_epoch = ckpt.epoch
        scan_start = ckpt.min_lsn(anchor)
        ckpt_chain_heads = dict(ckpt.session_chain_heads)
        if nparts > 1:
            if len(ckpt.partition_ends) != nparts:
                raise ValueError(
                    f"{msp.name}: anchored checkpoint captured "
                    f"{len(ckpt.partition_ends)} partition ends, but the "
                    f"log has {nparts} partitions"
                )
            scan_starts = ckpt.partition_floors(anchor)
    # Truncation safety, stated as an executable assertion: the floor
    # only ever advances to an *anchored* checkpoint's minimal LSN, and
    # the durable anchor is monotone, so the scan start derived from the
    # current anchor can never lie in recycled space.  Tripping this
    # means the truncation pipeline ran ahead of the anchor.
    if nparts == 1:
        if scan_start < log.store.truncate_lsn:
            raise LogTruncatedError(
                f"{msp.name}: recovery scan start {scan_start} below the "
                f"truncation floor {log.store.truncate_lsn}"
            )
    else:
        for partition, unit in enumerate(log.partitions):
            if scan_starts[partition] < unit.store.truncate_lsn:
                raise LogTruncatedError(
                    f"{msp.name}: recovery scan start "
                    f"{scan_starts[partition]} of partition {partition} "
                    f"below the truncation floor {unit.store.truncate_lsn}"
                )
    msp.sim.probe("recovery.anchor-read", owner=msp.name)
    if step is not None:
        step.end(anchor=anchor, scan_start=scan_start, epoch=old_epoch)
        step = tracer.span("recovery.scan", owner=msp.name, lsn=scan_start)

    # 2. Single-threaded analysis scan.  One partition reads a single
    # contiguous durable prefix; N partitions each contribute one, cut
    # to a consistent prefix set and merged in dependency order before
    # analysis (DESIGN.md §14) — the merged list replays exactly like a
    # single-partition scan.
    if nparts == 1:
        records = yield from log.scan_durable(scan_start)
    else:
        partition_records = {}
        for partition in range(nparts):
            scanned = yield from log.scan_durable(
                make_plsn(partition, scan_starts[partition])
            )
            partition_records[partition] = [
                (plsn_offset(plsn), record) for plsn, record in scanned
            ]
        durable_ends = {
            partition: unit.store.durable_end
            for partition, unit in enumerate(log.partitions)
        }
        cut = compute_partition_cut(
            msp.name, old_epoch, partition_records, durable_ends
        )
        # Excised durable suffixes must leave the disk with the replay:
        # left behind, a later recovery would rediscover them after the
        # new incarnation reused the offsets their dependencies name and
        # accept them against aliased records.  Safe because the cut
        # never drops below the anchored checkpoint's captured ends
        # (records below the capture depend only on records below it).
        log.rewind([cut[partition] for partition in range(nparts)])
        for partition, pairs in partition_records.items():
            partition_records[partition] = [
                (offset, record)
                for offset, record in pairs
                if offset < cut[partition]
            ]
        records = merge_partition_scans(
            msp.name, old_epoch, partition_records, cut
        )
        if msp.config.recovery_merge_assert:
            assert_merge_order(msp.name, old_epoch, records)
    msp.sim.probe("recovery.scanned", owner=msp.name)
    if step is not None:
        step.end(records=len(records))
        step = tracer.span("recovery.analyze", owner=msp.name)
    yield from msp.cpu(len(records) * msp.config.costs.scan_record_cpu_ms)

    state = analyze_scan(msp, records)
    positions = state.positions
    session_ckpts = state.session_ckpts
    ended = state.ended
    msp.stats.recovery_scan_records += len(records)

    if msp.config.sv_logging == "access-order":
        # Access-order recovery: variables are reconstructed by
        # re-executing every logged access in conflict order; until
        # then, live accesses must block (the §3.3 coupling this
        # ablation measures).
        for name, sv in msp.shared.items():
            sv.recovery_target_write = state.order_writes.get(name, sv.write_seq)
            sv.expected_reads = dict(state.order_reads.get(name, {}))

    msp.sim.probe("recovery.analyzed", owner=msp.name)
    if step is not None:
        step.end(
            sessions=len(state.positions) + len(state.session_ckpts),
            ended=len(state.ended),
        )

    # The largest persistent LSN is what we recovered to.  Partitioned,
    # that is the consistent-cut *frontier* — durable suffixes excised
    # by the cut were never replayed, so state depending on them is as
    # lost as if the bytes had never hit a platter.
    if nparts == 1:
        recovered_lsn = msp.store.durable_end
    else:
        recovered_lsn = encode_frontier(
            tuple(cut[partition] for partition in range(nparts))
        )
    msp.table.record(msp.name, old_epoch, recovered_lsn)
    msp.epoch = old_epoch + 1

    # Rebuild the session objects (state itself is rebuilt by replay).
    # Lazy mode: each session keeps its scan-derived position stream
    # (the chain walk's fallback and cross-check oracle) plus its chain
    # head — seeded from the anchored checkpoint, overridden by anything
    # the scan observed since.
    lazy = msp.lazy_mode
    if lazy:
        heads = ckpt_chain_heads
        heads.update(state.chain_heads())
    to_recover = []
    for session_id in sorted(positions.keys() | session_ckpts.keys()):
        if session_id in ended:
            continue
        session = msp.session_for(session_id)
        session.status = SessionStatus.RECOVERING
        session.recovery_pending = True
        # Restart the idle clock: a freshly rebuilt session's last
        # activity is *now*, not the epoch-0 default — otherwise the
        # first expiry sweep after ``sim.now >= session_idle_timeout_ms``
        # would end every recovered session before its client's resend
        # (or the lazy pump) could reach it.
        session.last_active_ms = msp.sim.now
        session.last_ckpt_lsn = session_ckpts.get(session_id)
        stream = positions.get(session_id, [])
        session.position_stream.replace(stream)
        session.first_lsn = stream[0] if stream else session.last_ckpt_lsn
        if lazy:
            session.chain_lsn = heads.get(session_id, NO_LSN)
            session.lazy_pending = True
        to_recover.append(session)

    # 3. Broadcast the recovery message within the service domain.
    msp.broadcast_recovery(old_epoch, recovered_lsn)
    msp.sim.probe("recovery.announced", owner=msp.name)
    if tracer is not None:
        tracer.instant(
            "recovery.announce",
            owner=msp.name,
            epoch=old_epoch,
            lsn=recovered_lsn,
        )
        step = tracer.span("recovery.checkpoint", owner=msp.name)

    # 4. Make a fresh MSP checkpoint (so the next crash starts here).
    from repro.core.checkpoint import perform_msp_checkpoint

    yield from perform_msp_checkpoint(msp)
    msp.sim.probe("recovery.checkpointed", owner=msp.name)
    if step is not None:
        step.end()

    # 5. Recover sessions in parallel; the caller opens for business
    # immediately, so new sessions are accepted while these replay.
    # (The sequential mode exists only for the ablation benchmark — the
    # paper's design point is that parallel recovery shortens outages.)
    # Lazy mode replaces this step entirely: no session is replayed
    # here — requests trigger their session's replay inline, and a
    # background pump drains the rest hot-first (DESIGN.md §15).
    if msp.lazy_mode:
        msp.sim.probe("recovery.lazy.analyze", owner=msp.name)
        spawn_recovery_pump(msp)
    elif msp.config.parallel_recovery:
        for session in to_recover:
            msp.sim.spawn(
                run_session_recovery(msp, session, orphan=False),
                name=f"{msp.name}.sessionrec.{session.id}",
                group=msp.group,
            )
    else:
        def _sequential():
            for session in to_recover:
                yield from run_session_recovery(msp, session, orphan=False)

        msp.sim.spawn(
            _sequential(), name=f"{msp.name}.sessionrec.seq", group=msp.group
        )
    msp.stats.recovery_scan_ms += msp.sim.now - started_at
    if span is not None:
        span.end(
            epoch=msp.epoch,
            records=len(records),
            sessions_to_recover=len(to_recover),
        )
        tracer.metrics.observe("recovery.total_ms", msp.sim.now - started_at)
    msp.sim.probe("recovery.end", owner=msp.name)


# -- lazy on-demand session recovery (DESIGN.md §15) --------------------------


def walk_session_chain(msp: "MiddlewareServer", session, head: int):
    """Walk one session's backward chain from ``head`` (generator).

    Returns the chained record lsns in forward (replay) order, or
    ``None`` if a visited record carries no chain link — a log written
    in eager mode, where the caller must fall back to the scan-derived
    position stream.  Raises :class:`LogTruncatedError` (from the
    window reader) if the chain reaches below the truncation floor, and
    :class:`SessionProtocolError` if a link leaves the session or fails
    to move strictly backward — either means a corrupt chain, and
    serving state reconstructed from it would violate exactly-once.
    """
    from repro.core.errors import SessionProtocolError
    from repro.core.log_manager import LogWindowReader
    from repro.core.records import session_of

    reader = LogWindowReader(msp.log, durable_only=False)
    positions: list[int] = []
    cursor = head
    prev_offset: int | None = None
    while cursor != NO_LSN:
        record = yield from reader.fetch(cursor)
        if session_of(record) != session.id:
            raise SessionProtocolError(
                f"{msp.name}: chain of session {session.id} reached foreign "
                f"record {record!r} at {cursor}"
            )
        offset = plsn_offset(cursor)
        if prev_offset is not None and offset >= prev_offset:
            raise SessionProtocolError(
                f"{msp.name}: chain of session {session.id} does not move "
                f"strictly backward at {cursor}"
            )
        prev_offset = offset
        positions.append(cursor)
        if record.prev_lsn is None:
            return None
        cursor = record.prev_lsn
    positions.reverse()
    return positions


def recover_session(msp: "MiddlewareServer", session):
    """Replay one lazy-pending session's chain on demand (generator).

    Idempotent under races: the claim (clearing ``lazy_pending``) is
    synchronous, so of an arriving request and a pump worker targeting
    the same session, exactly one replays it and the other sees status
    RECOVERING (busy reply / next pump pick).
    """
    if not session.lazy_pending:
        return
    session.lazy_pending = False
    session.status = SessionStatus.RECOVERING
    msp.stats.lazy_recoveries += 1
    msp.sim.probe("recovery.session.begin", owner=msp.name)
    tracer = msp.sim.tracer
    step = None
    if tracer is not None:
        step = tracer.span(
            "recovery.session.chainwalk", owner=msp.name, session=session.id
        )
    walked = None
    if session.chain_lsn != NO_LSN:
        walked = yield from walk_session_chain(msp, session, session.chain_lsn)
    if step is not None:
        step.end(
            records=len(walked) if walked is not None else 0,
            fallback=walked is None and session.chain_lsn != NO_LSN,
        )
    if walked is not None:
        if msp.config.recovery_merge_assert:
            # The chain walk must visit exactly the records the analysis
            # scan attributed to this session (the §15 safety argument's
            # executable form).
            scanned = list(session.position_stream.positions())
            if walked != scanned:
                from repro.core.errors import SessionProtocolError

                raise SessionProtocolError(
                    f"{msp.name}: chain walk of session {session.id} visited "
                    f"{walked}, scan attributed {scanned}"
                )
        session.position_stream.replace(walked)
    # A chainless (eager-written) log replays along the scan-derived
    # stream already installed on the session.
    yield from run_session_recovery(msp, session, orphan=False)
    # The replay may run long after the restart (pump backlog): the
    # idle-expiry clock restarts at the moment the session is actually
    # recovered, so it gets a full idle window to be contacted again.
    session.last_active_ms = msp.sim.now
    msp.sim.probe("recovery.session.end", owner=msp.name)


def _session_heat(msp: "MiddlewareServer", session_id: str) -> int:
    """Trace-derived request heat (PR 5 metrics registry); 0 untraced."""
    tracer = msp.sim.tracer
    if tracer is None:
        return 0
    counter = tracer.metrics.counters.get(f"heat.session.{session_id}")
    return counter.value if counter is not None else 0


class PumpQueue:
    """One restart's lazy-pump claim order: hottest first, ties to the
    smallest session id (DESIGN.md §15).

    A heap of ``(-heat, session_id)`` built once when the pump spawns
    and shared by its workers, so a claim costs O(log n) instead of a
    scan over every session.  Entries are checked lazily on pop: one
    whose session is no longer ``lazy_pending`` is dropped, as is one
    whose stored heat is below the session's current heat.  Heat only
    rises in ``MiddlewareServer._worker``, which calls :meth:`bump` to
    push a fresh entry — a check at the top of the heap cannot see a
    key that only got smaller.
    """

    __slots__ = ("_msp", "_heap")

    def __init__(self, msp: "MiddlewareServer"):
        self._msp = msp
        self._heap = [
            (-_session_heat(msp, session_id), session_id)
            for session_id, session in msp.sessions.items()
            if session.lazy_pending
        ]
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def bump(self, session_id: str) -> None:
        """Re-queue a pending session whose heat just rose."""
        session = self._msp.sessions.get(session_id)
        if session is not None and session.lazy_pending:
            heapq.heappush(
                self._heap, (-_session_heat(self._msp, session_id), session_id)
            )

    def pop(self):
        """The hottest unclaimed lazy-pending session, or ``None``."""
        heap = self._heap
        sessions = self._msp.sessions
        while heap:
            neg_heat, session_id = heapq.heappop(heap)
            session = sessions.get(session_id)
            if (
                session is not None
                and session.lazy_pending
                and -neg_heat >= _session_heat(self._msp, session_id)
            ):
                return session
        return None


def _recovery_pump(msp: "MiddlewareServer", queue: PumpQueue):
    """One background pump worker: claim and replay sessions until none
    remain.  Picking and claiming are synchronous (no yield between
    them), so concurrent workers never double-replay a session."""
    while True:
        session = queue.pop()
        if session is None:
            return
        msp.stats.pump_recoveries += 1
        msp.sim.probe("recovery.pump.step", owner=msp.name)
        yield from recover_session(msp, session)


def spawn_recovery_pump(msp: "MiddlewareServer") -> None:
    """Start the background drain under the configured concurrency
    budget (lazy mode step 5)."""
    queue = msp.pump_queue = PumpQueue(msp)
    workers = min(max(1, msp.config.recovery_pump_concurrency), len(queue))
    for i in range(workers):
        msp.sim.spawn(
            _recovery_pump(msp, queue), name=f"{msp.name}.recpump{i}", group=msp.group
        )
