"""Event loop, processes and events for the discrete-event simulator.

The kernel is deliberately small: a binary heap of timed callbacks plus a
generator-coroutine process abstraction.  A process is an ordinary Python
generator that *yields effects*:

- a number — sleep for that many simulated milliseconds;
- an :class:`Event` — suspend until the event is triggered; the ``yield``
  expression evaluates to the event's value (or raises its exception);
- another :class:`Process` — join it; the ``yield`` evaluates to its
  result (or re-raises its failure);
- ``None`` — relinquish control and resume at the same simulated time
  (after any already-scheduled work at that time).

Sub-routines compose with ``yield from``.  Determinism is guaranteed by
tie-breaking simultaneous events with a monotone sequence number.

Processes can be killed (used for crash injection).  A kill closes the
generator, so ``try/finally`` blocks run; finalizers must not yield.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

#: Effects a process generator may yield; see module docstring.
Effect = Any


class SimError(Exception):
    """Base class for simulator kernel errors."""


class ProcessKilled(SimError):
    """Raised when joining a process that was killed rather than finished."""


class SimTimeoutError(SimError):
    """Raised by :func:`wait_with_timeout` when the deadline passes first."""


class _Handle:
    """A cancelable scheduled callback.

    The heap holds ``(time, seq, handle)`` entries: ``seq`` is unique,
    so ordering never reaches the handle and every comparison stays in
    C.
    """

    __slots__ = ("callback", "cancelled")

    def __init__(self, callback: Callable[[], None]):
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self.cancelled = True


class Event:
    """A one-shot synchronization point carrying a value or an exception.

    Triggering is level-style: waiters registered after the trigger are
    resumed immediately.  Triggering twice is an error, which catches
    protocol bugs early.
    """

    __slots__ = ("_sim", "_triggered", "_value", "_exception", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self._sim = sim
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._waiters: list[Callable[["Event"], None]] = []
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimError(f"event {self.name!r} not yet triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the event with ``value``, waking all waiters."""
        if self._triggered:
            raise SimError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        self._dispatch()

    def fail(self, exception: BaseException) -> None:
        """Fire the event with an exception; waiters will have it raised."""
        if self._triggered:
            raise SimError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._exception = exception
        self._dispatch()

    def _dispatch(self) -> None:
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            self._sim._call_soon(lambda cb=callback: cb(self))

    def subscribe(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event fires.

        If the event already fired, the callback is scheduled immediately
        (at the current simulated time).
        """
        if self._triggered:
            self._sim._call_soon(lambda: callback(self))
        else:
            self._waiters.append(callback)

    def unsubscribe(self, callback: Callable[["Event"], None]) -> None:
        """Remove a previously registered callback if still pending."""
        try:
            self._waiters.remove(callback)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Process:
    """A running coroutine inside the simulator.

    Created via :meth:`Simulator.spawn`.  Join by yielding the process
    object from another process, or inspect :attr:`done_event`.
    """

    __slots__ = (
        "sim",
        "name",
        "_gen",
        "done_event",
        "_result",
        "_failure",
        "_finished",
        "_killed",
        "_pending_handle",
        "_waiting_event",
        "_event_callback",
        "_group",
    )

    def __init__(self, sim: "Simulator", gen: Generator, name: str):
        self.sim = sim
        self.name = name
        self._gen = gen
        self.done_event = Event(sim, name=f"done:{name}")
        self._result: Any = None
        self._failure: Optional[BaseException] = None
        self._finished = False
        self._killed = False
        self._pending_handle: Optional[_Handle] = None
        self._waiting_event: Optional[Event] = None
        self._event_callback: Optional[Callable[[Event], None]] = None
        self._group: Optional["ProcessGroup"] = None

    # -- introspection -------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self._finished

    @property
    def killed(self) -> bool:
        return self._killed

    @property
    def result(self) -> Any:
        """The return value of the generator; raises if it failed."""
        if not self._finished:
            raise SimError(f"process {self.name!r} still running")
        if self._failure is not None:
            raise self._failure
        return self._result

    # -- lifecycle ------------------------------------------------------

    def kill(self) -> None:
        """Terminate the process immediately (crash injection).

        The generator is closed so ``finally`` blocks run *now*; they must
        not yield.  Joiners see :class:`ProcessKilled`.
        """
        if self._finished:
            return
        self._detach_waits()
        self._killed = True
        try:
            self._gen.close()
        finally:
            self._complete(failure=ProcessKilled(f"process {self.name!r} killed"))

    def _detach_waits(self) -> None:
        if self._pending_handle is not None:
            self._pending_handle.cancel()
            self._pending_handle = None
        if self._waiting_event is not None and self._event_callback is not None:
            self._waiting_event.unsubscribe(self._event_callback)
        self._waiting_event = None
        self._event_callback = None

    def _complete(self, result: Any = None, failure: Optional[BaseException] = None) -> None:
        if self._finished:
            return
        self._finished = True
        self._result = result
        self._failure = failure
        if self._group is not None:
            self._group._discard(self)
        if failure is None:
            self.done_event.trigger(result)
        else:
            self.done_event.fail(failure)

    # -- stepping -------------------------------------------------------

    def _resume(self, value: Any = None) -> None:
        self._step(lambda: self._gen.send(value))

    def _throw(self, exc: BaseException) -> None:
        self._step(lambda: self._gen.throw(exc))

    def _step(self, advance: Callable[[], Effect]) -> None:
        if self._finished:
            return
        self._pending_handle = None
        self._waiting_event = None
        self._event_callback = None
        try:
            effect = advance()
        except StopIteration as stop:
            self._complete(result=stop.value)
            return
        except ProcessKilled as exc:
            self._complete(failure=exc)
            return
        except Exception as exc:  # noqa: BLE001 - propagate via join
            self._complete(failure=exc)
            return
        self._interpret(effect)

    def _interpret(self, effect: Effect) -> None:
        if effect is None:
            self._pending_handle = self.sim._call_soon(lambda: self._resume(None))
        elif isinstance(effect, (int, float)):
            if effect < 0:
                self._throw(SimError(f"negative timeout {effect!r}"))
                return
            self._pending_handle = self.sim.call_later(float(effect), lambda: self._resume(None))
        elif isinstance(effect, Event):
            self._wait_on(effect)
        elif isinstance(effect, Process):
            self._wait_on(effect.done_event)
        else:
            self._throw(SimError(f"process {self.name!r} yielded bad effect {effect!r}"))

    def _wait_on(self, event: Event) -> None:
        def callback(ev: Event) -> None:
            if ev._exception is not None:
                self._throw(ev._exception)
            else:
                self._resume(ev._value)

        self._waiting_event = event
        self._event_callback = callback
        event.subscribe(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self._finished else "running"
        return f"<Process {self.name!r} {state}>"


class ProcessGroup:
    """A set of processes that can be killed together (one MSP's 'threads')."""

    def __init__(self, name: str = ""):
        self.name = name
        # Insertion-ordered on purpose: Process objects hash by identity,
        # so a set here would make kill_all() iterate in memory-address
        # order — nondeterministic across runs and processes.  Crash
        # teardown must happen in spawn order for runs to be replayable.
        self._members: dict[Process, None] = {}

    def add(self, process: Process) -> Process:
        process._group = self
        self._members[process] = None
        return process

    def _discard(self, process: Process) -> None:
        self._members.pop(process, None)

    def kill_all(self) -> None:
        """Kill every live member.  Used to model a process crash."""
        for process in list(self._members):
            process.kill()

    def __len__(self) -> int:
        return len(self._members)


class Simulator:
    """The discrete-event loop: a clock plus a heap of timed callbacks."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, _Handle]] = []
        self._seq = itertools.count()
        self._process_count = itertools.count()
        #: Callbacks executed so far — the per-shard work measure the
        #: fleet harness reports (``fleet.shard<i>.steps``).
        self.steps = 0
        self._probe_listeners: list[Callable[[str, Optional[str]], None]] = []
        #: Optional structured tracer (see :mod:`repro.trace`).  ``None``
        #: unless a harness attaches one; instrumentation sites guard
        #: with ``if sim.tracer is not None`` so the disabled cost is a
        #: single attribute load.  Typed loosely to keep the kernel free
        #: of higher-layer imports.
        self.tracer: Optional[object] = None

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    # -- crash-site probes ----------------------------------------------

    def probe(self, site: str, owner: Optional[str] = None) -> None:
        """Announce that execution reached crash site ``site``.

        Probes are the instrumentation the crash-schedule explorer
        (:mod:`repro.fuzz`) enumerates and kills at: every log append,
        flush boundary, checkpoint phase, message delivery and recovery
        step calls ``sim.probe(...)`` with the owning MSP's name.  With
        no listener registered this is a near-free no-op, so production
        paths stay uninstrumented-cost.
        """
        if not self._probe_listeners:
            return
        for listener in tuple(self._probe_listeners):
            listener(site, owner)

    def add_probe_listener(
        self, listener: Callable[[str, Optional[str]], None]
    ) -> None:
        """Register ``listener(site, owner)`` for every probe firing."""
        self._probe_listeners.append(listener)

    def remove_probe_listener(
        self, listener: Callable[[str, Optional[str]], None]
    ) -> None:
        """Unregister a probe listener (idempotent)."""
        try:
            self._probe_listeners.remove(listener)
        except ValueError:
            pass

    # -- scheduling -----------------------------------------------------

    def call_at(self, time: float, callback: Callable[[], None]) -> _Handle:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        if time < self._now:
            raise SimError(f"cannot schedule in the past ({time} < {self._now})")
        handle = _Handle(callback)
        heapq.heappush(self._heap, (time, next(self._seq), handle))
        return handle

    def call_later(self, delay: float, callback: Callable[[], None]) -> _Handle:
        """Schedule ``callback`` to run ``delay`` ms from now."""
        return self.call_at(self._now + delay, callback)

    def _call_soon(self, callback: Callable[[], None]) -> _Handle:
        return self.call_at(self._now, callback)

    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot :class:`Event`."""
        return Event(self, name=name)

    # -- processes ------------------------------------------------------

    def spawn(
        self,
        gen: Generator,
        name: str = "",
        group: Optional[ProcessGroup] = None,
    ) -> Process:
        """Start a new process from generator ``gen``.

        The first step runs at the current simulated time, not inline, so
        spawning from within a process is race-free.
        """
        if not name:
            name = f"proc-{next(self._process_count)}"
        process = Process(self, gen, name)
        if group is not None:
            group.add(process)
            # A crash site: an MSP that just spawned a thread can die
            # before that thread ever runs.  Ungrouped (harness-level)
            # processes are not crash units and stay unprobed.
            self.probe("kernel.spawn", owner=group.name)
        self._call_soon(lambda: process._resume(None))
        return process

    # -- running --------------------------------------------------------

    def step(self) -> bool:
        """Run the next scheduled callback.  Returns False when idle."""
        while self._heap:
            time, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = time
            self.steps += 1
            handle.callback()
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains or the clock passes ``until``."""
        if until is None:
            while self.step():
                pass
            return
        while self._heap:
            time, _, head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if time > until:
                break
            self.step()
        self._now = max(self._now, until)

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn ``gen``, run the simulation to quiescence, return its result."""
        process = self.spawn(gen, name=name)
        self.run()
        return process.result

    def run_until_process(self, process: Process, limit: Optional[float] = None) -> None:
        """Run until ``process`` finishes (daemons would otherwise keep
        the loop alive forever).  ``limit`` bounds runaway simulations."""
        while process.alive:
            if limit is not None and self._now > limit:
                break
            if not self.step():
                break


def first_of(sim: Simulator, events: Iterable[Event], name: str = "first") -> Event:
    """An event that fires when the first of ``events`` fires.

    Its value is ``(index, value)`` of the winning event.  Failures win
    too: the combined event fails with the same exception.
    """
    events = list(events)
    combined = sim.event(name=name)

    def make_callback(index: int) -> Callable[[Event], None]:
        def callback(ev: Event) -> None:
            if combined.triggered:
                return
            if ev._exception is not None:
                combined.fail(ev._exception)
            else:
                combined.trigger((index, ev._value))

        return callback

    for i, event in enumerate(events):
        event.subscribe(make_callback(i))
    return combined


def wait_with_timeout(sim: Simulator, event: Event, timeout: float):
    """Wait for ``event`` or ``timeout`` ms, whichever comes first.

    A generator for use with ``yield from``; returns the event's value or
    raises :class:`SimTimeoutError`.
    """
    timer = sim.event(name="timeout")
    handle = sim.call_later(timeout, lambda: timer.trigger(None) if not timer.triggered else None)
    winner = first_of(sim, [event, timer])
    index, value = yield winner
    handle.cancel()
    if index == 1:
        raise SimTimeoutError(f"timed out after {timeout} ms")
    return value
