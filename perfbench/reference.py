"""A host clock that runs at the speed of a fixed piece of reference work.

On a shared host the same code runs up to ~30% faster or slower from
one minute to the next, because other tenants load the caches and
memory that the host's cores share.  A host time measured in plain
seconds then says as much about the neighbours as about the program.

The reference is a small discrete-event loop in plain Python (generator
resumes, a heap, a dict, packed bytes): the same kind of interpreter
work the simulator does, but sharing no code with the program, so a
change to the program never changes it.  ``ReferenceClock`` interrupts
the run about once a second (``SIGALRM``), times one slice of the
reference, and from then on advances at ``NOMINAL_S`` over the mean of
the last few slice times.  The clock stands still while a slice runs.
Host times read from it are in reference seconds: what they would have
been with the host at the speed ``NOMINAL_S`` was measured at.  Slices
must be this frequent: one slice per ~20 s tracked the host's speed
too poorly and made the spread between runs wider, not narrower.
"""

from __future__ import annotations

import collections
import gc
import heapq
import random
import signal
import statistics
import struct
import time

#: Host time of one slice on an unloaded 2-core 2.0 GHz Xeon host
#: (median of 100 slices in a fresh process).
NOMINAL_S = 0.237
STEPS = 90_000
PROCESSES = 200
#: Host time between the end of one slice and the start of the next.
PERIOD_S = 1.0
#: Slices averaged into the current speed.
SMOOTHING = 4


def reference_s() -> float:
    """Host time of one slice of the reference loop.

    The collector is off while it runs: its cost would grow with
    whatever the workload left on the heap, and the loop's own garbage
    is freed by reference counting.
    """
    draw = random.Random(7)
    log = []
    state = {}

    def process(pid):
        seq = 0
        while True:
            seq += 1
            record = struct.pack(">IIQ", pid, seq, seq * 31) + bytes(16)
            state[(pid, seq & 63)] = record
            log.append(record)
            if len(log) > 4096:
                del log[:2048]
            yield draw.expovariate(1.0)

    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        queue = []
        for pid in range(PROCESSES):
            gen = process(pid)
            heapq.heappush(queue, (next(gen), pid, gen))
        for _ in range(STEPS):
            when, pid, gen = heapq.heappop(queue)
            heapq.heappush(queue, (when + gen.send(None), pid, gen))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Calling the clock gives the current time in reference seconds."""

    def __init__(self):
        self.speeds: list[float] = []
        self._recent = collections.deque(maxlen=SMOOTHING)
        self._speed = 1.0
        self._ref = 0.0
        self._host = time.perf_counter()
        self._previous = None

    def __call__(self) -> float:
        return self._ref + (time.perf_counter() - self._host) * self._speed

    def start(self) -> "ReferenceClock":
        self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _slice(self) -> None:
        self._ref = self()
        speed = NOMINAL_S / reference_s()
        self.speeds.append(speed)
        self._recent.append(speed)
        self._speed = statistics.fmean(self._recent)
        self._host = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        self._slice()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
