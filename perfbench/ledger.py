"""Per-layer wall self-time ledger, attached to the program from outside.

The ledger wraps public entry points of each layer (class methods and
module functions, patched in place for the length of one traced run)
and every generator handed to ``Simulator.spawn``.  Each call, and each
resume of a generator, is one span; a span's self time is its duration
minus the part its child spans cover, charged to the span's layer.
Root spans are ``Simulator.step`` calls and direct calls from the
benchmark's own code, so the self times of all layers add up to the
wall time the program ran under the ledger.

Nothing here touches simulated state: the wrappers forward arguments,
return values and exceptions unchanged and add no events, so a traced
run must reproduce the untraced run exactly (``run.py`` checks this).
``repro.trace.Tracer`` is deliberately not used, because the lazy
recovery pump orders its work by tracer counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

_now = time.perf_counter

#: Module-prefix -> layer, longest prefix first.  Layers are the
#: program's modules; codec, flush and context code fold into the layer
#: that owns them.
_MODULE_LAYERS = (
    ("repro.sim.resources", "sim.resources"),
    ("repro.sim", "sim.kernel"),
    ("repro.net", "net"),
    ("repro.wire", "wire"),
    ("repro.core.records", "wire"),
    ("repro.storage", "storage"),
    ("repro.core.log_manager", "core.log_manager"),
    ("repro.core.flush", "core.log_manager"),
    ("repro.core.position_stream", "core.log_manager"),
    ("repro.core.plsn", "core.log_manager"),
    ("repro.core.dv", "core.dv"),
    ("repro.core.client", "core.client"),
    ("repro.core.checkpoint", "core.checkpoint"),
    ("repro.core.crash_recovery", "core.crash_recovery"),
    ("repro.core.replay", "core.replay"),
    ("repro.core", "core.msp"),
    ("repro.fleet", "fleet"),
)

#: Every layer the ledger reports; ``app`` is workload and benchmark code
#: (service methods run inside MSP processes and are charged there).
LAYERS = (
    "sim.kernel",
    "sim.resources",
    "net",
    "wire",
    "storage",
    "core.log_manager",
    "core.dv",
    "core.msp",
    "core.client",
    "core.checkpoint",
    "core.crash_recovery",
    "core.replay",
    "fleet",
    "app",
)

#: Entry points wrapped per module: ``{module: {class or "": [names]}}``.
#: A name may carry a ledger counter key after a colon.
_ENTRY_POINTS = {
    "repro.sim.kernel": {"Simulator": ["step", "spawn"]},
    "repro.sim.resources": {
        "Resource": ["acquire", "release"],
        "Store": ["put", "get", "get_with_timeout", "try_get"],
        "RWLock": ["acquire_read", "acquire_write", "release_read", "release_write"],
    },
    "repro.net.network": {"Network": ["send", "import_remote"]},
    "repro.core.records": {"": ["decode_record:records.decoded"]},
    "repro.storage.stable": {
        "StableStore": ["append", "read", "view", "read_durable", "mark_durable", "truncate"],
    },
    "repro.storage.disk": {"Disk": ["write", "read", "write_bytes", "read_bytes", "trim"]},
    "repro.core.log_manager": {
        "LogManager": ["append", "flush:log.flush", "flush_partition", "scan_durable",
                       "record_at", "truncate_to", "write_anchor", "read_anchor"],
        "LogWindowReader": ["fetch"],
    },
    "repro.core.flush": {"": ["distributed_flush"]},
    "repro.core.dv": {
        "DependencyVector": ["observe:dv.ops", "merge:dv.ops", "encode_bytes:dv.ops",
                             "prune_resolved:dv.ops"],
    },
    "repro.core.msp": {"MiddlewareServer": ["crash", "restart_process", "start_process"]},
    "repro.core.client": {"ClientSession": ["call", "end"]},
    "repro.core.checkpoint": {
        "": ["take_session_checkpoint", "sv_checkpoint", "perform_msp_checkpoint"],
    },
    "repro.core.crash_recovery": {
        "": ["recover_msp", "recover_session", "analyze_scan", "walk_session_chain"],
    },
    "repro.core.replay": {"": ["run_session_recovery"]},
    "repro.fleet.runner": {"": ["run_fleet"]},
    "repro.fleet.shard": {"FleetShard": ["run_until", "inject", "take_outbox", "finalize"]},
}


def layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "app"


def _module_of_file(filename: str) -> str:
    marker = "/repro/"
    i = filename.replace("\\", "/").rfind(marker)
    if i < 0:
        return ""
    path = filename[i + 1:].rsplit(".", 1)[0]
    return path.replace("/", ".").removesuffix(".__init__")


class _Span:
    """Generator proxy: times every resume as one span of ``layer``."""

    __slots__ = ("_gen", "_layer", "_ledger")

    def __init__(self, gen, layer: str, ledger: "Ledger"):
        self._gen = gen
        self._layer = layer
        self._ledger = ledger

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._ledger.span(self._layer, self._gen.send, value)

    def throw(self, *exc):
        return self._ledger.span(self._layer, self._gen.throw, *exc)

    def close(self):
        return self._ledger.span(self._layer, self._gen.close)


class _SimTimedSpan(_Span):
    """A generator span that also sums the simulated time from the
    call to its return (used for log-flush waits)."""

    __slots__ = ("_sim", "_started", "_key")

    def __init__(self, gen, layer, ledger, sim, key):
        super().__init__(gen, layer, ledger)
        self._sim = sim
        self._started = sim.now
        self._key = key

    def send(self, value):
        try:
            return super().send(value)
        except StopIteration:
            self._ledger.sim_ms[self._key] += self._sim.now - self._started
            raise


class Ledger:
    """Self time per layer plus call counts per entry point."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.sim_ms: dict[str, float] = defaultdict(float)
        self.dv_bytes = 0
        self.stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._code_layers: dict[object, str] = {}
        self._also: tuple = ()

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` as one span of ``layer``; returns its result."""
        stack = self.stack
        stack.append(0.0)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            d = _now() - t0
            self.self_s[layer] += d - stack.pop()
            if stack:
                stack[-1] += d

    # -- attaching -------------------------------------------------------

    def attach(self, also=()) -> "Ledger":
        """Patch every entry point; ``also`` lists further modules
        (the benchmark's own) whose imported names are rebound too."""
        import repro.core.records as records
        import repro.sim.kernel as kernel

        self._also = tuple(also)
        for module_name, owners in _ENTRY_POINTS.items():
            module = importlib.import_module(module_name)
            layer = layer_of_module(module_name)
            for owner_name, names in owners.items():
                for entry in names:
                    name, _, key = entry.partition(":")
                    if owner_name:
                        self._patch_method(getattr(module, owner_name), name, layer, key)
                    else:
                        self._patch_function(module, name, layer, key)
        for cls in vars(records).values():
            if isinstance(cls, type) and "encode" in vars(cls):
                self._patch_method(cls, "encode", "wire", "records.encoded")
        self._patch_scheduling(kernel.Simulator)
        return self

    def detach(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _set(self, owner, name, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, fn, layer: str, key: str, qualname: str):
        calls = self.calls
        counter = key or qualname
        if inspect.isgeneratorfunction(fn):
            if key == "log.flush":
                def wrapper(owner, *args, **kwargs):
                    calls[counter] += 1
                    return _SimTimedSpan(
                        fn(owner, *args, **kwargs), layer, self, owner.sim, key
                    )
            else:
                def wrapper(*args, **kwargs):
                    calls[counter] += 1
                    return _Span(fn(*args, **kwargs), layer, self)
            return wrapper
        measure_bytes = qualname == "DependencyVector.encode_bytes"

        def wrapper(*args, **kwargs):
            calls[counter] += 1
            result = self.span(layer, fn, *args, **kwargs)
            if measure_bytes:
                self.dv_bytes += len(result)
            return result

        return wrapper

    def _patch_method(self, cls, name: str, layer: str, key: str) -> None:
        raw = cls.__dict__[name]
        qualname = f"{cls.__name__}.{name}"
        if isinstance(raw, staticmethod):
            self._set(cls, name, staticmethod(self._wrap(raw.__func__, layer, key, qualname)))
        elif name == "spawn":
            self._set(cls, name, self._wrap_spawn(raw))
        else:
            self._set(cls, name, self._wrap(raw, layer, key, qualname))

    def _patch_function(self, module, name: str, layer: str, key: str) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(original, layer, key, name)
        # Rebind every import site, not just the defining module.
        sites = [m for n, m in sys.modules.items() if n.startswith("repro")]
        for mod in sites + list(self._also):
            if getattr(mod, name, None) is original:
                self._set(mod, name, wrapper)

    def _wrap_spawn(self, spawn):
        inner = self._wrap(spawn, "sim.kernel", "", "Simulator.spawn")

        def wrapper(sim, gen, *args, **kwargs):
            if not isinstance(gen, _Span):
                code = getattr(gen, "gi_code", None)
                gen = _Span(gen, self._layer_of_code(code), self)
            return inner(sim, gen, *args, **kwargs)

        return wrapper

    def _patch_scheduling(self, simulator_cls) -> None:
        """Charge scheduled callbacks to the layer whose code they run.

        Callbacks defined in the kernel (process resumes, event
        dispatch) already run inside the ``Simulator.step`` span, whose
        process spans carry the layer; others (network delivery,
        resource timeouts) get a span of their own.
        """
        call_at = simulator_cls.__dict__["call_at"]

        def wrapper(sim, when, callback):
            fn = getattr(callback, "__func__", callback)
            layer = self._layer_of_code(getattr(fn, "__code__", None))
            if layer != "sim.kernel":
                callback = functools.partial(self.span, layer, callback)
            return call_at(sim, when, callback)

        self._set(simulator_cls, "call_at", wrapper)

    def _layer_of_code(self, code) -> str:
        if code is None:
            return "app"
        layer = self._code_layers.get(code)
        if layer is None:
            layer = layer_of_module(_module_of_file(code.co_filename))
            self._code_layers[code] = layer
        return layer

    # -- results ---------------------------------------------------------

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
