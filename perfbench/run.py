"""Run one benchmark workload and print every metric by name and unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats the workload (same seed) until ``--seconds`` of
host time are used, checks that every repetition reproduces the first
one's simulated results exactly, and reports the end-to-end metrics:
simulated ones from the run, host times as medians over repetitions,
read from a clock that runs at the host's current speed on a fixed
reference loop (see ``reference.py``).

``--trace 1`` runs the workload once untraced and once under the
per-layer ledger, checks that both agree exactly, and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` next to this directory; without it the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` only."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro was imported from {repro.__file__}, not {SRC}")


def _check_manifest(metrics) -> None:
    """``BENCHMARK.json`` must list exactly the metrics this code emits."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in manifest[key]}
        emitted = {name: spec[:2] for name, spec in table.items()}
        if listed != emitted:
            raise ValueError(f"BENCHMARK.json {key} disagrees with perfbench/metrics.py")


def _differences(a: dict, b: dict) -> list:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _end_to_end(reps, metrics, workloads) -> dict:
    first = reps[0].sim
    setup = [s for rep in reps for s in rep.wall["setup_s"]]
    values = {
        "setup_s": statistics.median(setup),
        "req_per_wall_s": statistics.median(r.wall["req_per_wall_s"] for r in reps),
        "recovery_wall_s": statistics.median(r.wall["recovery_wall_s"] for r in reps),
        "peak_rss_mb": workloads.peak_rss_mb(),
    }
    for name in ("resp_p50_ms", "resp_p99_ms", "goodput_rps", "ok_frac",
                 "log_bytes_per_req", "ttfr_ms", "recovery_ms"):
        values[name] = first[name]
    return {name: values[name] for name in metrics.END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "restart", "overload"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import ledger as ledger_mod
    import metrics
    import reference
    import workloads

    try:
        _check_manifest(metrics)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    run = workloads.WORKLOADS[args.workload]
    problems = []
    started = time.perf_counter()
    if args.trace == 0:
        reps = []
        clock = reference.ReferenceClock().start()
        workloads._now = clock
        try:
            while True:
                t0 = time.perf_counter()
                reps.append(run(args.seed))
                now = time.perf_counter()
                if now - started + (now - t0) > args.seconds:
                    break
        finally:
            clock.stop()
            workloads._now = time.perf_counter
        for i, rep in enumerate(reps[1:], 1):
            diff = _differences(reps[0].sim, rep.sim)
            if diff:
                problems.append(f"repetition {i} differs from the first in {diff[:5]}")
        values = _end_to_end(reps, metrics, workloads)
        print(f"host speed over {len(clock.speeds)} reference slices: median "
              f"{statistics.median(clock.speeds):.3f}, min {min(clock.speeds):.3f}, "
              f"max {max(clock.speeds):.3f}")
        units = {name: spec[0] for name, spec in metrics.END_TO_END.items()}
    else:
        traced_args = workloads.TRACED_ARGS.get(args.workload, {})
        untraced = run(args.seed, **traced_args)
        ledger = ledger_mod.Ledger().attach(also=(workloads,))
        try:
            traced = run(args.seed, **traced_args)
        finally:
            ledger.detach()
        reps = [untraced, traced]
        diff = _differences(untraced.sim, traced.sim)
        if diff:
            problems.append(f"the traced run differs from the untraced one in {diff[:5]}")
        values = metrics.per_layer_values(
            traced.sim, ledger, traced.wall["total_s"], untraced.wall["total_s"]
        )
        values = {name: values[name] for name in metrics.PER_LAYER}
        units = {name: spec[0] for name, spec in metrics.PER_LAYER.items()}
        print(f"layer self time (s, traced run of {traced.wall['total_s']:.3f} s):")
        for layer in ledger_mod.LAYERS:
            print(f"  {layer:22s} {ledger.self_s.get(layer, 0.0):10.4f}")

    for rep in reps:
        problems += rep.problems
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    first = reps[0].sim

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(reps)} runs in {time.perf_counter() - started:.1f} s")
    print(f"response samples {first['resp_samples']}, "
          f"{first['resp_beyond_p99']} beyond p99; "
          f"{first['completed']} of {first['offered']} operations completed")
    for name, note in reps[0].notes.items():
        print(f"{name}: {json.dumps(note, sort_keys=True)}")
    table = metrics.END_TO_END if args.trace == 0 else metrics.PER_LAYER
    for name, value in values.items():
        moves = "" if args.trace == 0 else f"  -> {table[name][2]} [{table[name][3]}]"
        print(f"  {name:38s} {value:16.6f} {units[name]}{moves}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
