"""Layer benchmark of the multicomputer workbench.

Run from the repository root::

    python3 perfbench/run.py --workload hybrid-detailed --seed 1 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that times calls into each layer from
the benchmark's own files and reports the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

A unit is one simulation run (hybrid-detailed, comm-alltoall) or one
submitted job (design-sweep).  The timed window runs whole cycles of
units, so every run sees the same unit mix, until ``--seconds`` have
passed.  Every unit's output is checked after the window: against
``reference.json`` (regenerate with ``--write-reference`` after a change
meant to alter simulated statistics) or, for design-sweep, against the
same request run in process.

Every time is reported at the speed of an undisturbed host: it is
scaled by the time of a fixed interpreter probe measured beside it (see
``common.probe_ms`` and ``common.host_scale``), so that contention from
other work on a shared host, which slows the probe and the program
alike, does not move the metrics, and a change of the program does.
``throughput_per_s`` and ``events_per_s`` are the good units and their
events per second of the units' summed scaled latency.

``setup_s`` is the median over ``SETUP_REPEATS`` set-ups: this
process's own and the rest in fresh processes, so each pays its imports.

A unit's latency includes a full garbage collection run right after it,
which frees the cyclic garbage the unit left behind (see ``measure``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = {
    "hybrid-detailed": "wl_hybrid",
    "comm-alltoall": "wl_alltoall",
    "design-sweep": "wl_sweep",
}
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"
#: set-ups whose median is ``setup_s``
SETUP_REPEATS = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed window (default: run_seconds of "
                        "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=Path, default=REFERENCE,
                   help="reference digests the units are checked against")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up time and exit")
    p.add_argument("--write-reference", action="store_true",
                   help="recompute the reference digests of every unit "
                        "a seed can pick and write --reference")
    args = p.parse_args(argv)
    if args.workload is None and not args.write_reference:
        p.error("--workload is required")
    return args


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def fresh_setup(args: argparse.Namespace) -> float:
    """Set-up time of one fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--reference", str(args.reference),
           "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def write_reference(path: Path) -> None:
    from common import digest
    table = {}
    for name, module in WORKLOADS.items():
        mod = importlib.import_module(module)
        if hasattr(mod, "reference_entries"):
            table[name] = {key: digest(stats)
                           for key, stats in mod.reference_entries()}
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} reference digests "
          f"to {path}")


def measure(wl, seconds: float,
            spans) -> tuple[list, list[float], list[float]]:
    """Run whole cycles of units until ``seconds`` have passed; return
    the unit results, the units' host latencies (ms) and the probe times
    (ms) before the first unit and after each unit.

    A simulation leaves cyclic garbage behind, and every few units one
    would pay a full collection of its predecessors' garbage and of the
    whole heap, which would put p90 on whichever unit the collector
    happened to land on.  So the set-up heap is frozen out of the
    collector's view and each unit ends with a full collection of its
    own garbage, timed as part of that unit's latency.
    """
    from common import UnitError, probe_ms
    results, latencies = [], []
    i = 0
    gc.collect()
    gc.freeze()
    probes = [probe_ms()]
    begin = time.perf_counter()
    while True:
        for _ in range(wl.cycle_len):
            t0 = time.perf_counter()
            try:
                res = (wl.unit(i) if spans is None
                       else wl.traced_unit(i, spans))
            except Exception as exc:  # noqa: BLE001 - a failed unit
                res = UnitError(exc)
            gc.collect()
            end = time.perf_counter()
            latencies.append((end - t0) * 1e3)
            results.append(res)
            probes.append(probe_ms())
            i += 1
        if end - begin >= seconds:
            return results, latencies, probes


def scaled_latencies(latencies: list[float], probes: list[float],
                     sensitivity: float) -> list[float]:
    """Each unit's latency at the undisturbed host's speed, scaled by
    the mean of the probes just before and just after it."""
    from common import host_scale
    return [lat * host_scale((before + after) / 2, sensitivity)
            for lat, before, after in zip(latencies, probes, probes[1:])]


def run(args: argparse.Namespace, bench: dict, workdir: Path) -> int:
    setups = ([] if args.setup_only else
              [fresh_setup(args) for _ in range(SETUP_REPEATS - 1)])
    from common import Spans, host_scale, per_layer_metrics, probe_ms
    probe_before = probe_ms()
    t0 = time.perf_counter()
    module = importlib.import_module(WORKLOADS[args.workload])
    from repro.parallel import code_version
    reference = json.loads(args.reference.read_text()).get(args.workload, {})
    code_version()
    wl = module.Workload(args.seed, reference, workdir)
    try:
        wl.warm_up()
        setup_s = (time.perf_counter() - t0) * host_scale(
            (probe_before + probe_ms()) / 2, wl.host_sensitivity)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"{args.workload} seed={args.seed} inputs={wl.inputs_digest()}")
        spans = Spans() if args.trace else None
        seconds = (args.seconds if args.seconds is not None
                   else bench["run_seconds"])
        results, host_latencies, probes = measure(wl, seconds, spans)
        rss_mb = (wl.peak_rss_mb() if hasattr(wl, "peak_rss_mb") else
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        wl.close()
    outcomes = wl.verify(results)
    failed = sum(not o.ok for o in outcomes)
    for o in [o for o in outcomes if not o.ok][:5]:
        print(f"failed unit: {o.reason}", file=sys.stderr)

    if spans is not None:
        values = per_layer_metrics(spans,
                                   host_scale(statistics.median(probes),
                                              wl.host_sensitivity))
        wanted = bench["per_layer"]
    else:
        latencies = scaled_latencies(host_latencies, probes,
                                     wl.host_sensitivity)
        busy_s = sum(latencies) / 1e3
        p90 = percentile(latencies, 90)
        values = {
            "setup_s": statistics.median(setups + [setup_s]),
            "throughput_per_s": sum(o.ok for o in outcomes) / busy_s,
            "events_per_s": sum(o.events for o in outcomes) / busy_s,
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": p90,
            "peak_rss_mb": rss_mb,
            "success_rate": 1.0 - failed / len(outcomes),
        }
        wanted = bench["end_to_end"]
        print(f"{len(latencies)} units, {sum(lat > p90 for lat in latencies)}"
              f" beyond p90; host p50 {statistics.median(host_latencies):.2f}"
              f" ms, probe median {statistics.median(probes):.3f} ms; "
              f"set-ups {[round(s, 3) for s in setups + [setup_s]]} s",
              file=sys.stderr)
    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise RuntimeError(f"metrics {sorted(set(values) ^ names)} are not "
                           f"both measured and listed in BENCHMARK.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def pin_to_one_cpu() -> None:
    """Run this process, its threads and every process it starts on one
    CPU.  A unit hands work between threads (hybrid-detailed's node
    threads) or processes (design-sweep's client, server and worker);
    spread over two virtual CPUs of a shared host, each handoff waits
    for the host to run the other CPU, which on a loaded host left the
    process idle for about half of a unit.  On one CPU the thread handed
    to runs as soon as the one handing off blocks, and the probe that
    scales the unit's time runs on the same CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.write_reference:
        write_reference(args.reference)
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        return run(args, bench, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
