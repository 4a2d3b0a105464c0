"""Helpers shared by the benchmark's workloads.

Spans are recorded from the benchmark's own files, around calls into
each layer's public functions; nothing inside ``src/repro`` is
instrumented.  Every span and counter name below is the base of a
per-layer metric in ``BENCHMARK.json`` (see :func:`per_layer_metrics`).

What each layer's metrics should move, and where:

- ``tracegen.*`` but ``stochastic``: hybrid-detailed latency and
  events_per_s; ``tracegen.stochastic_ms``: design-sweep p90;
- ``compmodel.*``, ``hybrid.*``: hybrid-detailed only;
- ``commmodel.*``, ``pearl.*`` (one span until the program has spans
  of its own; the counts tell them apart): all of comm-alltoall,
  design-sweep p90, a little of hybrid-detailed;
- ``parallel.*``: cache reads design-sweep p50, writes its p90, the
  sweep overhead hybrid-detailed slightly;
- ``service.*``: design-sweep p50.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass
class Outcome:
    """The checked result of one unit."""

    ok: bool
    events: int = 0
    reason: str = ""


class UnitError:
    """A unit that raised; it counts as failed."""

    def __init__(self, exc: BaseException) -> None:
        self.message = f"{type(exc).__name__}: {exc}"


def digest(obj: Any) -> str:
    """Short content digest of a JSON-able object (sorted keys)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_digest(reference: dict, key: str, stats: dict,
                 events: int) -> Outcome:
    """A unit whose simulated ``stats`` must match ``reference[key]``."""
    got, want = digest(stats), reference.get(key)
    if got != want:
        return Outcome(False, events,
                       f"{key}: digest {got} != reference {want}")
    return Outcome(True, events)


#: interpreter steps of one host-speed probe
PROBE_ITERATIONS = 20000
#: the probe's time, in ms, on the undisturbed 2-core x86_64 host the
#: benchmark was tuned on; host times are scaled to this speed
PROBE_REF_MS = 3.5


def probe_ms() -> float:
    """Host milliseconds of a fixed piece of interpreter work: small
    tuples, strings and dict stores, as in the simulator's own loops.

    On a shared host an identical unit runs up to ~1.8x slower while
    other work contends for the processor, for seconds or whole runs
    at a time, and the probe slows with it (see :func:`host_scale`)."""
    t0 = time.perf_counter()
    table: dict[int, tuple] = {}
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = (i, str(i), len(table))
    return (time.perf_counter() - t0) * 1e3


def host_scale(probe: float, sensitivity: float) -> float:
    """Factor that takes a time measured beside a probe of ``probe`` ms
    to the undisturbed host's speed: ``(PROBE_REF_MS / probe) **
    sensitivity``.

    A workload's ``host_sensitivity`` is how strongly its units slow
    with the probe: the exponent that leaves a unit's median latency
    the same among the slowest third of the probes around it as among
    the fastest third, over a 90 s run on the host the benchmark was
    tuned on.  It is below 1 where part of a unit does not slow like
    the probe, such as memory stalls.  A change of the program moves a
    scaled time in full."""
    return (PROBE_REF_MS / probe) ** sensitivity


class _Timer:
    ms = 0.0


class Spans:
    """Host milliseconds per span name and work counts, kept in memory
    for one traced run and summarised when the run ends."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, *names: str) -> Iterator[_Timer]:
        """Time the block once and book it under every name given."""
        timer = _Timer()
        t0 = time.perf_counter()
        try:
            yield timer
        finally:
            timer.ms = (time.perf_counter() - t0) * 1e3
            for name in names:
                self.samples[name].append(timer.ms)

    @contextmanager
    def unit(self) -> Iterator[_Timer]:
        """Time one unit under ``unit`` as ``measure`` in ``run.py`` times
        an untraced one: the block, then a full collection of the garbage
        it left behind."""
        with self.span("unit") as timer:
            yield timer
            gc.collect()

    def add_ms(self, name: str, ms: float) -> None:
        self.samples[name].append(ms)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def ms(self, name: str) -> float:
        return sum(self.samples.get(name, ()))


class TimedRunner:
    """Sweep runner proxy booking each variant under ``parallel.variant``."""

    def __init__(self, runner: Callable[[Any], dict], spans: Spans) -> None:
        self.runner = runner
        self.spans = spans

    def __call__(self, machine: Any) -> dict:
        with self.spans.span("parallel.variant"):
            return self.runner(machine)


def per_layer_metrics(spans: Spans, scale: float) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    Times and counts are means per unit of the traced run (a layer that
    does not run on the workload reads 0); rates and ``ns_per_*`` are
    ratios of the run's totals; ``share.*`` split the summed unit
    latency across layers, in percent.  Every time is multiplied by
    ``scale``, the :func:`host_scale` of the run's median probe time.
    """
    n = max(len(spans.samples.get("unit", ())), 1)
    c = spans.counts

    def ms(name: str) -> float:
        return spans.ms(name) * scale

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    cache_ms = (ms("parallel.cache_key") + ms("parallel.cache_get")
                + ms("parallel.cache_put"))
    sweep_ms = ms("parallel.sweep") - ms("parallel.variant")
    out = {
        "tracegen.record_ms": ms("tracegen.record") / n,
        "tracegen.ops": c["tracegen.ops"] / n,
        "tracegen.ns_per_op": ratio(ms("tracegen.record") * 1e6,
                                    c["tracegen.ops"]),
        "tracegen.global_events": c["tracegen.global_events"] / n,
        "tracegen.interleave_ms": ms("tracegen.interleave") / n,
        "tracegen.stochastic_ms": ms("tracegen.stochastic") / n,
        "compmodel.run_trace_ms": ms("compmodel.run_trace") / n,
        "compmodel.ns_per_op": ratio(ms("compmodel.run_trace") * 1e6,
                                     c["compmodel.ops"]),
        "compmodel.cache_lookups": c["compmodel.cache_lookups"] / n,
        "compmodel.l1_hit_rate": ratio(c["compmodel.l1_hits"],
                                       c["compmodel.l1_accesses"]),
        "hybrid.replay_ms": ms("hybrid.replay") / n,
        "hybrid.tasks": c["hybrid.tasks"] / n,
        "commmodel.build_ms": ms("commmodel.build") / n,
        "commmodel.run_ms": ms("commmodel.run") / n,
        "commmodel.messages": c["commmodel.messages"] / n,
        "pearl.events": c["pearl.events"] / n,
        "pearl.ns_per_event": ratio(ms("commmodel.run") * 1e6,
                                    c["pearl.events"]),
        "parallel.variant_ms": ms("parallel.variant") / n,
        "parallel.cache_key_ms": ms("parallel.cache_key") / n,
        "parallel.cache_get_ms": ms("parallel.cache_get") / n,
        "parallel.cache_put_ms": ms("parallel.cache_put") / n,
        "parallel.cache_hit_rate": ratio(c["parallel.cache_hits"],
                                         c["parallel.cache_lookups"]),
        "parallel.cache_lookups": c["parallel.cache_lookups"] / n,
        "parallel.cache_stores": c["parallel.cache_stores"] / n,
        "parallel.overhead_ms": (sweep_ms - cache_ms) / n,
        "service.submit_ms": ms("service.submit") / n,
        "service.wait_ms": ms("service.wait") / n,
        "service.fetch_ms": ms("service.fetch") / n,
        "service.polls": c["service.polls"] / n,
        "service.overhead_ms": (ms("service.overhead_cold")
                                + ms("service.overhead_warm")) / n,
        "service.overhead_cold_ms": ratio(ms("service.overhead_cold"),
                                          c["units.cold"]),
        "service.overhead_warm_ms": ratio(ms("service.overhead_warm"),
                                          c["units.warm"]),
    }
    # Layer shares of the summed unit latency.  Sweep time outside the
    # variants (cache calls included) is the parallel layer's; job
    # latency beyond the same request's in-process sweep is the
    # service's.  The rest is reported as unattributed.
    layers = {
        "tracegen": (ms("tracegen.record") + ms("tracegen.interleave")
                     + ms("tracegen.stochastic")),
        "compmodel": ms("compmodel.run_trace"),
        "commmodel": ms("commmodel.build") + ms("commmodel.run"),
        "parallel": sweep_ms,
        "service": ms("service.overhead_cold") + ms("service.overhead_warm"),
    }
    unit_ms = ms("unit")
    out["accounting.unit_ms"] = unit_ms / n
    out["accounting.unit_p50_ms"] = scale * statistics.median(
        spans.samples.get("unit") or [0.0])
    for layer, layer_ms in layers.items():
        out[f"share.{layer}"] = 100.0 * ratio(layer_ms, unit_ms)
    out["share.unattributed"] = 100.0 * ratio(
        unit_ms - sum(layers.values()), unit_ms)
    return out
