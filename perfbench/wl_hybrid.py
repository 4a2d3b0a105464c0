"""``hybrid-detailed``: the paper's S6a detailed-mode mix, in process.

Each unit is one ``Sweep.run`` (no result cache) of one point: an
execution-driven ``run_hybrid`` of matmul, jacobi or masterworker on a
2x2 generic mesh, at one L1d size.  The L1d axis spans both sides of the
apps' working sets.  Trace generation and the computational model do
most of the work; the kernel handles only tens to a few thousand events
per run.  Every variant re-traces the same program, so a record-once or
per-site annotation change shows here and nowhere else.

The seed shuffles each cycle of units and picks each masterworker
unit's task-cost seed from a fixed set; the reference table covers
every (app, task seed, L1d size) a seed can pick.
"""

from __future__ import annotations

import copy
import random
from functools import partial
from pathlib import Path
from typing import Any, Iterator, Optional

from repro import Sweep, Workbench, generic_multicomputer
from repro.apps import (ThreadedApplication, make_jacobi, make_master_worker,
                        make_matmul)
from repro.commmodel.network import MultiNodeModel
from repro.compmodel import SingleNodeModel, extract_tasks
from repro.operations import COMPUTATIONAL_OPS

from common import (Outcome, Spans, TimedRunner, UnitError, check_digest,
                    digest)

L1D_KIB = (1, 8, 64)
MW_TASK_SEEDS = tuple(range(8))
#: (app, units per L1d size per cycle).  Sorted by host latency the
#: classes are masterworker (~11-15 ms, 1/4 of units), jacobi (~28-34
#: ms, 2/4) and matmul (~85-95 ms, 1/4), so the median falls in the
#: middle of the jacobi class and p90 60% of the way into the matmul
#: class, where noise that widens a class moves them least.
MIX = (("masterworker", 1), ("jacobi", 2), ("matmul", 1))
#: the untimed warm-up unit: the same cost whatever the seed
WARM_UP = ("jacobi", 0, L1D_KIB[1])
CYCLE_LEN = len(L1D_KIB) * sum(n for _, n in MIX)


def make_program(app: str, param: int):
    if app == "matmul":
        return make_matmul(n=20)
    if app == "jacobi":
        return make_jacobi(grid=20, iterations=3)
    return make_master_worker(n_tasks=24, seed=param)


def set_l1d_kib(machine, kib: int) -> None:
    machine.node.cache_levels[0].data.size_bytes = kib * 1024


def reference_key(app: str, param: int, kib: int) -> str:
    return f"{app}:{param}:l1d={kib}KiB"


def unit_stats(res) -> dict:
    """The simulated statistics a unit is checked on."""
    caches = {}
    for node in res.node_summaries:
        for name, cache in node["memory_system"]["caches"].items():
            caches[name] = [cache["hits"], cache["misses"]]
    return {
        "total_cycles": res.total_cycles,
        "instructions": res.total_instructions,
        "events_executed": res.comm.events_executed,
        "trace_ops": sum(t.computational_ops + t.communication_ops
                         for t in res.task_stats),
        "caches": caches,
    }


def hybrid_variant(machine, app: str, param: int,
                   spans: Optional[Spans] = None) -> dict:
    """Sweep runner: one execution-driven hybrid run."""
    program = make_program(app, param)
    if spans is None:
        return unit_stats(Workbench(machine).run_hybrid(program))
    with spans.span("hybrid.run_hybrid"):
        res = Workbench(machine).run_hybrid(program)
    return unit_stats(res)


def _variant_machine(base, kib: int):
    machine = copy.deepcopy(base)
    set_l1d_kib(machine, kib)
    return machine


class Workload:
    cycle_len = CYCLE_LEN
    #: see ``common.host_scale``
    host_sensitivity = 0.85

    def __init__(self, seed: int, reference: dict, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.reference = reference
        self.base = generic_multicomputer("mesh", (2, 2))
        self.schedule: list[tuple[str, int, int]] = []

    def spec(self, i: int) -> tuple[str, int, int]:
        """(app, masterworker task seed or 0, L1d KiB) of unit ``i``."""
        while i >= len(self.schedule):
            cycle = [(app, self.rng.choice(MW_TASK_SEEDS)
                      if app == "masterworker" else 0, kib)
                     for kib in L1D_KIB for app, n in MIX for _ in range(n)]
            self.rng.shuffle(cycle)
            self.schedule.extend(cycle)
        return self.schedule[i]

    def inputs_digest(self) -> str:
        return digest([self.spec(i) for i in range(4 * CYCLE_LEN)])

    def _run_sweep(self, spec: tuple[str, int, int],
                   runner) -> tuple[tuple, dict]:
        app, param, kib = spec
        sweep = Sweep(self.base, label="hybrid-detailed")
        sweep.axis("l1d_kib", set_l1d_kib, [kib])
        (row,) = sweep.run(runner, workload_id=f"perfbench:{app}:{param}")
        return spec, row

    def warm_up(self) -> None:
        self._run_sweep(WARM_UP, partial(hybrid_variant, app=WARM_UP[0],
                                         param=WARM_UP[1]))

    def unit(self, i: int) -> tuple[tuple, dict]:
        app, param, _ = spec = self.spec(i)
        return self._run_sweep(spec, partial(hybrid_variant, app=app,
                                             param=param))

    def traced_unit(self, i: int, spans: Spans) -> tuple[tuple, dict]:
        app, param, kib = spec = self.spec(i)
        runner = TimedRunner(partial(hybrid_variant, app=app, param=param,
                                     spans=spans), spans)
        hybrid_before = spans.ms("hybrid.run_hybrid")
        with spans.unit(), spans.span("parallel.sweep"):
            result = self._run_sweep(spec, runner)
        hybrid_ms = spans.ms("hybrid.run_hybrid") - hybrid_before
        row = result[1]

        # The same program and machine again, one layer at a time.
        machine = _variant_machine(self.base, kib)
        application = ThreadedApplication(make_program(app, param),
                                          machine.n_nodes)
        with spans.span("tracegen.record") as record:
            traces = application.record()
        ops = [list(trace) for trace in traces]
        spans.count("tracegen.ops", sum(map(len, ops)))
        spans.count("tracegen.global_events",
                    sum(op.code not in COMPUTATIONAL_OPS
                        for node_ops in ops for op in node_ops))
        with spans.span("hybrid.replay") as replay_timer:
            replay = Workbench(machine).run_mixed_traces(traces)
        spans.count("hybrid.tasks",
                    sum(t.tasks_emitted for t in replay.task_stats))
        # Interleaving cost is defined only where replaying the recorded
        # trace reproduces the execution-driven run.
        if "error" not in row and replay.total_cycles == row["total_cycles"]:
            spans.add_ms("tracegen.interleave",
                         hybrid_ms - record.ms - replay_timer.ms)

        for node, node_ops in enumerate(ops):
            comp = [op for op in node_ops if op.code in COMPUTATIONAL_OPS]
            model = SingleNodeModel(machine.node, node_id=node)
            with spans.span("compmodel.run_trace"):
                model.run_trace(comp)
            spans.count("compmodel.ops", len(comp))
            for name, cache in model.hierarchy.summary()["caches"].items():
                spans.count("compmodel.cache_lookups", cache["accesses"])
                if ".L1" in name:
                    spans.count("compmodel.l1_accesses", cache["accesses"])
                    spans.count("compmodel.l1_hits", cache["hits"])

        tasks = [list(extract_tasks(SingleNodeModel(machine.node,
                                                    node_id=node), node_ops))
                 for node, node_ops in enumerate(ops)]
        with spans.span("commmodel.build"):
            network = MultiNodeModel(machine)
        with spans.span("commmodel.run"):
            comm = network.run(tasks)
        spans.count("pearl.events", comm.events_executed)
        spans.count("commmodel.messages", comm.messages_delivered)
        return result

    def verify(self, results: list[Any]) -> list[Outcome]:
        outcomes = []
        for res in results:
            if isinstance(res, UnitError):
                outcomes.append(Outcome(False, 0, res.message))
                continue
            (app, param, kib), row = res
            if "error" in row:
                outcomes.append(Outcome(False, 0, row["error"]))
                continue
            stats = {k: v for k, v in row.items() if k != "l1d_kib"}
            outcomes.append(check_digest(
                self.reference, reference_key(app, param, kib), stats,
                stats["events_executed"] + stats["trace_ops"]))
        return outcomes

    def close(self) -> None:
        pass


def reference_entries() -> Iterator[tuple[str, dict]]:
    """Every (key, stats) a seed can ask this workload for."""
    base = generic_multicomputer("mesh", (2, 2))
    for kib in L1D_KIB:
        machine = _variant_machine(base, kib)
        for app, _ in MIX:
            params = MW_TASK_SEEDS if app == "masterworker" else (0,)
            for param in params:
                yield (reference_key(app, param, kib),
                       hybrid_variant(machine, app, param))
