"""``comm-alltoall``: task-level all-to-all exchanges, communication only.

Each unit is one ``run_comm_only`` of an all-to-all task trace on a 4x4
T805 grid (store-and-forward).  Pearl dispatch and the
communication model (switching, NIC, links) are all of the host time;
there is no trace generation or computational model in a unit.  This is
where a dispatcher change has to show no regression.

A heavy unit exchanges each block size of ``HEAVY_BLOCKS`` once (four
rounds, ~50-90 ms), a light unit each of ``LIGHT_BLOCKS`` (two rounds,
~16-30 ms) and a tiny unit one of them (one round, ~8-15 ms).  A cycle
holds tiny, light and heavy units 1:2:1 in an order the seed shuffles,
its heavy units dealt from a seed-shuffled deck of every heavy round
order: round orders differ in contention and so in host time, and a run
that used only some of them would move the percentiles with the seed.
The median falls in the middle of the light class and p90 60% of the
way into the heavy class, where noise that widens a class moves them
least.  The reference table covers every round order.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path
from typing import Any, Iterator

from repro import Workbench, t805_grid
from repro.apps import alltoall_task_traces
from repro.commmodel.network import MultiNodeModel
from repro.operations.trace import TraceSet

from common import Outcome, Spans, UnitError, check_digest, digest

HEAVY_BLOCKS = (256, 512, 1024, 2048)
LIGHT_BLOCKS = (64, 128)
HEAVY_ORDERS = tuple(itertools.permutations(HEAVY_BLOCKS))
LIGHT_ORDERS = tuple(itertools.permutations(LIGHT_BLOCKS))
TINY_ORDERS = tuple((block,) for block in LIGHT_BLOCKS)
ORDERS = HEAVY_ORDERS + LIGHT_ORDERS + TINY_ORDERS
#: indices into ORDERS of one cycle's tiny and light units
FIXED = ([ORDERS.index(order) for order in LIGHT_ORDERS for _ in range(2)]
         + [ORDERS.index(order) for order in TINY_ORDERS])
#: heavy units per cycle, one for every two light ones
HEAVY_PER_CYCLE = 2
N_NODES = 16


def make_traces(order: tuple[int, ...]) -> TraceSet:
    """One all-to-all round per block size, in ``order``."""
    rounds = [alltoall_task_traces(N_NODES, block, rounds=1)
              for block in order]
    return TraceSet.from_lists([[op for rnd in rounds for op in rnd[node]]
                                for node in range(N_NODES)])


def reference_key(order: tuple[int, ...]) -> str:
    return "alltoall:" + "-".join(map(str, order))


def unit_stats(res) -> dict:
    """The simulated statistics a unit is checked on."""
    summary = res.summary()
    return {
        "total_cycles": res.total_cycles,
        "events_executed": res.events_executed,
        "messages": res.messages_delivered,
        "latency_total": summary["message_latency"]["total"],
        "finish": [node["finish_time"] for node in summary["nodes"]],
    }


class Workload:
    cycle_len = len(FIXED) + HEAVY_PER_CYCLE
    #: see ``common.host_scale``
    host_sensitivity = 0.8

    def __init__(self, seed: int, reference: dict, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.reference = reference
        self.machine = t805_grid(4, 4)
        self.traces = [make_traces(order) for order in ORDERS]
        self.trace_ops = [traces.total_ops for traces in self.traces]
        self.schedule: list[int] = []
        self.deck: list[int] = []

    def spec(self, i: int) -> int:
        """Index into :data:`ORDERS` of unit ``i``."""
        while i >= len(self.schedule):
            cycle = list(FIXED)
            for _ in range(HEAVY_PER_CYCLE):
                if not self.deck:
                    self.deck = list(range(len(HEAVY_ORDERS)))
                    self.rng.shuffle(self.deck)
                cycle.append(self.deck.pop())
            self.rng.shuffle(cycle)
            self.schedule.extend(cycle)
        return self.schedule[i]

    def inputs_digest(self) -> str:
        return digest([ORDERS[self.spec(i)]
                       for i in range(len(HEAVY_ORDERS) * self.cycle_len)])

    def warm_up(self) -> None:
        Workbench(self.machine).run_comm_only(self.traces[0])

    def unit(self, i: int) -> tuple[int, dict]:
        k = self.spec(i)
        return k, unit_stats(Workbench(self.machine).run_comm_only(
            self.traces[k]))

    def traced_unit(self, i: int, spans: Spans) -> tuple[int, dict]:
        k = self.spec(i)
        with spans.unit():
            with spans.span("commmodel.build"):
                network = MultiNodeModel(self.machine)
            with spans.span("commmodel.run"):
                res = network.run(list(self.traces[k]))
        spans.count("pearl.events", res.events_executed)
        spans.count("commmodel.messages", res.messages_delivered)
        return k, unit_stats(res)

    def verify(self, results: list[Any]) -> list[Outcome]:
        outcomes = []
        for res in results:
            if isinstance(res, UnitError):
                outcomes.append(Outcome(False, 0, res.message))
                continue
            k, stats = res
            outcomes.append(check_digest(
                self.reference, reference_key(ORDERS[k]), stats,
                stats["events_executed"] + self.trace_ops[k]))
        return outcomes

    def close(self) -> None:
        pass


def reference_entries() -> Iterator[tuple[str, dict]]:
    """Every (key, stats) a seed can ask this workload for."""
    machine = t805_grid(4, 4)
    for order in ORDERS:
        yield (reference_key(order),
               unit_stats(Workbench(machine).run_comm_only(
                   make_traces(order))))
