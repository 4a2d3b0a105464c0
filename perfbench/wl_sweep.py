"""``design-sweep``: a closed loop of HTTP sweep jobs on a local server.

One client, one connection at a time, sends sweep jobs over a
``generic-mesh`` link-bandwidth axis with stochastic task-level rows to
``repro serve --port 0 --executor local --workers 1`` started on an
empty store.  Each cold job carries a fresh seed derived from the
workload seed and is followed by three identical warm resubmits.  Cold
jobs simulate (wormhole communication model) and write the store; warm
jobs only read it and cross the HTTP front.  This is the only workload
that exercises the service and the executor, and it uses the result
cache for writes beside reads.

With one cold job per three warm ones, the median falls inside the warm
class and p90 inside the cold class.  Jobs are waited for by polling
their status at a short fixed interval: the ``/events`` stream re-checks
a quiet job only every 50 ms, which would swamp warm-job latency.  At a
2 ms interval the polls contend with the job they wait for, and warm
latency swung by up to 2x with load from elsewhere on the host; at
5 ms a warm job (about 2 ms of server work) ends within one interval,
so its latency is submit, two status round trips, one interval and the
fetch.
"""

from __future__ import annotations

import glob
import json
import os
import random
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Optional

from repro import Sweep
from repro.cli import _AxisSetter, _sweep_point_runner, build_machine
from repro.commmodel.network import MultiNodeModel
from repro.parallel import ResultCache
from repro.parallel.executor import TERMINAL_STATES
from repro.service import ServiceClient
from repro.tracegen import StochasticAppDescription, StochasticGenerator

from common import Outcome, Spans, TimedRunner, UnitError, digest

PRESET = "generic-mesh"
AXIS = "network.link_bandwidth"
BANDWIDTHS = (1.0, 2.0, 4.0)
ROUNDS = 4
WARM_RESUBMITS = 3
POLL_S = 0.005
JOB_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 60.0
ROOT = Path(__file__).resolve().parent.parent


def request_for(seed: int) -> dict:
    return {"kind": "sweep", "preset": PRESET,
            "axes": [f"{AXIS}={','.join(map(str, BANDWIDTHS))}"],
            "rounds": ROUNDS, "seed": seed}


def in_process_rows(seed: int, runner=None,
                    cache: Optional[ResultCache] = None) -> list[dict]:
    """The rows ``Sweep.run`` gives in process for ``request_for(seed)``
    (the same construction the CLI and the service use)."""
    sweep = Sweep(build_machine(PRESET), label=PRESET)
    sweep.axis(AXIS, _AxisSetter(AXIS), list(BANDWIDTHS))
    if runner is None:
        runner = partial(_sweep_point_runner, workload=None, rounds=ROUNDS,
                         seed=seed)
    return sweep.run(runner, cache=cache,
                     workload_id=f"cli-stochastic:generic:rounds={ROUNDS}"
                                 f":seed={seed}")


def task_traces(seed: int, n_nodes: int):
    return StochasticGenerator(StochasticAppDescription(), n_nodes,
                               seed=seed).generate_task_level(ROUNDS)


class TimedCache(ResultCache):
    """Result cache proxy booking key, get and put calls in spans."""

    def __init__(self, root: Path, spans: Spans) -> None:
        super().__init__(root)
        self.spans = spans

    def key_for(self, *args: Any, **kwargs: Any) -> str:
        with self.spans.span("parallel.cache_key"):
            return super().key_for(*args, **kwargs)

    def get(self, key: str) -> Optional[dict]:
        with self.spans.span("parallel.cache_get"):
            row = super().get(key)
        self.spans.count("parallel.cache_lookups")
        if row is not None:
            self.spans.count("parallel.cache_hits")
        return row

    def put(self, key: str, metrics: dict,
            meta: Optional[dict] = None) -> None:
        with self.spans.span("parallel.cache_put"):
            super().put(key, metrics, meta)
        self.spans.count("parallel.cache_stores")


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


class Server:
    """One ``repro serve`` process (and its worker) on an empty store."""

    def __init__(self, workdir: Path) -> None:
        self.log_path = workdir / "serve.log"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--executor", "local", "--workers", "1",
                 "--store", str(workdir / "store")],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        try:
            self.client = ServiceClient(self._wait_for_url())
            if not self.client.health().get("ok"):
                raise RuntimeError("server is not healthy")
        except BaseException:
            self.close()
            raise

    def _wait_for_url(self) -> str:
        marker = "repro service listening on "
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if line.startswith(marker):
                    return line[len(marker):].strip()
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError("server did not announce its URL:\n"
                           + self.log_path.read_text())

    def pids(self) -> list[int]:
        pids = [self.proc.pid]
        for path in glob.glob(f"/proc/{self.proc.pid}/task/*/children"):
            try:
                with open(path) as fh:
                    pids.extend(int(p) for p in fh.read().split())
            except OSError:
                pass
        return pids

    def peak_rss_mb(self) -> float:
        return sum(map(_peak_rss_kb, self.pids())) / 1024.0

    def close(self) -> None:
        """Stop the server and its workers and wait until all have ended."""
        pids = self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        deadline = time.monotonic() + 20
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.01)


def run_job(client: ServiceClient, request: dict,
            spans: Optional[Spans] = None) -> tuple[dict, Optional[list]]:
    """Submit, poll to a terminal state, fetch; (final record, rows)."""
    t0 = time.perf_counter()
    record = client.submit(request)
    t1 = time.perf_counter()
    deadline = t1 + JOB_TIMEOUT_S
    polls = 0
    while True:
        record = client.status(record["id"])
        polls += 1
        if record["state"] in TERMINAL_STATES:
            break
        if time.perf_counter() > deadline:
            raise TimeoutError(f"job {record['id']} still {record['state']}")
        time.sleep(POLL_S)
    t2 = time.perf_counter()
    rows = (client.result(record["id"])["rows"]
            if record["state"] == "done" else None)
    if spans is not None:
        t3 = time.perf_counter()
        spans.add_ms("service.submit", (t1 - t0) * 1e3)
        spans.add_ms("service.wait", (t2 - t1) * 1e3)
        spans.add_ms("service.fetch", (t3 - t2) * 1e3)
        spans.count("service.polls", polls)
    return record, rows


def _rows_json(rows: Any) -> str:
    return json.dumps(rows, sort_keys=True)


def job_failure(k: int, record: dict, rows: Optional[list],
                expected: list[dict]) -> str:
    """Why job ``k`` of its cycle failed, or ``""``.

    The job must end ``done`` with rows byte-identical (sorted-key JSON)
    to the in-process rows of the same request.  The cold job (k == 0)
    must miss the store on every variant and the warm resubmits must
    hit it on every variant: a broken cache key would otherwise turn the
    read path into the write path unnoticed.
    """
    total = record["total"]
    want_cache = ({"hits": 0, "misses": total, "stores": total} if k == 0
                  else {"hits": total, "misses": 0, "stores": 0})
    if record["state"] != "done":
        return f"job {record['state']}: {record['error']}"
    if record["cache"] != want_cache:
        return (f"{'cold' if k == 0 else 'warm'} job cache "
                f"{record['cache']} != {want_cache}")
    if _rows_json(rows) != _rows_json(expected):
        return "rows differ from the in-process rows of the same request"
    return ""


class Workload:
    cycle_len = 1 + WARM_RESUBMITS
    #: see ``common.host_scale``
    host_sensitivity = 0.95

    def __init__(self, seed: int, reference: dict, workdir: Path) -> None:
        self.workdir = workdir
        self.base_seed = random.Random(seed).randrange(1, 2 ** 30)
        self.n_nodes = build_machine(PRESET).n_nodes
        self.server: Optional[Server] = None
        # In-process rows of each cold seed, filled by traced units.
        self.expected: dict[int, list[dict]] = {}
        self.proxy: Optional[TimedCache] = None

    def cold_seed(self, group: int) -> int:
        return self.base_seed + group

    def inputs_digest(self) -> str:
        return digest([request_for(self.cold_seed(g)) for g in range(8)])

    def warm_up(self) -> None:
        self.server = Server(self.workdir)
        record, _ = run_job(self.server.client,
                            request_for(self.base_seed - 1))
        if record["state"] != "done":
            raise RuntimeError(f"warm-up job {record['state']}: "
                               f"{record['error']}")

    def unit(self, i: int) -> tuple[int, int, dict, Optional[list]]:
        group, k = divmod(i, self.cycle_len)
        record, rows = run_job(self.server.client,
                               request_for(self.cold_seed(group)))
        return group, k, record, rows

    def traced_unit(self, i: int,
                    spans: Spans) -> tuple[int, int, dict, Optional[list]]:
        group, k = divmod(i, self.cycle_len)
        seed = self.cold_seed(group)
        with spans.unit() as job:
            record, rows = run_job(self.server.client, request_for(seed),
                                   spans)
        if self.proxy is None:
            self.proxy = TimedCache(self.workdir / "proxy", spans)
        # The same request in process, through a timed cache proxy that
        # is cold for the cold job and warm for its resubmits.
        runner = TimedRunner(partial(_sweep_point_runner, workload=None,
                                     rounds=ROUNDS, seed=seed), spans)
        with spans.span("parallel.sweep") as sweep:
            expected = in_process_rows(seed, runner, self.proxy)
        kind = "cold" if k == 0 else "warm"
        spans.count(f"units.{kind}")
        spans.add_ms(f"service.overhead_{kind}", job.ms - sweep.ms)
        if k == 0:
            self.expected[group] = expected
            # What each variant does, one layer at a time.
            for bandwidth in BANDWIDTHS:
                machine = build_machine(PRESET)
                machine.network.link_bandwidth = bandwidth
                with spans.span("tracegen.stochastic"):
                    traces = task_traces(seed, machine.n_nodes)
                with spans.span("commmodel.build"):
                    network = MultiNodeModel(machine)
                with spans.span("commmodel.run"):
                    res = network.run(list(traces))
                spans.count("pearl.events", res.events_executed)
                spans.count("commmodel.messages", res.messages_delivered)
        return group, k, record, rows

    def verify(self, results: list[Any]) -> list[Outcome]:
        """Check every job with :func:`job_failure`; only cold jobs'
        events count."""
        outcomes = []
        task_ops: dict[int, int] = {}
        for res in results:
            if isinstance(res, UnitError):
                outcomes.append(Outcome(False, 0, res.message))
                continue
            group, k, record, rows = res
            seed = self.cold_seed(group)
            if group not in self.expected:
                self.expected[group] = in_process_rows(seed)
            reason = job_failure(k, record, rows, self.expected[group])
            events = 0
            if k == 0 and not reason:
                if group not in task_ops:
                    task_ops[group] = task_traces(seed,
                                                  self.n_nodes).total_ops
                events = sum(row["events"] + task_ops[group] for row in rows)
            outcomes.append(Outcome(not reason, events, reason))
        return outcomes

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
