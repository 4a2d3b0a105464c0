"""Annotation sites: per-app trace goldens and site semantics.

Every annotation call site gets a fixed instruction address on its
first execution (Section 3.3).  The goldens pin the complete operation
stream of every bundled instrumented app, so any change to how sites
are resolved or addresses assigned shows up as a digest mismatch.
Regenerate deliberately with ``REPRO_REGEN_GOLDEN=1``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.apps import (ThreadedApplication, make_alltoall, make_fft,
                        make_jacobi, make_master_worker, make_matmul,
                        make_pingpong, make_pipeline, make_reduction)
from repro.operations import ArithType, MemType, OpCode, Operation

GOLDEN = Path(__file__).parent / "golden" / "app_traces.json"

APPS = {
    "matmul": make_matmul,
    "jacobi": make_jacobi,
    "masterworker": make_master_worker,
    "pingpong": make_pingpong,
    "fft": make_fft,
    "pipeline": make_pipeline,
    "reduction": make_reduction,
    "alltoall": make_alltoall,
}


def trace_digest(traces) -> dict:
    """Op count and sha256 of every node's op tuples, in node order.

    Global events that are not Table-1 operations (``recv_any``) are
    encoded by their repr.
    """
    h = hashlib.sha256()
    n_ops = 0
    for trace in traces:
        h.update(b"node")
        for op in trace:
            enc = op.to_tuple() if isinstance(op, Operation) else op
            h.update(repr(enc).encode())
            n_ops += 1
    return {"ops": n_ops, "sha256": h.hexdigest()}


def all_digests() -> dict:
    return {name: trace_digest(ThreadedApplication(make(), 4).record())
            for name, make in APPS.items()}


def test_app_trace_goldens():
    digests = all_digests()
    if os.environ.get("REPRO_REGEN_GOLDEN") or not GOLDEN.exists():
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True)
                          + "\n")
        pytest.skip("app trace goldens (re)generated")
    assert digests == json.loads(GOLDEN.read_text()), (
        "an app's operation stream changed; if that is intended, "
        "regenerate with REPRO_REGEN_GOLDEN=1")


def record_with_context(program, n_nodes=1):
    """Record ``program`` and return (traces, node 0's NodeContext)."""
    contexts = []

    def wrapped(ctx):
        contexts.append(ctx)
        program(ctx)
    return ThreadedApplication(wrapped, n_nodes).record(), contexts[0]


def fetch_addresses(trace, code=OpCode.LOAD):
    """Fetch address of each ``code`` op (the ifetch just before it)."""
    ops = list(trace)
    return [ops[i - 1].address for i, op in enumerate(ops)
            if op.code is code]


def test_annotations_on_one_line_share_an_address():
    def program(ctx):
        a = ctx.global_var("a", MemType.INT32, 4)
        ctx.read(a, 0); ctx.read(a, 1)          # noqa: E702
        ctx.read(a, 2)
    ts, _ = record_with_context(program)
    first, second, third = fetch_addresses(ts[0])
    assert first == second != third


def test_call_split_over_lines_gets_one_address():
    def program(ctx):
        a = ctx.global_var("a", MemType.INT32, 4)
        for i in range(3):
            ctx.read(
                a,
                i,
            )
        ctx.read(a, 3)
    ts, _ = record_with_context(program)
    addrs = fetch_addresses(ts[0])
    assert len(set(addrs[:3])) == 1
    assert addrs[3] != addrs[0]


def test_freed_code_objects_keep_distinct_sites():
    """Generated programs whose code objects die mid-run: each line is
    its own site even when a later code object reuses a freed one's
    memory (same bytecode, same offsets, different line)."""
    def program(ctx):
        a = ctx.global_var("a", MemType.INT32, 4)
        for k in range(12):
            source = "\n" * k + "def body(ctx, a):\n    ctx.read(a, 0)\n"
            namespace: dict = {}
            exec(compile(source, "<generated>", "exec"), namespace)
            namespace["body"](ctx, a)
            del namespace
            gc.collect()
    ts, _ = record_with_context(program)
    addrs = fetch_addresses(ts[0])
    assert len(addrs) == 12
    assert len(set(addrs)) == 12


def test_site_table_holds_one_entry_per_call_site():
    """Iterations hit the table; only first executions add entries."""
    def program(ctx):
        a = ctx.global_var("a", MemType.FLOAT64, 64)
        for i in ctx.loop(range(50)):
            ctx.read(a, i)
            ctx.mul(ArithType.DOUBLE)
            ctx.const(MemType.FLOAT64)
            ctx.write(a, i)
    ts, ctx = record_with_context(program)
    assert len(ctx._sites) == 5             # the loop + four annotations
    assert len(set(fetch_addresses(ts[0], OpCode.BRANCH))) == 1
