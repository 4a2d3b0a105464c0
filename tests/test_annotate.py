"""Annotation translator: annotation -> operation translation."""

from __future__ import annotations

import pytest

from repro.operations import ArithType, MemType, OpCode
from repro.tracegen import AnnotationTranslator, TargetABI


def make_translator(**abi_kw):
    ops = []
    tr = AnnotationTranslator(ops.append, TargetABI(**abi_kw))
    return tr, ops


class TestMemoryAnnotations:
    def test_memory_read_emits_ifetch_and_load(self):
        tr, ops = make_translator()
        arr = tr.declare_global("a", MemType.FLOAT64, 4)
        tr.read(arr, 2, site="s1")
        assert [op.code for op in ops] == [OpCode.IFETCH, OpCode.LOAD]
        assert ops[1].address == arr.element_address(2)
        assert ops[1].mem_type is MemType.FLOAT64

    def test_register_read_emits_nothing(self):
        tr, ops = make_translator()
        i = tr.declare_local("i", MemType.INT32)
        assert i.in_register
        tr.read(i, site="s1")
        assert ops == []

    def test_write_emits_store(self):
        tr, ops = make_translator()
        arr = tr.declare_global("a", MemType.INT32, 4)
        tr.write(arr, 0, site="s1")
        assert ops[1].code is OpCode.STORE

    def test_const(self):
        tr, ops = make_translator()
        tr.const(MemType.FLOAT32, site="s")
        assert [op.code for op in ops] == [OpCode.IFETCH, OpCode.LOADC]
        assert ops[1].mem_type is MemType.FLOAT32


class TestRecurringAddresses:
    def test_same_site_same_ifetch_address(self):
        """Loop bodies produce recurring fetch addresses (Section 3.3)."""
        tr, ops = make_translator()
        arr = tr.declare_global("a", MemType.INT32, 16)
        for i in range(4):
            tr.read(arr, i, site="loop-body")
        fetches = [op.address for op in ops if op.code is OpCode.IFETCH]
        assert len(fetches) == 4
        assert len(set(fetches)) == 1

    def test_distinct_sites_distinct_addresses(self):
        tr, ops = make_translator()
        tr.const(site="a")
        tr.const(site="b")
        fetches = [op.address for op in ops if op.code is OpCode.IFETCH]
        assert fetches[0] != fetches[1]

    def test_addresses_are_instruction_aligned(self):
        tr, ops = make_translator(instr_bytes=4)
        tr.const(site="a")
        tr.const(site="b")
        fetches = [op.address for op in ops if op.code is OpCode.IFETCH]
        assert all(a % 4 == 0 for a in fetches)
        assert abs(fetches[1] - fetches[0]) == 4


class TestArithmetic:
    def test_kinds(self):
        tr, ops = make_translator()
        tr.arith("add", ArithType.DOUBLE, site="s")
        tr.arith("div", ArithType.INT, site="s2")
        codes = [op.code for op in ops]
        assert codes == [OpCode.IFETCH, OpCode.ADD, OpCode.IFETCH, OpCode.DIV]
        assert ops[1].arith_type is ArithType.DOUBLE

    def test_count(self):
        tr, ops = make_translator()
        tr.arith("mul", ArithType.FLOAT, count=3, site="s")
        assert sum(1 for op in ops if op.code is OpCode.MUL) == 3
        assert sum(1 for op in ops if op.code is OpCode.IFETCH) == 3

    def test_negative_count_rejected(self):
        tr, ops = make_translator()
        with pytest.raises(ValueError, match="count must be >= 0"):
            tr.arith("mul", ArithType.DOUBLE, -3, site="s")
        tr.arith("mul", ArithType.DOUBLE, 0, site="s")
        assert ops == [] and tr.ops_emitted == 0

    def test_unknown_kind(self):
        tr, _ = make_translator()
        with pytest.raises(ValueError, match="unknown arithmetic"):
            tr.arith("fma", site="s")


class TestControl:
    def test_branch_defaults_to_self_loop(self):
        tr, ops = make_translator()
        tr.branch(site="loop")
        assert ops[1].code is OpCode.BRANCH
        assert ops[1].address == ops[0].address

    def test_branch_to_target_site(self):
        tr, ops = make_translator()
        tr.const(site="head")
        head_addr = ops[0].address
        tr.branch(site="tail", target_site="head")
        assert ops[-1].address == head_addr

    def test_call_ret_pair(self):
        tr, ops = make_translator()
        assert tr.vdt.scope_depth == 1
        tr.call(site="callsite")
        assert tr.vdt.scope_depth == 2
        tr.ret(site="retsite")
        assert tr.vdt.scope_depth == 1
        codes = [op.code for op in ops]
        assert codes == [OpCode.IFETCH, OpCode.CALL, OpCode.IFETCH,
                         OpCode.RET]
        # Return address = call site + one instruction.
        assert ops[3].address == ops[1].address + tr.abi.instr_bytes

    def test_unmatched_ret(self):
        tr, _ = make_translator()
        with pytest.raises(ValueError, match="without a matching call"):
            tr.ret(site="s")

    def test_nested_calls(self):
        tr, ops = make_translator()
        tr.call(site="outer")
        tr.call(site="inner")
        tr.ret(site="r1")
        tr.ret(site="r2")
        assert tr.vdt.scope_depth == 1


class TestCommunication:
    def test_direct_mapping(self):
        """Communication annotations map directly onto Table-1 ops."""
        tr, ops = make_translator()
        tr.send(1024, 3)
        tr.recv(3)
        tr.asend(64, 2)
        tr.arecv(2)
        assert [op.code for op in ops] == [
            OpCode.SEND, OpCode.RECV, OpCode.ASEND, OpCode.ARECV]
        assert ops[0].size == 1024 and ops[0].peer == 3
        # No ifetches around communication (library-call overheads are
        # modelled by the NIC's send/recv overhead parameters).
        assert all(op.code is not OpCode.IFETCH for op in ops)

    def test_ops_emitted_counter(self):
        tr, ops = make_translator()
        arr = tr.declare_global("a", MemType.INT32, 2)
        tr.read(arr, 0, site="s")
        tr.send(8, 1)
        assert tr.ops_emitted == len(ops) == 3
