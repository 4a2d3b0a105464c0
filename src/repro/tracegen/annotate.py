"""The annotation translator — "a kind of generic compiler" (Section 5.1).

"The annotation translator is a library that is linked together with the
instrumented applications, while the annotations simply are calls to the
library.  By executing the instrumented program, the annotations are
dynamically translated into the appropriate trace of operations."

Annotations describe *what the source program does* (read x, write y[i],
multiply, loop back, call f, send to node 3); the translator turns each
into the Table-1 operations a particular target processor would execute,
using the variable descriptor table for addressing and register
placement, and a virtual program counter for the instruction-fetch
stream.

Static code sites: every annotation call site is assigned a fixed
instruction address on first execution, so re-executing a loop body
"leads to recurring addresses of instruction fetches" exactly as the
paper requires (Section 3.3) — the trace generator evaluates the control
flow, the simulator just sees the fetch stream.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..operations.ops import (
    OpCode,
    Operation,
    arecv,
    asend,
    recv,
    send,
)
from ..operations.optypes import ArithType, MemType
from .vdt import TargetABI, VarDescriptor, VariableDescriptorTable, VarKind

__all__ = ["AnnotationTranslator"]

#: Enum member lookups on the class cost several plain attribute reads;
#: the per-access path uses these module bindings instead.
_LOAD = OpCode.LOAD
_STORE = OpCode.STORE

_ARITH_CODES = {
    "add": OpCode.ADD, "sub": OpCode.SUB,
    "mul": OpCode.MUL, "div": OpCode.DIV,
}


class AnnotationTranslator:
    """Translates source-level annotations into an operation stream.

    Parameters
    ----------
    emit:
        Sink called with each generated :class:`Operation` (typically a
        ``list.append`` or a node thread's buffer).
    abi:
        Target addressing/runtime capabilities.

    The translator owns a :class:`VariableDescriptorTable` and a virtual
    program counter.  It is deliberately sequential and deterministic:
    one translator per node thread.
    """

    def __init__(self, emit: Callable[[Operation], None],
                 abi: Optional[TargetABI] = None) -> None:
        self.abi = abi if abi is not None else TargetABI()
        self.vdt = VariableDescriptorTable(self.abi)
        self.emit = emit
        self._site_addr: dict = {}       # static call site -> instr address
        self._next_code_addr = self.abi.code_base
        self._call_stack: list[int] = []
        self.ops_emitted = 0
        # Operations are immutable value objects, so the recurring ops
        # of a static site (its ifetch; a loadc/arith/back-edge with
        # fixed operands) are built once and re-emitted by reference —
        # loop bodies then cost no allocations beyond their variable
        # memory accesses.
        self._ifetch_cache: dict = {}    # site -> shared IFETCH op
        self._pair_cache: dict = {}      # tagged key -> (ifetch, op)

    # -- the virtual program counter ------------------------------------

    def _site_address(self, site) -> int:
        """Fixed instruction address for a static annotation site."""
        addr = self._site_addr.get(site)
        if addr is None:
            addr = self._next_code_addr
            self._next_code_addr += self.abi.instr_bytes
            self._site_addr[site] = addr
        return addr

    def _site_ifetch(self, site) -> Operation:
        """The shared IFETCH operation of a static site."""
        op = self._ifetch_cache.get(site)
        if op is None:
            op = Operation(OpCode.IFETCH, 0, self._site_address(site))
            self._ifetch_cache[site] = op
        return op

    def _fetch(self, site) -> int:
        op = self._site_ifetch(site)
        self.emit(op)
        self.ops_emitted += 1
        return op.arg

    def _out(self, op: Operation) -> None:
        self.emit(op)
        self.ops_emitted += 1

    # -- variable declarations --------------------------------------------

    def declare_global(self, name: str, mem_type: MemType,
                       n_elements: int = 1) -> VarDescriptor:
        return self.vdt.declare(name, VarKind.GLOBAL, mem_type, n_elements)

    def declare_local(self, name: str, mem_type: MemType,
                      n_elements: int = 1) -> VarDescriptor:
        return self.vdt.declare(name, VarKind.LOCAL, mem_type, n_elements)

    def declare_argument(self, name: str, mem_type: MemType,
                         n_elements: int = 1) -> VarDescriptor:
        return self.vdt.declare(name, VarKind.ARGUMENT, mem_type, n_elements)

    # -- computational annotations -------------------------------------------

    def read(self, var: VarDescriptor, index: int = 0, *, site) -> None:
        """Use the value of ``var[index]``.

        Register-resident scalars cost nothing extra (the consuming
        instruction names the register); memory-resident variables emit
        an instruction fetch plus the load.
        """
        if var.in_register:
            return
        if not 0 <= index < var.n_elements:
            var.element_address(index)           # raises VDTError
        self.access(site, _LOAD, var.dtype,
                    var.address + index * var.elem_bytes)

    def write(self, var: VarDescriptor, index: int = 0, *, site) -> None:
        """Assign to ``var[index]``: ifetch + store (memory variables)."""
        if var.in_register:
            return
        if not 0 <= index < var.n_elements:
            var.element_address(index)           # raises VDTError
        self.access(site, _STORE, var.dtype,
                    var.address + index * var.elem_bytes)

    def access(self, site, code: OpCode, dtype: int, address: int) -> None:
        """Emit ``site``'s instruction fetch, then a ``code`` (LOAD or
        STORE) of ``dtype`` at the byte ``address``.

        The memory-access primitive under :meth:`read`/:meth:`write`,
        also used by accesses that bypass the VDT (the VSM runtime's
        shared regions).
        """
        fetch = self._ifetch_cache.get(site)
        if fetch is None:
            fetch = self._site_ifetch(site)
        emit = self.emit
        emit(fetch)
        emit(Operation(code, dtype, address))
        self.ops_emitted += 2

    def const(self, mem_type: MemType = MemType.INT32, *, site) -> None:
        """Load an immediate: ifetch + loadc."""
        key = ("c", site, int(mem_type))
        pair = self._pair_cache.get(key)
        if pair is None:
            pair = (self._site_ifetch(site),
                    Operation(OpCode.LOADC, int(mem_type)))
            self._pair_cache[key] = pair
        emit = self.emit
        emit(pair[0])
        emit(pair[1])
        self.ops_emitted += 2

    def arith(self, kind: str, arith_type: ArithType = ArithType.INT,
              count: int = 1, *, site) -> None:
        """``count`` arithmetic operations of ``kind`` at one site."""
        if count < 0:
            raise ValueError(f"arithmetic count must be >= 0, got {count}")
        key = ("a", site, kind, int(arith_type))
        pair = self._pair_cache.get(key)
        if pair is None:
            try:
                code = _ARITH_CODES[kind]
            except KeyError:
                raise ValueError(f"unknown arithmetic kind {kind!r}; "
                                 f"expected one of "
                                 f"{sorted(_ARITH_CODES)}") from None
            pair = (self._site_ifetch(site),
                    Operation(code, int(arith_type)))
            self._pair_cache[key] = pair
        f, o = pair
        emit = self.emit
        for _ in range(count):
            emit(f)
            emit(o)
        self.ops_emitted += 2 * count

    def back_edge(self, site) -> tuple[Operation, Operation]:
        """The (ifetch, branch) pair of a loop back-edge at ``site``: a
        taken branch to the site's own address.  Built on the first
        call, which fixes the site's address; later calls return the
        same two operations for re-emission."""
        key = ("b", site)
        pair = self._pair_cache.get(key)
        if pair is None:
            f = self._site_ifetch(site)
            pair = (f, Operation(OpCode.BRANCH, 0, f.arg))
            self._pair_cache[key] = pair
        return pair

    def branch(self, *, site, target_site=None) -> None:
        """A taken branch.  ``target_site`` defaults to the branch's own
        site (a tight loop back-edge, the common case)."""
        if target_site is None:
            fetch, op = self.back_edge(site)
            self._out(fetch)
            self._out(op)
            return
        self._fetch(site)
        self._out(Operation(OpCode.BRANCH, 0,
                            self._site_address(target_site)))

    def call(self, *, site) -> int:
        """Procedure call: ifetch + call, new VDT scope.

        Returns the call-site address (used by :meth:`ret`).
        """
        addr = self._fetch(site)
        self._out(Operation(OpCode.CALL, 0, addr))
        self.vdt.push_scope()
        self._call_stack.append(addr)
        return addr

    def ret(self, *, site) -> None:
        """Procedure return: ifetch + ret, pops the VDT scope."""
        if not self._call_stack:
            raise ValueError("ret annotation without a matching call")
        return_to = self._call_stack.pop() + self.abi.instr_bytes
        self._fetch(site)
        self._out(Operation(OpCode.RET, 0, return_to))
        self.vdt.pop_scope()

    # -- communication annotations ---------------------------------------------

    # "Annotations describing communication behaviour at the application
    # level directly map onto the operations listed in Table 1."

    def send(self, size: int, dest: int) -> Operation:
        op = send(size, dest)
        self._out(op)
        return op

    def recv(self, source: int) -> Operation:
        op = recv(source)
        self._out(op)
        return op

    def asend(self, size: int, dest: int) -> Operation:
        op = asend(size, dest)
        self._out(op)
        return op

    def arecv(self, source: int) -> Operation:
        op = arecv(source)
        self._out(op)
        return op
