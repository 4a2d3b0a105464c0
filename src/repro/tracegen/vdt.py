"""The variable descriptor table (VDT).

"Every variable used in the application has an entry in the so-called
variable descriptor table.  This table determines whether a variable is
global, local, or a function argument.  It further contains information
on the addresses of variables, whether they are placed in a register or
not and the types of the variables" (Section 5.1).

The annotation translator consults the VDT to turn a source-level
annotation ("load variable x[i]") into the appropriate memory operation
with a concrete address — or into nothing at all when the variable
lives in a register.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from ..operations.optypes import MemType

__all__ = ["VarKind", "VarDescriptor", "VariableDescriptorTable",
           "TargetABI", "VDTError"]


class VDTError(ValueError):
    """Bad variable declaration or lookup."""


class VarKind(Enum):
    """Storage class of a variable."""

    GLOBAL = "global"
    LOCAL = "local"
    ARGUMENT = "argument"


class TargetABI:
    """Addressing and runtime capabilities of the target processor.

    "[The annotation translator] performs the translation of annotations
    according to the runtime and addressing capabilities of the target
    processor" — this object is those capabilities: segment bases,
    alignment, and how many scalars the register allocator may keep in
    registers.
    """

    __slots__ = ("n_int_registers", "n_float_registers", "data_base",
                 "stack_base", "code_base", "instr_bytes", "stack_align")

    def __init__(self, n_int_registers: int = 16, n_float_registers: int = 16,
                 data_base: int = 0x1000_0000, stack_base: int = 0x7000_0000,
                 code_base: int = 0x0040_0000, instr_bytes: int = 4,
                 stack_align: int = 8) -> None:
        if min(n_int_registers, n_float_registers) < 0:
            raise VDTError("register counts must be >= 0")
        self.n_int_registers = n_int_registers
        self.n_float_registers = n_float_registers
        self.data_base = data_base
        self.stack_base = stack_base
        self.code_base = code_base
        self.instr_bytes = instr_bytes
        self.stack_align = stack_align


class VarDescriptor:
    """One VDT entry.

    ``elem_bytes`` (the element width) and ``dtype`` (the ``int`` of
    ``mem_type``, as carried by an :class:`~repro.operations.Operation`)
    are fixed at declaration so the translator's per-access path reads
    plain slots.
    """

    __slots__ = ("name", "kind", "mem_type", "n_elements", "address",
                 "in_register", "scope", "elem_bytes", "dtype")

    def __init__(self, name: str, kind: VarKind, mem_type: MemType,
                 n_elements: int, address: int, in_register: bool,
                 scope: int) -> None:
        self.name = name
        self.kind = kind
        self.mem_type = mem_type
        self.n_elements = n_elements
        self.address = address
        self.in_register = in_register
        self.scope = scope
        self.elem_bytes = mem_type.nbytes
        self.dtype = int(mem_type)

    @property
    def size_bytes(self) -> int:
        return self.n_elements * self.elem_bytes

    def element_address(self, index: int = 0) -> int:
        if not 0 <= index < self.n_elements:
            raise VDTError(
                f"index {index} out of bounds for {self.name!r} "
                f"[{self.n_elements}]")
        return self.address + index * self.elem_bytes

    def __repr__(self) -> str:
        loc = "reg" if self.in_register else f"{self.address:#x}"
        return (f"<Var {self.name!r} {self.kind.value} "
                f"{self.mem_type.name}[{self.n_elements}] @ {loc}>")


class VariableDescriptorTable:
    """Allocates addresses/registers for an instrumented program's variables.

    Register allocation policy (a "generic compiler" heuristic): scalar
    locals and arguments go to registers while any remain — integer
    scalars to integer registers, floating scalars to float registers;
    arrays and globals always live in memory.  Function scopes stack:
    :meth:`push_scope` on call, :meth:`pop_scope` on return frees the
    frame's registers and stack space.
    """

    def __init__(self, abi: Optional[TargetABI] = None) -> None:
        self.abi = abi if abi is not None else TargetABI()
        self._globals: dict[str, VarDescriptor] = {}
        self._scopes: list[dict[str, VarDescriptor]] = [{}]
        self._data_cursor = self.abi.data_base
        self._stack_cursors = [self.abi.stack_base]
        self._int_regs_free = [self.abi.n_int_registers]
        self._float_regs_free = [self.abi.n_float_registers]

    # -- scopes -----------------------------------------------------------

    @property
    def scope_depth(self) -> int:
        return len(self._scopes)

    def push_scope(self) -> None:
        """Enter a function: a fresh frame with its own register budget."""
        self._scopes.append({})
        self._stack_cursors.append(self._stack_cursors[-1])
        self._int_regs_free.append(self.abi.n_int_registers)
        self._float_regs_free.append(self.abi.n_float_registers)

    def pop_scope(self) -> None:
        """Leave a function: frame variables (and registers) are freed."""
        if len(self._scopes) == 1:
            raise VDTError("cannot pop the outermost scope")
        self._scopes.pop()
        self._stack_cursors.pop()
        self._int_regs_free.pop()
        self._float_regs_free.pop()

    # -- declaration -------------------------------------------------------

    def declare(self, name: str, kind: VarKind, mem_type: MemType,
                n_elements: int = 1) -> VarDescriptor:
        """Add a VDT entry, assigning a register or an address."""
        if n_elements < 1:
            raise VDTError(f"{name!r}: n_elements must be >= 1")
        table = (self._globals if kind is VarKind.GLOBAL
                 else self._scopes[-1])
        if name in table:
            raise VDTError(f"variable {name!r} already declared in this scope")
        in_register = False
        address = 0
        scalar = n_elements == 1
        if kind is VarKind.GLOBAL:
            address = self._alloc_data(mem_type, n_elements)
        elif scalar and self._take_register(mem_type):
            in_register = True
        else:
            address = self._alloc_stack(mem_type, n_elements)
        desc = VarDescriptor(name, kind, mem_type, n_elements, address,
                             in_register, len(self._scopes) - 1)
        table[name] = desc
        return desc

    def _take_register(self, mem_type: MemType) -> bool:
        pool = (self._float_regs_free if mem_type.is_float
                else self._int_regs_free)
        if pool[-1] > 0:
            pool[-1] -= 1
            return True
        return False

    def _alloc_data(self, mem_type: MemType, n_elements: int) -> int:
        align = mem_type.nbytes
        self._data_cursor += (-self._data_cursor) % align
        addr = self._data_cursor
        self._data_cursor += n_elements * mem_type.nbytes
        return addr

    def _alloc_stack(self, mem_type: MemType, n_elements: int) -> int:
        align = max(mem_type.nbytes, self.abi.stack_align)
        cursor = self._stack_cursors[-1]
        cursor += (-cursor) % align
        addr = cursor
        self._stack_cursors[-1] = cursor + n_elements * mem_type.nbytes
        return addr

    # -- lookup -----------------------------------------------------------

    def lookup(self, name: str) -> VarDescriptor:
        """Innermost-scope-first name resolution (then globals)."""
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        if name in self._globals:
            return self._globals[name]
        raise VDTError(f"undeclared variable {name!r}")

    def __contains__(self, name: str) -> bool:
        try:
            self.lookup(name)
            return True
        except VDTError:
            return False

    def __len__(self) -> int:
        return len(self._globals) + sum(len(s) for s in self._scopes)
