"""The application-side VSM runtime (the paper's future work, Sec 5.1).

"Ideally, such architectural details are not visible at the application
level.  For this reason, we will use a virtual shared memory in the
future to hide all explicit communication."

A :class:`SharedRegion` gives an instrumented program a flat shared
address space: ``region.read(i)`` / ``region.write(i)`` behave like the
ordinary ``ctx.read/write`` annotations (a load/store against the
node's memory hierarchy) as long as the page holding element ``i`` is
locally valid in the required mode; otherwise the access is a **page
fault** — a global event that suspends the node thread while the VSM
protocol (see :mod:`repro.vsm.protocol`) moves the page across the
network in simulated time.  No explicit send/recv appears in the
program.

The runtime keeps a per-node *view* of page access rights ("R"/"W"),
mirroring the model-side directory; the model updates the view when
remote writes invalidate local copies (strict thread handoff makes this
race-free).
"""

from __future__ import annotations

from ..operations.ops import OpCode
from ..operations.optypes import MemType

__all__ = ["SharedRegion", "VSMFault", "VSMRuntimeError"]

#: Base virtual address of the first shared region; regions are laid
#: out consecutively with a guard gap.
_REGION_BASE = 0x4000_0000
_REGION_ALIGN = 1 << 24


class VSMRuntimeError(RuntimeError):
    """Misuse of the VSM runtime (bad offsets, missing model, ...)."""


class VSMFault:
    """A page-fault global event (suspends the node thread).

    Not a Table-1 operation: faults exist above the operation level —
    the protocol the model runs *for* the fault is what generates
    operations-worth of traffic.
    """

    __slots__ = ("region_name", "node", "page", "is_write", "view",
                 "page_bytes", "base_address")

    #: marker consumed by NodeThread.global_event.
    is_global_event = True
    #: no Table-1 opcode; model-level event.
    code = None

    def __init__(self, region_name: str, node: int, page: int,
                 is_write: bool, view: dict, page_bytes: int,
                 base_address: int) -> None:
        self.region_name = region_name
        self.node = node
        self.page = page
        self.is_write = is_write
        self.view = view
        self.page_bytes = page_bytes
        self.base_address = base_address

    def __repr__(self) -> str:
        kind = "write" if self.is_write else "read"
        return (f"vsm_fault({self.region_name!r}, page={self.page}, "
                f"{kind}, node={self.node})")


class SharedRegion:
    """One shared array distributed over the machine's pages.

    Parameters
    ----------
    ctx:
        The owning :class:`~repro.apps.api.NodeContext`.
    name:
        Region identifier; all nodes must create the region with the
        same name and geometry (SPMD style).
    n_elements / mem_type:
        Array geometry; addresses are derived for the cache models.
    page_bytes:
        VSM page size (power of two).
    """

    _region_cursor: dict[str, int] = {}

    def __init__(self, ctx, name: str, n_elements: int,
                 mem_type: MemType = MemType.FLOAT64,
                 page_bytes: int = 4096) -> None:
        if n_elements < 1:
            raise VSMRuntimeError(f"{name!r}: n_elements must be >= 1")
        if page_bytes & (page_bytes - 1) or page_bytes <= 0:
            raise VSMRuntimeError(f"{name!r}: page_bytes must be a power "
                                  "of two")
        self._ctx = ctx
        self._thread = ctx._thread
        self.name = name
        self.node = ctx.node_id
        self.n_elements = n_elements
        self.mem_type = mem_type
        self._elem_bytes = mem_type.nbytes
        self.page_bytes = page_bytes
        # Same name -> same base on every node (deterministic layout).
        slot = SharedRegion._region_slot(name)
        self.base_address = _REGION_BASE + slot * _REGION_ALIGN
        if n_elements * mem_type.nbytes > _REGION_ALIGN:
            raise VSMRuntimeError(f"{name!r}: region too large")
        #: local access rights per page: page -> "R" | "W".
        self.view: dict[int, str] = {}
        self.faults = 0

    @classmethod
    def _region_slot(cls, name: str) -> int:
        slot = cls._region_cursor.get(name)
        if slot is None:
            slot = len(cls._region_cursor)
            cls._region_cursor[name] = slot
        return slot

    # -- address helpers ---------------------------------------------------

    @property
    def n_pages(self) -> int:
        size = self.n_elements * self.mem_type.nbytes
        return -(-size // self.page_bytes)

    def element_address(self, index: int) -> int:
        if not 0 <= index < self.n_elements:
            raise VSMRuntimeError(
                f"{self.name!r}: index {index} out of bounds "
                f"[0, {self.n_elements})")
        return self.base_address + index * self._elem_bytes

    def page_of(self, index: int) -> int:
        return (self.element_address(index) - self.base_address) \
            // self.page_bytes

    # -- the shared-access API ------------------------------------------------

    def read(self, index: int) -> None:
        """Annotate a shared read; faults if the page is not local."""
        addr = self.element_address(index)
        page = self.page_of(index)
        if page not in self.view:
            self._fault(page, is_write=False)
        self._emit_access(addr, is_write=False)

    def write(self, index: int) -> None:
        """Annotate a shared write; faults unless locally writable."""
        addr = self.element_address(index)
        page = self.page_of(index)
        if self.view.get(page) != "W":
            self._fault(page, is_write=True)
        self._emit_access(addr, is_write=True)

    def _fault(self, page: int, is_write: bool) -> None:
        self.faults += 1
        fault = VSMFault(self.name, self.node, page, is_write, self.view,
                         self.page_bytes, self.base_address)
        self._thread.global_event(fault)
        # The model granted the right before resuming us.
        required = "W" if is_write else "R"
        got = self.view.get(page)
        if got != required and not (required == "R" and got == "W"):
            raise VSMRuntimeError(
                f"{self.name!r}: fault completed but page {page} is "
                f"{got!r}, needed {required!r}")

    def _emit_access(self, addr: int, is_write: bool) -> None:
        self._ctx.translator.access(
            ("vsm", self.name, is_write),
            OpCode.STORE if is_write else OpCode.LOAD,
            int(self.mem_type), addr)

    def __repr__(self) -> str:
        return (f"<SharedRegion {self.name!r} node={self.node} "
                f"pages={self.n_pages} held={len(self.view)}>")
