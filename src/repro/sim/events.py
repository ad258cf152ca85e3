"""Event records emitted by the simulated machine.

The coherence directory publishes :class:`HitmEvent` records whenever an
access hits a remote core's Modified line — the hardware event underlying
Intel's ``MEM_LOAD_UOPS_LLC_HIT_RETIRED.XSNP_HITM`` PEBS counter that TMI
samples (paper section 2.1).  Fault events feed the memory-overhead and
huge-page experiments.
"""

from dataclasses import dataclass


@dataclass(slots=True)
class HitmEvent:
    """One access that hit a remote Modified cache line.

    Attributes mirror what the real PEBS machinery can observe: the
    accessor's PC and virtual address, plus simulation-side truth (the
    physical address and remote core) that the detector must *not* use
    directly — it only sees sampled :class:`~repro.oskit.perf.PebsRecord`.
    Built once per HITM while listeners are attached, so it is a plain
    slotted dataclass (a frozen one pays ``object.__setattr__`` per
    field); listeners treat it as read-only.
    """

    cycle: int
    core: int
    tid: int
    pc: int
    va: int
    pa: int
    width: int
    is_store: bool
    remote_core: int


@dataclass(frozen=True)
class FaultEvent:
    """A page fault serviced by the VM layer."""

    cycle: int
    tid: int
    va: int
    kind: str              # 'anon' | 'shared_file' | 'cow'
    page_size: int
    is_write: bool


@dataclass(frozen=True)
class CommitEvent:
    """One PTSB commit (diff + merge of all protected dirty pages)."""

    cycle: int
    pid: int
    tid: int
    pages: int
    bytes_merged: int
    reason: str  # 'lock' | 'unlock' | 'barrier' | 'atomic' | 'asm' | 'exit'
