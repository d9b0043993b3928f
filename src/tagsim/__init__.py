"""tagsim: a software simulator of hardware memory tagging.

Models a machine where every aligned granule of memory carries a small
tag, pointers carry a matching tag in their top bits, and hardware
checks the two on every load and store.  On top of the core machine
sit a tagging heap allocator with retag-on-free, quarantine, and
sampling; stack frame tagging; an optional byte-precise scheme for
partially used granules; and a measurement harness (seeded bug
scenarios, Monte-Carlo detection estimation, allocation-trace RAM
analysis) with a CLI front end.
"""

from .access import AccessEngine, EFAULT, RangeCheckError
from .arena import (
    AllocatorStats,
    ArenaAllocator,
    Chunk,
    ChunkState,
    PolicyKind,
    TagPolicy,
)
from .detection import DetectionReport, estimate_detection, theoretical_detection
from .errors import (
    AllocationError,
    DoubleFreeError,
    FaultError,
    InvalidFreeError,
    ScenarioError,
    TagMismatchError,
    TagSimError,
    TraceError,
    UsageError,
)
from .faults import AccessKind, FaultKind, FaultReport
from .memory import SparseMemory
from .precision import PartialGranuleMeta, mark_partial, partial_access_ok, read_partial_meta
from .scenarios import Scenario, ScenarioKind, ScenarioResult, run_scenario
from .sim import Simulator
from .stack import Frame, FrameOverhead, LocalSlot, StackTagger
from .tagspace import (
    ADDR_BITS,
    ADDR_SPACE,
    MtConfig,
    ShadowStore,
    StoreMode,
    granule_index,
    offset_ptr,
    pack,
    tag_storage_bits,
    unpack,
)
from .traces import (
    Alloc,
    Free,
    OverheadReport,
    OverheadRow,
    analyze_trace,
    load_trace,
    parse_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ADDR_BITS",
    "ADDR_SPACE",
    "AccessEngine",
    "AccessKind",
    "Alloc",
    "AllocationError",
    "AllocatorStats",
    "ArenaAllocator",
    "Chunk",
    "ChunkState",
    "DetectionReport",
    "DoubleFreeError",
    "EFAULT",
    "FaultError",
    "FaultKind",
    "FaultReport",
    "Frame",
    "FrameOverhead",
    "Free",
    "InvalidFreeError",
    "LocalSlot",
    "MtConfig",
    "OverheadReport",
    "OverheadRow",
    "PartialGranuleMeta",
    "PolicyKind",
    "RangeCheckError",
    "Scenario",
    "ScenarioError",
    "ScenarioKind",
    "ScenarioResult",
    "ShadowStore",
    "Simulator",
    "SparseMemory",
    "StackTagger",
    "StoreMode",
    "TagMismatchError",
    "TagPolicy",
    "TagSimError",
    "TraceError",
    "UsageError",
    "analyze_trace",
    "estimate_detection",
    "granule_index",
    "load_trace",
    "mark_partial",
    "offset_ptr",
    "pack",
    "parse_trace",
    "partial_access_ok",
    "read_partial_meta",
    "run_scenario",
    "tag_storage_bits",
    "theoretical_detection",
    "unpack",
]
