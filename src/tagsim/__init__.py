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

# Simulator builds and wires its layers (AccessEngine, ArenaAllocator,
# ShadowStore, SparseMemory, StackTagger), which are internal and so not
# in __all__.  They stay bound here only because bench/run.py patches
# their methods as tagsim.<Class>.
from .access import AccessEngine
from .arena import ArenaAllocator, PolicyKind, TagPolicy
from .detection import estimate_detection, theoretical_detection
from .errors import (
    AllocationError,
    DoubleFreeError,
    FaultError,
    InvalidFreeError,
    TagMismatchError,
    TagSimError,
    TraceError,
    UsageError,
)
from .faults import AccessKind, FaultKind
from .memory import SparseMemory
from .scenarios import Scenario, ScenarioKind, run_scenario
from .sim import Simulator
from .stack import StackTagger
from .tagspace import ADDR_SPACE, MtConfig, ShadowStore, StoreMode
from .traces import Alloc, Free, analyze_trace, load_trace

__version__ = "0.1.0"

# The public surface: the Simulator facade and the harness around it,
# plus every exception class so callers can name them to catch them.
# Everything else is internal to its module and importable from there.
__all__ = [
    "ADDR_SPACE",
    "AccessKind",
    "Alloc",
    "AllocationError",
    "DoubleFreeError",
    "FaultError",
    "FaultKind",
    "Free",
    "InvalidFreeError",
    "MtConfig",
    "PolicyKind",
    "Scenario",
    "ScenarioKind",
    "Simulator",
    "StoreMode",
    "TagMismatchError",
    "TagPolicy",
    "TagSimError",
    "TraceError",
    "UsageError",
    "analyze_trace",
    "estimate_detection",
    "load_trace",
    "run_scenario",
    "theoretical_detection",
]
