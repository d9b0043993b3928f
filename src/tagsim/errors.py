"""Exception hierarchy.

Simulated tag faults (the hardware traps) are kept apart from plain
API misuse and resource exhaustion:

* ``FaultError`` and its subclasses model traps; each carries a
  ``FaultReport`` describing the faulting access.
* ``UsageError`` means the caller violated an operation's contract
  (misaligned range, bad access width, non-LIFO frame exit, invalid
  configuration).  It never represents a tag fault.
* ``AllocationError`` means the heap arena or stack region ran out.
"""

from __future__ import annotations


class TagSimError(Exception):
    """Base class for every error raised by this package."""


class UsageError(TagSimError):
    """An operation was called against its contract."""


def require_int(name: str, value):
    """``value`` if it is an int and not a bool, else a UsageError naming ``name``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{name} must be an int, got {value!r}")
    return value


def require_bool(name: str, value):
    """``value`` if it is a bool, else a UsageError naming ``name``."""
    if not isinstance(value, bool):
        raise UsageError(f"{name} must be a bool, got {value!r}")
    return value


class AllocationError(TagSimError):
    """Heap arena or stack capacity exhausted."""


class TraceError(TagSimError):
    """Malformed allocation-trace input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ScenarioError(TagSimError):
    """A harness scenario faulted somewhere other than its injected bug."""


class FaultError(TagSimError):
    """A simulated trap.  ``report`` holds the full fault description.

    The message is rendered lazily: most faults raised during
    Monte-Carlo runs are caught and counted, never printed.
    """

    def __init__(self, report):
        super().__init__()
        self.report = report

    def __str__(self) -> str:
        return self.report.render()


class TagMismatchError(FaultError):
    """Pointer tag did not match the memory tag of a touched granule."""


class InvalidFreeError(FaultError):
    """free() of an address that is not a live allocation, or with a
    pointer whose tag disagrees with the chunk's tag."""


class DoubleFreeError(FaultError):
    """free() of a chunk that is already quarantined or freed."""
