"""Span tracing at tagsim's layer boundaries, installed from outside.

The tracer replaces each boundary function with a wrapper at the place
where its caller looks it up (a class attribute or a module global),
records calls and self time per boundary, and restores the originals
when the ``installed`` block ends.  The program's own files are never
edited.

Self time is charged as the clock runs: each interval between two
boundary crossings belongs to the span on top of the stack, and time
outside every span belongs to a root slot.  A wrapper reads the clock
once on entry and once on exit.  Its cost, the extra call, the
bookkeeping and the program's own code running slower around it, is
charged partly to the wrapped span (``c_in``) and partly to its parent
(``c_out``).  ``calibrate`` measures both on a wrapped no-op method in
a tight loop; the caller may set a cost per span measured in place
instead (``set_span_cost``).  ``calibrated_self_ns`` subtracts it.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time

_now = time.perf_counter_ns

# A wrapper with the wrapped function's own parameter list keeps the
# interpreter's fast call paths at every call site; a *args wrapper
# costs each caller more.
_SPAN_SOURCE = """
def span({params}):
    t = now()
    parent = stack[-1]
    self_ns[parent] += t - mark[0]
    kids[parent] += 1
    calls[i] += 1
    push(i)
    mark[0] = t
    try:
        result = fn({params})
    except BaseException:
        t = now()
        self_ns[i] += t - mark[0]
        pop()
        raised[i] += 1
        mark[0] = t
        raise
    t = now()
    self_ns[i] += t - mark[0]
    pop()
    if after is not None:
        after({args}, result)
        t = now()
    mark[0] = t
    return result
"""


_SPAN_NAMES = frozenset({"fn", "after", "i", "now", "stack", "mark", "push", "pop", "calls",
                         "raised", "self_ns", "kids", "t", "parent", "result"})


def _plain_parameters(fn) -> list[str] | None:
    """The parameter names of a plain Python function whose parameters
    are all positional-or-keyword and clash with no name the wrapper
    uses, else None."""
    code = getattr(fn, "__code__", None)
    if (code is None or code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)
            or code.co_kwonlyargcount or code.co_posonlyargcount or fn.__kwdefaults__):
        return None
    names = list(code.co_varnames[: code.co_argcount])
    return None if _SPAN_NAMES.intersection(names) else names


class Tracer:
    def __init__(self, names):
        self.names = tuple(names)
        self.root = len(self.names)  # slot for time outside every span
        size = self.root + 1
        self.calls = [0] * size
        self.raised = [0] * size
        self.self_ns = [0] * size
        self.kids = [0] * size  # spans opened directly inside each slot
        self.stack = [self.root]
        self._mark = [0]  # clock reading where the current interval began
        self.c_in = 0.0
        self.c_out = 0.0

    def start(self) -> None:
        self._mark[0] = _now()

    def stop(self) -> None:
        self.self_ns[self.stack[-1]] += _now() - self._mark[0]

    def exclude(self, ns: int) -> None:
        """Charge the last ``ns`` of the current interval to no one."""
        self._mark[0] += ns

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``after(args, result)`` runs after the span, uncharged, for
        counters that need the call's arguments or result.
        """
        i = self.names.index(name)
        names = _plain_parameters(fn)
        params = "*args, **kwargs" if names is None else ", ".join(names)
        args = "args" if names is None else f"({params},)"
        namespace = {
            "fn": fn, "after": after, "i": i, "now": _now, "stack": self.stack,
            "mark": self._mark, "push": self.stack.append, "pop": self.stack.pop,
            "calls": self.calls, "raised": self.raised, "self_ns": self.self_ns,
            "kids": self.kids,
        }
        exec(_SPAN_SOURCE.format(params=params, args=args), namespace)
        span = namespace["span"]
        if names is not None:
            span.__defaults__ = fn.__defaults__
        span.__wrapped__ = fn
        return span

    @contextlib.contextmanager
    def installed(self, patches):
        """For the block, replace each ``owner.attribute`` with
        ``make(original)`` for the ``(owner, attribute, make)`` entries."""
        saved = []
        try:
            for owner, attr, make in patches:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def calibrate(self, rounds: int = 7, n: int = 100_000) -> tuple[float, float]:
        """Return the cost of one span on a wrapped no-op method in a
        tight loop, in ns, and the share of it charged to the span itself.

        ``c_in`` is the span's charge per call beyond a direct call and
        ``c_out`` the caller's charge per call beyond an empty loop;
        both figures are medians over rounds.
        """

        class Probe:
            def method(self, x):
                return x

        probe = Probe()
        plain = Probe.method
        loop = range(n)
        totals, shares = [], []
        for _ in range(rounds):
            t0 = _now()
            for _ in loop:
                pass
            empty = _now() - t0
            Probe.method = plain
            t0 = _now()
            for _ in loop:
                probe.method(1)
            direct = _now() - t0
            calib = Tracer(["probe"])
            Probe.method = calib.wrap("probe", plain)
            calib.start()
            for _ in loop:
                probe.method(1)
            calib.stop()
            c_in = max(calib.self_ns[0] - (direct - empty), 0) / n
            c_out = max(calib.self_ns[calib.root] - empty, 0) / n
            totals.append(c_in + c_out)
            shares.append(c_in / (c_in + c_out) if c_in + c_out else 0.5)
        return statistics.median(totals), statistics.median(shares)

    def set_span_cost(self, span_ns: float, in_share: float) -> None:
        self.c_in = in_share * span_ns
        self.c_out = span_ns - self.c_in

    def calibrated_self_ns(self) -> list[float]:
        """Self time of each slot, the root last, with the span cost
        removed; a slot never goes below 0."""
        return [max(self.self_ns[i] - self.calls[i] * self.c_in - self.kids[i] * self.c_out, 0.0)
                for i in range(len(self.self_ns))]
