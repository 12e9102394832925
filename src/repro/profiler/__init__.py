"""Op-level profiler for the NumPy training engine.

Records per-op wall time, call counts, and bytes allocated, with near-zero
cost when disabled (a single attribute check per instrumented op).  The
functional layer (``repro.tensor.functional``) and the optimizer instrument
themselves; the trainer exposes a ``profile`` config flag that snapshots the
counters into every epoch's log record.

Usage::

    from repro.profiler import PROFILER

    PROFILER.enable()
    ...train...
    print(PROFILER.report())

or scoped::

    with PROFILER.session():
        ...train...

The ``bytes`` column counts the output arrays each op materializes; together
with the workspace-pool hit/miss statistics (merged into :meth:`summary`)
it shows how much of the engine's traffic the buffer pool absorbs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["OpProfiler", "OpStat", "PROFILER", "profile_op"]


@dataclass
class OpStat:
    """Accumulated statistics for one op name."""

    calls: int = 0
    seconds: float = 0.0
    bytes: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {"calls": self.calls, "seconds": self.seconds,
                "bytes": self.bytes}


class OpProfiler:
    """Aggregating wall-time / bytes profiler with a context-manager API.

    Disabled by default; every instrumentation site guards on
    ``PROFILER.enabled`` so the disabled cost is one attribute lookup.
    """

    def __init__(self) -> None:
        self.enabled: bool = False
        self._stats: Dict[str, OpStat] = {}

    # -- switches ----------------------------------------------------------
    def enable(self, reset: bool = True) -> None:
        if reset:
            self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._stats = {}

    @contextmanager
    def session(self, reset: bool = True):
        """Enable for the duration of a ``with`` block."""
        prev = self.enabled
        self.enable(reset=reset)
        try:
            yield self
        finally:
            self.enabled = prev

    # -- recording ---------------------------------------------------------
    def add(self, name: str, seconds: float, nbytes: int = 0) -> None:
        """Record one completed op invocation (call under an enabled guard)."""
        st = self._stats.get(name)
        if st is None:
            st = self._stats[name] = OpStat()
        st.calls += 1
        st.seconds += seconds
        st.bytes += nbytes

    @contextmanager
    def op(self, name: str, nbytes: int = 0):
        """Context manager timing one op; no-op when disabled."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0, nbytes)

    # -- reporting ---------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-op stats plus workspace-pool, step-plan, memory-planner,
        and parallel-replay counters."""
        out = {name: st.as_dict() for name, st in self._stats.items()}
        try:
            from ..tensor import workspace
            out["_workspace"] = dict(workspace.POOL.stats.as_dict())
        except ImportError:  # pragma: no cover - circular-import guard
            pass
        try:
            from ..tensor import compile as step_compile
            out["_plans"] = step_compile.STATS.as_dict()
        except ImportError:  # pragma: no cover - circular-import guard
            pass
        try:
            from ..tensor import memplan
            out["_memplan"] = memplan.STATS.as_dict()
        except ImportError:  # pragma: no cover - circular-import guard
            pass
        try:
            from ..tensor import parallel
            out["_parallel"] = parallel.STATS.as_dict()
        except ImportError:  # pragma: no cover - circular-import guard
            pass
        try:
            from ..distributed import allreduce
            out["_comm"] = allreduce.COMM_STATS.as_dict()
        except ImportError:  # pragma: no cover - circular-import guard
            pass
        return out

    def total_seconds(self) -> float:
        return sum(st.seconds for st in self._stats.values())

    def report(self, top: Optional[int] = None) -> str:
        """Human-readable table sorted by total time."""
        rows = sorted(self._stats.items(), key=lambda kv: -kv[1].seconds)
        if top is not None:
            rows = rows[:top]
        lines = [f"{'op':<24}{'calls':>8}{'total ms':>12}"
                 f"{'ms/call':>10}{'MB':>10}"]
        for name, st in rows:
            per = st.seconds / st.calls * 1e3 if st.calls else 0.0
            lines.append(f"{name:<24}{st.calls:>8}{st.seconds * 1e3:>12.2f}"
                         f"{per:>10.3f}{st.bytes / 1e6:>10.1f}")
        return "\n".join(lines)


#: Process-wide profiler instance used by all instrumentation sites.
PROFILER = OpProfiler()


def profile_op(name: str, nbytes: int = 0):
    """Module-level alias for ``PROFILER.op`` (context manager)."""
    return PROFILER.op(name, nbytes)
