"""Open-loop load generator for the ``serve-pruned`` workload.

Arrivals are scheduled ahead of time (seeded Poisson process) and sent on
schedule from one thread whether or not the server keeps up, so a stall is
charged to every request that was due during it: latency runs from each
request's *scheduled* send time to its completion.  The generator also
records how late each send actually ran (``lag``), which says whether the
latency figures are trustworthy, and it counts failed and timed-out
requests instead of stopping at the first one.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass
class PhaseResult:
    """Outcome of one open-loop phase (or burst)."""

    offered_qps: float
    sent: int
    failed: int
    #: latency (s) of every request that succeeded, in send order
    latency_s: np.ndarray
    #: how late each send ran against its schedule (s)
    lag_s: np.ndarray
    #: first scheduled send to last completion (s)
    duration_s: float
    #: first to last scheduled send (s); 0 for a burst
    send_span_s: float
    #: first to last completion (s)
    done_span_s: float
    #: (pool index, response) of every request, ``None`` if it failed
    responses: List[tuple] = field(default_factory=list)

    @property
    def scheduled_qps(self) -> float:
        """The rate the drawn schedule actually offered."""
        return (self.sent - 1) / self.send_span_s if self.send_span_s \
            else float("inf")

    @property
    def achieved_qps(self) -> float:
        """Completion rate; below the scheduled rate, a backlog grows."""
        done = self.sent - self.failed
        return (done - 1) / self.done_span_s if self.done_span_s else 0.0

    def pct_ms(self, q: float) -> float:
        if not self.latency_s.size:
            return float("inf")
        return float(np.percentile(self.latency_s, q) * 1e3)


def poisson_arrivals(rate: float, duration_s: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Send offsets (s) of a Poisson process at ``rate`` over ``duration_s``."""
    n = max(1, int(round(rate * duration_s)))
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def run_phase(server, model: str, pool: np.ndarray, picks: np.ndarray,
              offsets: Optional[np.ndarray], offered_qps: float,
              timeout_s: float = 30.0) -> PhaseResult:
    """Send request ``i`` (pool image ``picks[i]``) at ``offsets[i]``
    seconds after the start, then wait for every response.

    ``offsets=None`` sends everything at once (a burst).  A request that
    raises, or is not done ``timeout_s`` after the last send, fails.
    """
    n = len(picks)
    sent = []
    t0 = time.perf_counter()
    for i in range(n):
        due = t0 if offsets is None else t0 + float(offsets[i])
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent.append((due, server.submit(model, pool[picks[i]])))
    deadline = time.perf_counter() + timeout_s
    latency, lag, responses = [], [], []
    failed = 0
    t_first, t_last = float("inf"), t0
    for i, (due, fut) in enumerate(sent):
        lag.append(fut.t_submit - due)
        try:
            row = fut.result(max(deadline - time.perf_counter(), 0.0))
        except Exception:  # noqa: BLE001 - any failed request counts
            failed += 1
            responses.append((int(picks[i]), None))
            continue
        latency.append(fut.t_done - due)
        responses.append((int(picks[i]), row))
        t_first = min(t_first, fut.t_done)
        t_last = max(t_last, fut.t_done)
    return PhaseResult(offered_qps=float(offered_qps), sent=n, failed=failed,
                       latency_s=np.array(latency), lag_s=np.array(lag),
                       duration_s=t_last - t0,
                       send_span_s=0.0 if offsets is None
                       else float(offsets[-1] - offsets[0]),
                       done_span_s=max(t_last - t_first, 0.0),
                       responses=responses)
