"""Per-layer timer for the benchmark's traced run.

The tracer wraps public functions of each library layer in place, from the
benchmark's own files, so the library itself is unchanged.  Every wrapped
call adds its duration to its layer's list; ``after`` hooks add side values
(bytes written, queue waits, ...).  The untraced runs that give the
end-to-end numbers never install it.
"""
from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np


class Tracer:
    """Call durations and side values, both keyed by layer name."""

    def __init__(self) -> None:
        #: layer -> duration (s) of every call
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: layer -> numbers recorded by ``after`` hooks (one per call)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self._patches: List[tuple] = []

    def record(self, layer: str, seconds: float) -> None:
        """Add a call timed by the caller (used where no function wraps)."""
        self.durations[layer].append(seconds)

    def note(self, layer: str, value: float) -> None:
        self.values[layer].append(float(value))

    def wrap(self, owner, attr: str, layer: Optional[str],
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper until
        :meth:`uninstall`.  ``layer=None`` times nothing and only calls
        ``after``, as ``after(tracer, args, result)``."""
        orig = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if layer is None:
                out = orig(*args, **kwargs)
                after(tracer, args, out)
                return out
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.durations[layer].append(time.perf_counter() - t0)
            if after is not None:
                after(tracer, args, out)
            return out

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def installed(self, install: Callable[["Tracer"], None]):
        """Apply ``install(self)``'s wraps for the duration of the block."""
        try:
            install(self)
            yield self
        finally:
            self.uninstall()

    # -- summaries ---------------------------------------------------------
    def total_s(self, layer: str) -> float:
        return float(sum(self.durations[layer]))

    def calls(self, layer: str) -> int:
        return len(self.durations[layer])

    def p50_ms(self, layer: str) -> float:
        d = self.durations[layer]
        return float(np.median(d) * 1e3) if d else 0.0

    def all_calls(self) -> int:
        """Timed calls over every layer: the number of wrapper passes."""
        return sum(len(d) for d in self.durations.values())


def wrapper_cost_s(calls: int = 200_000) -> float:
    """Time one timing wrapper adds to a call, measured here: a wrapped
    no-op against the bare no-op, interleaved in rounds, best round."""
    class Probe:
        @staticmethod
        def noop():
            return None

    tracer = Tracer()
    bare = Probe.noop
    tracer.wrap(Probe, "noop", "probe")
    wrapped = Probe.noop
    n = calls // 10
    costs = []
    for _ in range(10):
        t0 = time.perf_counter()
        for _ in range(n):
            bare()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        tracer.durations["probe"].clear()
        costs.append(((t2 - t1) - (t1 - t0)) / n)
    tracer.uninstall()
    return max(min(costs), 0.0)


# -- the layer map -------------------------------------------------------------

def _capture_ok(tracer: Tracer, args, out) -> None:
    # capture_training_step -> (plan, loss, logits, reason);
    # capture_forward -> (plan, logits, reason)
    tracer.note("compile.capture_ok", out[0] is not None)


def _saved_bytes(tracer: Tracer, args, out) -> None:
    path = args[0]
    if not path.endswith(".npz"):
        path += ".npz"
    tracer.note("io.bytes", os.path.getsize(path))


def _served_rows(tracer: Tracer, args, out) -> None:
    tracer.note("serve.rows", args[2].shape[0])   # (self, name, x)


def _queue_waits(tracer: Tracer, args, out) -> None:
    now = args[1]                                  # (self, now, ...)
    for _, requests in out:
        for r in requests:
            tracer.note("serve.queue_wait", now - r.future.t_submit)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.io.checkpoint as checkpoint
    import repro.nn.bn_utils as bn_utils
    import repro.serve.registry as registry
    import repro.train.prunetrain as prunetrain
    import repro.train.trainer as trainer
    from repro.optim import SGD
    from repro.prune import GroupLasso
    from repro.serve import DynamicBatcher, ModelRegistry
    from repro.tensor.compile import StepPlan

    tracer.wrap(StepPlan, "run", "replay.train")
    tracer.wrap(StepPlan, "run_forward", "replay.fwd")
    tracer.wrap(trainer, "capture_training_step", "compile.capture",
                _capture_ok)
    tracer.wrap(trainer, "capture_forward", "compile.capture", _capture_ok)
    tracer.wrap(registry, "capture_forward", "compile.capture", _capture_ok)
    tracer.wrap(trainer.Trainer, "evaluate", "eval")
    tracer.wrap(bn_utils, "recalibrate_bn", "eval.bn_recal")
    tracer.wrap(GroupLasso, "add_gradients", "prune.lasso")
    tracer.wrap(GroupLasso, "loss", "prune.lasso")
    tracer.wrap(prunetrain, "prune_and_reconfigure", "prune.reconfigure")
    tracer.wrap(SGD, "step", "optim.step")
    tracer.wrap(trainer, "save_checkpoint", "io.save", _saved_bytes)
    tracer.wrap(checkpoint, "save_checkpoint", "io.save", _saved_bytes)
    tracer.wrap(ModelRegistry, "register", "io.load")
    tracer.wrap(ModelRegistry, "run", "serve.registry", _served_rows)
    tracer.wrap(DynamicBatcher, "take", None, _queue_waits)
    # the per-epoch cost-model record functions, as the trainer calls them
    for fn in ("inference_flops", "training_flops_per_sample",
               "iteration_memory_bytes", "bn_traffic_bytes",
               "epoch_comm_bytes", "epoch_time"):
        tracer.wrap(trainer, fn, "costmodel")
