"""The benchmark's three workloads, each with its correctness check.

``train-dense`` and ``prunetrain`` run the full QUICK resnet32/cifar10s
schedule (15 epochs x 24 steps of batch 32) on the default engine, one
trainer loop at a time, repeated within the time budget.  ``serve-pruned``
drives an :class:`~repro.serve.InferenceServer` over a pruned checkpoint
with seeded open-loop traffic.  Every function here takes the workload seed
and hands the library only generated data, arrivals and checkpoints.

Each workload returns a :class:`Report`.  Its ``metrics`` are the gated
numbers of the last output line; ``info`` holds the same measurements under
their per-workload names (``train_s``, ``lat_p99_ms.r2000``, ...), which the
human-readable lines print.
"""
from __future__ import annotations

import itertools
import json
import os
import resource
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.costmodel import inference_flops
from repro.experiments.configs import (QUICK, epochs_for, interval_for,
                                       make_dataset, make_model)
from repro.io import checkpoint
from repro.prune import prune_and_reconfigure
from repro.serve import InferenceServer, ModelRegistry
from repro.tensor import Tensor, no_grad
from repro.train import (PruneTrainConfig, PruneTrainTrainer, Trainer,
                         TrainerConfig)

from hostspeed import HostSpeed
from loadgen import PhaseResult, poisson_arrivals, run_phase
from tracer import Tracer, install_layers, wrapper_cost_s

MODEL, DATASET, SCALE = "resnet32", "cifar10s", QUICK

#: training runs per invocation: the loss-identity check needs two
MIN_TRAIN_RUNS = 2
#: set-ups timed before each training run, and spread over a serving run;
#: ``setup_s`` is their median (one set-up takes only ~30 / ~100 ms, so
#: it needs many samples, taken across the run, to be steady)
SETUPS_PER_TRAIN_RUN, SERVE_SETUPS = 10, 15
#: a run whose last-epoch accuracy falls below this has not trained
#: (chance is 0.1; QUICK runs end at 0.95-1.0)
VAL_ACC_FLOOR = 0.5
#: no new training run starts after this much of the 180 s run limit
TRAIN_DEADLINE_S = 80.0
#: host-speed probes: one after every this many training steps, this many
#: around each training set-up and around each timed serving item
PROBE_EVERY_STEPS, PROBES_PER_SETUP, PROBES_PER_ITEM = 2, 4, 8
#: a step's own slowdown is the mean of the probes up to this many probes
#: (2 steps each) before and after it: ~1 s, shorter than the host's
#: slow spells
STEP_PROBES = 10

SERVED = "resnet32-pruned"
PRUNE_FRAC = 0.5
MAX_BATCH, LATENCY_BUDGET_S = 8, 0.005      # InferenceServer defaults
#: req/s of the latency phases -> their share of --seconds
RATES = {500: 0.4, 2000: 0.14}
#: the rate of the gated latencies: 2000 req/s is within ~1.8x of the
#: server's capacity here, so a slow spell of the host overloads it and
#: its latencies jump 5-25x; at 500 req/s they stay put
GATED_RATE = 500
LADDER = (1000, 1500, 2000, 2500, 3000, 3500, 4000, 5000)
LADDER_SHARE = 0.02                         # of --seconds, per ladder rate
P99_LIMIT_MS = 50.0                         # behind max_qps.p99_50ms
BACKLOG_RATIO = 0.98                        # achieved / offered, no backlog
WINDOW_REQUESTS = 1000                      # p99 has 10 samples beyond
BURST, BURSTS = 2048, 10
WARMUP_RATE, WARMUP_S = 1000, 0.5           # unmeasured first phase
PARITY_SAMPLE = 128                         # responses checked per run

Metric = Tuple[float, str]


@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: gated numbers (end-to-end, or per-layer when traced)
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: the same measurements under their per-workload names, plus context
    info: Dict[str, Metric] = field(default_factory=dict)
    #: raw run-level numbers the multi-workload summary compares
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        self.problems.append(what)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# -- training ------------------------------------------------------------------

class ClockedLoader:
    """Delegating wrapper around a trainer's DataLoader.

    ``step_s`` gets one sample per batch: the time from handing the batch
    to the trainer until the trainer asks for the next one, which covers
    the step, the group-lasso update and the optimizer.  With a tracer the
    time spent producing each batch is recorded as ``data.next``.  With a
    :class:`HostSpeed`, a probe runs after every ``PROBE_EVERY_STEPS``
    steps, outside the step times; ``probe_s`` is their total time.
    """

    def __init__(self, loader, tracer: Optional[Tracer] = None,
                 speed: Optional[HostSpeed] = None):
        self._loader = loader
        self._tracer = tracer
        self._speed = speed
        self.step_s: List[float] = []
        self.probe_s = 0.0

    def __getattr__(self, name):
        return getattr(self._loader, name)

    def __len__(self) -> int:
        return len(self._loader)

    def __iter__(self):
        it = iter(self._loader)
        while True:
            t0 = time.perf_counter()
            try:
                batch = next(it)
            except StopIteration:
                return
            t1 = time.perf_counter()
            if self._tracer is not None:
                self._tracer.record("data.next", t1 - t0)
            yield batch
            self.step_s.append(time.perf_counter() - t1)
            if self._speed and len(self.step_s) % PROBE_EVERY_STEPS == 0:
                self.probe_s += self._speed.probe()


def build_trainer(kind: str, seed: int, ckpt_dir: str) -> Trainer:
    """Data, model and trainer of one run (the ``Runs`` recipes)."""
    train, val = make_dataset(DATASET, SCALE, seed=seed)
    model = make_model(MODEL, DATASET, SCALE, seed=seed)
    base = dict(epochs=epochs_for(DATASET, SCALE),
                batch_size=SCALE.batch_size, lr=0.1, momentum=0.9,
                weight_decay=5e-4, augment=SCALE.augment, seed=seed,
                log_every=0)
    if kind == "train-dense":
        return Trainer(model, train, val, TrainerConfig(**base))
    cfg = PruneTrainConfig(
        **base, penalty_ratio=0.25,
        reconfig_interval=interval_for(DATASET, SCALE), threshold=None,
        lambda_scale=1.0, lambda_mode="rate", zero_sparse=True,
        remove_layers=True, checkpoint_every=1, checkpoint_dir=ckpt_dir)
    return PruneTrainTrainer(model, train, val, cfg)


@dataclass
class TrainRun:
    #: wall-clock of ``Trainer.train()``, less the host-speed probes
    train_s: float
    step_s: np.ndarray
    log: object
    fallbacks: List[str]
    steps_expected: int
    #: the host's slowdown over the run (1.0 when not probed)
    speed_factor: float = 1.0
    #: each step's slowdown, from the probes around it
    step_factor: Optional[np.ndarray] = None


def timed_train(trainer: Trainer, tracer: Optional[Tracer] = None,
                speed: Optional[HostSpeed] = None) -> TrainRun:
    loader = ClockedLoader(trainer.loader, tracer, speed)
    trainer.loader = loader
    steps = trainer.cfg.epochs * loader.batches_per_epoch()
    mark = speed.mark() if speed else 0
    t0 = time.perf_counter()
    log = trainer.train()
    train_s = time.perf_counter() - t0 - loader.probe_s
    if not speed:
        return TrainRun(train_s, np.array(loader.step_s), log,
                        sorted(trainer._fallback_reasons), steps)
    # step i is followed by probe i // PROBE_EVERY_STEPS
    n = speed.mark() - mark
    k = np.arange(len(loader.step_s)) // PROBE_EVERY_STEPS
    lo = np.clip(k - STEP_PROBES, 0, n - 1) + mark
    hi = np.clip(k + STEP_PROBES + 1, 1, n) + mark
    step_factor = np.array([speed.factor(a, b) for a, b in zip(lo, hi)])
    return TrainRun(train_s, np.array(loader.step_s), log,
                    sorted(trainer._fallback_reasons), steps,
                    speed.factor(mark), step_factor)


def check_run(report: Report, run: TrainRun, ref_losses) -> np.ndarray:
    """Count ``run`` as failed if it fell back from the compiled engine,
    left the first run's loss trajectory, or did not train.  Returns the
    reference trajectory for the next run."""
    losses = run.log.series("train_loss")
    if run.fallbacks:
        report.fail(f"compile fallback ({'; '.join(run.fallbacks)}): "
                    "the eager engine was measured")
    elif ref_losses is not None and not np.array_equal(losses, ref_losses):
        first = (int(np.flatnonzero(losses != ref_losses)[0])
                 if losses.shape == ref_losses.shape else 0)
        report.fail(f"train-loss sequence differs from the first run's "
                    f"at epoch {first}")
    elif run.log.final_val_acc < VAL_ACC_FLOOR:
        report.fail(f"final val acc {run.log.final_val_acc:.3f} "
                    f"< {VAL_ACC_FLOOR}")
    elif run.step_s.size != run.steps_expected:
        report.fail(f"{run.step_s.size} steps timed, "
                    f"{run.steps_expected} expected")
    return losses if ref_losses is None else ref_losses


def _one_train_run(report: Report, kind: str, seed: int, ckpt_dir: str,
                   tracer: Optional[Tracer] = None, setups: int = 1,
                   speed: Optional[HostSpeed] = None):
    """Set up ``setups`` times and train the last set-up once; returns
    ``(set-up times, TrainRun)`` or ``None`` when the run raised (counted
    as a failed run).  With ``speed``, the set-up times are at the
    reference speed, from probes taken between the set-ups."""
    report.attempted += 1
    try:
        times = []
        mark = speed.mark() if speed else 0
        for _ in range(setups):
            if speed:
                speed.probe(PROBES_PER_SETUP)
            t0 = time.perf_counter()
            trainer = build_trainer(kind, seed, ckpt_dir)
            times.append(time.perf_counter() - t0)
        if speed:
            speed.probe(PROBES_PER_SETUP)
            times = [t / speed.factor(mark) for t in times]
        return times, timed_train(trainer, tracer, speed)
    except Exception:  # noqa: BLE001 - a crashed run is a failed operation
        traceback.print_exc()
        report.fail("run raised")
        return None


def train_workload(kind: str, seed: int, seconds: float, trace: bool,
                   tmp: str) -> Report:
    if trace:
        return _train_traced(kind, seed, tmp)
    report = Report(kind, seed, trace)
    speed = HostSpeed()
    runs: List[TrainRun] = []
    setups: List[float] = []
    ref = None
    t_start = time.perf_counter()
    for i in itertools.count():
        out = _one_train_run(report, kind, seed,
                             os.path.join(tmp, f"run{i}"),
                             setups=SETUPS_PER_TRAIN_RUN, speed=speed)
        if out is None:
            break
        setups += out[0]
        runs.append(out[1])
        ref = check_run(report, out[1], ref)
        elapsed = time.perf_counter() - t_start
        if len(runs) >= MIN_TRAIN_RUNS and elapsed + np.median(
                [r.train_s for r in runs]) > seconds:
            break
        if elapsed > TRAIN_DEADLINE_S:
            report.problems.append(
                f"only {len(runs)} run(s) fit before the deadline")
            break
    if not runs:
        return report

    log = runs[0].log
    steps_ms = np.concatenate([r.step_s for r in runs]) * 1e3
    train_s = float(np.median([r.train_s for r in runs]))
    # the gated times are at the reference host speed (hostspeed.py)
    ref_steps_ms = np.concatenate([r.step_s / r.speed_factor
                                   for r in runs]) * 1e3
    ref_train_s = float(np.median([r.train_s / r.speed_factor
                                   for r in runs]))
    gflop = float(np.median([r.log.total_train_flops for r in runs])) / 1e9
    rss = peak_rss_mb()
    p50, p95 = _pct(steps_ms, 50), _pct(steps_ms, 95)
    mean = float(ref_steps_ms.mean())
    # The host flips between a fast and a ~1.4x slower state every few
    # seconds, so the slowest steps gather in its slow spells, which a
    # whole-run factor cannot undo: the tail takes each step's own.
    tail = _pct(np.concatenate([r.step_s / r.step_factor
                                for r in runs]) * 1e3, 95)
    report.metrics = {
        "setup_s": (float(np.median(setups)), "s"),
        "run_s": (ref_train_s, "s"),
        "op_ms": (mean, "ms"),
        "op_tail_ms": (tail, "ms"),
        "work_gflop": (gflop, "GFLOP"),
        "peak_rss_mb": (rss, "MiB"),
    }
    report.info = {
        "host_slowdown": (speed.factor(), "x"),
        "train_s": (train_s, "s"),
        "train_s.ref_speed": (ref_train_s, "s"),
        "step_ms_p50": (p50, "ms"),
        "step_ms_p95": (p95, "ms"),
        "step_ms_mean": (float(steps_ms.mean()), "ms"),
        "step_ms_mean.ref_speed": (mean, "ms"),
        "step_ms_p95.ref_speed": (tail, "ms"),
        "steps_timed": (float(steps_ms.size), "count"),
        "final_val_acc": (float(log.final_val_acc), "fraction"),
        "train_gflops": (gflop, "GFLOP"),
        "final_inference_mflops": (log.final_inference_flops / 1e6,
                                   "MFLOP"),
        "peak_rss_mb": (rss, "MiB"),
        "runs": (float(len(runs)), "count"),
        "fail_ratio": (report.failed / report.attempted, "fraction"),
    }
    report.notes = {
        "train_s": train_s,
        "ref_train_s": ref_train_s,
        "train_flops": log.total_train_flops,
        "modeled_time_s": {dev: log.total_epoch_time(dev)
                           for dev in ("1080ti", "v100")},
    }
    return report


def _train_traced(kind: str, seed: int, tmp: str) -> Report:
    """One untraced run, then one traced run that must reproduce its loss
    trajectory (tracing must not change what runs)."""
    report = Report(kind, seed, True)
    base = _one_train_run(report, kind, seed, os.path.join(tmp, "base"))
    if base is None:
        return report
    ref = check_run(report, base[1], None)
    tracer = Tracer()
    with tracer.installed(install_layers):
        traced = _one_train_run(report, kind, seed,
                                os.path.join(tmp, "traced"), tracer)
    if traced is None:
        return report
    check_run(report, traced[1], ref)
    report.metrics = layer_metrics(tracer, traced[1].train_s,
                                   log=traced[1].log)
    return report


# -- serving -------------------------------------------------------------------

def kill_channels(model, frac: float, seed: int) -> None:
    """Push a seeded choice of ``frac`` of each prunable channel space
    below the prune threshold, so ``prune_and_reconfigure`` yields a
    compact model without training.  The seed picks *which* channels go;
    how many go is fixed, so every seed serves a model of the same size."""
    rng = np.random.default_rng(seed)
    g = model.graph
    for sid, sp in g.spaces.items():
        if sp.frozen:
            continue
        kill = np.zeros(sp.size, dtype=bool)
        # channel 0 always survives, so no space empties
        kill[1 + rng.permutation(sp.size - 1)[:int(frac * sp.size)]] = True
        for node in g.writers(sid):
            node.conv.weight.data[kill] *= 1e-9
        for node in g.readers(sid):
            node.conv.weight.data[:, kill] *= 1e-9


def build_served(seed: int, ckpt_dir: str):
    """Request pool, pruned checkpoint, registry load and plan warm-up."""
    _, val = make_dataset(DATASET, SCALE, seed=seed)
    model = make_model(MODEL, DATASET, SCALE, seed=seed)
    kill_channels(model, PRUNE_FRAC, seed)
    prune_and_reconfigure(model)
    path = os.path.join(ckpt_dir, "served.npz")
    checkpoint.save_checkpoint(path, model)
    registry = ModelRegistry(max_models=1)
    served = registry.register(
        SERVED, path, lambda: make_model(MODEL, DATASET, SCALE, seed=seed))
    sample = tuple(val.x.shape[1:])
    served.warm(1, sample)
    served.warm(MAX_BATCH, sample)
    return registry, served, val.x


def _server(registry) -> InferenceServer:
    return InferenceServer(registry, max_batch=MAX_BATCH,
                           latency_budget=LATENCY_BUDGET_S)


def _phase(server, pool, rng, rate: float, duration_s: float
           ) -> PhaseResult:
    offsets = poisson_arrivals(rate, duration_s, rng)
    picks = rng.integers(0, len(pool), size=len(offsets))
    return run_phase(server, SERVED, pool, picks, offsets, rate)


def _measured_phases(server, pool, rng, seconds: float,
                     bursts: int = BURSTS, setups: int = 0,
                     setup: Optional[Callable[[], float]] = None,
                     speed: Optional[HostSpeed] = None):
    """The timed work: for each rate its share of ``seconds`` as windows
    of about ``WINDOW_REQUESTS`` requests, ``bursts`` bursts, and
    ``setups`` calls of ``setup`` (which returns its own duration).

    These are spread evenly over the run rather than run back to back, so
    a slow spell of the host weighs on every metric alike.  With
    ``speed``, ``PROBES_PER_ITEM`` probes run between items (the server is
    idle then).  Returns ``{rate: [window, ...], "burst": [burst, ...],
    "setup": [s, ...]}`` and, keyed alike, the host's slowdown over each
    item and the probes on either side of it (1.0 without ``speed``).
    """
    plan = [((j + 0.5) / bursts, "burst", 0.0) for j in range(bursts)]
    plan += [((k + 0.5) / setups, "setup", 0.0) for k in range(setups)]
    for rate, share in RATES.items():
        n = max(1, round(rate * share * seconds / WINDOW_REQUESTS))
        plan += [((i + 0.5) / n, rate, share * seconds / n)
                 for i in range(n)]
    out: Dict[object, list] = {k: [] for _, k, _ in plan}
    slowdown: Dict[object, list] = {k: [] for k in out}
    if speed:
        speed.probe(PROBES_PER_ITEM)
    for _, kind, window_s in sorted(plan, key=lambda p: p[0]):
        if kind == "setup":
            out[kind].append(setup())
        elif kind == "burst":
            out[kind].append(_burst(server, pool, rng))
        else:
            out[kind].append(_phase(server, pool, rng, kind, window_s))
        if speed:
            speed.probe(PROBES_PER_ITEM)
            slowdown[kind].append(speed.factor(-2 * PROBES_PER_ITEM))
        else:
            slowdown[kind].append(1.0)
    return out, slowdown


def _win_ms(windows: List[PhaseResult], q: float) -> float:
    """Median over windows of each window's ``q``-th latency percentile."""
    return float(np.median([w.pct_ms(q) for w in windows]))


def _burst(server, pool, rng) -> PhaseResult:
    picks = rng.integers(0, len(pool), size=BURST)
    return run_phase(server, SERVED, pool, picks, None, float("inf"))


def _meets_limit(ph: PhaseResult) -> bool:
    return (ph.failed == 0 and ph.pct_ms(99) <= P99_LIMIT_MS
            and ph.achieved_qps >= BACKLOG_RATIO * ph.scheduled_qps)


def check_served(report: Report, served, pool, phases, rng) -> None:
    """Every request must have gone through a compiled plan, and a seeded
    sample of the responses must be bit-identical to a batch-1 eager
    forward of the same request."""
    stats = served.stats()
    if stats["capture_failures"] or stats["eager_rows"]:
        report.fail(f"{stats['eager_rows']} rows served eagerly after "
                    f"{stats['capture_failures']} failed capture(s): the "
                    "eager path was measured")
    ok = [r for ph in phases for r in ph.responses if r[1] is not None]
    refs: Dict[int, np.ndarray] = {}
    bad = 0
    picks = rng.choice(len(ok), size=min(PARITY_SAMPLE, len(ok)),
                       replace=False) if ok else []
    for j in picks:
        idx, row = ok[j]
        if idx not in refs:
            with no_grad():
                refs[idx] = np.array(
                    served.model(Tensor(pool[idx:idx + 1])).data[0])
        bad += not np.array_equal(row, refs[idx])
    if bad:
        report.fail(f"{bad}/{len(picks)} sampled responses differ from a "
                    "batch-1 eager forward", n=bad)
    report.info["parity_checked"] = (float(len(picks)), "count")


def _count(report: Report, phases) -> None:
    for ph in phases:
        report.attempted += ph.sent
        if ph.failed:
            report.fail(f"{ph.failed} of {ph.sent} requests failed or "
                        f"timed out at {ph.offered_qps:g} req/s",
                        n=ph.failed)


def serve_workload(seed: int, seconds: float, trace: bool, tmp: str
                   ) -> Report:
    if trace:
        return _serve_traced(seed, seconds, tmp)
    report = Report("serve-pruned", seed, trace)
    rng = np.random.default_rng([seed, 1])
    dirs = (os.path.join(tmp, f"setup{k}") for k in itertools.count())

    def extra_setup() -> float:
        t0 = time.perf_counter()
        other, _, _ = build_served(seed, next(dirs))
        took = time.perf_counter() - t0
        other.clear()
        return took

    speed = HostSpeed()
    speed.probe(PROBES_PER_ITEM)
    t0 = time.perf_counter()
    registry, served, pool = build_served(seed, next(dirs))
    setups = [time.perf_counter() - t0]
    speed.probe(PROBES_PER_ITEM)
    setups[0] /= speed.factor()
    ladder: List[Tuple[int, PhaseResult]] = []
    with _server(registry) as server:
        warm = _phase(server, pool, rng, WARMUP_RATE, WARMUP_S)
        padded0 = served.stats()["padded_rows"]
        rates, slowdown = _measured_phases(
            server, pool, rng, seconds, setups=SERVE_SETUPS - 1,
            setup=extra_setup, speed=speed)
        padded = served.stats()["padded_rows"] - padded0
        bursts = rates.pop("burst")
        # set-up and burst times at the reference host speed; latencies
        # at a fixed arrival rate do not scale with speed, so stay raw
        setups += [s / f for s, f in zip(rates.pop("setup"),
                                        slowdown["setup"])]
        burst_ref_s = [b.duration_s / f
                       for b, f in zip(bursts, slowdown["burst"])]
        for rate in LADDER:
            ph = _phase(server, pool, rng, rate, LADDER_SHARE * seconds)
            ladder.append((rate, ph))
            if not _meets_limit(ph):
                break
    registry.clear()
    timed = [w for ws in rates.values() for w in ws]
    _count(report, [warm, *timed, *bursts, *(ph for _, ph in ladder)])
    check_served(report, served, pool, timed, rng)
    max_qps = max([r for r, ph in ladder if _meets_limit(ph)], default=0)
    # a mean, not a median: each burst lands in one of the host's two
    # speed states (see train_workload)
    burst_s = float(np.mean(burst_ref_s))
    rss = peak_rss_mb()
    # forward work actually replayed per 1000 requests: batches the
    # server pads to a captured size also compute the padding rows
    rows = sum(ph.sent - ph.failed for ph in [*timed, *bursts])
    gflop = (inference_flops(served.model.graph) * (rows + padded) / rows
             * 1000 / 1e9)
    report.metrics = {
        "setup_s": (float(np.median(setups)), "s"),
        "run_s": (burst_s, "s"),
        "op_ms": (_win_ms(rates[GATED_RATE], 50), "ms"),
        "op_tail_ms": (_win_ms(rates[GATED_RATE], 99), "ms"),
        "work_gflop": (gflop, "GFLOP"),
        "peak_rss_mb": (rss, "MiB"),
    }
    for rate, ws in rates.items():
        report.info[f"lat_p50_ms.r{rate}"] = (_win_ms(ws, 50), "ms")
        report.info[f"lat_p99_ms.r{rate}"] = (_win_ms(ws, 99), "ms")
        report.info[f"achieved_qps.r{rate}"] = (
            float(np.median([w.achieved_qps for w in ws])), "req/s")
        report.info[f"requests.r{rate}"] = (
            float(sum(w.sent for w in ws)), "count")
    report.info.update({
        "max_qps.p99_50ms": (float(max_qps), "req/s"),
        "host_slowdown": (speed.factor(), "x"),
        f"burst_s.n{BURST}": (
            float(np.mean([b.duration_s for b in bursts])), "s"),
        f"burst_s.n{BURST}.ref_speed": (burst_s, "s"),
        "gflop_per_1k_requests": (gflop, "GFLOP"),
        "padded_row_share": (padded / (rows + padded), "fraction"),
        "peak_rss_mb": (rss, "MiB"),
        "loadgen.lag_ms_p99": (
            _pct(np.concatenate([w.lag_s for w in timed]), 99) * 1e3, "ms"),
        "fail_ratio": (report.failed / max(report.attempted, 1),
                       "fraction"),
    })
    return report


def _serve_traced(seed: int, seconds: float, tmp: str) -> Report:
    """A traced set-up and the open-loop windows of ``seconds``.  No
    bursts: their deep queues would swamp the queue-wait figures."""
    report = Report("serve-pruned", seed, True)
    rng = np.random.default_rng([seed, 1])
    tracer = Tracer()
    with tracer.installed(install_layers):
        t0 = time.perf_counter()
        registry, served, pool = build_served(seed, tmp)
        with _server(registry) as server:
            warm = _phase(server, pool, rng, WARMUP_RATE, WARMUP_S)
            traced, _ = _measured_phases(server, pool, rng, seconds,
                                         bursts=0)
        wall_s = time.perf_counter() - t0
    phases = [ph for k in RATES for ph in traced[k]]
    _count(report, [warm, *phases])
    check_served(report, served, pool, phases, rng)
    lag = np.concatenate([ph.lag_s for ph in phases])
    report.metrics = layer_metrics(tracer, wall_s, served=served,
                                   lag_ms_p99=_pct(lag, 99) * 1e3)
    registry.clear()
    return report


# -- per-layer metrics ---------------------------------------------------------

#: (name, unit) of every per-layer metric, in output order, as
#: BENCHMARK.json (beside this directory) declares them
with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")) as _fh:
    LAYER_METRICS = tuple((m["name"], m["unit"])
                          for m in json.load(_fh)["per_layer"])


def layer_metrics(tracer: Tracer, wall_s: float, *, log=None, served=None,
                  lag_ms_p99: float = 0.0) -> Dict[str, Metric]:
    """Per-layer numbers of one traced run of ``wall_s`` seconds; a layer
    the workload does not use reads 0.  Times are inclusive of nested
    layers.  ``trace.overhead_frac`` is the share of ``wall_s`` the timing
    wrappers themselves took: wrapper passes times the cost of one,
    measured in this process (timing a traced run against an untraced one
    would measure the host's drift instead)."""
    t = tracer
    caps = t.values["compile.capture_ok"]
    if log is not None:
        arena = max((r.arena_bytes for r in log.records), default=0.0)
        peak = max((r.mem_peak_bytes for r in log.records), default=0.0)
    else:
        mems = [p.mem_metrics() for p in map(served.plans.lookup,
                                             served.plans.keys())
                if hasattr(p, "mem_metrics")]
        mems = [m for m in mems if m]
        # one arena per cached plan shape
        arena = sum(m["arena_bytes"] for m in mems)
        peak = max((m["peak_bytes"] for m in mems), default=0.0)
    rows = sum(t.values["serve.rows"])
    batches = t.calls("serve.registry")
    stats = served.stats() if served is not None else {}
    padded = stats.get("padded_rows", 0)
    waits = np.array(t.values["serve.queue_wait"]) * 1e3
    values = {
        "replay.train_s": t.total_s("replay.train"),
        "replay.train_calls": t.calls("replay.train"),
        "replay.train_ms_p50": t.p50_ms("replay.train"),
        "replay.fwd_s": t.total_s("replay.fwd"),
        "replay.fwd_calls": t.calls("replay.fwd"),
        "compile.captures": len(caps),
        "compile.capture_s": t.total_s("compile.capture"),
        "compile.capture_ok_ratio": sum(caps) / len(caps) if caps else 0.0,
        "memplan.arena_bytes": arena,
        "memplan.peak_bytes": peak,
        "eval.s": t.total_s("eval"),
        "eval.calls": t.calls("eval"),
        "eval.bn_recal_s": t.total_s("eval.bn_recal"),
        "prune.lasso_s": t.total_s("prune.lasso"),
        "prune.reconfigure_s": t.total_s("prune.reconfigure"),
        "prune.reconfigures": t.calls("prune.reconfigure"),
        "optim.step_s": t.total_s("optim.step"),
        "optim.step_ms_p50": t.p50_ms("optim.step"),
        "io.saves": t.calls("io.save"),
        "io.save_s": t.total_s("io.save"),
        "io.bytes": sum(t.values["io.bytes"]),
        "io.load_s": t.total_s("io.load"),
        "data.next_s": t.total_s("data.next"),
        "data.batches": t.calls("data.next"),
        "costmodel.s": t.total_s("costmodel"),
        "serve.replay_s": t.total_s("serve.registry"),
        "serve.replay_ms_p50": t.p50_ms("serve.registry"),
        "serve.batches": batches,
        "serve.rows_per_batch": rows / batches if batches else 0.0,
        "serve.useful_row_ratio": rows / (rows + padded) if rows else 0.0,
        "serve.captures": stats.get("captures", 0),
        "serve.queue_wait_ms_p50": _pct(waits, 50) if waits.size else 0.0,
        "serve.queue_wait_ms_p99": _pct(waits, 99) if waits.size else 0.0,
        "loadgen.lag_ms_p99": lag_ms_p99,
        "trace.overhead_frac": t.all_calls() * wrapper_cost_s() / wall_s,
    }
    return {name: (float(values[name]), unit)
            for name, unit in LAYER_METRICS}
