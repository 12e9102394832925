"""Serving benchmark: p50/p99 latency + QPS, dense vs pruned checkpoints.

Builds a dense and a surgically pruned ResNet-32 at the QUICK scale,
round-trips both through the ``repro.io`` checkpoint format into a
:class:`repro.serve.ModelRegistry`, and drives the
:class:`repro.serve.InferenceServer` with deterministic synthetic
open-loop traffic (seeded Poisson arrivals) at several offered loads
expressed as fractions of each model's measured batched capacity.

Before any load runs, a **parity gate** checks the serving contract on
every dispatch path (exact batch, zero-padded group, on-demand tail
shape, end-to-end through the threaded server): served logits must be
bit-identical to a batch-1 eager forward of each request alone.  The
result lands in ``results/BENCH_serve.json`` under ``parity`` and CI
fails the perf-smoke leg if it is not clean.

Offered loads are open loop: arrival times are fixed ahead of time and
latency is charged from the *scheduled* arrival, so a lagging server
accumulates queueing delay in p99 instead of silently back-pressuring
the generator.

Run directly::

    PYTHONPATH=src python benchmarks/perf/bench_serve.py

writes ``results/BENCH_serve.json``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import numpy as np

from repro.experiments.configs import QUICK, make_model
from repro.io import save_checkpoint
from repro.prune import prune_and_reconfigure
from repro.serve import (InferenceServer, ModelRegistry,
                         exponential_arrivals, run_open_loop)
from repro.tensor import Tensor, no_grad

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "results")
OUT_PATH = os.path.join(RESULTS_DIR, "BENCH_serve.json")

MODEL = "resnet32"
DATASET = "cifar10s"
HW = QUICK.hw
SEED = 3
PRUNE_FRAC = 0.5


def _sparsify(model, frac: float = PRUNE_FRAC, seed: int = 0) -> None:
    """Push a random channel subset below the prune threshold (the test
    suite's surgery idiom — produces a genuinely compact model without
    training)."""
    rng = np.random.default_rng(seed)
    g = model.graph
    for sid, sp in g.spaces.items():
        if sp.frozen:
            continue
        kill = rng.random(sp.size) < frac
        kill[0] = False
        for node in g.writers(sid):
            node.conv.weight.data[kill] *= 1e-9
        for node in g.readers(sid):
            node.conv.weight.data[:, kill] *= 1e-9


def build_checkpoints(out_dir: str) -> Dict[str, str]:
    """Write dense + pruned QUICK checkpoints; returns variant -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    dense = make_model(MODEL, DATASET, QUICK, seed=SEED)
    paths["dense"] = os.path.join(out_dir, "serve_dense.npz")
    save_checkpoint(paths["dense"], dense)
    pruned = make_model(MODEL, DATASET, QUICK, seed=SEED)
    _sparsify(pruned)
    prune_and_reconfigure(pruned)
    paths["pruned"] = os.path.join(out_dir, "serve_pruned.npz")
    save_checkpoint(paths["pruned"], pruned)
    return paths


def _factory():
    return make_model(MODEL, DATASET, QUICK, seed=SEED)


def _eager_rows(model, x: np.ndarray) -> np.ndarray:
    rows = []
    with no_grad():
        for i in range(x.shape[0]):
            rows.append(np.array(model(Tensor(x[i:i + 1])).data[0],
                                 copy=True))
    return np.stack(rows)


def parity_check(registry: ModelRegistry, name: str, max_batch: int,
                 rng: np.random.Generator) -> Dict[str, object]:
    """Gate: batched served outputs bit-identical to unbatched eager
    forward, on every dispatch path."""
    served = registry.served(name)
    model = served.model
    x = rng.normal(size=(max_batch + 3, 3, HW, HW)).astype(np.float32)
    checks = {}
    # exact cached batch
    out = registry.run(name, x[:max_batch])
    checks["exact_batch"] = bool(
        np.array_equal(out, _eager_rows(model, x[:max_batch])))
    # zero-padded partial group
    k = max(1, max_batch // 2 - 1)
    out = registry.run(name, x[:k])
    checks["padded_group"] = bool(
        np.array_equal(out, _eager_rows(model, x[:k])))
    # on-demand tail shape (> any cached batch)
    out = registry.run(name, x)
    checks["tail_shape"] = bool(np.array_equal(out, _eager_rows(model, x)))
    # end-to-end through the threaded server + dynamic batcher
    with InferenceServer(registry, max_batch=max_batch,
                         latency_budget=0.002) as server:
        futures = [server.submit(name, x[i]) for i in range(max_batch + 3)]
        rows = [f.result(timeout=60) for f in futures]
    ref = _eager_rows(model, x)
    checks["through_server"] = bool(
        all(np.array_equal(rows[i], ref[i]) for i in range(len(rows))))
    checks["bit_identical"] = bool(all(checks.values()))
    checks["rows_checked"] = int(2 * (max_batch + 3) + max_batch + k)
    return checks


def _measure_capacity(registry: ModelRegistry, name: str, max_batch: int,
                      rng: np.random.Generator, repeats: int = 7) -> float:
    """Best-of-N batched replay throughput (img/s) — the offered-load
    yardstick."""
    x = rng.normal(size=(max_batch, 3, HW, HW)).astype(np.float32)
    registry.run(name, x)  # warm: capture + first replay
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        registry.run(name, x)
        best = min(best, time.perf_counter() - t0)
    return max_batch / best


def run_serve_bench(n_requests: int = 240,
                    load_fracs: tuple = (0.25, 0.5, 0.8),
                    max_batch: int = 16,
                    latency_budget_ms: float = 5.0,
                    seed: int = 0,
                    ckpt_dir: str = None) -> Dict:
    """Full benchmark; returns the BENCH_serve.json payload."""
    import tempfile
    own_dir = None
    if ckpt_dir is None:
        own_dir = tempfile.TemporaryDirectory(prefix="repro-serve-")
        ckpt_dir = own_dir.name
    try:
        paths = build_checkpoints(ckpt_dir)
        results: Dict[str, object] = {
            "model": MODEL, "dataset": DATASET, "scale": "quick", "hw": HW,
            "max_batch": max_batch, "latency_budget_ms": latency_budget_ms,
            "n_requests": n_requests, "seed": seed, "prune_frac": PRUNE_FRAC,
            "host_cpus": os.cpu_count()}
        per_variant: Dict[str, Dict] = {}
        for variant in ("dense", "pruned"):
            rng = np.random.default_rng(seed + 11)
            registry = ModelRegistry(max_models=1)
            served = registry.register(variant, paths[variant], _factory)
            served.warm(1, (3, HW, HW))
            served.warm(max_batch, (3, HW, HW))
            parity = parity_check(registry, variant, max_batch, rng)
            capacity = _measure_capacity(registry, variant, max_batch, rng)
            samples = rng.normal(
                size=(32, 3, HW, HW)).astype(np.float32)
            loads: List[Dict] = []
            with InferenceServer(
                    registry, max_batch=max_batch,
                    latency_budget=latency_budget_ms / 1e3) as server:
                for frac in load_fracs:
                    offered = max(capacity * frac, 1.0)
                    arrivals = exponential_arrivals(
                        n_requests, qps=offered, seed=seed)
                    tr = run_open_loop(server, variant, samples, arrivals,
                                       offered_qps=offered)
                    row = tr.to_dict()
                    row["load_frac"] = frac
                    loads.append(row)
            per_variant[variant] = {
                "checkpoint": os.path.basename(paths[variant]),
                "capacity_qps": capacity,
                "parity": parity,
                "loads": loads,
                "serve_stats": served.stats()}
            registry.clear()
        results["dense"] = per_variant["dense"]
        results["pruned"] = per_variant["pruned"]
        mid = len(load_fracs) // 2
        results["speedup"] = {
            "capacity": (per_variant["pruned"]["capacity_qps"]
                         / per_variant["dense"]["capacity_qps"]),
            "p50_latency_at_mid_load": (
                per_variant["dense"]["loads"][mid]["p50_ms"]
                / max(per_variant["pruned"]["loads"][mid]["p50_ms"], 1e-9)),
            "bit_identical": bool(
                per_variant["dense"]["parity"]["bit_identical"]
                and per_variant["pruned"]["parity"]["bit_identical"])}
        return results
    finally:
        if own_dir is not None:
            own_dir.cleanup()


def write_results(results: Dict, path: str = OUT_PATH) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main() -> None:
    results = run_serve_bench()
    path = write_results(results)
    sp = results["speedup"]
    print(f"wrote {path}")
    for variant in ("dense", "pruned"):
        row = results[variant]
        print(f"{variant}: capacity {row['capacity_qps']:.0f} img/s, "
              f"parity={'OK' if row['parity']['bit_identical'] else 'FAIL'}")
        for load in row["loads"]:
            print(f"  load {load['load_frac']:.2f}: offered "
                  f"{load['offered_qps']:.0f} qps, achieved "
                  f"{load['achieved_qps']:.0f}, p50 {load['p50_ms']:.2f}ms, "
                  f"p99 {load['p99_ms']:.2f}ms")
    print(f"pruned/dense capacity speedup: {sp['capacity']:.2f}x, "
          f"p50 speedup at mid load: {sp['p50_latency_at_mid_load']:.2f}x, "
          f"bit-identical: {sp['bit_identical']}")


if __name__ == "__main__":
    main()
