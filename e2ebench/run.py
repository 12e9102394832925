"""End-to-end benchmark of the PruneTrain reproduction.

One workload per invocation (the form the benchmark contract runs)::

    python3 e2ebench/run.py --workload prunetrain --seed 0 --seconds 30 --trace 0

prints every measurement by name and unit, runs the workload's correctness
check, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.  ``--out DIR`` also
writes the full report into ``DIR``.

Every workload, untraced then traced, each in its own process::

    python3 e2ebench/run.py --all [--seed 0] [--seconds 30]

ends with the measured PruneTrain / dense ``train_s`` ratio beside the cost
model's training-FLOPs and modeled GPU-time ratios.  Its reports go to a
fresh temporary directory; only ``--record`` (full settings) writes the
committed ``e2ebench/results/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS_DIR = os.path.join(HERE, "results")
#: ``run_seconds`` of BENCHMARK.json; ``--record`` requires it
DEFAULT_SECONDS = 30
WORKLOADS = ("train-dense", "prunetrain", "serve-pruned")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true",
                      help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    dest = ap.add_mutually_exclusive_group()
    dest.add_argument("--out", help="directory for the full report")
    dest.add_argument("--record", action="store_true",
                      help="write the committed e2ebench/results/ "
                           "(full settings only)")
    args = ap.parse_args(argv)
    if args.record:
        if args.seconds != DEFAULT_SECONDS:
            ap.error(f"--record needs the full --seconds "
                     f"{DEFAULT_SECONDS}; shorter runs go to --out")
        args.out = RESULTS_DIR
    elif args.out and os.path.realpath(args.out) == os.path.realpath(
            RESULTS_DIR):
        ap.error("e2ebench/results/ holds the recorded full run; "
                 "write there only with --record")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _require_source() -> None:
    """Exit non-zero, printing no result, when the library is absent."""
    # The load budget is nproc = 2 threads: one trainer loop, or one
    # traffic generator plus the server's worker.  BLAS pools would add
    # threads of their own, so pin them (before numpy is imported).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"e2ebench: no library source under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))


# -- one workload ----------------------------------------------------------------

def _fmt(name: str, value: float, unit: str) -> str:
    return f"  {name:<36} {value:>14.6g} {unit}"


def _result_line(report) -> str:
    metrics = {}
    for name, (value, unit) in report.metrics.items():
        if not math.isfinite(value):
            report.fail(f"{name} is not finite")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": report.correct,
                       "attempted": report.attempted,
                       "failed": report.failed, "metrics": metrics})


def _write(report, out: str, seconds: float) -> None:
    os.makedirs(out, exist_ok=True)
    stem = report.workload + (".trace" if report.trace else "")
    doc = {"workload": report.workload, "seed": report.seed,
           "seconds": seconds, "trace": report.trace,
           "host_cpus": os.cpu_count(), "correct": report.correct,
           "attempted": report.attempted, "failed": report.failed,
           "problems": report.problems,
           "metrics": {k: {"value": v, "unit": u}
                       for k, (v, u) in report.metrics.items()},
           "info": {k: {"value": v, "unit": u}
                    for k, (v, u) in report.info.items()},
           "notes": report.notes}
    with open(os.path.join(out, stem + ".json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_one(args) -> int:
    _require_source()
    import workloads

    work = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(work, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        if args.workload == "serve-pruned":
            report = workloads.serve_workload(args.seed, args.seconds,
                                              bool(args.trace), tmp)
        else:
            report = workloads.train_workload(args.workload, args.seed,
                                              args.seconds,
                                              bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass
    kind = "per-layer, traced run" if args.trace else "end to end"
    print(f"== {args.workload}  seed {args.seed}  ({kind}) ==")
    for name, (value, unit) in report.info.items():
        print(_fmt(name, value, unit))
    print("  -- gated metrics --")
    for name, (value, unit) in report.metrics.items():
        print(_fmt(name, value, unit))
    verdict = "ok" if report.correct else "FAILED"
    print(f"  correctness: {verdict} ({report.attempted} attempted, "
          f"{report.failed} failed)")
    for problem in report.problems:
        print(f"    - {problem}")
    line = _result_line(report)
    if args.out:
        _write(report, args.out, args.seconds)
    print(line, flush=True)
    return 0


# -- every workload --------------------------------------------------------------

def _invoke(args, workload: str, trace: int, out: str) -> bool:
    """Run one workload in its own process, writing its report to ``out``;
    returns whether it ran and its outputs were correct."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    cmd += ["--record"] if args.record else ["--out", out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="", flush=True)
    lines = proc.stdout.strip().splitlines()
    return (proc.returncode == 0 and bool(lines)
            and json.loads(lines[-1])["correct"])


def run_all(args) -> int:
    if args.out:
        out = args.out
    else:
        os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
        out = tempfile.mkdtemp(prefix="all-",
                               dir=os.path.join(ROOT, ".bench_tmp"))
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            ok &= _invoke(args, workload, trace, out)
    reports = {}
    for workload in WORKLOADS:
        with open(os.path.join(out, workload + ".json")) as fh:
            reports[workload] = json.load(fh)
    summary = run_level_ratios(reports) if ok else {}
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "host_cpus": os.cpu_count(), "ratios": summary,
                   "correct": {w: r["correct"] for w, r in reports.items()}},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"reports in {out}")
    return 0 if ok else 1


def run_level_ratios(reports) -> dict:
    """PruneTrain / dense: measured wall-clock, raw and at the reference
    host speed, next to the cost model's training-FLOPs and modeled
    GPU-time ratios from the two runs' ``RunLog``s (informational)."""
    dense = reports["train-dense"]["notes"]
    pt = reports["prunetrain"]["notes"]
    ratios = {"measured_train_s": pt["train_s"] / dense["train_s"],
              "measured_train_s.ref_speed":
                  pt["ref_train_s"] / dense["ref_train_s"],
              "model_train_flops": pt["train_flops"] / dense["train_flops"]}
    for dev, t in dense["modeled_time_s"].items():
        ratios[f"modeled_gpu_time.{dev}"] = pt["modeled_time_s"][dev] / t
    print("== PruneTrain / dense (informational, not gated) ==")
    print(f"  measured train_s             {ratios['measured_train_s']:.3f}"
          f"  ({pt['train_s']:.2f} s / {dense['train_s']:.2f} s)")
    print(f"  measured train_s.ref_speed   "
          f"{ratios['measured_train_s.ref_speed']:.3f}"
          f"  ({pt['ref_train_s']:.2f} s / {dense['ref_train_s']:.2f} s)")
    for name, value in list(ratios.items())[2:]:
        print(f"  {name:<28} {value:.3f}  (cost model)")
    return ratios


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
