#!/usr/bin/env python3
"""Benchmark of the diffetm toolchain, one workload per process.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The seed makes the synthetic input text; the program
sees only that text.  BLAS threads are capped at the number of usable cores.

Untraced (``--trace 0``): set up three times (median is ``setup_s``), then
repeat the workload's measured unit for ``--seconds`` (at least twice).
Prints the end-to-end metrics.

Traced (``--trace 1``): set up once, repeat the unit with every layer's
public functions wrapped (see tracing.py), then run one unit untraced as
the reference.  Prints the per-layer metrics and ``trace.overhead_ratio``,
the median wall time of the warm traced units over the untraced one.

Both modes check the program's outputs: exit codes, finite losses and
perplexities, metric ranges, byte-identical re-ingest, a strictly
decreasing kl-test trajectory and bit-identical outputs from repeated
units; the traced run also checks that traced and untraced units give
bit-identical outputs and that the layer counts repeat exactly.  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the environment.  Both, and the spans of a traced run, are also
saved under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3
MIN_UNITS = 2

# work completed per second: samples are (docs, seconds) pairs, and the run
# reports all docs over all seconds, which unlike a median does not jump when
# the host flips between its fast and slow speeds from one call to the next
RATES = ("train_docs_per_s", "ingest_docs_per_s")

END_TO_END = {
    "setup_s": "s",
    "train_docs_per_s": "docs/s",
    "ingest_docs_per_s": "docs/s",
    "eval_s": "s",
    "kl_test_s": "s",
    "val_ppl": "ppl",
    "test_ppl": "ppl",
    "peak_rss_mb": "MB",
}


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the usable cores; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import diffetm from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import diffetm

    if Path(diffetm.__file__).resolve().parent != ROOT / "src" / "diffetm":
        raise ImportError(f"diffetm imported from {diffetm.__file__}, not from {ROOT / 'src'}")


def environment(args, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run(workload, args, work: Path, checks) -> tuple[dict, dict, object]:
    """One benchmark run; returns (metrics, info, tracer or None)."""
    from tracing import LAYER_METRICS, Tracer

    traced = bool(args.trace)
    tracer = Tracer() if traced else None
    samples: dict[str, list[float]] = defaultdict(list)

    def add(s: dict) -> None:
        for k, v in s.items():
            samples[k].append(v)

    def phase(run_id: str):
        if traced:
            tracer.run_id = run_id
            tracer.install()

    def end_phase():
        if traced:
            tracer.uninstall()

    # set-up: repeated untraced so setup_s is a median; the last one is kept
    setup_s = []
    for i in range(1 if traced else SETUP_REPEATS):
        phase("setup")
        t0 = time.perf_counter()
        try:
            ctx, s = workload.setup(work / f"setup{i}", args.seed, checks)
        finally:
            end_phase()
        setup_s.append(time.perf_counter() - t0)
        add(s)
        if i:
            shutil.rmtree(work / f"setup{i - 1}")

    # units: start another only while it is expected to end within --seconds
    walls, digests = [], []
    start = time.perf_counter()
    while len(walls) < MIN_UNITS or time.perf_counter() - start + statistics.mean(walls) <= args.seconds:
        i = len(walls)
        phase(f"unit{i}")
        t0 = time.perf_counter()
        try:
            unit_samples, d = workload.unit(ctx, work / f"unit{i}", checks)
        finally:
            end_phase()
        walls.append(time.perf_counter() - t0)
        digests.append(d)
        for s in unit_samples:
            add(s)
        shutil.rmtree(work / f"unit{i}")
    for i, d in enumerate(digests[1:], start=1):
        checks.expect(d == digests[0], f"unit {i} outputs differ from unit 0")

    values = {
        k: sum(d for d, _ in v) / sum(s for _, s in v) if k in RATES else statistics.median(v)
        for k, v in samples.items()
    }
    info = {"units": len(walls), "unit_s": walls, "setup_s": setup_s, "values": values, "samples": samples}
    if not traced:
        values["setup_s"] = statistics.median(setup_s)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {k: (values[k], unit) for k, unit in END_TO_END.items()}, info, None

    # reference for the traced units: same program and inputs, nothing
    # patched; run last so that it and the traced units after the first
    # all run warm
    t0 = time.perf_counter()
    _, ref_digest = workload.unit(ctx, work / "ref", checks)
    ref_s = time.perf_counter() - t0
    for i, d in enumerate(digests):
        checks.expect(d == ref_digest, f"traced unit {i} outputs differ from the untraced unit")
    counts = tracer.unit_counts()
    info["unit_counts"] = counts
    first = next(iter(counts.values()))
    for run_id, c in counts.items():
        checks.expect(c == first, f"layer counts of {run_id} differ: {c} vs {first}")
    layer = tracer.layer_metrics(statistics.median(walls[1:]) / ref_s)
    return {k: (layer[k], unit) for k, (unit, _) in LAYER_METRICS.items()}, info, tracer


def main() -> int:
    nproc = cap_blas_threads()
    import_program()
    from workloads import WORKLOADS, Checks, OperationFailed

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = environment(args, nproc)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / stem
    shutil.rmtree(work, ignore_errors=True)
    checks = Checks()
    metrics, info, tracer = {}, {}, None
    try:
        metrics, info, tracer = run(WORKLOADS[args.workload], args, work, checks)
    except OperationFailed:
        pass
    except Exception:
        checks.expect(False, traceback.format_exc())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "result": result, "info": info, "failures": checks.notes}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str))
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.jsonl")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
