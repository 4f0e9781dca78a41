#!/usr/bin/env python3
"""simobs benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload scan_radiotap --seed 1 --seconds 15 --trace 0

Set-up runs in child processes, ``setup_reps`` times, so its memory stays
out of the timed phase's peak RSS; ``setup_s`` is the median wall time of
one set-up, interpreter start and imports included.  One untimed warm-up
operation follows, then operations run back to back for ``--seconds``
seconds with ``gc.collect()`` between them.  Every operation's output is
checked.  The last line of stdout is a JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``); the
traced run alternates untraced and traced operations and writes its
spans to ``.perfbench_traces/``.
"""
from __future__ import annotations

import os

# Before numpy is imported anywhere, here or in set-up children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(1, str(ROOT / "src"))

from layers import PER_LAYER, PhaseSums, install, layer_metrics  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "detect_f1": "ratio",
}
SETUP_TIMEOUT_S = 150


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_child(workload, setup_dir: Path, trace: bool) -> int:
    """Body of one set-up child process."""
    tracer = Tracer()
    if trace:
        install(tracer)
    with tracer.span("setup"):
        workload.setup(setup_dir)
    if trace:
        spans, counts = tracer.take()
        (setup_dir / "setup_trace.json").write_text(json.dumps({"spans": spans, "counts": counts}))
    return 0


def run_setups(args, workload, setup_dir: Path, setup_phase: PhaseSums, trace_units: list) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--setup-into", str(setup_dir)]
    times = []
    for rep in range(workload.setup_reps):
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited with code {proc.returncode}")
        if args.trace:
            recorded = json.loads((setup_dir / "setup_trace.json").read_text())
            setup_phase.add(recorded["spans"], recorded["counts"])
            trace_units.append({"phase": "setup", "index": rep, "spans": recorded["spans"]})
    return times


def run_op(workload, index: int, out: Path, tracer: Tracer | None):
    """One operation, checked: (seconds, work, F1, spans, counts); spans
    and counts are None when untraced."""
    gc.collect()
    spans = counts = None
    if tracer is not None:
        install(tracer)
        try:
            start = time.perf_counter()
            with tracer.span("op"):
                workload.op(index, out)
            elapsed = time.perf_counter() - start
        finally:
            tracer.unwrap()
        spans, counts = tracer.take()
    else:
        start = time.perf_counter()
        workload.op(index, out)
        elapsed = time.perf_counter() - start
    work, f1 = workload.check(index, out)
    return elapsed, work, f1, spans, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import simobs
    except ImportError as exc:
        print(f"error: cannot import simobs from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(simobs.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: simobs was imported from {simobs.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_into is not None:
        return setup_child(workload, args.setup_into, bool(args.trace))

    env = environment(args)
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_dir, out_dir = work_dir / "setup", work_dir / "ops"
    setup_dir.mkdir(parents=True)
    out_dir.mkdir()
    try:
        return measure(args, env, workload, setup_dir, out_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run is still using it
            pass


def measure(args, env, workload, setup_dir: Path, out_dir: Path) -> int:
    setup_phase, op_phase = PhaseSums("setup"), PhaseSums("op")
    trace_units: list = []
    try:
        setup_times = run_setups(args, workload, setup_dir, setup_phase, trace_units)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload} set-up failed: {exc}", file=sys.stderr)
        return 1
    workload.load(setup_dir)

    tracer = Tracer() if args.trace else None
    attempted = failed = 0
    f1 = 0.0
    durations: dict[bool, list[float]] = {False: [], True: []}
    rates: list[float] = []
    identity_ok = True

    def attempt(index: int, traced: bool):
        nonlocal attempted, failed, identity_ok
        attempted += 1
        try:
            result = run_op(workload, index, out_dir, tracer if traced else None)
        except Exception:  # an op that raises or fails its check counts as failed
            failed += 1
            traceback.print_exc()
            return None
        elapsed, work, op_f1, spans, counts = result
        if spans is not None:
            op_phase.add(spans, counts)
            trace_units.append({"phase": "op", "index": index, "spans": spans})
            root = spans[0][2] - spans[0][1]
            identity_ok &= abs(sum(self_times(spans)) - root) <= 1e-6
        return elapsed, work, op_f1

    warm = attempt(0, traced=False)
    if warm is not None:
        f1 = warm[2]
    start = time.perf_counter()
    index = 1
    while True:
        traced = bool(args.trace) and index % 2 == 0
        result = attempt(index, traced)
        if result is not None:
            elapsed, work, _ = result
            durations[traced].append(elapsed)
            if not traced:
                rates.append(work / elapsed)
        index += 1
        # The traced run needs at least one untraced and one traced op.
        if time.perf_counter() - start >= args.seconds and index > 1 + args.trace:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "op_s_p50": statistics.median(durations[False]) if durations[False] else 0.0,
        "work_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "detect_f1": f1,
    }
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup_s       {end_to_end['setup_s']:.4f} s  (median of {len(setup_times)} set-ups: "
          + " ".join(f"{t:.4f}" for t in setup_times) + ")")
    print(f"op_s_p50      {end_to_end['op_s_p50']:.4f} s  (median of {len(durations[False])} timed ops: "
          + " ".join(f"{t:.4f}" for t in durations[False]) + ")")
    for rate in ("packets_per_s", "pairs_per_s", "fits_per_s"):
        shown = f"{end_to_end['work_per_s']:.1f} 1/s  (reported as work_per_s)" if rate == workload.work_name else "n/a"
        print(f"{rate:<13} {shown}")
    print(f"peak_rss_mb   {peak_rss_mb:.1f} MB (warm-up and timed phase; set-up ran in child processes)")
    print(f"failed_ratio  {failed / attempted:.4f}  ({failed} of {attempted} ops, warm-up included)")
    print(f"detect_f1     {f1:.4f}  (warm-up op)")

    correct = failed == 0 and identity_ok
    if args.trace:
        overhead = (statistics.median(durations[True]) - statistics.median(durations[False])
                    if durations[True] and durations[False] else 0.0)
        metrics = layer_metrics(op_phase, setup_phase, overhead)
        units = {name: unit for name, unit, _ in PER_LAYER}
        trace_dir = ROOT / ".perfbench_traces"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"env": env, "units": trace_units}))
        print(f"trace: {len(durations[True])} traced ops, spans in {trace_file.relative_to(ROOT)}; "
              f"self times {'sum' if identity_ok else 'DO NOT sum'} to each traced op's time")
        for name, value in metrics.items():
            print(f"  {name:<28} {value:.6g} {units[name]}")
    else:
        metrics, units = end_to_end, END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
