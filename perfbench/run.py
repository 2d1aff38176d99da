"""COUDER planning benchmark: one process, one thread, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan-mix --seed 1 --seconds 25 --trace 0

Workloads: plan-mix, round-saturated, replay (see README.md).  The run
times a fresh import of the program plus a build of its inputs from
``--seed`` three times, and reports the median as set-up time.  It then
runs a fixed number of whole rounds of operations, set by ``--seconds``
and never by how fast the operations ran.  Each operation is timed alone
and checked after it completes, outside the timed section.  Times are
corrected for the shared host's speed of the moment (``hostspeed.py``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics of a traced run with
``--trace 1``.  The program under test is the ``couder`` package in the
checkout's ``src/``; the run exits with code 2 if it is not there.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-up repetitions; set-up time is their median.
SETUP_REPEATS = 3
#: Timed work between two samples of the host-speed kernel.
HOST_SAMPLE_EVERY_S = 0.5
#: What a fresh interpreter imports before a workload can call couder.
IMPORT_PROGRAM = ("import sys; sys.path.insert(0, sys.argv[1]); "
                  "import couder.evaluate, couder.optimize, couder.round, "
                  "couder.traffic")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s", "ops_per_min": "1/min", "peak_rss_mb": "MB",
    "mu_retained": "ratio", "ahc": "hops", "throughput": "x",
    "l1_gap": "links",
}
QUALITY = ("mu_retained", "ahc", "throughput", "l1_gap")

#: Thread-count variables of BLAS and OpenMP builds numpy and scipy use.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _import_program():
    """Import ``couder`` from the checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import couder
    except ImportError as exc:
        print(f"perfbench: cannot import couder from {SRC}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if Path(couder.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: couder was imported from {couder.__file__},"
              f" not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("plan-mix", "round-saturated", "replay"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Wall time for a fresh interpreter to start and import the program."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(SRC)],
                   check=True, timeout=120)
    return time.perf_counter() - start


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds a run of ``seconds`` makes: fixed by the workload's
    ``ROUND_SECONDS``, never by how fast this run's operations are."""
    import workloads
    return max(1, round(seconds / workloads.ROUND_SECONDS[workload]))


def _rate(seconds: list) -> float:
    """Operations per minute of one round, from each operation's time."""
    return 60.0 * len(seconds) / sum(seconds) if seconds else math.nan


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS, setup_kwargs=None) -> dict:
    """Run one workload; returns the result object ``main`` prints.

    ``correct`` is false when any operation raised or failed a check.
    """
    import hostspeed
    import workloads
    from tracing import PER_LAYER, Tracer

    host = hostspeed.HostSpeed()
    setup = workloads.WORKLOADS[workload]
    # Each set-up is corrected for the host's speed like the operations.
    setup_times = []
    for _ in range(setup_repeats):
        took = import_seconds()
        start = time.perf_counter()
        rnd = setup(seed, **(setup_kwargs or {}))
        took += time.perf_counter() - start
        setup_times.append(took / host.factor())

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    attempted = failed = 0
    # Each repeat's time as timed, and scaled to the reference host speed
    # by the host-speed sample taken right after it (see hostspeed.py).
    # The host slows every process on it for tens of seconds at a time.
    timed = [[] for _ in rnd.ops]
    scaled = [[] for _ in rnd.ops]
    pending, pending_s = [], 0.0

    def scale_pending():
        nonlocal pending, pending_s
        if pending:
            factor = host.factor()
            for k, took in pending:
                scaled[k].append(took / factor)
        pending, pending_s = [], 0.0

    quality = {k: list(v) for k, v in rnd.fixed.items()}
    try:
        for _ in range(rounds_for(workload, seconds)):
            for k, op in enumerate(rnd.ops):
                attempted += 1
                start = time.perf_counter()
                try:
                    if tracer:
                        with tracer.span("op"):
                            out = op.run()
                    else:
                        out = op.run()
                    raised = None
                except Exception as exc:  # a raising operation counts as failed
                    raised = exc
                took = time.perf_counter() - start
                if not raised:
                    timed[k].append(took)
                    pending.append((k, took))
                pending_s += took
                if pending_s >= HOST_SAMPLE_EVERY_S:
                    scale_pending()
                errors = [f"raised {raised!r}"] if raised else op.check(out)
                if errors:
                    failed += 1
                    print(f"op {attempted}: " + "; ".join(errors[:5]),
                          file=sys.stderr)
                    continue
                for name, value in op.quality(out).items():
                    quality.setdefault(name, []).append(value)
    finally:
        if tracer:
            tracer.uninstall()

    scale_pending()
    done = [k for k, times in enumerate(scaled) if times]
    ops_per_min = _rate([statistics.median(scaled[k]) for k in done])
    as_timed = _rate([statistics.median(timed[k]) for k in done])
    print(f"ops per minute as timed: {as_timed:.6g}", file=sys.stderr)
    if tracer:
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{workload}-{seed}.jsonl")
        values = tracer.layer_metrics(attempted)
        values["trace.ops_per_min"] = ops_per_min
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_min": ops_per_min,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        values.update({k: statistics.fmean(quality[k]) if quality.get(k)
                       else math.nan for k in QUALITY})
        units = END_TO_END
    correct = failed == 0 and bool(done) and all(
        math.isfinite(v) for v in values.values())
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name] if math.isfinite(
                values[name]) else None, "unit": unit}
                for name, unit in units.items()}}


def main(argv=None) -> int:
    args = _args(argv)
    _import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # One thread for BLAS and OpenMP, set before numpy loads; no worker pool.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"
    os.environ.pop("COUDER_JOBS", None)
    sys.exit(main())
