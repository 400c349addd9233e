"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload packet-fig6 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints every
per-layer metric and writes the run's spans to
``perfbench/out/<workload>-seed<n>.trace.json`` (Perfetto loads it).
The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

The program is imported from ``src/`` next to this directory and runs
single-threaded in this one process.  The exit code is 0 when the run
finished, whatever its checks found (``correct`` reports those), and 2
when the program cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Units of every metric this benchmark prints.
UNITS = {
    "setup_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms", "ops_per_s": "1/s",
    "peak_rss_mb": "MB", "sim_ms_p50": "ms", "sim_ms_tail": "ms", "wire_mb": "MB",
    "ok_frac": "1", "slo_met_frac": "1",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_metrics(metrics, units):
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6g} {units[name]}")


def main(argv=None, before_run=None) -> int:
    """Run the benchmark; ``before_run()`` is called once the program is
    imported (the slowdown mutants apply themselves there)."""
    start = time.process_time()  # the same clock as stats.clock, not yet importable
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    # One process, one thread: no sweep pool, no threaded BLAS.  Set
    # before numpy is first imported.
    os.environ["REPRO_JOBS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]

    import repro
    from perfbench import bench, layers, stats
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import WORKLOADS

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.process_time() - start
    if before_run is not None:
        before_run()

    workload = WORKLOADS[args.workload](args.seed)
    spans = SpanRecorder(enabled=bool(args.trace))
    runner = bench.Runner(workload, spans)
    runner.setup()
    passes = workload.passes(args.seconds)
    if args.trace:
        passes += passes % 2  # traced passes alternate span recording on and off
    print(f"{workload.name}: seed {args.seed}, {passes} pass(es) of "
          f"{sum(len(k) for _, k in workload.plan())} op(s), trace {args.trace}")

    if args.trace:
        metrics = layers.traced(runner, passes)
        units = layers.UNITS
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"{workload.name}-seed{args.seed}.trace.json"
        spans.write(path, f"perfbench {workload.name} seed {args.seed}")
        print(f"spans: {len(spans.spans)} written to {path.relative_to(ROOT)}")
    else:
        outcomes = [runner.run_pass() for _ in range(passes)]
        metrics = bench.end_to_end(runner, outcomes, import_s)
        units = UNITS
        timed = [o for p in outcomes for o in p if o.ok]
        _, percentile, n = stats.tail([o.ref_s for o in timed])
        print(f"op_ms_tail is p{percentile:.1f} of {n} timed ops; "
              f"error_rate {runner.failed / max(1, runner.attempted):.4f}")
        print(f"op times are at reference speed: speed probe median "
              f"{1e3 * stats.median([o.probe_s for o in timed]):.2f} ms against "
              f"{1e3 * stats.PROBE_REF_S:.2f} ms; unscaled median CPU op time "
              f"{1e3 * stats.median([o.host_s for o in timed]):.2f} ms")
    _print_metrics(metrics, units)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
