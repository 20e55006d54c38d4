"""Benchmark entry point for freenil2.

    python3 bench/run.py --workload verify-suite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.  The
run builds the workload's seeded inputs and one warm-up round (together with
the interpreter's start and the import, the set-up time ``setup_s``), then
repeats rounds for ``--seconds`` with the reference loop between them, checks
the program's outputs against the oracles, and prints one JSON object as its
last line.  Times are reported in ``ref``: multiples of the reference loop's
median time in the same run.  With ``--trace 1`` rounds alternate between
untraced and traced, and the per-layer metrics come from the traced ones.
"""

import time

_START_CPU = time.process_time()  # interpreter start-up, before this line
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _percentile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "freenil2" / "__init__.py").is_file():
        print(f"error: no freenil2 package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from reference import time_reference
    from tracing import MOVES, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.round([])  # warm-up: fills caches and lazy set-up before timing
    setup_s = _START_CPU + (time.perf_counter() - _START)

    tracer = None
    if args.trace:
        from freenil2 import verify

        tracer = Tracer()
        check_names = sorted(verify.CHECKS)
        extra = [(f"verify.{name}", verify.CHECKS, name) for name in check_names]
    rounds = {False: [], True: []}
    op_times = {False: [], True: []}
    refs = [time_reference()]
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    traced = False
    while True:
        if tracer and traced:
            tracer.install(extra)
        try:
            dt, n_ops, n_failed = workload.round(op_times[traced])
        finally:
            if tracer and traced:
                tracer.uninstall()
        rounds[traced].append(dt)
        attempted += n_ops
        failed += n_failed
        refs += [time_reference() for _ in range(workload.ref_per_gap)]
        if time.perf_counter() >= deadline and (not tracer or rounds[True]):
            break
        traced = bool(tracer) and not traced

    errors = workload.check()
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    ref_s = statistics.median(refs)
    round_s = statistics.median(rounds[False])
    op_p90_s = _percentile90(op_times[False])
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds[False]) + len(rounds[True]), "ref_s": ref_s,
        "ref_samples": len(refs), "round_s": round_s, "op_p90_s": op_p90_s,
        "op_samples": len(op_times[False]),
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }
    if tracer:
        traced_round_s = statistics.median(rounds[True])
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in tracer.metrics(len(rounds[True]), check_names).items()}
        overhead = (traced_round_s - round_s) / ref_s
        metrics["trace.overhead_ref"] = {"value": overhead, "unit": "ref"}
        metrics["trace.overhead_share"] = {"value": traced_round_s / round_s - 1, "unit": "ratio"}
        info.update(traced_round_s=traced_round_s, moves=MOVES)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"info": info, "metrics": metrics,
             "spans": {k: {"calls": c, "total_s": t, "self_s": s}
                       for k, (c, t, s) in sorted(tracer.stats.items())}},
            indent=2, sort_keys=True))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_ref": {"value": round_s / ref_s, "unit": "ref"},
            "op_p90_ref": {"value": op_p90_s / ref_s, "unit": "ref"},
            "peak_rss_mib": {"value": _peak_rss_mib(), "unit": "MiB"},
        }
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
