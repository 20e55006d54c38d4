"""Steadiness command: run the benchmark repeatedly and summarise the spread.

    python3 bench/steady.py --runs 10 --first-seed 1
    python3 bench/steady.py --workloads verify-suite --runs 5 --seconds 20

Runs ``bench/run.py`` once per seed, one run at a time, for every chosen
workload, and prints for each metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  The end-to-end bounds in
``BENCHMARK.json`` are set from this output; a spread wider than a third of
its bound is flagged.  Raw results go to ``bench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _config() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2].removeprefix("info "))
    return result


def summarise(results: list[dict], bounds: dict) -> list[str]:
    lines = []
    shares = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    lines.append(f"  runs {len(results)}  correct {correct}  failed shares {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread <= bound / 3 else "WIDE"
        lines.append(f"  {name:<40} {med:>12.6g} {unit:<6} q1 {q1:.6g}  q3 {q3:.6g}  "
                     f"spread {spread:.4f}  bound {bound}  {flag}")
    return lines


def main(argv=None) -> int:
    config = _config()
    workloads = [w["name"] for w in config.get("workloads", [])]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads),
                        help="comma-separated workload names")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config.get("run_seconds", 20))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config.get("end_to_end", [])}
    raw = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            values = "  ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s  {values}",
                  file=sys.stderr)
        raw[workload] = results
        print(workload)
        print("\n".join(summarise(results, bounds)), flush=True)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (out_dir / f"steady-{stamp}.json").write_text(json.dumps(raw, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
