"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout::

    python3 perfbench/spread.py --workload stream_small --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed (one after another, never in
parallel) and prints, per metric, the median and the distance between
the first and third quartile as a share of the median — the spread that
must stay below a third of the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict = {}
    status = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        mid = statistics.median(series)
        spread = float("nan")
        if len(series) >= 2 and mid:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(mid)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else f"WIDE (limit {bound / 3:.4f})"
        print(f"  {name:<32} median {mid:>12.6g}  spread {spread:8.4f}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
