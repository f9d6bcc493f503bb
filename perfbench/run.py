"""Layer-ledger benchmark of the tone-mapping serving stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream_small --seed 1 --seconds 20 --trace 0

``--trace 0`` is a timed run: it prints every end-to-end metric.
``--trace 1`` is the traced run: it prints the per-layer ledger and the
per-layer metrics, and writes the recorded spans to ``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits non-zero when any output mismatches its reference or a stack
leaks a process or shared-memory segment.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Throughput samples listed in the notes.
SHOWN = 8


def _use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` (and let worker and
    host processes do the same)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: {src / 'repro'} not found; run from the root of a "
            "checkout of the repository"
        )
    sys.path.insert(0, str(src))
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + existing if existing else "")


def _open_loop_note(spec, open_ms) -> list:
    from drive import percentile

    if not open_ms:
        return []
    return [
        f"open-loop latency at {spec.rate_fps:g} frames/s: "
        + ", ".join(f"p{q} {percentile(open_ms, q / 100):.3f} ms" for q in (50, 90, 99))
        + f" (n={len(open_ms)})"
    ]


def _timed(spec, seed: int, seconds: float):
    from drive import make_plan, median, percentile, references, run_traffic, set_up
    from host import peak_rss_mb
    from inputs import generate

    params = spec.params()
    inputs = generate(spec, seed, spec.open_share * seconds)
    refs = references(params, make_plan(spec, params), inputs.frames)
    setup_s, leaks, verified = [], [], True
    stack = None
    try:
        for attempt in range(spec.setups):
            seconds_taken, built, ok = set_up(spec, params, inputs, refs)
            setup_s.append(seconds_taken)
            verified = verified and ok
            if attempt + 1 < spec.setups:
                leaks += built.close()
            else:
                stack = built
        traffic = run_traffic(spec, stack, inputs, refs, seconds)
        rss = peak_rss_mb()
        served = (stack.ingestor or stack.service).stats
    finally:
        if stack is not None:
            leaks += stack.close()

    lat, lag = traffic.latency_ms, traffic.lag_ms
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "throughput_mpx_s": (median(traffic.rates), "Mpx/s"),
        "latency_p50_ms": (percentile(lat, 0.50), "ms"),
        "slo_attainment": (traffic.met / max(1, traffic.judged), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = [
        f"setups: {len(setup_s)} ({', '.join(f'{s:.3f}' for s in setup_s)} s)",
        f"closed-loop latency samples: {len(lat)} (p90 {percentile(lat, 0.90):.3f} ms, "
        f"p99 {percentile(lat, 0.99):.3f} ms, "
        f"max {max(lat, default=float('nan')):.3f} ms); "
        f"throughput samples (Mpx/s): "
        f"{', '.join(f'{r:.3f}' for r in traffic.rates[:SHOWN])}"
        f"{' ...' if len(traffic.rates) > SHOWN else ''}",
        f"latency limit: {spec.limit_ms} ms",
        *_open_loop_note(spec, traffic.open_ms),
        f"error_rate: {traffic.failed / max(1, traffic.attempted):.6f} "
        f"({traffic.failed} of {traffic.attempted}; "
        f"{traffic.mismatched} mismatched)",
    ]
    rel = served.reliability
    notes.append(
        f"stack: batches={served.batches} shed={served.shed} "
        f"rejected={served.rejected} deadline_shed={rel.deadline_shed} "
        f"hedged={rel.hedged_replays} watchdog_kills={rel.watchdog_kills} "
        f"respawns={served.shard_respawns} brownout_batches={rel.brownout_batches} "
        f"ladder_transitions={rel.ladder_transitions}"
    )
    if traffic.errors:
        counts = sorted(Counter(traffic.errors).items())
        notes.append("errors: " + ", ".join(f"{kind} x{n}" for kind, n in counts))
    if lag:
        notes.append(
            f"bench.generator_lag_ms: p50={percentile(lag, 0.5):.3f} "
            f"p99={percentile(lag, 0.99):.3f} (n={len(lag)})"
        )
    correct = verified and traffic.mismatched == 0 and not leaks
    return metrics, notes, leaks, correct, traffic.attempted, traffic.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _use_source_tree()
    from host import cpu_shares, cpu_times, fingerprint, stop_helpers
    from inputs import SPECS

    if args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(SPECS)}")
    spec = SPECS[args.workload]
    host = fingerprint(ROOT)
    jiffies = cpu_times()
    try:
        if args.trace:
            from ledger import traced

            metrics, notes, leaks, correct, attempted, failed = traced(
                spec, args.seed, args.seconds, OUT
            )
        else:
            metrics, notes, leaks, correct, attempted, failed = _timed(
                spec, args.seed, args.seconds
            )
    finally:
        helper_leaks = stop_helpers()
    leaks = leaks + helper_leaks
    # A metric with no samples (every frame failed) has no value to print.
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    metrics = {
        name: (value if math.isfinite(value) else 0.0, unit)
        for name, (value, unit) in metrics.items()
    }
    busy, stolen = cpu_shares(jiffies, cpu_times())
    notes.append(f"host cpu during run: {100 * busy:.1f} % busy, {100 * stolen:.2f} % stolen")
    correct = correct and finite and not leaks

    print(f"workload: {spec.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("host: " + json.dumps(host, sort_keys=True))
    for line in notes:
        print(line)
    for leak in leaks:
        print(f"LEAK: {leak}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=spec.name, seed=args.seed, trace=args.trace,
                  host=host, notes=notes, leaks=leaks)
    mode = "trace" if args.trace else "timed"
    (OUT / f"result-{spec.name}-{mode}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
