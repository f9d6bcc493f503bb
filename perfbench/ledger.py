"""The traced run: a per-layer ledger, then live traffic with spans.

Part 1, the ledger, sends one seeded batch through each layer's public
entry point in turn: the stage functions, ``BatchToneMapper.run_stack``,
``ToneMapService.run_batch`` in-process, the sharded service, a
``HostPool`` and ``ToneMapIngestor.submit``.  A layer's self time is its
time minus the time of the layer below it, so a self time can be
negative where a layer is faster than the parts it replaces (the fused
engine against the staged stage functions, two shards against one
in-process mapper).

Part 2 serves the workload's own traffic with the service's and pool's
public methods wrapped on the instance.  The wrappers record spans in
every other second of the run and pass straight through in the seconds
between, so traced and untraced slices interleave and the difference of
their median latencies is the tracing overhead.  Counters come from the
live stack where it has the layer (otherwise from the ledger's stack of
that layer).  Spans are kept in memory and written out at exit.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.image.hdr import HDRImage
from repro.planner import pinned
from repro.runtime import (
    BatchToneMapper,
    HostPool,
    ShardPool,
    ToneMapIngestor,
    ToneMapService,
)
from repro.tonemap.adjust import adjust_brightness_contrast
from repro.tonemap.gaussian import blur_batch
from repro.tonemap.masking import nonlinear_masking

from drive import (
    frame, make_plan, median, percentile, references, run_traffic, set_up,
)
from host import LeakGuard
from inputs import generate

#: Most spans kept per run; later ones are counted but not stored.
MAX_SPANS = 50_000

#: Length of the alternating untraced and traced slices of live traffic.
SLICE_S = 1.0


class Tracer:
    """Records ``(name, start, end, parent, frames)`` spans in memory.

    :meth:`wrap` replaces a public method on one instance.  The parent
    is the span open on the same thread when the call started; spans of
    one frame share its id (the submitted image's name).  With a
    *slice_s*, spans are recorded only in the odd slices counted from
    the tracer's creation; calls in the even slices pass straight through.
    """

    def __init__(self, slice_s: Optional[float] = None) -> None:
        self.slice_s = slice_s
        self.origin = time.perf_counter()
        self.spans: List[list] = []
        self.dropped = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def on(self, t: float) -> bool:
        """Whether calls starting at *t* are traced."""
        if self.slice_s is None:
            return True
        return int((t - self.origin) // self.slice_s) % 2 == 1

    def wrap(self, obj, method: str, name: str, frames=None) -> None:
        original = getattr(obj, method)

        def traced(*args, **kwargs):
            if not self.on(time.perf_counter()):
                return original(*args, **kwargs)
            parent = getattr(self._local, "span", None)
            ids = frames(args) if frames is not None else None
            record = [name, time.perf_counter(), None, parent, ids]
            with self._lock:
                index = len(self.spans)
                if index < MAX_SPANS:
                    self.spans.append(record)
                else:
                    self.dropped += 1
            if index >= MAX_SPANS:
                return original(*args, **kwargs)
            self._local.span = index
            try:
                return original(*args, **kwargs)
            finally:
                self._local.span = parent
                record[2] = time.perf_counter()

        setattr(obj, method, traced)

    def by_name(self, name: str) -> List[list]:
        return [s for s in self.spans if s[0] == name and s[2] is not None]

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "frames")
        path.write_text(json.dumps(
            {"dropped": self.dropped,
             "spans": [dict(zip(keys, span)) for span in self.spans]}
        ))


def _names(images) -> List[str]:
    return [image.name for image in images]


def attach(tracer: Tracer, service, ingestor) -> None:
    """Wrap the public entry points of a live stack."""
    if ingestor is not None:
        tracer.wrap(ingestor, "submit", "ingest.submit", lambda a: [a[0].name])
    tracer.wrap(service, "map_many", "service.map_many", lambda a: _names(a[0]))
    tracer.wrap(service, "submit_batch", "service.submit_batch", lambda a: _names(a[0]))
    tracer.wrap(service, "submit_stack", "service.submit_stack", lambda a: list(a[2]))
    pool = service.pool
    if pool is not None:
        tracer.wrap(pool, "run_batch", "pool.run_batch", lambda a: _names(a[0]))
        tracer.wrap(pool, "run_leased", "pool.run_leased")


def _timed(fn, reps: int) -> float:
    """Median seconds of *reps* calls after one warm-up call."""
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _ingest_view(tracer: Tracer, batch_size: int) -> Dict[str, float]:
    """Admission time, queue wait and batch fill from ingestor spans."""
    submitted = {s[4][0]: s for s in tracer.by_name("ingest.submit")}
    dispatches = tracer.by_name("service.submit_stack") + tracer.by_name(
        "service.submit_batch"
    )
    waits = [
        (d[1] - submitted[f][1]) * 1e3
        for d in dispatches
        for f in d[4]
        if f in submitted
    ]
    fills = [len(d[4]) / batch_size for d in dispatches]
    admits = [(s[2] - s[1]) * 1e3 for s in submitted.values()]
    return {
        "ingest.admit_ms": median(admits),
        "ingest.queue_wait_ms": median(waits),
        "ingest.batch_fill": float(np.mean(fills)) if fills else float("nan"),
    }


class _Ledger:
    """Times one batch through every layer, closing each stack it builds."""

    def __init__(self, params, plan, images, refs, reps):
        self.params, self.plan = params, plan
        self.images, self.refs, self.reps = images, refs, reps
        self.seconds: Dict[str, float] = {}
        self.leaks: List[str] = []
        self.checked = 0
        self.mismatched = 0
        self.pools: Dict[str, Dict[str, tuple]] = {}
        self.ingest: Dict[str, float] = {}
        self.ingest_counters: Dict[str, tuple] = {}
        self.fused_stats = None

    def _check(self, outputs) -> None:
        for output, ref in zip(outputs, self.refs):
            self.checked += 1
            self.mismatched += not np.array_equal(output.pixels, ref)

    def _serve(self, key: str, service: ToneMapService) -> None:
        self.seconds[key] = _timed(
            lambda: self._check(service.run_batch(self.images)), self.reps
        )

    def run(self) -> None:
        images, params, plan, reps = self.images, self.params, self.plan, self.reps
        kernel = params.kernel()
        normalized = [image.normalized() for image in images]
        luma = lambda: np.stack([n.luminance() for n in normalized])  # noqa: E731
        masks = np.clip(blur_batch(luma(), kernel, method=plan.blur_method), 0.0, 1.0)
        masked = [
            nonlinear_masking(n.pixels, m, params.masking)
            for n, m in zip(normalized, masks)
        ]
        t = self.seconds
        t["normalize"] = _timed(lambda: [im.normalized() for im in images], reps)
        t["blur"] = _timed(
            lambda: blur_batch(luma(), kernel, method=plan.blur_method), reps
        )
        t["masking"] = _timed(
            lambda: [nonlinear_masking(n.pixels, m, params.masking)
                     for n, m in zip(normalized, masks)],
            reps,
        )
        t["adjust"] = _timed(
            lambda: [adjust_brightness_contrast(x, params.adjust) for x in masked],
            reps,
        )
        stack = np.stack([image.pixels for image in images])
        mapper = BatchToneMapper(params, plan=plan)
        fused_plan = plan if plan.engine == "fused" else pinned(plan, engine="fused")
        fused = mapper if mapper.fused else BatchToneMapper(params, plan=fused_plan)
        try:
            t["run_stack"] = _timed(lambda: mapper.run_stack(stack), reps)
            t["mapper.run"] = _timed(lambda: self._check(mapper.run(images).outputs), reps)
            t["fused"] = _timed(lambda: fused.run_stack(stack), reps)
            self.fused_stats = fused.fused_stats
        finally:
            mapper.close()
            fused.close()
        self._stack("service", lambda: ToneMapService(params, plan=plan, batch_size=len(images)))
        self._stack("shard", lambda: ToneMapService(
            params, shards=2, plan=plan, batch_size=len(images)), ingest=True)
        self._stack("shard1", lambda: ToneMapService(
            params, shards=1, plan=plan, batch_size=len(images)))
        self._stack("host", lambda: ToneMapService(
            params, plan=plan, batch_size=len(images),
            hosts=HostPool.spawn_local(1, params, plan=plan, shards_per_host=1)))

    def _stack(self, key: str, build, ingest: bool = False) -> None:
        guard = LeakGuard()
        service = build()
        try:
            self._serve(key, service)
            if service.pool is not None:
                self.pools[key] = _pool_counters(service.pool)
            if ingest:
                self._ingest(service)
        finally:
            service.close()
            self.leaks += guard.check()

    def _ingest(self, service: ToneMapService) -> None:
        ingestor = ToneMapIngestor(service)
        tracer = Tracer()
        attach(tracer, service, ingestor)
        try:
            rounds = itertools.count()

            def submit_all():
                tag = next(rounds)
                futures = [
                    ingestor.submit(HDRImage.adopt(im.pixels, name=f"{im.name}.{tag}"))
                    for im in self.images
                ]
                self._check([f.result() for f in futures])

            self.seconds["ingest"] = _timed(submit_all, self.reps)
            self.ingest = _ingest_view(tracer, service.batch_size)
            self.ingest_counters = _ingest_counters(ingestor.stats)
        finally:
            ingestor.close()

    def rows(self) -> List[tuple]:
        """``(layer, ms, self ms)`` per ledger row, lowest layer first."""
        t = {k: v * 1e3 for k, v in self.seconds.items()}
        stages = t["normalize"] + t["blur"] + t["masking"] + t["adjust"]
        return [
            ("tonemap.normalize", t["normalize"], t["normalize"]),
            ("tonemap.blur", t["blur"], t["blur"]),
            ("tonemap.masking", t["masking"], t["masking"]),
            ("tonemap.adjust", t["adjust"], t["adjust"]),
            ("BatchToneMapper.run_stack", t["run_stack"], t["run_stack"] - stages),
            ("ToneMapService.run_batch", t["service"], t["service"] - t["mapper.run"]),
            ("sharded service (2 shards)", t["shard"], t["shard"] - t["mapper.run"]),
            ("HostPool (1 host, 1 shard)", t["host"], t["host"] - t["shard1"]),
            ("ToneMapIngestor.submit", t["ingest"], t["ingest"] - t["shard"]),
        ]

    def table(self) -> List[str]:
        t = {k: v * 1e3 for k, v in self.seconds.items()}
        lines = [f"ledger ({len(self.images)} frames, median of {self.reps}): "
                 "layer, ms, self ms"]
        lines += [f"  {name:<28} {ms:10.3f} {own:10.3f}" for name, ms, own in self.rows()]
        lines.append(f"  (fused engine on the same batch: {t['fused']:.3f} ms; "
                     f"in-process mapper.run: {t['mapper.run']:.3f} ms; "
                     f"1-shard service: {t['shard1']:.3f} ms)")
        return lines


def _pool_counters(pool) -> Dict[str, tuple]:
    """Counters of one shard or host pool (read before it closes)."""
    plane = pool.data_plane_stats
    if isinstance(pool, ShardPool):
        return {
            "arena.copies_per_frame": (plane.copies_per_frame, "ratio"),
            "arena.bytes_staged_per_frame": (
                plane.bytes_staged / max(1, plane.frames), "B"),
            "shard.worker_respawns": (pool.worker_respawns, "count"),
            "shard.hedged_replays": (pool.hedged_replays, "count"),
        }
    net = plane.net
    return {
        "net.bytes_per_frame": (
            (net.bytes_sent + net.bytes_received) / max(1, plane.frames), "B"),
        "net.bytes_staged": (net.bytes_staged, "B"),
        "hostpool.hosts_lost": (pool.hosts_lost, "count"),
    }


def _ingest_counters(stats) -> Dict[str, tuple]:
    rel = stats.reliability
    return {
        "ingest.shed": (stats.shed, "count"),
        "ingest.deadline_shed": (rel.deadline_shed, "count"),
        "ingest.rejected": (stats.rejected, "count"),
        "overload.ladder_transitions": (rel.ladder_transitions, "count"),
        "ingest.fairness_index": (stats.fairness_index, "ratio"),
    }


def traced(spec, seed: int, seconds: float, out_dir: Path):
    params = spec.params()
    inputs = generate(spec, seed, spec.open_share * seconds)
    plan = make_plan(spec, params)
    refs = references(params, plan, inputs.frames)
    batch = [frame(inputs, i, f"l{i}") for i in range(spec.batch_size)]
    reps = 3 if spec.color else 7

    ledger = _Ledger(params, plan, batch, refs[: spec.batch_size], reps)
    plan_ms = _timed(lambda: make_plan(spec, params), 20) * 1e3
    _, stack, verified = set_up(spec, params, inputs, refs)
    try:
        tracer = Tracer(SLICE_S)
        attach(tracer, stack.service, stack.ingestor)
        live = run_traffic(spec, stack, inputs, refs, seconds)
        counters = _pool_counters(stack.service.pool)
        if stack.ingestor is not None:
            counters.update(_ingest_counters(stack.ingestor.stats))
            ingest = _ingest_view(tracer, spec.batch_size)
    finally:
        leaks = stack.close()
    ledger.run()
    leaks += ledger.leaks
    # Live counters win; the ledger's stacks fill the layers the
    # workload's own stack does not have.
    counters = {**ledger.pools["shard"], **ledger.pools["host"],
                **ledger.ingest_counters, **counters}
    if stack.ingestor is None:
        ingest = ledger.ingest
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{spec.name}-seed{seed}.json")

    t = ledger.seconds
    own = {name: ms for name, _, ms in ledger.rows()}
    mpx = len(batch) * batch[0].height * batch[0].width / 1e6
    per_mpx = lambda key: t[key] * 1e3 / mpx  # noqa: E731
    candidate = "fused-folded" if plan.engine == "fused" else f"staged-{plan.blur_method}"
    measured = t["fused"] if plan.engine == "fused" else t["blur"]
    fs = ledger.fused_stats
    sliced = {True: [], False: []}
    for latency, started in zip(live.latency_ms, live.started):
        sliced[tracer.on(started)].append(latency)
    overhead = (median(sliced[True]) / median(sliced[False]) - 1.0) * 100
    metrics = {
        "tonemap.normalize_ms_per_mpx": (per_mpx("normalize"), "ms/Mpx"),
        "tonemap.blur_ms_per_mpx": (per_mpx("blur"), "ms/Mpx"),
        "tonemap.masking_ms_per_mpx": (per_mpx("masking"), "ms/Mpx"),
        "tonemap.adjust_ms_per_mpx": (per_mpx("adjust"), "ms/Mpx"),
        "fused.ms_per_mpx": (per_mpx("fused"), "ms/Mpx"),
        "fused.bands_executed": (fs.bands_executed / max(1, fs.frames), "count"),
        "fused.halo_rows_reused": (fs.halo_rows_reused / max(1, fs.frames), "count"),
        "fused.intermediate_bytes": (fs.intermediate_bytes, "B"),
        "planner.plan_ms": (plan_ms, "ms"),
        "planner.cost_error": (dict(plan.cost_estimates)[candidate] / measured, "ratio"),
        "batch.self_ms_per_mpx": (own["BatchToneMapper.run_stack"] / mpx, "ms/Mpx"),
        "service.self_ms": (own["ToneMapService.run_batch"], "ms"),
        "shard.hop_ms": (own["sharded service (2 shards)"], "ms"),
        "hostpool.hop_ms": (own["HostPool (1 host, 1 shard)"], "ms"),
        "ingest.self_ms": (own["ToneMapIngestor.submit"], "ms"),
        "ingest.admit_ms": (ingest["ingest.admit_ms"], "ms"),
        "ingest.queue_wait_ms": (ingest["ingest.queue_wait_ms"], "ms"),
        "ingest.batch_fill": (ingest["ingest.batch_fill"], "ratio"),
        **counters,
        "bench.generator_lag_p99_ms": (percentile(live.lag_ms, 0.99), "ms"),
        "trace.overhead_pct": (overhead, "%"),
        "trace.spans": (len(tracer.spans) + tracer.dropped, "count"),
    }
    failed = live.failed + ledger.mismatched
    mismatched = live.mismatched + ledger.mismatched
    notes = ledger.table() + [
        f"plan: {plan.decision()}",
        f"cost model: {candidate} estimate {dict(plan.cost_estimates)[candidate]:.4g} "
        f"over measured {measured * 1e3:.3f} ms",
        f"live traffic: {live.attempted} frames; latency samples in "
        f"untraced/traced {SLICE_S:g}-s slices: {len(sliced[False])}/"
        f"{len(sliced[True])}, median {median(sliced[False]):.3f}/"
        f"{median(sliced[True]):.3f} ms; "
        f"spans recorded: {len(tracer.spans)} (+{tracer.dropped} dropped)",
    ]
    correct = verified and mismatched == 0 and not leaks
    attempted = live.attempted + ledger.checked
    return metrics, notes, leaks, correct, attempted, failed
