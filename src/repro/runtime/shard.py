"""Process-pool sharding backend over a persistent shared-memory arena.

The thread-pooled :class:`~repro.runtime.service.ToneMapService` overlaps
the NumPy stages (which release the GIL), but the fixed-point model still
carries Python-level glue — the tap loop, quantization bookkeeping — that
serializes on the GIL.  :class:`ShardPool` escapes it: a batch's
``(N, H, W[, 3])`` pixel stack lives in a POSIX shared-memory segment,
the N images are partitioned into contiguous slabs, and each slab is
tone-mapped by a separate **worker process** that writes its results
straight back into a shared output slab.  Only segment names and slab
bounds cross the process boundary — never pixel data.

Unlike the PR 2 incarnation, segments are *persistent*: the pool owns a
:class:`~repro.runtime.arena.ShmArena` whose pooled input stacks and
output-slab ring are reused across batches, so steady-state serving does
zero SHM allocations and zero parent-side staging copies.  The data
plane has three entry points, fastest first:

* :meth:`run_leased` — fully zero-copy: the producer already wrote the
  frames into an arena input stack (leased via ``pool.arena`` or
  :meth:`lease_input`); results come back as a reference-counted
  :class:`~repro.runtime.arena.ArenaLease` view.  The streaming ingestor
  uses this path.
* :meth:`run_stack` — one staging copy in (the caller holds an ordinary
  array); zero-copy out with ``zero_copy=True``, else one materialize
  copy for safety.
* :meth:`run_batch` — the :class:`HDRImage` convenience; frames are
  written into the arena one by one (no intermediate ``np.stack``) and
  outputs are adopted views into one materialized buffer.

**Crash recovery.**  A worker dying (OOM kill, segfault) breaks the
whole ``ProcessPoolExecutor``; :meth:`ShardPool.run_leased` absorbs
that: it releases the batch's output slab, respawns the worker set
(once per crash, however many batches observed it — generation
counted), and replays the batch on the fresh workers, since its input
frames still sit untouched in the arena.  Only a persistently crashing
workload (the replay dies too) surfaces
:class:`~repro.errors.ShardCrashError`.  ``tests/test_fault_injection.py``
SIGKILLs real workers to hold the no-leak / no-hang / autoscaler-alive
contract.

Workers attach to a segment **once** and cache the mapping by name —
valid for the life of the arena, because pooled segments are only
unlinked at :meth:`close`.  Attachment never touches the resource
tracker: under the default ``fork`` start method the tracker process is
*shared* with the parent, so the historical attach-then-unregister dance
removed the parent's own registration — unlink then logged a KeyError
storm in the tracker and, had the parent died first, the segment would
have leaked in ``/dev/shm``.  ``tests/test_arena.py`` scans ``/dev/shm``
to keep the no-leak property honest.

Each worker holds its own :class:`~repro.runtime.batch.BatchToneMapper`,
so per-kernel Gaussian coefficients and (for fixed-point configs) the
quantized coefficient ROM are built once per process at pool start-up.
Because ``blur_fn`` closures do not pickle, the fixed-point path is
requested by shipping the frozen, picklable
:class:`~repro.tonemap.fixed_blur.FixedBlurConfig` instead.

**Autoscaling.**  With ``autoscale=True`` the pool starts ``max_shards``
worker processes eagerly (they are cheap, warm, and never forked after
caller threads exist) but fans batches out across only
:attr:`active_shards` of them.  :class:`ShardAutoscaler` widens the
active set when queue depth or p95 latency shows sustained pressure and
narrows it after sustained idleness — both with hysteresis
(:class:`AutoscalePolicy`), so a single burst does not flap the width.
Parked workers cost memory, not CPU; narrowing keeps cache-hot workers
busy instead of spraying small slabs across cold ones.  The service
feeds observations after every batch and surfaces the active width via
``ServiceStats``.

Outputs remain bit-identical to the in-process
:class:`~repro.runtime.batch.BatchToneMapper` path: workers run the same
stack code (:meth:`BatchToneMapper.run_stack`) and the float64→float32
store happens once either way.  Throughput and the zero-copy counters
are tracked by ``benchmarks/bench_runtime.py`` (see
``docs/benchmarks.md``).
"""

from __future__ import annotations

import inspect
import multiprocessing as mp
import os
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ShardCrashError, ShardTimeoutError, ToneMapError
from repro.image.hdr import HDRImage
from repro.runtime.arena import ArenaLease, ArenaStats, ShmArena
from repro.runtime.batch import BatchToneMapper
from repro.runtime.clock import MONOTONIC, Clock
from repro.runtime.faults import FaultInjector, resolve_injector
from repro.runtime.net import NetStats
from repro.tonemap.fixed_blur import FixedBlurConfig, make_fixed_blur_fn
from repro.tonemap.pipeline import ToneMapParams

#: Worker-process global: the per-process mapper with warm caches.
_WORKER_MAPPER: Optional[BatchToneMapper] = None

#: Worker-process global: cached attachments to pooled arena segments,
#: keyed by POSIX name.  Pooled segments live until the arena closes, so
#: a cached mapping never goes stale; transient segments bypass this.
_WORKER_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}

#: Python 3.13+ can attach without registering with the resource tracker.
_SHM_HAS_TRACK = "track" in inspect.signature(
    shared_memory.SharedMemory.__init__
).parameters


def _init_worker(
    params: ToneMapParams,
    fixed_config: Optional[FixedBlurConfig],
    threads: Optional[int] = None,
    plan=None,
) -> None:
    """Build this worker's mapper once; subsequent slabs reuse its caches.

    ``plan`` is a pickled :class:`~repro.planner.plan.ExecutionPlan` (or
    ``None``): shipping the parent's plan means every worker replays the
    parent's dispatch decisions exactly, whatever env vars the worker
    process happens to see.
    """
    global _WORKER_MAPPER
    if fixed_config is not None:
        params = replace(params, blur_fn=make_fixed_blur_fn(fixed_config))
    _WORKER_MAPPER = BatchToneMapper(params, threads=threads, plan=plan)
    if fixed_config is not None:
        # Quantize the coefficient ROM now so the first slab pays nothing.
        fixed_config.quantized_coefficients(_WORKER_MAPPER.kernel)


def _worker_ready() -> bool:
    """No-op task used to force worker start-up at pool construction."""
    return _WORKER_MAPPER is not None


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without touching the resource tracker.

    The parent created the segment and owns its lifetime; it is already
    registered with the tracker there.  Under ``fork`` the tracker
    process is shared, so letting the attach register (and then
    unregistering, as the old code did) would delete the *parent's*
    registration: unlink later double-unregisters (KeyError noise in the
    tracker) and a parent crash before unlink would leak the segment.
    Python 3.13 exposes ``track=False`` for exactly this; earlier
    versions need the register call suppressed for the duration.
    """
    if _SHM_HAS_TRACK:
        return shared_memory.SharedMemory(name=name, track=False)
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _attach(name: str, cacheable: bool) -> shared_memory.SharedMemory:
    """Attach to a segment, caching pooled attachments for the pool's life."""
    if cacheable:
        shm = _WORKER_SEGMENTS.get(name)
        if shm is None:
            shm = _attach_untracked(name)
            _WORKER_SEGMENTS[name] = shm
        return shm
    return _attach_untracked(name)


def _run_slab(
    in_name: str,
    out_name: str,
    shape: tuple,
    lo: int,
    hi: int,
    in_cacheable: bool,
    out_cacheable: bool,
    fault: Optional[Tuple[str, float]] = None,
) -> tuple[int, int]:
    """Tone-map images ``lo:hi`` of the shared input stack in this worker.

    Robust against mid-flight errors: a transient attachment is closed on
    every exit path, and a failure before the output attach never leaks
    the input attachment.  Cached attachments are owned by the process
    and intentionally survive.

    ``fault`` is an injected failure directive from the pool's
    :class:`~repro.runtime.faults.FaultInjector` (``("kill", _)`` or
    ``("hang", seconds)``), applied before any slab work so the failure
    is clean: a killed worker never half-writes its slab, a hung one
    holds the batch exactly like stuck I/O would.
    """
    if fault is not None:
        kind, value = fault
        if kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "hang":
            time.sleep(value)
    in_shm = _attach(in_name, in_cacheable)
    try:
        out_shm = _attach(out_name, out_cacheable)
        try:
            stack = np.ndarray(shape, dtype=np.float32, buffer=in_shm.buf)
            out = np.ndarray(shape, dtype=np.float32, buffer=out_shm.buf)
            _WORKER_MAPPER.run_stack(stack[lo:hi], out=out[lo:hi])
        finally:
            if not out_cacheable:
                out_shm.close()
    finally:
        if not in_cacheable:
            in_shm.close()
    return lo, hi


def _slab_bounds(count: int, shards: int) -> list[tuple[int, int]]:
    """Split ``count`` images into at most ``shards`` contiguous slabs."""
    shards = min(shards, count)
    base, extra = divmod(count, shards)
    bounds = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# ----------------------------------------------------------------------
# Hung-shard watchdog
# ----------------------------------------------------------------------
class _WatchToken:
    """One watched batch attempt: its kill deadline and whether it fired."""

    __slots__ = ("deadline", "expired")

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.expired = False


class _Watchdog:
    """Kills the worker set when a watched batch overruns its budget.

    A crashed worker announces itself (``BrokenProcessPool``); a *hung*
    one is silent — ``future.result()`` would block forever.  The
    watchdog turns hangs into crashes: :meth:`watch` registers a batch
    attempt's deadline, and a single lazy daemon thread SIGKILLs the
    current worker processes once any watched deadline passes, which
    breaks the pool and lets ``run_leased``'s existing crash machinery
    (quiesce → respawn → replay) take over.  The token's ``expired``
    flag is how ``run_leased`` distinguishes a watchdog kill (timeout →
    hedged replay budget) from an organic crash (crash retry budget).

    Time comes from the injected clock, but wake-ups poll on a short
    real-time interval — so tests driving a
    :class:`~repro.runtime.clock.FakeClock` see the kill within
    ``poll_s`` of advancing it, without the watchdog needing to know
    the clock is fake.
    """

    def __init__(self, kill_fn, clock: Clock = MONOTONIC,
                 poll_s: float = 0.005):
        self._kill_fn = kill_fn
        self._clock = clock
        self._poll_s = poll_s
        self._cond = threading.Condition(threading.Lock())
        self._tokens: Set[_WatchToken] = set()
        self._kills = 0
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def watch(self, deadline: float) -> _WatchToken:
        """Register a batch attempt; kill the workers at ``deadline``."""
        token = _WatchToken(deadline)
        with self._cond:
            if self._closed:
                raise ToneMapError("watchdog is closed")
            self._tokens.add(token)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="shard-watchdog", daemon=True
                )
                self._thread.start()
            self._cond.notify()
        return token

    def cancel(self, token: _WatchToken) -> None:
        """Stop watching ``token`` (the attempt finished on its own)."""
        with self._cond:
            self._tokens.discard(token)

    @property
    def kills(self) -> int:
        """Watchdog firings — each one SIGKILLed the worker set once."""
        with self._cond:
            return self._kills

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._tokens.clear()
            self._cond.notify()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)

    def _loop(self) -> None:
        while True:
            with self._cond:
                if self._closed:
                    return
                now = self._clock.now()
                due = [t for t in self._tokens if t.deadline <= now]
                for token in due:
                    token.expired = True
                    self._tokens.discard(token)
                if due:
                    self._kills += len(due)
                elif self._tokens:
                    self._cond.wait(self._poll_s)
                    continue
                else:
                    self._cond.wait()
                    continue
            # Fire outside the lock: the kill walks executor state and
            # must not hold up watch()/cancel() on the batch threads.
            self._kill_fn()


# ----------------------------------------------------------------------
# Autoscaling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AutoscalePolicy:
    """When the autoscaler widens or narrows the active shard set.

    Pressure (grow signal) is queue depth exceeding the active width —
    batches are waiting that an extra shard could absorb — or, when
    ``target_p95_ms`` is set, the p95 batch latency exceeding it.
    Idleness (shrink signal) is queue depth below the active width with
    no pressure.  Hysteresis: a grow needs ``grow_patience`` consecutive
    pressure observations, a shrink ``shrink_patience`` consecutive idle
    ones, and any contradicting observation resets both counters — so a
    lone burst or a lone quiet beat never flaps the width.
    """

    min_shards: int = 1
    max_shards: int = 2
    target_p95_ms: Optional[float] = None
    grow_patience: int = 2
    shrink_patience: int = 6

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ToneMapError(
                f"min_shards must be >= 1, got {self.min_shards}"
            )
        if self.max_shards < self.min_shards:
            raise ToneMapError(
                f"max_shards ({self.max_shards}) must be >= min_shards "
                f"({self.min_shards})"
            )
        if self.grow_patience < 1 or self.shrink_patience < 1:
            raise ToneMapError("autoscale patience values must be >= 1")


class ShardAutoscaler:
    """Pure hysteresis logic: observations in, target width out.

    Deterministic and free of clocks or threads so tests can drive it
    observation by observation; :class:`ShardPool` owns the single
    instance and applies its decisions.
    """

    def __init__(self, policy: AutoscalePolicy):
        self.policy = policy
        self._hot = 0
        self._cold = 0

    def observe(
        self, active: int, queue_depth: int, p95_ms: Optional[float] = None
    ) -> int:
        """Feed one observation; returns the new target active width."""
        policy = self.policy
        pressure = queue_depth > active or (
            policy.target_p95_ms is not None
            and p95_ms is not None
            and p95_ms > policy.target_p95_ms
        )
        idle = not pressure and queue_depth < active
        if pressure:
            self._hot += 1
            self._cold = 0
        elif idle:
            self._cold += 1
            self._hot = 0
        else:
            self._hot = 0
            self._cold = 0
        if self._hot >= policy.grow_patience and active < policy.max_shards:
            self._hot = 0
            return active + 1
        if self._cold >= policy.shrink_patience and active > policy.min_shards:
            self._cold = 0
            return active - 1
        return min(max(active, policy.min_shards), policy.max_shards)


@dataclass(frozen=True)
class DataPlaneStats:
    """Per-pool data-plane counters (arena counters plus batch count).

    ``copies_per_frame`` is the headline number: parent-side staging
    bytes (copy-in plus materialize) per frame served, as a fraction of
    the frame size.  The PR 2 cycle measured 3.0 (stack, copy-in, copy
    out — and a fourth inside ``HDRImage``); the zero-copy path measures
    0.0.

    The multi-host tier shares this dataclass: a
    :class:`~repro.runtime.hostpool.HostPool` fills ``net`` with its
    wire-endpoint counters, whose ``bytes_staged`` (userspace staging
    around the socket hop — 0 on the scatter-gather path) joins the
    same honesty sum, and ``worker_respawns`` counts *host* respawns.
    A single-host pool leaves ``net`` all zeros.
    """

    batches: int = 0
    frames: int = 0
    bytes_served: int = 0
    worker_respawns: int = 0
    arena: ArenaStats = ArenaStats()
    net: NetStats = NetStats()

    @property
    def copies_per_frame(self) -> float:
        """Staging bytes per frame-byte served (3.0 legacy, 0.0 zero-copy)."""
        if self.bytes_served <= 0:
            return 0.0
        return self.bytes_staged / self.bytes_served

    @property
    def bytes_staged(self) -> int:
        """Total parent-side staging traffic (copy-in + materialize +
        any userspace staging around the wire)."""
        return (
            self.arena.bytes_copied_in
            + self.arena.bytes_materialized
            + self.net.bytes_staged
        )


class ShardPool:
    """Tone-maps batches by sharding them across worker processes.

    Parameters
    ----------
    params:
        Pipeline parameters.  ``params.blur_fn`` must be ``None`` — a
        closure cannot cross the process boundary; request the fixed-point
        path with ``fixed_config`` instead.
    shards:
        Initial (and, without autoscaling, fixed) active worker count.
    fixed_config:
        When given, every worker blurs with the bit-accurate fixed-point
        model built from this config (batched across its whole slab).
    start_method:
        Multiprocessing start method; defaults to ``fork`` on Linux (cheap
        start-up, inherited imports) and ``spawn`` elsewhere (forking
        after BLAS/framework threads start is unsafe on macOS).  Applies
        to initial construction only — crash *respawns* always use
        ``spawn``, because by then caller threads are live and forking a
        multi-threaded process can deadlock the child (see
        :meth:`_respawn`).
    autoscale:
        Enable the queue-depth / latency autoscaler.  ``max_shards``
        workers are started eagerly (all forked before any caller thread
        exists); the *active* set grows and shrinks between ``shards``
        (as minimum) and ``max_shards`` under
        :class:`AutoscalePolicy` hysteresis.
    max_shards:
        Ceiling for the active set; defaults to the host's CPU count (at
        least ``shards``).  Ignored unless ``autoscale``.
    policy:
        Autoscale policy override; defaults to
        ``AutoscalePolicy(min_shards=shards, max_shards=max_shards)``.
    arena:
        Share an existing :class:`~repro.runtime.arena.ShmArena` instead
        of owning one (the owner closes it).
    arena_slots:
        Ring/pool depth per size class for an owned arena.
    fused_threads:
        Fused worker threads *per worker process*; defaults to **1** —
        the pool's parallelism model is one core per shard, so letting
        each of N workers spawn ``os.cpu_count()`` compute threads (the
        in-process default) would oversubscribe the host N-fold.  Raise
        it only when ``shards * fused_threads`` fits the core budget.
    plan:
        An :class:`~repro.planner.plan.ExecutionPlan`; it is pickled to
        every worker so each one replays the parent's dispatch decisions
        (engine, band budget, band method) exactly.  An explicit
        ``fused_threads`` still wins over the plan.
        The per-process thread default stays **1** even under a plan —
        the plan's ``threads`` describes the in-process engine, and N
        workers × plan-threads would oversubscribe the host.
    default_timeout_ms:
        Execution budget applied to every :meth:`run_leased` call that
        does not pass its own ``timeout``.  ``None`` (the default)
        means no budget: a hung worker blocks forever, exactly the
        pre-watchdog behaviour.
    timeout_retries:
        Hedged replays allowed after a watchdog kill before
        :class:`~repro.errors.ShardTimeoutError` surfaces.  Independent
        of ``run_leased``'s crash ``retries`` — a hang and a crash are
        different budgets.
    hang_factor:
        When set, batches *without* an explicit budget get a derived
        one: ``hang_factor × p95`` of recent batch durations (needs at
        least five samples; floored at ``hang_min_ms``).  Off by
        default — mixed batch sizes make a global p95 a poor hang
        signal unless the operator opts in.
    hang_min_ms:
        Floor for the p95-derived threshold, so a burst of tiny batches
        cannot arm a hair-trigger watchdog.
    faults:
        Chaos injection: a :class:`~repro.runtime.faults.FaultPlan`, a
        spec string, or a shared
        :class:`~repro.runtime.faults.FaultInjector`.  ``None`` consults
        the ``REPRO_FAULT_PLAN`` environment variable; absent that, no
        injection (zero overhead on the hot path).
    clock:
        Injectable monotonic time source (see
        :mod:`repro.runtime.clock`); tests pass a ``FakeClock``.

    Use as a context manager or call :meth:`close` when done.
    """

    def __init__(
        self,
        params: Optional[ToneMapParams] = None,
        shards: int = 2,
        fixed_config: Optional[FixedBlurConfig] = None,
        start_method: Optional[str] = None,
        autoscale: bool = False,
        max_shards: Optional[int] = None,
        policy: Optional[AutoscalePolicy] = None,
        arena: Optional[ShmArena] = None,
        arena_slots: int = 4,
        fused_threads: Optional[int] = None,
        plan=None,
        default_timeout_ms: Optional[float] = None,
        timeout_retries: int = 1,
        hang_factor: Optional[float] = None,
        hang_min_ms: float = 50.0,
        faults=None,
        clock: Clock = MONOTONIC,
    ):
        params = params if params is not None else ToneMapParams()
        if shards < 1:
            raise ToneMapError(f"shards must be >= 1, got {shards}")
        if params.blur_fn is not None:
            raise ToneMapError(
                "blur_fn closures cannot cross the process boundary; pass "
                "fixed_config=FixedBlurConfig(...) and let workers rebuild it"
            )
        if fused_threads is None:
            # One fused thread per worker process: the pool already
            # claims one core per shard, so the in-process default
            # (cpu_count) would oversubscribe shards-fold.
            fused_threads = 1
        if start_method is None:
            # fork only on Linux: macOS lists it but CPython switched its
            # default to spawn because forking after BLAS/framework
            # threads start is unsafe there.
            start_method = (
                "fork"
                if sys.platform == "linux"
                and "fork" in mp.get_all_start_methods()
                else "spawn"
            )
        self.shards = shards
        self.params = params
        self.fixed_config = fixed_config
        self.fused_threads = fused_threads
        self.plan = plan
        if autoscale:
            if max_shards is None:
                max_shards = max(shards, os.cpu_count() or shards)
            if max_shards < shards:
                raise ToneMapError(
                    f"max_shards ({max_shards}) must be >= shards ({shards})"
                )
            self._policy = policy or AutoscalePolicy(
                min_shards=shards, max_shards=max_shards
            )
            if not (
                self._policy.min_shards
                <= shards
                <= self._policy.max_shards
            ):
                raise ToneMapError(
                    f"shards ({shards}) must lie within the autoscale "
                    f"bounds [{self._policy.min_shards}, "
                    f"{self._policy.max_shards}] — only that many worker "
                    "processes exist"
                )
            self._autoscaler: Optional[ShardAutoscaler] = ShardAutoscaler(
                self._policy
            )
            workers = self._policy.max_shards
        else:
            self._policy = None
            self._autoscaler = None
            workers = shards
        self._workers = workers
        self._active = shards
        self._scale_ups = 0
        self._scale_downs = 0
        self._scale_lock = threading.Lock()
        self._owns_arena = arena is None
        self.arena = arena if arena is not None else ShmArena(slots=arena_slots)
        self._batches = 0
        self._frames = 0
        self._bytes_served = 0
        self._count_lock = threading.Lock()
        self._mp_context = mp.get_context(start_method)
        # Crash respawns must not plain-fork a by-then-threaded parent;
        # see _respawn.  A non-fork pool respawns with its own context.
        if start_method != "fork":
            self._respawn_context = self._mp_context
        elif "forkserver" in mp.get_all_start_methods():
            self._respawn_context = mp.get_context("forkserver")
        else:  # pragma: no cover - fork implies posix, so forkserver exists
            self._respawn_context = mp.get_context("spawn")
        self._respawn_lock = threading.Lock()
        self._generation = 0
        self._respawns = 0
        self._draining = False
        if default_timeout_ms is not None and default_timeout_ms <= 0:
            raise ToneMapError(
                f"default_timeout_ms must be > 0, got {default_timeout_ms}"
            )
        if timeout_retries < 0:
            raise ToneMapError(
                f"timeout_retries must be >= 0, got {timeout_retries}"
            )
        if hang_factor is not None and hang_factor <= 0:
            raise ToneMapError(
                f"hang_factor must be > 0, got {hang_factor}"
            )
        self._clock = clock
        self._default_timeout_s = (
            None if default_timeout_ms is None else default_timeout_ms / 1e3
        )
        self._timeout_retries = timeout_retries
        self._hang_factor = hang_factor
        self._hang_min_s = hang_min_ms / 1e3
        self._durations: deque = deque(maxlen=256)
        self._hedged_replays = 0
        self.faults: Optional[FaultInjector] = resolve_injector(faults)
        self._reap_lock = threading.Lock()
        self._watchdog = _Watchdog(self._kill_workers, clock=clock)
        self._executor = self._spawn_executor()

    def _spawn_executor(
        self, mp_context: Optional[mp.context.BaseContext] = None
    ) -> ProcessPoolExecutor:
        """Start a full worker set and prove every initializer ran.

        One pending task per worker forces the executor to start all
        processes, and resolving the futures proves each initializer
        ran.  At construction no process is ever forked after caller
        threads exist — autoscaling only varies how many of these warm
        workers a batch fans out across.  The warm-up wait is bounded:
        a worker that cannot initialize must fail the pool loudly, not
        wedge it.
        """
        executor = ProcessPoolExecutor(
            max_workers=self._workers,
            mp_context=mp_context if mp_context is not None else self._mp_context,
            initializer=_init_worker,
            initargs=(
                self.params,
                self.fixed_config,
                self.fused_threads,
                self.plan,
            ),
        )
        try:
            for future in [
                executor.submit(_worker_ready) for _ in range(self._workers)
            ]:
                if not future.result(timeout=120.0):  # pragma: no cover
                    raise ToneMapError("shard worker failed to initialize")
        except Exception:
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        return executor

    def _respawn(self, generation: int) -> None:
        """Replace a broken executor with a fresh warm worker set.

        Idempotent per executor generation: concurrent batches that all
        observed the same crash race here, the first one rebuilds, the
        rest see the bumped generation and return — so one crash costs
        one respawn, not one per in-flight batch.

        Respawned workers never use plain ``fork``, even when the pool
        was built with it: a respawn necessarily creates processes
        while service threads are live, and a child forked from a
        multi-threaded parent can inherit an internal queue lock in the
        held state and deadlock before it ever picks up work (observed
        under chaos load as a pool that never comes back).  Respawns
        use ``forkserver`` where available — its server process is
        created by fork+exec (exec wipes inherited thread state) and
        workers then fork from that single-threaded server; unlike
        ``spawn`` it also never re-imports ``__main__``, so caller
        scripts without an import guard survive a respawn.  ``fork``
        remains the cheap default only for initial construction, where
        no caller threads exist yet.
        """
        with self._respawn_lock:
            if self._generation != generation:
                return  # another thread already replaced this executor
            broken = self._executor
            self._executor = self._spawn_executor(
                mp_context=self._respawn_context
            )
            self._generation += 1
            self._respawns += 1
        self._shutdown_broken(broken)

    @staticmethod
    def _lost_worker(executor: ProcessPoolExecutor) -> bool:
        """Whether any worker process of *executor* has exited."""
        try:
            processes = list(executor._processes.values())
        except (AttributeError, RuntimeError):  # shut down, or mutating
            return False
        return any(process.exitcode is not None for process in processes)

    def _shutdown_broken(self, executor: ProcessPoolExecutor) -> None:
        """Shut a broken executor down exactly once, across racing batches.

        Concurrent batches that all hit the same ``BrokenProcessPool``
        each want to join the corpse before releasing their output
        slabs — but ``ProcessPoolExecutor.shutdown`` is not safe to call
        concurrently: both threads see the same live queue FDs and both
        ``os.close`` them, and the second close lands *after* the OS has
        recycled those fd numbers to the replacement executor's fresh
        pipes.  That stray close poisons the new executor (its manager
        thread dies on fd aliasing — ``KeyError: FD already
        registered`` — and every pending future hangs forever).  One
        thread wins the right to call ``shutdown``; the losers wait on
        its completion event instead of double-closing.
        """
        with self._reap_lock:
            event = getattr(executor, "_repro_reaped", None)
            owner = event is None
            if owner:
                event = threading.Event()
                executor._repro_reaped = event  # type: ignore[attr-defined]
        if owner:
            try:
                executor.shutdown(wait=True)
            finally:
                event.set()
        else:
            event.wait()

    @property
    def worker_respawns(self) -> int:
        """Worker-set rebuilds performed after crashes (0 in health)."""
        return self._respawns

    def worker_pids(self) -> List[int]:
        """PIDs of the current worker processes.

        Exposed for operational tooling and the fault-injection tests
        (which SIGKILL one to prove the pool recovers); the list is a
        snapshot — workers may be respawned at any time.

        Safe against the races the watchdog's ``_kill_workers`` already
        defends against: the executor's management thread mutates
        ``_processes`` while workers start and die, ``_executor`` itself
        is swapped mid-:meth:`_respawn`, and a shut-down executor sets
        ``_processes`` to ``None``.  The read snapshots one executor
        reference and copies its process dict under try/except; a
        torn-down executor yields ``[]``, never an exception.
        """
        executor = self._executor  # one reference: respawn swaps it
        try:
            processes = executor._processes
            if not processes:
                return []
            return [
                process.pid
                for process in list(processes.values())
                if process.pid is not None
            ]
        except (AttributeError, TypeError, RuntimeError):
            # _processes gone (shutdown), None, or mutated mid-copy.
            return []

    # ------------------------------------------------------------------
    # Watchdog / hedged replay
    # ------------------------------------------------------------------
    def _kill_workers(self) -> None:
        """SIGKILL the current worker set (watchdog fire path).

        Racy by design: the executor may be mid-respawn or shutting
        down, and a pid may have already exited.  Every failure mode is
        benign — a worker we miss either belongs to a fresh generation
        (innocent) or is already dead — so swallow them all rather than
        let the watchdog thread die.
        """
        try:
            pids = self.worker_pids()
        except Exception:
            return
        for pid in pids:
            if pid is None:
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass

    def _hang_threshold_s(self) -> Optional[float]:
        """The p95-derived hang budget, or ``None`` while unarmed."""
        if self._hang_factor is None:
            return None
        with self._count_lock:
            samples = sorted(self._durations)
        if len(samples) < 5:
            return None
        p95 = samples[min(len(samples) - 1, int(0.95 * len(samples)))]
        return max(self._hang_min_s, p95 * self._hang_factor)

    @property
    def watchdog_kills(self) -> int:
        """Times the watchdog SIGKILLed the workers of an over-budget batch."""
        return self._watchdog.kills

    @property
    def hedged_replays(self) -> int:
        """Batches replayed on fresh workers after a watchdog kill."""
        with self._count_lock:
            return self._hedged_replays

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------
    @property
    def active_shards(self) -> int:
        """Workers a batch currently fans out across."""
        return self._active

    @property
    def autoscaling(self) -> bool:
        """Whether :meth:`observe` feeds a live autoscaler."""
        return self._autoscaler is not None

    @property
    def scale_ups(self) -> int:
        return self._scale_ups

    @property
    def scale_downs(self) -> int:
        return self._scale_downs

    def observe(
        self, queue_depth: int, p95_ms: Optional[float] = None
    ) -> int:
        """Feed one load observation (queue depth, optional p95 latency).

        The service calls this after every batch; the pool applies the
        autoscaler's decision and returns the (possibly new) active
        width.  A no-op without ``autoscale=True``.
        """
        if self._autoscaler is None:
            return self._active
        with self._scale_lock:
            target = self._autoscaler.observe(
                self._active, queue_depth, p95_ms
            )
            if target > self._active:
                self._scale_ups += 1
            elif target < self._active:
                self._scale_downs += 1
            self._active = target
            return target

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def lease_input(self, shape: tuple, dtype=np.float32) -> ArenaLease:
        """Lease an arena input stack for producers to write frames into."""
        return self.arena.lease_input(shape, dtype)

    def run_leased(
        self,
        in_lease: ArenaLease,
        count: Optional[int] = None,
        retries: int = 1,
        timeout: Optional[float] = None,
    ) -> ArenaLease:
        """Tone-map a stack already resident in the arena (zero-copy).

        ``in_lease`` is an input lease whose array holds ``count`` frames
        (default: all of them; pass fewer for a partially filled stack).
        The caller keeps ownership of ``in_lease`` — release it when the
        slot is no longer needed (the ingestor reuses its stack across
        batches).  Returns an output lease viewing the results; release
        or materialize it.

        **Crash recovery.**  A worker dying mid-batch (OOM kill, crash)
        breaks the whole ``ProcessPoolExecutor``; this method then
        releases the batch's output slab, respawns the worker set once
        (see :meth:`_respawn`), and replays the batch up to ``retries``
        times — the input frames still sit untouched in ``in_lease``,
        so a replay is a pure re-dispatch.  A replay that crashes again
        raises :class:`~repro.errors.ShardCrashError`; either way no
        lease is leaked and the pool stays usable for later batches.

        **Hang recovery.**  ``timeout`` (seconds; defaults to the
        pool's ``default_timeout_ms``) is the execution budget of each
        *attempt*.  An attempt still running at its budget — a *hung*
        worker never breaks the pool by itself — is killed by the
        watchdog, which converts the hang into the crash path above;
        the batch is then *hedge-replayed* on the respawned workers
        (with a fresh budget — a kill exactly at the deadline must
        still leave the hedge worth taking) up to ``timeout_retries``
        times before :class:`~repro.errors.ShardTimeoutError`
        surfaces.  Without an explicit budget, an opt-in
        ``hang_factor`` arms the watchdog at p95 × factor of recent
        batch durations instead.
        """
        if in_lease.array is None:
            raise ToneMapError("cannot run a released arena lease")
        if self._draining:
            raise ToneMapError("shard pool is draining")
        shape = in_lease.array.shape
        if count is None:
            count = shape[0]
        if not 1 <= count <= shape[0]:
            raise ToneMapError(
                f"count must be in [1, {shape[0]}], got {count}"
            )
        run_shape = (count,) + tuple(shape[1:])
        if timeout is None:
            timeout = self._default_timeout_s
        spare = retries
        hedge_spare = self._timeout_retries
        start = self._clock.now()
        while True:
            generation = self._generation
            executor = self._executor
            if self._lost_worker(executor):
                # A worker died between batches and the executor has not
                # noticed yet: a batch could finish on a live sibling
                # and leave the dead one unreplaced.  Respawn first.
                self._respawn(generation)
                continue
            directive = None
            force_transient = False
            if self.faults is not None:
                index, kinds = self.faults.next_attempt()
                if "slow" in kinds:
                    self._clock.sleep(self.faults.plan.jitter_s(index))
                force_transient = "exhaust" in kinds
                directive = self.faults.worker_directive(kinds)
            out_lease = self.arena.lease_output(
                run_shape, np.float32, force_transient=force_transient
            )
            # Arm the watchdog for this attempt: each attempt gets the
            # full budget (explicit timeout, else the p95-derived
            # threshold when enabled) — a kill exactly at the deadline
            # must still leave the hedged replay worth taking.
            hang_s = (
                timeout if timeout is not None else self._hang_threshold_s()
            )
            attempt_deadline = (
                None if hang_s is None else self._clock.now() + hang_s
            )
            token = (
                None
                if attempt_deadline is None
                else self._watchdog.watch(attempt_deadline)
            )
            futures = []
            try:
                # Plain loop, not a comprehension: if a submit raises midway
                # (pool shutting down), the futures already submitted must
                # stay tracked so the except path can quiesce them.
                for slab_index, (lo, hi) in enumerate(
                    _slab_bounds(count, self._active)
                ):
                    futures.append(
                        executor.submit(
                            _run_slab,
                            in_lease.segment_name,
                            out_lease.segment_name,
                            run_shape,
                            lo,
                            hi,
                            in_lease.cacheable,
                            out_lease.cacheable,
                            directive if slab_index == 0 else None,
                        )
                    )
                for future in futures:
                    future.result()
            except BrokenProcessPool as exc:
                # A worker died.  The broken executor rejects all work
                # and its futures are already resolved — but *surviving*
                # worker processes may still be mid-write into the
                # output slab (the manager thread fails futures before
                # it finishes terminating the other workers).  Join the
                # whole broken executor first: releasing the slab while
                # a straggler still writes it would hand a
                # concurrently-mutating segment to the replay or a
                # neighbouring batch — silent cross-batch corruption.
                if token is not None:
                    self._watchdog.cancel(token)
                for future in futures:
                    future.cancel()
                wait(futures)
                self._shutdown_broken(executor)
                out_lease.release()
                stale = self._generation != generation
                self._respawn(generation)
                if token is not None and token.expired:
                    # The watchdog killed this attempt: a timeout, not an
                    # organic crash — spend the hedge budget, not the
                    # crash budget.
                    now = self._clock.now()
                    used = self._timeout_retries - hedge_spare
                    if hedge_spare <= 0:
                        raise ShardTimeoutError(
                            f"{count}-frame batch exceeded its execution "
                            f"budget ({(now - start) * 1e3:.0f} ms elapsed"
                            f", {used} hedged replay(s)) — workers killed "
                            "by the shard watchdog",
                            elapsed_ms=(now - start) * 1e3,
                            retries=used,
                        ) from exc
                    hedge_spare -= 1
                    with self._count_lock:
                        self._hedged_replays += 1
                elif not stale:
                    # Only fresh-generation crashes consume a retry: a
                    # batch that merely raced a concurrent respawn (its
                    # executor was already replaced) replays for free.
                    if spare <= 0:
                        raise ShardCrashError(
                            "shard worker died again while replaying a "
                            f"{count}-frame batch (respawns so far: "
                            f"{self._respawns}) — workload appears to "
                            "crash workers persistently"
                        ) from exc
                    spare -= 1
                continue
            except BaseException:
                # Quiesce before releasing: the surviving slab workers are
                # still writing into the output segment (and reading the
                # input), and release would recycle it to a concurrent batch
                # — silent cross-batch corruption.  Cancel what hasn't
                # started, wait out what has.
                if token is not None:
                    self._watchdog.cancel(token)
                for future in futures:
                    future.cancel()
                wait(futures)
                out_lease.release()
                raise
            if token is not None:
                self._watchdog.cancel(token)
            break
        # Batches complete concurrently on the service's pool threads;
        # the gate benchmarks divide by these, so no lost increments.
        with self._count_lock:
            self._batches += 1
            self._frames += count
            self._bytes_served += out_lease.nbytes
            self._durations.append(self._clock.now() - start)
        return out_lease

    def run_stack(
        self, stack: np.ndarray, zero_copy: bool = False
    ) -> np.ndarray | ArenaLease:
        """Tone-map an ``(N, H, W[, 3])`` float stack across the shards.

        One staging copy moves the caller's array into a pooled arena
        stack (callers that can write frames into :meth:`lease_input`
        directly skip even that — see :meth:`run_leased`).  By default
        returns a freshly materialized float32 stack, exactly as before;
        with ``zero_copy=True`` returns the output
        :class:`~repro.runtime.arena.ArenaLease` instead — read
        ``lease.array`` and ``release()`` (or ``materialize()``) it.
        """
        stack = np.ascontiguousarray(stack, dtype=np.float32)
        if stack.ndim not in (3, 4):
            raise ToneMapError(
                f"run_stack expects (N, H, W) or (N, H, W, 3), got {stack.shape}"
            )
        if stack.shape[0] == 0:
            raise ToneMapError("batch must contain at least one image")
        in_lease = self.arena.lease_input(stack.shape, np.float32)
        try:
            in_lease.array[:] = stack
            self.arena._count_copy_in(stack.nbytes)
            out_lease = self.run_leased(in_lease)
        finally:
            in_lease.release()
        if zero_copy:
            return out_lease
        return out_lease.materialize()

    def run_batch(self, images: Sequence[HDRImage]) -> tuple[HDRImage, ...]:
        """Tone-map a same-shape batch; drop-in for ``BatchToneMapper.map``.

        Frames are written straight into an arena input stack (no
        ``np.stack`` staging) and the outputs are read-only views into
        one materialized result buffer (no per-image re-copy or
        re-validation — the pipeline's output invariants hold by
        construction).
        """
        if len(images) == 0:
            raise ToneMapError("batch must contain at least one image")
        for image in images:
            if not isinstance(image, HDRImage):
                raise ToneMapError(f"expected HDRImage, got {type(image)!r}")
        shape = images[0].pixels.shape
        for image in images:
            if image.pixels.shape != shape:
                raise ToneMapError(
                    f"batch images must share one shape; got {shape} and "
                    f"{image.pixels.shape} (group by shape first)"
                )
        stack_shape = (len(images),) + shape
        in_lease = self.arena.lease_input(stack_shape, np.float32)
        try:
            for i, image in enumerate(images):
                in_lease.array[i] = image.pixels
            self.arena._count_copy_in(
                int(np.prod(stack_shape)) * 4
            )
            out = self.run_leased(in_lease).materialize()
        finally:
            in_lease.release()
        return tuple(
            HDRImage.adopt(out[i], name=f"{images[i].name}:tonemapped")
            for i in range(len(images))
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def data_plane_stats(self) -> DataPlaneStats:
        """Counters proving (or disproving) the zero-copy claims."""
        with self._count_lock:
            return DataPlaneStats(
                batches=self._batches,
                frames=self._frames,
                bytes_served=self._bytes_served,
                worker_respawns=self._respawns,
                arena=self.arena.stats,
            )

    def drain(self) -> None:
        """Graceful close: refuse new batches, then shut down.

        :meth:`close` already waits for running slabs — the executor
        shutdown blocks until in-flight batches finish — so the only
        thing drain adds is the admission cut: a ``run_leased`` /
        ``run_batch`` that arrives after this call fails fast with
        :class:`~repro.errors.ToneMapError` instead of racing the
        teardown.
        """
        self._draining = True
        self.close()

    def close(self) -> None:
        """Shut the workers down (waiting for running slabs), then the arena.

        The watchdog outlives the executor shutdown on purpose: if a
        hung batch is still in flight, ``shutdown(wait=True)`` only
        returns once the watchdog frees it.  Shutdown goes through the
        exactly-once guard — a crash-handling batch may be reaping this
        same executor concurrently (see :meth:`_shutdown_broken`).
        """
        self._shutdown_broken(self._executor)
        self._watchdog.close()
        if self._owns_arena:
            self.arena.close()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
