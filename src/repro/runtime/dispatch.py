"""The dispatch core shared by the two pool transports.

:class:`DispatchPool` is a pool's policy, written once: the front door,
the replay and hedge budgets, the counters and drain.  Its subclasses
are transports that each implement one attempt:
:class:`~repro.runtime.shard.ShardPool` fans the batch out as slabs to
local worker processes, :class:`~repro.runtime.hostpool.HostPool` sends
it over TCP to one serving host.  An attempt returns an output lease or
raises :class:`AttemptFailed` saying it *crashed* (lost a worker or
host) or *timed out* (overran its execution budget).  The input frames
still sit in the caller's arena lease, so the core replays until the
batch completes or the matching budget is spent: crashes spend
``run_leased(retries=...)`` and then raise
:class:`~repro.errors.ShardCrashError`; timeouts spend the pool's
``timeout_retries`` and then raise
:class:`~repro.errors.ShardTimeoutError` (``.elapsed_ms``,
``.retries``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ShardCrashError, ShardTimeoutError, ToneMapError
from repro.image.hdr import HDRImage
from repro.runtime.arena import ArenaLease, ArenaStats, ShmArena
from repro.runtime.batch import batch_shape
from repro.runtime.clock import MONOTONIC, Clock
from repro.runtime.faults import FaultInjector, resolve_injector
from repro.runtime.net import NetCounters, NetStats


@dataclass(frozen=True)
class DataPlaneStats:
    """Per-pool data-plane counters (arena counters plus batch count).

    ``copies_per_frame`` is the headline number: parent-side staging
    bytes (copy-in plus materialize) per frame served, as a fraction of
    the frame size.  The PR 2 cycle measured 3.0 (stack, copy-in, copy
    out — and a fourth inside ``HDRImage``); the zero-copy path measures
    0.0.

    ``net`` holds the wire-endpoint counters of a
    :class:`~repro.runtime.hostpool.HostPool`, whose ``bytes_staged``
    (userspace staging around the socket hop — 0 on the scatter-gather
    path) joins the same honesty sum; a
    :class:`~repro.runtime.shard.ShardPool` leaves it all zeros.
    ``worker_respawns`` counts worker-set rebuilds for a shard pool and
    host respawns for a host pool.
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


class AttemptFailed(Exception):
    """One transport attempt ended without an output lease.

    Raised ``from`` the transport's own error.  ``reason`` completes
    "N-frame batch ...".  ``timed_out`` spends the hedge budget instead
    of the crash budget; ``free`` replays a crash without spending
    either (the attempt only raced a respawn another batch had made).
    ``peer`` comes back to the next attempt as ``avoid``.
    """

    def __init__(
        self,
        reason: str,
        timed_out: bool = False,
        free: bool = False,
        peer: object = None,
    ):
        super().__init__(reason)
        self.timed_out = timed_out
        self.free = free
        self.peer = peer


class DispatchPool:
    """The transport-independent half of a shard or host pool.

    Owns the client-side arena, the front door, the attempt loop, the
    data-plane counters and drain; subclasses implement
    :meth:`_attempt` and :meth:`_close_transport`.

    Parameters
    ----------
    arena / arena_slots:
        Share an existing arena (its owner closes it), or size the
        owned one.
    default_timeout_ms:
        Budget of every attempt whose ``run_leased`` call passes no
        ``timeout``; ``None`` means no budget.
    timeout_retries:
        Hedged replays after timed-out attempts before
        :class:`~repro.errors.ShardTimeoutError` surfaces.
    faults:
        Chaos plan, spec string or shared
        :class:`~repro.runtime.faults.FaultInjector`; ``None`` consults
        ``REPRO_FAULT_PLAN``.
    clock:
        Injectable monotonic time source.
    """

    def __init__(
        self,
        arena: Optional[ShmArena] = None,
        arena_slots: int = 4,
        default_timeout_ms: Optional[float] = None,
        timeout_retries: int = 1,
        faults=None,
        clock: Clock = MONOTONIC,
    ):
        if default_timeout_ms is not None and default_timeout_ms <= 0:
            raise ToneMapError(
                f"default_timeout_ms must be > 0, got {default_timeout_ms}"
            )
        if timeout_retries < 0:
            raise ToneMapError(
                f"timeout_retries must be >= 0, got {timeout_retries}"
            )
        self._default_timeout_s = (
            None if default_timeout_ms is None else default_timeout_ms / 1e3
        )
        self._timeout_retries = timeout_retries
        self.faults: Optional[FaultInjector] = resolve_injector(faults)
        self._clock = clock
        self._owns_arena = arena is None
        self.arena = arena if arena is not None else ShmArena(slots=arena_slots)
        # Wire counters; only a transport with a wire moves them.
        self._net = NetCounters()
        # Admission state: drain waits here for _in_flight to reach zero.
        self._state = threading.Condition()
        self._draining = False
        self._closed = False
        self._in_flight = 0
        # Batches complete concurrently on the service's pool threads;
        # the gate benchmarks divide by these, so no lost increments.
        self._count_lock = threading.Lock()
        self._batches = 0
        self._frames = 0
        self._bytes_served = 0
        self._hedged_replays = 0
        self._respawns = 0
        self._hosts_lost = 0

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------
    def _attempt(
        self,
        in_lease: ArenaLease,
        count: int,
        index: int,
        kinds: frozenset,
        timeout: Optional[float],
        avoid: object,
    ) -> ArenaLease:
        """Run the first ``count`` frames of ``in_lease`` once.

        ``index`` / ``kinds`` are the attempt's fault draw, ``timeout``
        its budget in seconds, ``avoid`` the peer the previous attempt
        failed on.  Returns a fresh output lease or raises
        :class:`AttemptFailed`, leaking no lease either way.
        """
        raise NotImplementedError

    def _close_transport(self) -> None:
        """Stop the workers or hosts (the arena closes after this)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def lease_input(self, shape: tuple, dtype=np.float32) -> ArenaLease:
        """Lease an arena input stack for producers to write frames into."""
        return self.arena.lease_input(shape, dtype)

    def lease_batch(self, images: Sequence[HDRImage]) -> ArenaLease:
        """Write a same-shape :class:`HDRImage` batch into an input lease.

        Frames are copied straight into the arena stack (no
        intermediate ``np.stack``); the copy is counted.  The caller
        owns the returned lease.
        """
        shape = batch_shape(images)
        in_lease = self.arena.lease_input((len(images),) + shape, np.float32)
        try:
            for i, image in enumerate(images):
                in_lease.array[i] = image.pixels
        except BaseException:
            in_lease.release()
            raise
        self.arena._count_copy_in(in_lease.nbytes)
        return in_lease

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

        A crashed attempt replays up to ``retries`` times.  ``timeout``
        (seconds; default ``default_timeout_ms``) is the budget of each
        attempt, and a timed-out attempt hedge-replays with a fresh one
        up to ``timeout_retries`` times.  See the module docstring for
        the errors that surface; no lease leaks and the pool stays
        usable.  A draining or closed pool refuses the batch.
        """
        if in_lease.array is None:
            raise ToneMapError("cannot run a released arena lease")
        depth = in_lease.array.shape[0]
        if count is None:
            count = depth
        if not 1 <= count <= depth:
            raise ToneMapError(f"count must be in [1, {depth}], got {count}")
        if timeout is None:
            timeout = self._default_timeout_s
        with self._state:
            if self._draining or self._closed:
                raise ToneMapError(
                    f"{type(self).__name__} is "
                    f"{'closed' if self._closed else 'draining'}"
                )
            self._in_flight += 1
        try:
            out_lease = self._replay(in_lease, count, retries, timeout)
        finally:
            with self._state:
                self._in_flight -= 1
                self._state.notify_all()
        with self._count_lock:
            self._batches += 1
            self._frames += count
            self._bytes_served += out_lease.nbytes
        return out_lease

    def _replay(
        self,
        in_lease: ArenaLease,
        count: int,
        retries: int,
        timeout: Optional[float],
    ) -> ArenaLease:
        """The attempt loop: one fault draw per attempt, two budgets."""
        spare = retries
        hedge_spare = self._timeout_retries
        start = self._clock.now()
        avoid = None
        while True:
            if self.faults is not None:
                index, kinds = self.faults.next_attempt()
            else:
                index, kinds = 0, frozenset()
            try:
                return self._attempt(
                    in_lease, count, index, kinds, timeout, avoid
                )
            except AttemptFailed as failure:
                avoid = failure.peer
                if failure.timed_out:
                    if hedge_spare <= 0:
                        elapsed_ms = (self._clock.now() - start) * 1e3
                        used = self._timeout_retries
                        raise ShardTimeoutError(
                            f"{count}-frame batch {failure} "
                            f"({elapsed_ms:.0f} ms elapsed, {used} hedged "
                            "replay(s))",
                            elapsed_ms=elapsed_ms,
                            retries=used,
                        ) from failure.__cause__
                    hedge_spare -= 1
                    with self._count_lock:
                        self._hedged_replays += 1
                elif not failure.free:
                    if spare <= 0:
                        raise ShardCrashError(
                            f"{count}-frame batch {failure}, and its "
                            f"{retries} replay(s) are spent"
                        ) from failure.__cause__
                    spare -= 1

    def run_stack(
        self, stack: np.ndarray, zero_copy: bool = False
    ) -> np.ndarray | ArenaLease:
        """Tone-map an ``(N, H, W[, 3])`` float stack.

        One counted staging copy moves the caller's array into a pooled
        arena stack (callers that can write frames into
        :meth:`lease_input` directly skip even that — see
        :meth:`run_leased`).  By default returns a freshly materialized
        float32 stack; with ``zero_copy=True`` returns the output
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

        The outputs are read-only views into one materialized result
        buffer (no per-image re-copy or re-validation — the pipeline's
        output invariants hold by construction).
        """
        in_lease = self.lease_batch(images)
        try:
            out = self.run_leased(in_lease).materialize()
        finally:
            in_lease.release()
        return tuple(
            HDRImage.adopt(out[i], name=f"{image.name}:tonemapped")
            for i, image in enumerate(images)
        )

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def hedged_replays(self) -> int:
        """Batches replayed after a timed-out attempt."""
        with self._count_lock:
            return self._hedged_replays

    @property
    def worker_respawns(self) -> int:
        """Worker sets (shards) or host processes (hosts) restarted."""
        with self._count_lock:
            return self._respawns

    @property
    def hosts_lost(self) -> int:
        """Hosts declared dead; a shard pool has none to lose."""
        with self._count_lock:
            return self._hosts_lost

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
                net=self._net.stats,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Graceful shutdown: stop admitting, finish in-flight, close.

        New :meth:`run_leased` calls are refused immediately with
        :class:`~repro.errors.ToneMapError`; batches already admitted
        run to completion (including their replay/hedge budgets)
        before :meth:`close`.  Idempotent.
        """
        with self._state:
            if self._closed:
                return
            self._draining = True
            while self._in_flight > 0 and not self._closed:
                self._state.wait(timeout=0.5)
        self.close()

    def close(self) -> None:
        """Stop the transport, then close an owned arena."""
        with self._state:
            self._closed = True
            self._state.notify_all()
        self._close_transport()
        if self._owns_arena:
            self.arena.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
