"""Stacks, traffic loops and output checks shared by both kinds of run.

A *stack* is what a user builds for a workload: a plan from
``repro.planner.plan_for``, a 2-shard ``ToneMapService`` and, for the
open-loop workloads, a ``ToneMapIngestor`` in front of it.  Every
output is compared with the in-process ``BatchToneMapper`` run of the
same frame under the same plan; the sharded path promises bit-identical
outputs (``docs/architecture.md``), so the check is exact.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

import numpy as np

from repro.errors import ReproError
from repro.image.hdr import HDRImage
from repro.planner import plan_for
from repro.runtime import BatchToneMapper, ToneMapIngestor, ToneMapService

from host import LeakGuard

#: Frame outcomes recorded per attempt.
PENDING, OK, MISMATCH, FAILED, REFUSED = range(5)

#: Slices a saturating phase is cut into for its median throughput.
SEGMENTS = 5

#: Lead-in of an open-loop phase that is sent and checked but not timed.
LEAD_S = 1.0

#: Longest a phase waits for its last outputs before counting them failed.
DRAIN_TIMEOUT_S = 60.0


def make_plan(spec, params):
    return plan_for(
        spec.size,
        spec.size,
        batch=spec.batch_size,
        sigma=params.sigma,
        radius=params.radius,
        color=spec.color,
    )


def references(params, plan, frames) -> List[np.ndarray]:
    """The in-process mapper's output for every distinct frame."""
    mapper = BatchToneMapper(params, plan=plan)
    try:
        return [
            mapper.run_stack(frame.pixels[np.newaxis])[0].astype(np.float32)
            for frame in frames
        ]
    finally:
        mapper.close()


class Stack:
    """The served stack of one workload; :meth:`close` reports leaks."""

    def __init__(self, spec, params, plan):
        self.guard = LeakGuard()
        self.service: Optional[ToneMapService] = None
        self.ingestor: Optional[ToneMapIngestor] = None
        try:
            self.service = ToneMapService(
                params, shards=2, plan=plan, batch_size=spec.batch_size
            )
            if spec.rate_fps > 0:
                self.ingestor = ToneMapIngestor(
                    self.service, queue_limit=max(256, 4 * spec.window)
                )
        except BaseException:
            self.close()
            raise

    def close(self) -> List[str]:
        if self.ingestor is not None:
            self.ingestor.close()
        if self.service is not None:
            self.service.close()
        return self.guard.check()


def frame(inputs, index: int, name: str) -> HDRImage:
    """Frame *index* under a name unique to this submission (the frame
    id its spans share)."""
    return HDRImage.adopt(inputs.frames[index].pixels, name=name)


@dataclass
class Traffic:
    """Per-attempt records of one run's traffic phases.

    ``latency_ms[i]`` is a closed-loop sample whose clock started at
    ``started[i]`` (``time.perf_counter`` seconds): a call's or a
    frame's submission.  ``open_ms`` holds the open loop's latencies,
    each timed from the frame's due time.
    """

    latency_ms: List[float] = field(default_factory=list)
    started: List[float] = field(default_factory=list)
    open_ms: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    statuses: List[int] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    met: int = 0
    judged: int = 0
    limit_ms: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.statuses)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.statuses if s != OK)

    @property
    def mismatched(self) -> int:
        return sum(1 for s in self.statuses if s == MISMATCH)


class _Outcomes:
    """Completion records filled from future callbacks.

    ``concurrent.futures.wait`` can return before a future's callbacks
    have run, so :meth:`wait` counts finished callbacks instead.
    """

    def __init__(self, n: int, refs, order):
        self.done = np.full(n, np.nan)
        self.status = np.zeros(n, dtype=np.int8)
        self.refs = refs
        self.order = order
        self.errors: List[str] = []
        self._finished = 0
        self._cond = threading.Condition()

    def wait(self, expected: int) -> None:
        with self._cond:
            self._cond.wait_for(
                lambda: self._finished >= expected, timeout=DRAIN_TIMEOUT_S
            )

    def finish(self, i: int, future) -> None:
        t = time.perf_counter()
        error = future.exception()
        if error is not None:
            self.errors.append(type(error).__name__)
            self.status[i] = FAILED
        else:
            same = np.array_equal(
                future.result().pixels, self.refs[self.order[i]]
            )
            self.status[i] = OK if same else MISMATCH
        self.done[i] = t
        with self._cond:
            self._finished += 1
            self._cond.notify_all()


def _submit(ingestor, inputs, outcomes, i, index, tag):
    try:
        future = ingestor.submit(frame(inputs, index, f"{tag}{i}"))
    except ReproError as error:
        outcomes.errors.append(type(error).__name__)
        outcomes.status[i] = REFUSED
        outcomes.done[i] = time.perf_counter()
        return None
    future.add_done_callback(partial(outcomes.finish, i))
    return future


def open_loop(ingestor, inputs, refs, seconds: float, traffic: Traffic):
    """Send the seeded Poisson schedule on time; time frames from due.

    Frames due in the first LEAD_S seconds fill per-shape caches, arena
    size classes and worker state; they are checked but not timed.
    """
    n = int(np.searchsorted(inputs.due_s, seconds))
    outcomes = _Outcomes(n, refs, inputs.picks)
    due = np.empty(n)
    submitted = 0
    start = time.perf_counter() + 0.01
    for i in range(n):
        due[i] = start + inputs.due_s[i]
        delay = due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        traffic.lag_ms.append((time.perf_counter() - due[i]) * 1e3)
        future = _submit(ingestor, inputs, outcomes, i, int(inputs.picks[i]), "o")
        submitted += future is not None
    outcomes.wait(submitted)
    traffic.errors += outcomes.errors
    for i in range(n):
        status = int(outcomes.status[i]) or FAILED
        traffic.statuses.append(status)
        if inputs.due_s[i] < LEAD_S:
            continue  # lead-in: verified and counted, but not timed
        traffic.judged += 1
        if status not in (OK, MISMATCH):
            continue  # a failed or refused frame misses the limit, untimed
        latency = (outcomes.done[i] - due[i]) * 1e3
        traffic.open_ms.append(latency)
        traffic.met += status == OK and latency <= traffic.limit_ms


def saturate_ingest(spec, ingestor, inputs, refs, seconds: float, traffic: Traffic):
    """Closed loop through the ingestor, ``spec.window`` frames in flight;
    each frame is timed from its submission."""
    length = len(inputs.order)
    outcomes = _Outcomes(length, refs, inputs.order)
    submitted_at = np.empty(length)
    window = threading.Semaphore(spec.window)
    submitted = 0
    start = time.perf_counter()
    end = start + seconds
    sent = 0
    while sent < length and time.perf_counter() < end:
        if not window.acquire(timeout=0.1):
            continue
        submitted_at[sent] = time.perf_counter()
        future = _submit(ingestor, inputs, outcomes, sent, int(inputs.order[sent]), "s")
        if future is None:
            window.release()
        else:
            future.add_done_callback(lambda _f: window.release())
            submitted += 1
        sent += 1
    outcomes.wait(submitted)
    traffic.errors += outcomes.errors
    statuses = [int(s) or FAILED for s in outcomes.status[:sent]]
    traffic.statuses += statuses
    for i in range(sent):
        if statuses[i] in (OK, MISMATCH):
            traffic.latency_ms.append((outcomes.done[i] - submitted_at[i]) * 1e3)
            traffic.started.append(submitted_at[i])
    # Throughput over each of SEGMENTS runs of equally many verified
    # completions, from the end of the previous run to its last one.
    sizes = [image.height * image.width for image in inputs.frames]
    done = sorted(
        (outcomes.done[i], sizes[int(inputs.order[i])])
        for i in range(sent)
        if statuses[i] == OK
    )
    previous = start
    for run in np.array_split(np.asarray(done), SEGMENTS):
        if len(run):
            traffic.rates.append(run[:, 1].sum() / (run[-1, 0] - previous) / 1e6)
            previous = run[-1, 0]


def saturate_service(spec, service, inputs, refs, seconds: float, traffic: Traffic):
    """Closed loop of ``map_many`` calls, one batch in flight."""
    length = len(inputs.order)
    end = time.perf_counter() + seconds
    seq = 0
    returned = None
    while time.perf_counter() < end:
        picks = [int(inputs.order[(seq + k) % length]) for k in range(spec.batch_size)]
        batch = [frame(inputs, index, f"c{seq + k}") for k, index in enumerate(picks)]
        t0 = time.perf_counter()
        if returned is not None:
            # The next call is due when the previous one returns.
            traffic.lag_ms.append((t0 - returned) * 1e3)
        try:
            outputs = service.map_many(batch)
        except ReproError as error:
            traffic.errors.append(type(error).__name__)
            outputs = [None] * len(batch)
        returned = time.perf_counter()
        elapsed = returned - t0
        # One latency and one throughput sample per call: its frames all
        # complete together.
        if outputs[0] is not None:
            traffic.latency_ms.append(elapsed * 1e3)
            traffic.started.append(t0)
        pixels = 0
        for index, output in zip(picks, outputs):
            if output is None:
                status = FAILED
            elif np.array_equal(output.pixels, refs[index]):
                status = OK
                pixels += output.height * output.width
            else:
                status = MISMATCH
            traffic.statuses.append(status)
            traffic.met += status == OK and elapsed * 1e3 <= traffic.limit_ms
            traffic.judged += 1
        traffic.rates.append(pixels / elapsed / 1e6)
        seq += spec.batch_size


def run_traffic(spec, stack: Stack, inputs, refs, seconds: float) -> Traffic:
    """One measured run: the open-loop phase (if any), then saturation."""
    traffic = Traffic(limit_ms=spec.limit_ms)
    if stack.ingestor is None:
        saturate_service(spec, stack.service, inputs, refs, seconds, traffic)
        return traffic
    open_s = spec.open_share * seconds
    open_loop(stack.ingestor, inputs, refs, open_s, traffic)
    saturate_ingest(spec, stack.ingestor, inputs, refs, seconds - open_s, traffic)
    return traffic


def first_result(spec, stack: Stack, inputs, refs) -> bool:
    """Serve one request through the stack; True when it verifies."""
    if stack.ingestor is not None:
        output = stack.ingestor.submit(frame(inputs, 0, "u0")).result(
            timeout=DRAIN_TIMEOUT_S
        )
        return bool(np.array_equal(output.pixels, refs[0]))
    picks = range(spec.batch_size)
    outputs = stack.service.map_many([frame(inputs, i, f"u{i}") for i in picks])
    return all(np.array_equal(out.pixels, refs[i]) for i, out in zip(picks, outputs))


def set_up(spec, params, inputs, refs) -> tuple:
    """Plan, build the stack and wait for its first verified result.

    Returns ``(seconds, stack, verified)``; the caller closes the stack.
    """
    t0 = time.perf_counter()
    stack = Stack(spec, params, make_plan(spec, params))
    try:
        verified = first_result(spec, stack, inputs, refs)
    except BaseException:
        stack.close()
        raise
    return time.perf_counter() - t0, stack, verified


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = min(len(ordered) - 1, max(0, int(np.ceil(fraction * len(ordered))) - 1))
    return float(ordered[rank])


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")
