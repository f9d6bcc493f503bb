"""The transport contract of the dispatch core, held over both transports.

``ShardPool`` (local worker processes) and ``HostPool`` (TCP hosts)
share one front door and one attempt loop
(:class:`repro.runtime.dispatch.DispatchPool`), so one suite pins the
contract for both: input validation, drain admission, and a one-shot
crash replayed bit-identically and counted once.  The last case holds
the service's single breaker route: ``run_batch`` and ``submit_stack``
both brown out through it.
"""

import numpy as np
import pytest

from repro.errors import ToneMapError
from repro.image import HDRImage
from repro.runtime import (
    BatchToneMapper,
    FaultPlan,
    HostPool,
    ShardPool,
    ToneMapService,
)
from repro.tonemap.pipeline import ToneMapParams

PARAMS = ToneMapParams(sigma=2.0, radius=6)

#: Both transports, small enough for CI.
TRANSPORTS = {
    "shards": lambda **kw: ShardPool(PARAMS, shards=2, **kw),
    "hosts": lambda **kw: HostPool.spawn_local(
        1, PARAMS, shards_per_host=1, **kw
    ),
}

#: The one-shot crash of each transport: a worker or a host SIGKILL.
ONE_SHOT_CRASH = {"shards": "kill@0", "hosts": "host-loss@0"}


def _stack(frames=4, size=32, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((frames, size, size), dtype=np.float32)


def _want(stack):
    return BatchToneMapper(PARAMS).run_stack(stack).astype(np.float32)


def _images(stack):
    return [HDRImage.adopt(stack[i], name=f"f{i}") for i in range(len(stack))]


@pytest.fixture(scope="module", params=sorted(TRANSPORTS))
def pool(request):
    with TRANSPORTS[request.param]() as pool:
        yield pool


class TestFrontDoor:
    def test_rejects_bad_leases_counts_batches_and_stacks(self, pool):
        stack = _stack()
        before = pool.data_plane_stats.batches
        lease = pool.lease_input(stack.shape)
        for count in (0, len(stack) + 1):
            with pytest.raises(ToneMapError, match="count"):
                pool.run_leased(lease, count=count)
        lease.release()
        with pytest.raises(ToneMapError, match="released"):
            pool.run_leased(lease)
        with pytest.raises(ToneMapError, match="at least one image"):
            pool.run_batch([])
        mixed = _images(_stack(frames=1, size=16)) + _images(_stack(frames=1))
        with pytest.raises(ToneMapError, match="one shape"):
            pool.run_batch(mixed)
        with pytest.raises(ToneMapError, match="expects"):
            pool.run_stack(stack[0])
        assert pool.data_plane_stats.batches == before
        assert pool.arena.stats.leases_active == 0

    def test_every_entry_point_matches_the_in_process_mapper(self, pool):
        stack = _stack(seed=1)
        want = _want(stack)
        outputs = pool.run_batch(_images(stack))
        assert [o.name for o in outputs][0] == "f0:tonemapped"
        np.testing.assert_array_equal(
            np.stack([o.pixels for o in outputs]), want
        )
        np.testing.assert_array_equal(pool.run_stack(stack), want)
        lease = pool.lease_input(stack.shape)
        lease.array[:] = stack
        out = pool.run_leased(lease, count=2)
        np.testing.assert_array_equal(np.asarray(out.array), want[:2])
        out.release()
        lease.release()
        assert pool.arena.stats.leases_active == 0


@pytest.mark.parametrize("kind", sorted(TRANSPORTS))
def test_drain_refuses_a_later_run_leased(kind):
    stack = _stack(seed=2)
    pool = TRANSPORTS[kind]()
    try:
        lease = pool.lease_input(stack.shape)
        lease.array[:] = stack
        pool.run_leased(lease).release()
        pool.drain()
        with pytest.raises(ToneMapError, match="draining|closed"):
            pool.run_leased(lease)
        lease.release()
    finally:
        pool.close()


@pytest.mark.fault
@pytest.mark.parametrize("kind", sorted(TRANSPORTS))
def test_one_shot_crash_is_replayed_bit_identically(kind):
    stack = _stack(seed=3)
    plan = FaultPlan.from_spec(ONE_SHOT_CRASH[kind])
    with TRANSPORTS[kind](faults=plan) as pool:
        lease = pool.lease_input(stack.shape)
        lease.array[:] = stack
        out = pool.run_leased(lease, timeout=30.0)
        np.testing.assert_array_equal(np.asarray(out.array), _want(stack))
        out.release()
        lease.release()
        assert pool.faults.attempts == 2  # the crash, then its replay
        assert pool.worker_respawns >= 1
        assert pool.hedged_replays == 0
        assert pool.data_plane_stats.batches == 1
        assert pool.arena.stats.leases_active == 0


@pytest.mark.fault
def test_breaker_browns_out_run_batch_and_submit_stack_alike():
    stack = _stack(seed=4)
    want = _want(stack)
    names = [f"s{i}" for i in range(len(stack))]
    plan = FaultPlan(kill_probability=1.0)  # every shard attempt dies
    with ToneMapService(
        PARAMS, batch_size=len(stack), shards=2, breaker=True, faults=plan
    ) as service:
        from_batch = service.run_batch(_images(stack))
        lease = service.lease_input(stack.shape[1:])
        lease.array[:] = stack
        from_stack = service.submit_stack(lease, len(stack), names).result(
            timeout=120
        )
        for outputs in (from_batch, from_stack):
            np.testing.assert_array_equal(
                np.stack([o.pixels for o in outputs]), want
            )
        assert service.stats.reliability.brownout_batches == 2
        assert service.pool.data_plane_stats.batches == 0
        assert service.pool.arena.stats.leases_active == 0
