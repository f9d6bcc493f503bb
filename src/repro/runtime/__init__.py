"""Batched / concurrent / sharded tone-mapping runtime.

The paper accelerates one image at a time; this package serves
continuous streams.  Its layers, lowest first (diagrammed in
``docs/architecture.md``):

* :mod:`~repro.runtime.batch` / :mod:`~repro.runtime.fused` — the
  compute: :class:`BatchToneMapper` runs the four pipeline stages over a
  same-shape ``(N, H, W[, 3])`` stack, on the fused band engine (the
  software ``DATAFLOW`` pragma) for every float workload.
* :mod:`~repro.runtime.arena` — the shared-memory data plane: pooled
  input stacks and a ring of output slabs, handed out as
  reference-counted zero-copy leases.
* :mod:`~repro.runtime.dispatch` — the dispatch core: the pools' front
  door, the crash-replay and timeout-hedge budgets, the data-plane
  counters and drain, written once over two transports:
  :class:`ShardPool` (local worker processes, :mod:`~repro.runtime.shard`)
  and :class:`HostPool` (TCP hosts running :class:`HostServer` over the
  wire protocol in :mod:`~repro.runtime.net`).
* :mod:`~repro.runtime.service` — :class:`ToneMapService`: thread-pooled
  batching over the in-process mapper or a pool, with the circuit
  breaker's brownout route and the overload ladder's hooks.
* :mod:`~repro.runtime.ingest` — :class:`ToneMapIngestor`: the streaming
  edge (per-tenant queues, deficit round robin, deadlines, service
  classes, the :class:`OverloadController` ladder).

Cross-cutting: seeded chaos plans (:mod:`~repro.runtime.faults`), the
breaker (:mod:`~repro.runtime.reliability`) and an injectable clock
(:mod:`~repro.runtime.clock`).  Benchmarks live in
``benchmarks/bench_runtime.py`` and ``perfbench/``.
"""

from repro.runtime.arena import ResultHandle
from repro.runtime.batch import BatchToneMapper
from repro.runtime.clock import FakeClock
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.fused import FusedExecutor, FusedToneMapPlan
from repro.runtime.hostpool import HostPool, HostServer
from repro.runtime.ingest import (
    BackpressurePolicy,
    DeficitRoundRobin,
    ServiceClass,
    TenantConfig,
    ToneMapIngestor,
)
from repro.runtime.overload import (
    LADDER,
    OverloadController,
    OverloadPolicy,
    ServiceLevelObjective,
)
from repro.runtime.reliability import BreakerPolicy, CircuitBreaker
from repro.runtime.service import ServiceStats, TenantStats, ToneMapService
from repro.runtime.shard import ShardPool

__all__ = [
    "BackpressurePolicy",
    "BatchToneMapper",
    "BreakerPolicy",
    "CircuitBreaker",
    "DeficitRoundRobin",
    "FakeClock",
    "FaultInjector",
    "FaultPlan",
    "FusedExecutor",
    "FusedToneMapPlan",
    "HostPool",
    "HostServer",
    "LADDER",
    "OverloadController",
    "OverloadPolicy",
    "ResultHandle",
    "ServiceClass",
    "ServiceLevelObjective",
    "ServiceStats",
    "ShardPool",
    "TenantConfig",
    "TenantStats",
    "ToneMapIngestor",
    "ToneMapService",
]
