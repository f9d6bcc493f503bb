"""Fused-vs-staged equivalence and the fused engine's contracts.

The tolerance contract under test (documented in
``src/repro/runtime/fused.py`` and ``docs/architecture.md``):

* where the staged blur resolves to the folded/tiled row convolution
  (``taps < FFT_CROSSOVER_TAPS``), fused masks and outputs are
  **bit-identical** to the staged path, for every shape, thread count,
  and band size;
* where it resolves to the FFT (the GEMM band method), outputs agree
  within the blur module's 1e-9 absolute band — and stay bit-identical
  to the in-process fused mapper whatever the thread count, band size or
  shard split.

Plus the steady-state allocation contract (``intermediate_bytes`` stops
growing once per-thread scratch is warm, at every kernel width), the row
partitioner's exactly-once coverage, and the shared-mutable-default fix
on the mapper constructors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ToneMapError
from repro.image.hdr import HDRImage
from repro.image.synthetic import SceneParams, make_scene
from repro.planner import pinned, plan_for
from repro.runtime import (
    BatchToneMapper,
    FusedExecutor,
    FusedToneMapPlan,
    ShardPool,
    ToneMapService,
)
from repro.runtime.fused import (
    GEMM_BLOCK_ROWS,
    GEMM_TILE_COLS,
    _partition_spans,
)
from repro.tonemap.gaussian import FFT_CROSSOVER_TAPS
from repro.tonemap.masking import MaskingParams
from repro.tonemap.pipeline import ToneMapParams, ToneMapper

#: Narrow kernels resolve to folded/tiled -> bit-identical contract;
#: wide ones to the FFT -> 1e-9 band.  (taps = 2 * radius + 1.)
FOLDED_PARAMS = [
    ToneMapParams(sigma=2.0, radius=6),
    ToneMapParams(sigma=3.0, radius=11),
]
FFT_PARAMS = [
    ToneMapParams(sigma=4.0),   # taps 25, at the crossover
    ToneMapParams(sigma=16.0),  # the paper default, taps 97
]
SHAPES = [
    (3, 40, 56),        # gray, several images
    (2, 33, 47),        # odd geometry
    (2, 30, 24, 3),     # RGB
    (1, 16, 16),        # radius can exceed height
]
THREADS = [1, 2, 3]


def _stack(shape, seed=0):
    rng = np.random.default_rng(seed)
    stack = rng.uniform(0.0, 2.0, shape).astype(np.float32)
    stack[0].flat[0] = 0.0  # exercise the epsilon floor
    return stack


def _staged(params, stack):
    mapper = BatchToneMapper(params)
    masks = np.empty(stack.shape[:3], dtype=np.float64)
    out = mapper._run_stack(stack, masks)
    return out, masks


def _staged_mapper(params):
    """The staged oracle: a mapper on a plan pinned to the staged engine."""
    plan = plan_for(32, 32, sigma=params.sigma, radius=params.radius)
    return BatchToneMapper(params, plan=pinned(plan, engine="staged"))


def _fused(params, stack, threads, band_bytes=None):
    plan = FusedToneMapPlan(params, band_bytes=band_bytes)
    out = np.empty(stack.shape, dtype=np.float64)
    masks = np.empty(stack.shape[:3], dtype=np.float64)
    with FusedExecutor(threads=threads) as executor:
        executor.run(plan, stack, out, masks)
        stats = executor.stats
    return out, masks, stats


class TestToleranceContract:
    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize(
        "params", FOLDED_PARAMS,
        ids=[f"taps{p.kernel().taps}" for p in FOLDED_PARAMS],
    )
    def test_folded_paths_bit_identical(self, params, shape, threads):
        assert params.kernel().taps < FFT_CROSSOVER_TAPS  # suite invariant
        stack = _stack(shape)
        want, want_masks = _staged(params, stack)
        got, got_masks, _ = _fused(params, stack, threads)
        np.testing.assert_array_equal(got_masks, want_masks)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize(
        "params", FFT_PARAMS,
        ids=[f"taps{p.kernel().taps}" for p in FFT_PARAMS],
    )
    def test_fft_paths_within_band(self, params, shape, threads):
        assert params.kernel().taps >= FFT_CROSSOVER_TAPS
        stack = _stack(shape)
        want, want_masks = _staged(params, stack)
        got, got_masks, _ = _fused(params, stack, threads)
        np.testing.assert_allclose(got_masks, want_masks, atol=1e-9)
        np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_ring_reuse_stays_bit_identical(self, threads):
        # A tiny band budget forces many bands per span, so the halo
        # ring actually carries rows between bands.
        params = FOLDED_PARAMS[0]
        stack = _stack((2, 300, 64), seed=3)
        want, want_masks = _staged(params, stack)
        got, got_masks, stats = _fused(
            params, stack, threads, band_bytes=1 << 14
        )
        assert stats.halo_rows_reused > 0
        np.testing.assert_array_equal(got_masks, want_masks)
        np.testing.assert_array_equal(got, want)

    def test_black_image_passes_through(self):
        params = FOLDED_PARAMS[0]
        stack = np.zeros((1, 24, 24), dtype=np.float32)
        got, _, _ = _fused(params, stack, threads=1)
        want, _ = _staged(params, stack)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=20, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=3),
        height=st.integers(min_value=8, max_value=64),
        width=st.integers(min_value=8, max_value=64),
        radius=st.integers(min_value=2, max_value=9),
        threads=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_stacks_bit_identical(
        self, count, height, width, radius, threads, seed
    ):
        params = ToneMapParams(sigma=max(radius / 3.0, 0.5), radius=radius)
        rng = np.random.default_rng(seed)
        stack = rng.uniform(
            0.0, 4.0, (count, height, width)
        ).astype(np.float32)
        want, want_masks = _staged(params, stack)
        got, got_masks, _ = _fused(
            params, stack, threads, band_bytes=1 << 14
        )
        np.testing.assert_array_equal(got_masks, want_masks)
        np.testing.assert_array_equal(got, want)


#: Widths around the GEMM column tiling: narrower than one tile, a
#: tile exactly, one past it, primes, and a multi-tile ragged row.
EDGE_WIDTHS = [1, 2, 3, 7, 31, GEMM_TILE_COLS - 1, GEMM_TILE_COLS,
               GEMM_TILE_COLS + 1, 131, 257, 300]


@pytest.fixture(scope="module")
def gemm_services():
    """One 2-shard service per GEMM-regime kernel (25 and 57 taps)."""
    services = {}
    try:
        for radius in (12, 28):
            params = ToneMapParams(sigma=radius / 3.0, radius=radius)
            services[radius] = ToneMapService(
                params, batch_size=2, shards=2, arena_slots=2
            )
        yield services
    finally:
        for service in services.values():
            service.close()


class TestGemmBandProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=2),
        height=st.one_of(
            st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=70)
        ),
        width=st.one_of(
            st.sampled_from(EDGE_WIDTHS), st.integers(min_value=1, max_value=300)
        ),
        radius=st.sampled_from([12, 28]),
        color=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_gemm_bands_hold_every_contract(
        self, gemm_services, count, height, width, radius, color, seed
    ):
        params = ToneMapParams(sigma=radius / 3.0, radius=radius)
        assert params.kernel().taps >= FFT_CROSSOVER_TAPS  # GEMM regime
        shape = (count, height, width) + ((3,) if color else ())
        stack = _stack(shape, seed=seed % 1000)
        want, want_masks = _staged(params, stack)
        # A small band budget forces multi-band spans and one-row bands.
        one, one_masks, _ = _fused(params, stack, 1, band_bytes=1 << 12)
        np.testing.assert_allclose(one_masks, want_masks, atol=1e-9)
        np.testing.assert_allclose(one, want, atol=1e-9)
        two, two_masks, _ = _fused(params, stack, 2)
        np.testing.assert_array_equal(two_masks, one_masks)
        np.testing.assert_array_equal(two, one)
        # Through two shard workers (one fused thread each), against the
        # in-process mapper (its own thread count and band split).
        images = [HDRImage(frame) for frame in stack]
        local = BatchToneMapper(params, threads=2).map(images)
        sharded = gemm_services[radius].run_batch(images)
        for got, ref in zip(sharded, local):
            np.testing.assert_array_equal(got.pixels, ref.pixels)
        np.testing.assert_allclose(
            np.stack([image.pixels for image in local]), want, atol=1e-6
        )


class TestSteadyStateAllocation:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_intermediate_bytes_stop_growing(self, threads):
        params = ToneMapParams(sigma=2.0, radius=6)
        plan = FusedToneMapPlan(params, band_bytes=1 << 14)
        stack = _stack((2, 96, 64), seed=5)
        out = np.empty(stack.shape, dtype=np.float32)
        with FusedExecutor(threads=threads) as executor:
            executor.run(plan, stack, out)  # warm-up allocates scratch
            warm = executor.stats
            assert warm.intermediate_bytes > 0  # the counter is live
            for _ in range(3):
                executor.run(plan, stack, out)
            steady = executor.stats
        assert steady.intermediate_bytes == warm.intermediate_bytes
        assert steady.bands_executed > warm.bands_executed
        assert steady.scratch_bytes == warm.scratch_bytes

    def test_geometry_pool_is_bounded_lru(self):
        # Arbitrary shape diversity must not grow resident scratch
        # without bound: beyond FUSED_POOLED_GEOMETRIES distinct
        # geometries the LRU geometry's workspaces are evicted, and the
        # cumulative allocation counter stays monotonic across that.
        from repro.runtime.fused import FUSED_POOLED_GEOMETRIES

        params = ToneMapParams(sigma=2.0, radius=6)
        plan = FusedToneMapPlan(params)
        with FusedExecutor(threads=2) as executor:
            for step in range(FUSED_POOLED_GEOMETRIES + 4):
                width = 16 + 2 * step
                stack = _stack((1, 24, width), seed=step)
                executor.run(plan, stack, np.empty_like(stack))
            assert len(executor._free) <= FUSED_POOLED_GEOMETRIES
            assert (
                len(executor._workspaces)
                <= 2 * FUSED_POOLED_GEOMETRIES
            )
            before = executor.stats.intermediate_bytes
            stack = _stack((1, 24, 16))  # evicted geometry: re-warms
            executor.run(plan, stack, np.empty_like(stack))
            assert executor.stats.intermediate_bytes >= before

    def test_concurrent_mixed_geometry_eviction_safe(self):
        # Regression: a geometry whose free-list entry is LRU-evicted
        # while its run is in flight must re-seed the pool on release,
        # not raise KeyError and leak the workspaces.
        from concurrent.futures import ThreadPoolExecutor as TPE

        from repro.runtime.fused import FUSED_POOLED_GEOMETRIES

        params = ToneMapParams(sigma=2.0, radius=6)
        plan = FusedToneMapPlan(params)
        shapes = [
            (1, 24, 16 + 2 * i) for i in range(FUSED_POOLED_GEOMETRIES + 4)
        ]
        stacks = [_stack(s, seed=i) for i, s in enumerate(shapes)]
        with FusedExecutor(threads=2) as executor:
            def run_one(stack):
                executor.run(plan, stack, np.empty_like(stack))
            with TPE(max_workers=len(stacks)) as pool:
                for _ in range(4):
                    list(pool.map(run_one, stacks))
            assert len(executor._free) <= FUSED_POOLED_GEOMETRIES

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "radius", [12, 28, 96, 130], ids=lambda r: f"taps{2 * r + 1}"
    )
    def test_wide_kernel_steady_state_allocates_nothing(
        self, radius, threads
    ):
        # The GEMM band method reuses its scratch like the folded one:
        # the zero-temporaries claim covers every kernel width.
        params = ToneMapParams(sigma=radius / 3.0, radius=radius)
        plan = FusedToneMapPlan(params, band_bytes=1 << 16)
        assert plan.band_method() == "gemm"
        stack = _stack((2, 70, 131, 3), seed=radius)
        out = np.empty(stack.shape, dtype=np.float32)
        with FusedExecutor(threads=threads) as executor:
            executor.run(plan, stack, out)
            warm = executor.stats
            for _ in range(2):
                executor.run(plan, stack, out)
            steady = executor.stats
        assert warm.intermediate_bytes > 0
        assert steady.intermediate_bytes == warm.intermediate_bytes
        assert steady.scratch_bytes == warm.scratch_bytes
        assert steady.bands_executed == 3 * warm.bands_executed

    def test_shape_change_reallocates_then_settles(self):
        params = ToneMapParams(sigma=2.0, radius=6)
        plan = FusedToneMapPlan(params)
        with FusedExecutor(threads=1) as executor:
            small = _stack((1, 32, 32))
            big = _stack((1, 32, 64), seed=1)
            executor.run(plan, small, np.empty_like(small))
            first = executor.stats.intermediate_bytes
            executor.run(plan, big, np.empty_like(big))
            grown = executor.stats.intermediate_bytes
            assert grown > first  # wider rows need new scratch
            executor.run(plan, big, np.empty_like(big))
            assert executor.stats.intermediate_bytes == grown

    def test_mixed_shape_traffic_reuses_per_shape_scratch(self):
        # Workspaces are pooled per scratch geometry: alternating two
        # frame shapes through one executor must warm one scratch set
        # per shape and then stop allocating — not re-size the same
        # buffers on every alternation.
        params = ToneMapParams(sigma=2.0, radius=6)
        plan = FusedToneMapPlan(params)
        small = _stack((1, 32, 32))
        big = _stack((2, 48, 64), seed=1)
        with FusedExecutor(threads=2) as executor:
            for stack in (small, big):  # warm both geometries
                executor.run(plan, stack, np.empty_like(stack))
            warm = executor.stats.intermediate_bytes
            for _ in range(3):  # steady-state alternation
                executor.run(plan, small, np.empty_like(small))
                executor.run(plan, big, np.empty_like(big))
            assert executor.stats.intermediate_bytes == warm

    def test_service_close_retires_fused_threads(self):
        import threading

        service = ToneMapService(
            ToneMapParams(sigma=2.0, radius=6), fused_threads=2
        )
        images = [
            make_scene(
                "window_interior",
                SceneParams(height=24, width=24, seed=i),
            )
            for i in range(2)
        ]
        service.map_many(images)
        assert any(
            t.name.startswith("fused") for t in threading.enumerate()
        )
        service.close()
        assert not any(
            t.name.startswith("fused") for t in threading.enumerate()
        )

    def test_mapper_counters_exposed(self):
        mapper = BatchToneMapper(ToneMapParams(sigma=2.0, radius=6), threads=2)
        assert mapper.fused
        stack = _stack((2, 32, 32))
        mapper.run_stack(stack)
        stats = mapper.fused_stats
        assert stats.runs == 1
        assert stats.frames == 2
        assert stats.bands_executed >= 2
        assert _staged_mapper(ToneMapParams()).fused_stats is None


class TestPartition:
    @pytest.mark.parametrize(
        "count,height,parts",
        [(1, 10, 1), (1, 10, 3), (3, 7, 2), (4, 4, 16), (2, 5, 100)],
    )
    def test_rows_covered_exactly_once(self, count, height, parts):
        chunks = _partition_spans(count, height, parts)
        seen = np.zeros((count, height), dtype=int)
        for spans in chunks:
            for image, lo, hi in spans:
                assert 0 <= lo < hi <= height
                seen[image, lo:hi] += 1
        assert (seen == 1).all()
        assert len(chunks) <= max(1, min(parts, count * height))
        # balance: chunk sizes differ by at most one row
        sizes = [
            sum(hi - lo for _, lo, hi in spans) for spans in chunks
        ]
        assert max(sizes) - min(sizes) <= 1


    @pytest.mark.parametrize(
        "count,height,parts",
        [(1, 40, 2), (2, 33, 3), (3, 16, 4), (1, 5, 3), (2, 70, 100)],
    )
    def test_gemm_spans_start_on_block_boundaries(self, count, height, parts):
        # GEMM bands are block-aligned products: every span must start
        # on a GEMM_BLOCK_ROWS boundary, and still cover each row once.
        chunks = _partition_spans(count, height, parts, GEMM_BLOCK_ROWS)
        seen = np.zeros((count, height), dtype=int)
        for spans in chunks:
            for image, lo, hi in spans:
                assert lo % GEMM_BLOCK_ROWS == 0
                assert hi % GEMM_BLOCK_ROWS == 0 or hi == height
                seen[image, lo:hi] += 1
        assert (seen == 1).all()


class TestValidationAndDefaults:
    def test_fused_rejects_custom_blur_fn(self):
        params = ToneMapParams(
            sigma=2.0, radius=6, blur_fn=lambda plane, kernel: plane
        )
        assert not BatchToneMapper(params).fused  # runs staged
        with pytest.raises(ToneMapError):
            FusedToneMapPlan(params)
        with pytest.raises(ToneMapError):
            FusedToneMapPlan(ToneMapParams(), band_method="fft")

    def test_executor_rejects_bad_inputs(self):
        plan = FusedToneMapPlan(ToneMapParams(sigma=2.0, radius=6))
        with FusedExecutor(threads=1) as executor:
            f64 = np.zeros((1, 8, 8))
            with pytest.raises(ToneMapError):
                executor.run(plan, f64, np.empty_like(f64))
            f32 = f64.astype(np.float32)
            with pytest.raises(ToneMapError):
                executor.run(plan, f32, np.empty((1, 8, 9)))
            with pytest.raises(ToneMapError):
                executor.run(plan, np.zeros((8, 8), np.float32),
                             np.empty((8, 8)))
            with pytest.raises(ToneMapError):
                executor.run(plan, f32, np.empty_like(f64),
                             masks_out=np.empty((1, 8, 8), np.float32))
        with pytest.raises(ToneMapError):
            FusedExecutor(threads=0)

    def test_threads_default_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_THREADS", "3")
        assert FusedExecutor().threads == 3
        monkeypatch.setenv("REPRO_FUSED_THREADS", "not-a-number")
        import os

        assert FusedExecutor().threads == (os.cpu_count() or 1)

    def test_default_params_not_shared_between_mappers(self):
        # The old `params: ToneMapParams = ToneMapParams()` default was
        # evaluated once at class definition: every default-constructed
        # mapper shared one module-level instance.
        assert BatchToneMapper().params is not BatchToneMapper().params
        assert ToneMapper().params is not ToneMapper().params
        # And the nested mutable-prone members are per-instance too.
        a, b = BatchToneMapper().params, BatchToneMapper().params
        assert a.masking is not b.masking
        assert a.adjust is not b.adjust

    def test_masking_params_still_default_correctly(self):
        assert BatchToneMapper().params.masking == MaskingParams()


class TestRuntimeWiring:
    def _scenes(self, count, size=32):
        return [
            make_scene(
                "window_interior",
                SceneParams(height=size, width=size, seed=100 + i),
            )
            for i in range(count)
        ]

    PARAMS = ToneMapParams(sigma=2.0, radius=6)

    def test_mapper_run_matches_staged(self):
        images = self._scenes(3)
        want = _staged_mapper(self.PARAMS).run(images)
        got = BatchToneMapper(self.PARAMS, threads=2).run(images)
        np.testing.assert_array_equal(got.masks, want.masks)
        for g, w in zip(got.outputs, want.outputs):
            np.testing.assert_array_equal(g.pixels, w.pixels)
            assert g.name == w.name
        assert got.pixels == want.pixels

    def test_shard_workers_fused_bit_identical(self):
        images = self._scenes(4, size=24)
        want = _staged_mapper(self.PARAMS).map(images)
        with ShardPool(self.PARAMS, shards=2, fused_threads=1) as pool:
            got = pool.run_batch(images)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pixels, w.pixels)

    def test_shard_fused_threads_default_to_one(self):
        # Each worker process defaulting to cpu_count() fused threads
        # would oversubscribe the host shards-fold; the sharded default
        # is 1 thread per worker.
        with ShardPool(self.PARAMS, shards=2) as pool:
            assert pool.fused_threads == 1
        mapper = BatchToneMapper(self.PARAMS)
        try:
            import os

            assert mapper._engine.threads == (os.cpu_count() or 1)
        finally:
            mapper.close()

    def test_fixed_point_runs_staged_under_a_fused_plan(self):
        # The fused engine is float-only: a fixed-point service handed a
        # float workload's (fused) plan runs the staged fixed-point blur
        # in-process and in its shard workers.
        from dataclasses import replace

        from repro.tonemap.fixed_blur import (
            FixedBlurConfig,
            make_fixed_blur_fn,
        )

        config = FixedBlurConfig()
        plan = plan_for(24, 24, batch=2, sigma=2.0, radius=6)
        assert plan.engine == "fused"
        images = self._scenes(2, size=24)
        fixed = replace(self.PARAMS, blur_fn=make_fixed_blur_fn(config))
        want = BatchToneMapper(fixed, plan=plan).map(images)
        with ToneMapService(
            self.PARAMS, batch_size=2, shards=2, fixed_config=config,
            plan=plan,
        ) as service:
            assert not service._mapper.fused
            got = service.run_batch(images)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pixels, w.pixels)

    def test_service_fused_matches_staged(self):
        images = self._scenes(5, size=24)
        staged = pinned(
            plan_for(24, 24, batch=2, sigma=2.0, radius=6), engine="staged"
        )
        with ToneMapService(
            self.PARAMS, batch_size=2, plan=staged
        ) as service:
            want = service.map_many(images)
        with ToneMapService(
            self.PARAMS, batch_size=2, fused_threads=2
        ) as service:
            got = service.map_many(images)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pixels, w.pixels)

    def test_ingestor_over_fused_sharded_service(self):
        from repro.runtime import ToneMapIngestor

        images = self._scenes(6, size=24)
        want = _staged_mapper(self.PARAMS).map(images)
        with ToneMapService(
            self.PARAMS, batch_size=3, shards=2, fused_threads=1,
        ) as service:
            with ToneMapIngestor(service, max_delay_ms=5.0) as ingestor:
                futures = [ingestor.submit(image) for image in images]
                got = [future.result(timeout=60) for future in futures]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pixels, w.pixels)
