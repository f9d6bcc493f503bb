"""Fused single-pass tone mapping: tiled band dataflow + worker threads.

The paper's accelerator owes its throughput to a fused streaming
dataflow — normalization, Gaussian blur, masking, and adjustment run
concurrently over line buffers with **no intermediate frame buffers**
(the HLS ``DATAFLOW`` pragma).  The staged software path
(:meth:`repro.runtime.batch.BatchToneMapper._run_stack`) is the
opposite: each stage materializes a full-stack float64 temporary and the
whole working set streams through main memory four-plus times.  This
module is the software analogue of the pragma:

* :class:`FusedToneMapPlan` decomposes every image into **row bands**
  sized so one band's scratch stays resident in last-level cache
  (:data:`FUSED_BAND_BYTES`), and runs normalize → separable blur →
  mask → adjust over each band in one pass, writing the output band
  straight into the caller's buffer.
* The vertical blur halo (``radius`` rows above and below a band) comes
  from a reusable **line-buffer ring** of horizontally-blurred rows,
  mirroring the paper's line-buffer architecture: consecutive bands
  share ``2 * radius`` ring rows, so every image row is horizontally
  convolved exactly once.
* :class:`FusedExecutor` adds the ROADMAP's threaded row-partitioned
  execution: a persistent worker pool partitions the ``(image, row)``
  space into contiguous per-thread chunks (NumPy's ufunc inner loops
  release the GIL, so bands on different threads really overlap),
  auto-sized from ``os.cpu_count()`` with a ``REPRO_FUSED_THREADS``
  override.

**Band blur methods** (:func:`~repro.planner.profile.select_band_method`):
wherever the staged path's blur resolves to the folded/tiled row
convolution (narrow kernels), each band is blurred by the **folded**
sliding window; where the staged path resolves to the FFT
(``taps >= fft_crossover_taps``), both passes become small dense matrix
products (**GEMM**) against banded-Toeplitz coefficient matrices cached
on the plan — the software form of the paper's line-buffer MAC array,
which computes the mask at any width.  The horizontal pass multiplies
fixed-width column tiles (``bw + 2r`` padded columns each) by one shared
``(bw + 2r) x bw`` matrix; the vertical pass multiplies a
``GEMM_BLOCK_ROWS x (GEMM_BLOCK_ROWS + 2r)`` matrix by the ring rows,
tiled by the same columns, so every BLAS call stays small enough to run
single-threaded.

**Tolerance contract** (tested in ``tests/test_fused.py``): in the
folded regime fused masks and outputs are **bit-identical** to the
staged path — the horizontal pass shares
:func:`~repro.tonemap.gaussian.fold_rows_into` and the vertical pass
replays the same multiply-add sequence over ring rows.  In the GEMM
regime outputs agree with the staged FFT to the blur module's
documented 1e-9 absolute band.  Either way a row's result never depends
on which band, thread or process computed it, so sharded output is
bit-identical to the in-process mapper.  BLAS kernels round differently
by a row's position within a product, so the GEMM regime never lets
that position vary: every product covers one fixed block of
:data:`GEMM_BLOCK_ROWS` image rows (vertical products start on
multiples of the block, horizontal ones on the same grid shifted by the
radius), so row partitions, bands and the ring all come in whole
blocks.  A given block is therefore always the identical call on
identical operands.

**Steady-state allocation contract**: per-thread scratch is allocated on
first use (or when the frame geometry changes) and reused forever after;
:class:`FusedStats.intermediate_bytes` counts every scratch byte
allocated, so a steady-state delta of zero *proves* the fused path
materializes no stage temporaries — the claim
``benchmarks/baseline.json`` gates strictly.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ToneMapError
from repro.image.color import LUMA_WEIGHTS
from repro.planner.profile import (
    DEFAULT_FUSED_BAND_BYTES,
    DEFAULT_FUSED_POOLED_GEOMETRIES,
    _env_positive_int,
    active_profile,
    select_band_method,
)
from repro.tonemap.adjust import adjust_brightness_contrast_into
from repro.tonemap.gaussian import fold_rows_into
from repro.tonemap.masking import (
    masking_exponent_into,
    nonlinear_masking_into,
)
from repro.tonemap.pipeline import ToneMapParams

#: Default byte budget for one band's float64 scratch working set.
#: 4 MiB keeps a band plus its halo ring resident in commodity
#: last-level caches (the same neighbourhood as the blur module's
#: tiled crossover) while leaving bands wide enough to amortize the
#: per-band Python overhead (measured best of 2-32 MiB at 1024² on the
#: reference host).  This is the *built-in default* — the live value
#: comes from :func:`repro.planner.profile.active_profile` at plan
#: construction, so ``REPRO_FUSED_BAND_BYTES`` (read at call time, not
#: import time) and calibration profiles re-tune it without a reload.
FUSED_BAND_BYTES = DEFAULT_FUSED_BAND_BYTES

#: Default for how many distinct scratch geometries (frame shape ×
#: radius × band budget) one executor keeps warm.  Each geometry
#: retains up to ``threads`` workspaces; beyond the cap the
#: least-recently-used geometry's scratch is dropped (and re-warmed on
#: return — visible as an ``intermediate_bytes`` bump), so
#: arbitrarily-shaped traffic cannot grow resident scratch without
#: bound.  Live value: ``active_profile().fused_pooled_geometries``,
#: captured per executor (``REPRO_FUSED_POOLED_GEOMETRIES`` overrides).
FUSED_POOLED_GEOMETRIES = DEFAULT_FUSED_POOLED_GEOMETRIES

#: Target output columns per GEMM tile.  Tiles split the row evenly
#: (``ceil(W / ceil(W / 128))`` columns each), so at most a few padding
#: columns are computed and discarded; 128 keeps one tile's operands in
#: L1/L2 and each BLAS call single-threaded (measured per 31-row band
#: at W=1024, r=28: 0.30 ms tiled GEMM vs 1.63 ms folded horizontal).
GEMM_TILE_COLS = 128

#: Rows per GEMM product, in both passes.  Products start at image
#: rows that are multiples of this block (see the module docstring),
#: so bands, ring fills and row partitions come in whole blocks.
GEMM_BLOCK_ROWS = 16


def _default_threads() -> int:
    """Worker-thread default: ``REPRO_FUSED_THREADS`` env, else CPU count."""
    override = _env_positive_int("REPRO_FUSED_THREADS", 0)
    if override > 0:
        return override
    return os.cpu_count() or 1


def band_rows_for(
    height: int, width: int, color: bool, radius: int, band_bytes: int
) -> int:
    """Rows per fused band such that the band scratch stays cache-resident.

    The scratch working set is ~7 float64 row buffers for gray plus
    ~2.5 more per color channel (ring, padded rows, pair, luminance,
    vertical accumulator, exponent, output band, float32 staging,
    bool floor mask).  The floor of ``max(8, radius)`` keeps the
    2·radius-row ring copy between bands amortized over at least a
    comparable amount of compute.  Single definition shared by
    :meth:`FusedToneMapPlan.band_rows` and the planner's band-partition
    reporting.
    """
    channels = 3 if color else 1
    per_row = 8 * width * (6 + 3 * channels) + 8 * (width + 2 * radius)
    rows = int(band_bytes // per_row)
    rows = max(rows, 8, radius)
    return min(rows, height)


@dataclass(frozen=True)
class FusedStats:
    """Counters proving (or disproving) the fused-dataflow claims.

    Attributes
    ----------
    runs / frames:
        Fused stack executions and frames processed so far.
    bands_executed:
        Row bands run through the fused normalize→blur→mask→adjust pass.
    halo_rows_reused:
        Horizontally-blurred ring rows carried from one band to the next
        instead of being recomputed (the line-buffer win).
    intermediate_bytes:
        Bytes of engine-managed scratch allocated, cumulative.  Warm-up
        allocates each workspace's band buffers once; a steady-state
        delta of zero is the machine-independent proof that the fused
        path materializes **no** full-frame stage temporaries, at every
        kernel width (the GEMM regime's coefficient matrices live on the
        plan, built once like the kernel itself).
    threads_used:
        Row partitions of the most recent run (≤ configured threads).
    scratch_bytes:
        Resident pooled-workspace footprint (all workspaces summed) —
        the fused path's whole persistent memory overhead, in place of
        the staged path's several full-stack float64 temporaries.
    """

    runs: int = 0
    frames: int = 0
    bands_executed: int = 0
    halo_rows_reused: int = 0
    intermediate_bytes: int = 0
    threads_used: int = 0
    scratch_bytes: int = 0


class _Workspace:
    """Pooled scratch arrays, reused across bands, spans, and runs.

    ``get`` returns the cached array for a key when shape and dtype still
    match, else (re)allocates and counts the bytes — the counter behind
    :attr:`FusedStats.intermediate_bytes`.

    ``bytes_allocated`` and ``resident_bytes`` are plain ints maintained
    inside :meth:`get` so that a stats poll from another thread reads
    GIL-atomic counters instead of iterating ``_arrays`` while a worker
    mutates it (dict mutation during iteration raises).
    """

    __slots__ = ("_arrays", "bytes_allocated", "resident_bytes")

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}
        self.bytes_allocated = 0
        self.resident_bytes = 0

    def get(self, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        arr = self._arrays.get(key)
        if arr is None or arr.shape != shape or arr.dtype != np.dtype(dtype):
            if arr is not None:
                self.resident_bytes -= arr.nbytes
            arr = np.empty(shape, dtype=dtype)
            self._arrays[key] = arr
            self.bytes_allocated += arr.nbytes
            self.resident_bytes += arr.nbytes
        return arr


def _partition_spans(
    count: int, height: int, parts: int, unit: int = 1
) -> List[List[Tuple[int, int, int]]]:
    """Split the ``(image, row)`` space into ``parts`` contiguous chunks.

    Returns one span list per chunk; a span is ``(image, row_lo, row_hi)``.
    Chunks are balanced to within one ``unit`` of rows over the flattened
    row space, every span starts on a multiple of ``unit`` (the GEMM
    regime's block alignment), and each chunk's spans are contiguous so
    the line-buffer ring stays valid within a span (only chunk boundaries
    pay a halo recompute).
    """
    blocks = -(-height // unit)  # per image
    total = count * blocks
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    chunks: List[List[Tuple[int, int, int]]] = []
    start = 0
    for part in range(parts):
        end = start + base + (1 if part < extra else 0)
        spans: List[Tuple[int, int, int]] = []
        flat = start
        while flat < end:
            image, block = divmod(flat, blocks)
            block_hi = min(blocks, block + (end - flat))
            spans.append(
                (image, block * unit, min(block_hi * unit, height))
            )
            flat += block_hi - block
        chunks.append(spans)
        start = end
    return chunks


def gemm_tiles(width: int) -> Tuple[int, int]:
    """``(tiles, tile)``: the GEMM column tiling of a *width*-column row.

    Tiles split the row evenly near :data:`GEMM_TILE_COLS` columns.  The
    band ring spans ``tiles * tile`` columns; the few beyond ``width``
    are computed from edge padding and dropped.
    """
    tiles = -(-width // GEMM_TILE_COLS)
    return tiles, -(-width // tiles)


def _banded(coefficients: np.ndarray, rows: int) -> np.ndarray:
    """``rows x (rows + taps - 1)`` banded Toeplitz matrix: row ``t``
    holds the kernel taps in columns ``t .. t + taps - 1``."""
    taps = coefficients.size
    matrix = np.zeros((rows, rows + taps - 1))
    for row in range(rows):
        matrix[row, row : row + taps] = coefficients
    return matrix


class FusedToneMapPlan:
    """Band decomposition + stage fusion for one parameter set.

    The plan is stateless across runs (all scratch lives in the
    executor's per-thread workspaces), so one plan instance may be shared
    by any number of concurrent :class:`FusedExecutor` runs.

    Parameters
    ----------
    params:
        Pipeline parameters.  ``params.blur_fn`` must be ``None`` — the
        fused engine *is* the blur implementation (custom/fixed-point
        blurs take the staged path).
    band_bytes:
        Scratch budget per band; defaults to the active calibration
        profile's ``fused_band_bytes`` (resolved at construction, so
        ``REPRO_FUSED_BAND_BYTES`` takes effect without a reload).
    band_method:
        ``"folded"`` or ``"gemm"`` pins how each band is blurred (an
        :class:`~repro.planner.plan.ExecutionPlan` passes its own).
        ``None`` (the default) lets :meth:`band_method` consult the
        active calibration profile per run.
    """

    def __init__(
        self,
        params: Optional[ToneMapParams] = None,
        band_bytes: Optional[int] = None,
        band_method: Optional[str] = None,
    ):
        params = params if params is not None else ToneMapParams()
        if params.blur_fn is not None:
            raise ToneMapError(
                "the fused engine is float-only: params.blur_fn must be "
                "None (custom and fixed-point blurs run the staged path)"
            )
        if band_method not in (None, "folded", "gemm"):
            raise ToneMapError(
                f"band_method must be 'folded' or 'gemm', got {band_method!r}"
            )
        self.params = params
        self.kernel = params.kernel()
        self._band_method = band_method
        if band_bytes is None:
            band_bytes = active_profile().fused_band_bytes
        self.band_bytes = band_bytes
        # The GEMM regime's coefficient matrices, built on first use and
        # shared by every run (constants like the kernel, so they are
        # not band scratch); a concurrent first use builds the same
        # matrix twice, which is harmless.
        self._h_matrices: Dict[int, np.ndarray] = {}
        self._v_matrix: Optional[np.ndarray] = None

    def band_method(self) -> str:
        """How bands are blurred: ``"folded"`` or ``"gemm"``.

        The pinned method when one was given, else
        :func:`~repro.planner.profile.select_band_method` on the active
        profile — at call time, like every dispatch decision.
        """
        if self._band_method is not None:
            return self._band_method
        return select_band_method(self.kernel.taps)

    def h_matrix(self, tile: int) -> np.ndarray:
        """``(tile + 2r) x tile`` horizontal-pass matrix (column ``j``
        holds the taps in rows ``j .. j + 2r``)."""
        matrix = self._h_matrices.get(tile)
        if matrix is None:
            matrix = np.ascontiguousarray(
                _banded(self.kernel.coefficients, tile).T
            )
            self._h_matrices[tile] = matrix
        return matrix

    def v_matrix(self) -> np.ndarray:
        """``GEMM_BLOCK_ROWS x (GEMM_BLOCK_ROWS + 2r)`` vertical-pass
        matrix (row ``t`` holds the taps in columns ``t .. t + 2r``)."""
        if self._v_matrix is None:
            self._v_matrix = _banded(
                self.kernel.coefficients, GEMM_BLOCK_ROWS
            )
        return self._v_matrix

    def band_rows(self, height: int, width: int, color: bool) -> int:
        """Rows per band such that the band scratch stays cache-resident.

        Delegates to :func:`band_rows_for`, the single definition shared
        with the planner's :class:`~repro.planner.plan.ExecutionPlan`.
        """
        return band_rows_for(
            height, width, color, self.kernel.radius, self.band_bytes
        )


def _process_span(
    plan: FusedToneMapPlan,
    ws: _Workspace,
    stack32: np.ndarray,
    out: np.ndarray,
    masks_out: Optional[np.ndarray],
    index: int,
    row_lo: int,
    row_hi: int,
    peak: float,
    method: str,
) -> Tuple[int, int]:
    """Run the fused four-stage pass over rows ``[row_lo, row_hi)``.

    Returns ``(bands_executed, halo_rows_reused)``.  The dataflow per
    band ``[lo, hi)``:

    1. The line-buffer ring is topped up with horizontally-blurred
       normalized-luminance rows covering ``[lo - radius, hi + radius)``
       (virtual rows beyond the image clamp to the edge row, matching
       the staged path's edge-replicate padding); the ``halo`` rows
       above ``lo + radius`` carry over from the previous band.
    2. The vertical pass produces the band's blurred rows from ring
       rows: the staged folded convolution's exact multiply-add order
       (``method="folded"``), or one banded-Toeplitz GEMM per block and
       column tile (``method="gemm"``).
    3. The clipped mask band (written through to ``masks_out`` when the
       caller wants masks), its exponent, and the masked, adjusted
       output band are produced in-place in band scratch, and the result
       lands in ``out[index, lo:hi]`` — nothing frame-sized is ever
       allocated.

    In the GEMM regime ``row_lo`` is a multiple of
    :data:`GEMM_BLOCK_ROWS` and every product covers one whole block:
    bands round up to whole blocks (rows past the image are clamped
    virtual rows, computed and dropped), and the ring carries whole
    blocks, starting ``halo - 2 * radius`` rows above ``lo - radius``.
    """
    height, width = stack32.shape[1], stack32.shape[2]
    color = stack32.ndim == 4
    coeffs = plan.kernel.coefficients
    radius = (coeffs.size - 1) // 2
    band = plan.band_rows(height, width, color)
    gemm = method == "gemm"
    block = 1  # rows per product; bands, fills and the halo are whole blocks
    span_w = width  # ring columns
    if gemm:
        block = GEMM_BLOCK_ROWS
        band = -(-band // block) * block
        tiles, tile = gemm_tiles(width)
        span_w = tiles * tile
        h_matrix = plan.h_matrix(tile)
        v_matrix = plan.v_matrix()
    halo = -(-2 * radius // block) * block  # ring rows carried between bands
    skew = halo - 2 * radius  # ring index of virtual row lo - radius
    cap = band + halo
    masking = plan.params.masking
    adjust = plan.params.adjust
    # Normalization denominator, float32 exactly as the staged path's
    # ``stack32 / np.where(peaks == 0, 1, peaks)`` computes it.
    denom = np.float32(1.0) if peak == 0.0 else np.float32(peak)
    plane32 = stack32[index]

    ring = ws.get("ring", (cap, span_w))
    if not gemm:
        pair = ws.get("pair", (cap, span_w))
    padded = ws.get("pad", (cap, span_w + 2 * radius))
    if color:
        src32 = ws.get("src32", (cap, width, 3), np.float32)
        rgb = ws.get("rgb", (cap, width, 3))
        lum = ws.get("lum", (cap, width))
    else:
        src32 = ws.get("src32", (cap, width), np.float32)
    vert = ws.get("vert", (band, span_w))
    expo = ws.get("expo", (band, width))
    mask_scratch = (
        ws.get("mask", (band, width)) if masks_out is None else None
    )
    out_shape = (band, width, 3) if color else (band, width)
    oband32 = ws.get("oband32", out_shape, np.float32)
    oband = ws.get("oband", out_shape)
    black = ws.get("black", out_shape, bool)

    def windows(
        array: np.ndarray, blocks: int, rows_each: int, cols_each: int
    ) -> np.ndarray:
        """``(blocks, tiles, rows_each, cols_each)`` view of *array*:
        window ``(b, k)`` starts at row ``b * block``, column
        ``k * tile``.  Windows wider than a block or tile overlap (the
        GEMM operands' halos); no copy either way."""
        rs, cs = array.strides
        return as_strided(
            array,
            shape=(blocks, tiles, rows_each, cols_each),
            strides=(block * rs, tile * cs, rs, cs),
        )

    def fill_ring(dest: int, virtual_lo: int, virtual_hi: int) -> None:
        """H-blur normalized luminance for virtual rows [lo, hi) → ring."""
        n = virtual_hi - virtual_lo
        # Normalize in float32 (the staged division dtype).  Interior
        # rows read the plane view directly; virtual rows beyond the
        # image replicate the edge row — the vertical clamp applied at
        # the source, so the ring consumes like a pre-padded array.
        interior_lo = min(max(virtual_lo, 0), height)
        interior_hi = max(min(virtual_hi, height), 0)
        if interior_hi > interior_lo:
            at = interior_lo - virtual_lo
            np.divide(
                plane32[interior_lo:interior_hi],
                denom,
                out=src32[at : at + interior_hi - interior_lo],
            )
        for virtual in range(virtual_lo, min(virtual_hi, 0)):
            np.divide(plane32[0], denom, out=src32[virtual - virtual_lo])
        for virtual in range(max(virtual_lo, height), virtual_hi):
            np.divide(
                plane32[height - 1], denom, out=src32[virtual - virtual_lo]
            )
        # Luminance (float64), cast straight into the padded band with
        # edge-replicated columns — one pass, no unpadded staging row.
        center = padded[:n, radius : radius + width]
        if color:
            np.copyto(rgb[:n], src32[:n])
            np.matmul(rgb[:n], LUMA_WEIGHTS, out=lum[:n])
            np.copyto(center, lum[:n])
        else:
            np.copyto(center, src32[:n])
        padded[:n, :radius] = center[:, :1]
        padded[:n, radius + width :] = center[:, -1:]
        if gemm:
            blocks = n // block
            np.matmul(
                windows(padded, blocks, block, tile + 2 * radius),
                h_matrix,
                out=windows(ring[dest:], blocks, block, tile),
            )
        else:
            fold_rows_into(
                padded[:n], coeffs, ring[dest : dest + n], pair[:n]
            )

    bands_executed = 0
    halo_reused = 0
    previous_rows = 0  # rows blurred by the previous band (0 = none yet)
    lo = row_lo
    while lo < row_hi:
        hi = min(lo + band, row_hi)
        n = hi - lo
        rows = -(-n // block) * block  # rows the vertical pass blurs
        if previous_rows == 0:
            fill_ring(0, lo + radius - halo, lo + rows + radius)
        else:
            # The ring holds virtual [lo + radius - halo, lo + radius) at
            # positions [previous_rows, previous_rows + halo): slide it
            # to the front (NumPy buffers overlapping assignments) and
            # only compute the genuinely new rows.
            ring[:halo] = ring[previous_rows : previous_rows + halo]
            halo_reused += halo
            fill_ring(halo, lo + radius, lo + rows + radius)

        # Output row lo+t reads ring rows [skew + t, skew + t + 2*radius].
        if gemm:
            blocks = rows // block
            np.matmul(
                v_matrix,
                windows(ring[skew:], blocks, block + 2 * radius, tile),
                out=windows(vert, blocks, block, tile),
            )
        else:
            # The staged folded convolution's exact multiply-add order.
            np.multiply(
                coeffs[radius], ring[radius : radius + n], out=vert[:n]
            )
            for k in range(radius):
                mirror = 2 * radius - k
                np.add(
                    ring[k : k + n], ring[mirror : mirror + n], out=pair[:n]
                )
                pair[:n] *= coeffs[k]
                vert[:n] += pair[:n]

        mask_band = (
            masks_out[index, lo:hi] if masks_out is not None
            else mask_scratch[:n]
        )
        np.clip(vert[:n, :width], 0.0, 1.0, out=mask_band)
        masking_exponent_into(mask_band, expo[:n], masking)

        np.divide(plane32[lo:hi], denom, out=oband32[:n])
        np.copyto(oband[:n], oband32[:n])
        exponent = expo[:n, :, np.newaxis] if color else expo[:n]
        nonlinear_masking_into(
            oband[:n], exponent, masking, where_black=black[:n]
        )
        adjust_brightness_contrast_into(oband[:n], adjust)
        out[index, lo:hi] = oband[:n]

        bands_executed += 1
        previous_rows = rows
        lo = hi
    return bands_executed, halo_reused


class FusedExecutor:
    """Persistent worker pool running fused plans over row partitions.

    Parameters
    ----------
    threads:
        Worker-thread count; ``None`` reads ``REPRO_FUSED_THREADS`` and
        falls back to ``os.cpu_count()``.  With one thread the caller's
        thread executes inline (no pool hop).

    One executor may serve many concurrent callers (the service's batch
    threads all funnel through their mapper's executor): scratch lives
    in a checked-out workspace pool — a span chunk acquires a free
    workspace for its duration and returns it — so steady-state reuse
    is guaranteed by the pool, not by which executor thread happened to
    pick the chunk up (thread-local scratch would re-allocate whenever
    the schedule shifted).  Use as a context manager or call
    :meth:`close` to retire the pool; an unreferenced executor's
    threads also exit on garbage collection.
    """

    def __init__(self, threads: Optional[int] = None):
        if threads is None:
            threads = _default_threads()
        if threads < 1:
            raise ToneMapError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self._pool = (
            ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="fused"
            )
            if threads > 1
            else None
        )
        self._workspaces: List[_Workspace] = []  # live pooled workspaces
        # Free lists are keyed by scratch geometry (frame shape, radius,
        # band budget): a workspace sized for one geometry is only ever
        # reissued to runs of the same geometry, so mixed-shape traffic
        # through one executor keeps one warm scratch set per shape
        # instead of reallocating on every alternation (the same
        # size-classing idea as the arena's input pools).  Insertion
        # order tracks recency; geometries beyond
        # :data:`FUSED_POOLED_GEOMETRIES` are evicted LRU-first so
        # unbounded shape diversity cannot grow scratch without bound.
        self._free: "OrderedDict[tuple, List[_Workspace]]" = OrderedDict()
        # Captured once per executor: the scratch cap is host-memory
        # calibration, not per-call dispatch, so it rides the profile
        # active when the pool is built.
        self._pooled_geometries = active_profile().fused_pooled_geometries
        self._lock = threading.Lock()
        self._runs = 0
        self._frames = 0
        self._bands = 0
        self._halo = 0
        self._retired_bytes = 0
        self._threads_last = 0

    def _acquire_workspaces(self, key: tuple, count: int) -> List[_Workspace]:
        """Check out ``count`` distinct workspaces for one run.

        A run takes its whole set up front and pins chunk *i* to
        workspace *i*, so how the executor threads interleave (or
        whether they overlap at all) cannot change which scratch gets
        touched — the warm-up run allocates exactly the set every later
        run of the same geometry ``key`` reuses, which is what makes
        the steady-state ``intermediate_bytes == 0`` gate
        deterministic.
        """
        with self._lock:
            free = self._free.setdefault(key, [])
            self._free.move_to_end(key)  # most recently used
            acquired = []
            for _ in range(count):
                if free:
                    acquired.append(free.pop())
                else:
                    ws = _Workspace()
                    self._workspaces.append(ws)
                    acquired.append(ws)
            return acquired

    def _release_workspaces(
        self, key: tuple, workspaces: List[_Workspace]
    ) -> None:
        with self._lock:
            # setdefault, not indexing: while this run was in flight its
            # geometry's free-list entry may have been LRU-evicted by
            # releases of other geometries — the returning workspaces
            # then re-seed the entry (as most-recently-used) instead of
            # raising and leaking.
            self._free.setdefault(key, []).extend(workspaces)
            self._free.move_to_end(key)
            while len(self._free) > self._pooled_geometries:
                _, evicted = self._free.popitem(last=False)  # LRU geometry
                gone = set(map(id, evicted))
                # Keep the cumulative-allocation counter monotonic: an
                # evicted workspace's history moves to the retired sum.
                self._retired_bytes += sum(
                    ws.bytes_allocated for ws in evicted
                )
                self._workspaces = [
                    ws for ws in self._workspaces if id(ws) not in gone
                ]

    def run(
        self,
        plan: FusedToneMapPlan,
        stack32: np.ndarray,
        out: np.ndarray,
        masks_out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Tone-map ``stack32`` into ``out`` through the fused dataflow.

        ``stack32`` is a float32 ``(N, H, W[, 3])`` stack (the staged
        path's storage dtype at the normalization boundary — outputs are
        bit-compatible only from float32 inputs).  ``out`` is written
        band by band (float64 values cast to ``out``'s dtype on
        assignment, exactly like the staged ``run_stack``).  With
        ``masks_out`` (float64 ``(N, H, W)``) the clipped blurred
        luminance is written through as it is produced.
        """
        stack32 = np.asarray(stack32)
        if stack32.dtype != np.float32:
            raise ToneMapError(
                f"fused run expects a float32 stack, got {stack32.dtype}"
            )
        if stack32.ndim not in (3, 4) or (
            stack32.ndim == 4 and stack32.shape[3] != 3
        ):
            raise ToneMapError(
                f"fused run expects (N, H, W) or (N, H, W, 3), got "
                f"{stack32.shape}"
            )
        if out.shape != stack32.shape:
            raise ToneMapError(
                f"out shape {out.shape} does not match stack {stack32.shape}"
            )
        if masks_out is not None:
            want = stack32.shape[:3]
            if masks_out.shape != want or masks_out.dtype != np.float64:
                raise ToneMapError(
                    f"masks_out must be float64 of shape {want}, got "
                    f"{masks_out.dtype} {masks_out.shape}"
                )
        count, height = stack32.shape[0], stack32.shape[1]
        # Per-image normalization peaks, computed once over the float32
        # stack (max is exact, so the reduction order is irrelevant).
        peaks = np.amax(stack32, axis=tuple(range(1, stack32.ndim)))

        # One method for the whole run, even if the profile moves mid-run.
        method = plan.band_method()
        chunks = _partition_spans(
            count, height, self.threads,
            GEMM_BLOCK_ROWS if method == "gemm" else 1,
        )
        # Everything that sizes band scratch: frame geometry, kernel
        # radius, band budget, and band method.
        geometry = (
            tuple(stack32.shape[1:]),
            plan.kernel.radius,
            plan.band_bytes,
            method,
        )
        workspaces = self._acquire_workspaces(geometry, len(chunks))

        def work(index: int) -> Tuple[int, int]:
            ws = workspaces[index]
            bands = halo = 0
            for image, lo, hi in chunks[index]:
                b, h = _process_span(
                    plan, ws, stack32, out, masks_out,
                    image, lo, hi, float(peaks[image]), method,
                )
                bands += b
                halo += h
            return bands, halo

        try:
            if self._pool is None or len(chunks) == 1:
                results = [work(i) for i in range(len(chunks))]
            else:
                futures = [
                    self._pool.submit(work, i) for i in range(len(chunks))
                ]
                results = [future.result() for future in futures]
        finally:
            self._release_workspaces(geometry, workspaces)

        with self._lock:
            self._runs += 1
            self._frames += count
            self._bands += sum(r[0] for r in results)
            self._halo += sum(r[1] for r in results)
            self._threads_last = len(chunks)
        return out

    @property
    def stats(self) -> FusedStats:
        """Snapshot of the fused-dataflow counters."""
        with self._lock:
            workspaces = list(self._workspaces)
            return FusedStats(
                runs=self._runs,
                frames=self._frames,
                bands_executed=self._bands,
                halo_rows_reused=self._halo,
                intermediate_bytes=self._retired_bytes + sum(
                    ws.bytes_allocated for ws in workspaces
                ),
                threads_used=self._threads_last,
                scratch_bytes=sum(
                    ws.resident_bytes for ws in workspaces
                ),
            )

    def close(self) -> None:
        """Retire the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "FusedExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
