"""Workload → :class:`ExecutionPlan`: the model-driven dispatch planner.

The runtime used to pick execution paths through env-var thresholds
scattered across modules and captured at import.  This module is the
replacement: describe a workload (shape, sigma/taps, batch, dtype,
threads), and :class:`Planner` consults the host calibration
(:mod:`repro.planner.profile`) plus the analytic cost model
(:mod:`repro.planner.cost`) to emit one :class:`ExecutionPlan` — the
record of every dispatch decision (engine, blur strategy, band budget,
thread partition) with a human-readable cost rationale.  Runtime
constructors (:class:`repro.runtime.batch.BatchToneMapper`,
:class:`repro.runtime.shard.ShardPool`,
:class:`repro.runtime.service.ToneMapService`) accept a plan and follow
it verbatim; without one they fall back to the same call-time decision
formulas, so planned and unplanned execution cannot diverge.

Plans are frozen, JSON-round-trippable (golden snapshot tests pin them),
and picklable (a :class:`~repro.runtime.shard.ShardPool` ships its plan
to worker processes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

from repro.errors import ToneMapError
from repro.planner import cost as _cost
from repro.planner.profile import (
    CalibrationProfile,
    active_profile,
    select_band_method,
    select_blur_method,
)

#: Workload dtypes the planner understands.  ``float32``/``float64``
#: take the float pipeline (fused-eligible); ``fixed`` is the Q-format
#: fixed-point pipeline, which is staged-only (the fused engine *is*
#: the float blur).
WORKLOAD_DTYPES = ("float32", "float64", "fixed")


@dataclass(frozen=True)
class Workload:
    """What the planner plans for: one tone-mapping traffic description.

    ``sigma``/``radius`` follow :class:`repro.tonemap.gaussian.GaussianKernel`
    semantics exactly (``radius=None`` → ``ceil(3 * sigma)``), so the
    planner's notion of kernel width cannot drift from the kernel the
    runtime actually builds.
    """

    height: int
    width: int
    batch: int = 1
    sigma: float = 16.0
    radius: Optional[int] = None
    dtype: str = "float32"
    color: bool = False
    threads: Optional[int] = None

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise ToneMapError(
                f"workload shape must be positive, got "
                f"{self.height}x{self.width}"
            )
        if self.batch < 1:
            raise ToneMapError(f"batch must be >= 1, got {self.batch}")
        if self.sigma <= 0:
            raise ToneMapError(f"sigma must be positive, got {self.sigma}")
        if self.radius is not None and self.radius < 1:
            raise ToneMapError(f"radius must be >= 1, got {self.radius}")
        if self.dtype not in WORKLOAD_DTYPES:
            raise ToneMapError(
                f"unknown workload dtype {self.dtype!r}; expected one of "
                f"{WORKLOAD_DTYPES}"
            )
        if self.threads is not None and self.threads < 1:
            raise ToneMapError(f"threads must be >= 1, got {self.threads}")

    @property
    def effective_radius(self) -> int:
        """Kernel radius, defaulted the way :class:`GaussianKernel` does."""
        if self.radius is not None:
            return self.radius
        return max(1, math.ceil(3.0 * self.sigma))

    @property
    def taps(self) -> int:
        return 2 * self.effective_radius + 1

    @property
    def plane_bytes(self) -> int:
        """Float64 working-set bytes of one luminance plane — the unit
        every calibrated size crossover is expressed in."""
        return self.height * self.width * 8

    @property
    def fixed(self) -> bool:
        return self.dtype == "fixed"

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Workload":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def _resolve_threads(requested: Optional[int]) -> int:
    """Fused worker-thread count: explicit request, else the runtime
    default (``REPRO_FUSED_THREADS`` env, else CPU count)."""
    if requested is not None:
        return requested
    from repro.runtime.fused import _default_threads

    return _default_threads()


@dataclass(frozen=True)
class ExecutionPlan:
    """Every dispatch decision for one workload, with its rationale.

    Attributes
    ----------
    workload / profile:
        What was planned and against which host calibration.  The
        profile is embedded so executing the plan later (or in another
        process — plans are picklable) replays exactly the decisions
        recorded here, whatever the environment does in between.
    engine:
        ``"fused"`` (single-pass band dataflow) for every float
        workload, ``"staged"`` (stage-at-a-time with full-frame
        temporaries) for fixed-point ones.
    blur_method:
        Staged row-convolution strategy (``folded``/``tiled``/``fft``)
        — the path the staged engine runs, the reference the fused
        engine's tolerance contract is stated against, and what picks
        the fused engine's :attr:`band_method`.
    band_bytes / band_rows:
        Fused band scratch budget and the resulting rows per band for
        this workload's geometry.
    threads / partitions:
        Fused worker threads and how many ``(image, row)`` chunks the
        row space actually splits into (≤ threads for small workloads).
    rationale:
        Human-readable lines: which calibrated crossover decided what,
        plus the cost model's candidate estimates.
    cost_estimates:
        ``(candidate, model_seconds)`` pairs from
        :func:`repro.planner.cost.estimate_candidates`, cheapest first.
        These *explain* the plan (and golden tests pin their ordering);
        the decisions come from the calibrated crossovers.
    """

    workload: Workload
    profile: CalibrationProfile
    engine: str
    blur_method: str
    band_bytes: int
    band_rows: int
    threads: int
    partitions: int
    rationale: Tuple[str, ...] = ()
    cost_estimates: Tuple[Tuple[str, float], ...] = ()

    @property
    def band_method(self) -> Optional[str]:
        """How the fused engine blurs each band under this plan:
        ``"gemm"`` where the staged reference is the FFT, else
        ``"folded"`` (see :func:`~repro.planner.profile.select_band_method`);
        ``None`` for a staged plan."""
        if self.engine != "fused":
            return None
        return "gemm" if self.blur_method == "fft" else "folded"

    def decision(self) -> dict:
        """The plan's load-bearing choices (what golden tests pin)."""
        return {
            "engine": self.engine,
            "blur_method": self.blur_method,
            "band_method": self.band_method,
            "band_bytes": self.band_bytes,
            "band_rows": self.band_rows,
            "partitions": self.partitions,
        }

    def describe(self) -> str:
        """Multi-line human-readable plan dump (the CLI's output)."""
        w = self.workload
        lines = [
            f"workload: {w.batch}x{w.height}x{w.width} "
            f"{'color' if w.color else 'gray'} {w.dtype}, "
            f"sigma={w.sigma} ({w.taps} taps)",
            f"profile: {self.profile.source} "
            f"({'calibrated' if self.profile.calibrated else 'defaults'}, "
            f"host: {self.profile.host})",
            f"plan: engine={self.engine} blur={self.blur_method} "
            f"bands={self.band_method or '-'} band_bytes={self.band_bytes} "
            f"band_rows={self.band_rows} threads={self.threads} "
            f"partitions={self.partitions}",
            "rationale:",
        ]
        lines.extend(f"  - {line}" for line in self.rationale)
        lines.append("cost model (relative, not wall-clock):")
        lines.extend(
            f"  - {line}"
            for line in _cost.format_candidates(dict(self.cost_estimates))
        )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "workload": self.workload.to_json_dict(),
            "profile": self.profile.to_json_dict(),
            "engine": self.engine,
            "blur_method": self.blur_method,
            "band_bytes": self.band_bytes,
            "band_rows": self.band_rows,
            "threads": self.threads,
            "partitions": self.partitions,
            "rationale": list(self.rationale),
            "cost_estimates": [list(pair) for pair in self.cost_estimates],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExecutionPlan":
        return cls(
            workload=Workload.from_json_dict(data["workload"]),
            profile=CalibrationProfile.from_json_dict(data["profile"]),
            engine=data["engine"],
            blur_method=data["blur_method"],
            band_bytes=data["band_bytes"],
            band_rows=data["band_rows"],
            threads=data["threads"],
            partitions=data["partitions"],
            rationale=tuple(data.get("rationale", ())),
            cost_estimates=tuple(
                (name, float(seconds))
                for name, seconds in data.get("cost_estimates", ())
            ),
        )


class Planner:
    """Emits :class:`ExecutionPlan` objects from a calibration profile.

    ``profile=None`` (the default) resolves the active profile *per
    plan* — env overrides and ``override()`` scopes take effect
    immediately; pass a profile to pin one calibration for the
    planner's lifetime (the golden tests pin the checked-in reference
    profile this way).
    """

    def __init__(self, profile: Optional[CalibrationProfile] = None):
        self._profile = profile

    @property
    def profile(self) -> CalibrationProfile:
        return (
            self._profile if self._profile is not None else active_profile()
        )

    def plan(self, workload: Workload) -> ExecutionPlan:
        from repro.runtime.fused import (
            GEMM_BLOCK_ROWS,
            _partition_spans,
            band_rows_for,
        )

        profile = self.profile
        taps = workload.taps
        plane_bytes = workload.plane_bytes

        # The fused engine is float-only (it *is* the blur); every float
        # workload runs it.
        engine = "staged" if workload.fixed else "fused"
        blur_method = select_blur_method(taps, plane_bytes, profile)
        band_method = (
            select_band_method(taps, profile) if engine == "fused" else None
        )
        band_bytes = profile.fused_band_bytes
        band_rows = band_rows_for(
            workload.height,
            workload.width,
            workload.color,
            workload.effective_radius,
            band_bytes,
        )
        threads = _resolve_threads(workload.threads)
        partitions = len(
            _partition_spans(
                workload.batch, workload.height, threads,
                GEMM_BLOCK_ROWS if band_method == "gemm" else 1,
            )
        )

        costs = _cost.estimate_candidates(
            workload.batch, workload.height, workload.width, taps
        )
        rationale = self._rationale(
            workload, profile, blur_method, band_method, band_rows,
            partitions,
        )
        return ExecutionPlan(
            workload=workload,
            profile=profile,
            engine=engine,
            blur_method=blur_method,
            band_bytes=band_bytes,
            band_rows=band_rows,
            threads=threads,
            partitions=partitions,
            rationale=tuple(rationale),
            cost_estimates=tuple(
                sorted(costs.items(), key=lambda item: item[1])
            ),
        )

    @staticmethod
    def _rationale(
        workload: Workload,
        profile: CalibrationProfile,
        blur_method: str,
        band_method: Optional[str],
        band_rows: int,
        partitions: int,
    ) -> list:
        taps = workload.taps
        lines = []
        if workload.fixed:
            lines.append(
                "engine=staged: fixed-point pipeline — the fused engine "
                "is float-only (it is the float blur)"
            )
        else:
            lines.append(
                "engine=fused: float workload — the band engine beats "
                "staged execution at every kernel width"
            )
        if blur_method == "fft":
            lines.append(
                f"blur=fft: taps {taps} >= fft_crossover_taps "
                f"{profile.fft_crossover_taps} — O(W log W) per row beats "
                f"{(taps + 1) // 2} folded multiply passes"
            )
        elif blur_method == "tiled":
            lines.append(
                f"blur=tiled: taps {taps} < fft_crossover_taps "
                f"{profile.fft_crossover_taps} and plane "
                f"{workload.plane_bytes} B >= tiled_min_plane_bytes "
                f"{profile.tiled_min_plane_bytes} — block rows so the "
                "folded working set stays cache-resident"
            )
        else:
            lines.append(
                f"blur=folded: taps {taps} < fft_crossover_taps "
                f"{profile.fft_crossover_taps} and plane "
                f"{workload.plane_bytes} B < tiled_min_plane_bytes "
                f"{profile.tiled_min_plane_bytes} — temporaries stay "
                "cached, blocking would only add loop overhead"
            )
        if band_method is not None:
            lines.append(
                f"fused bands={band_method}, band_rows={band_rows} "
                f"(band budget {profile.fused_band_bytes} B), "
                f"{partitions} row partition(s)"
            )
        return lines


def plan_for(
    height: int,
    width: int,
    batch: int = 1,
    sigma: float = 16.0,
    radius: Optional[int] = None,
    dtype: str = "float32",
    color: bool = False,
    threads: Optional[int] = None,
    profile: Optional[CalibrationProfile] = None,
) -> ExecutionPlan:
    """One-call convenience: build the workload and plan it."""
    return Planner(profile).plan(
        Workload(
            height=height,
            width=width,
            batch=batch,
            sigma=sigma,
            radius=radius,
            dtype=dtype,
            color=color,
            threads=threads,
        )
    )


def pinned(plan: ExecutionPlan, **changes) -> ExecutionPlan:
    """A copy of *plan* with explicit decision overrides applied.

    The escape hatch for operators who want the planner's record-keeping
    but a specific path: ``pinned(plan, engine="staged")`` (the staged
    oracle) keeps the workload, profile, and rationale but notes the pin.
    """
    allowed = {"engine", "blur_method", "band_bytes", "threads"}
    unknown = set(changes) - allowed
    if unknown:
        raise ToneMapError(
            f"cannot pin unknown plan fields: {sorted(unknown)}"
        )
    note = ", ".join(f"{k}={v}" for k, v in sorted(changes.items()))
    return replace(
        plan,
        **changes,
        rationale=plan.rationale + (f"pinned by caller: {note}",),
    )
