"""Calibration profiles and the shared dispatch-decision formulas.

This module is the planner's foundation and deliberately imports nothing
from the rest of the package (or from the tonemap/runtime modules that
consult it), so the hot paths can read it without import cycles:

* :class:`CalibrationProfile` — the serialized host calibration: every
  crossover the runtime used to scatter across env-var module constants
  (``FFT_CROSSOVER_TAPS``, ``TILED_MIN_PLANE_BYTES``,
  ``FUSED_BAND_BYTES``) collected into one frozen, JSON-round-trippable
  record with provenance.
* :func:`active_profile` — the **call-time** resolution every dispatch
  decision goes through.  Nothing is captured at import any more: the
  resolution order is (1) a profile pinned programmatically with
  :func:`set_active_profile` / :func:`override`, else (2) the file named
  by ``REPRO_PLANNER_PROFILE``, else (3) the built-in defaults — and in
  cases (2)-(3) the historical per-threshold env vars are overlaid
  *fresh on every call*, so exporting ``REPRO_FFT_CROSSOVER_TAPS`` (or
  un-exporting it) moves the very next dispatch without
  ``importlib.reload``.  Env vars thereby remain explicit overrides
  that pin a decision; they are no longer the decision mechanism.
* :func:`select_blur_method` / :func:`select_band_method` — the
  *single* definitions of the dispatch formulas.
  ``repro.tonemap.gaussian`` applies them per blur call,
  ``repro.runtime.fused`` per fused plan, and
  :class:`repro.planner.plan.Planner` ahead of time when emitting an
  :class:`~repro.planner.plan.ExecutionPlan` — so a planned decision
  and an inline ``method="auto"`` decision cannot diverge.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import List, Optional, Union

#: Schema version of the serialized profile.  Bump on incompatible field
#: changes; :func:`load_or_default` treats a mismatched (stale) version
#: like a missing file and falls back to the built-in defaults rather
#: than letting an old calibration silently misdirect the dispatch.
PROFILE_VERSION = 2

#: Built-in defaults, measured on the PR 1/3/5 reference hosts.  These
#: are the values the planner uses when no calibration profile has been
#: loaded; ``repro.planner.calibrate`` re-measures them for other hosts.
DEFAULT_FFT_CROSSOVER_TAPS = 25
DEFAULT_TILED_MIN_PLANE_BYTES = 1 << 23
DEFAULT_FUSED_BAND_BYTES = 1 << 22
DEFAULT_FUSED_POOLED_GEOMETRIES = 8

#: Env var naming a profile JSON file to load as the base calibration.
PROFILE_ENV = "REPRO_PLANNER_PROFILE"

#: Per-threshold env overrides (the historical interface, still honored
#: — but now read at call time, overlaid on the base profile).
THRESHOLD_ENV_VARS = {
    "fft_crossover_taps": "REPRO_FFT_CROSSOVER_TAPS",
    "tiled_min_plane_bytes": "REPRO_TILED_MIN_PLANE_BYTES",
    "fused_band_bytes": "REPRO_FUSED_BAND_BYTES",
    "fused_pooled_geometries": "REPRO_FUSED_POOLED_GEOMETRIES",
}


def _env_positive_int(name: str, default: int) -> int:
    """An env-var override (must be a positive int); malformed or
    non-positive values fall back to the default rather than poisoning
    the dispatch."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else default


@dataclass(frozen=True)
class CalibrationProfile:
    """One host's calibrated dispatch crossovers, with provenance.

    Attributes
    ----------
    fft_crossover_taps:
        Kernel width (taps) at which the staged row convolution leaves
        the folded sliding window for the FFT.
    tiled_min_plane_bytes:
        Plane size (float64 bytes) at which narrow-kernel convolution
        switches from ``folded`` to the cache-blocked ``tiled``
        traversal.
    fused_band_bytes:
        Scratch budget for one fused band's working set.
    fused_pooled_geometries:
        Distinct scratch geometries a fused executor keeps warm (not a
        dispatch crossover, but host-memory calibration all the same).
    host / source / calibrated:
        Provenance: free-form host description, where the numbers came
        from (``"defaults"``, ``"calibration"``, ``"override"``, a file
        path), and whether they were measured (vs built-in).
    version:
        Serialization schema version (see :data:`PROFILE_VERSION`).
    """

    fft_crossover_taps: int = DEFAULT_FFT_CROSSOVER_TAPS
    tiled_min_plane_bytes: int = DEFAULT_TILED_MIN_PLANE_BYTES
    fused_band_bytes: int = DEFAULT_FUSED_BAND_BYTES
    fused_pooled_geometries: int = DEFAULT_FUSED_POOLED_GEOMETRIES
    host: str = "builtin defaults"
    source: str = "defaults"
    calibrated: bool = False
    version: int = PROFILE_VERSION

    def __post_init__(self) -> None:
        for name in (
            "fft_crossover_taps",
            "tiled_min_plane_bytes",
            "fused_band_bytes",
            "fused_pooled_geometries",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"profile threshold {name} must be a positive int, "
                    f"got {value!r}"
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CalibrationProfile":
        """Build from a parsed JSON object.

        Unknown keys (e.g. the calibrator's raw sweep rows) are ignored;
        missing keys take the built-in defaults.  Raises ``ValueError``
        for a wrong schema version or invalid threshold values — the
        caller decides whether that is fatal (:meth:`load`) or a
        fallback (:func:`load_or_default`).
        """
        if not isinstance(data, dict):
            raise ValueError(f"profile JSON must be an object, got {type(data)}")
        version = data.get("version", PROFILE_VERSION)
        if version != PROFILE_VERSION:
            raise ValueError(
                f"stale profile: schema version {version} != "
                f"{PROFILE_VERSION}"
            )
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def save(self, path: Union[str, Path], extra: Optional[dict] = None) -> Path:
        """Write the profile (plus optional extra sections) as JSON."""
        path = Path(path)
        payload = self.to_json_dict()
        if extra:
            for key, value in extra.items():
                payload.setdefault(key, value)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CalibrationProfile":
        """Load a profile; raises on a missing, unparseable, or stale file."""
        path = Path(path)
        profile = cls.from_json_dict(json.loads(path.read_text()))
        return replace(profile, source=str(path))


def load_or_default(
    path: Union[str, Path, None]
) -> CalibrationProfile:
    """Load *path*, falling back to built-in defaults when it is missing,
    unparseable, or a stale schema version.

    The fallback is deliberate policy, not error-swallowing: a serving
    process pointed at a deleted or outdated profile must keep making
    *sane* dispatch decisions (the defaults) rather than crash in the
    hot path — the golden-plan tests pin what those defaults decide.
    """
    if path is None:
        return CalibrationProfile()
    try:
        return CalibrationProfile.load(path)
    except (OSError, ValueError, json.JSONDecodeError):
        return CalibrationProfile()


# ----------------------------------------------------------------------
# Active-profile resolution (call time, never import time)
# ----------------------------------------------------------------------
_PIN_LOCK = threading.Lock()
_PINNED: List[CalibrationProfile] = []

#: Cache of the ``REPRO_PLANNER_PROFILE`` file, keyed by (path, mtime):
#: re-reading a JSON file on every blur call would be absurd, but a
#: *changed* file (recalibration mid-flight) must be picked up.
_FILE_CACHE: dict = {}


def _base_profile() -> CalibrationProfile:
    """The env-file profile or the defaults (no per-field env overlay)."""
    path = os.environ.get(PROFILE_ENV)
    if not path:
        return CalibrationProfile()
    try:
        mtime = os.stat(path).st_mtime_ns
    except OSError:
        return CalibrationProfile()
    key = (path, mtime)
    cached = _FILE_CACHE.get(key)
    if cached is None:
        cached = load_or_default(path)
        _FILE_CACHE.clear()  # one live entry; old mtimes are dead
        _FILE_CACHE[key] = cached
    return cached


def active_profile() -> CalibrationProfile:
    """The profile every dispatch decision consults, resolved *now*.

    A programmatically pinned profile wins outright (tests and the
    calibrator pin per-case without touching the environment); otherwise
    the base profile (env file or defaults) is overlaid with any
    per-threshold env vars, read fresh so exports made after import
    still take effect.
    """
    with _PIN_LOCK:
        if _PINNED:
            return _PINNED[-1]
    profile = _base_profile()
    overrides = {}
    for field_name, env_name in THRESHOLD_ENV_VARS.items():
        current = getattr(profile, field_name)
        value = _env_positive_int(env_name, current)
        if value != current:
            overrides[field_name] = value
    if overrides:
        profile = replace(profile, **overrides, source="env-override")
    return profile


def set_active_profile(
    profile: Optional[CalibrationProfile],
) -> None:
    """Pin *profile* as the active calibration (``None`` unpins all).

    A pinned profile is used verbatim — no env overlay — so a test or a
    service that loaded a specific calibration gets exactly it.
    """
    with _PIN_LOCK:
        _PINNED.clear()
        if profile is not None:
            _PINNED.append(profile)


class override:
    """Context manager pinning threshold overrides for the enclosed calls.

    >>> with override(fft_crossover_taps=5):
    ...     ...  # every ``method="auto"`` dispatch in here sees taps>=5 as FFT

    Overlays the currently active profile, so nesting composes.  This is
    the per-case re-pinning mechanism the env-var module constants never
    offered: no ``importlib.reload``, no process restart.
    """

    def __init__(self, **thresholds):
        self._thresholds = thresholds
        self._profile: Optional[CalibrationProfile] = None

    def __enter__(self) -> CalibrationProfile:
        self._profile = replace(
            active_profile(), **self._thresholds, source="override"
        )
        with _PIN_LOCK:
            _PINNED.append(self._profile)
        return self._profile

    def __exit__(self, exc_type, exc, tb) -> None:
        with _PIN_LOCK:
            if self._profile in _PINNED:
                _PINNED.remove(self._profile)


# ----------------------------------------------------------------------
# The dispatch formulas (single definitions, shared by every consumer)
# ----------------------------------------------------------------------
def select_blur_method(
    taps: int, plane_bytes: int, profile: Optional[CalibrationProfile] = None
) -> str:
    """Staged row-convolution strategy for a kernel/plane combination.

    FFT once the kernel is wide enough to amortize the transforms;
    below that, the cache-blocked tiled traversal when the plane's
    working set spills last-level cache, else the plain folded window.
    """
    profile = profile if profile is not None else active_profile()
    if taps >= profile.fft_crossover_taps:
        return "fft"
    if plane_bytes >= profile.tiled_min_plane_bytes:
        return "tiled"
    return "folded"


def select_band_method(
    taps: int, profile: Optional[CalibrationProfile] = None
) -> str:
    """How the fused band engine blurs each band.

    ``"folded"`` wherever the staged dispatch resolves folded/tiled (the
    bit-identity contract requires the exact same arithmetic);
    ``"gemm"`` — banded-Toeplitz matrix products — where it resolves to
    the FFT, the regime in which only the 1e-9 band is promised.
    """
    if select_blur_method(taps, 0, profile) == "fft":
        return "gemm"
    return "folded"
