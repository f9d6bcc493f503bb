"""Workload definitions and the seeded input generator.

The generator is the only place a seed enters the benchmark.  It returns
plain data: the distinct frames of a workload, the open-loop schedule
(when each frame is due and which frame it is) and the frame order of
the closed-loop phase.  ``drive.py`` hands the program exactly that and
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.experiments.workload import make_paper_image, make_paper_tonemap_params
from repro.image.hdr import HDRImage
from repro.image.synthetic import SCENE_BUILDERS, SceneParams
from repro.tonemap.pipeline import ToneMapParams


@dataclass(frozen=True)
class Spec:
    """What one workload sends, and how the stack serving it is built.

    ``rate_fps`` is the fixed open-loop arrival rate; a workload with a
    rate is served through a ``ToneMapIngestor``, one without is a
    closed loop of ``map_many`` calls.  ``limit_ms`` is the per-frame
    latency limit that ``slo_attainment`` is counted against.
    ``open_share`` is the part of the measured seconds spent in the
    open-loop phase; the rest is a saturating closed-loop phase with
    ``window`` frames in flight that gives ``throughput_mpx_s``.
    """

    name: str
    size: int
    color: bool
    batch_size: int
    distinct: int
    rate_fps: float
    limit_ms: float
    open_share: float
    window: int
    sigma: Optional[float] = None
    setups: int = 3

    def params(self) -> ToneMapParams:
        if self.sigma is None:
            return make_paper_tonemap_params()
        return ToneMapParams(sigma=self.sigma)


SPECS = {
    # Offline caller, closed loop, one map_many call of 4 frames in
    # flight: the paper's 1024^2 RGB workload, radius 28 / 57 taps.
    "paper_offline": Spec(
        name="paper_offline",
        size=1024,
        color=True,
        batch_size=4,
        distinct=4,
        rate_fps=0.0,
        limit_ms=1000.0,
        open_share=0.0,
        window=1,
        setups=5,
    ),
    # Small frames through the ingestor: an open loop of Poisson arrivals
    # at a fixed rate well below the sharded stack's capacity (for the
    # SLO), then a closed loop of synchronous callers (for latency and
    # throughput), whose figures move with the host's CPU share rather
    # than amplifying its stalls into a backlog.
    "stream_small": Spec(
        name="stream_small",
        size=64,
        color=False,
        batch_size=8,
        distinct=64,
        rate_fps=700.0,
        limit_ms=100.0,
        open_share=0.5,
        window=16,
        sigma=4.0,
        setups=11,
    ),
}


@dataclass(frozen=True)
class Inputs:
    """Everything the program receives for one run.

    ``due_s[i]`` is when open-loop frame ``picks[i]`` is sent, as an
    offset from the phase start; ``order`` is the frame sequence of the
    closed-loop phase.
    """

    frames: Tuple[HDRImage, ...]
    due_s: np.ndarray
    picks: np.ndarray
    order: np.ndarray


def _frames(spec: Spec, rng: np.random.Generator) -> Tuple[HDRImage, ...]:
    frames = []
    scenes = sorted(SCENE_BUILDERS)
    for _ in range(spec.distinct):
        scene_seed = int(rng.integers(1 << 31))
        if spec.name == "paper_offline":
            frames.append(make_paper_image(size=spec.size, seed=scene_seed))
            continue
        builder = SCENE_BUILDERS[scenes[int(rng.integers(len(scenes)))]]
        frames.append(
            builder(
                SceneParams(
                    height=spec.size,
                    width=spec.size,
                    seed=scene_seed,
                    color=spec.color,
                )
            )
        )
    return tuple(frames)


def generate(spec: Spec, seed: int, open_seconds: float) -> Inputs:
    """Frames and schedule for *spec*, fully determined by *seed*.

    The open loop sends Poisson arrivals at ``spec.rate_fps`` for
    ``open_seconds``, each picking a frame uniformly.
    """
    rng = np.random.default_rng([seed, len(spec.name)])
    frames = _frames(spec, rng)
    due = np.empty(0)
    if spec.rate_fps > 0 and open_seconds > 0:
        count = int(open_seconds * spec.rate_fps * 1.5) + 64
        due = np.cumsum(rng.exponential(1.0 / spec.rate_fps, count))
        due = due[due < open_seconds]
    picks = rng.integers(len(frames), size=due.size)
    # A closed loop never needs more frames than this; it cycles if so.
    order = rng.integers(len(frames), size=1 << 16)
    return Inputs(frames, due, picks, order)
