"""The silent film: what the pipeline draws, as a pure function.

The timing engines model what each stage *costs*; this module computes
what the stages *draw*.  The pixels never depend on timing: every filter
instance draws from its own seeded stream (:func:`filter_stream`) and
takes its frames in order, so the film is a function of the workload,
the configuration, the pipeline count, the frame count and the seed —
not of the arrangement, the DVFS plan or the engine.
"""

from __future__ import annotations

import zlib
from typing import List

import numpy as np

from ..filters import default_filter_chain
from .describe import CONFIGURATIONS
from .workload import WalkthroughWorkload

__all__ = ["filter_stream", "render_film"]


def filter_stream(seed: int, key: str, pipeline: int) -> np.random.Generator:
    """An independent RNG stream for one filter instance.

    Derived from the root seed via SeedSequence spawning, so the
    stochastic filters' draws do not depend on event interleaving —
    identical seeds give identical films for every arrangement.
    """
    # zlib.crc32 is stable across processes (unlike str hash()).
    digest = zlib.crc32(f"{key}/{pipeline}".encode("ascii"))
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(digest,)))


def render_film(workload: WalkthroughWorkload, config: str, pipelines: int,
                frames: int, seed: int = 0) -> List[np.ndarray]:
    """The ``frames`` assembled frames a ``config`` run displays.

    ``single_core`` renders each full frame and runs the filter chain on
    one ``default_rng(seed)`` stream.  The parallel configurations hand
    strip ``p`` to pipeline ``p``'s chain, each filter on its own
    :func:`filter_stream`; ``n_renderers`` renders the strips sort-first,
    the others slice a full render.  The swap filter flips each strip,
    so the strips are stacked in reverse order to keep the frame
    top-down.
    """
    if config not in CONFIGURATIONS:
        raise ValueError(f"unknown config {config!r}; "
                         f"choose from {CONFIGURATIONS}")
    if not 1 <= frames <= workload.frames:
        raise ValueError(f"frames must be in 1..{workload.frames}, "
                         f"got {frames}")
    if pipelines < 1:
        raise ValueError("pipelines must be >= 1")
    renderer = workload.renderer
    full = workload.viewport()
    film: List[np.ndarray] = []
    if config == "single_core":
        rng = np.random.default_rng(seed)
        for frame in range(frames):
            image = renderer.render(workload.path.camera_at(frame), full)
            for filt in default_filter_chain():
                image = filt.apply(image, rng)
            film.append(image)
        return film

    n = pipelines
    chains = [[(filt, filter_stream(seed, filt.key, p))
               for filt in default_filter_chain()] for p in range(n)]
    views = [workload.viewport(p, n) for p in range(n)]
    for frame in range(frames):
        camera = workload.path.camera_at(frame)
        if config == "n_renderers":
            strips = [renderer.render(camera, vp, strip_index=p, num_strips=n)
                      for p, vp in enumerate(views)]
        else:
            image = renderer.render(camera, full)
            strips = [image[vp.y_start:vp.y_start + vp.height]
                      for vp in views]
        for p, chain in enumerate(chains):
            for filt, rng in chain:
                strips[p] = filt.apply(strips[p], rng)
        film.append(np.vstack(strips[::-1]))
    return film
