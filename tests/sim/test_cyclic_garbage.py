"""An event-engine run leaves no cyclic garbage.

Granted resource requests and finished processes used to reference
themselves (a request's value was the request; a process cached its own
bound ``_resume``), so every frame left cycles only the cyclic GC could
free; the simulator's timeout free list was a per-run cycle on top.
Reference counting alone now frees a finished run.
"""

import gc

from repro.pipeline import PipelineRunner


def _cyclic_garbage(frames: int) -> int:
    """Objects the cyclic GC finds after one event-engine run."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        PipelineRunner(config="one_renderer", pipelines=3,
                       frames=frames).run()
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_event_run_leaves_no_per_frame_cycles():
    # warm the memoized workload and its render profiles first
    PipelineRunner(config="one_renderer", pipelines=3, frames=100).run()
    assert _cyclic_garbage(20) == 0
    assert _cyclic_garbage(100) == 0
