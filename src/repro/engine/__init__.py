"""Alternative execution engines for the macro pipeline.

The default engine is the discrete-event kernel in :mod:`repro.sim`; it
replays every timeout/request/release of every stage.  This package adds
:mod:`repro.engine.batched` — a steady-state engine that detects the
periodic phase of a pipeline run and advances whole frame-waves at once
(see docs/performance.md, "Batched steady-state engine").

Selection is part of a run's cache identity: ``RunSpec(engine=...)``
feeds the spec digest, so the :class:`~repro.exec.ResultCache` never
conflates results produced by different engines.
"""

from .batched import BatchedEngine
from .telsynth import TelemetrySynth, make_synth

__all__ = ["BatchedEngine", "TelemetrySynth", "make_synth"]
