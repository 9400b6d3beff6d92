"""Digest coalescing: one in-flight simulation per content address.

The :class:`~repro.exec.executor.RunSpec` digest is a complete content
address — two requests with the same digest *must* produce the same
bytes — so the service never runs the same spec twice concurrently.
:class:`DigestCoalescer` enforces that: the first submission of a
digest creates a :class:`Job`; every later submission while that job
is in flight *attaches* to it as another subscriber and the simulation
runs exactly once.

Deliberately thread-owning-nothing: the coalescer starts no threads
and never executes work itself.  ``submit`` hands back ``(job,
created)`` and the application layer decides where execution happens
(an executor future, a test driving transitions by hand).  That makes
the interleaving invariants directly checkable by the Hypothesis
property tests (tests/service/test_coalescer_props.py): no digest ever
has two live jobs, and every subscriber observes exactly one terminal
frame no matter how submit/complete/cancel interleave.

Subscribers get *replay-then-follow* semantics: :meth:`Job.subscribe`
replays the buffered frame history under the job lock, then attaches
the callback for live frames — so a client that connects mid-run sees
the identical sequence a client that connected at submission saw.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..exec.executor import RunSpec
from ..obsv.progress import ProgressEvent
from ..pipeline.metrics import RunResult
from . import wire

__all__ = ["QueueFull", "Job", "Subscription", "DigestCoalescer"]

FrameCallback = Callable[[Dict[str, Any]], None]

#: job outcome labels (``Job.outcome``)
OUTCOME_PENDING = ""
OUTCOME_SUCCESS = "success"
OUTCOME_ERROR = "error"
OUTCOME_CANCELLED = "cancelled"


class QueueFull(Exception):
    """Admission refused: the in-flight job cap is reached."""


class Subscription:
    """One subscriber's attachment to a job (detach via :meth:`cancel`)."""

    def __init__(self, job: "Job", callback: FrameCallback) -> None:
        self.job = job
        self._callback = callback

    def cancel(self) -> None:
        self.job._unsubscribe(self._callback)


class Job:
    """One in-flight (or recently finished) run for one digest.

    All mutation happens under one lock; frame callbacks are invoked
    *inside* the lock so replay and live delivery cannot interleave out
    of order.  Callbacks must therefore be quick and non-reentrant —
    the app layer just enqueues onto per-client bounded queues.
    """

    def __init__(self, digest: str, spec: RunSpec, seq: int) -> None:
        self.digest = digest
        self.spec = spec
        #: service-wide submission sequence number (FleetAggregator row)
        self.seq = seq
        self._lock = threading.RLock()
        self._subscribers: List[FrameCallback] = []  # guarded-by: self._lock
        #: every frame published so far, for replay-then-follow
        self.history: List[Dict[str, Any]] = []  # guarded-by: self._lock
        self.outcome = OUTCOME_PENDING  # guarded-by: self._lock
        self.result: Optional[RunResult] = None  # guarded-by: self._lock
        #: True when the result came from the cache (warm path)
        self.cached = False  # guarded-by: self._lock
        self.error_code = ""  # guarded-by: self._lock
        self.error_detail = ""  # guarded-by: self._lock
        #: set once the job reaches a terminal frame
        self.done_event = threading.Event()
        #: the executor future, attached by the app after submit
        self.future: Optional[Any] = None
        self._saw_failed_state = False  # guarded-by: self._lock

    # -- subscription ------------------------------------------------------
    def subscribe(self, callback: FrameCallback) -> Tuple[Subscription, int]:
        """Replay history to ``callback``, then attach it for live frames.

        Returns the subscription handle and how many frames were
        replayed.  A terminal job replays its full history (ending in
        the terminal frame) and never calls back again.
        """
        with self._lock:
            replayed = len(self.history)
            for doc in self.history:
                callback(doc)
            if not self.terminal:
                self._subscribers.append(callback)
            return Subscription(self, callback), replayed

    def _unsubscribe(self, callback: FrameCallback) -> None:
        with self._lock:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

    # -- publishing --------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.done_event.is_set()

    def publish(self, doc: Dict[str, Any]) -> None:
        """Record one frame and fan it out to live subscribers."""
        with self._lock:
            if self.terminal:
                return  # first terminal wins; late frames are dropped
            self.history.append(doc)
            for callback in list(self._subscribers):
                try:
                    callback(doc)
                except Exception:
                    # one sick subscriber must not starve the others
                    self._subscribers.remove(callback)
            if wire.is_stream_end(doc):
                self._subscribers.clear()
                self.done_event.set()

    def on_progress(self, event: ProgressEvent) -> None:
        """The executor's progress callback for this job.

        Sweep-level frames are dropped (a service job is always one
        point); the run index is rewritten to the service-wide ``seq``
        so fleet aggregation rows don't collide across jobs.
        """
        if event.kind == "sweep":
            return
        # The flag writes share the (re-entrant) publish lock: an
        # unlocked write here could land after finish_success read
        # `cached`, mislabelling a warm result as executed.
        with self._lock:
            if event.state == "cached":
                self.cached = True
            if event.state == "failed":
                self._saw_failed_state = True
            self.publish(wire.event_to_wire(replace(event, index=self.seq)))

    def finish_success(self, result: RunResult) -> None:
        """Publish the terminal result frame (no-op if already terminal)."""
        with self._lock:
            if self.terminal:
                return
            self.result = result
            self.outcome = OUTCOME_SUCCESS
            self.publish(wire.result_frame(self.digest, result,
                                           cached=self.cached))

    def finish_error(self, code: str, detail: str) -> None:
        """Publish the terminal error frame (no-op if already terminal).

        If no ``failed`` state frame was streamed (the failure happened
        outside the run itself — admission timeout, cancelled future), a
        synthetic one precedes the error frame so subscribers always see
        a state transition before the terminal.
        """
        with self._lock:
            if self.terminal:
                return
            self.outcome = OUTCOME_ERROR
            self.error_code = code
            self.error_detail = detail
            if not self._saw_failed_state:
                self.publish({"v": wire.WS_SCHEMA, "kind": "state",
                              "worker": "service", "index": self.seq,
                              "digest": self.digest, "state": "failed",
                              "error": detail})
            self.publish(wire.error_frame(self.digest, code, detail))

    def mark_cancelled(self) -> None:
        """Terminal for a never-started job (admission queue shed)."""
        with self._lock:
            if self.terminal:
                return
            self.outcome = OUTCOME_CANCELLED
            self.error_code = "cancelled"
            self.error_detail = "run cancelled before it started"
            self.publish(wire.error_frame(self.digest, "cancelled",
                                          self.error_detail))

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.done_event.wait(timeout)


class DigestCoalescer:
    """The in-flight job table, keyed by digest.

    ``max_active`` bounds admitted-but-unfinished jobs — the service's
    admission queue.  Finished jobs move to a bounded recent-jobs LRU so
    ``GET /runs/<digest>`` can answer for a just-failed digest (the
    cache only ever holds successes).
    """

    def __init__(self, max_active: int, recent_cap: int = 64) -> None:
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        self.max_active = int(max_active)
        self.recent_cap = int(recent_cap)
        self._lock = threading.Lock()
        self._inflight: Dict[str, Job] = {}  # guarded-by: self._lock
        self._recent: "OrderedDict[str, Job]" = OrderedDict()  # guarded-by: self._lock
        self._seq = 0  # guarded-by: self._lock
        #: counters for /metrics
        self.submitted = 0  # guarded-by: self._lock
        self.coalesced = 0  # guarded-by: self._lock
        self.rejected_full = 0  # guarded-by: self._lock

    def submit(self, digest: str, spec: RunSpec) -> Tuple[Job, bool]:
        """Admit one request.

        Returns ``(job, created)``: ``created`` is False when the
        request coalesced onto an existing in-flight job.  Raises
        :class:`QueueFull` when a new job would exceed ``max_active``.
        """
        with self._lock:
            self.submitted += 1
            job = self._inflight.get(digest)
            if job is not None:
                self.coalesced += 1
                return job, False
            if len(self._inflight) >= self.max_active:
                self.rejected_full += 1
                raise QueueFull(
                    f"{len(self._inflight)} jobs in flight "
                    f"(limit {self.max_active})")
            job = Job(digest, spec, self._seq)
            self._seq += 1
            self._inflight[digest] = job
            return job, True

    def get(self, digest: str) -> Optional[Job]:
        """The in-flight or recently finished job for a digest."""
        with self._lock:
            job = self._inflight.get(digest)
            if job is not None:
                return job
            return self._recent.get(digest)

    def release(self, job: Job) -> None:
        """Move a finished job from in-flight to the recent LRU.

        Called only once the worker function has truly returned — a
        job stays in flight through timeout/cancel terminal frames so a
        resubmission of the digest attaches to the draining job instead
        of starting a second concurrent simulation.
        """
        with self._lock:
            current = self._inflight.get(job.digest)
            if current is job:
                del self._inflight[job.digest]
            self._recent.pop(job.digest, None)
            self._recent[job.digest] = job
            while len(self._recent) > self.recent_cap:
                self._recent.popitem(last=False)

    @property
    def active(self) -> int:
        with self._lock:
            return len(self._inflight)

    def snapshot(self) -> Dict[str, float]:
        """Counter view for /metrics."""
        with self._lock:
            return {"submitted": float(self.submitted),
                    "coalesced": float(self.coalesced),
                    "rejected_full": float(self.rejected_full),
                    "active": float(len(self._inflight)),
                    "recent": float(len(self._recent))}
