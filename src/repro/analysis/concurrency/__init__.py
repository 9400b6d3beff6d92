"""Static concurrency analysis: lock discipline and pipeline deadlocks.

Two prongs, both surfaced as ``CON`` rules through the ``repro lint``
engine (:mod:`repro.analysis.lints`):

* :mod:`~repro.analysis.concurrency.guards` — an AST pass over the
  genuinely multi-threaded host packages (``repro.service``,
  ``repro.exec``, ``repro.obsv``) driven by lightweight
  ``# guarded-by: self._lock`` contract annotations on shared
  attributes.  CON001 flags guarded state touched outside its lock,
  CON002 reports lock-acquisition-order cycles, CON003 flags unlocked
  read-modify-write on counter-style shared state.
* :mod:`~repro.analysis.concurrency.protocol` — a static model of the
  pipeline's send/recv channel protocol (extracted without executing a
  run by :mod:`repro.pipeline.protocol`).  CON004 proves or refutes
  deadlock-freedom by abstract rendezvous execution and reports the
  wait-for cycle.

The :class:`~repro.analysis.lints.engine.Rule` wrappers live in
:mod:`repro.analysis.lints.rules` (the rule catalog); this package
holds the pure analyses so the two packages import in one direction at
a time.  :func:`~repro.analysis.concurrency.report.concurrency_summary`
folds both prongs into the dict rendered by
``repro analyze --concurrency``.
"""

from .guards import (CONCURRENT_PACKAGES, ClassContracts,
                     check_guarded_state, check_lock_order,
                     check_unlocked_rmw, collect_contracts,
                     lock_order_edges)
from .pipelines import paper_protocol_issues, protocol_findings
from .protocol import (Op, Process, ProtocolIssue, ProtocolModel,
                       SimOutcome, check_protocol, simulate)
from .report import concurrency_summary

__all__ = [
    "CONCURRENT_PACKAGES", "ClassContracts", "check_guarded_state",
    "check_lock_order", "check_unlocked_rmw", "collect_contracts",
    "lock_order_edges",
    "paper_protocol_issues", "protocol_findings",
    "Op", "Process", "ProtocolIssue", "ProtocolModel", "SimOutcome",
    "check_protocol", "simulate",
    "concurrency_summary",
]
