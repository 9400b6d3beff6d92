"""Lint bridge: run the static deadlock proofs under ``repro lint``.

The CON004 check is a whole-protocol fact, not a single-line AST
pattern, but it still belongs in the lint gate — the wiring it proves
safe is read off the stage graph both engines build from
(``repro.pipeline.describe``), and ``repro.pipeline.runner`` runs it,
so the findings anchor at the runner and flow through the same
fingerprint/baseline/suppression machinery as every other rule.  Each
``repro lint src`` run therefore
*re-proves* the paper's three arrangements deadlock-free; a wiring edit
that introduces a cyclic rendezvous turns up as a new CON004 finding on
``runner.py`` in the same report as any determinism lint.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, List, Tuple

if TYPE_CHECKING:  # import only for typing: lints imports us at runtime
    from ..lints.engine import LintContext

__all__ = ["paper_protocol_issues", "protocol_findings"]

#: the module whose wiring the protocol checks prove facts about
_ANCHOR_MODULE = "repro.pipeline.runner"

#: pipeline counts exercised per (config, arrangement): 1 covers the
#: degenerate single-pipeline wiring, 2 covers cross-pipeline fan-out
_PIPELINE_COUNTS = (1, 2)


@lru_cache(maxsize=1)
def paper_protocol_issues() -> Tuple[str, ...]:
    """CON004 messages for every paper configuration x arrangement.

    Cached: repeated lint runs in one process (tests) pay the
    extraction once.  An empty result *is*
    the deadlock-freedom proof for the paper's arrangement matrix.
    """
    from ...pipeline.arrangements import ARRANGEMENTS
    from ...pipeline.protocol import extract_protocol
    from .protocol import check_protocol

    issues: List[str] = []
    for config in ("one_renderer", "n_renderers", "mcpc_renderer"):
        for arrangement in ARRANGEMENTS:
            for pipelines in _PIPELINE_COUNTS:
                model = extract_protocol(config, pipelines, arrangement)
                issues.extend(issue.message
                              for issue in check_protocol(model))
    return tuple(issues)


def protocol_findings(ctx: "LintContext") -> Iterator[Tuple[ast.AST, str]]:
    """CON004 findings, anchored at the runner module.

    Used by the CON004 :class:`~repro.analysis.lints.engine.Rule`
    wrapper in :mod:`repro.analysis.lints.rules`.
    """
    if ctx.module != _ANCHOR_MODULE:
        return
    for message in paper_protocol_issues():
        yield ctx.tree, message
