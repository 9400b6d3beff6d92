"""The ``repro analyze --concurrency`` summary document.

Folds both analyzer prongs into one JSON-safe dict the HTML report
(:mod:`repro.report.html`) renders as its concurrency section:

* **lock discipline** — per concurrent package/module: how many
  guarded-by contracts are declared, the lock-acquisition-order edges,
  and any CON findings (normally zero — the lint gate keeps it so);
* **pipeline protocol** — for the configuration being analysed: the
  channel wait-for graph (sender -> receiver per channel), process and
  channel counts, and the deadlock verdict from abstract execution.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Any, Dict, List

from .guards import (CONCURRENT_PACKAGES, collect_contracts,
                     lock_order_edges)

__all__ = ["concurrency_summary", "lock_discipline_summary",
           "protocol_summary"]


def _package_dir(dotted: str) -> pathlib.Path:
    import importlib

    module = importlib.import_module(dotted)
    return pathlib.Path(module.__file__ or ".").parent  # type: ignore[arg-type]


def lock_discipline_summary() -> Dict[str, Any]:
    """Contracts, lock-order edges and findings per concurrent module."""
    from ..lints.engine import LintContext, LintEngine
    from ..lints.rules import (GuardedStateRule, LockOrderRule,
                               UnlockedRmwRule)

    engine = LintEngine([GuardedStateRule(), LockOrderRule(),
                         UnlockedRmwRule()])
    modules: List[Dict[str, Any]] = []
    total_contracts = 0
    total_findings = 0
    for package in CONCURRENT_PACKAGES:
        for path in sorted(_package_dir(package).glob("*.py")):
            source = path.read_text(encoding="utf-8")
            module = f"{package}.{path.stem}"
            tree = ast.parse(source, filename=str(path))
            ctx = LintContext(path=str(path), module=module, tree=tree,
                              source_lines=source.splitlines())
            contracts = [collect_contracts(node, ctx)
                         for node in ast.walk(tree)
                         if isinstance(node, ast.ClassDef)]
            declared = sum(len(c.attrs) + len(c.methods)
                           for c in contracts)
            edges = [[outer, inner]
                     for outer, inner, _site in lock_order_edges(ctx)]
            findings = engine.check_source(source, path=str(path),
                                           module=module)
            if not declared and not edges and not findings:
                continue
            total_contracts += declared
            total_findings += len(findings)
            modules.append({
                "module": module,
                "guarded_attrs": sorted(
                    {f"{c.name}.{attr}" for c in contracts
                     for attr in c.attrs}),
                "caller_holds": sorted(
                    {f"{c.name}.{m}" for c in contracts
                     for m in c.methods}),
                "lock_order_edges": sorted(map(tuple, edges)),
                "findings": [f.format() for f in findings],
            })
    return {"packages": list(CONCURRENT_PACKAGES),
            "contracts": total_contracts,
            "findings": total_findings,
            "modules": modules}


def protocol_summary(config: str, pipelines: int,
                     arrangement: str = "ordered",
                     frames: int = 2) -> Dict[str, Any]:
    """Wait-for graph and deadlock verdict for one configuration."""
    from ...pipeline.protocol import channel_edges, extract_protocol
    from .protocol import PROTOCOL_RULE, check_protocol, simulate

    model = extract_protocol(config, pipelines, arrangement,
                             frames=frames)
    issues = check_protocol(model)
    outcome = simulate(model)
    return {
        "name": model.name,
        "processes": [p.name for p in model.processes],
        "channels": [list(edge) for edge in channel_edges(model)],
        "steps": outcome.steps,
        "deadlock_free": not outcome.deadlocked,
        "issues": [f"{PROTOCOL_RULE}: {i.message}" for i in issues],
    }


def concurrency_summary(config: str, pipelines: int,
                        arrangement: str = "ordered") -> Dict[str, Any]:
    """Both prongs, in the shape the HTML report renders."""
    return {
        "locks": lock_discipline_summary(),
        "protocol": protocol_summary(config, pipelines, arrangement),
    }
