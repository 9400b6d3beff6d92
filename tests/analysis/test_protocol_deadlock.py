"""Static deadlock proofs for the paper's pipeline arrangements.

The CON004 prong: extract the send/recv channel protocol of every
configuration x arrangement without executing the simulator, run it
abstractly under RCCE rendezvous semantics, and prove it deadlock-free.
An injected miswiring (a reversed channel) must surface as exactly one
diagnostic.
"""

import ast
import dataclasses
import textwrap

import pytest

from repro.analysis.concurrency import (
    Op,
    Process,
    ProtocolModel,
    check_protocol,
    paper_protocol_issues,
    simulate,
)
from repro.analysis.concurrency.pipelines import protocol_findings
from repro.analysis.lints.engine import LintContext
from repro.pipeline import PipelineRunner
from repro.pipeline.arrangements import ARRANGEMENTS, make_placement
from repro.pipeline.describe import FILTER_KEYS, StageOp, describe
from repro.pipeline.protocol import channel_edges, extract_protocol
from repro.sim import DeadlockError

CONFIGS = ("one_renderer", "n_renderers", "mcpc_renderer")


# -- the abstract machine itself --------------------------------------------

def test_matched_rendezvous_pair_completes():
    model = ProtocolModel(name="pair", processes=(
        Process(name="tx", ops=(Op("send", src=0, dst=1),), iterations=3),
        Process(name="rx", ops=(Op("recv", src=0, dst=1),), iterations=3),
    ))
    outcome = simulate(model)
    assert not outcome.deadlocked
    assert outcome.steps > 0
    assert check_protocol(model) == []


def test_send_without_receiver_deadlocks():
    model = ProtocolModel(name="orphan", processes=(
        Process(name="tx", ops=(Op("send", src=0, dst=1),), iterations=1),
    ))
    outcome = simulate(model)
    assert outcome.deadlocked
    assert "tx" in outcome.blocked
    issues = check_protocol(model)
    assert len(issues) == 1
    assert "guaranteed deadlock" in issues[0].message


def test_crossed_sends_form_a_wait_cycle():
    """Two processes each sending first: the classic rendezvous cycle."""
    model = ProtocolModel(name="crossed", processes=(
        Process(name="a", ops=(Op("send", src=0, dst=1),
                               Op("recv", src=1, dst=0)), iterations=1),
        Process(name="b", ops=(Op("send", src=1, dst=0),
                               Op("recv", src=0, dst=1)), iterations=1),
    ))
    outcome = simulate(model)
    assert outcome.deadlocked
    assert set(outcome.wait_cycle) == {"a", "b"}
    issues = check_protocol(model)
    assert len(issues) == 1
    assert "guaranteed deadlock" in issues[0].message
    assert "wait-for cycle" in issues[0].message


def test_bounded_queue_blocks_when_full():
    """A put beyond capacity with no consumer is a guaranteed stall."""
    model = ProtocolModel(
        name="full-queue",
        processes=(Process(name="host", ops=(Op("put", queue="sif"),),
                           iterations=3),),
        queues={"sif": 2})
    outcome = simulate(model)
    assert outcome.deadlocked
    assert outcome.steps == 2  # exactly the queue capacity went through


def test_queue_producer_consumer_completes():
    model = ProtocolModel(
        name="pc",
        processes=(
            Process(name="host", ops=(Op("put", queue="sif"),),
                    iterations=5),
            Process(name="sink", ops=(Op("get", queue="sif"),),
                    iterations=5)),
        queues={"sif": 2})
    assert not simulate(model).deadlocked


# -- the paper arrangement matrix is deadlock-free --------------------------

@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("arrangement", ARRANGEMENTS)
@pytest.mark.parametrize("pipelines", (1, 2))
def test_paper_arrangement_deadlock_free(config, arrangement, pipelines):
    model = extract_protocol(config, pipelines, arrangement)
    outcome = simulate(model)
    assert not outcome.deadlocked, outcome.blocked
    assert outcome.steps > 0
    assert check_protocol(model) == []


def test_single_core_trivially_safe():
    model = extract_protocol("single_core", 1, "ordered")
    assert check_protocol(model) == []


def test_paper_protocol_sweep_is_clean():
    """The lint-time sweep: an empty tuple IS the deadlock-freedom proof."""
    assert paper_protocol_issues() == ()


def test_extracted_wiring_matches_the_placement():
    """Cross-check the IR against the real placement's core chains."""
    placement = make_placement("ordered", 2, per_pipeline_input=False)
    model = extract_protocol("one_renderer", 2, "ordered",
                             placement=placement)
    edges = channel_edges(model)
    senders = {sender for sender, _, _ in edges}
    assert "render" in senders
    # every filter stage both receives and sends; the transfer core
    # terminates each pipeline chain
    receivers = {receiver for _, receiver, _ in edges}
    assert "transfer" in receivers
    last = placement.filter_cores[0][-1]
    assert any(f"{last}->" in chan for _, _, chan in edges)


# -- injected miswirings ----------------------------------------------------

def _flip_one_send(model: ProtocolModel) -> ProtocolModel:
    """Reverse the direction of the first filter-stage send."""
    processes = []
    flipped = False
    for proc in model.processes:
        ops = list(proc.ops)
        if not flipped and proc.name.startswith("filter["):
            for i, op in enumerate(ops):
                if op.kind == "send":
                    ops[i] = Op("recv", src=op.dst, dst=op.src)
                    flipped = True
                    break
        processes.append(dataclasses.replace(proc, ops=tuple(ops)))
    assert flipped, "no filter send found to reverse"
    return dataclasses.replace(model, processes=tuple(processes))


def test_reversed_channel_yields_exactly_one_con004():
    model = _flip_one_send(extract_protocol("one_renderer", 2, "ordered"))
    issues = check_protocol(model)
    assert len(issues) == 1
    assert "guaranteed deadlock" in issues[0].message


def test_reversed_channel_deadlocks_the_run_and_the_proof(monkeypatch):
    """The same miswiring on the stage graph itself: the event kernel
    stops the run with ``DeadlockError`` and the proof of that graph
    reports exactly one CON004."""
    graph = describe("one_renderer", 2, "ordered")
    node = next(n for n in graph.stages if n.base in FILTER_KEYS)
    flipped = dataclasses.replace(node, program=tuple(
        StageOp("recv", op.arg, op.strip) if op.kind == "send" else op
        for op in node.program))
    graph.stages[graph.stages.index(node)] = flipped
    monkeypatch.setattr(PipelineRunner, "_stage_graph", lambda self: graph)
    with pytest.raises(DeadlockError):
        PipelineRunner(config="one_renderer", pipelines=2, frames=2).run()
    issues = check_protocol(extract_protocol(graph))
    assert len(issues) == 1
    assert "guaranteed deadlock" in issues[0].message


# -- lint anchoring ---------------------------------------------------------

def _ctx(module: str) -> LintContext:
    source = textwrap.dedent("""\
        class PipelineRunner:
            pass
        """)
    return LintContext(path=f"src/{module.replace('.', '/')}.py",
                       module=module, tree=ast.parse(source),
                       source_lines=source.splitlines())


def test_protocol_findings_anchor_only_at_the_runner():
    assert list(protocol_findings(_ctx("repro.pipeline.runner"))) == []
    assert list(protocol_findings(_ctx("repro.service.app"))) == []
