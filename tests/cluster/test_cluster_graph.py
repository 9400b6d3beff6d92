"""The Mogon configurations as stage graphs.

``describe()`` wires the three cluster configurations like the SCC ones
they rerun, with private capacity-1 queues for the hand-offs, and the
max-plus evaluator (:func:`repro.pipeline.protocol.evaluate`) times
them.  The static deadlock proof (CON004) reads the same graphs, so it
must prove all 21 Table-I wirings safe and still flag a miswired one.
"""

import dataclasses

import pytest

from repro.analysis.concurrency import check_protocol
from repro.cluster import CLUSTER_CONFIGURATIONS, ClusterRunner
from repro.pipeline import protocol
from repro.pipeline.describe import (FILTER_KEYS, SIF_CAPACITY, SIF_SOCKET,
                                     StageOp, describe)
from repro.report.paper import TABLE1_PIPELINES

POINTS = [(config, n) for config in CLUSTER_CONFIGURATIONS
          for n in TABLE1_PIPELINES]


@pytest.mark.parametrize("config, pipelines", POINTS)
def test_cluster_graph_is_deadlock_free(config, pipelines):
    model = protocol.extract_protocol(config, pipelines)
    assert check_protocol(model) == []


def _orphan_put(graph):
    """``blur[0]`` hands its strip into a queue nobody takes from."""
    for i, node in enumerate(graph.stages):
        if node.key == "blur[0]":
            program = tuple(StageOp("put", "orphan", op.strip)
                            if op.kind == "put" else op
                            for op in node.program)
            graph.stages[i] = dataclasses.replace(node, program=program)
    graph.queues["orphan"] = 1
    return graph


@pytest.mark.parametrize("config", CLUSTER_CONFIGURATIONS)
def test_deadlock_proof_flags_a_put_nobody_gets(config, monkeypatch):
    monkeypatch.setattr(protocol, "describe",
                        lambda *args: _orphan_put(describe(*args)))
    issues = check_protocol(protocol.extract_protocol(config, 2))
    assert len(issues) == 1
    assert "guaranteed deadlock" in issues[0].message


def test_evaluate_refuses_a_consumer_before_its_producer():
    graph = describe("single_renderer", 1)
    graph.stages.reverse()
    with pytest.raises(ValueError, match=r"node 'transfer' gets from queue "
                       r"'transfer\[0\]' before any node puts to it"):
        protocol.evaluate(graph, 2, lambda op: ())


def test_evaluate_refuses_a_queue_nobody_takes_from():
    graph = _orphan_put(describe("single_renderer", 1))
    with pytest.raises(ValueError, match=r"node 'blur\[0\]' puts to queue "
                       r"'orphan', which no node takes from"):
        protocol.evaluate(graph, 2, lambda op: ())


@pytest.mark.parametrize("config, pipelines", POINTS)
def test_cluster_graph_shape(config, pipelines):
    graph = describe(config, pipelines)
    assert graph.arrangement == "cluster"
    kinds = {op.kind for node in graph.stages for op in node.program}
    assert kinds <= {"get", "put", "compute", "udp", "done"}
    external = config == "external_renderer"
    assert graph.queues == {
        **{f"{key}[{p}]": 1 for p in range(pipelines)
           for key in (*FILTER_KEYS, "transfer")},
        **({SIF_SOCKET: SIF_CAPACITY} if external else {})}
    # hand-off order: the (coreless, remote) renderer comes first
    coreless = [node.key for node in graph.stages if node.core is None]
    assert coreless == (["render"] if external else [])
    assert graph.stages[0].base == "render"
    # one node's cores, numbered in stage order; every process but the
    # remote renderer owns one
    assert graph.cores == list(range(len(graph.stages) - external))


@pytest.mark.parametrize("value", (2.5, True, "2.5", None))
def test_cluster_runner_rejects_lossy_counts(value):
    with pytest.raises(ValueError):
        ClusterRunner(pipelines=value)
    with pytest.raises(ValueError):
        ClusterRunner(frames=value)


def test_cluster_runner_normalises_lossless_counts():
    runner = ClusterRunner(pipelines=2.0, frames="3")
    assert (runner.pipelines, runner.frames) == (2, 3)
    assert type(runner.pipelines) is int and type(runner.frames) is int
