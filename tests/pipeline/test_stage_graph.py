"""The stage graph is the wiring that runs.

``describe()`` decides which stage runs on which core and feeds whom;
the event engine, the batched engine and the static deadlock proof all
build from it.  These tests tie the three together at run time: the
channels the deadlock proof reasons about are exactly the channels each
engine opens, and both engines bind the same stages to the same cores.
"""

import pytest

import repro.pipeline.runner as runner_module
from repro.engine import BatchedEngine
from repro.pipeline import PipelineRunner
from repro.pipeline.arrangements import ARRANGEMENTS, dvfs_study_placement
from repro.pipeline.describe import describe
from repro.pipeline.protocol import extract_protocol
from repro.rcce import RCCEComm
from repro.telemetry import Telemetry

CASES = [(config, arrangement, pipelines, None)
         for config in ("one_renderer", "n_renderers", "mcpc_renderer")
         for arrangement in ARRANGEMENTS
         for pipelines in (1, 2)]
CASES += [("single_core", "ordered", 1, None),
          ("mcpc_renderer", "dvfs-study", 1, dvfs_study_placement())]


def _runner(config, arrangement, pipelines, placement, **kw):
    return PipelineRunner(config=config, pipelines=pipelines,
                          arrangement=arrangement, placement=placement,
                          frames=2, **kw)


def _proved_channels(config, arrangement, pipelines, placement):
    model = extract_protocol(config, pipelines, arrangement,
                             placement=placement)
    return {op.channel for proc in model.processes for op in proc.ops
            if op.kind in ("send", "recv")}


def _event_comm(monkeypatch, runner):
    comms = []

    class RecordingComm(RCCEComm):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            comms.append(self)

    monkeypatch.setattr(runner_module, "RCCEComm", RecordingComm)
    runner.run()
    (comm,) = comms
    return comm


def _bound_stage_cores(hub):
    """Stage base key -> cores, from the ``bind`` events of a run."""
    cores = {}
    for event in hub.events_in("stage"):
        if event.name == "bind":
            cores.setdefault(event.track.split("[")[0], []).append(
                event.fields["core"])
    return cores


@pytest.mark.parametrize("config, arrangement, pipelines, placement", CASES)
def test_proved_channels_are_the_opened_channels(
        monkeypatch, config, arrangement, pipelines, placement):
    proved = _proved_channels(config, arrangement, pipelines, placement)
    comm = _event_comm(
        monkeypatch, _runner(config, arrangement, pipelines, placement))
    batched = set(BatchedEngine(_runner(
        config, arrangement, pipelines, placement,
        engine="batched"))._chans)
    assert proved == set(comm._channels) == batched
    assert bool(proved) == (config != "single_core")


@pytest.mark.parametrize("config, arrangement, pipelines, placement", CASES)
def test_protocol_is_the_programs_hand_off_projection(
        config, arrangement, pipelines, placement):
    """Node by node, the deadlock proof's ops are the program's
    recv/send/get/put ops, in program order."""
    graph = describe(config, pipelines, arrangement, placement)
    model = extract_protocol(config, pipelines, arrangement,
                             placement=placement)
    assert len(model.processes) == len(graph.stages)
    for node, proc in zip(graph.stages, model.processes):
        projected = []
        for op in node.program:
            if op.kind == "recv":
                projected.append(("recv", op.arg, node.core, ""))
            elif op.kind == "send":
                projected.append(("send", node.core, op.arg, ""))
            elif op.kind in ("get", "put"):
                projected.append((op.kind, -1, -1, op.arg))
        assert [(op.kind, op.src, op.dst, op.queue)
                for op in proc.ops] == projected, node.key


@pytest.mark.parametrize("config, arrangement, pipelines, placement", CASES)
def test_both_engines_bind_the_same_stage_cores(config, arrangement,
                                                pipelines, placement):
    bound = []
    for engine in ("event", "batched"):
        runner = _runner(config, arrangement, pipelines, placement,
                         engine=engine, telemetry=Telemetry(enabled=True))
        runner.run()
        bound.append(_bound_stage_cores(runner.telemetry))
    assert bound[0] == bound[1] == runner._stage_graph().stage_cores()


@pytest.mark.parametrize("engine", ("event", "batched"))
@pytest.mark.parametrize("config, key", [
    ("one_renderer", "warp"),          # no such stage anywhere
    ("mcpc_renderer", "mcpc-render"),  # the host has no SCC core
    ("one_renderer", "connect"),       # a stage of another config
])
def test_frequency_plan_rejects_stages_without_cores(engine, config, key):
    runner = PipelineRunner(config=config, pipelines=2, frames=2,
                            engine=engine, frequency_plan={key: 800.0})
    with pytest.raises(ValueError,
                       match="frequency plan names unknown stage"):
        runner.run()
