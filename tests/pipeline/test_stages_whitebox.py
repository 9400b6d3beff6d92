"""White-box tests of single stage programs on the event interpreter.

These drive one stage node's op program through
:class:`~repro.pipeline.stage.Stage` with hand-built contexts and
hand-fed producers, pinning down the per-stage protocol (recv → compute
→ send) independently of the full runner and of ``describe()``.
"""

import pytest

from repro.host import MCPC, UDPChannel
from repro.pipeline import CostModel, RunMetrics, WalkthroughWorkload
from repro.pipeline.describe import SIF_SOCKET, StageNode, StageOp
from repro.pipeline.runner import DOWNLINK_CONFIG
from repro.pipeline.stage import Stage, StageContext
from repro.rcce import RCCEComm
from repro.scc import SCCChip
from repro.sim import Simulator, Store

FRAMES = 3


@pytest.fixture()
def ctx():
    sim = Simulator()
    chip = SCCChip(sim)
    mcpc = MCPC(sim)
    return StageContext(
        chip=chip,
        comm=RCCEComm(chip),
        cost=CostModel(),
        workload=WalkthroughWorkload(frames=FRAMES, image_side=64),
        metrics=RunMetrics(),
        frames=FRAMES,
        num_pipelines=1,
        downlink=UDPChannel(sim, DOWNLINK_CONFIG),
        uplink=mcpc.link,
        mcpc=mcpc,
    )


def filter_node(key, core, prev_core, next_core, pipeline=0):
    return StageNode(f"{key}[{pipeline}]", core, pipeline=pipeline,
                     program=(StageOp("recv", prev_core, pipeline),
                              StageOp("compute", key, pipeline),
                              StageOp("send", next_core, pipeline)))


def feed(ctx, src, dst, frames=FRAMES, nbytes=1000):
    """A producer process sending `frames` messages src -> dst."""
    def producer():
        for frame in range(frames):
            yield from ctx.comm.send(src, dst, nbytes, tag=frame)
    return producer


def drain(ctx, dst, src, collected, frames=FRAMES):
    def consumer():
        for _ in range(frames):
            msg = yield from ctx.comm.recv(dst, src)
            collected.append(msg)
    return consumer


def test_filter_stage_forwards_every_frame(ctx):
    stage = Stage(filter_node("blur", 4, prev_core=2, next_core=6), ctx)
    out = []
    ctx.sim.process(feed(ctx, 2, 4)())
    stage.start()
    ctx.sim.process(drain(ctx, 6, 4, out)())
    ctx.sim.run()
    assert [m.tag for m in out] == [0, 1, 2]
    assert ctx.metrics.busy["blur"].count == FRAMES
    assert ctx.metrics.idle["blur"].count == FRAMES


def test_filter_stage_service_time_includes_compute(ctx):
    stage = Stage(filter_node("blur", 4, prev_core=2, next_core=6), ctx)
    out = []
    ctx.sim.process(feed(ctx, 2, 4)())
    stage.start()
    ctx.sim.process(drain(ctx, 6, 4, out)())
    ctx.sim.run()
    pixels = 64 * 64
    expected = ctx.cost.filter_seconds("blur", pixels)
    assert ctx.metrics.busy["blur"].mean >= expected


def test_filter_stage_respects_dvfs(ctx):
    """The same stage on a 400 MHz tile is slower by 533/400."""
    times = {}
    for freq in (533.0, 400.0):
        sim = Simulator()
        chip = SCCChip(sim)
        chip.dvfs.set_core_frequency(4, freq)
        local = StageContext(
            chip=chip, comm=RCCEComm(chip), cost=ctx.cost,
            workload=ctx.workload, metrics=RunMetrics(), frames=FRAMES,
            num_pipelines=1)
        stage = Stage(filter_node("swap", 4, prev_core=2, next_core=6),
                      local)
        out = []
        sim.process(feed(local, 2, 4)())
        stage.start()
        sim.process(drain(local, 6, 4, out)())
        sim.run()
        times[freq] = local.metrics.busy["swap"].mean
    # Only the compute part scales, so the ratio sits between 1 and 533/400.
    ratio = times[400.0] / times[533.0]
    assert 1.05 < ratio < 533.0 / 400.0 + 0.01


def test_transfer_stage_assembles_and_displays(ctx):
    node = StageNode("transfer", 10, program=(
        StageOp("recv", 4, 0), StageOp("recv", 6, 0),
        StageOp("compute", "assemble"), StageOp("udp", "downlink"),
        StageOp("done")))
    stage = Stage(node, ctx)
    for src in (4, 6):
        ctx.sim.process(feed(ctx, src, 10)())
    stage.start()
    ctx.sim.run()
    assert [f for f, _ in ctx.metrics.frame_completions] == [0, 1, 2]
    assert ctx.metrics.busy["transfer"].count == FRAMES


def test_connect_stage_distributes_strips(ctx):
    queue = Store(ctx.sim, capacity=2)
    node = StageNode("connect", 8, program=(
        StageOp("get", SIF_SOCKET), StageOp("mesh", "sif"),
        StageOp("compute", "connect"), StageOp("write_own"),
        StageOp("send", 2, 0), StageOp("send", 4, 0)))
    stage = Stage(node, ctx, {SIF_SOCKET: queue})
    out0, out1 = [], []

    def host_feed():
        for frame in range(FRAMES):
            yield queue.put(frame)

    ctx.sim.process(host_feed())
    stage.start()
    ctx.sim.process(drain(ctx, 2, 8, out0)())
    ctx.sim.process(drain(ctx, 4, 8, out1)())
    ctx.sim.run()
    assert [m.tag for m in out0] == [0, 1, 2]
    assert [m.tag for m in out1] == [0, 1, 2]
    # The connect stage wrote each frame into its own partition.
    frame_bytes = ctx.workload.frame_bytes()
    assert ctx.chip.memory.core_traffic[8] >= FRAMES * frame_bytes


HOST = StageNode("mcpc-render", None, program=(
    StageOp("compute", "render"), StageOp("udp", "uplink"),
    StageOp("put", SIF_SOCKET)))


def test_mcpc_render_process_pushes_frames(ctx):
    queue = Store(ctx.sim, capacity=2)
    proc = Stage(HOST, ctx, {SIF_SOCKET: queue})
    got = []

    def consumer():
        for _ in range(FRAMES):
            frame = yield queue.get()
            got.append(frame)

    proc.start()
    ctx.sim.process(consumer())
    ctx.sim.run()
    assert got == [0, 1, 2]
    assert ctx.mcpc.busy_seconds > 0
    assert ctx.uplink.bytes_sent == FRAMES * ctx.workload.frame_bytes()


def test_mcpc_render_process_requires_host():
    sim = Simulator()
    chip = SCCChip(sim)
    bad_ctx = StageContext(
        chip=chip, comm=RCCEComm(chip), cost=CostModel(),
        workload=WalkthroughWorkload(frames=1, image_side=32),
        metrics=RunMetrics(), frames=1, num_pipelines=1)
    with pytest.raises(ValueError):
        Stage(HOST, bad_ctx, {SIF_SOCKET: Store(sim)})
