"""Tests for the generic MacroPipeline public API."""

import dataclasses
import functools

import numpy as np
import pytest

from repro.analysis.concurrency import check_protocol
from repro.pipeline.describe import StageOp
from repro.pipeline.macro import MacroPipeline, MacroStageSpec, WorkItem
from repro.pipeline.protocol import extract_protocol
from repro.scc import SCCChip
from repro.sim import Simulator


def test_requires_stages_and_items():
    pipe = MacroPipeline()
    with pytest.raises(ValueError):
        pipe.run([1000])
    pipe.add_stage("a", 0.001)
    with pytest.raises(ValueError):
        pipe.run([])


def test_duplicate_stage_names_rejected():
    pipe = MacroPipeline().add_stage("a", 0.001)
    with pytest.raises(ValueError):
        pipe.add_stage("a", 0.002)


def test_negative_item_size_rejected():
    pipe = MacroPipeline().add_stage("a", 0.001)
    with pytest.raises(ValueError):
        pipe.run([-1])


def test_negative_service_time_rejected():
    spec = MacroStageSpec("s", -0.5)
    with pytest.raises(ValueError):
        spec.service_for(WorkItem(0, 10))


def test_all_items_complete():
    pipe = MacroPipeline().add_stage("a", 0.001).add_stage("b", 0.002)
    result = pipe.run([1000] * 20)
    assert result.items_completed == 20
    assert result.makespan_s > 0
    assert result.throughput == pytest.approx(20 / result.makespan_s)


def test_throughput_bounded_by_slowest_stage():
    pipe = (MacroPipeline()
            .add_stage("fast", 0.001)
            .add_stage("slow", 0.050)
            .add_stage("fast2", 0.001))
    result = pipe.run([100] * 40)
    # Period >= slow stage service; allow hand-off overhead on top.
    assert result.makespan_s >= 40 * 0.050
    assert result.stage_busy_means["slow"] >= 0.050


def test_idle_times_concentrate_downstream_of_bottleneck():
    pipe = (MacroPipeline()
            .add_stage("slow", 0.050)
            .add_stage("fast", 0.001))
    result = pipe.run([100] * 30)
    assert result.stage_idle_means["fast"] > result.stage_idle_means["slow"]


def test_callable_service_time():
    pipe = MacroPipeline().add_stage("scale", lambda it: it.nbytes * 1e-6)
    small = pipe_run_makespan([1000] * 10, pipe)
    pipe2 = MacroPipeline().add_stage("scale", lambda it: it.nbytes * 1e-6)
    big = pipe_run_makespan([100_000] * 10, pipe2)
    assert big > small


def pipe_run_makespan(items, pipe):
    return pipe.run(items).makespan_s


def test_functional_transforms_flow_through():
    pipe = (MacroPipeline()
            .add_stage("double", 0.0, func=lambda x: x * 2)
            .add_stage("inc", 0.0, func=lambda x: x + 1))
    result = pipe.run([(8, 1), (8, 2), (8, 3)])
    assert result.outputs == [3, 5, 7]


def test_explicit_cores_respected():
    chip = SCCChip(Simulator())
    pipe = MacroPipeline(chip, cores=[5, 9])
    pipe.add_stage("a", 0.001).add_stage("b", 0.001)
    result = pipe.run([100] * 5)
    assert result.items_completed == 5


def test_explicit_cores_length_mismatch():
    pipe = MacroPipeline(cores=[1, 2, 3]).add_stage("a", 0.001)
    with pytest.raises(ValueError):
        pipe.run([100])


def test_duplicate_cores_rejected():
    pipe = MacroPipeline(cores=[4, 4]).add_stage("a", 0.001).add_stage("b", 0.001)
    with pytest.raises(ValueError):
        pipe.run([100])


def test_per_stage_core_pinning():
    pipe = MacroPipeline()
    pipe.add_stage("pinned", 0.001, core_id=30)
    pipe.add_stage("auto", 0.001)
    result = pipe.run([10] * 3)
    assert result.items_completed == 3


def test_energy_accounted():
    result = MacroPipeline().add_stage("a", 0.010).run([1000] * 10)
    assert result.energy_j > 0


def test_pipelining_beats_serial_execution():
    """Two balanced stages overlap: makespan well under the serial sum."""
    pipe = MacroPipeline().add_stage("a", 0.020).add_stage("b", 0.020)
    result = pipe.run([100] * 50)
    serial = 50 * 0.040
    assert result.makespan_s < 0.75 * serial


# ---------------------------------------------------------------------------
# the stage graph
# ---------------------------------------------------------------------------

def test_graph_is_a_source_then_one_node_per_stage():
    pipe = MacroPipeline().add_stage("parse", 0.001).add_stage("emit", 0.001)
    graph = pipe.graph([100] * 3)
    assert [(node.key, node.core, [str(op) for op in node.program])
            for node in graph.stages] == [
        ("source", 2, ["send 0"]),
        ("parse", 0, ["recv 2", "compute", "send 1"]),
        ("emit", 1, ["recv 0", "compute", "done"]),
    ]
    assert graph.queues == {}
    assert "  parse        [core  0] -> emit: recv 2, compute, send 1" \
        in graph.to_text().splitlines()


@pytest.mark.parametrize("name", ["source", "a[0]"])
def test_names_the_graph_cannot_carry_rejected(name):
    with pytest.raises(ValueError, match="is taken or contains"):
        MacroPipeline().add_stage(name, 0.001)


def test_more_stages_than_cores_rejected():
    pipe = MacroPipeline()
    for i in range(48):
        pipe.add_stage(f"s{i}", 0.001)
    with pytest.raises(ValueError,
                       match="48 stages plus the source need 49 cores"):
        pipe.run([100])


@pytest.mark.parametrize("service", [float("nan"), float("inf"),
                                     lambda item: float("nan")])
def test_non_finite_service_time_rejected(service):
    pipe = MacroPipeline().add_stage("a", 0.001).add_stage("bad", service)
    with pytest.raises(ValueError, match="stage 'bad': service time must "
                                         "be finite"):
        pipe.run([100] * 3)


@pytest.mark.parametrize("size", [2.7, True, (2.7, "payload")])
def test_lossy_item_size_rejected(size):
    pipe = MacroPipeline().add_stage("a", 0.001)
    with pytest.raises(ValueError, match="item size must be a whole number"):
        pipe.run([100, size])


def test_transforms_fold_in_item_order_before_timing():
    calls = []
    pipe = (MacroPipeline()
            .add_stage("a", 0.0, func=lambda x: calls.append(("a", x)) or x)
            .add_stage("b", 0.0, func=lambda x: calls.append(("b", x)) or x))
    pipe.run([(8, 1), (8, 2)])
    assert calls == [("a", 1), ("a", 2), ("b", 1), ("b", 2)]


def test_service_time_sees_the_item_as_earlier_stages_left_it():
    seen = []
    pipe = (MacroPipeline()
            .add_stage("double", 0.0, func=lambda x: 2 * x)
            .add_stage("read", lambda item: seen.append(item.payload) or 0.0))
    pipe.run([(8, 1), (8, 2)])
    assert seen == [2, 4]


# ---------------------------------------------------------------------------
# the deadlock proof reads the same graph
# ---------------------------------------------------------------------------

def _balanced(depth):
    return [(f"s{i}", 0.010) for i in range(depth)]


def _pipeline(stages, cores=None):
    pipe = MacroPipeline(cores=cores)
    for row in stages:
        pipe.add_stage(*row)
    return pipe


@pytest.mark.parametrize("depth", range(1, 9))
def test_balanced_graph_is_deadlock_free(depth):
    graph = _pipeline(_balanced(depth)).graph([64_000] * 4)
    assert check_protocol(extract_protocol(graph)) == []


@pytest.mark.parametrize("stages, cores", [
    (_balanced(2), [5, 9]),
    ([("pinned", 0.001, None, 30), ("auto", 0.001)], None),
], ids=["explicit_cores", "pinned_core"])
def test_pinned_graph_is_deadlock_free(stages, cores):
    graph = _pipeline(stages, cores).graph([10] * 3)
    assert check_protocol(extract_protocol(graph)) == []


def test_deadlock_proof_flags_a_miswired_graph():
    graph = _pipeline(_balanced(3)).graph([100])
    # s1 waits on the source's core instead of s0's
    node = graph.stages[2]
    graph.stages[2] = dataclasses.replace(node, program=(
        StageOp("recv", graph.stages[0].core), *node.program[1:]))
    issues = check_protocol(extract_protocol(graph))
    assert len(issues) == 1
    assert "guaranteed deadlock" in issues[0].message


# ---------------------------------------------------------------------------
# pinned results: every MacroRunResult field, bit for bit
# ---------------------------------------------------------------------------

def _per_byte(rate):
    return lambda item: rate * item.nbytes


#: examples/custom_pipeline.py's log batches (--items 200)
_LOG_BATCHES = [int(s) for s in np.random.default_rng(1).integers(
    256 * 512, 256 * 1536, size=200)]

#: case -> (add_stage rows, items, explicit cores): the runs of this
#: file and of the example
CASES = {
    "two_stages": ([("a", 0.001), ("b", 0.002)], [1000] * 20, None),
    "slow_middle": ([("fast", 0.001), ("slow", 0.050), ("fast2", 0.001)],
                    [100] * 40, None),
    "slow_first": ([("slow", 0.050), ("fast", 0.001)], [100] * 30, None),
    "per_byte_small": ([("scale", _per_byte(1e-6))], [1000] * 10, None),
    "per_byte_large": ([("scale", _per_byte(1e-6))], [100_000] * 10, None),
    "transforms": ([("double", 0.0, lambda x: x * 2),
                    ("inc", 0.0, lambda x: x + 1)],
                   [(8, 1), (8, 2), (8, 3)], None),
    "explicit_cores": ([("a", 0.001), ("b", 0.001)], [100] * 5, [5, 9]),
    "pinned_core": ([("pinned", 0.001, None, 30), ("auto", 0.001)],
                    [10] * 3, None),
    "one_stage": ([("a", 0.010)], [1000] * 10, None),
    "balanced_20ms": ([("a", 0.020), ("b", 0.020)], [100] * 50, None),
    "depth_1": (_balanced(1), [64_000] * 100, None),
    "depth_2": (_balanced(2), [64_000] * 100, None),
    "depth_4": (_balanced(4), [64_000] * 100, None),
    "depth_8": (_balanced(8), [64_000] * 100, None),
    "bottleneck": ([("fast_in", 0.002), ("slow", 0.040),
                    ("fast_out", 0.002)], [64_000] * 100, None),
    "energy_depth_1": (_balanced(1), [64_000] * 20, None),
    "energy_depth_6": (_balanced(6), [64_000] * 20, None),
    "log_analytics": ([("parse", _per_byte(40e-9)),
                       ("filter", _per_byte(8e-9)),
                       ("aggregate", 0.75e-3),
                       ("compress", _per_byte(15e-9))], _LOG_BATCHES, None),
}

#: (items_completed, makespan_s, throughput, stage_busy_means,
#: stage_idle_means, outputs, energy_j), floats as ``float.hex``
PINNED = {
    "two_stages": (
        20, "0x1.6015367303aedp-5", "0x1.d15852058217ap+8",
        [("a", "0x1.fe5076486a0b3p-10"), ("b", "0x1.0624dd2f1a9fep-9")],
        [("a", "0x1.badd892fbc35dp-15"), ("b", "0x1.ab295b6578d8ap-14")],
        [], "0x1.a21930a8945f9p+0"),
    "slow_middle": (
        40, "0x1.005c24cec16dep+1", "0x1.3f8cfb63bfe84p+4",
        [("fast", "0x1.8f9987fbe2633p-5"),
         ("slow", "0x1.99a770f2b162dp-5"),
         ("fast2", "0x1.0624dd2f1a8f3p-10")],
        [("fast", "0x1.2bed215eaa0b8p-17"),
         ("slow", "0x1.0bdea7e2fdda8p-15"),
         ("fast2", "0x1.91e921f5a6bd9p-5")],
        [], "0x1.346edc48c0b83p+6"),
    "slow_first": (
        30, "0x1.806d74ffa2ff5p+0", "0x1.3fa4e32396c63p+4",
        [("slow", "0x1.99a770f2b162dp-5"), ("fast", "0x1.0624dd2f1a944p-10")],
        [("slow", "0x1.2b48f7978d83ap-17"), ("fast", "0x1.91cf5c67b6d91p-5")],
        [], "0x1.c881faef918f3p+5"),
    "per_byte_small": (
        10, "0x1.668c26138fffap-7", "0x1.c8f4713cb0803p+9",
        [("scale", "0x1.0624dd2f1a9fcp-10")],
        [("scale", "0x1.8b1a7ad589323p-15")],
        [], "0x1.a42c3c9eecbf9p-2"),
    "per_byte_large": (
        10, "0x1.170cfe1544350p+0", "0x1.25911147730dcp+3",
        [("scale", "0x1.9999999999999p-4")],
        [("scale", "0x1.270cb443690d1p-8")],
        [], "0x1.470339c0ebee2p+5"),
    "transforms": (
        3, "0x1.e1a55a5066d90p-16", "0x1.98334639381adp+16",
        [("double", "0x1.4a2cf4d5aa6bfp-19"), ("inc", "0x0.0p+0")],
        [("double", "0x1.00fd5ac7424e0p-18"),
         ("inc", "0x1.dd1b5355b3eb5p-18")],
        [3, 5, 7], "0x1.1dfa2d9fbd10ep-10"),
    "explicit_cores": (
        5, "0x1.9068d8dc7a950p-8", "0x1.992e58abd1adbp+9",
        [("a", "0x1.0801d71aae822p-10"), ("b", "0x1.0624dd2f1a9fcp-10")],
        [("a", "0x1.baeb22f9294f3p-18"), ("b", "0x1.c369bb744ea0ep-13")],
        [], "0x1.db7c8185d190fp-3"),
    "pinned_core": (
        3, "0x1.0828a33752268p-8", "0x1.7423ceaf04caap+9",
        [("pinned", "0x1.06fa5aa491443p-10"),
         ("auto", "0x1.0624dd2f1a9fbp-10")],
        [("pinned", "0x1.d23d2422c9c18p-19"),
         ("auto", "0x1.6598c46ae1d81p-12")],
        [], "0x1.39b041d1b18dcp-3"),
    "one_stage": (
        10, "0x1.9d755bccaf70ap-4", "0x1.8c4464d0c0950p+6",
        [("a", "0x1.47ae147ae147ap-7")],
        [("a", "0x1.8b1a7ad5893d3p-15")],
        [], "0x1.e4858793dd980p+1"),
    "balanced_20ms": (
        50, "0x1.0567bbc9d3828p+0", "0x1.87ba9f7275039p+5",
        [("a", "0x1.47c9c32d10dafp-6"), ("b", "0x1.47ae147ae147dp-6")],
        [("a", "0x1.2c4fa0d61fe60p-17"), ("b", "0x1.b3dfc73ce8c98p-12")],
        [], "0x1.366b2effab2b0p+5"),
    "depth_1": (
        100, "0x1.939042d8c29f5p+0", "0x1.fb7a9ddda1955p+5",
        [("s0", "0x1.47ae147ae147fp-7")],
        [("s0", "0x1.79c33a7cd382ep-9")],
        [], "0x1.d8ed0e560412bp+5"),
    "depth_2": (
        100, "0x1.e71fe04524962p+0", "0x1.a46d27ab6ffabp+5",
        [("s0", "0x1.a61ee31a16273p-7"), ("s1", "0x1.47ae147ae1480p-7")],
        [("s0", "0x1.9af28d9046a84p-9"), ("s1", "0x1.92cc2601f3ea8p-8")],
        [], "0x1.213aed290db92p+6"),
    "depth_4": (
        100, "0x1.f040ecda335a5p+0", "0x1.9cb13494826eep+5",
        [("s0", "0x1.a61ee31a16271p-7"),
         ("s1", "0x1.a63bf421fb503p-7"),
         ("s2", "0x1.a76ec458dfe61p-7"),
         ("s3", "0x1.47ae147ae1480p-7")],
        [("s0", "0x1.a032702cc81f8p-9"),
         ("s1", "0x1.b46a15cd907e6p-9"),
         ("s2", "0x1.bf23c540b71aep-9"),
         ("s3", "0x1.a78b3c0c344e4p-8")],
        [], "0x1.2e679054f74b1p+6"),
    "depth_8": (
        100, "0x1.02def31c33791p+1", "0x1.8b906065fcc12p+5",
        [("s0", "0x1.a99c96a41bc80p-7"),
         ("s1", "0x1.ae8f0d444e3a0p-7"),
         ("s2", "0x1.b4424d00fdcedp-7"),
         ("s3", "0x1.ac8fc3da25f7bp-7"),
         ("s4", "0x1.ab5db47b53d4cp-7"),
         ("s5", "0x1.aa6c95ffca4d2p-7"),
         ("s6", "0x1.a8bf7c573e781p-7"),
         ("s7", "0x1.47ae147ae147dp-7")],
        [("s0", "0x1.aab23565cb0e1p-9"),
         ("s1", "0x1.abf0146cccd60p-9"),
         ("s2", "0x1.a5338e7462c44p-9"),
         ("s3", "0x1.bf01e4dad627ap-9"),
         ("s4", "0x1.d3cb6057cb1edp-9"),
         ("s5", "0x1.ecc4f0d293d46p-9"),
         ("s6", "0x1.114ac508b560fp-8"),
         ("s7", "0x1.dbec4a7142eccp-8")],
        [], "0x1.4bada77c21f32p+6"),
    "bottleneck": (
        100, "0x1.38269b5fc25b9p+2", "0x1.480beb97e117bp+4",
        [("fast_in", "0x1.5a1b3ef5b4223p-5"),
         ("slow", "0x1.5f4a4822ae800p-5"),
         ("fast_out", "0x1.0624dd2f1a8cdp-9")],
        [("fast_in", "0x1.9af28d9046a53p-9"),
         ("slow", "0x1.83fde59958668p-9"),
         ("fast_out", "0x1.657c1d01cf80dp-5")],
        [], "0x1.778e72ef35d63p+7"),
    "energy_depth_1": (
        20, "0x1.42d9cf13cee9fp-2", "0x1.fb7a9ddda18eep+5",
        [("s0", "0x1.47ae147ae147ep-7")],
        [("s0", "0x1.79c33a7cd3901p-9")],
        [], "0x1.7a573eab367a2p+3"),
    "energy_depth_6": (
        20, "0x1.d442edc9aaea6p-2", "0x1.5de3d7aa07aa8p+5",
        [("s0", "0x1.a7f74bb79fa7ep-7"),
         ("s1", "0x1.ab4fb7d6cf105p-7"),
         ("s2", "0x1.aaeada7ee7138p-7"),
         ("s3", "0x1.a9ee8855c6d56p-7"),
         ("s4", "0x1.a8bf7c573e81ep-7"),
         ("s5", "0x1.47ae147ae147ep-7")],
        [("s0", "0x1.a4519a6862856p-9"),
         ("s1", "0x1.ff9026e27b455p-9"),
         ("s2", "0x1.32422a1ee54c3p-8"),
         ("s3", "0x1.68694ba98227ep-8"),
         ("s4", "0x1.9c5470e232030p-8"),
         ("s5", "0x1.4478668506285p-7")],
        [], "0x1.24a9d49e0ad28p+4"),
    "log_analytics": (
        200, "0x1.46c533916bbc4p+3", "0x1.395eb564ef3fap+4",
        [("parse", "0x1.9dcfeed29e853p-6"),
         ("filter", "0x1.26d964d084247p-6"),
         ("aggregate", "0x1.c1a28885670b8p-7"),
         ("compress", "0x1.07187d27dd8e6p-8")],
        [("parse", "0x1.b30cecb31b8bap-7"),
         ("filter", "0x1.54248417a0043p-6"),
         ("aggregate", "0x1.964899f3b624dp-6"),
         ("compress", "0x1.1b281d891428ap-5")],
        [], "0x1.8e4056d93b4d7p+8"),
}


@functools.lru_cache(maxsize=None)
def _run_case(case):
    stages, items, cores = CASES[case]
    return _pipeline(stages, cores).run(items)


@pytest.mark.parametrize("case", CASES)
def test_pinned_results(case):
    result = _run_case(case)
    assert (
        result.items_completed, result.makespan_s.hex(),
        result.throughput.hex(),
        [(k, v.hex()) for k, v in result.stage_busy_means.items()],
        [(k, v.hex()) for k, v in result.stage_idle_means.items()],
        result.outputs, result.energy_j.hex(),
    ) == PINNED[case]


# ---------------------------------------------------------------------------
# the paper's generalization claim on synthetic macro pipelines
# ---------------------------------------------------------------------------

def test_balanced_throughput_independent_of_depth():
    """Adding balanced 10 ms stages costs one hand-off (~5 ms/item at
    64 KB) per boundary, but throughput never collapses, and depth 8
    does 8x the work in far less than 8x the time."""
    depths = {d: _run_case(f"depth_{d}") for d in (1, 2, 4, 8)}
    for depth, result in depths.items():
        assert result.throughput > 0.55 * depths[1].throughput, depth
    assert depths[8].makespan_s < 2.0 * depths[1].makespan_s


def test_bottleneck_sets_the_period():
    """Period ~= the slow stage's service plus its two hand-offs, and
    the stage downstream of it idles."""
    result = _run_case("bottleneck")
    assert result.makespan_s / 100 == pytest.approx(0.040 + 2 * 0.0048,
                                                    rel=0.15)
    assert result.stage_idle_means["fast_out"] \
        > 5 * result.stage_idle_means["slow"]


def test_energy_grows_with_cores():
    assert _run_case("energy_depth_6").energy_j \
        > _run_case("energy_depth_1").energy_j
