"""Tests for the RCCE-style communication layer."""

import pytest

from repro.rcce import Message, RCCEComm
from repro.scc import MemoryConfig, MeshConfig, SCCChip, SCCConfig
from repro.sim import DeadlockError, Simulator


def make_chip(**mem_overrides):
    mem = dict(mc_latency_s=0.0, mc_bandwidth=1e8, core_copy_bandwidth=1e7,
               command_bytes=0)
    mem.update(mem_overrides)
    cfg = SCCConfig(
        mesh=MeshConfig(hop_latency_s=0.0, link_bandwidth=1e15),
        memory=MemoryConfig(**mem),
    )
    return SCCChip(Simulator(), cfg)


def test_send_recv_dram_roundtrip():
    chip = make_chip()
    comm = RCCEComm(chip)
    got = {}

    def sender():
        yield from comm.send(0, 5, 1000, tag=7)

    def receiver():
        msg = yield from comm.recv(5, 0)
        got["msg"] = msg
        got["t"] = chip.sim.now

    chip.sim.process(sender())
    chip.sim.process(receiver())
    chip.sim.run()
    assert isinstance(got["msg"], Message)
    assert got["msg"].tag == 7
    assert got["msg"].nbytes == 1000
    # write_to + read_own, each = MC + copy time
    expected = 2 * (1000 / 1e8 + 1000 / 1e7)
    assert got["t"] == pytest.approx(expected)


def test_send_blocks_until_recv_posted():
    chip = make_chip()
    comm = RCCEComm(chip)
    times = {}

    def sender():
        yield from comm.send(0, 5, 8)
        times["send_done"] = chip.sim.now

    def receiver():
        yield chip.sim.timeout(3.0)
        yield from comm.recv(5, 0)

    chip.sim.process(sender())
    chip.sim.process(receiver())
    chip.sim.run()
    assert times["send_done"] >= 3.0


def test_unmatched_send_deadlocks():
    chip = make_chip()
    comm = RCCEComm(chip)

    def sender():
        yield from comm.send(0, 5, 8)

    p = chip.sim.process(sender())
    with pytest.raises(DeadlockError):
        chip.sim.run(until=p)


def test_dram_path_charges_receivers_controller():
    chip = make_chip()
    comm = RCCEComm(chip)

    def sender():
        yield from comm.send(0, 47, 5000)

    def receiver():
        yield from comm.recv(47, 0)

    chip.sim.process(sender())
    chip.sim.process(receiver())
    chip.sim.run()
    # write into 47's partition + 47's own read-back: both MC3.
    assert chip.memory.controllers[3].bytes_served == 10_000
    assert chip.memory.controllers[0].bytes_served == 0


def test_send_validation():
    chip = make_chip()
    comm = RCCEComm(chip)
    with pytest.raises(ValueError):
        list(comm.send(0, 0, 10))
    with pytest.raises(ValueError):
        list(comm.send(0, 1, -1))


def test_messages_between_same_pair_stay_ordered():
    chip = make_chip()
    comm = RCCEComm(chip)
    received = []

    def sender():
        for i in range(5):
            yield from comm.send(0, 5, 100, tag=i)

    def receiver():
        for _ in range(5):
            msg = yield from comm.recv(5, 0)
            received.append(msg.tag)

    chip.sim.process(sender())
    chip.sim.process(receiver())
    chip.sim.run()
    assert received == [0, 1, 2, 3, 4]


def test_monitoring_counters():
    chip = make_chip()
    comm = RCCEComm(chip)

    def sender():
        yield from comm.send(0, 5, 123)

    def receiver():
        yield from comm.recv(5, 0)

    chip.sim.process(sender())
    chip.sim.process(receiver())
    chip.sim.run()
    assert comm.messages_delivered == 1
    assert comm.bytes_delivered == 123
