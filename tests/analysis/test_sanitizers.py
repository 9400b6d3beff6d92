"""Runtime sanitizers: clean runs stay silent, and injected MPB bugs and
teardown leaks each produce exactly one attributed diagnostic.  (The
kernel's own invariants are assertions in the event loop; see
tests/sim/test_core.py.)"""

from repro.analysis.sanitizers import SanitizerSuite
from repro.pipeline import PipelineRunner
from repro.rcce import RCCEComm
from repro.scc import SCCChip
from repro.scc.topology import CORES_PER_TILE
from repro.sim import Simulator
from repro.telemetry import Telemetry


def sanitized_chip():
    """A chip + comm wired to a fresh suite (telemetry hub enabled)."""
    sim = Simulator()
    tel = Telemetry()
    suite = SanitizerSuite(tel)
    tel.sanitizers = suite
    chip = SCCChip(sim, telemetry=tel)
    return sim, chip, RCCEComm(chip), suite


def test_clean_pipeline_run_has_zero_diagnostics():
    suite = SanitizerSuite()
    PipelineRunner(config="one_renderer", pipelines=2, frames=8,
                   sanitizers=suite).run()
    assert suite.clean
    assert suite.summary() == "sanitizers: 0 diagnostics"


def test_sanitized_run_is_bit_identical_to_unsanitized():
    # the reference profile of docs/performance.md
    kwargs = dict(config="mcpc_renderer", pipelines=5, frames=50)
    suite = SanitizerSuite()
    sanitized = PipelineRunner(sanitizers=suite, **kwargs).run()
    plain = PipelineRunner(**kwargs).run()
    assert sanitized == plain
    assert suite.clean, suite.summary()


def test_clean_mpb_send_recv_has_zero_diagnostics():
    sim, chip, comm, suite = sanitized_chip()

    def sender(sim, comm):
        yield from comm.send(0, 4, 40_000, via="mpb")  # multi-chunk
        yield from comm.send(0, 4, 123, via="mpb")

    def receiver(sim, comm):
        yield from comm.recv(4, 0)
        yield from comm.recv(4, 0)

    procs = [sim.process(sender(sim, comm)),
             sim.process(receiver(sim, comm))]
    sim.run(until=sim.all_of(procs))
    suite.check_teardown(sim, procs)
    assert suite.clean, suite.summary()


def test_runner_detaches_suite_from_shared_hub():
    tel = Telemetry()
    suite = SanitizerSuite()
    PipelineRunner(config="one_renderer", pipelines=1, frames=4,
                   telemetry=tel, sanitizers=suite).run()
    assert tel.sanitizers is None  # a second run must not double-hook
    assert suite.telemetry is tel  # runner adopted the run's hub


# -- injected bug: broken RCCE flag handshake --------------------------------

def test_mpb_write_without_handshake_is_one_diagnostic():
    """A raw multi-chunk push with no rendezvous/flag handshake yields
    exactly ONE diagnostic (deduped across chunks), attributed to the
    writing core and the window owner's tile."""
    sim, chip, comm, suite = sanitized_chip()

    def rogue(sim, comm):
        yield from comm._mpb_push(3, 7, 20_000)  # 3 chunks

    sim.process(rogue(sim, comm))
    sim.run()
    diags = suite.of("mpb_race")
    assert len(diags) == 1
    assert "without an RCCE flag handshake" in diags[0].message
    assert diags[0].core == 3
    assert diags[0].tile == 7 // CORES_PER_TILE


def test_flag_write_opens_the_window():
    """The flag protocol is the other legitimate handshake: write the
    owner's flag first and the same raw push is silent."""
    sim, chip, comm, suite = sanitized_chip()
    from repro.rcce import FlagAllocator

    flag = FlagAllocator(chip).alloc(owner=7)

    def polite(sim, comm, flag):
        yield from flag.write(3, 1)
        yield from comm._mpb_push(3, 7, 4_000)

    sim.process(polite(sim, comm, flag))
    sim.run()
    assert suite.of("mpb_race") == []


def test_mpb_write_write_race_detected():
    sim, chip, comm, suite = sanitized_chip()

    def racer(sim, suite, src):
        # Two unsynchronized writers hitting core 9's window at once.
        suite.on_mpb_handshake(9, src, sim.now)  # silence the unsync check
        yield sim.timeout(0.0)
        suite.on_mpb_write(9, src, sim.now, sim.now + 1.0)

    sim.process(racer(sim, suite, 2))
    sim.process(racer(sim, suite, 5))
    sim.run()
    diags = suite.of("mpb_race")
    assert len(diags) == 1
    assert "write-write race" in diags[0].message
    assert diags[0].tile == 9 // CORES_PER_TILE


def test_mpb_read_during_write_detected():
    suite = SanitizerSuite()
    suite.on_mpb_handshake(9, 2, 0.0)
    suite.on_mpb_write(9, 2, 0.0, 2.0)
    suite.on_mpb_read(9, 4, 1.0, 1.5)  # overlaps the write
    diags = suite.of("mpb_race")
    assert len(diags) == 1
    assert "read" in diags[0].message
    assert diags[0].core == 4


def test_mpb_back_to_back_read_after_write_is_clean():
    suite = SanitizerSuite()
    suite.on_mpb_handshake(9, 2, 0.0)
    suite.on_mpb_write(9, 2, 0.0, 2.0)
    suite.on_mpb_read(9, 4, 2.0, 3.0)  # touching endpoints: no overlap
    assert suite.clean


# -- event lifecycle: teardown accounting ------------------------------------

def test_dropped_event_reported_at_teardown():
    sim = Simulator()
    suite = SanitizerSuite()

    def waiter(sim):
        yield sim.timeout(100.0)  # scheduled, but the run stops at t=1

    def short(sim):
        yield sim.timeout(1.0)

    dropped = sim.process(waiter(sim))
    horizon = sim.process(short(sim))
    sim.run(until=horizon)
    suite.check_teardown(sim, [dropped, horizon])
    diags = suite.of("event_lifecycle")
    assert len(diags) == 2  # the calendar entry and the alive process
    assert any("never processed" in d.message for d in diags)
    assert any("never finished" in d.message for d in diags)


def test_teardown_of_completed_run_is_clean():
    sim = Simulator()
    suite = SanitizerSuite()

    def proc(sim):
        yield sim.timeout(1.0)

    p = sim.process(proc(sim))
    sim.run(until=p)
    suite.check_teardown(sim, [p])
    assert suite.clean, suite.summary()


# -- reporting / telemetry ----------------------------------------------------

def test_diagnostics_mirror_into_telemetry():
    tel = Telemetry()
    suite = SanitizerSuite(tel)
    suite.report("mpb_race", "boom", 1.5, core=3, tile=1)
    events = tel.events_in("sanitizer")
    assert len(events) == 1
    assert events[0].fields["message"] == "boom"
    assert tel.counters.get("sanitizer.mpb_race.diagnostics").value == 1


def test_diagnostic_format_carries_attribution():
    suite = SanitizerSuite()
    d = suite.report("mpb_race", "boom", 1.5, core=3, tile=1)
    assert d.format() == "[mpb_race] t=1.500000 core=3 tile=1: boom"


def test_cli_run_sanitize_exit_codes(capsys):
    from repro.cli import main

    assert main(["run", "--config", "one_renderer", "--pipelines", "1",
                 "--frames", "4", "--sanitize", "--no-cache"]) == 0
    assert "sanitizers: 0 diagnostics" in capsys.readouterr().out
