"""Tests for the command-line interface."""

import contextlib
import io
import re

import pytest

from repro.cli import build_parser, main
from repro.report import paper


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command(capsys):
    assert main(["run", "--config", "n_renderers", "--pipelines", "2",
                 "--frames", "20"]) == 0
    out = capsys.readouterr().out
    assert "walkthrough" in out
    assert "n_renderers" in out
    assert "SCC power" in out


def test_run_command_with_gantt(capsys):
    assert main(["run", "--config", "one_renderer", "--pipelines", "1",
                 "--frames", "10", "--gantt"]) == 0
    out = capsys.readouterr().out
    assert "blur[0]" in out
    assert "t0=" in out


def test_run_command_with_trace_out(tmp_path):
    import json

    from repro.telemetry import validate_chrome_trace

    trace = tmp_path / "run.json"
    assert main(["run", "--config", "one_renderer", "--pipelines", "1",
                 "--frames", "10", "--trace-out", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    assert validate_chrome_trace(doc) == []


def test_profile_command(tmp_path, capsys):
    import json

    from repro.telemetry import validate_chrome_trace

    trace = tmp_path / "t.json"
    counters = tmp_path / "c.json"
    assert main(["profile", "--config", "one_renderer", "--pipelines", "2",
                 "--frames", "20", "--trace-out", str(trace),
                 "--counters-out", str(counters), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "top report" in out
    assert "hottest mesh links" in out
    assert "busiest stages" in out
    doc = json.loads(trace.read_text())
    assert validate_chrome_trace(doc) == []
    dump = json.loads(counters.read_text())
    assert any(k.startswith("mesh.link.") for k in dump["counters"])
    assert any(k.startswith("dram.mc") for k in dump["counters"])
    assert any(k.startswith("stage.") for k in dump["counters"])


def test_profile_counters_csv(tmp_path):
    counters = tmp_path / "c.csv"
    assert main(["profile", "--config", "one_renderer", "--pipelines", "1",
                 "--frames", "5", "--counters-out", str(counters)]) == 0
    text = counters.read_text()
    assert text.startswith("name,kind,value")
    assert "mesh.bytes,counter," in text


def test_profile_fails_fast_on_unwritable_output(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "t.json"
    assert main(["profile", "--config", "one_renderer", "--frames", "5",
                 "--trace-out", str(missing)]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_run_rejects_unknown_config():
    with pytest.raises(SystemExit):
        main(["run", "--config", "quantum"])


@pytest.fixture(scope="module")
def paper_run():
    """``repro paper``'s exit code and output, run once for the tests
    below (the whole campaign takes a few seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["paper"])
    return code, out.getvalue()


def test_paper_command(paper_run):
    code, out = paper_run
    assert code == 0
    assert "ok   energy/hybrid (MCPC render, 5 pl.) (J)" in out
    assert "ok   table1/mcpc_renderer/flipped/7" in out
    assert out.splitlines()[-1].endswith(" findings, 0 outside their band")


def test_table1_quick(paper_run):
    # Table I is printed by ``repro paper``: every configuration, every
    # pipeline count, each cell beside its paper value.
    _, out = paper_run
    for name in ("one_renderer", "n_renderers", "mcpc_renderer",
                 "hpc_single_renderer", "hpc_parallel_renderer",
                 "hpc_external_renderer"):
        for n in paper.TABLE1_PIPELINES:
            assert re.search(rf"^ok   table1/{name}/\w+/{n} +paper ",
                             out, re.MULTILINE), (name, n)
    assert "ok   table1/ranking at 7 pl. (fastest first)" in out


def test_dvfs_command(paper_run):
    # The §VI-D frequency study is printed by ``repro paper``: each plan's
    # walkthrough and power, and the speed-up of blur at 800 MHz.
    _, out = paper_run
    for plan in paper.FREQUENCY_PLANS:
        assert f"ok   dvfs/{plan} walkthrough (s)" in out
        assert f"ok   dvfs/{plan} power (W)" in out
    assert "ok   dvfs/speed-up of blur at 800 MHz" in out


def test_describe_prints_a_cluster_graph(capsys):
    assert main(["describe", "--config", "external_renderer",
                 "--pipelines", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "Node cores used: 12"
    assert lines[2].startswith("  render       [remote node] -> connect: ")
    assert lines[3].endswith(": get sif-socket, compute, put sepia[0], "
                             "put sepia[1]")


def test_film_writes_frames(tmp_path, capsys):
    out_dir = tmp_path / "frames"
    assert main(["film", "--frames", "3", "--side", "48",
                 "--out", str(out_dir)]) == 0
    files = sorted(out_dir.glob("*.ppm"))
    assert len(files) == 3
    from repro.render import read_ppm
    img = read_ppm(files[0])
    assert img.shape == (48, 48, 3)
    assert "wrote 3 frames" in capsys.readouterr().out


def test_explain_command(capsys):
    assert main(["explain", "--config", "mcpc_renderer",
                 "--pipelines", "5"]) == 0
    out = capsys.readouterr().out
    assert "bottleneck" in out
    assert "makespan" in out


def test_explain_rejects_single_core():
    with pytest.raises(SystemExit):
        main(["explain", "--config", "single_core"])


def test_tune_command(capsys):
    assert main(["tune", "--config", "n_renderers", "--frames", "60"]) == 0
    out = capsys.readouterr().out
    assert "best" in out and "<-- best" in out


def test_sweep_command_cold_then_warm(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["sweep", "--config", "one_renderer", "--pipelines", "1", "2",
            "--frames", "5", "--cache-dir", cache_dir]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "sweep one_renderer" in out
    assert "2 points: 0 cached, 2 simulated" in out

    # warm re-run: every point answered from the cache
    assert main(argv + ["--expect-all-cached"]) == 0
    out = capsys.readouterr().out
    assert "2 points: 2 cached, 0 simulated" in out


def test_sweep_expect_all_cached_fails_on_cold_cache(tmp_path, capsys):
    assert main(["sweep", "--config", "one_renderer", "--pipelines", "1",
                 "--frames", "5", "--cache-dir", str(tmp_path / "fresh"),
                 "--expect-all-cached"]) == 1
    assert "expected a fully warm cache" in capsys.readouterr().err


def test_sweep_no_cache_always_simulates(capsys):
    argv = ["sweep", "--config", "one_renderer", "--pipelines", "1",
            "--frames", "5", "--no-cache"]
    assert main(argv) == 0
    assert "1 simulated" in capsys.readouterr().out
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "0 cached, 1 simulated" in out
    assert "cache off" in out


def test_sweep_json_export(tmp_path):
    import json

    out_path = tmp_path / "sweep.json"
    assert main(["sweep", "--config", "one_renderer", "--pipelines", "1",
                 "--frames", "5", "--no-cache", "--json",
                 str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert len(doc) == 1
    assert doc[0]["config"] == "one_renderer"


def test_run_command_uses_cache(tmp_path, capsys):
    argv = ["run", "--config", "one_renderer", "--pipelines", "1",
            "--frames", "5", "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    assert "result cache  : stored" in capsys.readouterr().out
    assert main(argv) == 0
    assert "result cache  : hit" in capsys.readouterr().out


def test_run_json_names_the_engine_once(capsys):
    import json

    assert main(["run", "--config", "one_renderer", "--pipelines", "1",
                 "--frames", "5", "--no-cache", "--engine", "batched",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["engine"] == "batched"


def test_run_no_cache_stays_live(capsys):
    assert main(["run", "--config", "one_renderer", "--pipelines", "1",
                 "--frames", "5", "--no-cache"]) == 0
    assert "result cache" not in capsys.readouterr().out


# -- analyze / diff -----------------------------------------------------------

def test_analyze_deep_with_html_and_snapshot(tmp_path, capsys):
    import json

    html = tmp_path / "report.html"
    snap = tmp_path / "snap.json"
    assert main(["analyze", "--config", "mcpc_renderer", "--pipelines", "3",
                 "--frames", "16", "--no-cache", "--html", str(html),
                 "--snapshot-out", str(snap)]) == 0
    out = capsys.readouterr().out
    assert "makespan" in out
    assert "bottleneck" in out
    assert "pipeline filter" in out
    text = html.read_text(encoding="utf-8")
    assert "<svg" in text and "critical path" in text
    doc = json.loads(snap.read_text())
    assert any(k.startswith("critpath.") for k in doc["metrics"])
    assert any(k.startswith("attr.") for k in doc["metrics"])


def test_analyze_shallow_json_snapshot(capsys):
    import json

    assert main(["analyze", "--shallow", "--config", "one_renderer",
                 "--pipelines", "4", "--frames", "16", "--no-cache",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["labels"]["verdict.stage"] == "render"
    assert not any(k.startswith("critpath.") for k in doc["metrics"])


def test_analyze_run_names_the_bottleneck(capsys):
    assert main(["analyze", "--config", "one_renderer", "--pipelines", "2",
                 "--frames", "10", "--no-cache"]) == 0
    assert "bottleneck" in capsys.readouterr().out


def test_analyze_trace_file(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(["run", "--config", "mcpc_renderer", "--pipelines", "2",
                 "--frames", "10", "--no-cache",
                 "--trace-out", str(trace)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "makespan" in out and "bottleneck" in out


def test_analyze_trace_flag_conflicts(tmp_path, capsys):
    trace = tmp_path / "t.json"
    trace.write_text("{}")
    assert main(["analyze", "--trace", str(trace), "--shallow"]) == 2
    assert "incompatible" in capsys.readouterr().err


def test_analyze_trace_bad_file(tmp_path, capsys):
    bad = tmp_path / "not-a-trace.json"
    bad.write_text("{\"traceEvents\": []}")
    assert main(["analyze", "--trace", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["analyze", "--trace", str(tmp_path / "missing.json")]) == 2


def test_diff_command_gate_cycle(tmp_path, capsys):
    import json

    base_args = ["analyze", "--shallow", "--config", "one_renderer",
                 "--pipelines", "2", "--frames", "10", "--no-cache",
                 "--snapshot-out"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(base_args + [str(a)]) == 0
    assert main(base_args + [str(b)]) == 0
    capsys.readouterr()

    # bit-identical rerun: exit 0
    assert main(["diff", str(a), str(b)]) == 0
    assert "OK" in capsys.readouterr().out

    # injected 10% regression: exit 1 under a 2% tolerance
    doc = json.loads(b.read_text())
    doc["metrics"]["time.walkthrough_s"] *= 1.10
    b.write_text(json.dumps(doc))
    tol = tmp_path / "tol.json"
    tol.write_text(json.dumps(
        {"default": {"rel": 0.02}, "rules": []}))
    assert main(["diff", str(a), str(b), "--tolerances", str(tol)]) == 1
    assert "REGRESSION" in capsys.readouterr().out

    # unreadable input: exit 2
    assert main(["diff", str(a), str(tmp_path / "nope.json")]) == 2


def test_sweep_with_eventlog_and_metrics_endpoint(tmp_path, capsys):
    import json
    import urllib.request

    log = tmp_path / "events.jsonl"
    assert main(["sweep", "--config", "one_renderer", "--pipelines", "1",
                 "--arrangements", "ordered", "--frames", "8", "--jobs", "1",
                 "--no-cache", "--log", str(log)]) == 0
    events = [json.loads(line) for line in log.read_text().splitlines()]
    names = [e["event"] for e in events]
    assert names[0] == "exec.sweep.start" and names[-1] == "exec.sweep.finish"
    assert all("digest" in e for e in events
               if e["event"].startswith("run."))

    # --serve-metrics publishes the fleet during (and with --serve-hold,
    # just after) the sweep; port 0 binds an ephemeral port.
    assert main(["sweep", "--config", "one_renderer", "--pipelines", "1",
                 "--arrangements", "ordered", "--frames", "8", "--jobs", "1",
                 "--no-cache", "--serve-metrics", "0",
                 "--serve-hold", "0"]) == 0
    out = capsys.readouterr().out
    assert "/metrics" in out and "/healthz" in out


def test_top_command_renders_dashboard(tmp_path, capsys):
    assert main(["top", "--config", "one_renderer", "--pipelines", "1", "2",
                 "--arrangements", "ordered", "--frames", "8",
                 "--jobs", "1", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "repro top" in out
    assert "sweep finished" in out


def test_bench_is_an_unknown_command(capsys):
    # benchmarking lives in perfbench/run.py and scripts/perf_gate.py
    with pytest.raises(SystemExit) as exc:
        main(["bench", "trend"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "bench" in err
