"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCLI:
    def test_testbed_listing(self, capsys):
        assert main(["testbed"]) == 0
        out = capsys.readouterr().out
        assert "milena" in out
        assert "Ultra10/440" in out
        assert "manager" in out

    def test_grid_listing(self, capsys):
        assert main(["grid"]) == 0
        out = capsys.readouterr().out
        assert "vienna" in out
        assert "budapest" in out
        assert "domain manager" in out

    def test_matmul_real_verifies(self, capsys):
        assert main(["matmul", "--n", "64", "--nodes", "3",
                     "--real", "--profile", "dedicated"]) == 0
        out = capsys.readouterr().out
        assert "verified    : True" in out

    def test_matmul_nominal(self, capsys):
        assert main(["matmul", "--n", "500", "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "simulated seconds" in out

    def test_fig5_small_series(self, capsys):
        assert main(["fig5", "--n", "400", "--nodes", "1,4"]) == 0
        out = capsys.readouterr().out
        assert "night speedup" in out
        assert "Figure 5" in out

    def test_bad_node_list_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig5", "--nodes", "0,99"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestTraceCommand:
    def test_trace_matmul_writes_chrome_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        assert main(["trace", "matmul", "--n", "64", "--nodes", "3",
                     "--profile", "dedicated",
                     "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and str(out_path) in out
        data = json.loads(out_path.read_text())
        events = data["traceEvents"]
        # RPC spans with microsecond timestamps and metadata records.
        assert any(e.get("ph") == "X" and e.get("cat") == "rpc"
                   for e in events)
        assert any(e.get("ph") == "M" for e in events)

    def test_trace_summary_sections(self, capsys):
        assert main(["trace", "matmul", "--n", "64", "--nodes", "3",
                     "--profile", "dedicated"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "simulated" in out
        assert "RPC" in out

    def test_trace_script_target(self, capsys, tmp_path):
        script = tmp_path / "tiny_app.py"
        script.write_text(
            "from repro import JSObj, JSRegistration, JSCodebase, "
            "TestbedConfig, jsclass, vienna_testbed\n"
            "@jsclass\n"
            "class Pinger:\n"
            "    def ping(self):\n"
            "        return 'pong'\n"
            "def app():\n"
            "    reg = JSRegistration()\n"
            "    cb = JSCodebase(); cb.add(Pinger); cb.load(['rachel'])\n"
            "    obj = JSObj('Pinger', 'rachel')\n"
            "    assert obj.sinvoke('ping') == 'pong'\n"
            "    obj.free(); reg.unregister()\n"
            "rt = vienna_testbed(TestbedConfig(load_profile='dedicated'))\n"
            "rt.run_app(app)\n"
        )
        assert main(["trace", str(script), "--no-summary"]) == 0
        assert capsys.readouterr().out == ""

    def test_trace_no_summary_builds_no_document(self, capsys,
                                                 monkeypatch):
        """With nothing to render, the snapshot document is not built."""
        import repro.obs

        def refuse(tracer):
            raise AssertionError("snapshot_document built for no view")

        monkeypatch.setattr(repro.obs, "snapshot_document", refuse)
        assert main(["trace", "matmul", "--n", "32", "--nodes", "3",
                     "--profile", "dedicated", "--no-summary"]) == 0
        assert capsys.readouterr().out == ""

    def test_trace_unknown_target_exits_2(self, capsys):
        assert main(["trace", "no/such/script.py"]) == 2
        assert "no such trace target" in capsys.readouterr().err


class TestSpansCommand:
    def test_spans_matmul_prints_tree_and_critical_path(self, capsys):
        assert main(["spans", "matmul", "--n", "32", "--nodes", "3",
                     "--profile", "dedicated",
                     "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "app" in out
        assert "rpc.request" in out
        assert "Critical path" in out
        assert "makespan" in out

    def test_spans_json_document(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "spans.json"
        assert main(["spans", "matmul", "--n", "32", "--nodes", "3",
                     "--profile", "dedicated", "--critical-path",
                     "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["span_count"] == len(doc["spans"])
        segs = doc["critical_path"]["segments"]
        total = sum(s["dur"] for s in segs)
        assert abs(total - doc["makespan"]) <= 0.01 * doc["makespan"]

    def test_spans_unknown_target_exits_2(self, capsys):
        assert main(["spans", "no/such/script.py"]) == 2
        assert "no such trace target" in capsys.readouterr().err


class TestTopCommand:
    def test_top_matmul_renders_frames(self, capsys):
        assert main(["top", "matmul", "--n", "32", "--nodes", "3",
                     "--profile", "dedicated", "--frames", "4"]) == 0
        out = capsys.readouterr().out
        assert "js-top" in out
        assert "in-flight" in out
        assert "milena" in out
        # NAS samples land inside the run (default --monitor-period),
        # so the idle column is populated.
        assert "%" in out

    def test_top_unknown_target_exits_2(self, capsys):
        assert main(["top", "no/such/script.py"]) == 2
        assert "no such trace target" in capsys.readouterr().err

class TestMetricsCommand:
    def test_metrics_prom_exposition(self, capsys):
        assert main(["metrics", "matmul", "--n", "64", "--nodes", "3",
                     "--profile", "dedicated", "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_rpc_latency histogram" in out
        assert 'le="+Inf"' in out
        assert "repro_rpc_latency_count" in out

    def test_metrics_json_document(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "metrics.json"
        assert main(["metrics", "matmul", "--n", "64", "--nodes", "3",
                     "--profile", "dedicated",
                     "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        merged = doc["merged"]["counters"]
        for name, value in merged.items():
            assert value == sum(host["counters"].get(name, 0.0)
                                for host in doc["hosts"].values())
        assert doc["merged"]["histograms"]
        assert doc["hosts"]

    def test_metrics_kill_writes_incident_bundles(self, capsys, tmp_path):
        import json

        assert main(["metrics", "matmul", "--n", "64", "--nodes", "4",
                     "--profile", "dedicated",
                     "--kill", "greta@0.1",
                     "--incident-dir", str(tmp_path), "--prom"]) == 0
        err = capsys.readouterr().err
        assert "incident" in err
        bundles = sorted(tmp_path.glob("*.json"))
        assert bundles
        doc = json.loads(bundles[0].read_text())
        assert doc["trigger"]
        assert doc["metrics"]["merged"]

    def test_metrics_bad_kill_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["metrics", "matmul", "--kill", "nonsense"])

    def test_metrics_unknown_target_exits_2(self, capsys):
        assert main(["metrics", "no/such/script.py"]) == 2
        assert "no such trace target" in capsys.readouterr().err


class TestIncidentsCommand:
    def _make_bundles(self, tmp_path):
        from repro.obs import FlightRecorder, Tracer
        from repro.obs import events as ev

        tracer = Tracer()
        recorder = FlightRecorder(tracer, incident_dir=str(tmp_path))
        recorder.attach()
        tracer.emit(ev.RPC_TIMEOUT, ts=1.0, host="a", kind="X")
        tracer.host_failed("b", 3.0)
        return sorted(tmp_path.glob("*.json"))

    def test_incidents_renders_directory(self, capsys, tmp_path):
        paths = self._make_bundles(tmp_path)
        assert len(paths) == 2
        assert main(["incidents", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "rpc.timeout" in out
        assert "host.failed" in out

    def test_incidents_renders_single_file(self, capsys, tmp_path):
        paths = self._make_bundles(tmp_path)
        assert main(["incidents", str(paths[0])]) == 0
        out = capsys.readouterr().out
        assert "incident" in out

    def test_incidents_missing_target_exits_2(self, capsys):
        assert main(["incidents", "/no/such/dir"]) == 2
        assert capsys.readouterr().err

    def test_incidents_empty_dir_exits_1(self, tmp_path):
        assert main(["incidents", str(tmp_path)]) == 1


#: verbs that run the ``matmul`` builtin and share its flags
MATMUL_VERBS = ["matmul", "trace", "spans", "top", "metrics", "chaos", "san"]


def _describe(verb, monkeypatch):
    """A verb's ``--help`` text plus every option's default."""
    monkeypatch.setenv("COLUMNS", "80")
    sub = build_parser()._subparsers._group_actions[0].choices[verb]
    defaults = sorted(
        (a.dest, repr(a.default)) for a in sub._actions if a.dest != "help"
    )
    return sub.format_help() + "\ndefaults:\n" + "".join(
        f"  {dest} = {default}\n" for dest, default in defaults
    )


@pytest.mark.parametrize("verb", MATMUL_VERBS)
def test_help_text_and_defaults_are_pinned(verb, monkeypatch):
    from pathlib import Path

    snapshot = Path(__file__).parent / "fixtures" / "cli_help" / f"{verb}.txt"
    assert _describe(verb, monkeypatch) == snapshot.read_text()
