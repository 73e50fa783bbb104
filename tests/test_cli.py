"""Unit tests for the ``dsspy`` command-line interface."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def legacy_file(tmp_path):
    path = tmp_path / "legacy.py"
    path.write_text(
        textwrap.dedent(
            """
            def main():
                xs = []
                for i in range(300):
                    xs.append(i)
                return len(xs)
            """
        )
    )
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_args(self):
        args = build_parser().parse_args(
            ["analyze", "f.py", "--entry", "main", "--dicts", "--charts"]
        )
        assert args.file == "f.py"
        assert args.entry == "main"
        assert args.dicts and args.charts

    def test_tables_default_scale(self):
        args = build_parser().parse_args(["tables"])
        assert args.scale == 0.3


class TestAnalyze:
    def test_analyze_file(self, legacy_file, capsys):
        assert main(["analyze", str(legacy_file), "--entry", "main"]) == 0
        out = capsys.readouterr().out
        assert "1 sites instrumented" in out or "sites instrumented" in out
        assert "Long-Insert" in out
        assert "search space reduction" in out

    def test_analyze_with_charts(self, legacy_file, capsys):
        assert main(
            ["analyze", str(legacy_file), "--entry", "main", "--charts"]
        ) == 0
        out = capsys.readouterr().out
        assert "size envelope" in out


class TestScan:
    def test_scan_file(self, legacy_file, capsys):
        assert main(["scan", str(legacy_file)]) == 0
        out = capsys.readouterr().out
        assert "1 instantiation sites" in out

    def test_scan_directory(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text("xs = []\nd = {}\n")
        assert main(["scan", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dynamic instances: 2" in out


class TestTables:
    def test_table7(self, capsys):
        assert main(["tables", "table7"]) == 0
        assert "This work" in capsys.readouterr().out

    def test_unknown_table(self, capsys):
        assert main(["tables", "table99"]) == 2

    def test_table6(self, capsys):
        assert main(["tables", "table6"]) == 0
        assert "94.29%" in capsys.readouterr().out


class TestDemo:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Long-Insert" in out
        assert "Frequent-Long-Read" in out


class TestTransformCommand:
    def test_transform_writes_output(self, legacy_file, tmp_path, capsys):
        out = tmp_path / "out.py"
        assert main(["transform", str(legacy_file), "-o", str(out)]) == 0
        text = out.read_text()
        assert "parallel_fill" in text
        assert "1 transforms" in capsys.readouterr().out

    def test_transform_dry_run(self, legacy_file, capsys):
        assert main(["transform", str(legacy_file), "--dry-run"]) == 0
        assert "parallelized fill loop" in capsys.readouterr().out

    def test_default_output_suffix(self, legacy_file, capsys):
        assert main(["transform", str(legacy_file)]) == 0
        assert legacy_file.with_suffix(".parallel.py").exists()


class TestPersistenceFlags:
    def test_save_then_load(self, legacy_file, tmp_path, capsys):
        archive = tmp_path / "cap.jsonl"
        assert main(
            ["analyze", str(legacy_file), "--entry", "main", "--save", str(archive)]
        ) == 0
        assert archive.exists()
        capsys.readouterr()
        assert main(["analyze", "--load", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "archived profiles loaded" in out
        assert "Long-Insert" in out


class TestCompareCommand:
    def test_compare_archives(self, tmp_path, capsys):
        import textwrap

        queueish = tmp_path / "queueish.py"
        queueish.write_text(
            textwrap.dedent(
                """
                def main():
                    jobs = []
                    for i in range(90):
                        jobs.append(i)
                    while jobs:
                        jobs.pop(0)
                """
            )
        )
        fixed = tmp_path / "fixed.py"
        fixed.write_text("def main():\n    jobs = []\n    jobs.append(1)\n")
        before = tmp_path / "before.jsonl"
        after = tmp_path / "after.jsonl"
        assert main(["analyze", str(queueish), "--entry", "main", "--save", str(before)]) == 0
        assert main(["analyze", str(fixed), "--entry", "main", "--save", str(after)]) == 0
        capsys.readouterr()
        assert main(["compare", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "resolved: 1" in out
        assert "Implement-Queue" in out

    def test_compare_flags_new_smells(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def main():\n    jobs = []\n    jobs.append(1)\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "def main():\n    jobs = []\n"
            "    for i in range(300):\n        jobs.append(i)\n"
        )
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        main(["analyze", str(clean), "--entry", "main", "--save", str(a)])
        main(["analyze", str(dirty), "--entry", "main", "--save", str(b)])
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 1  # new smell -> nonzero
        assert "introduced: 1" in capsys.readouterr().out


class TestQualityCommand:
    def test_quality_passes_at_paper_thresholds(self, capsys):
        assert main(["quality"]) == 0
        out = capsys.readouterr().out
        assert "macro-F1" in out

    def test_quality_gate_can_fail(self, capsys):
        # An impossible bar: macro-F1 cannot exceed 1.
        assert main(["quality", "--min-f1", "1.01"]) == 1


class TestSessionsErrorPaths:
    def test_daemon_down_is_reported_not_raised(self, capsys):
        # Grab a port that nothing listens on.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["sessions", f"127.0.0.1:{port}"]) == 1
        err = capsys.readouterr().err
        assert "cannot reach daemon" in err

    def test_stale_unix_socket_file(self, tmp_path, capsys):
        # A daemon that died uncleanly leaves the socket file behind;
        # connecting to it must produce a diagnostic, not a traceback.
        from repro.service import ProfilingDaemon

        path = tmp_path / "stale.sock"
        daemon = ProfilingDaemon(unix_socket=path)
        address = daemon.address
        daemon.close()
        path.touch()  # simulate the leftover file
        assert main(["sessions", address]) == 1
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_malformed_address(self, capsys):
        assert main(["sessions", "not-an-address"]) == 1
        err = capsys.readouterr().err
        assert "invalid daemon address" in err
        assert "HOST:PORT" in err

    def test_sessions_against_live_daemon(self, capsys):
        from repro.service import ProfilingDaemon

        with ProfilingDaemon(port=0) as daemon:
            assert main(["sessions", daemon.address]) == 0
            assert "no sessions" in capsys.readouterr().out


class TestAnalyzeRemoteErrorPaths:
    def test_remote_daemon_down(self, legacy_file, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        rc = main(["analyze", str(legacy_file), "--remote", f"127.0.0.1:{port}"])
        assert rc == 2
        assert "cannot reach profiling daemon" in capsys.readouterr().err

    def test_remote_malformed_address(self, legacy_file, capsys):
        assert main(["analyze", str(legacy_file), "--remote", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_remote_and_spill_conflict(self, legacy_file, tmp_path, capsys):
        rc = main(
            [
                "analyze",
                str(legacy_file),
                "--remote",
                "127.0.0.1:1",
                "--spill",
                str(tmp_path / "x.spill"),
            ]
        )
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestAnalyzeSampling:
    """``--sample`` takes ``all`` or ``burst:1000/10``, and only for an
    analysis that stays in this process."""

    def test_burst_sampling_reports_skipped_events(self, tmp_path, capsys):
        program = tmp_path / "long.py"
        program.write_text(
            "def main():\n"
            "    xs = []\n"
            "    for i in range(3000):\n"
            "        xs.append(i)\n"
            "    return sum(xs[i] for i in range(3000))\n",
            encoding="utf-8",
        )
        argv = ["analyze", str(program), "--entry", "main", "--sample", "burst:1000/10"]
        assert main(argv) == 0
        assert "sampling (burst:1000/10): " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["--sample", "1/10"], ["--sample", "burst:0/10"], ["--sample-seed", "7"]],
        ids=["decimate", "burst-0", "seed"],
    )
    def test_retired_sampling_settings_exit_2(self, legacy_file, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(legacy_file), "--entry", "main", *argv])
        assert excinfo.value.code == 2
        assert argv[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--remote", "--save", "--spill"])
    def test_sample_refused_where_the_capture_is_reanalyzed(
        self, legacy_file, tmp_path, capsys, flag
    ):
        target = "127.0.0.1:1" if flag == "--remote" else str(tmp_path / "copy")
        argv = ["analyze", str(legacy_file), "--entry", "main"]
        rc = main([*argv, "--sample", "burst:1000/10", flag, target])
        assert rc == 2
        captured = capsys.readouterr()
        assert "cannot be combined with --remote, --save or --spill" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "copy").exists()


class TestMalformedHello:
    def test_non_string_session_id_gets_error_frame(self):
        import socket as socket_mod

        from repro.service import MessageType, ProfilingDaemon
        from repro.service.protocol import decode_json, encode_json, recv_frame

        with ProfilingDaemon(port=0) as daemon:
            sock = socket_mod.create_connection((daemon.host, daemon.port), timeout=5)
            try:
                sock.sendall(encode_json(MessageType.HELLO, {"session": 123}))
                frame = recv_frame(sock)
                assert frame is not None
                mtype, payload = frame
                assert mtype == MessageType.ERROR
                assert "must be a string" in decode_json(payload)["error"]
            finally:
                sock.close()


class TestNetworkOnlyChaos:
    """``dsspy chaos`` with disk, storm and upgrade faults off: the
    batch ≡ streaming ≡ daemon check under network faults alone."""

    NETWORK_ONLY = [
        "--disk-fault-rate", "0", "--storm-rate", "0", "--upgrade-rate", "0",
        "--max-faults", "8", "--window", "64", "--progress", "0",
    ]

    def _chaos(self, capsys, *argv):
        rc = main(["chaos", *self.NETWORK_ONLY, *argv])
        captured = capsys.readouterr()
        return rc, json.loads(captured.out), captured.err

    def test_network_only_chaos_passes_and_reports(self, capsys):
        rc, summary, err = self._chaos(
            capsys, "--trials", "3", "--fault-intensity", "0.25"
        )
        assert rc == 0, err
        assert summary["ok"] and summary["trials"] == 3
        assert summary["upgrades"] == 0 and summary["refusals_observed"] == 0
        assert "chaos soak (inproc): 3 trials" in err

    def test_network_only_chaos_without_faults(self, capsys):
        rc, summary, _ = self._chaos(
            capsys, "--trials", "2", "--fault-intensity", "0"
        )
        assert rc == 0
        assert summary["faults_injected"] == 0

    def test_violation_prints_shrunk_reproduction(self, capsys, monkeypatch):
        from repro.service.session import Session

        # Every REGISTER is lost: each trial violates, and so does any
        # non-empty trace, so the shrink must end at one event.
        monkeypatch.setattr(Session, "register", lambda self, *args: None)
        rc, summary, err = self._chaos(
            capsys, "--trials", "3", "--fault-intensity", "0", "--stop-on-violation"
        )
        assert rc == 1
        assert summary["seeds_with_violations"] == [0]
        assert "minimal reproduction: trace(seed=0, 1 instances, 1 events" in err
        assert "replay with: dsspy chaos --trials 1 --seed 0 " in err


class TestWhatIfCommand:
    def test_whatif_on_saved_archive(self, legacy_file, tmp_path, capsys):
        archive = tmp_path / "run.jsonl"
        assert main(
            ["analyze", str(legacy_file), "--entry", "main", "--save", str(archive)]
        ) == 0
        capsys.readouterr()
        assert main(["whatif", str(archive), "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "What-if predictions" in out
        assert "pred" in out  # the ranked table header

    def test_whatif_json_carries_predictions(self, legacy_file, tmp_path, capsys):
        import json

        archive = tmp_path / "run.jsonl"
        main(["analyze", str(legacy_file), "--entry", "main", "--save", str(archive)])
        capsys.readouterr()
        assert main(["whatif", str(archive), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["use_cases"], "expected the 300-append workload to flag"
        speeds = [u["predicted_speedup"] for u in doc["use_cases"]]
        assert all(s is not None for s in speeds)
        assert speeds == sorted(speeds, reverse=True)

    def test_whatif_without_input_is_an_error(self, capsys):
        assert main(["whatif"]) == 2
        assert "trace file or --address" in capsys.readouterr().err

    def test_whatif_missing_trace(self, tmp_path, capsys):
        assert main(["whatif", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_whatif_garbage_input(self, tmp_path, capsys):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\x00\xff\x13\x37 not a trace \x80\x81")
        assert main(["whatif", str(junk)]) == 2
        assert "not a spill file or profile archive" in capsys.readouterr().err

    def test_whatif_daemon_down(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["whatif", "--address", f"127.0.0.1:{port}"]) == 2
        assert "cannot snapshot" in capsys.readouterr().err

    def test_whatif_no_sessions_on_live_daemon(self, capsys):
        from repro.service import ProfilingDaemon

        with ProfilingDaemon(port=0) as daemon:
            assert main(["whatif", "--address", daemon.address]) == 1
            assert "no snapshot" in capsys.readouterr().err

    def test_whatif_quiet_on_unflagged_trace(self, tmp_path, capsys):
        quiet = tmp_path / "quiet.py"
        quiet.write_text("def main():\n    xs = []\n    xs.append(1)\n")
        archive = tmp_path / "quiet.jsonl"
        main(["analyze", str(quiet), "--entry", "main", "--save", str(archive)])
        capsys.readouterr()
        assert main(["whatif", str(archive)]) == 0
        assert "no use cases flagged" in capsys.readouterr().out

    def test_whatif_malformed_address(self, capsys):
        assert main(["whatif", "--address", "not-an-address"]) == 2
        assert "cannot snapshot" in capsys.readouterr().err
