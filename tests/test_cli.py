"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_mode, main
from repro.core import FaultMode


class TestParseMode:
    def test_linear(self):
        assert _parse_mode("3x1") == FaultMode.linear(3)

    def test_rect(self):
        assert _parse_mode("2x2") == FaultMode.rect(2, 2)

    def test_case_insensitive(self):
        assert _parse_mode("4X1") == FaultMode.linear(4)

    def test_bad_mode(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_mode("banana")

    @pytest.mark.parametrize("text", ["0x1", "2x0", "0x0"])
    def test_empty_mode_says_what_is_wrong(self, text, capsys):
        """A zero or negative dimension is a bad mode, not a crash in the
        FaultMode constructor."""
        with pytest.raises(SystemExit) as exc:
            main(["avf", "vectoradd", "--mode", text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"bad fault mode '{text}' (want MxN, M and N >= 1)" in err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "minife" in out

    def test_run(self, capsys):
        assert main(["run", "vectoradd"]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out
        assert "OK" in out

    def test_avf(self, capsys):
        assert main(
            ["avf", "vectoradd", "--structure", "l2", "--mode", "2x1",
             "--scheme", "parity"]
        ) == 0
        out = capsys.readouterr().out
        assert "DUE MB-AVF" in out
        assert "SDC MB-AVF" in out

    def test_avf_vgpr(self, capsys):
        assert main(
            ["avf", "vectoradd", "--structure", "vgpr", "--mode", "2x1",
             "--style", "inter_thread", "--factor", "2"]
        ) == 0
        assert "vgpr" in capsys.readouterr().out

    def test_avf_l1_row_is_filed_under_l1(self, tmp_path, capsys):
        """The merged L1 result is named after CU 0, but ``--store``
        files it under the structure that was asked for."""
        import json

        path = str(tmp_path / "l1.sqlite")
        assert main(
            ["avf", "vectoradd", "--structure", "l1", "--mode", "2x1",
             "--scheme", "parity", "--json", "--store", path]
        ) == 0
        live = json.loads(capsys.readouterr().out)
        assert main(
            ["query", "--store", path, "--structure", "l1", "--json"]
        ) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert (row["structure"], row["source"]) == ("l1", "cli/avf")
        for key in ("due_avf", "sdc_avf", "true_due_avf", "false_due_avf",
                    "total_avf"):
            assert row[key] == live[key], key

    def test_ser(self, capsys):
        assert main(
            ["ser", "vectoradd", "--structure", "vgpr", "--scheme", "parity",
             "--style", "inter_thread", "--factor", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "SER" in out and "8x1" in out

    def test_inject(self, capsys):
        assert main(
            ["inject", "vectoradd", "--singles", "5", "--groups", "2",
             "--cus", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "SDC ACE bits" in out

    def test_mttf(self, capsys):
        assert main(["mttf"]) == 0
        assert "tMBF" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "not-a-workload"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestCampaignRuntimeFlags:
    """The fault-tolerant runtime options on ``inject`` and ``campaign``."""

    def test_inject_isolated_with_resume(self, capsys, tmp_path):
        """The acceptance path: --jobs/--timeout/--retries/--resume end to
        end on an OpenCL-sample benchmark, then a resumed re-run."""
        journal = tmp_path / "campaign.jsonl"
        argv = [
            "inject", "transpose", "--singles", "4", "--groups", "2",
            "--cus", "1", "--jobs", "2", "--timeout", "60",
            "--retries", "1", "--resume", str(journal),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "SDC ACE bits" in first
        assert "resumed" not in first
        assert journal.exists() and journal.read_text().count("\n") >= 4
        # Everything is journaled now, so the re-run replays the journal
        # and says so; the campaign report itself is unchanged.
        assert main(argv) == 0
        second = capsys.readouterr().out
        notice, rest = second.split("\n", 1)
        assert notice.startswith("resumed ")
        assert notice.endswith(" completed tasks from journal")
        assert int(notice.split()[1]) >= 4
        assert rest == first

    def test_campaign_subcommand(self, capsys, tmp_path):
        assert main(
            ["campaign", "transpose", "vectoradd", "--singles", "3",
             "--groups", "1", "--cus", "1",
             "--resume", str(tmp_path / "suite.jsonl")]
        ) == 0
        out = capsys.readouterr().out
        assert "benchmark: transpose" in out
        assert "benchmark: vectoradd" in out
        assert "total SDC ACE bits" in out

    def test_timeout_without_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["inject", "transpose", "--timeout", "5"])

    def test_negative_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["inject", "transpose", "--jobs", "-1"])

    @pytest.mark.parametrize("timeout", ["0", "-1"])
    def test_non_positive_timeout_rejected(self, timeout, capsys):
        """A zero or negative budget would fail every injection as a
        timeout; the parser refuses it instead."""
        with pytest.raises(SystemExit) as exc:
            main(["inject", "vectoradd", "--singles", "2", "--groups", "0",
                  "--jobs", "1", "--timeout", timeout])
        assert exc.value.code == 2
        assert "--timeout must be > 0" in capsys.readouterr().err

    def test_negative_query_limit_rejected(self, tmp_path, capsys):
        """sqlite reads a negative LIMIT as no limit; the parser refuses
        it."""
        with pytest.raises(SystemExit) as exc:
            main(["query", "--store", str(tmp_path / "s.sqlite"),
                  "--limit", "-1"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_negative_retries_rejected(self):
        with pytest.raises(SystemExit):
            main(["inject", "transpose", "--retries", "-2"])

    def test_directory_journal_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["inject", "transpose", "--resume", str(tmp_path)])

    @pytest.mark.parametrize("argv, message", [
        (["run", "matmul", "--cus", "0"], "must be >= 1"),
        (["campaign", "vectoradd", "--cus", "0"], "must be >= 1"),
        (["inject", "vectoradd", "--cus", "-1"], "must be >= 1"),
        (["avf", "matmul", "--factor", "0"], "must be >= 1"),
        (["ser", "matmul", "--factor", "-2"], "must be >= 1"),
        (["run", "matmul", "--cus", "two"], "invalid _positive_int value"),
    ])
    def test_non_positive_count_rejected(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["inject", "vectoradd", "--singles", "-1"],
        ["inject", "vectoradd", "--groups", "-1"],
        ["campaign", "vectoradd", "--singles", "-3"],
        ["campaign", "vectoradd", "--groups", "-1"],
    ])
    def test_negative_injection_count_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["avf", "vectoradd", "--structure", "l1", "--style", "inter_thread"],
        ["avf", "vectoradd", "--structure", "vgpr", "--style", "way"],
        ["ser", "vectoradd", "--structure", "l2", "--style", "intra_thread"],
    ])
    def test_impossible_layout_rejected_before_simulating(
        self, argv, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before checking the layout")

        monkeypatch.setattr("repro.cli.run", no_run)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "cannot lay out" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (
            ["avf", "vectoradd", "--structure", "vgpr",
             "--style", "inter_thread", "--factor", "3"],
            "--factor 3: inter-thread factor must divide thread count",
        ),
        (
            ["avf", "vectoradd", "--structure", "l1",
             "--style", "way", "--factor", "3"],
            "--factor 3: way interleaving factor must divide associativity",
        ),
        (
            ["ser", "vectoradd", "--structure", "l1",
             "--style", "index", "--factor", "3"],
            "--factor 3: index interleaving factor must divide set count",
        ),
        (
            ["avf", "vectoradd", "--structure", "l2", "--paper-caches",
             "--style", "index", "--factor", "1024"],
            "--factor 1024: index interleaving factor must divide set count",
        ),
        (
            ["avf", "vectoradd", "--mode", "9999x1"],
            "--mode 9999x1 does not fit the l1 array "
            "(64 rows x 512 columns)",
        ),
        (
            ["avf", "vectoradd", "--paper-caches", "--structure", "l2",
             "--mode", "2x9999"],
            "--mode 2x9999 does not fit the l2 array "
            "(4096 rows x 512 columns)",
        ),
    ])
    def test_impossible_factor_or_mode_rejected_before_simulating(
        self, argv, message, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before checking the layout")

        monkeypatch.setattr("repro.cli.run", no_run)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (
            ["--style", "intra_thread", "--factor", "16"],
            "--factor 16: intra-thread factor must divide register count",
        ),
        (
            ["--mode", "9999x1"],
            "--mode 9999x1 does not fit the vgpr array (256 rows x ",
        ),
    ])
    def test_layout_the_run_cannot_take_exits_2(self, argv, message, capsys):
        """The register count and wavefront count are the run's: what
        only the run rules out still exits 2 with the reason."""
        with pytest.raises(SystemExit) as exc:
            main(["avf", "vectoradd", "--cus", "1", "--structure", "vgpr",
                  *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("flag", ["--scaled", "--paper-caches"])
    def test_inject_takes_no_cache_flags(self, flag, capsys):
        """Injection campaigns always run the default caches."""
        with pytest.raises(SystemExit) as exc:
            main(["inject", "vectoradd", flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_campaign_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign", "transpose", "not-a-benchmark"])


class TestObservabilityFlags:
    """--json, --trace and --metrics surfacing plus the stats command."""

    def _json_out(self, capsys, argv):
        import json

        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_run_json(self, capsys):
        doc = self._json_out(capsys, ["run", "vectoradd", "--json"])
        assert doc["workload"] == "vectoradd"
        assert doc["instructions"] > 0
        assert doc["verified"] is True
        assert "l2" in doc["caches"]

    def test_avf_json(self, capsys):
        doc = self._json_out(
            capsys,
            ["avf", "vectoradd", "--mode", "2x1", "--scheme", "parity",
             "--json"],
        )
        assert doc["mode"] == "2x1"
        assert doc["scheme"] == "parity"
        assert 0.0 <= doc["due_avf"] <= 1.0
        assert 0.0 <= doc["sdc_avf"] <= 1.0
        assert doc["groups"] > 0

    def test_ser_json(self, capsys):
        doc = self._json_out(
            capsys, ["ser", "vectoradd", "--structure", "l1", "--json"]
        )
        assert "1x1" in doc["modes"]
        assert doc["total_fit"] >= 0.0

    def test_mttf_json(self, capsys):
        doc = self._json_out(capsys, ["mttf", "--json"])
        assert len(doc["rows"]) >= 1
        assert "mttf_tmbf_100yr" in doc["rows"][0]

    def test_avf_trace_and_metrics_files(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(
            ["avf", "vectoradd", "--trace", str(trace),
             "--metrics", str(metrics)]
        ) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"simulate", "lifetime", "enumerate", "integrate"} <= names
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["sim.kernel_launches"] >= 1
        assert snap["counters"]["avf.computations"] >= 1

    def test_jsonl_trace_extension(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(["run", "vectoradd", "--trace", str(trace)]) == 0
        capsys.readouterr()
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert any(e["name"] == "simulate" for e in events)

    def test_campaign_trace_covers_all_stages(self, tmp_path, capsys):
        """Acceptance: the campaign trace shows every pipeline stage."""
        import json

        trace = tmp_path / "campaign.json"
        assert main(
            ["campaign", "vectoradd", "--singles", "2", "--groups", "1",
             "--cus", "1", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {
            "simulate", "lifetime", "enumerate", "integrate", "inject",
        } <= names

    def test_campaign_reports_model_avf(self, capsys):
        assert main(
            ["inject", "vectoradd", "--singles", "2", "--groups", "1",
             "--cus", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "model SDC AVF" in out

    def test_stats(self, capsys):
        assert main(["stats", "vectoradd"]) == 0
        out = capsys.readouterr().out
        assert "== stage timings ==" in out
        assert "== metrics ==" in out
        assert "simulate" in out
        assert "sim.instructions" in out

    def test_trace_to_directory_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "vectoradd", "--trace", str(tmp_path)])

    def test_trace_to_missing_directory_rejected(self, tmp_path):
        """Export paths are validated before any work runs."""
        with pytest.raises(SystemExit):
            main(
                ["run", "vectoradd", "--trace",
                 str(tmp_path / "no" / "such" / "t.json")]
            )

    def test_metrics_to_missing_directory_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["avf", "vectoradd", "--metrics",
                 str(tmp_path / "missing" / "m.json")]
            )

    def test_observability_restored_after_command(self, capsys):
        from repro import obs

        assert main(["stats", "vectoradd"]) == 0
        capsys.readouterr()
        assert not obs.enabled()

    def test_stats_wraps_arbitrary_subcommand(self, capsys):
        """``repro stats -- CMD ...`` profiles any other subcommand."""
        assert main(["stats", "--", "mttf"]) == 0
        out = capsys.readouterr().out
        assert "FIT/Mbit" in out  # the wrapped mttf table ran
        assert "== stage timings ==" in out
        assert "== metrics ==" in out

    def test_stats_wrapper_propagates_exit_code(self, capsys, tmp_path):
        assert main(
            ["stats", "--", "campaign", "merge",
             "--resume", str(tmp_path / "j.jsonl")]
        ) == 2

    def test_stats_wrapper_rejects_empty_inner_command(self):
        with pytest.raises(SystemExit):
            main(["stats", "--"])


class TestFabricFlags:
    """--fabric/--listen/--connect validation and the journal-maintenance
    subcommands (``campaign merge`` / ``campaign compact``)."""

    def test_listen_without_fabric_rejected(self):
        with pytest.raises(SystemExit):
            main(["inject", "transpose", "--listen", "127.0.0.1:0"])

    def test_connect_without_fabric_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--connect", "127.0.0.1:9"])

    def test_fabric_worker_requires_campaign_command(self):
        with pytest.raises(SystemExit):
            main(["inject", "transpose", "--fabric", "worker",
                  "--connect", "127.0.0.1:9"])

    def test_fabric_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--fabric", "worker"])

    def test_malformed_endpoint_rejected(self):
        with pytest.raises(SystemExit):
            main(["inject", "transpose", "--fabric", "coordinator",
                  "--listen", "noport"])

    def test_timeout_allowed_under_fabric_coordinator(self, capsys,
                                                      tmp_path):
        """--timeout without --jobs is legal in fabric mode: lease expiry
        enforces it instead of process isolation."""
        assert main(
            ["inject", "transpose", "--singles", "2", "--groups", "1",
             "--cus", "1", "--timeout", "60",
             "--fabric", "coordinator",
             "--resume", str(tmp_path / "j.jsonl")]
        ) == 0
        captured = capsys.readouterr()
        assert "fabric coordinator listening on" in captured.err
        assert "SDC ACE bits" in captured.out

    def test_fleetless_coordinator_campaign_demotes_to_local(
        self, capsys, tmp_path
    ):
        """A coordinator with no workers still finishes the campaign by
        demoting every task to local execution."""
        import json

        journal = tmp_path / "campaign.jsonl"
        assert main(
            ["inject", "transpose", "--singles", "2", "--groups", "1",
             "--cus", "1", "--fabric", "coordinator",
             "--resume", str(journal)]
        ) == 0
        out = capsys.readouterr().out
        assert "SDC ACE bits" in out
        nodes = {
            json.loads(line)["node"]
            for line in journal.read_text().splitlines()
        }
        assert nodes == {"local"}

    def test_merge_requires_resume(self, capsys):
        assert main(["campaign", "merge"]) == 2
        assert "requires --resume" in capsys.readouterr().err

    def test_merge_requires_shard_dir(self, capsys, tmp_path):
        assert main(
            ["campaign", "merge", "--resume", str(tmp_path / "j.jsonl")]
        ) == 2
        assert "requires --shard-dir" in capsys.readouterr().err
        assert main(
            ["campaign", "merge", "--resume", str(tmp_path / "j.jsonl"),
             "--shard-dir", str(tmp_path / "nowhere")]
        ) == 2

    def test_merge_folds_shards_into_canonical_journal(self, capsys,
                                                       tmp_path):
        from repro.runtime.journal import Journal

        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        shard = Journal(shard_dir / "n0.jsonl")
        shard.append({
            "task": "m/00", "outcome": "ok", "value": 1, "error": "",
            "attempts": 1, "duration": 0.0, "seq": 1, "node": "n0",
        })
        shard.close()
        journal = tmp_path / "campaign.jsonl"
        assert main(
            ["campaign", "merge", "--resume", str(journal),
             "--shard-dir", str(shard_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "merged 1 records from 1 shards" in out
        assert Journal(journal).load()["m/00"]["value"] == 1

    def test_compact_requires_resume(self, capsys):
        assert main(["campaign", "compact"]) == 2
        assert "requires --resume" in capsys.readouterr().err

    def test_compact_missing_journal(self, capsys, tmp_path):
        assert main(
            ["campaign", "compact", "--resume", str(tmp_path / "no.jsonl")]
        ) == 2
        assert "does not exist" in capsys.readouterr().err
