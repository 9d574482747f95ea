"""CLI surface of the store: --store sinks, query, report, merge."""

import json

import pytest

from repro.cli import main
from repro.store import ResultStore

from .conftest import avf_row, point_record, sweep_point, write_journal


@pytest.fixture
def seeded_path(store, store_path):
    store.put_avf_rows(
        [
            avf_row(workload="matmul", sdc_avf=0.10),
            avf_row(workload="matmul", mode="4x1", sdc_avf=0.30),
            avf_row(workload="transpose", sdc_avf=0.20),
        ]
    )
    return store_path


class TestProducerFlags:
    def test_avf_store_is_idempotent(self, tmp_path, capsys):
        path = tmp_path / "r.sqlite"
        argv = ["avf", "vectoradd", "--structure", "l1", "--mode", "2x1",
                "--scheme", "parity", "--store", str(path)]
        assert main(argv) == 0
        assert "stored: 1 new, 0 already present" in capsys.readouterr().out
        assert main(argv) == 0
        assert "stored: 0 new, 1 already present" in capsys.readouterr().out
        with ResultStore(path) as store:
            rows = store.query()
            assert len(rows) == 1
            assert rows[0].workload == "vectoradd"
            assert rows[0].source == "cli/avf"

    def test_mttf_store(self, tmp_path, capsys):
        path = tmp_path / "r.sqlite"
        assert main(["mttf", "--store", str(path)]) == 0
        capsys.readouterr()
        with ResultStore(path) as store:
            assert len(store.mttf_rows()) >= 4

    @pytest.mark.parametrize("argv", [
        ["avf", "vectoradd", "--structure", "l1", "--mode", "2x1",
         "--scheme", "parity"],
        ["mttf"],
    ], ids=["avf", "mttf"])
    def test_json_stdout_stays_one_document(self, tmp_path, capsys, argv):
        """With --json the store notice goes to stderr, so stdout parses."""
        path = tmp_path / "r.sqlite"
        assert main([*argv, "--json", "--store", str(path)]) == 0
        out, err = capsys.readouterr()
        assert isinstance(json.loads(out), dict)
        assert "already present" in err

    def test_store_in_missing_directory_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["mttf", "--store", str(tmp_path / "absent" / "r.sqlite")])

    def test_store_directory_path_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["mttf", "--store", str(tmp_path)])


class TestQueryCommand:
    def test_text_table(self, seeded_path, capsys):
        assert main(["query", "--store", str(seeded_path)]) == 0
        out = capsys.readouterr().out
        assert "3 rows" in out
        assert "matmul" in out and "transpose" in out

    def test_filters_and_json(self, seeded_path, capsys):
        assert main(
            ["query", "--store", str(seeded_path),
             "--workload", "matmul", "--mode", "4x1", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["rows"][0]["sdc_avf"] == 0.30

    def test_repeated_flag_is_an_in_list(self, seeded_path, capsys):
        assert main(
            ["query", "--store", str(seeded_path),
             "--workload", "matmul", "--workload", "transpose", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 3

    def test_group_by(self, seeded_path, capsys):
        assert main(
            ["query", "--store", str(seeded_path), "--group-by",
             "workload", "--value", "sdc_avf", "--agg", "mean", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        groups = {
            tuple(g["key"]): g["sdc_avf"] for g in payload["groups"]
        }
        assert groups[("matmul",)] == pytest.approx(0.2)
        assert groups[("transpose",)] == pytest.approx(0.2)

    def test_missing_store_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["query", "--store", str(tmp_path / "absent.sqlite")])

    def test_bad_group_column_is_rejected(self, seeded_path):
        with pytest.raises(SystemExit):
            main(["query", "--store", str(seeded_path),
                  "--group-by", "sdc_avf"])


class TestReportCommand:
    def test_build_writes_index(self, seeded_path, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(
            ["report", "build", "--store", str(seeded_path),
             "--out", str(out)]
        ) == 0
        assert "report written to" in capsys.readouterr().out
        html = (out / "index.html").read_text()
        assert "MB-AVF results store" in html
        assert "matmul" in html

    def test_missing_store_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "build",
                  "--store", str(tmp_path / "absent.sqlite")])


class TestCampaignMergeStore:
    def test_merge_store_reingest_is_noop(self, tmp_path, capsys):
        """'campaign merge --store' twice: the second run folds zero new
        journal records and stores zero new rows."""
        store_path = tmp_path / "r.sqlite"
        canonical = tmp_path / "canonical.jsonl"
        write_journal(canonical, [point_record("grid/vgpr/matmul/c0")])
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        write_journal(
            shard_dir / "node-a.jsonl",
            [point_record(
                "grid/vgpr/matmul/c1", point=sweep_point(mode="4x1")
            )],
        )
        argv = ["campaign", "merge", "--resume", str(canonical),
                "--shard-dir", str(shard_dir), "--store", str(store_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "merged 1 records" in out
        assert "stored: 2 new, 0 already present" in out

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "merged 0 records" in out
        assert "stored: 0 new, 2 already present" in out
        with ResultStore(store_path) as store:
            assert len(store.query()) == 2
