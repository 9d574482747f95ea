"""Exit codes and reports of a plain lint run: the gate CI keys off."""

import json

from repro.staticcheck.cli import main

from .conftest import FIXTURES


def test_findings_exit_1(capsys):
    assert main([str(FIXTURES)]) == 1


def test_clean_tree_exit_0(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("def f(x):\n    return x + 1\n")
    assert main([str(tmp_path)]) == 0
    assert "0 findings in 1 files" in capsys.readouterr().out


def test_missing_path_exit_2(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2


def test_json_report_structure(capsys):
    assert main([str(FIXTURES), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["D101"] == 6
    assert len(payload["findings"]) == sum(payload["counts"].values())
    assert "D101" in payload["rules"]
    assert payload["rules"]["F302"]["scope"] == "persistence"


def test_output_file_written_atomically(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(
        [str(FIXTURES), "--format", "json", "--output", str(out)]
    ) == 1
    payload = json.loads(out.read_text())
    assert payload["files_scanned"] == 23
    # no stray tmp files from the atomic write
    assert list(tmp_path.glob("*.tmp")) == []
