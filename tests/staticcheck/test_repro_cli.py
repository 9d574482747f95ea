"""The `repro lint` subcommand: same engine, wired through the main CLI."""

import json

from repro.cli import main

from .conftest import FIXTURES, SRC_REPRO


def test_repro_lint_fixtures_exit_1(capsys):
    assert main(["lint", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "D101" in out and "F302" in out


def test_repro_lint_src_is_clean(capsys):
    # the invocation CI runs, less its JSON report (acceptance: exits clean)
    assert main(["lint", str(SRC_REPRO)]) == 0
    assert capsys.readouterr().out.startswith("0 findings in ")


def test_repro_lint_json_format(capsys):
    assert main(["lint", str(SRC_REPRO), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert payload["files_scanned"] > 50


def test_repro_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("D101", "D102", "D103", "D104", "N201", "N202", "N203",
                 "N204", "F301", "F302", "O401", "O402", "O403"):
        assert code in out


def test_repro_lint_metrics_export(tmp_path, capsys):
    # --metrics goes through obs.observe, capturing the lint counters
    metrics = tmp_path / "metrics.json"
    assert main(
        ["lint", str(FIXTURES), "--metrics", str(metrics)]
    ) == 1
    snapshot = json.loads(metrics.read_text())
    assert snapshot["counters"]["staticcheck.findings"] == 56
