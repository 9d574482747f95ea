"""Shared paths and a session-scoped fixture lint run."""

from pathlib import Path

import pytest

from repro.staticcheck import run

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
REPO = HERE.parents[1]
SRC_REPRO = REPO / "src" / "repro"


@pytest.fixture(scope="session")
def fixture_result():
    """One lint run over the whole fixture tree, shared by rule tests."""
    return run([FIXTURES])


@pytest.fixture(scope="session")
def fixture_findings(fixture_result):
    return fixture_result.findings


def findings_for(findings, rule):
    """(path, line) pairs of one rule's findings, sorted."""
    return sorted((f.path, f.line) for f in findings if f.rule == rule)
