"""Self-check: the shipped tree has zero findings.

This is the test-suite copy of the CI gate: linting ``src/repro`` must
find nothing.  The injection tests prove the gate actually bites:
planting a violation in a scratch copy of ``core/avf.py`` is caught.
"""

from repro.staticcheck import run

from .conftest import SRC_REPRO


class TestShippedTreeIsClean:
    def test_lint_finds_nothing(self):
        findings = run([SRC_REPRO]).findings
        assert findings == [], "src/repro has lint findings:\n" + "\n".join(
            f.location() + " " + f.rule for f in findings
        )

    def test_no_parse_errors_in_tree(self):
        assert run([SRC_REPRO]).parse_errors == []


class TestInjectedViolationsAreCaught:
    def _scratch_avf(self, tmp_path, extra=""):
        scratch = tmp_path / "avf.py"
        scratch.write_text(
            (SRC_REPRO / "core" / "avf.py").read_text() + extra
        )
        return scratch

    def test_clean_copy_of_avf_has_no_findings(self, tmp_path):
        # the file's own D104 interning sites carry inline suppressions
        result = run([self._scratch_avf(tmp_path)])
        assert result.findings == []

    def test_injected_unseeded_rng_is_caught(self, tmp_path):
        scratch = self._scratch_avf(
            tmp_path,
            "\n\ndef _tainted_jitter():\n"
            "    return np.random.rand()\n",
        )
        findings = run([scratch]).findings
        assert [f.rule for f in findings] == ["D101"]
        assert "np.random.rand" in findings[0].message
        assert findings[0].snippet == "return np.random.rand()"

    def test_injected_wall_clock_needs_deterministic_scope(self, tmp_path):
        # dropped at tmp root the file has no scopes, so D102 stays quiet;
        # under a core/ directory (as in the real tree) it fires.
        taint = "\n\nimport time\n\ndef _stamp():\n    return time.time()\n"
        flat = self._scratch_avf(tmp_path, taint)
        assert run([flat]).findings == []

        core = tmp_path / "core"
        core.mkdir()
        nested = core / "avf.py"
        nested.write_text(flat.read_text())
        findings = run([tmp_path]).findings
        assert [(f.path, f.rule) for f in findings] == [
            ("core/avf.py", "D102")
        ]
