"""Engine unit tests: scope classification, pragmas, discovery."""

from repro.staticcheck.engine import (
    _parse_pragmas,
    classify_scopes,
    load_module,
    scan_paths,
)

from .conftest import FIXTURES


class TestScopeClassification:
    def test_core_is_deterministic(self):
        assert "deterministic" in classify_scopes("core/avf.py")
        assert "deterministic" in classify_scopes("faultinject/modes.py")
        assert "deterministic" in classify_scopes("arch/gpu.py")
        assert "deterministic" in classify_scopes("workloads/matmul.py")

    def test_kernels(self):
        assert "kernel" in classify_scopes("core/intervals.py")
        assert "kernel" in classify_scopes("core/avf.py")
        assert "kernel" not in classify_scopes("core/lifetime.py")

    def test_persistence(self):
        assert "persistence" in classify_scopes("runtime/journal.py")
        assert "persistence" in classify_scopes("obs/trace.py")
        assert "persistence" in classify_scopes("store/db.py")
        assert "persistence" not in classify_scopes("core/avf.py")

    def test_executor_is_special(self):
        assert "executor" in classify_scopes("runtime/executor.py")
        assert "executor" not in classify_scopes("runtime/journal.py")

    def test_service_surfaces(self):
        assert "service" in classify_scopes("report/html.py")
        assert "service" not in classify_scopes("runtime/journal.py")

    def test_cli_has_no_scopes(self):
        assert classify_scopes("cli.py") == set()


class TestPragmaParsing:
    def test_ignore_with_codes(self):
        sup, scopes, skip = _parse_pragmas(
            "x = 1  # staticcheck: ignore[D101, N204]\n"
        )
        assert sup == {1: frozenset({"D101", "N204"})}
        assert not skip

    def test_bare_ignore_suppresses_everything(self):
        sup, _, _ = _parse_pragmas("x = 1  # staticcheck: ignore\n")
        assert sup == {1: None}

    def test_skip_file_only_in_header(self):
        _, _, skip = _parse_pragmas("# staticcheck: skip-file\n")
        assert skip
        _, _, late = _parse_pragmas("\n" * 12 + "# staticcheck: skip-file\n")
        assert not late

    def test_scope_pragma(self):
        _, scopes, _ = _parse_pragmas(
            "# staticcheck: scope=kernel, deterministic\n"
        )
        assert scopes == {"kernel", "deterministic"}

    def test_unrelated_comments_ignored(self):
        sup, scopes, skip = _parse_pragmas("# plain comment\nx = 1  # todo\n")
        assert sup == {} and scopes == set() and not skip


class TestDiscoveryAndLoading:
    def test_scan_skips_pycache_and_sorts(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        pairs = scan_paths([tmp_path])
        assert [rel for _, rel in pairs] == ["pkg/a.py", "pkg/b.py"]

    def test_single_file_relpath_is_its_name(self, tmp_path):
        f = tmp_path / "lonely.py"
        f.write_text("x = 1\n")
        assert scan_paths([f]) == [(f, "lonely.py")]

    def test_load_module_builds_parents_and_aliases(self):
        path = FIXTURES / "determinism" / "bad_rng.py"
        module = load_module(path, "determinism/bad_rng.py")
        assert module is not None
        assert module.aliases["np"] == "numpy"
        assert module.aliases["default_rng"] == "numpy.random.default_rng"
        # every non-root node has a recorded parent
        body0 = module.tree.body[0]
        assert module.parent(body0) is module.tree

    def test_load_module_skipfile_returns_none(self):
        path = FIXTURES / "skipfile.py"
        assert load_module(path, "skipfile.py") is None

    def test_pragma_scope_merges_with_path_scope(self, tmp_path):
        sub = tmp_path / "core"
        sub.mkdir()
        f = sub / "thing.py"
        f.write_text("# staticcheck: scope=kernel\nx = 1\n")
        module = load_module(f, "core/thing.py")
        assert {"kernel", "deterministic"} <= set(module.scopes)

    def test_load_module_raises_on_syntax_error(self):
        path = FIXTURES / "broken_syntax.py"
        try:
            load_module(path, "broken_syntax.py")
        except SyntaxError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected SyntaxError")
