"""Per-rule fixture tests: exact finding counts, paths and line numbers.

Each fixture under ``fixtures/`` contains deliberate violations at known
lines (plus deliberately-clean look-alikes that must NOT be flagged);
these tests pin the rules to that exact behaviour.
"""

from .conftest import findings_for


class TestDeterminismRules:
    def test_d101_unseeded_rng(self, fixture_findings):
        assert findings_for(fixture_findings, "D101") == [
            ("determinism/bad_rng.py", 10),  # random.random()
            ("determinism/bad_rng.py", 11),  # random.Random() unseeded
            ("determinism/bad_rng.py", 12),  # np.random.rand legacy
            ("determinism/bad_rng.py", 13),  # default_rng() unseeded
            ("determinism/bad_rng.py", 14),  # RandomState() unseeded
            ("suppressed.py", 9),            # the one unsuppressed line
        ]

    def test_d101_seeded_constructors_not_flagged(self, fixture_findings):
        # bad_rng.py lines 15-16 hold default_rng(1234) / random.Random(7)
        flagged_lines = {
            line for path, line in findings_for(fixture_findings, "D101")
            if path == "determinism/bad_rng.py"
        }
        assert 15 not in flagged_lines
        assert 16 not in flagged_lines

    def test_d102_wall_clock_in_deterministic_scope(self, fixture_findings):
        assert findings_for(fixture_findings, "D102") == [
            ("core/bad_clock.py", 10),  # time.time
            ("core/bad_clock.py", 11),  # time.monotonic
            ("core/bad_clock.py", 12),  # datetime.now (via from-import)
            ("core/bad_clock.py", 13),  # os.urandom
            ("core/bad_clock.py", 14),  # uuid.uuid4
        ]

    def test_d103_set_iteration(self, fixture_findings):
        assert findings_for(fixture_findings, "D103") == [
            ("bad_set_order.py", 6),   # for-loop over a set literal
            ("bad_set_order.py", 8),   # list(set(...))
            ("bad_set_order.py", 9),   # comprehension over frozenset()
            ("bad_set_order.py", 10),  # ",".join(set)
        ]

    def test_d103_sorted_set_not_flagged(self, fixture_findings):
        # line 11 is sorted(set(values)) — the fix, not a violation
        assert ("bad_set_order.py", 11) not in findings_for(
            fixture_findings, "D103"
        )

    def test_d104_identity_keys(self, fixture_findings):
        assert findings_for(fixture_findings, "D104") == [
            ("bad_id_key.py", 7),  # table[id(obj)] = ...
            ("bad_id_key.py", 8),  # {id(objs): 0}
            ("bad_id_key.py", 9),  # table.get(id(objs))
        ]


class TestNumpyHygieneRules:
    def test_n201_missing_dtype_kernel_scope_only(self, fixture_findings):
        # kernel_pragma.py opts in via `# staticcheck: scope=kernel`;
        # bad_object_dtype.py (no kernel scope) must not get N201 even
        # though it calls np.array.
        assert findings_for(fixture_findings, "N201") == [
            ("kernel_pragma.py", 8),  # np.array(values)
            ("kernel_pragma.py", 9),  # np.zeros(4)
        ]

    def test_n202_object_dtype_any_scope(self, fixture_findings):
        assert findings_for(fixture_findings, "N202") == [
            ("bad_object_dtype.py", 7),  # dtype=object
            ("bad_object_dtype.py", 8),  # astype(object)
        ]

    def test_n203_float32_leak(self, fixture_findings):
        assert findings_for(fixture_findings, "N203") == [
            ("kernel_pragma.py", 10),  # dtype=np.float32
            ("kernel_pragma.py", 11),  # np.float32(...)
        ]

    def test_n204_astype_copy_intent(self, fixture_findings):
        # line 14 writes copy=False and must be clean
        assert findings_for(fixture_findings, "N204") == [
            ("kernel_pragma.py", 12),
        ]


class TestForkSafetyRules:
    def test_f301_fork_and_signals(self, fixture_findings):
        assert findings_for(fixture_findings, "F301") == [
            ("runtime/bad_fork.py", 9),   # os.fork
            ("runtime/bad_fork.py", 10),  # get_context("fork")
            ("runtime/bad_fork.py", 11),  # signal.signal outside executor
        ]

    def test_f302_truncating_writes(self, fixture_findings):
        assert findings_for(fixture_findings, "F302") == [
            ("runtime/bad_write.py", 9),   # write_text
            ("runtime/bad_write.py", 13),  # open(..., "w")
        ]

    def test_f302_blessed_rename_pattern_not_flagged(self, fixture_findings):
        # blessed_snapshot (line 19's open) sits in a function that calls
        # os.replace, the marker of the tmp+fsync+rename pattern.
        assert ("runtime/bad_write.py", 19) not in findings_for(
            fixture_findings, "F302"
        )

    def test_f303_untimed_network_calls(self, fixture_findings):
        assert findings_for(fixture_findings, "F303") == [
            ("runtime/fabric/bad_socket.py", 13),  # HTTPConnection
            ("runtime/fabric/bad_socket.py", 14),  # create_connection
            ("runtime/fabric/bad_socket.py", 15),  # urlopen
            ("runtime/fabric/bad_socket.py", 16),  # bare socket.socket()
            ("runtime/fabric/bad_socket.py", 21),  # settimeout(None)
        ]

    def test_f303_timed_variants_not_flagged(self, fixture_findings):
        # timed() (lines 25-29) passes timeout= / positional timeout /
        # settimeout(2.0) and must stay clean.
        flagged = {
            line for path, line in findings_for(fixture_findings, "F303")
            if path == "runtime/fabric/bad_socket.py"
        }
        assert not flagged & set(range(24, 31))

    def test_f303_scope_gated_to_fabric_and_executor(self, fixture_findings):
        # runtime/bad_fork.py / bad_write.py sit outside the fabric and
        # executor scopes, so their (absent) network calls aside, the
        # rule must never fire there.
        assert all(
            path.startswith("runtime/fabric/")
            for path, _ in findings_for(fixture_findings, "F303")
        )

    def test_f304_unbounded_body_reads(self, fixture_findings):
        assert findings_for(fixture_findings, "F304") == [
            ("report/bad_body_read.py", 11),  # rfile.read(length)
            ("report/bad_body_read.py", 12),  # rfile.read() no size
        ]

    def test_f304_bounded_variants_not_flagged(self, fixture_findings):
        # bounded() (lines 16-20): constant size, min()-clamped size,
        # and a non-rfile stream read — all clean.
        flagged = {
            line for path, line in findings_for(fixture_findings, "F304")
            if path == "report/bad_body_read.py"
        }
        assert not flagged & set(range(16, 21))

    def test_f304_scope_gated_to_service_and_fabric(self, fixture_findings):
        # Only report/ (service scope) and fabric paths are F304's
        # business; the same call elsewhere must not fire.
        assert all(
            path.startswith("report/")
            for path, _ in findings_for(fixture_findings, "F304")
        )


class TestObsDisciplineRules:
    def test_o401_span_without_with(self, fixture_findings):
        assert findings_for(fixture_findings, "O401") == [
            ("bad_span.py", 7),  # span = tracer.span(...)
            ("bad_span.py", 8),  # bare get_tracer().span(...)
        ]

    def test_o401_with_and_non_tracer_span_not_flagged(
        self, fixture_findings
    ):
        flagged = findings_for(fixture_findings, "O401")
        assert ("bad_span.py", 13) not in flagged  # with-statement
        assert ("bad_span.py", 18) not in flagged  # non-tracer .span()

    def test_o402_cross_file_collision(self, fixture_findings):
        # counter twice in collide_a, gauge once in collide_b: the gauge
        # is the minority kind, so only collide_b is flagged.
        findings = [f for f in fixture_findings if f.rule == "O402"]
        assert [(f.path, f.line) for f in findings] == [("collide_b.py", 7)]
        assert "collide_a.py:7" in findings[0].message

    def test_o403_direct_construction(self, fixture_findings):
        assert findings_for(fixture_findings, "O403") == [
            ("bad_construct.py", 8),  # MetricsRegistry()
            ("bad_construct.py", 9),  # Tracer()
        ]


class TestPersistenceSqlRules:
    def test_p501_interpolated_sql(self, fixture_findings):
        assert findings_for(fixture_findings, "P501") == [
            ("store/bad_sql.py", 9),   # f-string
            ("store/bad_sql.py", 10),  # concatenation
            ("store/bad_sql.py", 11),  # %-interpolation
            ("store/bad_sql.py", 12),  # str.format
            ("store/bad_sql.py", 13),  # executemany f-string
            ("store/bad_sql.py", 14),  # executescript concat
            ("store/bad_sql.py", 15),  # str.join
        ]

    def test_p501_parameterized_and_builder_not_flagged(
        self, fixture_findings
    ):
        # good(): constant SQL with '?' params, a builder-produced
        # variable, and a constant executescript — none flagged.
        flagged = {
            line for path, line in findings_for(fixture_findings, "P501")
            if path == "store/bad_sql.py"
        }
        assert flagged & {19, 20, 21, 22, 23} == set()

    def test_p501_store_scope_only(self, fixture_findings):
        # The same execute() patterns outside a store/ path carry no
        # store scope and are not P501's business.
        assert all(
            f.path.startswith("store/")
            for f in fixture_findings if f.rule == "P501"
        )


class TestEngineBehaviour:
    def test_parse_error_becomes_e001(self, fixture_result):
        assert fixture_result.parse_errors == ["broken_syntax.py"]
        e001 = [f for f in fixture_result.findings if f.rule == "E001"]
        assert len(e001) == 1
        assert e001[0].path == "broken_syntax.py"

    def test_skip_file_pragma(self, fixture_result):
        assert fixture_result.files_skipped == 1
        assert not any(
            f.path == "skipfile.py" for f in fixture_result.findings
        )

    def test_inline_suppressions(self, fixture_findings):
        # suppressed.py: line 7 ignore[D101], line 8 bare ignore, line 9
        # unsuppressed — exactly one finding survives.
        lines = [f.line for f in fixture_findings
                 if f.path == "suppressed.py"]
        assert lines == [9]

    def test_total_finding_count(self, fixture_result):
        assert len(fixture_result.findings) == 56
        assert fixture_result.by_rule() == {
            "C601": 1, "C602": 1, "C603": 1, "C604": 1, "C605": 2,
            "D101": 6, "D102": 5, "D103": 4, "D104": 3, "E001": 1,
            "F301": 3, "F302": 2, "F303": 5, "F304": 2, "N201": 2,
            "N202": 2, "N203": 2, "N204": 1, "O401": 2, "O402": 1,
            "O403": 2, "P501": 7,
        }

    def test_findings_are_sorted_and_carry_snippets(self, fixture_findings):
        assert fixture_findings == sorted(fixture_findings)
        rng = [f for f in fixture_findings
               if f.path == "determinism/bad_rng.py"][0]
        assert rng.snippet == "a = random.random()"
