"""Additional property-based tests: Markov model, designer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designer import DesignPoint, DesignResult, choose_design
from repro.core.layout import Interleaving
from repro.core.markov import WordMarkovModel
from repro.core.protection import Parity


class TestMarkovProperties:
    @given(
        st.integers(8, 256),
        st.integers(0, 3),
        st.floats(0.01, 1000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_mttf_positive_and_monotone_in_correction(self, bits, c, fit):
        weaker = WordMarkovModel(
            word_bits=bits, correctable=c, raw_fit_per_mbit=fit
        ).mttf_hours()
        stronger = WordMarkovModel(
            word_bits=bits, correctable=c + 1, raw_fit_per_mbit=fit
        ).mttf_hours()
        assert 0 < weaker < stronger

    @given(st.floats(0.01, 1000.0), st.floats(0.1, 1e6))
    @settings(max_examples=40, deadline=None)
    def test_scrubbing_never_hurts(self, fit, scrub_hours):
        base = WordMarkovModel(
            word_bits=32, correctable=1, raw_fit_per_mbit=fit
        ).mttf_hours()
        scrubbed = WordMarkovModel(
            word_bits=32, correctable=1, raw_fit_per_mbit=fit,
            scrub_interval_hours=scrub_hours,
        ).mttf_hours()
        assert scrubbed >= base * (1 - 1e-9)

    @given(st.floats(0.01, 100.0), st.floats(0.01, 1e6))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_no_scrub(self, fit, _unused):
        """Without scrubbing or sMBFs, MTTF = (c+1)/lambda exactly."""
        for c in range(4):
            m = WordMarkovModel(word_bits=64, correctable=c,
                                raw_fit_per_mbit=fit)
            lam = m.sbf_rate_per_hour
            assert m.mttf_hours() == pytest.approx((c + 1) / lam, rel=1e-9)


class TestDesignerProperties:
    def _mk(self, label, sdc, due, area):
        pt = DesignPoint(label, Parity(), Interleaving.INTRA_THREAD, 2)
        return DesignResult(pt, sdc, due, area)

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 10), st.floats(0, 10), st.floats(0.01, 0.5)
            ),
            min_size=1, max_size=8,
        ),
        st.floats(0, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_choice_is_feasible_and_minimal(self, rows, target):
        results = [
            self._mk(f"d{i}", sdc, due, area)
            for i, (sdc, due, area) in enumerate(rows)
        ]
        best = choose_design(results, sdc_target=target)
        feasible = [r for r in results if r.sdc_rate <= target]
        if not feasible:
            assert best is None
        else:
            assert best.sdc_rate <= target
            assert best.area_overhead == min(r.area_overhead for r in feasible)
