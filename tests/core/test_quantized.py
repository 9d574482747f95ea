"""Tests for quantized (windowed worst-case) AVF."""

import numpy as np
import pytest

from repro.core import AvfStudy, FaultMode, Parity
from repro.core.intervals import Outcome
from repro.workloads import run


@pytest.fixture(scope="module")
def series_result():
    r = run("minife")
    study = AvfStudy(r.apu, r.output_ranges)
    edges = np.linspace(0, study.end_cycle, 11).astype(int)
    return study.avf(
        "l1", FaultMode.linear(1), Parity(), series_edges=edges
    )


class TestQuantizedAvf:
    def test_max_at_least_mean(self, series_result):
        res = series_result
        q = res.quantized_avf(Outcome.TRUE_DUE, Outcome.FALSE_DUE)
        assert q >= res.due_avf - 1e-12

    def test_percentile_below_max(self, series_result):
        res = series_result
        q_max = res.quantized_avf(reduce="max")
        q50 = res.quantized_avf(reduce="p50")
        assert q50 <= q_max
        assert q50 >= 0

    def test_default_covers_all_outcomes(self, series_result):
        res = series_result
        all_q = res.quantized_avf()
        due_q = res.quantized_avf(Outcome.TRUE_DUE, Outcome.FALSE_DUE)
        assert all_q >= due_q - 1e-12

    def test_unknown_reduction(self, series_result):
        with pytest.raises(ValueError):
            series_result.quantized_avf(reduce="median")

    def test_requires_series(self):
        r = run("vectoradd")
        study = AvfStudy(r.apu, r.output_ranges)
        res = study.avf("l1", FaultMode.linear(1), Parity())
        with pytest.raises(ValueError):
            res.quantized_avf()

    def test_phases_make_quantized_exceed_average(self, series_result):
        """MiniFE has strong phases: its worst window is well above the
        whole-run average — the reason quantized AVF exists."""
        res = series_result
        q = res.quantized_avf(Outcome.TRUE_DUE, Outcome.FALSE_DUE)
        assert q > 1.2 * res.due_avf
