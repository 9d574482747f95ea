"""Tests for tag-array layouts and tag AVF analysis."""

import numpy as np
import pytest

from repro.core import AvfStudy, FaultMode, NoProtection, Parity, SecDed
from repro.core.intervals import AceClass, IntervalSet
from repro.core.layout import build_tag_array
from repro.core.lifetime import derive_tag_lifetimes
from repro.workloads import run

from .tables import lifetimes_of

ACE = int(AceClass.ACE)
DEAD = int(AceClass.READ_DEAD)


class TestTagLayout:
    def test_geometry(self):
        arr = build_tag_array(8, 4, tag_bytes=3)
        assert arr.rows == 8
        assert arr.cols == 4 * 24
        counts = np.bincount(arr.byte_of.ravel())
        assert (counts == 8).all()
        assert (arr.byte_of.ravel() // 3 == arr.domain_of.ravel()).all()

    def test_no_interleave_keeps_tags_contiguous(self):
        arr = build_tag_array(2, 2, tag_bytes=2)
        assert len(set(arr.domain_of[0, :16].tolist())) == 1

    def test_way_interleaving(self):
        arr = build_tag_array(2, 2, tag_bytes=2, factor=2)
        assert arr.domain_of[0, 0] != arr.domain_of[0, 1]

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            build_tag_array(2, 3, factor=2)


class TestDeriveTagLifetimes:
    def _data(self, isets, line_bytes=4):
        return lifetimes_of("d", isets, 0, 100)

    def test_tag_inherits_union_of_line(self):
        line0 = [
            IntervalSet([(0, 10, ACE)]),
            IntervalSet([(20, 30, DEAD)]),
            IntervalSet(),
            IntervalSet(),
        ]
        tags = derive_tag_lifetimes(self._data(line0), line_bytes=4, tag_bytes=2)
        assert len(tags.byte_isets) == 2
        for iset in tags.byte_isets:
            assert iset.total(ACE) == 10
            assert iset.total(DEAD) == 10

    def test_untouched_line_has_unace_tag(self):
        tags = derive_tag_lifetimes(
            self._data([IntervalSet()] * 8), line_bytes=4, tag_bytes=3
        )
        assert len(tags.byte_isets) == 6  # two lines x 3 tag bytes
        assert all(not s for s in tags.byte_isets)

    def test_ragged_input_rejected(self):
        with pytest.raises(ValueError):
            derive_tag_lifetimes(self._data([IntervalSet()] * 5), line_bytes=4)


class TestTagAvfEndToEnd:
    @pytest.fixture(scope="class")
    def study(self):
        r = run("matmul")
        return AvfStudy(r.apu, r.output_ranges)

    def test_tag_avf_positive_when_cache_used(self, study):
        res = study.avf("l1.tags", FaultMode.linear(1), Parity())
        assert 0 < res.due_avf < 1

    def test_tag_avf_at_least_worst_data_byte(self, study):
        """A tag is ACE whenever *any* line byte is: tag SB-AVF >= data
        SB-AVF of the same cache."""
        tag = study.avf("l1.tags", FaultMode.linear(1), NoProtection())
        data = study.avf("l1", FaultMode.linear(1), NoProtection())
        assert tag.sdc_avf >= data.sdc_avf

    def test_secded_tags_have_no_single_bit_avf(self, study):
        res = study.avf("l1.tags", FaultMode.linear(1), SecDed())
        assert res.total_avf == 0.0

    def test_interleaving_protects_2x1(self, study):
        plain = study.avf("l1.tags", FaultMode.linear(2), Parity())
        ilv = study.avf("l1.tags", FaultMode.linear(2), Parity(), factor=2)
        assert ilv.sdc_avf == 0.0
        assert plain.sdc_avf >= 0.0

    def test_l2_tags(self, study):
        res = study.avf("l2.tags", FaultMode.linear(1), Parity())
        assert res.n_groups > 0

    def test_bad_level(self, study):
        with pytest.raises(ValueError):
            study.avf("l3.tags", FaultMode.linear(1), Parity())
