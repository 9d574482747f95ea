"""Smoke: the full AVF pipeline runs on every registered workload."""

import pytest

from repro.core import AvfStudy, FaultMode, Parity
from repro.workloads import names, run

# The figure benches cover EVALUATION_SET in depth; here every registered
# workload gets one cheap end-to-end pass through the pipeline.
ALL = names()


@pytest.mark.parametrize("name", ALL)
def test_pipeline_runs_everywhere(name):
    result = run(name, n_cus=2)
    study = AvfStudy(result.apu, result.output_ranges)
    l2 = study.avf("l2", FaultMode.linear(2), Parity())
    assert 0.0 <= l2.total_avf <= 1.0
    vg = study.avf("vgpr", FaultMode.linear(1), Parity())
    assert 0.0 <= vg.total_avf <= 1.0
    # Something was architecturally required somewhere: outputs exist.
    assert l2.total_avf > 0 or vg.total_avf > 0
