"""Exact one-sided oracle: a flip the lifetimes call non-ACE is masked.

ACE analysis is conservative, so only one direction is exact: a point
whose deciding class (:func:`repro.faultinject.injection_class`) is
UNACE or READ_DEAD must leave the program output identical to the golden
run.  The points are drawn exactly as the Table II campaign
(``random_spec``) and the memory validation (``_draw_points``) draw
theirs, and every non-ACE one is simulated.
"""

import numpy as np
import pytest

from repro.core import AvfStudy
from repro.core.intervals import AceClass
from repro.faultinject import InjectionOutcome, injection_class
from repro.faultinject.campaign import _Injector
from repro.faultinject.validation import _draw_points, _footprint
from repro.workloads import REGISTRY

BENCHMARKS = ("vectoradd", "transpose")
VGPR_DRAWS = 80
MEMORY_DRAWS = 30


@pytest.fixture(scope="module", params=BENCHMARKS)
def golden(request):
    runner = _Injector(REGISTRY[request.param], seed=0, n_cus=1)
    run = runner.golden_run
    study = AvfStudy(run.apu, run.output_ranges)
    return runner, study, _footprint(run.memory)


def _unmasked_non_ace(runner, study, specs, region=None):
    """(non-ACE points simulated, those whose verdict was not masked)."""
    non_ace = [
        s for s in specs
        if injection_class(study, s, region) < AceClass.ACE
    ]
    bad = [
        (s, v) for s in non_ace
        if (v := runner.inject(s)) != InjectionOutcome.MASKED
    ]
    return non_ace, bad


def test_non_ace_vgpr_flips_are_masked(golden):
    runner, study, _ = golden
    rng = np.random.default_rng(0)
    specs = [runner.random_spec(rng) for _ in range(VGPR_DRAWS)]
    non_ace, bad = _unmasked_non_ace(runner, study, specs)
    assert non_ace, "no non-ACE draws: the oracle checked nothing"
    assert bad == []


def test_non_ace_memory_flips_are_masked(golden):
    runner, study, region = golden
    rng = np.random.default_rng(0)
    points = _draw_points(
        rng, region, runner.golden_run.end_cycle, MEMORY_DRAWS
    )
    non_ace, bad = _unmasked_non_ace(runner, study, points, region)
    assert non_ace, "no non-ACE draws: the oracle checked nothing"
    assert bad == []

