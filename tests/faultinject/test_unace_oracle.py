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

from repro.core.intervals import AceClass
from repro.faultinject import InjectionOutcome, injection_class
from repro.faultinject.campaign import _Injector
from repro.faultinject.validation import _draw_points

BENCHMARKS = ("vectoradd", "transpose")
VGPR_DRAWS = 80
MEMORY_DRAWS = 30


@pytest.fixture(scope="module", params=BENCHMARKS)
def golden(request):
    return _Injector(request.param, seed=0, n_cus=1)


def _unmasked_non_ace(runner, specs):
    """(non-ACE points simulated, those whose verdict was not masked)."""
    non_ace = [
        s for s in specs
        if injection_class(runner.study, s) < AceClass.ACE
    ]
    bad = [
        (s, v) for s in non_ace
        if (v := runner.inject(s)) != InjectionOutcome.MASKED
    ]
    return non_ace, bad


def test_non_ace_vgpr_flips_are_masked(golden):
    rng = np.random.default_rng(0)
    specs = [golden.random_spec(rng) for _ in range(VGPR_DRAWS)]
    non_ace, bad = _unmasked_non_ace(golden, specs)
    assert non_ace, "no non-ACE draws: the oracle checked nothing"
    assert bad == []


def test_non_ace_memory_flips_are_masked(golden):
    study = golden.study
    rng = np.random.default_rng(0)
    points = _draw_points(
        rng, study.footprint, study.end_cycle, MEMORY_DRAWS
    )
    non_ace, bad = _unmasked_non_ace(golden, points)
    assert non_ace, "no non-ACE draws: the oracle checked nothing"
    assert bad == []

