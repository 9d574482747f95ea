"""The optimized MB-AVF engine vs a brute-force reference implementation.

The production engine deduplicates fault groups by canonical signature and
sweeps classed intervals; this module re-implements the definition directly
— for every fault group, for every cycle, classify the group through its
overlapped regions — and property-tests that both agree exactly on random
layouts, lifetimes, schemes and fault modes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.avf import compute_mb_avf
from repro.core.faultmodes import FaultMode
from repro.core.intervals import AceClass, IntervalSet, Outcome
from repro.core.layout import Interleaving, SramArray
from repro.core.protection import SCHEMES, Reaction

from .tables import lifetimes_of


def brute_force_mb_avf(array, lifetimes, mode, scheme, due_preempts_sdc=False):
    """Definitionally-direct MB-AVF: per group, per cycle."""
    window = range(lifetimes.start_cycle, lifetimes.end_cycle)
    h, w = mode.height, mode.width
    totals = {o: 0 for o in Outcome}
    n_groups = 0
    for r0 in range(array.rows - h + 1):
        for c0 in range(array.cols - w + 1):
            n_groups += 1
            # Region membership: domain -> (count, byte set).
            regions = {}
            for dr, dc in mode.offsets:
                d = int(array.domain_of[r0 + dr, c0 + dc])
                b = int(array.byte_of[r0 + dr, c0 + dc])
                cnt, bs = regions.get(d, (0, set()))
                regions[d] = (cnt + 1, bs | {b})
            for cycle in window:
                outcomes = []
                for cnt, bs in regions.values():
                    cls = max(
                        (lifetimes.byte_isets[b].class_at(cycle) for b in bs),
                        default=0,
                    )
                    reaction = scheme.react(cnt)
                    if reaction in (Reaction.NO_FAULT, Reaction.CORRECTED):
                        continue
                    if reaction is Reaction.DETECTED:
                        if cls == int(AceClass.ACE):
                            outcomes.append(Outcome.TRUE_DUE)
                        elif cls == int(AceClass.READ_DEAD):
                            outcomes.append(Outcome.FALSE_DUE)
                    else:  # undetected / miscorrected
                        if cls == int(AceClass.ACE):
                            outcomes.append(Outcome.SDC)
                if not outcomes:
                    continue
                verdict = max(outcomes)
                if (
                    due_preempts_sdc
                    and verdict == Outcome.SDC
                    and any(
                        o in (Outcome.TRUE_DUE, Outcome.FALSE_DUE)
                        for o in outcomes
                    )
                ):
                    verdict = Outcome.TRUE_DUE
                totals[verdict] += 1
    return n_groups, totals


@st.composite
def random_setup(draw):
    """Random small layout + lifetimes + mode + scheme."""
    n_domains = draw(st.integers(2, 4))
    domain_bytes = 1
    cols = n_domains * 8
    rows = draw(st.integers(1, 2))
    interleave = draw(st.booleans())
    domain_row = np.empty(cols, dtype=np.int32)
    for c in range(cols):
        domain_row[c] = c % n_domains if interleave else c // 8
    domain_of = np.tile(domain_row, (rows, 1))
    # Distinct rows hold distinct domains.
    for r in range(rows):
        domain_of[r] += r * n_domains
    byte_of = domain_of.copy()
    # an inter-thread layout takes the Sec. VIII rule, any other does not
    preempt = draw(st.booleans())
    array = SramArray(
        "rand", byte_of, domain_of, domain_bytes,
        n_domains if interleave else 1,
        Interleaving.INTER_THREAD if preempt else Interleaving.NONE,
    )
    n_bytes = rows * n_domains
    window = 12
    isets = []
    for _ in range(n_bytes):
        ivals = []
        t = 0
        while t < window:
            length = draw(st.integers(1, 4))
            cls = draw(st.integers(0, 2))
            if cls:
                ivals.append((t, min(t + length, window), cls))
            t += length
        isets.append(IntervalSet(ivals))
    lifetimes = lifetimes_of("rand", isets, 0, window)
    mode = FaultMode.linear(draw(st.integers(1, 5)))
    scheme = SCHEMES[draw(st.sampled_from(sorted(SCHEMES)))]
    return array, lifetimes, mode, scheme, preempt


class TestEngineMatchesBruteForce:
    @given(random_setup())
    @settings(max_examples=120, deadline=None)
    def test_equivalence(self, setup):
        array, lifetimes, mode, scheme, preempt = setup
        fast = compute_mb_avf(array, lifetimes, mode, scheme)
        n_groups, totals = brute_force_mb_avf(
            array, lifetimes, mode, scheme, due_preempts_sdc=preempt
        )
        assert fast.n_groups == n_groups
        for o in (Outcome.FALSE_DUE, Outcome.TRUE_DUE, Outcome.SDC):
            assert fast.outcome_cycles.get(o, 0.0) == pytest.approx(
                totals[o]
            ), (o, mode.name, scheme.name, preempt)

    @given(random_setup())
    @settings(max_examples=30, deadline=None)
    def test_rect_mode_equivalence(self, setup):
        array, lifetimes, _, scheme, preempt = setup
        if array.rows < 2:
            return
        mode = FaultMode.rect(2, 2)
        fast = compute_mb_avf(array, lifetimes, mode, scheme)
        n_groups, totals = brute_force_mb_avf(
            array, lifetimes, mode, scheme, due_preempts_sdc=preempt
        )
        assert fast.n_groups == n_groups
        for o in (Outcome.FALSE_DUE, Outcome.TRUE_DUE, Outcome.SDC):
            assert fast.outcome_cycles.get(o, 0.0) == pytest.approx(totals[o])
