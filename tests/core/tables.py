"""Test helper: lifetime tables written as one interval set per byte."""

import numpy as np

from repro.core.avf import StructureLifetimes


def lifetimes_of(name, isets, start_cycle, end_cycle):
    """The :class:`StructureLifetimes` whose byte ``b`` holds ``isets[b]``."""
    rows = np.array(
        [(b, s, e, c) for b, iset in enumerate(isets) for s, e, c in iset],
        dtype=np.int64,
    ).reshape(-1, 4)
    return StructureLifetimes.from_rows(
        name, len(isets), *rows.T, start_cycle, end_cycle
    )
