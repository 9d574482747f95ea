"""Test helpers: lifetime tables written as one interval set per byte,
and a study's structures split into their physical arrays."""

import dataclasses

import numpy as np

from repro.core.avf import StructureLifetimes
from repro.core.lifetime import derive_tag_lifetimes


def lifetimes_of(name, isets, start_cycle, end_cycle):
    """The :class:`StructureLifetimes` whose byte ``b`` holds ``isets[b]``."""
    rows = np.array(
        [(b, s, e, c) for b, iset in enumerate(isets) for s, e, c in iset],
        dtype=np.int64,
    ).reshape(-1, 4)
    return StructureLifetimes.from_rows(
        name, len(isets), *rows.T, start_cycle, end_cycle
    )


def one_tile_calls(study, structure, style, factor):
    """``(layout, lifetimes)`` of ``structure`` one physical array at a
    time: every CU's L1 (data or tags) on the one-CU layout, each with its
    own table; any other structure as the study lays it out."""
    layout, lifetimes = study._structure(structure, style, factor)
    if not layout.separate_tiles:
        return [(layout, lifetimes)]
    one = dataclasses.replace(layout, tiles=1, separate_tiles=False)
    tables = study.l1_lifetimes()
    if structure.endswith(".tags"):
        line_bytes = study.apu.memsys.l1s[0].config.line_bytes
        tables = [derive_tag_lifetimes(lt, line_bytes) for lt in tables]
    return [(one, lt) for lt in tables]
