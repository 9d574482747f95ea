"""High-level orchestration: run a workload, then measure any AVF you like.

:class:`AvfStudy` wires together the full pipeline of the paper:

1. the simulator's trace and cache event tables (:class:`~repro.arch.gpu.Apu`),
2. the backward liveness pass (dynamic-dead + logic masking),
3. lifetime analysis, one table per structure: the allocated memory
   footprint, the L2, and the per-CU L1s and per-wavefront VGPRs each
   stacked into one (per-part lists are views of it),
4. the MB-AVF engine for any (fault mode, protection scheme, interleaving)
   combination.

Lifetimes are computed once per structure and reused across every AVF
configuration, mirroring the "event tracking, then analysis" split of the
paper's infrastructure.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.gpu import Apu
from ..arch.liveness import Liveness, analyze_liveness
from ..obs import get_tracer
from .avf import (
    AvfConfig,
    MbAvfResult,
    StructureLifetimes,
    ace_locality,
    compute_mb_avf_batch,
)
from .faultmodes import FaultMode
from .layout import (
    Interleaving,
    SramArray,
    build_cache_array,
    build_regfile_array,
    build_tag_array,
)
from .lifetime import (
    analyze_cache,
    analyze_memory,
    analyze_vgpr,
    derive_tag_lifetimes,
)
from .protection import ProtectionScheme

__all__ = ["AvfStudy"]


def _stack(
    name: str, parts: Sequence[StructureLifetimes], end_cycle: int
) -> StructureLifetimes:
    """The tables of ``parts`` stacked into one, byte ids offset per part."""
    none = [np.zeros(0, dtype=np.int64)]
    shift = np.cumsum([0] + [len(p.starts) for p in parts])
    return StructureLifetimes(
        name,
        np.concatenate(
            [p.offsets[:-1] + s for p, s in zip(parts, shift)] + [shift[-1:]]
        ),
        np.concatenate(none + [p.starts for p in parts]),
        np.concatenate(none + [p.ends for p in parts]),
        np.concatenate(none + [p.cls for p in parts]),
        0,
        end_cycle,
    )


def _tiles(
    table: StructureLifetimes, names: Sequence[str]
) -> List[StructureLifetimes]:
    """``table`` cut into ``len(names)`` equal tiles, one
    :meth:`~StructureLifetimes.byte_range` view per name."""
    size = table.n_bytes // max(len(names), 1)
    return [
        table.byte_range(k * size, (k + 1) * size, name)
        for k, name in enumerate(names)
    ]


#: Each structure's interleaving style when none is asked for.  A tag
#: array has none to ask for: its factor alone picks its style
#: (:func:`~repro.core.layout.build_tag_array`).
_DEFAULT_STYLE: Dict[str, Optional[Interleaving]] = {
    "l1": Interleaving.NONE,
    "l2": Interleaving.NONE,
    "vgpr": Interleaving.INTRA_THREAD,
    "l1.tags": None,
    "l2.tags": None,
}


def _cache_level(level: str) -> str:
    """``level`` if it names a cache's data array, else ``ValueError``."""
    if level not in ("l1", "l2"):
        raise ValueError(f"level must be 'l1' or 'l2', not {level!r}")
    return level


class AvfStudy:
    """AVF measurement session over one finished workload run.

    Parameters
    ----------
    apu:
        The device the workload ran on (after :meth:`Apu.run`).
    output_ranges:
        (base, size) pairs of the buffers the host consumes — the roots of
        the liveness analysis.

    Every AVF question goes through :meth:`avf_batch` (or its
    single-config form :meth:`avf`) and names its structure: ``"l1"``
    (one tile per CU), ``"l2"``, ``"vgpr"`` (one tile per wavefront),
    ``"l1.tags"`` or ``"l2.tags"``.
    """

    #: threads per wavefront register-file tile
    vgpr_threads = 16

    def __init__(
        self, apu: Apu, output_ranges: Sequence[Tuple[int, int]]
    ) -> None:
        self.apu = apu
        self.output_ranges = list(output_ranges)
        self.end_cycle = apu.cycle
        most = max((p.n_vregs for p in apu.wf_programs.values()), default=8)
        #: architectural VGPRs modelled per thread in the register file: the
        #: most any launched kernel used, rounded up to a power of two for
        #: interleaving
        self.vgpr_regs = 1 << max(3, (most - 1).bit_length())
        with get_tracer().span("liveness", records=len(apu.trace)):
            #: the liveness pass's verdicts, one per trace row
            self.liveness: Liveness = analyze_liveness(
                apu.trace,
                apu.wf_programs,
                apu.memory.size,
                self.output_ranges,
                lds_size=apu.lds_bytes,
            )
        buffers = apu.memory.buffers().values()
        lo = min((b for b, _ in buffers), default=0)
        hi = max((b + s for b, s in buffers), default=lo)
        #: ``(base, size)`` spanning every allocated buffer
        self.footprint = (lo, hi - lo)
        self._fills: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: each structure's one lifetime table, by structure name ("memory"
        #: too); per-part lists and memory regions are views of it
        self._tables: Dict[str, StructureLifetimes] = {}
        self._structures: Dict[
            Tuple[str, Optional[Interleaving], int],
            Tuple[SramArray, StructureLifetimes],
        ] = {}

    # -- lifetimes (lazy, cached) -------------------------------------------

    @property
    def memcons(self) -> StructureLifetimes:
        """The study's one memory lifetime table, over :attr:`footprint`
        (byte ``i`` is address ``footprint[0] + i``).  Every memory
        liveness question reads it."""
        return self._lifetimes("memory")

    def l1_lifetimes(self) -> List[StructureLifetimes]:
        """Per-CU L1 lifetimes: views of the study's one L1 table, built
        per call and named after their CU's cache."""
        return _tiles(
            self._lifetimes("l1"), [l1.name for l1 in self.apu.memsys.l1s]
        )

    def l2_lifetime(self) -> StructureLifetimes:
        return self._lifetimes("l2")

    def vgpr_lifetimes(self) -> List[StructureLifetimes]:
        """One register-file lifetime per launched wavefront, in wavefront
        id order: views of the study's one VGPR table, built per call."""
        return _tiles(
            self._lifetimes("vgpr"),
            [f"vgpr.wf{wf}" for wf in sorted(self.apu.wf_programs)],
        )

    def memory_lifetimes(self, region: Tuple[int, int]) -> StructureLifetimes:
        """Architectural lifetimes of the flat memory region ``(base,
        size)`` (see :func:`repro.core.lifetime.analyze_memory`): the
        region's :meth:`~StructureLifetimes.byte_range` of
        :attr:`memcons`.  Bytes outside the footprint have no rows."""
        base, size = region
        lo = base - self.footprint[0]
        return self.memcons.byte_range(lo, lo + size)

    def _lifetimes(self, structure: str) -> StructureLifetimes:
        """The one lifetime table of ``structure``, built on first ask:
        the memory footprint's, the L2's, or every CU's L1 or every
        wavefront's register file stacked into one, tile after tile.  A
        tag array's is derived from its data array's (an entry is ACE
        while its line holds live data) once, and every layout shares
        it."""
        if structure not in self._tables:
            level, _, tags = structure.partition(".")
            if tags:
                table = derive_tag_lifetimes(
                    self._lifetimes(level),
                    self._cache_config(level).line_bytes,
                )
            else:
                if level == "l2":  # reads the L1s' fill verdicts and memory
                    self._lifetimes("l1")
                    self._lifetimes("memory")
                with get_tracer().span("lifetime", structure=level):
                    table = self._analyze(level)
            self._tables[structure] = table
        return self._tables[structure]

    def _analyze(self, level: str) -> StructureLifetimes:
        """Run the extractors of ``level`` ("memory", "l1", "l2" or
        "vgpr"), stacking per-part tables into one."""
        apu, needed = self.apu, self.liveness.mem_needed
        if level == "memory":
            return analyze_memory(
                apu.trace, apu.wf_programs, needed, self.footprint,
                self.output_ranges, self.end_cycle,
            )
        if level == "l2":
            table, _ = analyze_cache(
                apu.memsys.l2, apu.trace, apu.wf_programs, needed,
                self.end_cycle,
                memcons=self.memory_lifetimes((0, sum(self.footprint))),
                upstream_fills=self._fills,
            )
            return table
        if level == "l1":
            parts = []
            for l1 in apu.memsys.l1s:
                lt, fills = analyze_cache(
                    l1, apu.trace, apu.wf_programs, needed, self.end_cycle
                )
                parts.append(lt)
                self._fills.update(fills)  # fill ids are device-wide
            # named after CU 0's, as its results are
            return _stack(parts[0].name, parts, self.end_cycle)
        by_wf = apu.trace.wf_rows()
        none = np.zeros(0, dtype=np.int64)
        parts = [
            analyze_vgpr(
                apu.trace, by_wf.get(wf, none), program,
                self.liveness.src_needed, wf, self.vgpr_regs, self.end_cycle,
            )
            for wf, program in sorted(apu.wf_programs.items())
        ]
        return _stack("vgpr", parts, self.end_cycle)

    # -- structures ---------------------------------------------------------

    def _cache_config(self, level: str):
        """The configuration of the ``level`` cache (CU 0's for the L1s)."""
        memsys = self.apu.memsys
        return (memsys.l1s[0] if level == "l1" else memsys.l2).config

    def _layout(
        self, structure: str, style: Optional[Interleaving], factor: int
    ) -> SramArray:
        """The physical layout of ``structure`` under (style, factor).

        One tile per wavefront for the VGPR: interleaving stays
        wavefront-internal, but a fault group may span two wavefronts'
        rows.  One tile per CU for an L1 (data or tags): each CU's is its
        own array, so no fault group spans two.
        """
        level, _, tags = structure.partition(".")
        if level == "vgpr":
            assert style is not None
            tile = build_regfile_array(
                self.vgpr_threads, self.vgpr_regs, style=style,
                factor=factor, name="vgpr",
            )
            return dataclasses.replace(tile, tiles=len(self.apu.wf_programs))
        cfg = self._cache_config(level)
        if tags:
            tile = build_tag_array(
                cfg.n_sets, cfg.n_ways, factor=factor, name=structure
            )
        else:
            assert style is not None, "only a tag array takes no style"
            tile = build_cache_array(
                cfg.n_sets, cfg.n_ways, cfg.line_bytes, style=style,
                factor=factor, name=level,
            )
        separate = level == "l1"
        return dataclasses.replace(
            tile, tiles=len(self.apu.memsys.l1s) if separate else 1,
            separate_tiles=separate,
        )

    def _structure(
        self, structure: str, style: Optional[Interleaving], factor: int
    ) -> Tuple[SramArray, StructureLifetimes]:
        """``(layout, lifetimes)`` of ``structure`` under (style, factor).

        ``style=None`` is the structure's default style.  Cached per
        resolved key: one layout object per key and one lifetime table per
        structure, so the engine's per-layout enumeration memo and
        per-lifetimes canonical-id cache are hit across calls.
        """
        if structure not in _DEFAULT_STYLE:
            raise ValueError(
                f"structure must be one of {sorted(_DEFAULT_STYLE)}, "
                f"not {structure!r}"
            )
        default = _DEFAULT_STYLE[structure]
        if style is None:
            style = default
        elif default is None:
            raise ValueError(
                f"{structure!r} takes no style: its factor picks its layout"
            )
        key = (structure, style, factor)
        if key not in self._structures:
            self._structures[key] = (
                self._layout(structure, style, factor),
                self._lifetimes(structure),
            )
        return self._structures[key]

    # -- AVF measurements -------------------------------------------------------

    def avf_batch(
        self,
        structure: str,
        configs: Sequence[AvfConfig],
        *,
        style: Optional[Interleaving] = None,
        factor: int = 1,
    ) -> List[MbAvfResult]:
        """MB-AVFs of ``structure`` for many engine configs in one pass:
        one :func:`~repro.core.avf.compute_mb_avf_batch` call over the
        structure's layout and lifetime table, under the layout's Sec.
        VIII rule."""
        return compute_mb_avf_batch(
            *self._structure(structure, style, factor), configs
        )

    def avf(
        self,
        structure: str,
        mode: FaultMode,
        scheme: ProtectionScheme,
        *,
        style: Optional[Interleaving] = None,
        factor: int = 1,
        series_edges: Optional[Sequence[int]] = None,
    ) -> MbAvfResult:
        """MB-AVF of ``structure`` for one (mode, scheme) under one layout;
        ``series_edges`` adds a time series (Fig. 5)."""
        cfg = AvfConfig(
            mode=mode, scheme=scheme,
            series_edges=tuple(series_edges) if series_edges is not None else None,
        )
        return self.avf_batch(structure, [cfg], style=style, factor=factor)[0]

    # ``cache_avf``/``vgpr_avf`` (and ``sweep_cache_avf``/``sweep_vgpr_avf``)
    # are older spellings of :meth:`avf` that only
    # ``benchmarks/pipeline/child.py`` still calls.

    def cache_avf(
        self, level: str, mode: FaultMode, scheme: ProtectionScheme, **kw
    ) -> MbAvfResult:
        """:meth:`avf` of the ``level`` ("l1" or "l2") cache's data array."""
        return self.avf(_cache_level(level), mode, scheme, **kw)

    def vgpr_avf(
        self, mode: FaultMode, scheme: ProtectionScheme, **kw
    ) -> MbAvfResult:
        """:meth:`avf` of the vector register file."""
        return self.avf("vgpr", mode, scheme, **kw)

    def cache_ace_locality(
        self, level: str, *, style: Optional[Interleaving] = None,
        factor: int = 1,
    ) -> float:
        """ACE locality of a cache's data array under a given physical
        layout, averaged over its CUs for the L1."""
        return ace_locality(*self._structure(_cache_level(level), style, factor))
