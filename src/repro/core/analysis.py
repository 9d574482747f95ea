"""High-level orchestration: run a workload, then measure any AVF you like.

:class:`AvfStudy` wires together the full pipeline of the paper:

1. the simulator's trace and cache event tables (:class:`~repro.arch.gpu.Apu`),
2. the backward liveness pass (dynamic-dead + logic masking),
3. per-structure lifetime analysis (L1s, L2, per-wavefront VGPRs, and
   one memory table over the allocated footprint),
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
    (merged over CUs), ``"l2"``, ``"vgpr"`` (merged over wavefronts),
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
        self._memcons: Optional[StructureLifetimes] = None
        self._l1_lifetimes: Optional[List[StructureLifetimes]] = None
        self._fills: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._l2_lifetime: Optional[StructureLifetimes] = None
        self._vgpr_lifetimes: Optional[List[StructureLifetimes]] = None
        self._vgpr_stack: Optional[StructureLifetimes] = None
        self._tag_lifetimes: Dict[str, List[StructureLifetimes]] = {}
        self._structures: Dict[
            Tuple[str, Optional[Interleaving], int],
            Tuple[SramArray, List[StructureLifetimes]],
        ] = {}

    # -- lifetimes (lazy, cached) -------------------------------------------

    @property
    def memcons(self) -> StructureLifetimes:
        """The study's one memory lifetime table, over :attr:`footprint`
        (byte ``i`` is address ``footprint[0] + i``).  Every memory
        liveness question reads it."""
        if self._memcons is None:
            with get_tracer().span("lifetime", structure="memory"):
                self._memcons = analyze_memory(
                    self.apu.trace, self.apu.wf_programs,
                    self.liveness.mem_needed, self.footprint,
                    self.output_ranges, self.end_cycle,
                )
        return self._memcons

    def l1_lifetimes(self) -> List[StructureLifetimes]:
        """Per-CU L1 lifetimes (also resolves fill verdicts for the L2)."""
        if self._l1_lifetimes is None:
            self._l1_lifetimes = []
            with get_tracer().span("lifetime", structure="l1"):
                for l1 in self.apu.memsys.l1s:
                    lt, fills = analyze_cache(
                        l1, self.apu.trace, self.apu.wf_programs,
                        self.liveness.mem_needed, self.end_cycle,
                    )
                    self._l1_lifetimes.append(lt)
                    self._fills.update(fills)  # fill ids are device-wide
        return self._l1_lifetimes

    def l2_lifetime(self) -> StructureLifetimes:
        if self._l2_lifetime is None:
            self.l1_lifetimes()  # ensure fill verdicts exist
            memory = self.memory_lifetimes((0, sum(self.footprint)))
            with get_tracer().span("lifetime", structure="l2"):
                self._l2_lifetime, _ = analyze_cache(
                    self.apu.memsys.l2,
                    self.apu.trace,
                    self.apu.wf_programs,
                    self.liveness.mem_needed,
                    self.end_cycle,
                    memcons=memory,
                    upstream_fills=self._fills,
                )
        return self._l2_lifetime

    def vgpr_lifetimes(self) -> List[StructureLifetimes]:
        """One register-file lifetime per launched wavefront."""
        if self._vgpr_lifetimes is None:
            with get_tracer().span("lifetime", structure="vgpr"):
                trace = self.apu.trace
                by_wf = trace.wf_rows()
                none = np.zeros(0, dtype=np.int64)
                lts = [
                    analyze_vgpr(
                        trace, by_wf.get(wf, none), program,
                        self.liveness.src_needed, wf, self.vgpr_regs,
                        self.end_cycle,
                    )
                    for wf, program in sorted(self.apu.wf_programs.items())
                ]
                self._vgpr_stack = _stack("vgpr", lts, self.end_cycle)
                self._vgpr_lifetimes = lts
        return self._vgpr_lifetimes

    def memory_lifetimes(self, region: Tuple[int, int]) -> StructureLifetimes:
        """Architectural lifetimes of the flat memory region ``(base,
        size)`` (see :func:`repro.core.lifetime.analyze_memory`): the
        region's CSR slice of :attr:`memcons`.  Bytes outside the
        footprint have no rows."""
        table = self.memcons
        base, size = region
        pos = np.arange(base, base + size + 1) - self.footprint[0]
        offsets = table.offsets[np.clip(pos, 0, table.n_bytes)]
        rows = slice(offsets[0], offsets[-1])
        return StructureLifetimes(
            table.name, offsets - offsets[0], table.starts[rows],
            table.ends[rows], table.cls[rows], table.start_cycle,
            table.end_cycle,
        )

    # -- structures ---------------------------------------------------------

    def _replicas(self, structure: str) -> List[StructureLifetimes]:
        """The lifetime tables of ``structure``, one per replica the engine
        sums over: one per L1, the L2, or every wavefront's register file
        stacked into one.  A tag array's are derived from
        its data array's (an entry is ACE while its line holds live data)
        once, and every layout shares them."""
        if structure == "vgpr":
            self.vgpr_lifetimes()
            assert self._vgpr_stack is not None
            return [self._vgpr_stack]
        level, _, tags = structure.partition(".")
        data = self.l1_lifetimes() if level == "l1" else [self.l2_lifetime()]
        if not tags:
            return data
        if structure not in self._tag_lifetimes:
            line_bytes = self._cache_config(level).line_bytes
            self._tag_lifetimes[structure] = [
                derive_tag_lifetimes(lt, line_bytes) for lt in data
            ]
        return self._tag_lifetimes[structure]

    def _cache_config(self, level: str):
        """The configuration of the ``level`` cache (CU 0's for the L1s)."""
        memsys = self.apu.memsys
        return (memsys.l1s[0] if level == "l1" else memsys.l2).config

    def _layout(
        self, structure: str, style: Optional[Interleaving], factor: int
    ) -> SramArray:
        """The physical layout of ``structure`` under (style, factor).

        The VGPR is one register-file tile per wavefront: interleaving
        stays wavefront-internal (rows never mix wavefronts), and byte and
        domain ids are offset per tile, so one engine invocation covers
        the whole register file.
        """
        level, _, tags = structure.partition(".")
        if tags:
            cfg = self._cache_config(level)
            return build_tag_array(
                cfg.n_sets, cfg.n_ways, factor=factor, name=structure
            )
        assert style is not None, "only a tag array takes no style"
        if structure == "vgpr":
            tile = build_regfile_array(
                self.vgpr_threads, self.vgpr_regs, style=style,
                factor=factor, name="vgpr",
            )
            return dataclasses.replace(tile, tiles=len(self.vgpr_lifetimes()))
        cfg = self._cache_config(level)
        return build_cache_array(
            cfg.n_sets, cfg.n_ways, cfg.line_bytes, style=style,
            factor=factor, name=level,
        )

    def _structure(
        self, structure: str, style: Optional[Interleaving], factor: int
    ) -> Tuple[SramArray, List[StructureLifetimes]]:
        """``(layout, replicas)`` of ``structure`` under (style, factor).

        ``style=None`` is the structure's default style.  Cached per
        resolved key: one layout object per key and one set of lifetime
        tables per structure, so the engine's per-layout enumeration memo
        and per-lifetimes canonical-id cache are hit across calls.
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
                self._replicas(structure),
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
        structure's layout and replicas, which sums each config over the
        replicas and applies the layout's Sec. VIII rule."""
        layout, replicas = self._structure(structure, style, factor)
        return compute_mb_avf_batch(layout, replicas, configs)

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
        """ACE locality of a cache under a given physical layout, averaged
        over its replicas."""
        layout, replicas = self._structure(level, style, factor)
        return float(np.mean([ace_locality(layout, lt) for lt in replicas]))
