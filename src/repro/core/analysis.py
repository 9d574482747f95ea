"""High-level orchestration: run a workload, then measure any AVF you like.

:class:`AvfStudy` wires together the full pipeline of the paper:

1. the simulator's event traces (:class:`~repro.arch.gpu.Apu`),
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

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.gpu import Apu
from ..arch.liveness import analyze_liveness
from ..obs import get_tracer
from .avf import (
    AvfConfig,
    MbAvfResult,
    StructureLifetimes,
    ace_locality,
    compute_mb_avf_batch,
    merge_results,
)
from .faultmodes import FaultMode
from .layout import (
    Interleaving,
    SramArray,
    build_cache_array,
    build_regfile_array,
)
from .layout import build_tag_array
from .lifetime import (
    analyze_cache,
    analyze_memory,
    analyze_vgpr,
    derive_tag_lifetimes,
)
from .protection import ProtectionScheme

__all__ = ["AvfStudy", "due_preempts_sdc_for"]


def due_preempts_sdc_for(style: Interleaving) -> bool:
    """The Sec. VIII rule: with inter-thread interleaving the threads of
    a wavefront read a register row simultaneously, so a detected region
    fires before an undetected one propagates (DUE preempts SDC)."""
    return style is Interleaving.INTER_THREAD


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


def _merged_batch(
    layout: SramArray,
    lts: Sequence[StructureLifetimes],
    configs: Sequence[AvfConfig],
) -> List[MbAvfResult]:
    """Each config's results over the replicated ``lts``, merged."""
    per_lt = [compute_mb_avf_batch(layout, lt, configs) for lt in lts]
    return [
        merge_results([res[i] for res in per_lt]) for i in range(len(configs))
    ]


class AvfStudy:
    """AVF measurement session over one finished workload run.

    Parameters
    ----------
    apu:
        The device the workload ran on (after :meth:`Apu.run`).
    output_ranges:
        (base, size) pairs of the buffers the host consumes — the roots of
        the liveness analysis.
    vgpr_regs:
        Number of architectural VGPRs modelled per thread in the register
        file structure (defaults to the largest register count any launched
        kernel used, rounded up to a power of two for interleaving).
    """

    def __init__(
        self,
        apu: Apu,
        output_ranges: Sequence[Tuple[int, int]],
        vgpr_regs: Optional[int] = None,
    ) -> None:
        self.apu = apu
        self.output_ranges = list(output_ranges)
        self.end_cycle = apu.cycle
        if vgpr_regs is None:
            most = max(
                (p.n_vregs for p in apu.wf_programs.values()), default=8
            )
            vgpr_regs = 1 << max(3, (most - 1).bit_length())
        self.vgpr_regs = vgpr_regs
        # Liveness annotation (in place on the records).
        n_vregs_by_wf = {w: p.n_vregs for w, p in apu.wf_programs.items()}
        with get_tracer().span("liveness", records=len(apu.records)):
            analyze_liveness(
                apu.records,
                n_vregs_by_wf,
                apu.memory.size,
                self.output_ranges,
                lds_size=apu.lds_bytes,
            )
        self._records_by_uid = {r.uid: r for r in apu.records}
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
        self._layout_cache: Dict[Tuple, SramArray] = {}

    # -- lifetimes (lazy, cached) -------------------------------------------

    @property
    def memcons(self) -> StructureLifetimes:
        """The study's one memory lifetime table, over :attr:`footprint`
        (byte ``i`` is address ``footprint[0] + i``).  Every memory
        liveness question reads it."""
        if self._memcons is None:
            with get_tracer().span("lifetime", structure="memory"):
                self._memcons = analyze_memory(
                    self.apu.records, self.footprint, self.output_ranges,
                    self.end_cycle,
                )
        return self._memcons

    def l1_lifetimes(self) -> List[StructureLifetimes]:
        """Per-CU L1 lifetimes (also resolves fill verdicts for the L2)."""
        if self._l1_lifetimes is None:
            self._l1_lifetimes = []
            with get_tracer().span("lifetime", structure="l1"):
                for l1 in self.apu.memsys.l1s:
                    lt, fills = analyze_cache(
                        l1, self._records_by_uid, self.end_cycle
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
                    self._records_by_uid,
                    self.end_cycle,
                    memcons=memory,
                    upstream_fills=self._fills,
                )
        return self._l2_lifetime

    def vgpr_lifetimes(self) -> List[StructureLifetimes]:
        """One register-file lifetime per launched wavefront."""
        if self._vgpr_lifetimes is None:
            with get_tracer().span("lifetime", structure="vgpr"):
                by_wf: Dict[int, List] = {}
                for rec in self.apu.records:
                    by_wf.setdefault(rec.wf, []).append(rec)
                lts = [
                    analyze_vgpr(
                        by_wf.get(wf, []), wf, self.vgpr_regs, self.end_cycle
                    )
                    for wf in sorted(self.apu.wf_programs)
                ]
                self._vgpr_stack = _stack("vgpr", lts, self.end_cycle)
                self._vgpr_lifetimes = lts
        return self._vgpr_lifetimes

    # -- layouts --------------------------------------------------------------

    def _cache_config(self, level: str):
        """The cache configuration of ``level`` (``'l1'`` or ``'l2'``)."""
        if level == "l1":
            return self.apu.memsys.l1s[0].config
        if level == "l2":
            return self.apu.memsys.l2.config
        raise ValueError(f"level must be 'l1' or 'l2', not {level!r}")

    def _cache_lifetimes(self, level: str) -> List[StructureLifetimes]:
        """The data-array lifetimes of ``level``: one per L1, or the L2."""
        self._cache_config(level)  # rejects any other level
        return self.l1_lifetimes() if level == "l1" else [self.l2_lifetime()]

    def _cache_layout(
        self, level: str, style: Interleaving, factor: int, domain_bytes: int
    ) -> SramArray:
        key = (level, style, factor, domain_bytes)
        if key not in self._layout_cache:
            cfg = self._cache_config(level)
            self._layout_cache[key] = build_cache_array(
                cfg.n_sets, cfg.n_ways, cfg.line_bytes,
                domain_bytes=domain_bytes, style=style, factor=factor,
                name=level,
            )
        return self._layout_cache[key]

    def _vgpr_layout(self, style: Interleaving, factor: int) -> SramArray:
        key = ("vgpr", style, factor)
        if key not in self._layout_cache:
            self._layout_cache[key] = build_regfile_array(
                16, self.vgpr_regs, style=style, factor=factor, name="vgpr"
            )
        return self._layout_cache[key]

    # -- AVF measurements -------------------------------------------------------

    def cache_avf_batch(
        self,
        level: str,
        configs: Sequence[AvfConfig],
        *,
        style: Interleaving = Interleaving.NONE,
        factor: int = 1,
        domain_bytes: int = 4,
    ) -> List[MbAvfResult]:
        """MB-AVFs of a cache level for many engine configs in one pass.

        All configs share one enumeration/classification cache per CU; the
        per-CU results of each config are merged as in :meth:`cache_avf`.
        """
        layout = self._cache_layout(level, style, factor, domain_bytes)
        return _merged_batch(layout, self._cache_lifetimes(level), configs)

    def cache_avf(
        self,
        level: str,
        mode: FaultMode,
        scheme: ProtectionScheme,
        *,
        style: Interleaving = Interleaving.NONE,
        factor: int = 1,
        domain_bytes: int = 4,
        due_preempts_sdc: bool = False,
        series_edges: Optional[Sequence[int]] = None,
    ) -> MbAvfResult:
        """MB-AVF of the L1 (merged over CUs) or L2 cache."""
        cfg = AvfConfig(
            mode=mode, scheme=scheme, due_preempts_sdc=due_preempts_sdc,
            series_edges=tuple(series_edges) if series_edges is not None else None,
        )
        return self.cache_avf_batch(
            level, [cfg], style=style, factor=factor, domain_bytes=domain_bytes,
        )[0]

    def vgpr_avf_batch(
        self,
        configs: Sequence[AvfConfig],
        *,
        style: Interleaving = Interleaving.INTRA_THREAD,
        factor: int = 1,
    ) -> List[MbAvfResult]:
        """MB-AVFs of the stacked register file for many configs in one pass.

        Configs are taken verbatim — apply :func:`due_preempts_sdc_for`
        yourself if you build them by hand (:meth:`vgpr_avf` does it for
        you).
        """
        layout, lifetimes = self._stacked_vgpr(style, factor)
        return compute_mb_avf_batch(layout, lifetimes, configs)

    def vgpr_avf(
        self,
        mode: FaultMode,
        scheme: ProtectionScheme,
        *,
        style: Interleaving = Interleaving.INTRA_THREAD,
        factor: int = 1,
        due_preempts_sdc: Optional[bool] = None,
        series_edges: Optional[Sequence[int]] = None,
    ) -> MbAvfResult:
        """MB-AVF of the vector register file, merged over wavefronts.

        The Sec. VIII rule (:func:`due_preempts_sdc_for`) is applied
        automatically unless ``due_preempts_sdc`` is forced.
        """
        if due_preempts_sdc is None:
            due_preempts_sdc = due_preempts_sdc_for(style)
        cfg = AvfConfig(
            mode=mode, scheme=scheme, due_preempts_sdc=due_preempts_sdc,
            series_edges=tuple(series_edges) if series_edges is not None else None,
        )
        return self.vgpr_avf_batch([cfg], style=style, factor=factor)[0]

    def _stacked_vgpr(
        self, style: Interleaving, factor: int
    ) -> Tuple[SramArray, StructureLifetimes]:
        """All wavefronts' register files stacked into one structure.

        Interleaving stays wavefront-internal (rows never mix wavefronts);
        stacking just lets one engine invocation cover the whole register
        file, with byte/domain ids offset per wavefront.  Every layout
        shares the study's one stacked lifetime table.
        """
        n = len(self.vgpr_lifetimes())
        assert self._vgpr_stack is not None
        key = ("vgpr-stack", style, factor)
        if key not in self._layout_cache:
            base = self._vgpr_layout(style, factor)
            byte_of = np.vstack(
                [base.byte_of + np.int32(k * base.n_bytes) for k in range(n)]
            )
            domain_of = np.vstack(
                [base.domain_of + np.int32(k * base.n_domains) for k in range(n)]
            )
            self._layout_cache[key] = SramArray(
                "vgpr", byte_of, domain_of, base.domain_bytes,
                base.interleave_factor, base.style,
            )
        return self._layout_cache[key], self._vgpr_stack

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

    def _tag_lifetimes(self, level: str, tag_bytes: int) -> List[StructureLifetimes]:
        """Derived tag-array lifetimes, cached so repeated tag AVFs share
        the engine's per-lifetimes canonical-id and region caches."""
        key = ("tag-lts", level, tag_bytes)
        if key not in self._layout_cache:
            line_bytes = self._cache_config(level).line_bytes
            self._layout_cache[key] = [
                derive_tag_lifetimes(lt, line_bytes, tag_bytes=tag_bytes)
                for lt in self._cache_lifetimes(level)
            ]
        return self._layout_cache[key]

    def tag_avf_batch(
        self,
        level: str,
        configs: Sequence[AvfConfig],
        *,
        factor: int = 1,
        tag_bytes: int = 3,
    ) -> List[MbAvfResult]:
        """MB-AVFs of a cache's tag array for many configs in one pass."""
        cfg = self._cache_config(level)
        key = ("tags", level, factor, tag_bytes)
        if key not in self._layout_cache:
            self._layout_cache[key] = build_tag_array(
                cfg.n_sets, cfg.n_ways, tag_bytes=tag_bytes, factor=factor,
                name=f"{level}.tags",
            )
        return _merged_batch(
            self._layout_cache[key], self._tag_lifetimes(level, tag_bytes),
            configs,
        )

    def tag_avf(
        self,
        level: str,
        mode: FaultMode,
        scheme: ProtectionScheme,
        *,
        factor: int = 1,
        tag_bytes: int = 3,
        series_edges: Optional[Sequence[int]] = None,
    ) -> MbAvfResult:
        """MB-AVF of a cache's tag array (conservative address-structure model).

        Tag lifetimes are derived from the data array's: an entry is ACE
        while its line holds live data.  ``factor`` interleaves adjacent
        ways' tags within a set's row.
        """
        cfg = AvfConfig(
            mode=mode, scheme=scheme,
            series_edges=tuple(series_edges) if series_edges is not None else None,
        )
        return self.tag_avf_batch(
            level, [cfg], factor=factor, tag_bytes=tag_bytes,
        )[0]

    def cache_ace_locality(
        self, level: str, *, style: Interleaving = Interleaving.NONE,
        factor: int = 1, domain_bytes: int = 4,
    ) -> float:
        """ACE locality of a cache under a given physical layout."""
        layout = self._cache_layout(level, style, factor, domain_bytes)
        vals = [ace_locality(layout, lt) for lt in self._cache_lifetimes(level)]
        return float(np.mean(vals))
