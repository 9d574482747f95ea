"""Idempotent ingest: fold computed artifacts into the results store.

Accepted producers:

* **Campaign/sweep journals** (:class:`~repro.runtime.Journal` files,
  including the canonical journal a fabric coordinator commits after
  merging node shards) — each record is classified by shape: sweep/grid
  cells carry :class:`~repro.core.sweep.SweepPoint` dicts and become
  ``avf_results`` rows; injection records (spec metadata or
  ``<bench>/single|multi/...`` task ids) become ``injections`` rows
  keyed by journal record identity ``(source, task)``.
* **Engine outputs** — :class:`~repro.core.avf.MbAvfResult` batches from
  :meth:`~repro.core.avf.compute_mb_avf_batch` (or the single-result
  API), plus :class:`~repro.core.sweep.SweepPoint` lists.
* **Campaign summaries** — :class:`BenchmarkCampaign` records.

Every function returns ``(ingested, deduped)``-style counts and is a
verified no-op on re-ingest: keys are canonical configuration tuples or
journal record identity, and the store writes with ``INSERT OR
IGNORE``.  The whole batch lands in one transaction.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Union,
)

from ..obs import get_tracer
from .db import PathLike, ResultStore, engine_version

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime import Journal as _Journal

__all__ = [
    "ingest_results",
    "ingest_sweep_points",
    "ingest_campaign",
    "ingest_journal",
]

#: keys identifying a journaled value as a SweepPoint dict
_POINT_KEYS = frozenset(
    (
        "structure", "mode", "scheme", "style", "factor",
        "due_avf", "sdc_avf", "true_due_avf", "false_due_avf",
    )
)

#: keys identifying a journal meta block as an InjectionSpec
_SPEC_KEYS = frozenset(("wf", "reg", "lane", "bits", "cycle"))


def _point_to_row(
    point: Mapping[str, Any],
    *,
    workload: str,
    seed: int,
    ser_model: str,
    source: Optional[str],
) -> Dict[str, Any]:
    return {
        "workload": workload,
        "structure": str(point["structure"]),
        "scheme": str(point["scheme"]),
        "style": str(point["style"]),
        "factor": int(point["factor"]),
        "mode": str(point["mode"]),
        "ser_model": ser_model,
        "seed": int(seed),
        "engine_version": engine_version(),
        "due_avf": float(point["due_avf"]),
        "sdc_avf": float(point["sdc_avf"]),
        "true_due_avf": float(point["true_due_avf"]),
        "false_due_avf": float(point["false_due_avf"]),
        "total_avf": float(point["due_avf"]) + float(point["sdc_avf"]),
        "n_groups": point.get("n_groups"),
        "window_cycles": point.get("window_cycles"),
        "source": source,
    }


def ingest_sweep_points(
    store: ResultStore,
    points: Iterable[Any],
    *,
    workload: str,
    seed: int = 0,
    ser_model: str = "none",
    source: Optional[str] = None,
) -> Dict[str, int]:
    """Fold :class:`~repro.core.sweep.SweepPoint` records (or their dict
    form) into ``avf_results`` under one workload."""
    from dataclasses import asdict, is_dataclass

    rows = [
        _point_to_row(
            asdict(p) if is_dataclass(p) else dict(p), workload=workload,
            seed=seed, ser_model=ser_model, source=source,
        )
        for p in points
    ]
    return _put_avf_rows(store, rows, kind="sweep_points", workload=workload)


def ingest_results(
    store: ResultStore,
    results: Iterable[Any],
    *,
    workload: str,
    style: str = "none",
    factor: int = 1,
    seed: int = 0,
    ser_model: str = "none",
    source: Optional[str] = None,
) -> Dict[str, int]:
    """Fold :class:`~repro.core.avf.MbAvfResult` objects — one measurement
    or a whole :meth:`compute_mb_avf_batch` output — into the store.

    ``style``/``factor`` name the physical layout the batch was measured
    under (a batch shares one layout; results do not carry it).
    """
    rows = [
        _point_to_row(
            {
                "structure": res.structure,
                "scheme": res.scheme,
                "style": style,
                "factor": factor,
                "mode": res.mode.name,
                "due_avf": res.due_avf,
                "sdc_avf": res.sdc_avf,
                "true_due_avf": res.true_due_avf,
                "false_due_avf": res.false_due_avf,
                "n_groups": int(res.n_groups),
                "window_cycles": int(res.window_cycles),
            },
            workload=workload, seed=seed, ser_model=ser_model, source=source,
        )
        for res in results
    ]
    return _put_avf_rows(store, rows, kind="results", workload=workload)


def _put_avf_rows(
    store: ResultStore, rows: List[Dict[str, Any]], *, kind: str,
    workload: str,
) -> Dict[str, int]:
    """Write ``rows`` to ``avf_results`` inside one ``ingest`` span."""
    with get_tracer().span(
        "ingest", kind=kind, workload=workload, rows=len(rows),
    ) as span:
        ingested, deduped = store.put_avf_rows(rows)
        span.set(ingested=ingested, deduped=deduped)
    return {"rows": len(rows), "ingested": ingested, "deduped": deduped}


def ingest_campaign(
    store: ResultStore,
    campaign: Any,
    *,
    seed: int = 0,
    n_cus: int = 2,
) -> Dict[str, int]:
    """Fold one :class:`~repro.faultinject.campaign.BenchmarkCampaign`
    summary into the ``campaigns`` table."""
    with get_tracer().span(
        "ingest", kind="campaign", benchmark=campaign.benchmark,
    ) as span:
        ingested, deduped = store.put_campaign(
            campaign, seed=seed, n_cus=n_cus
        )
        span.set(ingested=ingested, deduped=deduped)
    return {"rows": 1, "ingested": ingested, "deduped": deduped}


def _classify(rec: Mapping[str, Any]) -> str:
    value = rec.get("value")
    if isinstance(value, dict) and _POINT_KEYS <= set(value):
        return "point"
    if (
        isinstance(value, list) and value
        and all(
            isinstance(v, dict) and _POINT_KEYS <= set(v) for v in value
        )
    ):
        return "points"
    meta = rec.get("meta")
    if isinstance(meta, dict) and _SPEC_KEYS <= set(meta):
        return "injection"
    task = str(rec.get("task", ""))
    if "/single/" in task or "/multi/" in task:
        return "injection"
    return "skip"


def _avf_workload(
    rec: Mapping[str, Any], fallback: Optional[str]
) -> str:
    meta = rec.get("meta")
    if isinstance(meta, dict):
        for key in ("benchmark", "workload"):
            name = meta.get(key)
            if isinstance(name, str) and name:
                return name
    return fallback or "unknown"


def _injection_row(
    rec: Mapping[str, Any], source: str
) -> Dict[str, Any]:
    task = str(rec.get("task", ""))
    outcome = str(rec.get("outcome", ""))
    value = rec.get("value")
    verdict = value if isinstance(value, str) else None
    meta = rec.get("meta") if isinstance(rec.get("meta"), dict) else {}
    return {
        "source": source,
        "task": task,
        "benchmark": task.partition("/")[0] or "unknown",
        "outcome": outcome,
        "verdict": verdict,
        "attempts": int(rec.get("attempts", 1) or 1),
        "duration": float(rec.get("duration", 0.0) or 0.0),
        "node": rec.get("node"),
        "wf": meta.get("wf"),
        "reg": meta.get("reg"),
        "lane": meta.get("lane"),
        "cycle": meta.get("cycle"),
        "bits": meta.get("bits"),
    }


def ingest_journal(
    store: ResultStore,
    journal: Union["_Journal", PathLike],
    *,
    source: Optional[str] = None,
    workload: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, int]:
    """Fold every classifiable record of a journal into the store.

    ``journal`` is a :class:`~repro.runtime.Journal` or a path to one —
    including the canonical journal produced by a fabric commit (merged
    node shards) and journals produced by plain local campaigns; the
    merge has already deduplicated by task id, and this ingest is keyed
    by ``(source, task)`` / the canonical AVF tuple, so re-ingesting any
    of them is a no-op.

    ``source`` labels injection provenance (default: the journal's
    resolved path).  ``workload`` backs up sweep records whose journal
    metadata does not name their benchmark.  Returns classification and
    ingest counts.
    """
    from ..runtime import Journal

    if not isinstance(journal, Journal):
        journal = Journal(journal)
    label = source if source is not None else str(
        Path(journal.path).resolve()
    )
    records = journal.load()
    avf_rows: List[Dict[str, Any]] = []
    injection_rows: List[Dict[str, Any]] = []
    skipped = 0
    ok = "ok"
    for task_id in sorted(records):
        rec = records[task_id]
        kind = _classify(rec)
        if kind == "point" and rec.get("outcome") == ok:
            avf_rows.append(
                _point_to_row(
                    rec["value"],
                    workload=_avf_workload(rec, workload),
                    seed=seed, ser_model="none", source=label,
                )
            )
        elif kind == "points" and rec.get("outcome") == ok:
            name = _avf_workload(rec, workload)
            for point in rec["value"]:
                avf_rows.append(
                    _point_to_row(
                        point, workload=name, seed=seed,
                        ser_model="none", source=label,
                    )
                )
        elif kind == "injection":
            injection_rows.append(_injection_row(rec, label))
        else:
            skipped += 1
    with get_tracer().span(
        "ingest", kind="journal", source=label, records=len(records),
    ) as span:
        a_new, a_dup = store.put_avf_rows(avf_rows)
        i_new, i_dup = store.put_injection_rows(injection_rows)
        span.set(ingested=a_new + i_new, deduped=a_dup + i_dup)
    return {
        "records": len(records),
        "avf_rows": len(avf_rows),
        "injections": len(injection_rows),
        "skipped": skipped,
        "ingested": a_new + i_new,
        "deduped": a_dup + i_dup,
    }
