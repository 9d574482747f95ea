"""Typed query surface over the results store.

:meth:`repro.store.ResultStore.query` returns a :class:`QueryResult`:
a list of frozen :class:`AvfRow` records plus numpy-friendly accessors
(``column()`` -> ``np.ndarray``) and in-process grouping/aggregation, so
analysis and the report renderers never touch SQL.  The WHERE clause is
assembled exclusively from the whitelisted column names below with ``?``
placeholders — the only dynamic parts of any statement are identifiers
this module owns, never values (enforced project-wide by staticcheck
rule P501).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

__all__ = ["AvfRow", "QueryResult", "FILTER_COLUMNS", "build_where"]


@dataclass(frozen=True)
class AvfRow:
    """One stored AVF measurement (one row of ``avf_results``)."""

    workload: str
    structure: str
    scheme: str
    style: str
    factor: int
    mode: str
    ser_model: str
    seed: int
    engine_version: str
    due_avf: float
    sdc_avf: float
    true_due_avf: float
    false_due_avf: float
    total_avf: float
    n_groups: Optional[int] = None
    window_cycles: Optional[int] = None
    source: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: avf_results columns legal in filters, group keys and ORDER BY
FILTER_COLUMNS: Tuple[str, ...] = (
    "workload", "structure", "scheme", "style", "factor", "mode",
    "ser_model", "seed", "engine_version", "source",
)

#: avf_results columns holding measured values (aggregatable)
VALUE_COLUMNS: Tuple[str, ...] = (
    "due_avf", "sdc_avf", "true_due_avf", "false_due_avf", "total_avf",
    "n_groups", "window_cycles",
)

_KEY_COLUMNS = frozenset(FILTER_COLUMNS)

_AGGREGATES: Dict[str, Callable[[Sequence[float]], float]] = {
    "mean": lambda xs: float(np.mean(np.asarray(xs, dtype=np.float64))),
    "min": lambda xs: float(np.min(np.asarray(xs, dtype=np.float64))),
    "max": lambda xs: float(np.max(np.asarray(xs, dtype=np.float64))),
    "sum": lambda xs: float(np.sum(np.asarray(xs, dtype=np.float64))),
    "count": lambda xs: float(len(xs)),
}


def _aggregate(agg: str, values: Iterable[Any]) -> float:
    """``agg`` over ``values``, skipping NULLs as SQL does: ``count``
    counts the non-NULL values, and any other aggregate of none is NaN."""
    xs = [float(v) for v in values if v is not None]
    if not xs and agg != "count":
        return float("nan")
    return _AGGREGATES[agg](xs)


def build_where(
    filters: Mapping[str, Any]
) -> Tuple[str, List[Any]]:
    """(WHERE clause, parameters) from a column -> value(s) mapping.

    Scalar values become ``col = ?``; sequences become ``col IN (?,...)``.
    Only :data:`FILTER_COLUMNS` are accepted — anything else raises, so a
    typo'd filter fails loudly instead of silently matching everything.
    """
    clauses: List[str] = []
    params: List[Any] = []
    for key in sorted(filters):
        if key not in _KEY_COLUMNS:
            raise KeyError(
                f"unknown filter column {key!r}; valid: "
                + ", ".join(FILTER_COLUMNS)
            )
        value = filters[key]
        if isinstance(value, (list, tuple, frozenset, set)):
            values = sorted(value) if isinstance(value, (set, frozenset)) \
                else list(value)
            if not values:
                clauses.append("1 = 0")
                continue
            placeholders = ", ".join("?" for _ in values)
            clauses.append(f"{key} IN ({placeholders})")
            params.extend(values)
        else:
            clauses.append(f"{key} = ?")
            params.append(value)
    where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
    return where, params


class QueryResult:
    """Rows returned by :meth:`~repro.store.ResultStore.query`.

    Sequence-like (``len``, iteration, indexing) over :class:`AvfRow`,
    with columnar access for numpy consumers and small in-process
    aggregation helpers for report rendering.
    """

    def __init__(self, rows: Sequence[AvfRow]) -> None:
        self.rows: List[AvfRow] = list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i: int) -> AvfRow:
        return self.rows[i]

    def __bool__(self) -> bool:
        return bool(self.rows)

    def column(self, name: str) -> np.ndarray:
        """One column as an ndarray (float64 for values, object for keys)."""
        values = [getattr(r, name) for r in self.rows]
        if name in VALUE_COLUMNS:
            return np.asarray(
                [np.nan if v is None else float(v) for v in values],
                dtype=np.float64,
            )
        # Key columns are heterogeneous strings/ints for grouping, not
        # kernel inputs; object dtype is the honest container here.
        return np.asarray(values, dtype=object)  # staticcheck: ignore[N202]

    def to_arrays(
        self, names: Iterable[str]
    ) -> Dict[str, np.ndarray]:
        """Several columns at once (a poor man's dataframe)."""
        return {name: self.column(name) for name in names}

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [r.to_dict() for r in self.rows]

    def aggregate(self, value: str = "sdc_avf", agg: str = "mean") -> float:
        """One aggregate over the whole result set; NULL values are
        skipped, as in SQL."""
        if not self.rows:
            raise ValueError("cannot aggregate an empty result set")
        return _aggregate(agg, (getattr(r, value) for r in self.rows))

    def group_by(
        self,
        keys: Union[str, Sequence[str]],
        value: str = "sdc_avf",
        agg: str = "mean",
    ) -> Dict[Tuple[Any, ...], float]:
        """Aggregate ``value`` per distinct key tuple.

        ``keys`` are filter-column names; ``agg`` is one of ``mean``,
        ``min``, ``max``, ``sum``, ``count``.  NULL values are skipped, as
        in SQL: ``count`` counts the non-NULL ones, and a group with only
        NULLs aggregates to NaN.  Group order follows the sorted key
        tuples, so renderers iterating the result are deterministic.
        """
        if isinstance(keys, str):
            keys = (keys,)
        for key in keys:
            if key not in _KEY_COLUMNS:
                raise KeyError(f"unknown group column {key!r}")
        if agg not in _AGGREGATES:
            raise KeyError(
                f"unknown aggregate {agg!r}; valid: "
                + ", ".join(sorted(_AGGREGATES))
            )
        buckets: Dict[Tuple[Any, ...], List[Any]] = {}
        for r in self.rows:
            bucket = tuple(getattr(r, k) for k in keys)
            buckets.setdefault(bucket, []).append(getattr(r, value))
        return {k: _aggregate(agg, vs) for k, vs in sorted(buckets.items())}
