"""``repro.store`` — the persistent results store.

Turns every "compute then print" entry point into "compute once, read
many times": campaigns, sweeps and engine batches land in one sqlite
file (WAL mode, versioned schema, idempotent keyed writes) and are
answered back out through :meth:`ResultStore.query` with zero
simulation work.  The file is an index derived from journals and
seeds: a damaged one is removed and refilled by re-running its producer
with ``--resume JOURNAL --store PATH``.  ``repro query`` / ``repro
report`` are the CLI faces of this package; see docs/results-store.md
for the schema and the keying rules.
"""

from .db import ResultStore, engine_version, open_store
from .ingest import (
    ingest_campaign,
    ingest_journal,
    ingest_results,
    ingest_sweep_points,
)
from .query import AvfRow, FILTER_COLUMNS, QueryResult, VALUE_COLUMNS
from .schema import SCHEMA_VERSION

__all__ = [
    "AvfRow",
    "FILTER_COLUMNS",
    "QueryResult",
    "ResultStore",
    "SCHEMA_VERSION",
    "VALUE_COLUMNS",
    "engine_version",
    "ingest_campaign",
    "ingest_journal",
    "ingest_results",
    "ingest_sweep_points",
    "open_store",
]
