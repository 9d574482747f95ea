"""Results-store schema: one versioned DDL over stdlib sqlite3.

The store is keyed by the canonical configuration tuple the whole
reproduction revolves around::

    (workload, structure, protection scheme, layout/interleaving,
     fault mode geometry, SER model, seed, engine version)

Every table encodes idempotence in its DDL: the AVF table carries a
UNIQUE constraint over that tuple, the injection table is keyed by
journal record identity ``(source, task)``, and all writers go through
``INSERT OR IGNORE`` inside an immediate transaction — re-ingesting any
artifact (a journal, a merged fabric shard set, a batch of
:class:`~repro.core.avf.MbAvfResult`) changes no rows.

The store is an index derived from journals and seeds, so there are no
migrations: a fresh file is created at :data:`SCHEMA_VERSION`, a current
one is used as is, and any other version is refused.  The fix for a
schema change is to remove the file and re-ingest.  The version lives in
the ``meta`` table so two processes racing to create the same file
create it exactly once (the loser's ``BEGIN IMMEDIATE`` re-reads the
version and finds nothing left to do).
"""

from __future__ import annotations

import sqlite3

__all__ = [
    "SCHEMA_VERSION",
    "SchemaVersionError",
    "ensure_schema",
    "schema_version",
]


class SchemaVersionError(RuntimeError):
    """The file carries a schema version this build does not read."""

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS avf_results (
    workload        TEXT NOT NULL,
    structure       TEXT NOT NULL,
    scheme          TEXT NOT NULL,
    style           TEXT NOT NULL,
    factor          INTEGER NOT NULL,
    mode            TEXT NOT NULL,
    ser_model       TEXT NOT NULL DEFAULT 'none',
    seed            INTEGER NOT NULL DEFAULT 0,
    engine_version  TEXT NOT NULL,
    due_avf         REAL NOT NULL,
    sdc_avf         REAL NOT NULL,
    true_due_avf    REAL NOT NULL,
    false_due_avf   REAL NOT NULL,
    total_avf       REAL NOT NULL,
    n_groups        INTEGER,
    window_cycles   INTEGER,
    source          TEXT,
    UNIQUE (workload, structure, scheme, style, factor, mode,
            ser_model, seed, engine_version)
);
CREATE TABLE IF NOT EXISTS injections (
    source    TEXT NOT NULL,
    task      TEXT NOT NULL,
    benchmark TEXT NOT NULL,
    outcome   TEXT NOT NULL,
    verdict   TEXT,
    attempts  INTEGER NOT NULL DEFAULT 1,
    duration  REAL NOT NULL DEFAULT 0.0,
    node      TEXT,
    wf        INTEGER,
    reg       INTEGER,
    lane      INTEGER,
    cycle     INTEGER,
    bits      TEXT,
    PRIMARY KEY (source, task)
);
CREATE TABLE IF NOT EXISTS mttf_rows (
    cache_bytes         INTEGER NOT NULL,
    raw_fit_per_mbit    REAL NOT NULL,
    engine_version      TEXT NOT NULL,
    mttf_smbf_01pct     REAL NOT NULL,
    mttf_smbf_5pct      REAL NOT NULL,
    mttf_tmbf_unbounded REAL NOT NULL,
    mttf_tmbf_100yr     REAL NOT NULL,
    PRIMARY KEY (cache_bytes, raw_fit_per_mbit, engine_version)
);
CREATE TABLE IF NOT EXISTS campaigns (
    benchmark       TEXT NOT NULL,
    seed            INTEGER NOT NULL,
    n_cus           INTEGER NOT NULL,
    engine_version  TEXT NOT NULL,
    n_single        INTEGER NOT NULL,
    sdc_ace_bits    INTEGER NOT NULL,
    interference    INTEGER NOT NULL,
    model_sdc_avf   REAL,
    single_outcomes TEXT NOT NULL,
    multibit        TEXT NOT NULL,
    failures        TEXT NOT NULL,
    PRIMARY KEY (benchmark, seed, n_cus, engine_version)
);
CREATE INDEX IF NOT EXISTS idx_avf_workload
    ON avf_results (workload, structure);
CREATE INDEX IF NOT EXISTS idx_injections_benchmark
    ON injections (benchmark);
"""

#: the schema version this build of the code reads and writes
SCHEMA_VERSION = 1

_GET_VERSION = "SELECT value FROM meta WHERE key = 'schema_version'"
_SET_VERSION = "INSERT INTO meta (key, value) VALUES ('schema_version', ?)"


def schema_version(conn: sqlite3.Connection) -> int:
    """The on-disk schema version (0 = empty database)."""
    row = conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table' "
        "AND name = 'meta'"
    ).fetchone()
    if row is None:
        return 0
    got = conn.execute(_GET_VERSION).fetchone()
    return int(got[0]) if got is not None else 0


def ensure_schema(conn: sqlite3.Connection) -> None:
    """Create the schema in a fresh file; refuse any other version.

    Safe under concurrency: on a fresh file the version is re-checked
    inside one ``BEGIN IMMEDIATE`` transaction, so a process that lost
    the race to create the tables sees the stamped version and does
    nothing.  A file stamped with another version (a newer build wrote
    it) is refused rather than misread.
    """
    version = schema_version(conn)
    if version == 0:
        conn.execute("BEGIN IMMEDIATE")
        try:
            version = schema_version(conn)
            if version == 0:
                for statement in _statements(_DDL):
                    conn.execute(statement)
                conn.execute(_SET_VERSION, (str(SCHEMA_VERSION),))
                version = SCHEMA_VERSION
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"results store is schema version {version}, but this build "
            f"reads only version {SCHEMA_VERSION}; upgrade the code, or "
            "remove the file and re-run the command that produced it "
            "with --resume JOURNAL --store PATH"
        )


def _statements(script: str):
    """Split a DDL script on ';' (none of our DDL embeds semicolons)."""
    for chunk in script.split(";"):
        statement = chunk.strip()
        if statement:
            yield statement
