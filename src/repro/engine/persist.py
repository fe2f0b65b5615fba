"""Database persistence: JSON snapshots.

``dump``/``load`` serialize the whole catalog — schemas, rows, the
``BIT VARYING`` policy masks and secondary-index *definitions* — to a JSON
document or file.  Index entries themselves are not serialized: they are
derived state, built lazily on first use after the load.
Registered functions are *not* serialized (code doesn't round-trip through
JSON); reattach UDFs after loading, e.g. by rebuilding the access-control
manager with :meth:`repro.core.admin.AccessControlManager.from_existing`.

Format history: version 1 had no ``indexes`` list; version 2 added it
together with the ``policy`` marker object (the enforcement framework's
policy function/column names); version 3 added ``catalog_version`` (the
versioned-catalog counter, DESIGN.md §15) so a reloaded database's catalog
version never moves backwards across a checkpoint.  Older documents still
load (no indexes / catalog version 0).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import EngineError
from .database import Database
from .index import IndexDefinition
from .schema import Column, TableSchema
from .types import BitString, SqlType

FORMAT_VERSION = 3

#: Snapshot versions :func:`from_document` accepts.
SUPPORTED_VERSIONS = (1, 2, 3)

_BITS_KEY = "$bits"


def _encode_value(value: object) -> object:
    if isinstance(value, BitString):
        return {_BITS_KEY: value.bits()}
    return value


def _decode_value(value: object) -> object:
    if isinstance(value, dict) and set(value) == {_BITS_KEY}:
        return BitString.from_bits(value[_BITS_KEY])
    return value


def _encode_column(column: Column) -> dict:
    """Serialize one column definition (shared with the WAL's DDL records)."""
    return {
        "name": column.name,
        "type": column.sql_type.value,
        "primary_key": column.primary_key,
        "not_null": column.not_null,
        "default": _encode_value(column.default),
    }


def _decode_column(entry: dict) -> Column:
    return Column(
        entry["name"],
        SqlType(entry["type"]),
        primary_key=entry.get("primary_key", False),
        not_null=entry.get("not_null", False),
        default=_decode_value(entry.get("default")),
    )


def to_document(database: Database) -> dict:
    """Serialize a database to a JSON-compatible dict."""
    tables = []
    for table in database.tables.values():
        tables.append(
            {
                "name": table.schema.name,
                "columns": [
                    _encode_column(column) for column in table.schema.columns
                ],
                "rows": [
                    [_encode_value(value) for value in row] for row in table.rows
                ],
            }
        )
    return {
        "version": FORMAT_VERSION,
        "name": database.name,
        "catalog_version": database.catalog.version,
        "tables": tables,
        "policy": {
            "function": database.policy_function,
            "column": database.policy_column,
        },
        "indexes": [
            definition.to_dict() for definition in database.indexes.definitions()
        ],
    }


def from_document(document: dict) -> Database:
    """Rebuild a database from :func:`to_document` output."""
    version = document.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise EngineError(f"unsupported snapshot version {version!r}")
    database = Database(document.get("name", "db"))
    for entry in document["tables"]:
        columns = [_decode_column(column) for column in entry["columns"]]
        table = database.create_table(TableSchema(entry["name"], columns))
        table.rows = [
            tuple(_decode_value(value) for value in row) for row in entry["rows"]
        ]
    # Both policy keys are absent in version-1 snapshots.
    policy = document.get("policy") or {}
    database.policy_function = policy.get("function")
    database.policy_column = policy.get("column")
    for entry in document.get("indexes", ()):
        database.create_index(IndexDefinition.from_dict(entry))
    # Restore the catalog-version floor last: the commits above already
    # advanced the counter from zero, and the stored value (stamped after
    # the same commits pre-checkpoint) must win ties.
    database.catalog.advance_to(int(document.get("catalog_version", 0)))
    return database


def dumps(database: Database) -> str:
    """Serialize to a JSON string."""
    return json.dumps(to_document(database))


def loads(text: str) -> Database:
    """Deserialize from a JSON string."""
    return from_document(json.loads(text))


def dump(database: Database, path: "str | Path") -> None:
    """Write a snapshot file."""
    Path(path).write_text(dumps(database), encoding="utf-8")


def load(path: "str | Path") -> Database:
    """Read a snapshot file."""
    return loads(Path(path).read_text(encoding="utf-8"))
