"""Database persistence: a checkpoint image is one commit record.

:func:`to_document` writes a database as the :mod:`~repro.engine.codec`
record that rebuilds it from nothing — at ``ts`` = its clock, a
``create_table`` op per table, a ``create_index`` op per index definition
and a ``replace`` row effect per table — with the format ``version``, the
``name``, the ``catalog_version`` and the ``policy`` marker (the policy
function and column names).  :func:`from_document` applies it through
:func:`~repro.engine.codec.apply_record`, as WAL replay applies a record,
so a reload has the saved rows, schemas, indexes, catalog version and clock.
Index entries are derived state, built on first use.  Registered functions
are not serialized; reattach UDFs with
:meth:`repro.core.admin.AccessControlManager.from_existing`.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import EngineError
from .codec import apply_record, encode_effect, encode_op
from .database import Database
from .mvcc import txn_scope

FORMAT_VERSION = 4


def to_document(database: Database) -> dict:
    """Serialize a database to a JSON-compatible dict: the committed state
    at ``ts``, read under the write fence (no commit moves the clock or the
    rows meanwhile) and past any ambient transaction's staged writes."""
    with database.transactions.exclusive() as ts, txn_scope(None):
        ops = [
            encode_op({"op": "create_table", "schema": table.schema})
            for table in database.tables.values()
        ]
        ops += [
            encode_op({"op": "create_index", "definition": definition})
            for definition in database.indexes.definitions()
        ]
        return {
            "version": FORMAT_VERSION,
            "name": database.name,
            "ts": ts,
            "catalog_version": database.catalog.version,
            "policy": {
                "function": database.policy_function,
                "column": database.policy_column,
            },
            "ops": ops,
            "tables": {
                name: encode_effect("replace", table.rows)
                for name, table in database.tables.items()
            },
        }


def from_document(document: dict) -> Database:
    """Rebuild a database from :func:`to_document` output."""
    version = document.get("version")
    if version != FORMAT_VERSION:
        raise EngineError(f"unsupported snapshot version {version!r}")
    database = Database(document["name"])
    database.policy_function = document["policy"]["function"]
    database.policy_column = document["policy"]["column"]
    # The ops create the tables the row effects then resolve.
    apply_record(database, {"ts": document["ts"], "ops": document["ops"]})
    apply_record(database, {"ts": document["ts"], "tables": document["tables"]})
    # The ops committed at one catalog version; the saved one must win.
    database.catalog.advance_to(document["catalog_version"])
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
