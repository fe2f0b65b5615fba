"""The record codec: the one JSON form of a commit, and the one way back.

A commit record is ``{"ts", "ops", "tables"}``: a WAL commit record
(:meth:`~repro.engine.wal.DurabilityManager.log_commit`) and a checkpoint
image (:func:`~repro.engine.persist.to_document`) are one, and a shard
coordinator ships its ``ops``.  ``ops`` are logical catalog ops — create or
drop a table or index, add or drop a column — with their columns, schemas
and index definitions flattened to JSON; ``tables`` maps a table to one row
effect (``append``, ``delta`` or ``replace``); a ``BIT VARYING`` policy
mask is ``{"$bits": "0101"}``, any other value a JSON scalar.

:func:`apply_record` decodes a record and hands it to
:meth:`~repro.engine.database.Database.apply_commit`, the applier every
live commit went through, so WAL replay and checkpoint reload rebuild the
state the commits built.
"""

from __future__ import annotations

from .index import IndexDefinition
from .mvcc import WritePlan
from .schema import Column, TableSchema
from .types import BitString, SqlType

_BITS_KEY = "$bits"


def encode_value(value: object) -> object:
    if isinstance(value, BitString):
        return {_BITS_KEY: value.bits()}
    return value


def decode_value(value: object) -> object:
    if isinstance(value, dict) and set(value) == {_BITS_KEY}:
        return BitString.from_bits(value[_BITS_KEY])
    return value


def encode_row(row: tuple) -> list:
    return [encode_value(value) for value in row]


def decode_row(row: list) -> tuple:
    return tuple(decode_value(value) for value in row)


def encode_column(column: Column) -> dict:
    return {
        "name": column.name,
        "type": column.sql_type.value,
        "primary_key": column.primary_key,
        "not_null": column.not_null,
        "default": encode_value(column.default),
    }


def decode_column(entry: dict) -> Column:
    return Column(
        entry["name"],
        SqlType(entry["type"]),
        entry["primary_key"],
        entry["not_null"],
        decode_value(entry["default"]),
    )


def encode_effect(op: str, payload) -> dict:
    """One table's committed effect as a record carries it.

    ``append`` and ``replace`` hold rows; ``delta`` holds only the rows the
    commit wrote, addressed by their position in the table *before* it.
    Replay from a checkpoint applies every later record in commit order,
    so the positions are exact on any table — keyed, key-less or with
    duplicate keys — without a key → row map.
    """
    if op != "delta":
        return {"op": op, "rows": [encode_row(row) for row in payload]}
    updates, deletes, inserts = payload
    return {
        "op": op,
        "updates": [[position, encode_row(row)] for position, row in updates],
        "deletes": deletes,
        "inserts": [encode_row(row) for row in inserts],
    }


def decode_effect(effect: dict) -> tuple:
    """Inverse of :func:`encode_effect`: ``(op, payload)``."""
    op = effect["op"]
    if op != "delta":
        return op, [decode_row(row) for row in effect["rows"]]
    return op, (
        [(position, decode_row(row)) for position, row in effect["updates"]],
        effect["deletes"],
        [decode_row(row) for row in effect["inserts"]],
    )


def encode_op(op: dict) -> dict:
    """Make a logical catalog op JSON-serializable: its engine objects — a
    :class:`~repro.engine.schema.Column`, a
    :class:`~repro.engine.schema.TableSchema`, an
    :class:`~repro.engine.index.IndexDefinition` — are flattened here, so
    the staging code can hand over live objects."""
    encoded = dict(op)
    for key, value in op.items():
        if isinstance(value, Column):
            encoded[key] = encode_column(value)
        elif isinstance(value, TableSchema):
            columns = [encode_column(column) for column in value.columns]
            encoded[key] = {"name": value.name, "columns": columns}
        elif isinstance(value, IndexDefinition):
            encoded[key] = value.to_dict()
    return encoded


def decode_op(op: dict) -> dict:
    """Inverse of :func:`encode_op`: the op with engine objects, as
    :meth:`~repro.engine.database.Database.apply_commit` takes it (and
    rejects an unknown one)."""
    kind = op["op"]
    if kind == "create_table":
        columns = [decode_column(column) for column in op["schema"]["columns"]]
        return {**op, "schema": TableSchema(op["schema"]["name"], columns)}
    if kind == "add_column":
        return {**op, "column": decode_column(op["column"])}
    if kind == "create_index":
        return {**op, "definition": IndexDefinition.from_dict(op["definition"])}
    return op


def apply_record(database, record: dict) -> None:
    """Apply one commit record at its ``ts`` and advance the clock to it.

    The tables its row effects name resolve *before* its catalog ops run,
    as in the live commit (a CREATE TABLE commits no rows), so an image —
    whose ops create the tables its effects fill — applies as two records
    at one ``ts``.  Nothing pins a snapshot while records apply: each
    written table keeps only the list its last commit left.
    """
    ts = int(record["ts"])
    plans = [
        WritePlan(database.table(name), *decode_effect(effect), None)
        for name, effect in record.get("tables", {}).items()
    ]
    database.apply_commit(ts, [decode_op(op) for op in record.get("ops", ())], plans)
    for plan in plans:
        plan.table.prune_history(())
    database.transactions.advance_clock_to(ts)
