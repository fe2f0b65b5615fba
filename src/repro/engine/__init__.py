"""In-memory relational engine.

This package is the substrate standing in for PostgreSQL in the paper's
evaluation: a catalog of heap tables, a SQL executor with hash joins,
grouping/aggregation, subqueries and three-valued logic, a ``BIT VARYING``
value type for policy masks, and a UDF registry whose invocations each
execution charges to its own cost ledger (used to measure the number of
``compliesWith`` calls, Figure 6).
"""

from . import persist
from .batch import DEFAULT_BATCH_SIZE, ColumnBatch, resolve_batch_size
from .catalog import Catalog, CatalogEntry, CatalogOp
from .database import Database, PreparedQuery, bind_parameters
from .functions import FunctionRegistry, MemoizedFunction
from .mvcc import (
    Snapshot,
    Transaction,
    TransactionManager,
    current_transaction,
    txn_scope,
)
from .index import (
    INDEX_KINDS,
    BTreeIndex,
    HashIndex,
    IndexDefinition,
    IndexManager,
)
from .plan import (
    BASELINE_PASSES,
    FULL_PASSES,
    PolicyBitmapCache,
    resolve_optimizer_mode,
)
from .result import ResultSet
from .schema import Column, TableSchema
from .table import Table
from .types import BitString, SqlType

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ColumnBatch",
    "resolve_batch_size",
    "Database",
    "PreparedQuery",
    "bind_parameters",
    "persist",
    "FunctionRegistry",
    "MemoizedFunction",
    "INDEX_KINDS",
    "BTreeIndex",
    "HashIndex",
    "IndexDefinition",
    "IndexManager",
    "BASELINE_PASSES",
    "FULL_PASSES",
    "PolicyBitmapCache",
    "resolve_optimizer_mode",
    "ResultSet",
    "Column",
    "TableSchema",
    "Table",
    "BitString",
    "SqlType",
    "Catalog",
    "CatalogEntry",
    "CatalogOp",
    "Snapshot",
    "Transaction",
    "TransactionManager",
    "current_transaction",
    "txn_scope",
]
