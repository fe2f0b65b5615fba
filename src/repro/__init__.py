"""repro — action-aware purpose-based access control for relational DBMSs.

A from-scratch reproduction of Colombo & Ferrari, "Efficient Enforcement of
Action-Aware Purpose-Based Access Control within Relational Database
Management Systems" (IEEE TKDE, DOI 10.1109/TKDE.2015.2411595).

Quickstart::

    from repro import Database, AccessControlManager, EnforcementMonitor
    from repro.core import Purpose, PurposeSet

    db = Database("mydb")
    db.execute("create table t(a integer, b text)")
    admin = AccessControlManager(db)
    admin.configure(purposes=PurposeSet([Purpose("p1", "research")]))
    monitor = EnforcementMonitor(admin)
    result = monitor.execute("select a from t", purpose="p1")

See :mod:`repro.workload` for the paper's running example and
:mod:`repro.bench` for the evaluation harness.
"""

from .engine import BitString, Column, Database, ResultSet, SqlType, TableSchema
from .core import (
    AccessControlManager,
    ActionType,
    Aggregation,
    CategoryRegistry,
    DataCategory,
    EnforcementMonitor,
    Indirection,
    JointAccess,
    MaskLayout,
    Multiplicity,
    Policy,
    PolicyRule,
    Purpose,
    PurposeSet,
    QuerySignature,
    SignatureDeriver,
    complies_with,
    rewrite_query,
)
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "BitString", "Column", "Database", "ResultSet", "SqlType", "TableSchema",
    "AccessControlManager", "ActionType", "Aggregation", "CategoryRegistry",
    "DataCategory", "EnforcementMonitor", "Indirection", "JointAccess",
    "MaskLayout", "Multiplicity", "Policy", "PolicyRule",
    "Purpose", "PurposeSet", "QuerySignature", "SignatureDeriver",
    "complies_with", "rewrite_query", "ReproError", "__version__",
]
