"""The paper's contribution: action-aware purpose-based access control.

Public surface:

* model — :class:`DataCategory`, :class:`Purpose`, :class:`ActionType`,
  :class:`PolicyRule`, :class:`Policy` (Section 4);
* encoding — :class:`MaskLayout`, :func:`complies_with` (Section 5.3-5.4);
* derivation — :class:`QueryModel`, :class:`SignatureDeriver`,
  :class:`QuerySignature` (Section 5.2);
* enforcement — :func:`rewrite_query`, :class:`EnforcementMonitor`
  (Section 5.5), :class:`AccessControlManager` (Section 2, whose purpose
  edits and ALTER TABLE re-encode the stored masks);
* analysis — :func:`complexity_upper_bound` (Section 5.6).
"""

from .actions import ActionType, Aggregation, Indirection, JointAccess, Multiplicity
from .admin import AccessControlManager, COMPLIES_WITH, META_TABLES, POLICY_COLUMN
from .categories import (
    CategoryRegistry,
    DataCategory,
    DEFAULT_CATEGORIES,
    GENERIC,
    IDENTIFIER,
    QUASI_IDENTIFIER,
    SENSITIVE,
)
from .compliance import (
    action_complies_with_policy,
    action_complies_with_rule,
    query_complies_with_policy,
    table_signature_complies,
)
from .complexity import ComplexityEstimate, complexity_upper_bound
from .masks import MaskLayout, action_mask_length, complies_with
from .monitor import (
    CompiledEnforcedPlan,
    EnforcementMonitor,
    EnforcementReport,
    PreparedEnforcedQuery,
)
from .policy import Policy, PolicyRule, SpecialRule
from .purposes import Purpose, PurposeSet, default_purpose_set
from .query_model import QueryModel, query_id
from .rewriter import rewrite_query
from .roles import RoleManager, ROLE_TABLES
from .audit import AuditLog, AuditRecord
from .session import Session
from .signatures import (
    ActionSignature,
    QuerySignature,
    SignatureDeriver,
    TableSignature,
)

__all__ = [
    "ActionType", "Aggregation", "Indirection", "JointAccess", "Multiplicity",
    "AccessControlManager", "COMPLIES_WITH", "META_TABLES", "POLICY_COLUMN",
    "CategoryRegistry", "DataCategory", "DEFAULT_CATEGORIES",
    "GENERIC", "IDENTIFIER", "QUASI_IDENTIFIER", "SENSITIVE",
    "action_complies_with_policy", "action_complies_with_rule",
    "query_complies_with_policy", "table_signature_complies",
    "ComplexityEstimate", "complexity_upper_bound",
    "MaskLayout", "action_mask_length", "complies_with",
    "CompiledEnforcedPlan", "EnforcementMonitor", "EnforcementReport",
    "PreparedEnforcedQuery",
    "Policy", "PolicyRule", "SpecialRule",
    "Purpose", "PurposeSet", "default_purpose_set",
    "QueryModel", "query_id", "rewrite_query",
    "RoleManager", "ROLE_TABLES",
    "AuditLog", "AuditRecord", "Session",
    "ActionSignature", "QuerySignature", "SignatureDeriver", "TableSignature",
]
