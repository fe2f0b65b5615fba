"""Prepared queries: plan once, execute many, bind parameters at run time."""

import pytest

from repro.engine import Database
from repro.errors import ExecutionError


@pytest.fixture()
def db():
    database = Database()
    database.execute("create table t (k text, v integer)")
    for row in (("a", 1), ("b", 2), ("c", 3), ("d", 4)):
        database.table("t").insert_row(row)
    return database


class TestBinding:
    def test_positional_sequence(self, db):
        prepared = db.prepare("select k from t where v > $1")
        assert len(prepared.execute([2])) == 2
        assert len(prepared.execute([0])) == 4

    def test_named_mapping(self, db):
        prepared = db.prepare("select k from t where v between :lo and :hi")
        rows = prepared.execute({"lo": 2, "hi": 3}).rows
        assert sorted(row[0] for row in rows) == ["b", "c"]

    def test_index_keyed_mapping_and_question_marks(self, db):
        prepared = db.prepare("select k from t where v = ? or v = ?")
        rows = prepared.execute({1: 1, 2: 4}).rows
        assert sorted(row[0] for row in rows) == ["a", "d"]

    def test_missing_binding_is_reported_before_execution(self, db):
        prepared = db.prepare("select k from t where v > :lo and v < :hi")
        with pytest.raises(ExecutionError, match=r":hi"):
            prepared.execute({"lo": 1})

    def test_unbound_parameter_in_adhoc_query_raises(self, db):
        with pytest.raises(ExecutionError, match=r"\$1"):
            db.query("select k from t where v > $1")

    def test_surplus_bindings_ignored(self, db):
        prepared = db.prepare("select k from t where v > $1")
        assert len(prepared.execute({1: 3, 2: 99, "unused": 0})) == 1

    def test_parameters_lists_declared_placeholders(self, db):
        prepared = db.prepare("select k from t where v > :lo and v < $2")
        assert sorted(p.placeholder for p in prepared.parameters) == ["$2", ":lo"]


class TestPlanReuse:
    def test_observes_rows_inserted_after_prepare(self, db):
        prepared = db.prepare("select count(*) from t")
        assert prepared.execute().scalar() == 4
        db.table("t").insert_row(("e", 5))
        assert prepared.execute().scalar() == 5

    def test_observes_updates_that_replace_the_row_list(self, db):
        prepared = db.prepare("select k from t where v > 10")
        assert len(prepared.execute()) == 0
        db.execute("update t set v = v + 100")
        assert len(prepared.execute()) == 4

    def test_uncorrelated_subquery_reevaluated_per_execution(self, db):
        prepared = db.prepare("select k from t where v = (select max(v) from t)")
        assert prepared.execute().rows == [("d",)]
        db.table("t").insert_row(("e", 99))
        assert prepared.execute().rows == [("e",)]

    def test_parameter_inside_subquery(self, db):
        prepared = db.prepare(
            "select k from t where v in (select v from t where v >= :cut)"
        )
        assert len(prepared.execute({"cut": 3})) == 2
        assert len(prepared.execute({"cut": 1})) == 4

    def test_set_operation_chain(self, db):
        prepared = db.prepare(
            "select k from t where v < $1 union select k from t where v > $2"
        )
        rows = prepared.execute([2, 3]).rows
        assert sorted(row[0] for row in rows) == ["a", "d"]

    def test_describe_covers_set_operation_branches(self, db):
        prepared = db.prepare("select k from t union all select k from t")
        lines = prepared.describe()
        assert lines[0] == "Union arm 1/2" and "Union arm 2/2" in lines


class TestApi:
    def test_prepare_rejects_dml(self, db):
        with pytest.raises(ExecutionError):
            db.prepare("update t set v = 0")

    def test_execute_prepared_checks_ownership(self, db):
        other = Database()
        other.execute("create table t (k text, v integer)")
        prepared = other.prepare("select k from t")
        with pytest.raises(ExecutionError):
            db.execute_prepared(prepared)

    def test_execute_prepared_front_door(self, db):
        prepared = db.prepare("select k from t where v = $1")
        assert db.execute_prepared(prepared, [3]).rows == [("c",)]
