"""Schema and table-storage unit tests."""

import pytest

from repro.engine import Column, Database, SqlType, TableSchema
from repro.engine.schema import ColumnBinding, RowShape
from repro.errors import CatalogError, ExecutionError


def users_schema():
    return TableSchema(
        "users",
        [
            Column("user_id", SqlType.TEXT, primary_key=True),
            Column("watch_id", SqlType.TEXT),
            Column("age", SqlType.INTEGER),
        ],
    )


def new_table(schema=None):
    """A table created in a fresh database, as every table is."""
    return Database().create_table(schema or users_schema())


class TestTableSchema:
    def test_column_order_preserved(self):
        assert users_schema().column_names == ("user_id", "watch_id", "age")

    def test_column_index_case_insensitive(self):
        assert users_schema().column_index("WATCH_ID") == 1

    def test_unknown_column_raises(self):
        with pytest.raises(CatalogError):
            users_schema().column_index("nope")

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", SqlType.TEXT), Column("A", SqlType.TEXT)])

    def test_contains(self):
        assert "age" in users_schema()
        assert "nope" not in users_schema()

    def test_with_column_appends(self):
        schema = users_schema().with_column(Column("policy", SqlType.BIT_VARYING))
        assert schema.column_names[-1] == "policy"
        assert len(schema) == 4

    def test_without_column(self):
        schema = users_schema().without_column("watch_id")
        assert schema.column_names == ("user_id", "age")

    def test_cannot_drop_last_column(self):
        schema = TableSchema("t", [Column("a", SqlType.TEXT)])
        with pytest.raises(CatalogError):
            schema.without_column("a")

    def test_empty_table_name_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("", [Column("a", SqlType.TEXT)])


class TestTableDml:
    def test_insert_full_row(self):
        table = new_table()
        table.insert_row(("u1", "w1", 30))
        assert table.rows == [("u1", "w1", 30)]

    def test_insert_with_column_subset_fills_defaults(self):
        table = new_table()
        table.insert_row(("u1",), ("user_id",))
        assert table.rows == [("u1", None, None)]

    def test_insert_wrong_arity_rejected(self):
        table = new_table()
        with pytest.raises(ExecutionError):
            table.insert_row(("u1", "w1"))

    def test_not_null_enforced(self):
        schema = TableSchema("t", [Column("a", SqlType.TEXT, not_null=True)])
        table = new_table(schema)
        with pytest.raises(ExecutionError):
            table.insert_row((None,))

    def test_update_rows(self):
        table = new_table()
        table.insert_row(("u1", "w1", 30))
        table.insert_row(("u2", "w2", 40))
        changed = table.update_rows(
            lambda row: row[2] > 35,
            lambda row: (row[0], row[1], row[2] + 1),
        )
        assert changed == 1
        assert table.rows[1][2] == 41

    def test_delete_rows(self):
        table = new_table()
        table.insert_row(("u1", "w1", 30))
        table.insert_row(("u2", "w2", 40))
        assert table.delete_rows(lambda row: row[0] == "u1") == 1
        assert len(table) == 1

    def test_truncate(self):
        table = new_table()
        table.insert_row(("u1", "w1", 30))
        table.truncate()
        assert len(table) == 0


class TestTableDdl:
    def test_add_column_backfills_default(self):
        table = new_table()
        table.insert_row(("u1", "w1", 30))
        table.add_column(Column("note", SqlType.TEXT, default="n/a"))
        assert table.rows == [("u1", "w1", 30, "n/a")]

    def test_drop_column_rewrites_rows(self):
        table = new_table()
        table.insert_row(("u1", "w1", 30))
        table.drop_column("watch_id")
        assert table.rows == [("u1", 30)]

    def test_column_values(self):
        table = new_table()
        table.insert_row(("u1", "w1", 30))
        table.insert_row(("u2", "w2", 40))
        assert table.column_values("age") == [30, 40]

    def test_set_column_value_all_rows(self):
        table = new_table()
        table.insert_row(("u1", "w1", 30))
        table.insert_row(("u2", "w2", 40))
        assert table.set_column_value("age", 0) == 2
        assert table.column_values("age") == [0, 0]

    def test_set_column_value_with_predicate(self):
        table = new_table()
        table.insert_row(("u1", "w1", 30))
        table.insert_row(("u2", "w2", 40))
        count = table.set_column_value(
            "age", 99, predicate=lambda row: row[0] == "u2"
        )
        assert count == 1
        assert table.column_values("age") == [30, 99]


class TestRowShape:
    def shape(self):
        return RowShape(
            [
                ColumnBinding("u", "id", 0),
                ColumnBinding("u", "x", 1),
                ColumnBinding("s", "x", 2),
            ]
        )

    def test_qualified_resolution(self):
        assert self.shape().resolve("x", "u").index == 1
        assert self.shape().resolve("x", "s").index == 2

    def test_unqualified_unique_resolution(self):
        assert self.shape().resolve("id", None).index == 0

    def test_ambiguous_reference_rejected(self):
        with pytest.raises(CatalogError):
            self.shape().resolve("x", None)

    def test_unknown_reference_rejected(self):
        with pytest.raises(CatalogError):
            self.shape().resolve("nope", None)

    def test_merge_offsets_indexes(self):
        left = RowShape([ColumnBinding("a", "c", 0)])
        right = RowShape([ColumnBinding("b", "d", 0)])
        merged = left.merged_with(right)
        assert merged.resolve("d", "b").index == 1
        assert merged.width() == 2
