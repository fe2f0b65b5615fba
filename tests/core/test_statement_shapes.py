"""One compile per statement shape: texts that differ only in lifted
equality literals share a plan, and each still looks to its caller exactly
as the literal text compiled on its own (the parsed-statement path, which
the monitor never normalizes)."""

import pytest

from repro.core import AuditLog
from repro.core.query_model import query_id
from repro.errors import ExecutionError, TypeMismatchError
from repro.obs.metrics import MetricsRegistry
from repro.sql import parse_statement, to_sql

POINT = (
    "select temperature, beats from sensed_data "
    "where watch_id = '{watch}' and timestamp = {ts}"
)


@pytest.fixture()
def monitor(policy_scenario):
    monitor = policy_scenario.monitor
    monitor.attach_audit(AuditLog(policy_scenario.database))
    monitor.attach_metrics(MetricsRegistry())
    return monitor


def parses(monitor, result):
    return monitor.metrics.counter("repro_parse_total").value(result=result)


def test_literal_siblings_compile_once(monitor):
    assert [parses(monitor, r) for r in ("text_hit", "shape_hit", "miss")] == [0, 0, 0]
    first = monitor.execute_with_report(POINT.format(watch="watch1", ts=2), "p6")
    second = monitor.execute_with_report(POINT.format(watch="watch7", ts=3), "p6")
    assert (first.cache_hit, second.cache_hit) == (False, True)
    assert (parses(monitor, "miss"), parses(monitor, "shape_hit")) == (1, 1)
    monitor.execute_with_report(POINT.format(watch="watch7", ts=3), "p6")
    assert parses(monitor, "text_hit") == 1
    info = monitor.plan_cache_info()
    assert (info["size"], info["shapes"], info["texts"]) == (1, 1, 2)


@pytest.mark.parametrize(
    "sql",
    [
        POINT.format(watch="watch4", ts=5),
        "select user_id, 3 from users u join sensed_data s "
        "on u.watch_id = s.watch_id and s.timestamp = 2 where u.user_id = 'user4'",
        "select watch_id, count(*) from sensed_data group by watch_id "
        "having watch_id = 'watch2'",
    ],
)
def test_a_shaped_text_looks_like_its_literal_compile(monitor, sql):
    literal = parse_statement(sql)  # a parsed statement is compiled as written
    monitor.execute_with_report(POINT.format(watch="watch9", ts=1), "p6")
    monitor.clear_policy_bitmaps()  # each run pays for its own guards
    expected = monitor.execute_with_report(literal, "p6")
    for _ in range(2):  # the second run is a plan-cache hit
        monitor.clear_policy_bitmaps()
        report = monitor.execute_with_report(sql, "p6")
        assert report.result.columns == expected.result.columns
        assert sorted(report.result.rows) == sorted(expected.result.rows)
        assert report.rewritten_sql == expected.rewritten_sql
        assert report.compliance_checks == expected.compliance_checks
        record = monitor.audit.records[-1]
        assert (record.query_id, record.statement) == (query_id(to_sql(literal)), sql)
    assert "$" not in report.rewritten_sql
    lines = [row[0] for row in monitor.explain(sql, "p6").rows]
    assert lines == [row[0] for row in monitor.explain(literal, "p6").rows]


def test_prepare_and_adhoc_share_the_shape(monitor):
    prepared = monitor.prepare(POINT.format(watch="watch3", ts=4), "p6")
    assert prepared.parameters == []
    assert "'watch3'" in prepared.rewritten_sql
    report = monitor.execute_with_report(POINT.format(watch="watch3", ts=4), "p6")
    assert report.cache_hit
    # The caller's text declares no placeholder: bindings are checked as
    # for any such query, and never reach the lifted literals.
    assert prepared.execute([99, 98]).rows == report.result.rows
    with pytest.raises(ExecutionError):
        prepared.execute(5)


def test_type_mismatch_raises_as_the_literal_form_does(monitor):
    sql = "select user_id from users where nutritional_profile_id = 'a'"
    errors = []
    for query in (parse_statement(sql), sql, sql.replace("'a'", "'b'")):
        with pytest.raises(TypeMismatchError) as info:
            monitor.execute(query, "p6")
        errors.append(str(info.value))
    assert len(set(errors)) == 1
