"""Tests for the interactive DataCell shell."""

import io


from repro.cli import DataCellShell


def run_shell(script: str) -> str:
    out = io.StringIO()
    shell = DataCellShell(out=out)
    shell.run(io.StringIO(script), interactive=False)
    return out.getvalue()


class TestSQLExecution:
    def test_ddl_and_select(self):
        out = run_shell(
            "CREATE TABLE t (a INT);\n"
            "INSERT INTO t VALUES (1), (2);\n"
            "SELECT a FROM t ORDER BY a DESC;\n")
        assert "CREATE TABLE t" in out
        assert "(2 rows)" in out
        assert "| 2 |" in out

    def test_multiline_statement(self):
        out = run_shell(
            "CREATE TABLE t (a INT);\n"
            "SELECT a\n"
            "FROM t;\n")
        assert "(0 rows)" in out

    def test_sql_error_reported_not_fatal(self):
        out = run_shell(
            "SELECT nope FROM nowhere;\n"
            "CREATE TABLE t (a INT);\n")
        assert "error:" in out
        assert "CREATE TABLE t" in out


class TestDotCommands:
    def test_unknown_command(self):
        out = run_shell(".bogus\n")
        assert "unknown command" in out

    def test_help(self):
        assert ".register" in run_shell(".help\n")

    def test_quit_stops(self):
        out = run_shell(".quit\nCREATE TABLE t (a INT);\n")
        assert "CREATE TABLE" not in out

    def test_register_feed_results(self):
        out = run_shell(
            "CREATE STREAM s (k INT, v FLOAT);\n"
            ".register alerts SELECT k, v FROM s WHERE v > 10;\n"
            ".feed s 1, 20.5\n"
            ".feed s 2, 3.0\n"
            ".results alerts 2\n")
        assert "registered 'alerts'" in out
        assert "20.5" in out          # first batch passed the filter
        assert "3.0" not in out       # second tuple filtered out

    def test_register_with_mode(self):
        out = run_shell(
            "CREATE STREAM s (k INT);\n"
            ".register q reeval SELECT k FROM s;\n")
        assert "(reeval mode)" in out

    def test_register_usage_error(self):
        assert "usage:" in run_shell(".register onlyname\n")

    def test_queries_listing(self):
        out = run_shell(
            "CREATE STREAM s (k INT);\n"
            ".register q SELECT k FROM s;\n"
            ".queries\n")
        assert "q [reeval]" in out

    def test_remove(self):
        out = run_shell(
            "CREATE STREAM s (k INT);\n"
            ".register q SELECT k FROM s;\n"
            ".remove q\n"
            ".queries\n")
        assert "removed 'q'" in out
        assert "(no standing queries)" in out

    def test_pause_resume_query(self):
        out = run_shell(
            "CREATE STREAM s (k INT);\n"
            ".register q SELECT k FROM s;\n"
            ".pause q\n"
            ".feed s 7\n"
            ".results q\n"
            ".resume q\n"
            ".step\n"
            ".results q\n")
        assert "paused 'q'" in out
        first, second = out.split("resumed 'q'")
        assert "(no results yet)" in first
        assert "| 7 |" in second

    def test_pause_stream(self):
        out = run_shell(
            "CREATE STREAM s (k INT);\n"
            ".pause s\n")
        assert "paused 's'" in out

    def test_network_and_analysis(self):
        out = run_shell(
            "CREATE STREAM s (k INT);\n"
            ".register q SELECT k FROM s;\n"
            ".network\n"
            ".analysis\n")
        assert "query network" in out
        assert "network totals" in out

    def test_explain(self):
        out = run_shell(
            "CREATE STREAM s (k INT);\n"
            ".explain SELECT k FROM s [RANGE 4];\n")
        assert "StreamScan" in out

    def test_run_advances_clock(self):
        out = run_shell(
            "CREATE STREAM s (k INT);\n"
            ".run 500\n")
        assert "ran 500ms" in out

    def test_feed_parses_literals(self):
        out = run_shell(
            "CREATE STREAM s (k INT, name VARCHAR(8), v FLOAT);\n"
            ".register q SELECT k, name, v FROM s;\n"
            ".feed s 1, 'abc', null\n"
            ".results q\n")
        assert "abc" in out
        assert "NULL" in out

    def test_sample(self):
        out = run_shell("CREATE STREAM s (k INT);\n.sample\n")
        assert "1 samples" in out


class TestScriptMode:
    def test_main_runs_script(self, tmp_path):
        from repro.cli import main

        script = tmp_path / "script.sql"
        script.write_text(
            "CREATE TABLE t (a INT);\n"
            "INSERT INTO t VALUES (42);\n"
            "SELECT a FROM t;\n")
        assert main([str(script)]) == 0


class TestExplainStatement:
    def test_sql_level_explain(self):
        out = run_shell(
            "CREATE STREAM s (k INT);\n"
            "EXPLAIN SELECT k FROM s [RANGE 4];\n")
        assert "StreamScan" in out and "sql.resultSet" in out

    def test_explain_requires_select(self):
        out = run_shell("EXPLAIN CREATE TABLE t (a INT);\n")
        assert "error:" in out


class TestIntermediatesCommand:
    def test_intermediates_pane(self):
        out = run_shell(
            "CREATE STREAM s (k INT, v FLOAT);\n"
            ".register q incremental SELECT k, sum(v) FROM s "
            "[RANGE 4 SLIDE 2] GROUP BY k;\n"
            ".feed s 1, 1.0\n"
            ".feed s 1, 2.0\n"
            ".intermediates q\n")
        assert "partial states" in out

    def test_intermediates_usage(self):
        assert "usage:" in run_shell(".intermediates\n")


