"""Per-connection Postgres session: the backend state machine.

One coroutine per accepted socket runs the whole conversation —
startup, authentication, then the query loop. Both query sub-protocols
are spoken:

* **simple** (``psql``): ``Query`` → RowDescription + DataRows +
  CommandComplete + ReadyForQuery, one round trip per statement batch;
* **extended** (``pg8000``, JDBC): Parse/Bind/Describe/Execute/Sync,
  with the standard skip-until-Sync error recovery. Parameters
  (``$1``) and binary result formats are out of scope and rejected
  with SQLSTATE ``0A000``.

On top of the engine's SQL the session recognises a small streaming
dialect (intercepted before the parser):

=============================================  =======================
``REGISTER CONTINUOUS [QUERY] q [MODE m] AS``  register a standing
``  SELECT ...``                               query named ``q``
``UNREGISTER CONTINUOUS [QUERY] q``            remove it
``TAIL q [BATCHES n] [ROWS n] [TIMEOUT ms]``   stream ``q``'s live
                                               results as DataRows
``SHOW STREAMS`` / ``SHOW QUERIES``            catalog introspection
``BEGIN``/``COMMIT``/``ROLLBACK``/``SET ...``  accepted as no-ops (so
                                               drivers' preambles work)
=============================================  =======================

``TAIL`` is what turns a connection live: a bounded
:class:`~repro.core.emitter.QueueSink` is attached to the standing
query's emitter — the *same* delivery path a framed-protocol
subscriber uses — and its waker parks the coroutine on an
``asyncio.Event``, so an idle tail costs no CPU. A tail ends at its
BATCHES/ROWS/TIMEOUT bound (then ``CommandComplete``), on cancel
(``57014``), or by eviction when the client cannot keep up
(``55000``).

Engine calls run on a worker thread (never on the I/O loop) under the
server's execution lock, which serializes pg statements against each
other; concurrency with the scheduler thread follows the same rules as
every other engine client.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.emitter import QueueSink
from repro.core.factory import EXECUTION_MODES
from repro.errors import (BindError, CatalogError, DataCellError,
                          LexerError, NetError, ParseError, ReplayGap,
                          StoreError, StreamError, TypeMismatchError)
from repro.pg import messages as msg
from repro.pg import protocol
from repro.sql import ast
from repro.sql.optimizer import Optimizer
from repro.sql.parser import parse_script
from repro.sql.planner import Planner
from repro.storage import types as dt

SERVER_VERSION = "13.0 (datacell-repro)"

_STARTUP_PARAMS = (
    ("server_version", SERVER_VERSION),
    ("server_encoding", "UTF8"),
    ("client_encoding", "UTF8"),
    ("DateStyle", "ISO, MDY"),
    ("TimeZone", "UTC"),
    ("integer_datetimes", "on"),
    ("standard_conforming_strings", "on"),
)


class PGError(Exception):
    """Session-level error mapped straight to an ErrorResponse."""

    def __init__(self, sqlstate: str, message: str,
                 hint: Optional[str] = None):
        super().__init__(message)
        self.sqlstate = sqlstate
        self.message = message
        self.hint = hint


def sqlstate_for(exc: BaseException) -> str:
    """Map an engine exception onto the closest SQLSTATE class."""
    if isinstance(exc, (ParseError, LexerError)):
        return "42601"  # syntax_error
    if isinstance(exc, TypeMismatchError):
        return "42804"  # datatype_mismatch
    if isinstance(exc, BindError):
        return "42703"  # undefined_column
    if isinstance(exc, CatalogError):
        return "42P01"  # undefined_table
    if isinstance(exc, (ReplayGap, StreamError, StoreError)):
        return "55000"  # object_not_in_prerequisite_state
    return "XX000"      # internal_error


def split_statements(text: str) -> List[str]:
    """Split a simple-Query string on top-level semicolons (quote
    aware); drops empty pieces."""
    parts: List[str] = []
    buf: List[str] = []
    quote: Optional[str] = None
    for ch in text:
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
            buf.append(ch)
        elif ch == ";":
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return [p for p in (part.strip() for part in parts) if p]


# -- statement classification ------------------------------------------

class Command:
    """One classified statement: either a streaming-dialect command
    (``kind`` in register/unregister/tail/show/noop) or engine SQL
    (``kind == "sql"`` with the parsed ast statement)."""

    def __init__(self, kind: str, **kw: Any):
        self.kind = kind
        self.__dict__.update(kw)


_NOOP_TAGS = {"begin": "BEGIN", "commit": "COMMIT",
              "rollback": "ROLLBACK", "abort": "ROLLBACK",
              "set": "SET", "reset": "RESET", "discard": "DISCARD"}


def classify(sql: str) -> Command:
    """Classify one statement; raises engine parse errors for SQL and
    :class:`PGError` for malformed dialect commands."""
    words = sql.split()
    head = words[0].lower() if words else ""
    if head in _NOOP_TAGS:
        return Command("noop", tag=_NOOP_TAGS[head])
    if head == "register":
        return _classify_register(sql, words)
    if head == "unregister":
        if len(words) < 3 or words[1].lower() != "continuous":
            raise PGError("42601",
                          "expected UNREGISTER CONTINUOUS [QUERY] <name>")
        rest = words[2:]
        if rest and rest[0].lower() == "query":
            rest = rest[1:]
        if len(rest) != 1:
            raise PGError("42601",
                          "expected UNREGISTER CONTINUOUS [QUERY] <name>")
        return Command("unregister", name=rest[0].lower())
    if head == "tail":
        return _classify_tail(words)
    if head == "show" and len(words) == 2 \
            and words[1].lower() in ("streams", "queries"):
        return Command("show", what=words[1].lower())
    # engine SQL: parse now so syntax errors surface at Parse time
    stmts = parse_script(sql)
    if len(stmts) != 1:
        raise PGError("42601",
                      "cannot prepare a multi-statement string")
    return Command("sql", stmt=stmts[0])


def _classify_register(sql: str, words: List[str]) -> Command:
    lowered = [w.lower() for w in words]
    if len(lowered) < 2 or lowered[1] != "continuous":
        raise PGError("42601", "expected REGISTER CONTINUOUS [QUERY] "
                               f"<name> [MODE {'|'.join(EXECUTION_MODES)}]"
                               " AS <select>")
    idx = 2
    if idx < len(lowered) and lowered[idx] == "query":
        idx += 1
    if idx >= len(lowered):
        raise PGError("42601", "REGISTER CONTINUOUS: missing name")
    name = words[idx].lower()
    idx += 1
    mode = "auto"
    if idx + 1 < len(lowered) and lowered[idx] == "mode":
        mode = lowered[idx + 1]
        idx += 2
    if idx >= len(lowered) or lowered[idx] != "as":
        raise PGError("42601", "REGISTER CONTINUOUS: missing AS "
                               "<select>")
    # the SELECT body is everything after this AS, original casing
    body = _text_after_keyword(sql, words, idx)
    if not body.strip():
        raise PGError("42601", "REGISTER CONTINUOUS: empty query body")
    return Command("register", name=name, mode=mode, query=body)


def _text_after_keyword(sql: str, words: List[str], idx: int) -> str:
    """The original text following the *idx*-th whitespace token."""
    pos = 0
    for i in range(idx + 1):
        pos = sql.lower().index(words[i].lower(), pos) + len(words[i])
    return sql[pos:]


def _classify_tail(words: List[str]) -> Command:
    if len(words) < 2:
        raise PGError("42601", "expected TAIL <query> [BATCHES n] "
                               "[ROWS n] [TIMEOUT ms]")
    name = words[1].lower()
    bounds = {"batches": None, "rows": None, "timeout": None}
    rest = [w.lower() for w in words[2:]]
    i = 0
    while i < len(rest):
        key = rest[i]
        if key not in bounds or i + 1 >= len(rest):
            raise PGError("42601", f"TAIL: unexpected token {key!r}")
        try:
            value = int(rest[i + 1])
        except ValueError:
            raise PGError("42601",
                          f"TAIL: {key.upper()} needs an integer, got "
                          f"{rest[i + 1]!r}") from None
        if value < 1:
            raise PGError("42601", f"TAIL: {key.upper()} must be >= 1")
        bounds[key] = value
        i += 2
    return Command("tail", name=name, batches=bounds["batches"],
                   rows=bounds["rows"], timeout_ms=bounds["timeout"])


class _Prepared:
    __slots__ = ("sql", "command")

    def __init__(self, sql: str, command: Command):
        self.sql = sql
        self.command = command


class PGSession:
    """One client connection's backend half (loop-thread owned)."""

    def __init__(self, server, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, cid: int,
                 secret: int):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.cid = cid          # doubles as the cancel-key "pid"
        self.secret = secret
        peer = writer.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) \
            else str(peer)
        self.user = ""
        self.database = ""
        self.closed = False
        self.queries = 0        # statements executed
        self.rows_sent = 0
        self.tails = 0
        self.errors = 0
        self.tailing: Optional[str] = None  # live-tail query name
        self.task: Optional[asyncio.Task] = None  # the run() task
        self._cancel = asyncio.Event()
        self._stmts: Dict[str, _Prepared] = {}
        self._portals: Dict[str, _Prepared] = {}
        self._skip_until_sync = False

    # -- plumbing ------------------------------------------------------

    def _w(self, data: bytes) -> None:
        self.writer.write(data)

    async def _flush(self) -> None:
        try:
            await self.writer.drain()
        except (ConnectionError, OSError, RuntimeError) as exc:
            raise NetError(f"send failed: {exc}", code="io") from exc

    def cancel(self) -> None:
        """Request cancellation of the in-flight statement (threadsafe
        only via the I/O loop)."""
        self._cancel.set()

    async def _exec_engine(self, fn, *args) -> Any:
        """Run an engine call on a worker thread under the server's
        statement lock."""
        loop = asyncio.get_running_loop()

        def call():
            with self.server.exec_lock:
                return fn(*args)

        return await loop.run_in_executor(None, call)

    # -- conversation --------------------------------------------------

    async def run(self) -> None:
        """The whole conversation; returns when the client leaves."""
        startup = await protocol.read_startup(self.reader, self.writer)
        if startup is None:
            return
        if startup.kind == "cancel":
            # a cancel connection carries no queries: signal and drop
            self.server.cancel_request(startup.pid, startup.secret)
            return
        self.user = startup.params.get("user", "")
        self.database = startup.params.get("database", self.user)
        self._w(msg.authentication_ok())
        for name, value in _STARTUP_PARAMS:
            self._w(msg.parameter_status(name, value))
        self._w(msg.backend_key_data(self.cid, self.secret))
        self._w(msg.ready_for_query())
        await self._flush()
        while True:
            frame = await protocol.read_message(self.reader)
            if frame is None:
                return
            mtype, payload = frame
            if mtype == msg.TERMINATE:
                return
            if self._skip_until_sync and mtype != msg.SYNC:
                continue
            await self._dispatch(mtype, payload)

    async def _dispatch(self, mtype: bytes, payload: bytes) -> None:
        if mtype == msg.QUERY:
            await self._on_query(payload)
        elif mtype == msg.PARSE:
            await self._guarded(self._on_parse, payload)
        elif mtype == msg.BIND:
            await self._guarded(self._on_bind, payload)
        elif mtype == msg.DESCRIBE:
            await self._guarded(self._on_describe, payload)
        elif mtype == msg.EXECUTE:
            await self._guarded(self._on_execute, payload)
        elif mtype == msg.CLOSE:
            await self._guarded(self._on_close, payload)
        elif mtype == msg.SYNC:
            self._skip_until_sync = False
            self._w(msg.ready_for_query())
            await self._flush()
        elif mtype == msg.FLUSH:
            await self._flush()
        else:
            self._error(PGError(
                "0A000", f"unsupported frontend message "
                         f"{mtype.decode('ascii', 'replace')!r}"))
            self._skip_until_sync = True
            await self._flush()

    async def _guarded(self, handler, payload: bytes) -> None:
        """Extended-protocol step with skip-until-Sync error
        recovery."""
        try:
            await handler(payload)
        except PGError as exc:
            self._error(exc)
            self._skip_until_sync = True
            await self._flush()
        except DataCellError as exc:
            self._error(PGError(sqlstate_for(exc), str(exc)))
            self._skip_until_sync = True
            await self._flush()

    # -- simple query --------------------------------------------------

    async def _on_query(self, payload: bytes) -> None:
        sql, _ = msg.read_cstr(payload, 0)
        statements = split_statements(sql)
        if not statements:
            self._w(msg.empty_query_response())
            self._w(msg.ready_for_query())
            await self._flush()
            return
        for statement in statements:
            try:
                command = classify(statement)
                await self._run_command(command, describe=True)
            except PGError as exc:
                self._error(exc)
                break
            except DataCellError as exc:
                self._error(PGError(sqlstate_for(exc), str(exc)))
                break
        self._w(msg.ready_for_query())
        await self._flush()

    # -- extended query ------------------------------------------------

    async def _on_parse(self, payload: bytes) -> None:
        name, sql, oids = msg.parse_parse(payload)
        if oids:
            raise PGError("0A000",
                          "parameter types are not supported",
                          hint="inline values into the SQL text")
        statements = split_statements(sql)
        if len(statements) > 1:
            raise PGError("42601",
                          "cannot prepare a multi-statement string")
        if not statements:
            command = Command("empty")
        else:
            command = classify(statements[0])
        self._stmts[name] = _Prepared(sql, command)
        self._w(msg.parse_complete())

    async def _on_bind(self, payload: bytes) -> None:
        portal, stmt_name, params, result_formats = \
            msg.parse_bind(payload)
        prepared = self._stmts.get(stmt_name)
        if prepared is None:
            raise PGError("26000",
                          f"prepared statement {stmt_name!r} does not "
                          f"exist")
        if params:
            raise PGError("0A000",
                          "bind parameters ($n) are not supported",
                          hint="inline values into the SQL text")
        if any(fmt != 0 for fmt in result_formats):
            raise PGError("0A000",
                          "binary result format is not supported")
        self._portals[portal] = prepared
        self._w(msg.bind_complete())

    async def _on_describe(self, payload: bytes) -> None:
        kind, name = msg.parse_describe(payload)
        if kind == "S":
            prepared = self._stmts.get(name)
            if prepared is None:
                raise PGError("26000",
                              f"prepared statement {name!r} does not "
                              f"exist")
            self._w(msg.parameter_description())
        else:
            prepared = self._portals.get(name)
            if prepared is None:
                raise PGError("34000",
                              f"portal {name!r} does not exist")
        columns = self._describe_columns(prepared.command)
        if columns is None:
            self._w(msg.no_data())
        else:
            self._w(msg.row_description(columns))

    async def _on_execute(self, payload: bytes) -> None:
        portal, _max_rows = msg.parse_execute(payload)
        prepared = self._portals.get(portal)
        if prepared is None:
            raise PGError("34000", f"portal {portal!r} does not exist")
        if prepared.command.kind == "empty":
            self._w(msg.empty_query_response())
            return
        # RowDescription was (optionally) sent by Describe; Execute
        # sends only the rows
        await self._run_command(prepared.command, describe=False)

    async def _on_close(self, payload: bytes) -> None:
        kind, name = msg.parse_close(payload)
        if kind == "S":
            self._stmts.pop(name, None)
        else:
            self._portals.pop(name, None)
        self._w(msg.close_complete())

    # -- execution -----------------------------------------------------

    def _describe_columns(self, command: Command
                          ) -> Optional[List[Tuple[str, dt.DataType]]]:
        """RowDescription columns without executing (``None`` = no
        result set)."""
        if command.kind == "sql":
            stmt = command.stmt
            if isinstance(stmt, (ast.SelectStmt, ast.UnionStmt)):
                engine = self.server.engine
                plan = Optimizer().optimize(
                    Planner(engine.catalog).plan(stmt))
                return list(zip(plan.schema.names, plan.schema.types))
            if isinstance(stmt, ast.ExplainStmt):
                return [("QUERY PLAN", dt.STRING)]
            return None
        if command.kind == "tail":
            query = self.server.engine.continuous_query(command.name)
            schema = query.plan.schema
            return list(zip(schema.names, schema.types))
        if command.kind == "show":
            return self._show_columns(command.what)
        return None

    async def _run_command(self, command: Command,
                           describe: bool) -> None:
        """Execute one classified statement, emitting its result
        messages (RowDescription only when *describe*)."""
        self._cancel.clear()
        self.queries += 1
        if command.kind == "noop":
            self._w(msg.command_complete(command.tag))
        elif command.kind == "register":
            await self._exec_engine(
                self.server.engine.register_continuous,
                command.query, command.name, command.mode)
            self._w(msg.command_complete("REGISTER CONTINUOUS"))
        elif command.kind == "unregister":
            await self._exec_engine(
                self.server.engine.remove_query, command.name)
            self._w(msg.command_complete("UNREGISTER CONTINUOUS"))
        elif command.kind == "show":
            self._send_show(command.what, describe)
        elif command.kind == "tail":
            await self._run_tail(command, describe)
        else:
            await self._run_sql(command.stmt, describe)

    async def _run_sql(self, stmt: ast.Statement,
                       describe: bool) -> None:
        engine = self.server.engine
        result = await self._exec_engine(engine.execute_statement, stmt)
        if isinstance(stmt, (ast.SelectStmt, ast.UnionStmt)):
            rows = result.to_rows()
            if describe:
                self._w(msg.row_description(
                    [(c.name, c.dtype)
                     for c in result.schema().columns]))
            for row in rows:
                self._w(msg.data_row(row))
            self.rows_sent += len(rows)
            self._w(msg.command_complete(f"SELECT {len(rows)}"))
        elif isinstance(stmt, ast.ExplainStmt):
            lines = str(result).splitlines()
            if describe:
                self._w(msg.row_description(
                    [("QUERY PLAN", dt.STRING)]))
            for line in lines:
                self._w(msg.data_row((line,)))
            self.rows_sent += len(lines)
            self._w(msg.command_complete("EXPLAIN"))
        elif isinstance(stmt, ast.InsertStmt):
            self._w(msg.command_complete(f"INSERT 0 {int(result)}"))
        elif isinstance(stmt, ast.DeleteStmt):
            self._w(msg.command_complete(f"DELETE {int(result)}"))
        elif isinstance(stmt, ast.UpdateStmt):
            self._w(msg.command_complete(f"UPDATE {int(result)}"))
        else:
            # DDL returns "CREATE STREAM s" etc.; the tag is the verb
            words = str(result).split()
            self._w(msg.command_complete(" ".join(words[:2]).upper()))

    # -- SHOW ----------------------------------------------------------

    @staticmethod
    def _show_columns(what: str) -> List[Tuple[str, dt.DataType]]:
        if what == "streams":
            return [("name", dt.STRING), ("columns", dt.STRING),
                    ("rows", dt.INT)]
        return [("name", dt.STRING), ("mode", dt.STRING),
                ("sql", dt.STRING)]

    def _send_show(self, what: str, describe: bool) -> None:
        engine = self.server.engine
        if describe:
            self._w(msg.row_description(self._show_columns(what)))
        count = 0
        if what == "streams":
            for stream in engine.catalog.streams():
                basket = engine.basket(stream.name)
                rendered = ", ".join(
                    f"{c.name} {c.dtype.name}"
                    for c in stream.schema.columns)
                self._w(msg.data_row(
                    (stream.name, rendered, basket.next_oid)))
                count += 1
        else:
            for query in engine.queries():
                self._w(msg.data_row(
                    (query.name, query.mode, query.sql_text)))
                count += 1
        self.rows_sent += count
        self._w(msg.command_complete(f"SHOW {count}"))

    # -- TAIL: the live edge -------------------------------------------

    async def _run_tail(self, command: Command, describe: bool) -> None:
        engine = self.server.engine
        query = engine.continuous_query(command.name)  # StreamError ↦ 55000
        schema = query.plan.schema
        sink = QueueSink(f"pg{self.cid}:{command.name}",
                         max_batches=self.server.max_client_queue)
        event = asyncio.Event()
        sink.set_waker(
            lambda: self.server.io.call_soon(event.set))
        query.emitter.add_sink(sink)
        self.tails += 1
        self.tailing = command.name
        deadline = None if command.timeout_ms is None \
            else time.monotonic() + command.timeout_ms / 1000.0
        batches = 0
        rows = 0
        if describe:
            self._w(msg.row_description(
                list(zip(schema.names, schema.types))))
        try:
            while True:
                event.clear()
                while True:
                    item = sink.get_nowait()
                    if item is None:
                        break
                    _seq, _now, rel = item
                    for row in rel.to_rows():
                        self._w(msg.data_row(row))
                        rows += 1
                        if command.rows is not None \
                                and rows >= command.rows:
                            break
                    batches += 1
                    await self._flush()
                    if self._bounded(command, batches, rows):
                        break
                if self._bounded(command, batches, rows):
                    break
                if self._cancel.is_set():
                    raise PGError(
                        "57014",
                        "canceling statement due to user request")
                if sink.evicted and sink.drained():
                    raise PGError(
                        "55000",
                        f"tail of {command.name!r} fell behind; "
                        f"delivery queue overflowed "
                        f"({sink.dropped_batches} batches dropped)")
                if self.reader.at_eof():
                    raise NetError("client went away mid-tail",
                                   code="io")
                timeout = None
                if deadline is not None:
                    timeout = deadline - time.monotonic()
                    if timeout <= 0:
                        break
                # cap the park so disconnects and cancels are noticed
                # even on a silent queue
                wait_s = 0.25 if timeout is None \
                    else min(timeout, 0.25)
                try:
                    await asyncio.wait_for(event.wait(), wait_s)
                except asyncio.TimeoutError:
                    pass
            self.rows_sent += rows
            self._w(msg.command_complete(f"TAIL {rows}"))
        finally:
            self.tailing = None
            sink.set_waker(None)
            query.emitter.remove_sink(sink)

    @staticmethod
    def _bounded(command: Command, batches: int, rows: int) -> bool:
        if command.batches is not None and batches >= command.batches:
            return True
        return command.rows is not None and rows >= command.rows

    # -- errors / stats ------------------------------------------------

    def _error(self, exc: PGError) -> None:
        self.errors += 1
        self._w(msg.error_response(exc.sqlstate, exc.message,
                                   hint=exc.hint))

    def stats(self) -> Dict[str, Any]:
        return {"id": self.cid, "peer": self.peer, "user": self.user,
                "database": self.database, "queries": self.queries,
                "rows_sent": self.rows_sent, "tails": self.tails,
                "tailing": self.tailing, "errors": self.errors}
