"""The network-edge CLI trio: ``repro serve`` / ``send`` / ``tail``.

``serve`` boots an engine (optionally from a shell script that creates
streams and ``.register``\\ s standing queries) and runs a
:class:`~repro.net.server.DataCellServer` until interrupted; with
``--pg-port`` the same host also speaks the Postgres wire protocol::

    repro serve --port 9001 --script init.sql
    repro serve --pg-port 5433      # psql -h 127.0.0.1 -p 5433

``send`` is a stream producer: rows read from a file or stdin, one
comma-separated tuple per line (SQL-ish literals, as in the shell's
``.feed``), shipped in batches::

    repro send sensors --port 9001 --batch 64 < rows.txt

``tail`` subscribes to a standing query — or, with ``--stream``/
``--from``, to a raw stream with historical replay — and prints result
batches as they arrive::

    repro tail hot_rooms --port 9001 --count 10
    repro tail sensors --stream --from start --reconnect

``--from N`` replays durable history from offset N (``start`` = 0)
before live tuples; ``--reconnect`` retries a lost connection with
exponential backoff, resuming from the last delivered offset.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import IO, List, Optional

from repro.errors import DataCellError, NetError
from repro.net.client import DataCellClient
from repro.net.server import DataCellServer
from repro.sql.lexer import literal_row
from repro.store import DURABILITY_MODES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a DataCell server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9001,
                       help="0 binds an ephemeral port")
    serve.add_argument("--script", default=None,
                       help="shell script (SQL + dot-commands) run "
                            "against the engine before serving")
    serve.add_argument("--admission", choices=("block", "shed"),
                       default="block",
                       help="producer backpressure policy")
    serve.add_argument("--pending", type=int, default=64,
                       help="admission queue bound (batches/producer)")
    serve.add_argument("--client-queue", type=int, default=256,
                       help="batches each standing query keeps, and "
                            "how far a subscriber may lag before it is "
                            "evicted")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for N seconds, then exit "
                            "(default: until interrupted)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port here (scripting aid)")
    serve.add_argument("--pg-port", type=int, default=None,
                       help="also listen for PostgreSQL clients on "
                            "this port (0 binds an ephemeral port; "
                            "5433 is the conventional choice) — psql, "
                            "pg8000 and friends can then connect")
    serve.add_argument("--pg-host", default=None,
                       help="bind address for the Postgres listener "
                            "(default: --host)")
    serve.add_argument("--pg-port-file", default=None,
                       help="write the bound Postgres port here")
    serve.add_argument("--data-dir", default=None,
                       help="durable stream-log directory; reopening "
                            "an existing one recovers streams, "
                            "queries and cursors")
    serve.add_argument("--durability", default="async",
                       choices=DURABILITY_MODES,
                       help="log write discipline (with --data-dir)")
    serve.add_argument("--segment-rows", type=int, default=4096,
                       help="rows per log segment file")
    serve.add_argument("--checkpoint-interval", type=float, default=2.0,
                       help="seconds between periodic checkpoints")
    serve.add_argument("--retain-ms", type=int, default=None,
                       help="drop sealed log segments whose newest "
                            "tuple is older than this many ms "
                            "(retention by age)")
    serve.add_argument("--retain-bytes", type=int, default=None,
                       help="drop oldest sealed log segments once a "
                            "stream's log exceeds this many bytes "
                            "(retention by size)")

    send = sub.add_parser("send", help="ingest rows into a stream")
    send.add_argument("stream")
    send.add_argument("--host", default="127.0.0.1")
    send.add_argument("--port", type=int, default=9001)
    send.add_argument("--file", default=None,
                      help="rows file (default: stdin), one "
                           "comma-separated tuple per line")
    send.add_argument("--batch", type=int, default=64,
                      help="rows per INGEST frame")

    tail = sub.add_parser("tail", help="follow a standing query or "
                                       "a raw stream")
    tail.add_argument("query", help="query name (or stream name with "
                                    "--stream / --from)")
    tail.add_argument("--host", default="127.0.0.1")
    tail.add_argument("--port", type=int, default=9001)
    tail.add_argument("--count", type=int, default=None,
                      help="stop after N batches (default: forever)")
    tail.add_argument("--timeout", type=float, default=None,
                      help="stop after N idle seconds")
    tail.add_argument("--stream", action="store_true",
                      help="subscribe to a raw stream instead of a "
                           "standing query")
    tail.add_argument("--from", dest="from_offset", default=None,
                      help="replay the stream's durable history from "
                           "this offset ('start' = 0); implies "
                           "--stream")
    tail.add_argument("--reconnect", action="store_true",
                      help="retry lost connections with exponential "
                           "backoff, resuming from the last "
                           "delivered offset")
    tail.add_argument("--max-retries", type=int, default=8,
                      help="reconnect attempts before giving up")
    return parser


def _cmd_serve(args, out: IO) -> int:
    from repro.cli import DataCellShell
    from repro.core.clock import WallClock
    from repro.core.engine import DataCellEngine

    engine = DataCellEngine(clock=WallClock(),
                            data_dir=args.data_dir,
                            durability=args.durability,
                            segment_rows=args.segment_rows,
                            checkpoint_interval_s=args.checkpoint_interval,
                            retain_ms=args.retain_ms,
                            retain_bytes=args.retain_bytes)
    if engine.recovered:
        recovered = engine.log_stats()
        out.write(f"recovered {len(recovered['streams'])} stream "
                  f"log(s) and {len(engine.queries())} standing "
                  f"quer(ies) from {args.data_dir}\n")
    if args.script:
        shell = DataCellShell(engine=engine, out=out)
        with open(args.script) as f:
            shell.run(f, interactive=False)
    server = DataCellServer(
        engine, host=args.host, port=args.port,
        pg_port=args.pg_port, pg_host=args.pg_host,
        admission=args.admission,
        max_pending_batches=args.pending,
        max_client_queue=args.client_queue)
    server.start()
    out.write(f"datacell server listening on "
              f"{server.host}:{server.port} "
              f"(admission={server.admission}, "
              f"{len(engine.queries())} standing queries)\n")
    if server.pg is not None:
        out.write(f"postgres front end listening on "
                  f"{server.pg_host}:{server.pg_port} "
                  f"(psql -h {server.pg_host} -p {server.pg_port})\n")
    out.flush()
    if args.port_file:
        with open(args.port_file, "w") as f:
            f.write(str(server.port))
    if args.pg_port_file and server.pg is not None:
        with open(args.pg_port_file, "w") as f:
            f.write(str(server.pg_port))
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:  # pragma: no cover - interactive path
            while True:
                time.sleep(0.5)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.stop()
        engine.close()
    stats = server.net_stats()["totals"]
    out.write(f"served {server.connections_total} connections: "
              f"ingested={stats['ingested']} shed={stats['shed']} "
              f"delivered={stats['delivered_rows']} rows\n")
    if server.pg is not None:
        pstats = server.pg.pg_stats()
        out.write(f"postgres front end served "
                  f"{pstats['connections_total']} connections: "
                  f"queries={pstats['queries']} "
                  f"rows={pstats['rows_sent']} "
                  f"tails={pstats['tails']}\n")
    return 0


def _read_rows(source: IO) -> List[List]:
    rows = []
    for line in source:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(literal_row(line))
    return rows


def _cmd_send(args, out: IO) -> int:
    if args.file:
        with open(args.file) as f:
            rows = _read_rows(f)
    else:
        rows = _read_rows(sys.stdin)
    accepted = shed = 0
    start = time.perf_counter()
    with DataCellClient(args.host, port=args.port,
                        client_name="repro-send") as client:
        for i in range(0, len(rows), max(args.batch, 1)):
            batch = rows[i:i + args.batch]
            try:
                accepted += client.ingest(args.stream, batch, seq=i)
            except NetError as exc:
                if exc.code != "shed":
                    raise
                shed += len(batch)
    elapsed = time.perf_counter() - start
    rate = accepted / elapsed if elapsed > 0 else 0.0
    out.write(f"sent {accepted} rows to {args.stream!r} "
              f"({shed} shed) in {elapsed:.3f}s "
              f"[{rate:,.0f} rows/s]\n")
    return 0 if shed == 0 else 3


def _backoff_s(attempt: int) -> float:
    """Exponential reconnect backoff: 0.2s, 0.4s, ... capped at 5s."""
    return min(0.2 * (2 ** attempt), 5.0)


def _parse_from(value) -> Optional[int]:
    if value is None:
        return None
    if str(value).lower() == "start":
        return 0
    return int(value)


def _print_batch(batch, out: IO) -> None:
    if batch.stream is not None:
        span = f" [{batch.offset},{batch.end})" \
            + (" replay" if batch.replay else "")
    else:
        span = ""
    out.write(f"-- t={batch.t}ms seq={batch.seq} "
              f"({batch.row_count} rows){span}\n")
    for row in batch.rows:
        out.write("  " + ", ".join(
            "NULL" if v is None else str(v) for v in row) + "\n")


def _cmd_tail(args, out: IO, connect_factory=None) -> int:
    """``connect_factory`` (tests) overrides client construction so
    reconnect behavior is drivable without real socket failures."""
    connect = connect_factory or (lambda: DataCellClient(
        args.host, port=args.port, client_name="repro-tail"))
    is_stream = bool(args.stream or args.from_offset is not None)
    resume = _parse_from(args.from_offset)
    seen = 0
    attempt = 0
    try:
        while args.count is None or seen < args.count:
            try:
                client = connect()
            except NetError as exc:
                if not args.reconnect or attempt >= args.max_retries:
                    raise
                attempt += 1
                out.write(f"connect failed ({exc}); retry "
                          f"{attempt}/{args.max_retries} in "
                          f"{_backoff_s(attempt - 1):.1f}s\n")
                out.flush()
                time.sleep(_backoff_s(attempt - 1))
                continue
            try:
                if is_stream:
                    columns = client.subscribe_stream(
                        args.query, from_offset=resume)
                    out.write(f"subscribed to stream {args.query!r} "
                              f"({', '.join(columns)}) from offset "
                              f"{client.stream_offsets[args.query.lower()]}\n")
                else:
                    columns = client.subscribe(args.query)
                    out.write(f"subscribed to {args.query!r} "
                              f"({', '.join(columns)})\n")
                out.flush()
                attempt = 0
                idle_deadline = (time.monotonic() + args.timeout
                                 if args.timeout is not None else None)
                while args.count is None or seen < args.count:
                    batches = client.results(max_batches=1,
                                             timeout=0.5)
                    if not batches:
                        if client.closed \
                                or client.last_error is not None:
                            break
                        if idle_deadline is not None \
                                and time.monotonic() > idle_deadline:
                            return 0
                        continue
                    if args.timeout is not None:
                        idle_deadline = time.monotonic() + args.timeout
                    for batch in batches:
                        seen += 1
                        _print_batch(batch, out)
                        if batch.stream is not None \
                                and batch.end is not None:
                            # next reconnect resumes after the last
                            # delivered tuple — no gap, no duplicate
                            resume = int(batch.end)
                    out.flush()
                if client.last_error is not None:
                    out.write(f"server: {client.last_error} "
                              f"[{client.last_error.code}]\n")
            except NetError as exc:
                client.close()
                if not (args.reconnect and is_stream):
                    raise
                out.write(f"connection lost ({exc})\n")
                continue
            client.close()
            if args.count is not None and seen < args.count \
                    and args.reconnect and is_stream:
                # server went away mid-tail; back off and resume
                if attempt >= args.max_retries:
                    break
                attempt += 1
                time.sleep(_backoff_s(attempt - 1))
                continue
            break
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    return 0


def main(argv: Optional[List[str]] = None,
         out: Optional[IO] = None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "send":
            return _cmd_send(args, out)
        return _cmd_tail(args, out)
    except (DataCellError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
