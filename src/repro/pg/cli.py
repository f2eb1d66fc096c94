"""Standalone Postgres front end: ``python -m repro.pg.cli``.

Boots an engine (optionally from a shell script that creates streams
and registers standing queries), then serves *only* the Postgres wire
protocol — no framed listener — driving the scheduler itself::

    python -m repro.pg.cli --port 5433 --script init.sql
    psql -h 127.0.0.1 -p 5433 -c "SHOW STREAMS"

For both front ends on one engine use ``repro serve --pg-port``
(:mod:`repro.net.cli`), which shares a single I/O loop between them.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import IO, List, Optional

from repro.errors import DataCellError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pg", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=5433,
                        help="0 binds an ephemeral port")
    parser.add_argument("--script", default=None,
                        help="shell script (SQL + dot-commands) run "
                             "against the engine before serving")
    parser.add_argument("--client-queue", type=int, default=256,
                        help="delivery queue bound (batches per TAIL)")
    parser.add_argument("--duration", type=float, default=None,
                        help="serve for N seconds, then exit "
                             "(default: until interrupted)")
    parser.add_argument("--port-file", default=None,
                        help="write the bound port here")
    parser.add_argument("--data-dir", default=None,
                        help="durable stream-log directory")
    parser.add_argument("--durability", default="async",
                        choices=("off", "async", "fsync"))
    return parser


def main(argv: Optional[List[str]] = None,
         out: Optional[IO] = None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        return _serve(args, out)
    except (DataCellError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def _serve(args, out: IO) -> int:
    from repro.cli import DataCellShell
    from repro.core.clock import WallClock
    from repro.core.engine import DataCellEngine
    from repro.pg.server import PGWireServer

    engine = DataCellEngine(clock=WallClock(),
                            data_dir=args.data_dir,
                            durability=args.durability)
    if args.script:
        shell = DataCellShell(engine=engine, out=out)
        with open(args.script) as f:
            shell.run(f, interactive=False)
    server = PGWireServer(engine, host=args.host, port=args.port,
                          max_client_queue=args.client_queue,
                          drive_scheduler=True)
    server.start()
    out.write(f"postgres front end listening on "
              f"{server.host}:{server.port} "
              f"(psql -h {server.host} -p {server.port}; "
              f"{len(engine.queries())} standing queries)\n")
    out.flush()
    if args.port_file:
        with open(args.port_file, "w") as f:
            f.write(str(server.port))
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
    stats = server.pg_stats()
    out.write(f"served {stats['connections_total']} connections: "
              f"queries={stats['queries']} rows={stats['rows_sent']} "
              f"tails={stats['tails']}\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
