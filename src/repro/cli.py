"""An interactive DataCell shell — the textual demo console.

The VLDB demo let the audience pose queries, watch the query network,
pause/resume components and read the analysis pane; this REPL offers
the same controls::

    python -m repro.cli              # interactive
    python -m repro.cli script.sql   # run a script, then exit

The network-edge tools live behind subcommands (see
:mod:`repro.net.cli`)::

    python -m repro.cli serve --port 9001 --script init.sql
    python -m repro.cli send sensors --port 9001 < rows.txt
    python -m repro.cli tail hot_rooms --port 9001

Plain input is SQL (terminated by ``;``). Dot-commands drive the
runtime:

=================  ====================================================
``.register``      ``.register name [mode] SELECT ...;`` standing query
``.remove q``      drop a standing query
``.pause x``       pause a query or stream        (``.resume x`` undoes)
``.feed s v,..``   push one tuple into stream ``s``
``.run ms``        advance the simulated clock, stepping the net
``.step``          one scheduler step
``.results q [n]`` last ``n`` result batches of query ``q``
``.explain x``     plan pane for a query name or SQL text
``.network``       the query-network pane (demo Fig. 3)
``.analysis``      the performance pane (demo Fig. 4)
``.net``           the network-edge pane (per-connection counters)
``.pg``            the Postgres front-end pane (per-session counters)
``.recycler``      shared-work cache counters (hits/misses/evictions,
                   chain adoptions/hits, bytes & ms saved)
``.interp``        plan-execution pane (slot-compiler counters,
                   per-opcode profile, autotuner budget trajectory)
``.log``           durability pane (per-stream log segments, durable
                   watermarks, checkpoint/recovery counters, plus a
                   ``retention`` line per stream: floor, retained
                   bytes, truncations, paged-window reads)
``.checkpoint``    force a checkpoint now (durable engines)
``.scheduler``     step/fire counters and failure totals
``.queries``       list standing queries
``.help / .quit``
=================  ====================================================
"""

from __future__ import annotations

import sys
from typing import IO, List, Optional

from repro.core.engine import DataCellEngine
from repro.core.factory import EXECUTION_MODES
from repro.errors import DataCellError
from repro.mal.relation import Relation


def parse_row_values(text: str) -> List:
    """Parse a comma-separated row of SQL-ish literals (numbers,
    ``'strings'``, ``null``/empty) into Python values. Shared by the
    shell's ``.feed`` and the ``repro send`` CLI."""
    row = []
    for cell in text.split(","):
        cell = cell.strip()
        if cell.lower() == "null" or cell == "":
            row.append(None)
        elif cell.startswith("'") and cell.endswith("'") and len(cell) > 1:
            row.append(cell[1:-1])
        else:
            try:
                row.append(int(cell))
            except ValueError:
                row.append(float(cell))
    return row


class DataCellShell:
    """Line-oriented REPL over one :class:`DataCellEngine`."""

    def __init__(self, engine: Optional[DataCellEngine] = None,
                 out: IO = sys.stdout):
        self.engine = engine if engine is not None else DataCellEngine()
        self.out = out
        self._buffer: List[str] = []
        self.done = False

    # -- output helpers ------------------------------------------------

    def _print(self, text: str = "") -> None:
        self.out.write(text + "\n")

    def _show(self, result) -> None:
        if isinstance(result, Relation):
            self._print(result.pretty())
            self._print(f"({result.row_count} rows)")
        else:
            self._print(str(result))

    # -- the loop ------------------------------------------------------

    def run(self, source: IO, interactive: bool = True) -> None:
        if interactive:
            self._print("DataCell shell — SQL ends with ';', "
                        "'.help' for commands, '.quit' to leave")
        while not self.done:
            if interactive:
                prompt = "datacell> " if not self._buffer else "     ...> "
                self.out.write(prompt)
                self.out.flush()
            line = source.readline()
            if not line:
                break
            self.handle_line(line.rstrip("\n"))

    def handle_line(self, line: str) -> None:
        stripped = line.strip()
        if not self._buffer and stripped.startswith("."):
            self._command(stripped)
            return
        if not stripped and not self._buffer:
            return
        self._buffer.append(line)
        if stripped.endswith(";"):
            sql = "\n".join(self._buffer)
            self._buffer = []
            self._run_sql(sql)

    def _run_sql(self, sql: str) -> None:
        try:
            self._show(self.engine.execute(sql))
        except DataCellError as exc:
            self._print(f"error: {exc}")

    # -- dot commands ----------------------------------------------------

    def _command(self, line: str) -> None:
        parts = line.split(None, 1)
        name = parts[0][1:].lower()
        arg = parts[1].strip() if len(parts) > 1 else ""
        handler = getattr(self, f"_cmd_{name}", None)
        if handler is None:
            self._print(f"unknown command .{name} — try .help")
            return
        try:
            handler(arg)
        except (DataCellError, ValueError) as exc:
            self._print(f"error: {exc}")

    def _cmd_help(self, arg: str) -> None:
        self._print(__doc__.split("=\n", 1)[-1] if False else __doc__)

    def _cmd_quit(self, arg: str) -> None:
        self.done = True

    def _cmd_exit(self, arg: str) -> None:
        self.done = True

    def _cmd_register(self, arg: str) -> None:
        """.register name [mode] SELECT ...;"""
        tokens = arg.split(None, 2)
        if len(tokens) >= 2 and tokens[1].lower() in EXECUTION_MODES:
            name, mode, sql = tokens[0], tokens[1].lower(), tokens[2]
        elif len(tokens) >= 2:
            name, mode = tokens[0], "auto"
            sql = arg.split(None, 1)[1]
        else:
            self._print("usage: .register <name> [mode] SELECT ...;")
            return
        query = self.engine.register_continuous(
            sql.rstrip(";"), name=name, mode=mode)
        self._print(f"registered {query.name!r} ({query.mode} mode)")

    def _cmd_remove(self, arg: str) -> None:
        self.engine.remove_query(arg)
        self._print(f"removed {arg!r}")

    def _cmd_pause(self, arg: str) -> None:
        if self.engine.catalog.is_stream(arg):
            self.engine.pause_stream(arg)
        else:
            self.engine.pause_query(arg)
        self._print(f"paused {arg!r}")

    def _cmd_resume(self, arg: str) -> None:
        if self.engine.catalog.is_stream(arg):
            self.engine.resume_stream(arg)
        else:
            self.engine.resume_query(arg)
        self._print(f"resumed {arg!r}")

    def _cmd_feed(self, arg: str) -> None:
        """.feed stream v1, v2, ... — one tuple, values parsed as SQL
        literals (numbers, 'strings', null)."""
        stream, _sep, values = arg.partition(" ")
        row = parse_row_values(values)
        n = self.engine.feed(stream, [row])
        self.engine.step()
        self._print(f"+{n} tuple into {stream!r}")

    def _cmd_run(self, arg: str) -> None:
        duration = int(arg) if arg else 1000
        totals = self.engine.run_for(duration)
        self._print(f"ran {duration}ms: {totals}")

    def _cmd_step(self, arg: str) -> None:
        advance = int(arg) if arg else 0
        self._print(str(self.engine.step(advance_ms=advance)))

    def _cmd_results(self, arg: str) -> None:
        parts = arg.split()
        if not parts:
            self._print("usage: .results <query> [n]")
            return
        name = parts[0]
        count = int(parts[1]) if len(parts) > 1 else 1
        sink = self.engine.results(name)
        batches = sink.batches[-count:]
        if not batches:
            self._print("(no results yet)")
        for now, rel in batches:
            self._print(f"-- t={now}ms")
            self._print(rel.pretty())

    def _cmd_explain(self, arg: str) -> None:
        self._print(self.engine.explain(arg.rstrip(";")))

    def _cmd_network(self, arg: str) -> None:
        self._print(self.engine.monitor.network())

    def _cmd_intermediates(self, arg: str) -> None:
        if not arg:
            self._print("usage: .intermediates <query>")
            return
        self._print(self.engine.monitor.intermediates(arg))

    def _cmd_analysis(self, arg: str) -> None:
        self._print(self.engine.monitor.analysis())

    def _cmd_net(self, arg: str) -> None:
        self._print(self.engine.monitor.net())

    def _cmd_pg(self, arg: str) -> None:
        self._print(self.engine.monitor.pg())

    def _cmd_recycler(self, arg: str) -> None:
        stats = self.engine.recycler.stats()
        state = "on" if stats["enabled"] else "off"
        self._print(f"recycler [{state}]:")
        for key in ("hits", "misses", "slice_hits", "slice_misses",
                    "chain_stamped", "chain_hits", "bytes_saved",
                    "cost_saved_ms", "evictions", "invalidations",
                    "entries", "bytes", "budget_bytes"):
            self._print(f"  {key}: {stats[key]}")
        reasons = ", ".join(f"{k}={v}" for k, v in
                            sorted(stats["eviction_reasons"].items()))
        self._print(f"  eviction_reasons: {reasons}")

    def _cmd_interp(self, arg: str) -> None:
        self._print(self.engine.monitor.interp())

    def _cmd_log(self, arg: str) -> None:
        self._print(self.engine.monitor.log())

    def _cmd_checkpoint(self, arg: str) -> None:
        if not self.engine.durable:
            self._print("engine has no data_dir (durability off)")
            return
        self.engine.checkpoint()
        self._print(f"checkpoint written to {self.engine.data_dir!r} "
                    f"in {self.engine.last_checkpoint_ms:.1f} ms")

    def _cmd_scheduler(self, arg: str) -> None:
        sched = self.engine.scheduler
        self._print("scheduler:")
        self._print(f"  steps: {sched.steps}")
        self._print(f"  total_fired: {sched.total_fired}")
        self._print(f"  failed_total: {sched.failed_total}")
        for exc in sched.failed:
            self._print(f"    {exc}")

    def _cmd_queries(self, arg: str) -> None:
        queries = self.engine.queries()
        if not queries:
            self._print("(no standing queries)")
        for query in queries:
            self._print(f"  {query.name} [{query.mode}] "
                        f"fires={query.factory.fires}: "
                        f"{query.sql_text}")

    def _cmd_sample(self, arg: str) -> None:
        snap = self.engine.monitor.sample()
        self._print(f"sampled t={snap['t']}ms "
                    f"({len(self.engine.monitor.samples)} samples)")


NET_COMMANDS = ("serve", "send", "tail")


def main(argv: Optional[List[str]] = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if argv and argv[0] in NET_COMMANDS:
        from repro.net.cli import main as net_main

        return net_main(argv)
    shell = DataCellShell()
    if argv:
        with open(argv[0]) as f:
            shell.run(f, interactive=False)
        return 0
    shell.run(sys.stdin, interactive=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
