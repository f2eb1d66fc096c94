"""Monitoring: the textual equivalent of the demo's GUI panes.

* :meth:`Monitor.network` — the query-network view (Figure 3): which
  receptor feeds which basket, which factories bind it, where results go.
* :meth:`Monitor.analysis` — the analysis pane (Figure 4): per-query and
  network-wide throughput/latency counters over the run.
* :meth:`Monitor.plans` — the plan inspection view (Figure 2/3): logical
  plan, one-time MAL, continuous MAL side by side.
* :meth:`Monitor.timeseries` — sampled basket/factory counters for
  "continuous monitoring of inputs sizes and intermediate result sizes".
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.rewriter import plan_diff


class Monitor:
    """Reads engine state; owns the sampled time series."""

    def __init__(self, engine):
        self.engine = engine
        self.samples: List[Dict] = []

    # -- sampling ---------------------------------------------------------

    def sample(self) -> Dict:
        """Record one snapshot of basket sizes and factory counters."""
        snap = {
            "t": self.engine.now(),
            "baskets": {name: basket.stats()
                        for name, basket in
                        self.engine.scheduler.baskets.items()},
            "factories": {f.name: f.stats()
                          for f in self.engine.scheduler.factories},
        }
        self.samples.append(snap)
        return snap

    def timeseries(self, basket: Optional[str] = None,
                   metric: str = "size") -> List:
        """Sampled series ``[(t, value)]`` for one basket metric."""
        out = []
        for snap in self.samples:
            if basket is None:
                value = sum(b[metric] for b in snap["baskets"].values())
            else:
                value = snap["baskets"][basket][metric]
            out.append((snap["t"], value))
        return out

    # -- panes ---------------------------------------------------------------

    def network(self) -> str:
        """Query-network topology as indented text (demo Figure 3)."""
        lines = ["query network:"]
        eng = self.engine
        for receptor in eng.scheduler.receptors:
            state = " (paused)" if receptor.paused else ""
            lines.append(f"  receptor {receptor.name}{state} "
                         f"-> basket {receptor.basket.name} "
                         f"[{receptor.total_ingested} in]")
        for name, basket in eng.scheduler.baskets.items():
            stats = basket.stats()
            lines.append(f"  basket {name}: size={stats['size']} "
                         f"in={stats['total_in']} "
                         f"dropped={stats['total_dropped']} "
                         f"hw={stats['high_water']}")
            for sub in basket.subscriptions():
                lines.append(f"    bound by {sub.name}: "
                             f"read@{sub.read_upto} "
                             f"released@{sub.released_upto}"
                             + (" (paused)" if sub.paused else ""))
        for factory in eng.scheduler.factories:
            inputs = ", ".join(factory.input_streams())
            lines.append(f"  factory {factory.name} [{factory.state}] "
                         f"<- {{{inputs}}} fires={factory.fires} "
                         f"out={factory.rows_out}")
            lines.append(f"    -> emitter {factory.emitter.name} "
                         f"({factory.emitter.total_batches} batches)")
        return "\n".join(lines)

    def analysis(self) -> str:
        """Aggregated performance metrics (demo Figure 4)."""
        eng = self.engine
        lines = [f"analysis @ t={eng.now()}ms "
                 f"(steps={eng.scheduler.steps}, "
                 f"fired={eng.scheduler.total_fired}):"]
        total_in = total_out = 0
        busy = 0.0
        for factory in eng.scheduler.factories:
            stats = factory.stats()
            total_in += stats["tuples_in"]
            total_out += stats["rows_out"]
            busy += stats["busy_seconds"]
            per_fire = (stats["busy_seconds"] / stats["fires"] * 1000
                        if stats["fires"] else 0.0)
            lines.append(
                f"  {factory.name}: fires={stats['fires']} "
                f"in={stats['tuples_in']} out={stats['rows_out']} "
                f"busy={stats['busy_seconds']:.4f}s "
                f"({per_fire:.3f} ms/fire)")
            extra = {k: v for k, v in stats.items()
                     if k.endswith(("cached", "computed", "reused",
                                    "_rows"))}
            if extra:
                lines.append("    cache: " + ", ".join(
                    f"{k}={v}" for k, v in sorted(extra.items())))
        lines.append(f"  network totals: in={total_in} out={total_out} "
                     f"busy={busy:.4f}s")
        sched = eng.scheduler
        if sched.failed_total:
            lines.append(f"  failures: total={sched.failed_total} "
                         f"(last {len(sched.failed)} kept)")
        recycler = getattr(eng, "recycler", None)
        if recycler is not None:
            stats = recycler.stats()
            state = "on" if stats["enabled"] else "off"
            lines.append(
                f"  recycler [{state}]: "
                f"hits={stats['hits']} "
                f"misses={stats['misses']} "
                f"slice_hits={stats['slice_hits']} "
                f"slice_misses={stats['slice_misses']} "
                f"evictions={stats['evictions']} "
                f"invalidations={stats['invalidations']} "
                f"entries={stats['entries']} "
                f"bytes={stats['bytes']}/{stats['budget_bytes']}")
            if stats["reuse_decays"]:
                lines.append(
                    f"    reuse_decays={stats['reuse_decays']}")
            if stats["chain_stamped"] or stats["bytes_saved"]:
                lines.append(
                    f"    chain: stamped={stats['chain_stamped']} "
                    f"hits={stats['chain_hits']} | saved "
                    f"{stats['bytes_saved']} bytes, "
                    f"{stats['cost_saved_ms']:.1f} ms recompute")
        return "\n".join(lines)

    def net(self) -> str:
        """The network-edge pane: per-connection ingest/deliver
        counters of the attached :class:`~repro.net.server.
        DataCellServer` (the demo's receptor/emitter processes made
        visible)."""
        edge = getattr(self.engine, "net_edge", None)
        if edge is None:
            return "network edge: (not attached — engine is in-process)"
        stats = edge.net_stats()
        state = "running" if stats["running"] else "stopped"
        lines = [f"network edge [{state}] on {stats['address']} "
                 f"(admission={stats['admission']}, "
                 f"pending<={stats['max_pending_batches']}, "
                 f"client-queue<={stats['max_client_queue']}):"]
        for conn in stats["connections"]:
            lines.append(f"  conn #{conn['id']} [{conn['peer']}]:")
            for stream, r in sorted(conn["receptors"].items()):
                lines.append(
                    f"    receptor {stream}: pending={r['pending_batches']} "
                    f"in={r['total_ingested']} shed={r['total_shed']} "
                    f"blocked={r['total_blocked']}")
            for sub in conn["subscriptions"]:
                state = "evicted" if sub["evicted"] else (
                    "dead" if sub["dead"] else "live")
                lines.append(
                    f"    subscriber {sub['query']} [{state}]: "
                    f"sent={sub['sent_batches']} "
                    f"rows={sub['sent_rows']} "
                    f"lag={sub['lag']}")
            if not conn["receptors"] and not conn["subscriptions"]:
                lines.append("    (idle)")
        if not stats["connections"]:
            lines.append("  (no open connections)")
        totals = stats["totals"]
        lines.append(
            f"  totals [{stats['connections_total']} connections]: "
            f"offered={totals['offered']} ingested={totals['ingested']} "
            f"shed={totals['shed']} blocked={totals['blocked']} "
            f"delivered={totals['delivered_rows']} rows "
            f"evicted={totals['evicted']}")
        return "\n".join(lines)

    def pg(self) -> str:
        """The Postgres front-end pane: per-session statement/row
        counters the attached :class:`~repro.pg.server.PGEdge`'s
        process last pushed."""
        edge = getattr(self.engine.net_edge, "pg", None)
        if edge is None:
            return "postgres front end: (not attached — start one " \
                   "with repro serve --pg-port)"
        stats = edge.pg_stats()
        state = "running" if stats["running"] else "stopped"
        lines = [f"postgres front end [{state}] on {stats['address']} "
                 f"(psql -h {stats['address'].split(':')[0]} "
                 f"-p {stats['address'].split(':')[1]}):"]
        for sess in stats["sessions"]:
            tail = f" tailing {sess['tailing']!r}" \
                if sess["tailing"] else ""
            lines.append(
                f"  session #{sess['id']} [{sess['peer']}] "
                f"user={sess['user'] or '?'}:{tail} "
                f"queries={sess['queries']} rows={sess['rows_sent']} "
                f"errors={sess['errors']}")
        if not stats["sessions"]:
            lines.append("  (no open sessions)")
        lines.append(
            f"  totals [{stats['connections_total']} connections]: "
            f"queries={stats['queries']} rows={stats['rows_sent']} "
            f"tails={stats['tails']} cancels={stats['cancels']} "
            f"errors={stats['errors']}")
        return "\n".join(lines)

    def interp(self) -> str:
        """The plan-execution pane: slot-compiler and digest-cache
        counters and per-opcode cumulative wall time from the compiled
        thunks (when profiling is on)."""
        stats = self.engine.interp_stats()
        lines = [
            f"plan execution: {stats['factories_compiled']} compiled, "
            f"{stats['factories_interpreted']} interpreted "
            f"(compiles={stats['compiles']} "
            f"shared={stats['compile_cache_hits']} "
            f"fallbacks={stats['compile_fallbacks']})",
            f"  fingerprints: cache hits={stats['fp_cache_hits']} "
            f"misses={stats['fp_cache_misses']} "
            f"entries={stats['fp_cache_entries']}",
        ]
        if stats["opcode_profile"]:
            lines.append("  per-opcode (cumulative):")
            for opcode, cell in stats["opcode_profile"].items():
                lines.append(f"    {opcode}: {cell['calls']} calls, "
                             f"{cell['ms']:.3f} ms")
        elif not stats["profile_enabled"]:
            lines.append("  per-opcode: (profiling off — construct the "
                         "engine with interp_profile=True)")
        return "\n".join(lines)

    def log(self) -> str:
        """The durability pane: per-stream log segments, durable
        watermarks, group-commit shape, checkpoint and recovery
        counters."""
        eng = self.engine
        if not getattr(eng, "durable", False):
            return ("durable log: (off — construct the engine with "
                    "data_dir=...)")
        stats = eng.log_stats()
        lines = [f"durable log [{stats['durability']}] "
                 f"at {stats['data_dir']}: "
                 f"checkpoints={stats['checkpoints']} "
                 f"(last {stats['last_checkpoint_ms']:.1f} ms), "
                 f"recovered={'yes' if stats['recovered'] else 'no'}"]
        if stats.get("checkpoint_error"):
            lines.append(f"  CHECKPOINT ERROR: "
                         f"{stats['checkpoint_error']}")
        for name, s in stats["streams"].items():
            lines.append(
                f"  {name}: next={s['next_offset']} "
                f"durable={s['durable_offset']} "
                f"segments={s['segments']}x{s['segment_rows']}")
            lines.append(
                f"    groups={s['groups']} "
                f"(avg {s['group_rows'] / max(s['groups'], 1):.1f} "
                f"rows, max {s['max_group_rows']}) "
                f"fsyncs={s['fsyncs']} bytes={s['bytes_written']}"
                + (f" torn={s['torn_rows']}" if s["torn_rows"]
                   else "")
                + (f" FAILED: {s['failed']}" if s["failed"] else ""))
            knobs = []
            if s.get("retain_ms") is not None:
                knobs.append(f"retain_ms={s['retain_ms']}")
            if s.get("retain_bytes") is not None:
                knobs.append(f"retain_bytes={s['retain_bytes']}")
            retention = (
                f"    retention [{' '.join(knobs) if knobs else 'off'}]"
                f": floor={s.get('durable_floor', 0)} "
                f"retained={s.get('retained_bytes', 0)} bytes "
                f"truncations={s.get('retention_truncations', 0)} "
                f"dropped={s.get('retention_rows', 0)} rows")
            pager = s.get("pager")
            if pager is not None:
                retention += (
                    f" | paged: reads={pager['paged_reads']} "
                    f"rows={pager['paged_rows']} "
                    f"mapped={pager['mapped_files']} "
                    f"(hit {pager['map_hits']}/"
                    f"{pager['map_hits'] + pager['map_misses']})")
            lines.append(retention)
        if not stats["streams"]:
            lines.append("  (no stream logs open)")
        return "\n".join(lines)

    def plans(self, query_name: str) -> str:
        """Logical plan + MAL before/after the continuous rewrite."""
        query = self.engine.continuous_query(query_name)
        parts = [f"-- {query.name}: {query.sql_text}",
                 f"-- mode: {query.mode}",
                 "-- logical plan --", query.plan.pretty()]
        if query.incremental_analysis is not None:
            parts.append(query.incremental_analysis.describe())
        parts.append(plan_diff(query.program, query.continuous_program))
        return "\n".join(parts)

    def intermediates(self, query_name: str) -> str:
        """Where tuples live right now (demo: "monitor where tuples
        live at any point in time, i.e., in which intermediate columns
        wait or which operators they feed").

        For incremental queries: every cached basic-window slice,
        partial-aggregate state and join-pair intermediate with its row
        count. For re-evaluation queries: the raw window the basket
        retains for the next firing.
        """
        query = self.engine.continuous_query(query_name)
        lines = [f"intermediates of {query.name!r} ({query.mode}):"]
        for stream in query.streams:
            basket = self.engine.scheduler.baskets[stream]
            for sub in basket.subscriptions():
                if sub.name != query.name:
                    continue
                waiting = basket.next_oid - sub.read_upto
                retained = sub.read_upto - max(sub.released_upto,
                                               basket.first_oid)
                lines.append(
                    f"  basket {stream}: {waiting} tuples waiting, "
                    f"{max(retained, 0)} consumed-but-retained")
        factory = query.factory
        executor = getattr(factory, "executor", None)
        if executor is None:
            lines.append("  (re-evaluation mode: no cached "
                         "intermediates, full window re-read per fire)")
            return "\n".join(lines)
        for (stream, bw), rel in sorted(executor._slices.items()):
            lines.append(f"  slice cache [{stream} bw{bw}]: "
                         f"{rel.row_count} rows "
                         f"({', '.join(rel.names)})")
        for (stream, bw), partial in sorted(executor._partials.items()):
            lines.append(f"  partial states [{stream} bw{bw}]: "
                         f"{len(partial)} groups")
        for pair, payload in sorted(executor._pairs.items()):
            size = payload.row_count if hasattr(payload, "row_count") \
                else len(payload)
            kind = "rows" if hasattr(payload, "row_count") else "groups"
            lines.append(f"  join-pair cache {pair}: {size} {kind}")
        if len(lines) == 1:
            lines.append("  (nothing cached)")
        return "\n".join(lines)

    def report(self) -> str:
        """Everything at once."""
        return self.network() + "\n\n" + self.analysis()
