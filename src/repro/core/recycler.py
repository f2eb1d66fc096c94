"""The intermediate recycler: cross-query shared work on one stream.

DataCell's headline scenario is many standing queries over one shared
stream. Without sharing, each factory firing independently re-slices
the same basket window and re-runs identical leading select/project
operators — per-query cost grows linearly where the shared-basket
design promises sub-linear scaling. This module is the MonetDB-recycler
answer (Ivanova et al., SIGMOD 2009) adapted to the streaming setting:

* **window slices** — within and across scheduler steps, the first
  factory to request basket window ``[lo, hi)`` materializes it once;
  every other factory subscribed to the same window gets the *same*
  Relation object (zero extra copies, zero-copy column views of the
  shared materialization);
* **instruction intermediates** — candidate lists, fetched columns,
  group states and any other pure operator result, keyed by the
  instruction's structural fingerprint
  (:mod:`repro.mal.fingerprint`) plus the oid-ranges of the stream
  windows in its lineage.

Because cache keys carry *absolute* oid ranges and basket oids are
stable for the lifetime of a tuple, a cached value never goes stale:
the content of window ``[lo, hi)`` cannot change. Invalidation is
therefore about memory, not correctness — entries whose windows fall
entirely below a basket's vacuumed ``first_oid`` can never be requested
again and are dropped eagerly (:meth:`Recycler.evict_dead`), a byte
budget bounds the rest, and :meth:`Recycler.purge_basket` guards
the one true-staleness case (a stream dropped and re-created under the
same name restarts its oid sequence).

Budget eviction follows MonetDB's recycler weighting (Ivanova et al.):
evict the entry with the lowest *benefit density* ``cost_ms × (1 +
reuses) / nbytes``, i.e. cheapest to recompute, least reused, largest.
Every entry records its evaluation wall time at insert (the compiled
loop brackets each step; window-slice materialization is timed here)
and counts its reuses; recency is only the tie-breaker, so a
hot-but-large intermediate survives a churn of one-shot entries. An
engine's budget is the fixed :data:`DEFAULT_BUDGET_BYTES`.

A third sharing layer rides on the same cache: **chained emit
payloads**. When a factory appends a firing's result into an
``output_stream`` basket, the payload is adopted as the window slice
for exactly the appended oid range (:meth:`Recycler.adopt_slice`). A
downstream stage's scan of the output basket then resolves to the
upstream emit payload directly — the stage boundary is a cache hit,
not a re-materialization.

Cached values are shared across factories and must be treated as
immutable — the kernel's operators are pure (they allocate fresh
outputs), which is what makes this safe.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.mal.bat import BAT
from repro.mal.relation import Relation

# key spaces: ("slice", basket, lo, hi) for shared window slices and
# ("ins", fingerprint, ((stream, lo, hi), ...)) for operator results
_SLICE = "slice"
_INS = "ins"

DEFAULT_BUDGET_BYTES = 64 << 20

# every N dead-entry eviction scans, halve all reuse counters so stale
# high-benefit entries cannot pin the budget forever (reuse decay)
REUSE_DECAY_SCANS = 32
# allowance per attempt for the bookkeeping the recycler cannot time
# itself (the caller's key build and call dispatch); the dominant costs
# — probe, store, eviction accounting — are measured live inside
# lookup()/store() and accumulated per fingerprint, so the verdict
# stays calibrated whatever the box's load is doing to wall time
RECYCLE_OVERHEAD_MS = 0.002
# hits must beat the measured bookkeeping by this factor to stay
# admitted: the ledger cannot see the consumer-side register bind or
# the allocator/cache pressure of keeping extra intermediates alive,
# so break-even-on-paper fingerprints are net losses in practice
FP_BENEFIT_MARGIN = 2.0
# resolved entry lifecycles before a fingerprint's cheap verdict is
# trusted
FP_VERDICT_MIN_ENTRIES = 16


def payload_nbytes(value: Any) -> int:
    """Approximate resident size of a recycled payload."""
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            # object arrays hold pointers; charge a flat per-cell fee
            return int(value.size) * 64 + value.nbytes
        return int(value.nbytes)
    if isinstance(value, BAT):
        return payload_nbytes(value.values)
    if isinstance(value, Relation):
        return sum(payload_nbytes(bat) for _n, bat in value.columns())
    if isinstance(value, tuple):
        return sum(payload_nbytes(v) for v in value)
    return 64  # scalars, None, small bookkeeping


class _Entry:
    __slots__ = ("value", "nbytes", "ranges", "cost_ms", "reuses",
                 "chained")

    def __init__(self, value: Any, nbytes: int,
                 ranges: Tuple[Tuple[str, int, int], ...],
                 cost_ms: float = 0.0, chained: bool = False):
        self.value = value
        self.nbytes = nbytes
        self.ranges = ranges
        self.cost_ms = cost_ms
        self.reuses = 0
        self.chained = chained

    def density(self) -> float:
        """Benefit density: recompute cost × reuse frequency / bytes."""
        return (self.cost_ms * (1.0 + self.reuses)) / max(self.nbytes, 1)


class Recycler:
    """A per-engine cache of shareable streaming intermediates.

    ``verify=True`` turns on the equivalence mode used by tests: the
    compiled loop re-executes every step that hits the cache and
    asserts the recycled value matches the freshly computed one.
    """

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES,
                 enabled: bool = True, verify: bool = False):
        self.budget_bytes = int(budget_bytes)
        self.enabled = enabled
        self.verify = verify
        # only the thread that steps the engine touches this cache (the
        # serving loop when served): no lock
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.slice_hits = 0
        self.slice_misses = 0
        # benefit accounting: work the cache provably absorbed
        self.bytes_saved = 0
        self.cost_saved_ms = 0.0
        # chained emit payloads adopted / resolved at stage boundaries
        self.chain_stamped = 0
        self.chain_hits = 0
        # reuse decay bookkeeping
        self.reuse_decays = 0
        self._dead_scans = 0
        self.cold_skips = 0
        # registration-time census: how many registered consumers carry
        # each instruction fingerprint. Instruction keys embed the
        # firing's window ranges, so reuse can only come from a second
        # consumer with the same fingerprint — a refcount of 1 proves
        # the entry can never be shared, no matter the firing order
        self._fp_refs: Dict[str, int] = {}
        # per-fp net-benefit ledger: [resolved_attempts, saved_ms,
        # resolved_entries]. An entry *resolves* when it leaves the
        # cache (hit-credited earlier, wasted if never reused); only
        # resolved lifecycles count, so a one-sided burst (producer
        # fires all its windows before any consumer runs) cannot form
        # a verdict before sharers had their chance. Once trusted, fps
        # whose hits save less than the bookkeeping overhead are
        # skipped (cost-model admission)
        self._fp_benefit: Dict[str, List[float]] = {}
        # bumped on every retain/release so factories can cache their
        # per-plan recycling decision until the census changes
        self.census_version = 0
        self.plan_skips = 0
        # why entries were invalidated: vacuumed windows, stream drop
        # (budget-pressure victims are counted in ``evictions``)
        self.eviction_reasons: Dict[str, int] = {"dead": 0, "purge": 0}

    def __len__(self) -> int:
        return len(self._entries)

    # -- generic entry plumbing ----------------------------------------

    def _get(self, key: tuple) -> Optional[_Entry]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def _resolve_entry(self, key: tuple, entry: "_Entry") -> None:
        """Close an instruction entry's lifecycle as it leaves the
        cache: its attempts (one store + its reuses) join the fp's
        resolved ledger."""
        if key[0] is not _INS:
            return
        fp = key[1]
        cell = self._fp_benefit.get(fp)
        if cell is None:
            cell = self._fp_benefit[fp] = [0.0, 0.0, 0.0, 0.0]
        cell[0] += 1.0 + entry.reuses
        cell[2] += 1.0
        if cell[2] == FP_VERDICT_MIN_ENTRIES and \
                cell[1] < FP_BENEFIT_MARGIN * (
                    cell[3] + cell[0] * RECYCLE_OVERHEAD_MS):
            # cheap verdict just formed: plan gates must re-evaluate
            self.census_version += 1

    def _account_hit(self, entry: _Entry) -> None:
        entry.reuses += 1
        self.bytes_saved += entry.nbytes
        self.cost_saved_ms += entry.cost_ms
        if entry.chained:
            self.chain_hits += 1

    def _pick_victim(self) -> tuple:
        """Key of the next budget-pressure victim: the minimum benefit
        density. Iteration follows the recency order (LRU first), and
        a strictly-lower comparison keeps the earliest minimum — i.e.
        LRU breaks density ties.
        """
        victim_key = None
        victim_density = float("inf")
        for key, entry in self._entries.items():
            density = entry.density()
            if density < victim_density:
                victim_key = key
                victim_density = density
        return victim_key

    def _put(self, key: tuple, value: Any,
             ranges: Tuple[Tuple[str, int, int], ...],
             cost_ms: float = 0.0, chained: bool = False) -> None:
        nbytes = payload_nbytes(value)
        if nbytes > self.budget_bytes:
            return  # larger than the whole cache: not worth keeping
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes_used -= old.nbytes
        self._entries[key] = _Entry(value, nbytes, ranges, cost_ms,
                                    chained)
        self.bytes_used += nbytes
        while self.bytes_used > self.budget_bytes and self._entries:
            victim_key = self._pick_victim()
            victim = self._entries.pop(victim_key)
            self._resolve_entry(victim_key, victim)
            self.bytes_used -= victim.nbytes
            self.evictions += 1

    # -- shared window slices ------------------------------------------

    def window_slice(self, basket, lo: Optional[int], hi: Optional[int]
                     ) -> Tuple[Relation, Tuple[int, int]]:
        """The basket window ``[lo, hi)``, materialized at most once.

        Returns ``(relation, (lo, hi))`` with the bounds clamped to the
        basket's live oid range — the clamped range is the cache key,
        so every factory asking for the same window (however phrased)
        shares one Relation object.
        """
        lo, hi = basket.clamp_range(lo, hi)
        if not self.enabled:
            return basket.relation(lo, hi), (lo, hi)
        key = (_SLICE, basket.name, lo, hi)
        entry = self._get(key)
        if entry is not None:
            self.slice_hits += 1
            self._account_hit(entry)
            return entry.value, (lo, hi)
        self.slice_misses += 1
        started = time.perf_counter()
        rel = basket.relation(lo, hi)
        cost_ms = (time.perf_counter() - started) * 1000.0
        self._put(key, rel, ((basket.name, lo, hi),), cost_ms)
        return rel, (lo, hi)

    def adopt_slice(self, basket_name: str, lo: int, hi: int,
                    rel: Relation, cost_ms: float = 0.0) -> None:
        """Adopt a chained emit payload as the slice for ``[lo, hi)``.

        Called by a :class:`~repro.core.emitter.BasketSink` right after
        it appended *rel* to output basket *basket_name* at that oid
        range, with *cost_ms* the upstream firing's evaluation wall
        time — what the entry saves a downstream stage from paying
        again. A later :meth:`window_slice` for exactly that range then
        returns the emitted payload without re-materializing the basket
        window.
        """
        if not self.enabled or hi <= lo:
            return
        key = (_SLICE, basket_name.lower(), lo, hi)
        self._put(key, rel, ((basket_name.lower(), lo, hi),),
                  cost_ms, chained=True)
        self.chain_stamped += 1

    # -- instruction intermediates -------------------------------------

    @staticmethod
    def instruction_key(fp: str,
                        ranges: Iterable[Tuple[str, int, int]]) -> tuple:
        return (_INS, fp, tuple(sorted(ranges)))

    def lookup(self, key: tuple) -> Tuple[bool, Any]:
        """``(found, value)`` for an instruction-intermediate key.

        The probe's own wall time is charged to the fingerprint's
        overhead ledger — measured, not estimated, so the net-benefit
        verdict compares like with like on a loaded box."""
        if not self.enabled:
            return False, None
        started = time.perf_counter()
        entry = self._get(key)
        fp = key[1]
        cell = self._fp_benefit.get(fp)
        if cell is None:
            cell = self._fp_benefit[fp] = [0.0, 0.0, 0.0, 0.0]
        if entry is None:
            self.misses += 1
            cell[3] += (time.perf_counter() - started) * 1000.0
            return False, None
        self.hits += 1
        cell[1] += entry.cost_ms
        self._account_hit(entry)
        cell[3] += (time.perf_counter() - started) * 1000.0
        return True, entry.value

    def retain_fps(self, fps: Iterable[str]) -> None:
        """Register a consumer's recyclable instruction fingerprints
        (called once per standing-query registration). Duplicate
        fingerprints within one plan count individually — the second
        occurrence can hit the first occurrence's store within one
        firing."""
        for fp in fps:
            self._fp_refs[fp] = self._fp_refs.get(fp, 0) + 1
        # a new consumer changes every fingerprint's sharing
        # economics: all net-benefit verdicts restart from scratch
        self._fp_benefit.clear()
        self.census_version += 1

    def release_fps(self, fps: Iterable[str]) -> None:
        """Drop a removed consumer's fingerprints from the census."""
        for fp in fps:
            n = self._fp_refs.get(fp, 0)
            if n <= 1:
                self._fp_refs.pop(fp, None)
            else:
                self._fp_refs[fp] = n - 1
        self._fp_benefit.clear()
        self.census_version += 1

    def plan_should_recycle(self, fps: Iterable[str]) -> bool:
        """One whole-plan admission decision per firing.

        False only when the census covers *every* fingerprint of the
        plan and none is shared (or whitelisted hot) — the factory then
        runs the bare thunk loop with zero per-step recycler calls.
        Factories cache the answer keyed on :attr:`census_version`, so
        the steady-state cost of a non-sharing plan is one integer
        compare per firing."""
        refs = self._fp_refs
        for fp in fps:
            n = refs.get(fp)
            if n is None or (n >= 2 and self._fp_worthwhile(fp)):
                return True
        self.plan_skips += 1
        return False

    def _fp_worthwhile(self, fp: str) -> bool:
        """Net-benefit verdict: False once a trusted sample shows the
        fingerprint's hits save less than the bookkeeping costs."""
        cell = self._fp_benefit.get(fp)
        return (cell is None or cell[2] < FP_VERDICT_MIN_ENTRIES
                or cell[1] >= FP_BENEFIT_MARGIN * (
                    cell[3] + cell[0] * RECYCLE_OVERHEAD_MS))

    def should_attempt(self, fp: str) -> bool:
        """Admission check for one recyclable instruction.

        Instruction keys embed the firing's window ranges, so an entry
        can only ever be reused by a *second* consumer carrying the
        same fingerprint. The registration census makes that check
        exact — attempt only fingerprints at least two registered
        consumers carry — and the net-benefit ledger then retires
        fingerprints whose hits demonstrably save less than the
        bookkeeping overhead, so workloads that cannot profit stop
        paying key-build/lookup/store/eviction overhead. A fingerprint
        no consumer registered (a recycler driven without an engine)
        is always attempted. Compiled plans snapshot the answers into a
        per-step mask once per :attr:`census_version`: every decision
        that flips one — retain, release, ledger verdicts, decay —
        bumps the version, which is what makes the snapshot sound.
        """
        refs = self._fp_refs.get(fp)
        if refs is None or (refs >= 2 and self._fp_worthwhile(fp)):
            return True
        self.cold_skips += 1
        return False

    def store(self, key: tuple, value: Any,
              cost_ms: float = 0.0) -> None:
        """Publish an instruction result; *cost_ms* is the evaluation
        wall time the compiled loop measured for it (the recompute
        cost the benefit-density eviction weighs)."""
        if not self.enabled:
            return
        started = time.perf_counter()
        self._put(key, value, key[2], cost_ms)
        fp = key[1]
        cell = self._fp_benefit.get(fp)
        if cell is None:
            cell = self._fp_benefit[fp] = [0.0, 0.0, 0.0, 0.0]
        cell[3] += (time.perf_counter() - started) * 1000.0

    # -- invalidation ---------------------------------------------------

    def evict_dead(self, floors: Dict[str, int]) -> int:
        """Drop entries whose windows are entirely below the vacuumed
        ``first_oid`` of their basket (they can never be requested
        again). *floors* maps basket name -> current first_oid.

        Doubles as the reuse-decay clock: every
        :data:`REUSE_DECAY_SCANS` scans, all reuse counters are halved
        so an entry that was hot long ago decays back toward its base
        benefit density instead of pinning the budget forever."""
        self._dead_scans += 1
        if self._dead_scans % REUSE_DECAY_SCANS == 0:
            for entry in self._entries.values():
                entry.reuses >>= 1
            # decay magnitudes but not the trust count (cell[2]):
            # halving it below FP_VERDICT_MIN_ENTRIES would re-open
            # probation on a timer, and one slow-accruing
            # fingerprint in probation holds its whole plan gate
            # open; verdicts instead reset on structural change
            # (retain_fps/release_fps, when the sharing economics
            # actually move)
            for cell in self._fp_benefit.values():
                cell[0] /= 2.0
                cell[1] /= 2.0
                cell[3] /= 2.0
            self.census_version += 1
            self.reuse_decays += 1
        if not self._entries:
            return 0
        dead = []
        for key, entry in self._entries.items():
            ranges = entry.ranges
            if not ranges:
                continue
            gone = True
            for name, _lo, hi in ranges:
                floor = floors.get(name)
                if floor is None or hi > floor:
                    gone = False
                    break
            if gone:
                dead.append(key)
        for key in dead:
            entry = self._entries.pop(key)
            self._resolve_entry(key, entry)
            self.bytes_used -= entry.nbytes
            self.invalidations += 1
            self.eviction_reasons["dead"] += 1
        return len(dead)

    def purge_basket(self, basket_name: str) -> int:
        """Drop every entry touching *basket_name* (stream dropped or
        re-created: its oid sequence restarts, so keyed ranges would
        alias)."""
        basket_name = basket_name.lower()
        dead = [key for key, entry in self._entries.items()
                if any(name == basket_name for name, _l, _h in
                       entry.ranges)]
        for key in dead:
            entry = self._entries.pop(key)
            self.bytes_used -= entry.nbytes
            self.invalidations += 1
            self.eviction_reasons["purge"] += 1
        return len(dead)

    def clear(self) -> None:
        self._entries.clear()
        self.bytes_used = 0

    # -- reporting -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "enabled": int(self.enabled),
            "entries": len(self._entries),
            "bytes": self.bytes_used,
            "budget_bytes": self.budget_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "slice_hits": self.slice_hits,
            "slice_misses": self.slice_misses,
            "chain_stamped": self.chain_stamped,
            "chain_hits": self.chain_hits,
            "reuse_decays": self.reuse_decays,
            "cold_skips": self.cold_skips,
            "plan_skips": self.plan_skips,
            "cold_fps": sum(
                1 for v in self._fp_refs.values() if v < 2),
            "bytes_saved": self.bytes_saved,
            "cost_saved_ms": round(self.cost_saved_ms, 3),
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "eviction_reasons": dict(self.eviction_reasons),
        }

    def __repr__(self) -> str:
        return (f"Recycler(entries={len(self._entries)}, "
                f"bytes={self.bytes_used}, hits={self.hits}, "
                f"misses={self.misses})")


def payloads_equal(a: Any, b: Any) -> bool:
    """Deep equality between a recycled payload and a fresh one (the
    equivalence/verify mode's comparator)."""
    if type(a) is not type(b):
        # allow int/float scalar identity across numpy/python boxing
        if isinstance(a, (int, float, np.integer, np.floating)) and \
                isinstance(b, (int, float, np.integer, np.floating)):
            return bool(a == b) or (a != a and b != b)
        return False
    if isinstance(a, np.ndarray):
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype == object:
            return all(x == y or (x is None and y is None)
                       for x, y in zip(a, b))
        if a.dtype.kind == "f":
            return bool(np.array_equal(a, b, equal_nan=True))
        return bool(np.array_equal(a, b))
    if isinstance(a, BAT):
        return a.dtype == b.dtype and payloads_equal(a.values, b.values)
    if isinstance(a, Relation):
        if a.names != b.names:
            return False
        return all(payloads_equal(a.column(n), b.column(n))
                   for n in a.names)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(
            payloads_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            payloads_equal(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return a == b or (a != a and b != b)
    return bool(a == b)
