"""Structural fingerprints for MAL instructions and programs.

Two standing queries compiled independently produce MAL programs whose
SSA variable names differ (``X_3`` vs ``X_17``) even when the work they
describe is identical — e.g. thirty-two filter queries over one sensor
stream all start with the same ``basket.bind`` + ``algebra.thetaselect``
prefix. The recycler (:mod:`repro.core.recycler`) needs to recognise
that sharing, so fingerprints canonicalize *lineage*, not names:

* a ``basket.bind`` is identified by its (stream, column) pair — the
  root of all stream lineage;
* every other instruction is identified by its opcode, its constant
  arguments (by value and type) and the fingerprints of the
  instructions that produced its variable arguments;
* SSA numbering therefore never leaks into the digest.

The analysis also tracks, per instruction, the set of input streams in
its lineage (so cache keys can be scoped to the exact basket windows it
read) and whether the instruction is *recyclable* at all: side-effecting
opcodes (``basket.*`` brackets, result delivery) and anything whose
lineage passes through a mutable table bind are excluded.

This is the reproduction of the MonetDB "recycler" lineage (Ivanova et
al., *An architecture for recycling intermediates in a column-store*,
SIGMOD 2009), adapted to DataCell's continuous plans.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Dict, List, Optional

from repro.mal.program import Const, Instruction, MALProgram, Var

# opcodes that touch engine state or deliver results: never recycled,
# and they taint nothing (their results, if any, are not values)
_SIDE_EFFECTS = frozenset({
    "basket.lock", "basket.unlock", "basket.drain",
    "basket.emit", "sql.resultSet",
})

# lineage roots over mutable storage: executing them is cheap but their
# output can change between firings without the window moving, so they
# poison recyclability downstream
_MUTABLE_BINDS = frozenset({"sql.bind"})

# stream lineage root: identified by (stream, column), trivially cheap
# to re-execute (a dict lookup into the shared window slice)
_STREAM_BIND = "basket.bind"


class InstructionFP:
    """Fingerprint + recyclability verdict for one instruction.

    ``fp`` — stable hex digest of the canonicalized (opcode, lineage,
    constants) structure; equal digests mean "same work over the same
    inputs, given equal basket windows".
    ``streams`` — the input streams in this instruction's lineage; the
    recycler scopes the cache key to their window oid-ranges.
    ``recyclable`` — True when the result is a pure function of stream
    windows and constants (and is worth caching).
    """

    __slots__ = ("fp", "streams", "recyclable")

    def __init__(self, fp: str, streams: frozenset, recyclable: bool):
        self.fp = fp
        self.streams = streams
        self.recyclable = recyclable

    def __repr__(self) -> str:
        flag = "recyclable" if self.recyclable else "pinned"
        return f"InstructionFP({self.fp}, {sorted(self.streams)}, {flag})"


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def _const_token(value) -> str:
    # include the type name so 1, 1.0 and True stay distinct
    return f"c:{type(value).__name__}:{value!r}"


def fingerprint_program(program: MALProgram
                        ) -> List[Optional[InstructionFP]]:
    """Per-instruction fingerprints, aligned with ``instructions``.

    Entries are ``None`` for pure side-effect instructions (nothing to
    name). Multi-result instructions get one shared instruction digest;
    each result variable is tracked as ``digest#<index>``.
    """
    out: List[Optional[InstructionFP]] = []
    # var name -> (lineage token, streams, pure)
    env: Dict[str, tuple] = {}
    for instr in program.instructions:
        info = _fingerprint_instruction(instr, env)
        out.append(info)
        if info is None:
            continue
        pure = info.recyclable or _is_pure_root(instr)
        for i, result in enumerate(instr.results):
            token = info.fp if len(instr.results) == 1 \
                else f"{info.fp}#{i}"
            env[result] = (token, info.streams, pure)
    return out


def _is_pure_root(instr: Instruction) -> bool:
    return instr.opcode == _STREAM_BIND


def _fingerprint_instruction(instr: Instruction, env: Dict[str, tuple]
                             ) -> Optional[InstructionFP]:
    if instr.opcode in _SIDE_EFFECTS:
        return None
    tokens: List[str] = [instr.opcode]
    streams: set = set()
    pure = instr.opcode not in _MUTABLE_BINDS
    for arg in instr.args:
        if isinstance(arg, Var):
            bound = env.get(arg.name)
            if bound is None:
                # unknown provenance (externally injected binding):
                # name it, but refuse to recycle anything built on it
                tokens.append(f"ext:{arg.name}")
                pure = False
                continue
            token, arg_streams, arg_pure = bound
            tokens.append(token)
            streams |= arg_streams
            pure = pure and arg_pure
        elif isinstance(arg, Const):
            tokens.append(_const_token(arg.value))
        else:
            tokens.append(f"raw:{arg!r}")
    if instr.opcode == _STREAM_BIND and instr.args:
        first = instr.args[0]
        if isinstance(first, Const):
            streams.add(str(first.value).lower())
    fp = _digest("(".join(tokens))
    # binds themselves are a dict lookup — fingerprint them (they anchor
    # downstream digests) but do not spend cache space on them
    recyclable = (pure and bool(instr.results)
                  and instr.opcode != _STREAM_BIND)
    return InstructionFP(fp, frozenset(streams), recyclable)


# ---------------------------------------------------------------------
# per-plan digest cache
# ---------------------------------------------------------------------
#
# A factory's program is static after registration, so the
# per-instruction analysis is computed at most once per (program,
# version); the program's ``version`` counter invalidates the entry if
# the program is ever mutated after being fingerprinted. Keyed weakly
# so dropped queries do not pin their programs.

_FP_CACHE: "weakref.WeakKeyDictionary[MALProgram, tuple]" = \
    weakref.WeakKeyDictionary()
_FP_STATS = {"hits": 0, "misses": 0}


def cached_fingerprints(program: MALProgram
                        ) -> List[Optional[InstructionFP]]:
    """Memoized :func:`fingerprint_program` (treat the list as
    read-only — it is shared across callers)."""
    version = getattr(program, "version", None)
    entry = _FP_CACHE.get(program)
    if entry is not None and entry[0] == version:
        _FP_STATS["hits"] += 1
        return entry[1]
    _FP_STATS["misses"] += 1
    fps = fingerprint_program(program)
    _FP_CACHE[program] = (version, fps)
    return fps


def fingerprint_cache_stats() -> Dict[str, int]:
    """Process-wide digest-cache counters (monitor ``.interp`` pane)."""
    return {"fp_cache_hits": _FP_STATS["hits"],
            "fp_cache_misses": _FP_STATS["misses"],
            "fp_cache_entries": len(_FP_CACHE)}
