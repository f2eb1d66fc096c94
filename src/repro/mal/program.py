"""MAL-like programs: the executable form of query plans.

MonetDB compiles SQL into MAL (the MonetDB Assembly Language), a flat
SSA-style instruction sequence over BATs. DataCell's rewriter operates on
that representation: it swaps ``sql.bind`` for ``basket.bind``, brackets
the body with basket locking/draining, and keeps the program resident as
a *factory*. We reproduce the same pipeline so the demo's "how a normal
query plan changes into a continuous plan" can be inspected textually
(:meth:`MALProgram.pretty`).
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.errors import MALError


class Var:
    """A reference to an SSA variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Var", self.name))


class Const:
    """An inline constant argument."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __repr__(self) -> str:
        if isinstance(self.value, str):
            return '"' + self.value.replace('"', '\\"') + '"'
        if self.value is None:
            return "nil"
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return repr(self.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        try:
            return hash(("Const", self.value))
        except TypeError:
            return hash(("Const", repr(self.value)))


class Instruction:
    """``(r1, r2, ...) := module.fn(arg, ...)``"""

    __slots__ = ("results", "opcode", "args", "comment")

    def __init__(self, results: Sequence[str], opcode: str,
                 args: Sequence[Any], comment: str = ""):
        if "." not in opcode:
            raise MALError(f"opcode {opcode!r} must be module.function")
        self.results = list(results)
        self.opcode = opcode
        self.args = list(args)
        self.comment = comment

    @property
    def module(self) -> str:
        return self.opcode.split(".", 1)[0]

    def render(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        call = f"{self.opcode}({args});"
        if not self.results:
            text = call
        elif len(self.results) == 1:
            text = f"{self.results[0]} := {call}"
        else:
            text = f"({', '.join(self.results)}) := {call}"
        if self.comment:
            text += f"  # {self.comment}"
        return text

    def __repr__(self) -> str:
        return self.render()


class MALProgram:
    """A straight-line MAL program with a fresh-variable factory.

    ``kind`` is ``"query"`` for one-shot programs and ``"factory"`` after
    the DataCell rewriter has converted it to a resident continuous plan.
    """

    def __init__(self, name: str = "user.main", kind: str = "query"):
        self.name = name
        self.kind = kind
        self.instructions: List[Instruction] = []
        self._counter = 0
        # bumped on every structural mutation; the fingerprint digest
        # cache and the slot compiler key their memos on it so a stale
        # compilation can never be served for an edited program
        self.version = 0

    def fresh(self, prefix: str = "X") -> Var:
        self._counter += 1
        return Var(f"{prefix}_{self._counter}")

    def emit(self, opcode: str, *args: Any, results: int = 1,
             comment: str = "") -> Any:
        """Append an instruction; returns its result Var(s) (or None)."""
        out = [self.fresh() for _ in range(results)]
        self.instructions.append(
            Instruction([v.name for v in out], opcode, list(args), comment))
        self.version += 1
        if results == 0:
            return None
        if results == 1:
            return out[0]
        return tuple(out)

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)
        self.version += 1

    def opcodes(self) -> List[str]:
        return [i.opcode for i in self.instructions]

    def count_module(self, module: str) -> int:
        return sum(1 for i in self.instructions if i.module == module)

    def copy(self) -> "MALProgram":
        out = MALProgram(self.name, self.kind)
        out.instructions = [Instruction(list(i.results), i.opcode,
                                        list(i.args), i.comment)
                            for i in self.instructions]
        out._counter = self._counter
        return out

    def pretty(self) -> str:
        head = ("function" if self.kind == "query" else "factory")
        lines = [f"{head} {self.name}();"]
        for instr in self.instructions:
            lines.append("    " + instr.render())
        lines.append(f"end {self.name};")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"MALProgram({self.name}, {self.kind}, {len(self)} ops)"
