"""SQL tokenizer.

One compiled master pattern scans the text into a flat token list.
Keywords are case-insensitive; identifiers are lower-cased (MonetDB folds
unquoted identifiers to lower case). String literals use single quotes
with ``''`` escaping; ``--`` starts a line comment and ``/* */`` a block
comment. Every token's ``pos`` is its start offset.

A literal ``VALUES`` row — ``(`` cells ``)`` where every cell is a
signed number, a string, ``NULL``, ``TRUE`` or ``FALSE`` — is one ``ROW``
token whose value is the list of the cells' Python values, when it
follows ``VALUES`` or the ``,`` after such a row. Any other row is
tokenised cell by cell and parsed as expressions, and so is a row with
an integer not strictly inside int64, whose meaning binding gives it: a
``ROW``'s values are stored as they stand. A whole list of rows
free of strings is first decoded by one ``orjson.loads`` (JSON's number
grammar is a subset of SQL's, with the same values); text JSON rejects
takes the row-by-row regex path.
"""

from __future__ import annotations

import re
from typing import List

import orjson

from repro.errors import LexerError

KEYWORDS = frozenset("""
    select from where group by having order asc desc limit offset distinct
    and or not in is null like between as join inner left on cross
    create table stream drop insert into values index using
    range slide seconds tuples case when then else end cast
    true false count sum avg min max continuous query
    outer union all delete update set explain
""".split())

# the quoting and comment rules, shared by the tokenizer and the
# statement splitter
_STRING = r"'[^']*(?:''[^']*)*'"
_QUOTED = r'"[^"]*"'
_COMMENT = r"--[^\n]*|/\*.*?\*/"
_OPEN = r"/\*|['\"]"    # the start of one of them left unterminated
_SKIP = rf"(?:\s+|{_COMMENT})*"
_UNSIGNED = r"(?:\d+(?:\.\d*)?|\.\d+)"

# multi-character operators first so the scanner is greedy; an
# unterminated quote or block comment (OPEN) is caught before the
# operators and punctuation, any other stray character (BAD) after them
_TOKEN = re.compile(
    rf"{_SKIP}(?:(?P<NUMBER>{_UNSIGNED}(?:[eE][+-]?\d*)?)"
    rf"|(?P<STRING>{_STRING})|(?P<QUOTED>{_QUOTED})"
    rf"|(?P<WORD>[^\W\d]\w*)|(?P<OPEN>{_OPEN})"
    r"|(?P<OP><>|<=|>=|!=|\|\||[=<>+\-*/%])|(?P<PUNCT>[(),.;\[\]])"
    r"|(?P<BAD>.)|(?P<EOF>\Z))", re.DOTALL)

_CELL = rf"[+-]?{_UNSIGNED}(?:[eE][+-]?\d+)?|{_STRING}|(?i:null|true|false)"
# a literal row and the `,` after it (a comment around either falls back
# to one token per cell)
_ROW = re.compile(
    rf"\s*(\((?:\s*(?:{_CELL})\s*,)*\s*(?:{_CELL})\s*\))\s*(,)?")
# the cells of a matched row: strings, and runs free of separators
_CELLS = re.compile(rf"{_STRING}|[^\s,()']+")
_WORDS = {"null": None, "true": True, "false": False}
# a number with fewer digits than 2**63 is inside int64
_INT64_EDGE, _WIDE = 2 ** 63, re.compile(r"\d{19}")
# a literal list as JSON text: parentheses become brackets; brackets and
# braces, which JSON would read as lists and objects, a character it
# rejects
_AS_JSON = str.maketrans("()[]{}", "[]####")

_UNTERMINATED = {"'": "unterminated string literal",
                 '"': "unterminated quoted identifier",
                 "/*": "unterminated block comment"}


class Token:
    """One lexical token: ``kind`` in IDENT/KEYWORD/NUMBER/STRING/OP/PUNCT/
    ROW/EOF."""

    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, @{self.pos})"

    def is_keyword(self, word: str) -> bool:
        return self.kind == "KEYWORD" and self.value == word

    def matches(self, kind: str, value=None) -> bool:
        return self.kind == kind and (value is None or self.value == value)


def tokenize(text: str) -> List[Token]:
    """Scan *text* into tokens ending with one EOF token."""
    tokens: List[Token] = []
    pos = 0
    row_next = False    # may a literal VALUES row start here?
    while True:
        if row_next:
            m = _ROW.match(text, pos)
            values = _row_values(m.group(1)) if m else None
            if values is not None:
                tokens.append(Token("ROW", values, m.start(1)))
                pos = m.end()
                if m.group(2):
                    tokens.append(Token("PUNCT", ",", m.start(2)))
                    continue
            row_next = False
        m = _TOKEN.match(text, pos)
        kind = m.lastgroup
        start = m.start(kind)
        raw = m.group(kind)
        pos = m.end()
        if kind == "WORD":
            if not (raw[0].isalpha() or raw[0] == "_"):
                raise LexerError(f"unexpected character {raw[0]!r}", start)
            word = raw.lower()
            if word in KEYWORDS:
                tokens.append(Token("KEYWORD", word, start))
                if word == "values":
                    end = _literal_list(text, pos, tokens)
                    row_next = end == pos
                    pos = end
            else:
                tokens.append(Token("IDENT", word, start))
        elif kind == "PUNCT":
            tokens.append(Token("PUNCT", raw, start))
        elif kind == "NUMBER":
            try:
                value = _number(raw)
            except ValueError:
                raise LexerError(f"bad numeric literal {raw!r}",
                                 start) from None
            tokens.append(Token("NUMBER", value, start))
        elif kind == "STRING":
            tokens.append(Token("STRING", raw[1:-1].replace("''", "'"),
                                start))
        elif kind == "QUOTED":
            tokens.append(Token("IDENT", raw[1:-1], start))
        elif kind == "OP":
            tokens.append(Token("OP", raw, start))
        elif kind == "EOF":
            tokens.append(Token("EOF", None, start))
            return tokens
        elif kind == "OPEN":
            raise LexerError(_UNTERMINATED[raw],
                             len(text) if raw == "'" else start)
        else:
            raise LexerError(f"unexpected character {raw!r}", start)


def _literal_list(text: str, pos: int, tokens: List[Token]) -> int:
    """Append the ``ROW`` tokens, and the ``,`` between them, of the
    literal list from *pos* to the first ``;``, decoded in one scan;
    returns where the list ends, or *pos* (nothing appended) unless JSON
    reads it as SQL does: a list of non-empty, flat rows of numbers,
    ``NULL``, ``TRUE`` and ``FALSE``."""
    stop = text.find(";", pos)
    body = text[pos:] if stop < 0 else text[pos:stop]
    # a JSON string is an SQL quoted identifier; a wide number may sit
    # at int64's edge, which the row by row path checks (and orjson
    # would read one beyond 64 bits as a float)
    if '"' in body or _WIDE.search(body):
        return pos
    try:
        # lower-casing makes NULL/TRUE/FALSE JSON's words and the NaN
        # and Infinity json.loads would take names JSON rejects
        rows = orjson.loads("[" + body.lower().translate(_AS_JSON) + "]")
    except orjson.JSONDecodeError:
        return pos
    # a row is a list with its own "(": one "(" per row, none nested
    if not rows or body.count("(") != len(rows) \
            or not all(type(row) is list and row for row in rows):
        return pos
    at = pos
    for i, values in enumerate(rows):
        if i:
            at = text.find(",", text.find(")", at))
            tokens.append(Token("PUNCT", ",", at))
        at = text.find("(", at)
        tokens.append(Token("ROW", values, at))
    return pos + len(body)


def _number(raw: str):
    return float(raw) if "." in raw or "e" in raw or "E" in raw \
        else int(raw)


def literal_row(text: str) -> list:
    """The values of *text* read as the cells of one literal row —
    ``1, 'a,b', null`` without the parentheses — by the rule of a
    ``VALUES`` row (the shell's ``.feed``, ``repro send``); raises
    :class:`LexerError` unless the whole text is such a row."""
    row = f"({text})"
    tokens: List[Token] = []
    if _literal_list(row, 0, tokens) == len(row) and len(tokens) == 1:
        return tokens[0].value
    m = _ROW.fullmatch(row)
    values = _row_values(m.group(1)) if m else None
    if values is None:
        raise LexerError(
            f"not a row of literals: {text!r} (cells are numbers, "
            f"integers strictly inside int64, "
            f"'strings', null, true or false; write null for a missing "
            f"value)")
    return values


def _row_values(row: str):
    """The Python values of a matched ``(...)`` literal row, or None if
    a number is too long for ``int`` or an integer is not strictly
    inside int64 (the cell by cell path gives it its meaning)."""
    cells = _CELLS.findall(row) if "'" in row else row[1:-1].split(",")
    try:
        return [_cell(c) for c in cells]
    except ValueError:
        return None


def _cell(raw: str):
    """The Python value of one cell of a matched literal row."""
    raw = raw.strip()
    head = raw[0]
    if head == "'":
        return raw[1:-1].replace("''", "'")
    if head.isalpha():
        return _WORDS[raw.lower()]
    value = _number(raw)
    if type(value) is int and abs(value) >= _INT64_EDGE:
        raise ValueError(raw)
    return value


_STATEMENT = re.compile(
    rf"(?:[^;'\"/-]+|{_STRING}|{_QUOTED}|{_COMMENT}|(?:{_OPEN}).*|[/-])+",
    re.DOTALL)


def split_statements(text: str) -> List[str]:
    """Split a script on the ``;`` that end statements — not those inside
    a string, quoted identifier or comment; drops empty pieces. An
    unterminated quote or comment runs to the end of the text."""
    return [p for p in (s.strip() for s in _STATEMENT.findall(text)) if p]
