"""Literal SQL text: the regex lexer against the per-character scanner it
replaced, and literal ``INSERT ... VALUES`` rows (one ``ROW`` token each,
read without binding) against the expression path. The samplers include
text JSON reads differently from SQL (``NaN``, ``"a"``, ``[1]``, nested
rows, ``\f``), since a literal list is first decoded as JSON.

``reference_tokenize`` below is the scanner the lexer used to be, with
one fix: a NUMBER or STRING token's position is its start, as every
other token's is. It is the oracle for the lexer property; it lives here
and nowhere in ``src/``.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.engine import DataCellEngine
from repro.errors import DataCellError, LexerError, TypeMismatchError
from repro.sql.lexer import KEYWORDS, tokenize

# -- the reference scanner ---------------------------------------------

_OPERATORS = ("<>", "<=", ">=", "!=", "||", "=", "<", ">", "+", "-", "*",
              "/", "%")
_PUNCT = "(),.;[]"


def reference_tokenize(text):
    """[(kind, value, pos)] ending with EOF, or LexerError."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            nl = text.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise LexerError("unterminated block comment", i)
            i = end + 2
            continue
        if ch == "'":
            start = i
            value, i = _scan_string(text, i)
            tokens.append(("STRING", value, start))
            continue
        if ch == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise LexerError("unterminated quoted identifier", i)
            tokens.append(("IDENT", text[i + 1:end], i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n
                            and text[i + 1].isdigit()):
            start = i
            value, i = _scan_number(text, i)
            tokens.append(("NUMBER", value, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i].lower()
            tokens.append(("KEYWORD" if word in KEYWORDS else "IDENT",
                           word, start))
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(("OP", op, i))
                i += len(op)
                break
        else:
            if ch in _PUNCT:
                tokens.append(("PUNCT", ch, i))
                i += 1
                continue
            raise LexerError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", None, n))
    return tokens


def _scan_string(text, i):
    out = []
    i += 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                out.append("'")
                i += 2
                continue
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise LexerError("unterminated string literal", i)


def _scan_number(text, i):
    start = i
    n = len(text)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            seen_exp = True
            i += 1
            if i < n and text[i] in "+-":
                i += 1
        else:
            break
    raw = text[start:i]
    try:
        value = float(raw) if (seen_dot or seen_exp) else int(raw)
    except ValueError:
        raise LexerError(f"bad numeric literal {raw!r}", start) from None
    return value, i


def test_reference_positions_are_starts():
    assert [pos for _k, _v, pos in reference_tokenize("x = 'ab' + 123")] \
        == [0, 2, 4, 9, 11, 14]


# -- generated SQL-ish text ----------------------------------------------

_KEYWORD_VALUES = {"null": None, "true": True, "false": False}


def _typed(values):
    return [(type(v), v) for v in values]


def expanded(text):
    """``tokenize(text)`` as (kind, value, pos), each ROW token replaced
    by the tokens of its source span — after checking that the span's
    cells, signs folded, are exactly the ROW's values."""
    tokens = tokenize(text)
    out = []
    for i, token in enumerate(tokens):
        if token.kind != "ROW":
            out.append((token.kind, token.value, token.pos))
            continue
        span = text[token.pos:tokens[i + 1].pos]
        cells = [(t.kind, t.value, t.pos + token.pos)
                 for t in tokenize(span)[:-1]]
        assert cells[0][:2] == ("PUNCT", "(") and \
            cells[-1][:2] == ("PUNCT", ")")
        values, negate = [], False
        for kind, value, _pos in cells[1:-1]:
            if kind == "OP":
                negate = value == "-"
                continue
            if kind == "PUNCT":
                assert value == ","
                continue
            if kind == "KEYWORD":
                value = _KEYWORD_VALUES[value]
            values.append(-value if negate else value)
            negate = False
        assert _typed(values) == _typed(token.value), span
        out.extend(cells)
    return out


def _quoted(body):
    return "'" + body.replace("'", "''") + "'"


_STRING_BODY = st.lists(st.sampled_from(
    ["a", "Z", " ", "'", "''", ",", "(", ")", "--", "/*", "*/", ";",
     "values", "VALUES", "null", "1", "-2.5", "é", "中", "\n"]),
    max_size=6).map("".join)

_NUMBER_TEXT = st.one_of(
    st.integers(-2 ** 64, 2 ** 64).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "007", ".5", "5.", "1e3", "1E+3", "2.5e-1",
                     "1.e5", "1e400", "9223372036854775807",
                     "-9223372036854775808", "9223372036854775808",
                     "-9223372036854775809", "99999999999999999999",
                     "١٢", "-0", "0.0E+0", "1e999", "-1E999"]))

_BAD_NUMBER = st.sampled_from(["1e", "1e+", "1.5.3", "1..2", "1ee5",
                               "5.e", "1e5e5", "1_000", "1²", "12abc"])

_LITERAL_CELL = st.one_of(
    _NUMBER_TEXT,
    _NUMBER_TEXT.filter(lambda s: s[0] not in "+-").map(lambda s: "+" + s),
    _STRING_BODY.map(_quoted),
    st.sampled_from(["NULL", "null", "Null", "TRUE", "true", "FALSE",
                     "False"]))

_EXPRESSION_CELL = st.sampled_from(
    ["1 + 2", "(3)", "-(4)", "- 5", "+-6", "2 * 3.5", "'a' || 'b'",
     "CAST(7 AS FLOAT)", "CAST('8' AS INT)", "-(-9)", "10 / 4",
     "NULL + 1", "- 9223372036854775808"])

_SPACE = st.sampled_from(["", "", " ", "  ", "\n", "\t", "\r", "\f",
                          "\v"])
# whitespace JSON reads too
_JSON_SPACE = st.sampled_from(["", "", " ", "\n", "\t", "\r"])

# cells JSON reads as SQL does, so that whole lists take the one-scan
# path, and text JSON reads differently: SQL identifiers, JSON strings,
# lists and objects, nested and empty rows, SQL-only numbers
_JSON_CELL = st.one_of(
    st.integers(-2 ** 64, 2 ** 64).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["NULL", "null", "TRUE", "true", "False", "-0",
                     "0.0E+0", "1e999", "-1E-5", "9223372036854775808",
                     "-9223372036854775808"]))
_JSON_TRAP = st.sampled_from(
    ["NaN", "nan", "NAN", "Infinity", "infinity", "-Infinity",
     "-INFINITY", '"a"', "[1]", "{}", "(1)", "(2, 3)", "()", "+7", "007",
     ".5", "5.", "1" + "0" * 5000])
_JSON_LIST_CELL = st.integers(0, 15).flatmap(
    lambda k: _JSON_TRAP if k == 0 else _JSON_CELL)
_ODD_ROW = st.sampled_from(["()", "[1]", "{}", "((1))", "(1, (2))",
                            "[1, 2]", "(NaN)", "(1 + 1)"])


@st.composite
def _row_text(draw, cells, space=_SPACE):
    if draw(st.integers(0, 19)) == 0:
        return draw(_ODD_ROW)
    parts = [draw(space) + draw(cells) + draw(space)
             for _ in range(draw(st.integers(1, 4)))]
    return "(" + ",".join(parts) + ")"


@st.composite
def _values_text(draw):
    space = draw(st.sampled_from([_SPACE, _JSON_SPACE]))
    if space is _JSON_SPACE:
        row = _row_text(_JSON_LIST_CELL, space)
    else:
        row = _row_text(st.one_of(_LITERAL_CELL, _LITERAL_CELL,
                                  _LITERAL_CELL, _EXPRESSION_CELL,
                                  _BAD_NUMBER))
    rows = [draw(row) for _ in range(draw(st.integers(1, 3)))]
    tail = draw(st.sampled_from(["", "", "", ",", "(", "(1,", "(1,)", "()",
                                 "-- end", "/* c */ (2)", ";", "; (1)",
                                 ";\nINSERT INTO t VALUES (1)", "NaN",
                                 "[1]"]))
    seps = [draw(st.sampled_from([",", ", ", " ,", " , ", ",\n", ",\r\n",
                                  ",\f", " /* c */ ,", ", -- c\n"]))
            for _ in rows]
    body = "".join(row + sep for row, sep in zip(rows, seps))
    return draw(st.sampled_from(["VALUES ", "values", "VaLuEs\n",
                                 "VALUES\v"])) + \
        body[:-len(seps[-1])] + draw(space) + tail


_FRAGMENT = st.one_of(
    st.sampled_from(
        ["select", "SELECT", "from", "values", "insert", "into", "null",
         "TRUE", "x", "MyTable", "café", "ß", "_t1", "a1", '"Quoted Id"',
         '"a;b"', '"', "'", "/*", "*/", "--", "-- c's\n", "/* c */",
         "/* it's ; */", "<>", "<=", ">=", "!=", "||", "=", "<", ">",
         "+", "-", "*", "/", "%", "(", ")", ",", ".", ";", "[", "]",
         "NaN", "Infinity", "-Infinity", '"a"', "{", "}", "[1]", "\f",
         "1" + "0" * 5000,
         "@", "#", "$", "²", "½", "\x1c", " ", "e", "E"]),
    _NUMBER_TEXT, _BAD_NUMBER, _STRING_BODY.map(_quoted), _values_text())

_SQLISH = st.lists(st.tuples(_FRAGMENT, _SPACE), max_size=14).map(
    lambda parts: "".join(f + s for f, s in parts))


def _check_against_reference(text):
    try:
        reference = reference_tokenize(text)
    except LexerError:
        with pytest.raises(LexerError):
            tokenize(text)
        return
    assert expanded(text) == reference


class TestLexerMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(_SQLISH)
    def test_same_tokens_or_same_error(self, text):
        _check_against_reference(text)

    @settings(max_examples=300, deadline=None)
    @given(_values_text())
    def test_values_lists(self, text):
        _check_against_reference(text)


# -- INSERT: literal rows against the expression path --------------------

_NULL = st.sampled_from(["NULL", "null"])
_INT_CELL = st.one_of(
    _NULL, st.integers(-2 ** 63, 2 ** 63 - 1).map(str),
    st.sampled_from(["0", "+7", "-1", "2.0", "-3e2", "TRUE", "false",
                     "'12'", "9223372036854775807",
                     "-9223372036854775808", "- 9223372036854775808",
                     "1 + 2", "-(4)", "CAST('8' AS INT)"]))
# a cell of the column's type most of the time, any cell otherwise
_TYPED_CELL = {
    "INT": _INT_CELL, "TIMESTAMP": _INT_CELL,
    "FLOAT": st.one_of(_NULL, _NUMBER_TEXT, st.sampled_from(
        [".5", "-5.", "1e-3", "+2.5E3", "2 * 3.5", "CAST(7 AS FLOAT)"])),
    "STRING": st.one_of(_NULL, _STRING_BODY.map(_quoted),
                        st.just("'a' || 'b'")),
    "BOOLEAN": st.sampled_from(["NULL", "TRUE", "FALSE", "true", "False",
                                "0", "1", "-1"]),
}
_TYPES = sorted(_TYPED_CELL)
_ANY_CELL = st.one_of(_LITERAL_CELL, _EXPRESSION_CELL)


@st.composite
def _insert_case(draw):
    types = draw(st.lists(st.sampled_from(_TYPES), min_size=1,
                          max_size=5))
    names = [f"c{i}" for i in range(len(types))]
    kind = draw(st.sampled_from(["STREAM", "TABLE"]))
    columns = None
    if draw(st.booleans()):
        columns = draw(st.permutations(names))[
            :draw(st.integers(1, len(names)))]
    targets = [types[names.index(c)] for c in columns or names]
    if draw(st.sampled_from([False] * 9 + [True])):
        targets.append("STRING")    # one value too many
    rows = [[draw(_ANY_CELL if draw(st.integers(0, 24)) == 0
                  else _TYPED_CELL[t]) for t in targets]
            for _ in range(draw(st.integers(1, 4)))]
    ddl = f"CREATE {kind} t (" + ", ".join(
        f"{n} {t}" for n, t in zip(names, types)) + ")"
    return kind, ddl, columns, rows


def _insert_sql(columns, rows, wrap):
    cell = (lambda c: f"({c})") if wrap else (lambda c: c)
    head = "INSERT INTO t" + (f" ({', '.join(columns)})"
                              if columns else "")
    return head + " VALUES " + ", ".join(
        "(" + ", ".join(cell(c) for c in row) + ")" for row in rows)


def _run(kind, ddl, sql):
    """(stored rows as repr, None) or (None, error class)."""
    engine = DataCellEngine()
    try:
        engine.execute(ddl)
        try:
            engine.execute(sql)
        except DataCellError as exc:
            return None, type(exc)
        rel = engine.basket("t").relation() if kind == "STREAM" \
            else engine.catalog.table("t").scan()
        return repr(rel.to_rows()), None
    finally:
        engine.close()


class TestLiteralInsertMatchesExpressions:
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_insert_case())
    # a stream's literal rows are stored a column at a time; these need
    # its per-cell path: an int past int64, a bool in a STRING column
    @example(("STREAM", "CREATE STREAM t (c0 INT, c1 STRING)", None,
              [["9223372036854775808", "'a'"]]))
    @example(("STREAM", "CREATE STREAM t (c0 FLOAT, c1 STRING)", None,
              [["1.5", "TRUE"]]))
    def test_stored_columns_identical(self, case):
        kind, ddl, columns, rows = case
        literal = _insert_sql(columns, rows, wrap=False)
        wrapped = _insert_sql(columns, rows, wrap=True)
        assert all(t.kind != "ROW" for t in tokenize(wrapped))
        assert _run(kind, ddl, literal) == _run(kind, ddl, wrapped), \
            literal

    @pytest.mark.parametrize("kind", ["STREAM", "TABLE"])
    def test_int_nil_literal_is_null(self, kind):
        ddl = f"CREATE {kind} t (a INT, b FLOAT, c STRING)"
        cells = ["-9223372036854775808"] * 3
        for wrap in (False, True):
            assert _run(kind, ddl, _insert_sql(None, [cells], wrap)) == \
                (repr([(None, None, None)]), None)


class TestOutOfRangeInteger:
    @pytest.mark.parametrize("value", [
        "99999999999999999999", "9223372036854775808",
        "-9223372036854775809", "1e30"])
    def test_insert_raises_type_mismatch(self, value):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        with pytest.raises(TypeMismatchError):
            engine.execute(f"INSERT INTO s VALUES ({value}, 1.5)")
        # nothing half-appended, and the stream still takes rows
        assert engine.execute("INSERT INTO s VALUES (1, 2.5)") == 1
        assert engine.basket("s").relation().to_rows() == [(1, 2.5)]
        engine.close()

    def test_out_of_range_for_float_raises_type_mismatch(self):
        engine = DataCellEngine()
        engine.execute("CREATE TABLE f (v FLOAT)")
        with pytest.raises(TypeMismatchError):
            engine.execute(f"INSERT INTO f VALUES ({10 ** 400})")
        engine.close()
