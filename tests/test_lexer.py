"""Unit tests for the SQL tokenizer."""

import pytest

from repro.errors import LexerError
from repro.sql.lexer import tokenize


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]


class TestBasics:
    def test_keywords_case_insensitive(self):
        assert kinds("SELECT select SeLeCt") == [
            ("KEYWORD", "select")] * 3

    def test_identifiers_lowercased(self):
        assert kinds("MyTable") == [("IDENT", "mytable")]

    def test_quoted_identifier_preserved(self):
        assert kinds('"MyCol"') == [("IDENT", "MyCol")]

    def test_eof_token(self):
        tokens = tokenize("select")
        assert tokens[-1].kind == "EOF"

    def test_punctuation(self):
        assert [k for k, _v in kinds("( ) , . ; [ ]")] == ["PUNCT"] * 7


class TestNumbers:
    def test_integer(self):
        assert kinds("42") == [("NUMBER", 42)]

    def test_float(self):
        assert kinds("4.25") == [("NUMBER", 4.25)]

    def test_leading_dot(self):
        assert kinds(".5") == [("NUMBER", 0.5)]

    def test_scientific(self):
        assert kinds("1e3 2.5E-1") == [("NUMBER", 1000.0),
                                       ("NUMBER", 0.25)]

    def test_int_stays_int(self):
        value = tokenize("7")[0].value
        assert isinstance(value, int)


class TestStrings:
    def test_simple(self):
        assert kinds("'hello'") == [("STRING", "hello")]

    def test_quote_escape(self):
        assert kinds("'it''s'") == [("STRING", "it's")]

    def test_empty(self):
        assert kinds("''") == [("STRING", "")]

    def test_unterminated(self):
        with pytest.raises(LexerError):
            tokenize("'oops")


class TestOperators:
    def test_multichar_greedy(self):
        assert kinds("<= >= <> !=") == [
            ("OP", "<="), ("OP", ">="), ("OP", "<>"), ("OP", "!=")]

    def test_arith(self):
        assert [v for _k, v in kinds("+ - * / %")] == \
            ["+", "-", "*", "/", "%"]

    def test_concat_op(self):
        assert kinds("a || b") == [("IDENT", "a"), ("OP", "||"),
                                   ("IDENT", "b")]


class TestComments:
    def test_line_comment(self):
        assert kinds("select -- comment\n 1") == [
            ("KEYWORD", "select"), ("NUMBER", 1)]

    def test_block_comment(self):
        assert kinds("select /* x\ny */ 1") == [
            ("KEYWORD", "select"), ("NUMBER", 1)]

    def test_unterminated_block(self):
        with pytest.raises(LexerError):
            tokenize("select /* oops")


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(LexerError) as err:
            tokenize("select @")
        assert err.value.position == 7


class TestPositions:
    def test_every_token_starts_at_its_pos(self):
        tokens = tokenize("x = 'ab' + 123")
        assert [t.pos for t in tokens] == [0, 2, 4, 9, 11, 14]


class TestLiteralRows:
    def test_literal_rows_are_one_token_each(self):
        tokens = tokenize("INSERT INTO t VALUES (1, -2.5e1, 'a''b', "
                          "NULL, TRUE) , ( +3 ,false)")
        assert [(t.kind, t.value, t.pos) for t in tokens[3:]] == [
            ("KEYWORD", "values", 14),
            ("ROW", [1, -25.0, "a'b", None, True], 21),
            ("PUNCT", ",", 53),
            ("ROW", [3, False], 55),
            ("EOF", None, 67)]

    def test_a_row_with_an_expression_is_tokenised(self):
        assert kinds("VALUES (1, x), (2)") == [
            ("KEYWORD", "values"), ("PUNCT", "("), ("NUMBER", 1),
            ("PUNCT", ","), ("IDENT", "x"), ("PUNCT", ")"),
            ("PUNCT", ","), ("PUNCT", "("), ("NUMBER", 2),
            ("PUNCT", ")")]

    def test_literal_rows_stop_at_the_first_expression_row(self):
        assert [k for k, _v in kinds("VALUES (1), (1 + 1), (3)")] == [
            "KEYWORD", "ROW", "PUNCT", "PUNCT", "NUMBER", "OP", "NUMBER",
            "PUNCT", "PUNCT", "PUNCT", "NUMBER", "PUNCT"]

    def test_only_after_values(self):
        assert [k for k, _v in kinds("IN (1, 2)")] == [
            "KEYWORD", "PUNCT", "NUMBER", "PUNCT", "NUMBER", "PUNCT"]

    def test_separator_characters_inside_strings(self):
        assert kinds("VALUES ('a, (b)', ' -- ', '/* x */')") == [
            ("KEYWORD", "values"), ("ROW", ["a, (b)", " -- ", "/* x */"])]

    def test_malformed_number_in_a_row_still_raises(self):
        with pytest.raises(LexerError):
            tokenize("VALUES (1e)")


class TestUnicode:
    def test_non_ascii_identifier_and_string(self):
        assert kinds("café 'naïve'") == [("IDENT", "café"),
                                          ("STRING", "naïve")]

    @pytest.mark.parametrize("text", ["²", "x ½", "1 ²"])
    def test_numeric_symbols_are_not_identifiers(self, text):
        with pytest.raises(LexerError):
            tokenize(text)


class TestTokenHelpers:
    def test_is_keyword(self):
        token = tokenize("select")[0]
        assert token.is_keyword("select")
        assert not token.is_keyword("from")

    def test_matches(self):
        token = tokenize("42")[0]
        assert token.matches("NUMBER")
        assert token.matches("NUMBER", 42)
        assert not token.matches("NUMBER", 43)
