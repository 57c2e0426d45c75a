import pytest

from helpers import run_on_small_stack

from ambit import NIL, equal, intern, read_all
from ambit.errors import LexError, ParseError
from ambit.reader import EntryReader
from ambit.values import Pair, to_pylist


def first_value(text):
    datums = read_all(text)
    assert len(datums) == 1
    return datums[0].value


def shape(value):
    """A proper list as the list of its elements' shapes, a vector as a
    tuple of them, and any other datum as the name of its type."""
    if isinstance(value, Pair):
        return [shape(item) for item in to_pylist(value)]
    if type(value) is list:
        return tuple(shape(item) for item in value)
    return type(value).__name__


def read_error(text):
    """The LexError or ParseError that `read_all(text)` raises."""
    with pytest.raises((LexError, ParseError)) as excinfo:
        read_all(text)
    return excinfo.value


def test_tokenize_simple_application():
    assert shape(first_value("(+ 1 2)")) == ["Symbol", "int", "int"]


def test_tokenize_quote_shorthand():
    value = first_value("'x")
    assert shape(value) == ["Symbol", "Symbol"]
    assert value.car is intern("quote")


def test_tokenize_bracket_binding_form():
    assert shape(first_value("(let ([x 1]) x)")) == [
        "Symbol", [["Symbol", "int"]], "Symbol"]


def test_token_positions_point_at_first_character():
    value = first_value("(ab\n  cd)")
    assert value.loc == (1, 1)
    assert value.cdr.loc == (2, 3)
    assert [(d.line, d.col) for d in read_all("ab\n  cd")] == [
        (1, 1), (2, 3)]
    err = read_error("(ab\n  cd]")
    assert (err.message, err.line, err.col) == (
        "mismatched delimiter: '(' closed by ']'", 2, 5)


def test_token_positions_nondecreasing():
    value = first_value('(z a "x\ny" [b . c] 1.5 #t)')
    locs = []
    while value is not NIL:
        locs.append(value.loc)
        value = value.cdr
    assert locs == [(1, 1), (1, 4), (1, 6), (2, 4), (2, 12), (2, 16)]


def test_comments_and_whitespace_skipped():
    datums = read_all("; nothing\n  1 ; trailing\n2")
    assert [(d.value, d.line, d.col) for d in datums] == [
        (1, 2, 3), (2, 3, 1)]


def test_string_escapes():
    assert first_value(r'"a\"b\\c\nd\te"') == 'a"b\\c\nd\te'


def test_unterminated_string_is_lex_error_with_location():
    err = read_error('(foo "bar')
    assert type(err) is LexError
    assert (err.message, err.line, err.col) == (
        "unterminated string literal", 1, 6)
    assert err.unexpected_eof


def test_unknown_escape_is_lex_error():
    err = read_error(r'"\q"')
    assert type(err) is LexError
    assert (err.message, err.line, err.col) == (
        "unknown string escape '\\q'", 1, 2)


def test_illegal_hash_sequence_is_lex_error():
    err = read_error("#x")
    assert type(err) is LexError
    assert (err.message, err.line, err.col) == (
        "illegal character sequence '#x'", 1, 1)


def test_number_classification():
    assert first_value("-5") == -5
    assert first_value("+7") == 7
    assert first_value("1.5") == 1.5
    assert first_value("1e3") == 1000.0
    assert first_value("-2.5e-2") == -0.025


def test_a_decimal_may_start_with_its_point():
    # R7RS 7.1.1 <decimal 10>; a point with no digit after it starts no
    # number, so these spellings are unchanged
    assert [first_value(text) for text in (".5", "-.5", "+.5", ".5e1")] == [
        0.5, -0.5, 0.5, 5.0]
    assert first_value("...") is intern("...")
    assert first_value(".foo") is intern(".foo")
    assert first_value("-.x") is intern("-.x")
    value = first_value("(a . b)")
    assert (value.car, value.cdr) == (intern("a"), intern("b"))
    value = first_value("(a .5 . .5)")
    assert (value.cdr.car, value.cdr.cdr) == (0.5, 0.5)
    err = read_error(".5x")
    assert (type(err), err.message) == (LexError, "malformed number '.5x'")


def test_plus_minus_alone_are_symbols():
    assert first_value("-") is intern("-")
    assert first_value("+") is intern("+")
    assert first_value("-x") is intern("-x")


def test_malformed_number_is_lex_error():
    err = read_error("1abc")
    assert type(err) is LexError
    assert (err.message, err.line, err.col) == (
        "malformed number '1abc'", 1, 1)


def test_int64_range_enforced():
    assert first_value(str(2 ** 63 - 1)) == 2 ** 63 - 1
    assert first_value(str(-(2 ** 63))) == -(2 ** 63)
    err = read_error(str(2 ** 63))
    assert type(err) is LexError
    assert (err.message, err.line, err.col) == (
        f"integer literal out of 64-bit range: {2 ** 63}", 1, 1)


def test_dotted_pair():
    value = first_value("(a . b)")
    assert isinstance(value, Pair)
    assert value.car is intern("a")
    assert value.cdr is intern("b")


def test_question_symbols_are_plain_symbols_at_read_time():
    value = first_value("(and ?exp)")
    assert value.car is intern("and")
    assert value.cdr.car is intern("?exp")


def test_vector_literal():
    assert first_value("#(1 2)") == [1, 2]


def test_quote_shorthands_expand_to_lists():
    assert equal(first_value("'x"),
                 Pair(intern("quote"), Pair(intern("x"), NIL)))
    assert equal(first_value(",@x"),
                 Pair(intern("unquote-splicing"), Pair(intern("x"), NIL)))
    assert first_value("`(a ,b)").car is intern("quasiquote")


def test_read_all_empty_input():
    assert read_all("") == []
    assert read_all("  ; comment only\n") == []


def test_read_all_multiple_datums():
    datums = read_all("1 2 3")
    assert [d.value for d in datums] == [1, 2, 3]


def test_read_datum_advances_cursor():
    first, second = read_all("1 (2 3)")
    assert (first.value, first.line, first.col) == (1, 1, 1)
    assert shape(second.value) == ["int", "int"]
    assert (second.line, second.col) == (1, 3)


def test_datum_location_is_first_token():
    datums = read_all("\n  (a b)")
    assert (datums[0].line, datums[0].col) == (2, 3)


def test_mismatched_delimiters_rejected():
    with pytest.raises(ParseError):
        read_all("(a]")
    with pytest.raises(ParseError):
        read_all("[a)")


def test_unclosed_list_is_parse_error_flagged_incomplete():
    with pytest.raises(ParseError) as excinfo:
        read_all("(a (b c)")
    assert excinfo.value.unexpected_eof


def test_stray_close_and_dot_rejected():
    with pytest.raises(ParseError):
        read_all(")")
    with pytest.raises(ParseError):
        read_all("(. a)")
    with pytest.raises(ParseError):
        read_all("(a . b c)")


def test_parse_errors_name_the_lexeme_they_stop_at():
    tail = "expected a single datum after '.'"
    cases = {
        "(a . b ')": (tail, 1, 8),
        "(a . b #(1))": (tail, 1, 8),
        "(a . b (c))": (tail, 1, 8),
        '(a . b "s")': (tail, 1, 8),
        "(a . b . c)": (tail, 1, 8),
        "(a . b]": (tail, 1, 7),
        "(a . )": ("unexpected ')'", 1, 6),
        "#(1 . 2)": ("unexpected '.' in vector", 1, 5),
        "#(1]": ("unexpected ']' in vector", 1, 4),
        "'.": ("'.' is not the start of a datum", 1, 2),
    }
    for text, expected in cases.items():
        err = read_error(text)
        assert type(err) is ParseError, text
        assert (err.message, err.line, err.col) == expected, text


def test_color_europe_program_parses():
    from helpers import COLOR_EUROPE_PROGRAM

    datums = read_all(COLOR_EUROPE_PROGRAM)
    assert len(datums) == 3
    heads = [d.value.car.name for d in datums]
    assert heads == ["define", "define-syntax", "define"]


def test_tokenize_numbers_lines_from_the_given_start():
    head = ["(x\n"] + ["\n"] * 5
    entry = EntryReader()
    for line in head + ["a\n"]:
        assert entry.feed_line(line) is None
    value = entry.feed_line("  b)\n")[0].value
    assert (value.cdr.loc, value.cdr.cdr.loc) == ((7, 1), (8, 3))
    for line in head + ["a\n"]:
        assert entry.feed_line(line) is None
    assert entry.feed_line("  b .") is None
    err = entry.eof_error()
    assert (err.message, err.line, err.col) == (
        "unexpected end of input", 8, 6)


def test_parser_fed_one_token_at_a_time_matches_one_read():
    # a lexeme a line, and no line but the last ends the entry
    text = "\n".join(("(", "a", "[", "b", ".", "c", "]", "#(", "1", "2", ")",
                      "'", "d", ") `", "(", "e", ",", "f", ') "s', 't"'))
    whole = read_all(text)
    entry = EntryReader()
    got = []
    for line in text.splitlines(keepends=True):
        got.extend(entry.feed_line(line) or ())
    assert entry.lines == []
    assert [(d.line, d.col) for d in got] == [(d.line, d.col) for d in whole]
    assert all(equal(a.value, b.value) for a, b in zip(got, whole))
    assert len(got) == len(whole) == 3


def test_eof_errors_name_the_innermost_open_construct():
    cases = {
        "(a [b": ("unclosed '['", 1, 4),
        "#(1 (2) 3": ("unclosed '#('", 1, 1),
        "(a . b": ("unclosed '('", 1, 1),
        "(a .": ("unexpected end of input", 1, 5),
        "(a '": ("unexpected end of input", 1, 5),
    }
    for text, expected in cases.items():
        with pytest.raises(ParseError) as excinfo:
            read_all(text)
        err = excinfo.value
        assert (err.message, err.line, err.col) == expected, text
        assert err.unexpected_eof


def depth_of(value, step):
    depth = 0
    while isinstance(value, Pair):
        value = step(value)
        depth += 1
    return depth


def test_deep_quote_reads_on_small_stack():
    datums = run_on_small_stack(lambda: read_all("'" * 5000 + "x"))
    value = datums[0].value
    assert depth_of(value, lambda v: v.cdr.car) == 5000


def test_deep_nested_list_reads_on_small_stack():
    n = 100_000
    datums = run_on_small_stack(lambda: read_all("(" * n + ")" * n))
    # n - 1 pairs around the innermost ()
    assert depth_of(datums[0].value, lambda v: v.car) == n - 1


def test_entry_reader_holds_datums_until_the_entry_closes():
    entry = EntryReader()
    assert entry.feed_line("1 (a\n") is None
    datums = entry.feed_line("  b) 2\n")
    assert [d.value for d in datums][::2] == [1, 2]
    assert (datums[1].line, datums[1].col) == (1, 3)
    assert entry.lines == []


def test_entry_reader_implies_a_line_s_missing_final_newline():
    entry = EntryReader()
    assert entry.feed_line("(ab") is None
    got = entry.feed_line("c)\n")
    whole = read_all("(ab\nc)\n")
    assert len(got) == len(whole) == 1
    assert equal(got[0].value, whole[0].value)
    assert to_pylist(got[0].value) == [intern("ab"), intern("c")]
    assert got[0].value.cdr.loc == whole[0].value.cdr.loc == (2, 1)


def test_entry_reader_lexes_a_string_across_lines_together():
    entry = EntryReader()
    assert entry.feed_line('(f "a ( ;\n') is None
    assert entry.feed_line('b" c\n') is None
    datums = entry.feed_line(")\n")
    assert datums[0].value.cdr.car == "a ( ;\nb"
    assert datums[0].value.cdr.cdr.car is intern("c")
    assert datums[0].value.cdr.cdr.loc == (2, 4)


def test_entry_reader_reports_an_error_on_its_line_and_starts_over():
    entry = EntryReader()
    assert entry.feed_line("(a\n") is None
    with pytest.raises(ParseError) as excinfo:
        entry.feed_line("  b . c d)\n")
    assert (excinfo.value.line, excinfo.value.col) == (2, 9)
    assert entry.lines == []
    assert entry.feed_line("(+ 1 2)\n")[0].value.car is intern("+")


def test_the_first_error_in_text_order_is_raised():
    err = read_error(") #x")
    assert (type(err), err.message, err.line, err.col) == (
        ParseError, "unexpected ')'", 1, 1)
    with pytest.raises(ParseError) as excinfo:
        EntryReader().feed_line(') "open\n')
    assert (excinfo.value.line, excinfo.value.col) == (1, 1)


def test_a_backslash_ending_the_input_leaves_its_string_open():
    err = read_error('(f "a\\')
    assert (type(err), err.message, err.line, err.col) == (
        LexError, "unterminated string literal", 1, 4)
    entry = EntryReader()
    assert entry.feed_line('"a\\') is None
    assert entry.feed_line('n"\n')[0].value == "a\n"


def test_pair_locations():
    value = read_all("(a\n (b c) 'd . e)")[0].value
    assert value.loc == (1, 1)                  # head pair: the '('
    assert value.cdr.loc == (2, 2)              # each later pair: its item
    assert value.cdr.car.loc == (2, 2)
    assert value.cdr.car.cdr.loc == (2, 5)
    quoted = value.cdr.cdr.car                  # (quote d)
    assert (value.cdr.cdr.loc, quoted.loc, quoted.cdr.loc) == (
        (2, 8), (2, 8), (2, 9))
    assert value.cdr.cdr.cdr is intern("e")
