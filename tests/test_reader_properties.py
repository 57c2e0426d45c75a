"""Property tests for the reader: line-at-a-time reading, agreement with
the two-pass reader it replaced, and read∘write."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_reader
from helpers import _STRING_CHARS, _SYMBOL_FIRST, _SYMBOL_REST

from ambit import NIL, equal, intern, read_all, write_value
from ambit.errors import LexError, ParseError
from ambit.reader import EntryReader
from ambit.values import INT64_MAX, INT64_MIN, Pair, SourcePair


# --- texts split into lines ------------------------------------------------

# Well-formed pieces, pieces that make errors, and strings that span lines.
_PIECES = ("(", ")", "[", "]", "#(", "'", "`", ",", ",@", ".", "a", "foo?",
           "12", "-3", "1.5e2", "#t", "#f", '"s"', '"two\nlines"',
           '"a (\n;b"', '"\\q"', "#x", "1abc", '"open',
           '"x (\n; \\"y\\\\"', "#(#(1 'a) [b . #()])",
           "'(a . '(b . `#(,c)))", "(x . y", "#(1")
_SEPARATORS = (" ", " ", "\n", "  ", "\n  ", " ; note\n", "\n\n", " ;")


@st.composite
def datum_texts(draw):
    """Token-like pieces joined by blanks, some of which end a line."""
    pieces = draw(st.lists(st.sampled_from(_PIECES), max_size=30))
    seps = draw(st.lists(st.sampled_from(_SEPARATORS),
                         min_size=len(pieces), max_size=len(pieces)))
    return "".join(p + s for p, s in zip(pieces, seps))


def source_locs(value):
    """Every pair's `loc` (None for a plain pair), in print order."""
    locs = []
    todo = [value]
    while todo:
        v = todo.pop()
        if isinstance(v, Pair):
            locs.append(v.loc if isinstance(v, SourcePair) else None)
            todo.append(v.cdr)
            todo.append(v.car)
        elif type(v) is list:
            todo.extend(reversed(v))
    return locs


def summary(datums):
    return [(write_value(d.value), d.line, d.col, source_locs(d.value))
            for d in datums]


def whole_text_outcome(text):
    """What `read_all` makes of `text`: datums, an error, or 'more input'."""
    try:
        return ("done", summary(read_all(text)))
    except (LexError, ParseError) as err:
        if err.unexpected_eof:
            return ("more",)
        return ("error", type(err), err.message, err.line, err.col)


def line_outcome(entry, line):
    try:
        datums = entry.feed_line(line)
    except (LexError, ParseError) as err:
        return ("error", type(err), err.message, err.line, err.col)
    return ("more",) if datums is None else ("done", summary(datums))


@settings(max_examples=400, deadline=None)
@given(datum_texts())
def test_lines_fed_one_at_a_time_read_like_the_whole_entry(text):
    entry = EntryReader()
    pending = ""
    for line in text.splitlines(keepends=True):
        pending += line
        expected = whole_text_outcome(pending)
        assert line_outcome(entry, line) == expected
        if expected[0] != "more":
            pending = ""
    assert "".join(entry.lines) == pending


def error_fields(err):
    return (type(err), err.message, err.line, err.col, err.unexpected_eof)


@settings(max_examples=400, deadline=None)
@given(datum_texts())
def test_read_all_agrees_with_the_reference_reader(text):
    try:
        expected = summary(reference_reader.read_all(text))
    except (LexError, ParseError) as err:
        expected = err
    if not isinstance(expected, Exception):
        assert summary(read_all(text)) == expected
        return
    with pytest.raises((LexError, ParseError)) as excinfo:
        read_all(text)
    if type(excinfo.value) is ParseError:
        try:
            reference_reader.tokenize(text)
        except LexError:
            return  # the parse error comes first in the text
    assert error_fields(excinfo.value) == error_fields(expected)


# --- read∘write round trips ------------------------------------------------

_symbols = st.builds(
    lambda first, rest: intern(first + rest),
    st.sampled_from(_SYMBOL_FIRST),
    st.text(alphabet=_SYMBOL_REST, max_size=6))

_atoms = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(alphabet=_STRING_CHARS, max_size=10),
    _symbols,
    st.just(NIL),
)


def _scheme_list(items, tail=NIL):
    result = tail
    for item in reversed(items):
        result = Pair(item, result)
    return result


def _compounds(children):
    return st.one_of(
        st.lists(children, min_size=1, max_size=4).map(_scheme_list),
        st.tuples(st.lists(children, min_size=1, max_size=4),
                  _atoms.filter(lambda v: v is not NIL)).map(
                      lambda pair: _scheme_list(*pair)),
        st.lists(children, max_size=4),
    )


_values = st.recursive(_atoms, _compounds, max_leaves=30)


def assert_round_trips(value):
    text = write_value(value)
    datums = read_all(text)
    assert len(datums) == 1
    assert equal(datums[0].value, value)
    assert write_value(datums[0].value) == text


@settings(max_examples=300, deadline=None)
@given(_values)
def test_read_after_write_is_identity(value):
    if type(value) is float:
        assert math.isfinite(value)
    assert_round_trips(value)


def _nest(value, shapes):
    for shape in shapes:
        if shape == "list":
            value = Pair(value, NIL)
        elif shape == "vector":
            value = [value]
        elif shape == "quote":
            value = _scheme_list([intern("quote"), value])
        else:
            value = Pair(intern("x"), Pair(value, NIL))
    return value


@settings(max_examples=100, deadline=None)
@given(_values, st.lists(st.sampled_from(("list", "vector", "quote", "tail")),
                         min_size=50, max_size=150))
def test_read_after_write_is_identity_for_deep_data(value, shapes):
    # The writer renders at most 200 levels, so deep data stays below that.
    assert_round_trips(_nest(value, shapes))
