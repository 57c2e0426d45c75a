"""Source text -> s-expression datums, with 1-based source positions.

The reader accepts both `(...)` and `[...]` (a bracket must close the kind
that opened it), quote shorthands, dotted pairs, `#(...)` vectors, `#t`/`#f`,
64-bit integers, and floating-point reals (`.5` among them).  `;` comments
run to end of line.

Reading is one pass.  A master regular expression walks the text one lexeme
at a time, and each delimiter, prefix or atom acts at once on an explicit
stack of open lists, vectors and quote prefixes; no token is ever built.
Nesting costs heap rather than host stack, however deep the input.  The
first error in text order is the one raised.  `EntryReader` reads an entry
of an interactive session a line at a time, each line once: a string
literal still open at the end of a line is a frame on the stack too, and
the next line carries on with it.  `read_all` reads a whole text as one
such line.
"""

import math
import re
from itertools import chain

from .errors import LexError, ParseError
from .values import INT64_MAX, INT64_MIN, NIL, Pair, SourcePair, intern

# used by string->number as well
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_REAL_RE = re.compile(
    r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\Z")
_NUMBER_START = re.compile(r"[+-]?\.?[0-9]")
# the reals written without digits (R7RS 6.2.6)
_INF_NAN = {"+inf.0": math.inf, "-inf.0": -math.inf, "+nan.0": math.nan,
            "-nan.0": math.nan}


class SourceDatum:
    __slots__ = ("value", "line", "col")

    def __init__(self, value, line, col):
        self.value = value
        self.line = line
        self.col = col


_STRING_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}

_QUOTE_NAMES = {
    "'": intern("quote"),
    "`": intern("quasiquote"),
    ",": intern("unquote"),
    ",@": intern("unquote-splicing"),
}

_ATOM = r"""[^ \t\r\n()\[\]";'`,]"""         # a character of an atom
_END = f"(?!{_ATOM})"                         # the atom ends here

# One alternative per kind of lexeme, the commonest first; each takes the
# blanks after it along, so a match starts at its lexeme.  The atoms with a
# group of their own are the common spellings, which need no further
# check: a symbol starting with an ASCII character that cannot start a
# number, a lone sign, or one starting with '.' and then no digit; an
# integer of at most 18 digits; `#t` and `#f`.  Every other atom (a real,
# a longer integer, a malformed number, a longer symbol starting with a
# sign, one starting with a non-ASCII character, `#` followed by anything
# but `(`, `t` or `f`) goes through `_atom`.
_SCAN = re.compile("(?:" + "|".join((
    r"([\x00-\x08\x0b\x0c\x0e-\x1f!$%&*/:<=>?@A-Z\\^_a-z{|}~\x7f]"  # 1 symbol
    + _ATOM + r"*|[+-]" + _END + r"|\.(?![0-9])" + _ATOM + "+)",
    r"([(\[])",                                     # 2 list open
    r"([)\]])",                                     # 3 close
    r"([+-]?[0-9]{1,18})" + _END,                   # 4 integer in range
    r"(\n)",                                        # 5 newline
    r'"((?s:[^"\\]*(?:\\.[^"\\]*)*))"',             # 6 string
    r"('|`|,@?)",                                   # 7 quote prefix
    r"(\.)" + _END,                                 # 8 dot
    r"(#[tf])" + _END,                              # 9 boolean
    r"(#\()",                                       # 10 vector open
    r"(;[^\n]*)",                                   # 11 comment
    r"(" + _ATOM + "+)",                            # 12 any other atom
    r'(")',                                         # 13 string left open
    r"([ \t\r]+)",                                  # 14 blanks at the start
)) + r")[ \t\r]*")

(_SYMBOL, _LIST_OPEN, _CLOSE, _INTEGER, _NEWLINE, _STRING, _QUOTE_PREFIX,
 _DOT, _BOOLEAN, _VECTOR_OPEN, _COMMENT, _OTHER_ATOM, _OPEN_STRING,
 _BLANKS) = range(1, 15)


class _StringEnd:
    """Stands first among a line's matches when the line closes a string
    literal that the line before it left open."""

    lastindex = 0


# What the innermost open construct waits for.  The reader keeps it in
# local variables as a frame (state, loc, opener, anchor, last, closer) and
# pushes the frames around it on a stack.  A list's pairs hang off the cdr
# of a throwaway anchor pair and grow at `last`; a vector's values are a
# Python list in `last`; a quote prefix keeps its symbol in `anchor`; an
# open string literal keeps the text decoded so far in `anchor` and the
# position of a backslash that ended the last line in `last`.  `loc` is
# where the construct starts and `opener` how it starts.
_TOP = "top"              # a datum, or nothing: the reader is idle
_ITEMS = "items"          # list elements, '.', or the closer
_AFTER_DOT = "after-dot"  # the tail datum after '.'
_TAIL = "tail"            # only the closer, the tail having been read
_VECTOR = "vector"        # vector elements or ')'
_QUOTE = "quoted"         # the one datum a quote prefix applies to
_STRING_OPEN = "string"   # the rest of a string literal

_IDLE = (_TOP, None, None, None, None, None)


def _tail_error(line, col):
    return ParseError("expected a single datum after '.'", line, col)


def _scan_string(text, i, line, base, parts, escape):
    """Decode string-literal text from `text[i]` into `parts`, up to the
    closing quote; `escape` is the (line, col) of a backslash whose escape
    starts at `i`, or None.  Returns (j, line, base, escape): j is just past
    the quote, or -1 if `text` ends first.  An unknown escape raises
    LexError at its backslash."""
    n = len(text)
    while i < n:
        ch = text[i]
        if escape is not None:
            decoded = _STRING_ESCAPES.get(ch)
            if decoded is None:
                raise LexError(f"unknown string escape '\\{ch}'", *escape)
            parts.append(decoded)
            escape = None
        elif ch == '"':
            return i + 1, line, base, None
        elif ch == "\\":
            escape = (line, i - base)
        else:
            if ch == "\n":
                line += 1
                base = i
            parts.append(ch)
        i += 1
    return -1, line, base, escape


def _atom(lexeme, text, start, loc):
    """The value of an atom outside the scanner's common spellings."""
    first = lexeme[0]
    if first == "#":
        nxt = text[start + 1:start + 2]
        if nxt in ("t", "f"):
            raise LexError(f"malformed boolean near '{lexeme[:3]}'", *loc)
        raise LexError(f"illegal character sequence '#{nxt}'", *loc)
    if _NUMBER_START.match(lexeme):
        if _INT_RE.match(lexeme):
            value = int(lexeme)
            if not INT64_MIN <= value <= INT64_MAX:
                raise LexError(
                    f"integer literal out of 64-bit range: {lexeme}", *loc)
            return value
        if _REAL_RE.match(lexeme):
            return float(lexeme)
        raise LexError(f"malformed number '{lexeme}'", *loc)
    return _INF_NAN.get(lexeme) or intern(lexeme)


class EntryReader:
    """Reads one entry of an interactive session a line at a time.

    Each line is read once, numbered by its place in the entry, and carries
    on from where the line before it stopped, even inside a string literal.
    The entry is complete at the end of a line that leaves nothing open.
    Line by line, the outcome is that of `read_all` on the entry's text so
    far: the same datums and locations once complete, the same error as
    soon as more input could not mend it, and no result while it could.
    """

    __slots__ = ("lines", "datums", "stack", "frame", "end")

    def __init__(self):
        self._start()

    def _start(self):
        self.lines = []      # the entry's text, one str per line
        self.datums = []     # datums read, held until the entry is complete
        self.stack = []      # the frames around the innermost, outermost first
        self.frame = _IDLE   # the innermost open construct
        self.end = None      # (line, col) just past the text read

    def feed_line(self, line):
        """Add `line`; returns the entry's datums once it is complete and
        None while it is not.  A LexError or ParseError is raised as soon as
        more input could not mend it, and the entry starts over.  Each call
        is one line, its final newline implied, as `readline` gives a file's
        last line: `feed_line('(ab')` then `feed_line('c)')` read `(ab c)`."""
        self.lines.append(line)
        try:
            self.datums += self._read(line, len(self.lines))
        except (LexError, ParseError):
            self._start()
            raise
        if self.frame[0] is not _TOP:
            return None
        datums = self.datums
        self._start()
        return datums

    def eof_error(self):
        """The error for input that ends inside the entry."""
        state, loc, opener = self.frame[:3]
        if state is _STRING_OPEN:
            return LexError("unterminated string literal", *loc,
                            unexpected_eof=True)
        if state is _ITEMS or state is _TAIL or state is _VECTOR:
            return ParseError(f"unclosed '{opener}'", *loc,
                              unexpected_eof=True)
        return ParseError("unexpected end of input", *self.end,
                          unexpected_eof=True)

    def _read(self, text, line):
        """Read `text`, whose first line is numbered `line`, on from the
        current frame; returns the datums it completes."""
        stack = self.stack
        state, oloc, opener, anchor, last, closer = self.frame
        base = -1            # the column of text[i] is i - base
        end = len(text)
        out = []
        if state is not _STRING_OPEN:
            matches = _SCAN.finditer(text)
        else:
            j, line, base, last = _scan_string(text, 0, line, base, anchor,
                                               last)
            if j < 0:
                matches = ()
            else:
                value = "".join(anchor)
                loc = oloc
                state, oloc, opener, anchor, last, closer = stack.pop()
                matches = chain((_StringEnd,), _SCAN.finditer(text, j))
        for m in matches:
            kind = m.lastindex
            if kind == _SYMBOL:
                value = intern(m[kind])
                loc = (line, m.start() - base)
            elif kind == _LIST_OPEN:
                if state is _TAIL:
                    raise _tail_error(line, m.start() - base)
                stack.append((state, oloc, opener, anchor, last, closer))
                opener = m[kind]
                state = _ITEMS
                oloc = (line, m.start() - base)
                anchor = last = Pair(None, NIL)
                closer = ")" if opener == "(" else "]"
                continue
            elif kind == _CLOSE:
                ch = m[kind]
                if state is _ITEMS or state is _TAIL:
                    if ch != closer:
                        if state is _TAIL:
                            raise _tail_error(line, m.start() - base)
                        raise ParseError(
                            f"mismatched delimiter: '{opener}' closed by "
                            f"'{ch}'", line, m.start() - base)
                    value = anchor.cdr
                    if value is not NIL:
                        # The head pair carries the open delimiter's position.
                        value.loc = oloc
                elif state is _VECTOR and ch == ")":
                    value = last
                elif state is _VECTOR:
                    raise ParseError("unexpected ']' in vector",
                                     line, m.start() - base)
                else:
                    raise ParseError(f"unexpected '{ch}'",
                                     line, m.start() - base)
                loc = oloc
                state, oloc, opener, anchor, last, closer = stack.pop()
            elif kind == _INTEGER:
                value = int(m[kind])
                loc = (line, m.start() - base)
            elif kind == _NEWLINE:
                line += 1
                base = m.start()
                continue
            elif kind == _STRING:
                value = m[kind]
                start = m.start()
                loc = (line, start - base)
                if "\\" in value:
                    parts = []
                    _, line, base, _ = _scan_string(text, start + 1, line,
                                                    base, parts, None)
                    value = "".join(parts)
                elif "\n" in value:
                    line += value.count("\n")
                    base = start + 1 + value.rfind("\n")
            elif kind == _QUOTE_PREFIX:
                if state is _TAIL:
                    raise _tail_error(line, m.start() - base)
                stack.append((state, oloc, opener, anchor, last, closer))
                state = _QUOTE
                oloc = (line, m.start() - base)
                anchor = _QUOTE_NAMES[m[kind]]
                continue
            elif kind == _DOT:
                col = m.start() - base
                if state is _ITEMS:
                    if last is anchor:
                        raise ParseError("'.' at start of list", line, col)
                    state = _AFTER_DOT
                    continue
                if state is _VECTOR:
                    raise ParseError("unexpected '.' in vector", line, col)
                if state is _TAIL:
                    raise _tail_error(line, col)
                raise ParseError("'.' is not the start of a datum", line, col)
            elif kind == _BOOLEAN:
                value = m[kind] == "#t"
                loc = (line, m.start() - base)
            elif kind == _VECTOR_OPEN:
                if state is _TAIL:
                    raise _tail_error(line, m.start() - base)
                stack.append((state, oloc, opener, anchor, last, closer))
                state = _VECTOR
                oloc = (line, m.start() - base)
                opener = "#("
                last = []
                continue
            elif kind == _COMMENT:
                if m.end() == end:
                    # input ending in a comment ends at its ';'
                    end = m.start()
                continue
            elif kind == _OTHER_ATOM:
                start = m.start()
                loc = (line, start - base)
                value = _atom(m[kind], text, start, loc)
            elif kind == _OPEN_STRING:
                # The literal runs past the end of `text`: it becomes the
                # innermost frame, and nothing in `text` follows it.
                start = m.start()
                stack.append((state, oloc, opener, anchor, last, closer))
                state = _STRING_OPEN
                oloc = (line, start - base)
                anchor = []
                _, line, base, last = _scan_string(text, start + 1, line,
                                                   base, anchor, None)
                break
            elif kind == _BLANKS:
                continue
            # else: _StringEnd, with `value` and `loc` set above
            #
            # `value` is complete and starts at `loc`: hand it to the
            # innermost open construct, closing every quote it completes.
            while True:
                if state is _ITEMS:
                    pair = SourcePair(value, NIL, loc)
                    last.cdr = pair
                    last = pair
                    break
                if state is _TOP:
                    out.append(SourceDatum(value, *loc))
                    break
                if state is _QUOTE:
                    value = SourcePair(anchor, SourcePair(value, NIL, loc),
                                       oloc)
                    loc = oloc
                    state, oloc, opener, anchor, last, closer = stack.pop()
                    continue
                if state is _VECTOR:
                    last.append(value)
                    break
                if state is _AFTER_DOT:
                    last.cdr = value
                    state = _TAIL
                    break
                raise _tail_error(*loc)
        self.frame = (state, oloc, opener, anchor, last, closer)
        self.end = (line, end - base)
        return out


def read_all(text):
    """Parse every datum in `text`; empty input yields an empty list."""
    reader = EntryReader()
    datums = reader.feed_line(text)
    if datums is None:
        raise reader.eof_error()
    return datums
