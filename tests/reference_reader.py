"""Source text -> s-expression datums, with 1-based source positions.

The reader accepts both `(...)` and `[...]` (a bracket must close the kind
that opened it), quote shorthands, dotted pairs, `#(...)` vectors, `#t`/`#f`,
64-bit integers, and floating-point reals.  `;` comments run to end of line.

`tokenize` lexes text whose first line may have any number.  One `Parser`
turns tokens into datums: open lists, vectors and quote prefixes wait on an
explicit stack, so reading never recurses on the host however deep the
input nests, and the parser can be fed tokens in pieces, handing back each
datum as it completes.  `read_all` and `read_datum` feed it a whole token
list.  `EntryReader` feeds it one REPL line at a time, so an entry of n
lines is lexed and parsed once rather than n times; only a string literal
that runs past the end of a line makes that line be lexed again with the
next one.
"""

import re

from ambit.errors import LexError, ParseError
from ambit.values import INT64_MAX, INT64_MIN, NIL, Pair, SourcePair, intern

LPAREN = "lparen"
RPAREN = "rparen"
LBRACKET = "lbracket"
RBRACKET = "rbracket"
QUOTE = "quote"
QUASIQUOTE = "quasiquote"
UNQUOTE = "unquote"
UNQUOTE_SPLICING = "unquote-splicing"
VECTOR_OPEN = "vector-open"
BOOLEAN = "boolean"
INTEGER = "integer"
REAL = "real"
STRING = "string"
SYMBOL = "symbol"
DOT = "dot"
EOF = "eof"


class Token:
    __slots__ = ("kind", "text", "line", "col", "value")

    def __init__(self, kind, text, line, col, value=None):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.value = value

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


class SourceDatum:
    __slots__ = ("value", "line", "col")

    def __init__(self, value, line, col):
        self.value = value
        self.line = line
        self.col = col


_DELIMITERS = frozenset(" \t\r\n()[]\";'`,")
_WHITESPACE = frozenset(" \t\r\n")
_STRING_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_REAL_RE = re.compile(r"[+-]?[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?\Z")


def tokenize(text, line=1):
    """Lex `text`, whose first line is numbered `line`, into a token list
    terminated by an `eof` token."""
    tokens = []
    i = 0
    n = len(text)
    col = 1
    while i < n:
        ch = text[i]
        if ch in _WHITESPACE:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "(":
            tokens.append(Token(LPAREN, "(", line, col))
            i += 1
            col += 1
            continue
        if ch == ")":
            tokens.append(Token(RPAREN, ")", line, col))
            i += 1
            col += 1
            continue
        if ch == "[":
            tokens.append(Token(LBRACKET, "[", line, col))
            i += 1
            col += 1
            continue
        if ch == "]":
            tokens.append(Token(RBRACKET, "]", line, col))
            i += 1
            col += 1
            continue
        if ch == "'":
            tokens.append(Token(QUOTE, "'", line, col))
            i += 1
            col += 1
            continue
        if ch == "`":
            tokens.append(Token(QUASIQUOTE, "`", line, col))
            i += 1
            col += 1
            continue
        if ch == ",":
            if i + 1 < n and text[i + 1] == "@":
                tokens.append(Token(UNQUOTE_SPLICING, ",@", line, col))
                i += 2
                col += 2
            else:
                tokens.append(Token(UNQUOTE, ",", line, col))
                i += 1
                col += 1
            continue
        if ch == '"':
            tok, i, line, col = _lex_string(text, i, line, col)
            tokens.append(tok)
            continue
        if ch == "#":
            tok, i, col = _lex_hash(text, i, line, col)
            tokens.append(tok)
            continue
        tok, i, col = _lex_atom(text, i, line, col)
        tokens.append(tok)
    tokens.append(Token(EOF, "", line, col))
    return tokens


def _lex_string(text, i, line, col):
    start_i, start_line, start_col = i, line, col
    n = len(text)
    i += 1
    col += 1
    parts = []
    while i < n and text[i] != '"':
        ch = text[i]
        if ch == "\\":
            if i + 1 >= n:
                break
            esc = text[i + 1]
            decoded = _STRING_ESCAPES.get(esc)
            if decoded is None:
                raise LexError(f"unknown string escape '\\{esc}'", line, col)
            parts.append(decoded)
            i += 2
            col += 2
        elif ch == "\n":
            parts.append(ch)
            i += 1
            line += 1
            col = 1
        else:
            parts.append(ch)
            i += 1
            col += 1
    if i >= n:
        raise LexError("unterminated string literal", start_line, start_col,
                       unexpected_eof=True)
    i += 1
    col += 1
    return (Token(STRING, text[start_i:i], start_line, start_col,
                  "".join(parts)),
            i, line, col)


def _lex_hash(text, i, line, col):
    n = len(text)
    nxt = text[i + 1] if i + 1 < n else ""
    if nxt == "(":
        return Token(VECTOR_OPEN, "#(", line, col), i + 2, col + 2
    if nxt in ("t", "f"):
        after = text[i + 2] if i + 2 < n else ""
        if after and after not in _DELIMITERS:
            raise LexError(f"malformed boolean near '#{nxt}{after}'", line, col)
        return (Token(BOOLEAN, text[i:i + 2], line, col, nxt == "t"),
                i + 2, col + 2)
    raise LexError(f"illegal character sequence '#{nxt}'", line, col)


def _lex_atom(text, i, line, col):
    n = len(text)
    j = i
    while j < n and text[j] not in _DELIMITERS:
        j += 1
    lexeme = text[i:j]
    width = j - i
    if lexeme == ".":
        return Token(DOT, ".", line, col), j, col + width
    first = lexeme[0]
    looks_numeric = first.isdigit() or (
        first in "+-" and len(lexeme) > 1 and lexeme[1].isdigit())
    if looks_numeric:
        if _INT_RE.match(lexeme):
            value = int(lexeme)
            if not INT64_MIN <= value <= INT64_MAX:
                raise LexError(f"integer literal out of 64-bit range: {lexeme}",
                               line, col)
            return Token(INTEGER, lexeme, line, col, value), j, col + width
        if _REAL_RE.match(lexeme):
            return Token(REAL, lexeme, line, col, float(lexeme)), j, col + width
        raise LexError(f"malformed number '{lexeme}'", line, col)
    return Token(SYMBOL, lexeme, line, col, intern(lexeme)), j, col + width


_QUOTE_NAMES = {
    QUOTE: intern("quote"),
    QUASIQUOTE: intern("quasiquote"),
    UNQUOTE: intern("unquote"),
    UNQUOTE_SPLICING: intern("unquote-splicing"),
}

_MATCHING_CLOSER = {LPAREN: RPAREN, LBRACKET: RBRACKET}
_ATOMS = frozenset((SYMBOL, INTEGER, REAL, STRING, BOOLEAN))

# What an open construct on the parser's stack waits for.  A list frame is
# [state, open token, anchor, last pair, closer kind]: its pairs hang off
# the cdr of a throwaway anchor pair and grow at `last`.  A vector frame is
# [_VECTOR, open token, values] and a quote frame is
# [_QUOTE, quote token, quote symbol].
_ITEMS = "items"          # list elements, '.', or the closer
_AFTER_DOT = "after-dot"  # the tail datum after '.'
_TAIL = "tail"            # only the closer, the tail having been read
_VECTOR = "vector"        # vector elements or ')'
_QUOTE = "quoted"         # the one datum a quote prefix applies to


def _not_closed_after_tail(tok):
    return ParseError("expected a single datum after '.'", tok.line, tok.col)


class Parser:
    """Turns tokens into datums, fed in as many pieces as the caller likes.

    Open lists, vectors and quote prefixes live on `stack`, innermost last,
    so nesting costs heap rather than host stack, and a datum may span any
    number of `feed` calls.
    """

    __slots__ = ("stack",)

    def __init__(self):
        self.stack = []

    @property
    def idle(self):
        """True between datums, when nothing is open."""
        return not self.stack

    def feed(self, tokens, pos=0, limit=-1):
        """Parse `tokens` from `pos` until their `eof` token, or until
        `limit` datums are complete; returns (datums, pos).

        Raises ParseError at the first token that cannot continue what was
        read before it.  Running out of tokens is not an error here: a
        datum left open waits for the next call (see `eof_error`).
        """
        stack = self.stack
        out = []
        while True:
            tok = tokens[pos]
            kind = tok.kind
            pos += 1
            if kind in _ATOMS:
                value = tok.value
            elif kind is LPAREN or kind is LBRACKET:
                if stack and stack[-1][0] is _TAIL:
                    raise _not_closed_after_tail(tok)
                anchor = Pair(None, NIL)
                stack.append([_ITEMS, tok, anchor, anchor,
                              _MATCHING_CLOSER[kind]])
                continue
            elif kind is RPAREN or kind is RBRACKET:
                top = stack[-1] if stack else None
                state = top[0] if stack else None
                if state is _ITEMS or state is _TAIL:
                    opener = top[1]
                    if kind is not top[4]:
                        if state is _TAIL:
                            raise _not_closed_after_tail(tok)
                        raise ParseError(
                            f"mismatched delimiter: '{opener.text}' closed "
                            f"by '{tok.text}'", tok.line, tok.col)
                    stack.pop()
                    value = top[2].cdr
                    if value is not NIL:
                        # The head pair carries the open delimiter's position.
                        value.loc = (opener.line, opener.col)
                elif state is _VECTOR:
                    if kind is RBRACKET:
                        raise ParseError("unexpected ']' in vector",
                                         tok.line, tok.col)
                    stack.pop()
                    value = top[2]
                else:
                    raise ParseError(f"unexpected '{tok.text}'",
                                     tok.line, tok.col)
                tok = top[1]
            elif kind is EOF:
                pos -= 1
                break
            elif kind is DOT:
                top = stack[-1] if stack else None
                state = top[0] if stack else None
                if state is _ITEMS:
                    if top[3] is top[2]:
                        raise ParseError("'.' at start of list",
                                         tok.line, tok.col)
                    top[0] = _AFTER_DOT
                    continue
                if state is _VECTOR:
                    raise ParseError("unexpected '.' in vector",
                                     tok.line, tok.col)
                if state is _TAIL:
                    raise _not_closed_after_tail(tok)
                raise ParseError("'.' is not the start of a datum",
                                 tok.line, tok.col)
            else:
                if stack and stack[-1][0] is _TAIL:
                    raise _not_closed_after_tail(tok)
                if kind is VECTOR_OPEN:
                    stack.append([_VECTOR, tok, []])
                else:
                    stack.append([_QUOTE, tok, _QUOTE_NAMES[kind]])
                continue
            # `value` is complete and starts at `tok`: hand it to the
            # innermost open construct, closing every quote it completes.
            line, col = tok.line, tok.col
            while stack:
                top = stack[-1]
                state = top[0]
                if state is _ITEMS:
                    pair = SourcePair(value, NIL, (line, col))
                    top[3].cdr = pair
                    top[3] = pair
                    break
                if state is _QUOTE:
                    stack.pop()
                    quote = top[1]
                    value = SourcePair(top[2],
                                       SourcePair(value, NIL, (line, col)),
                                       (quote.line, quote.col))
                    line, col = quote.line, quote.col
                    continue
                if state is _VECTOR:
                    top[2].append(value)
                    break
                if state is _AFTER_DOT:
                    top[3].cdr = value
                    top[0] = _TAIL
                    break
                raise _not_closed_after_tail(tok)
            else:
                out.append(SourceDatum(value, line, col))
                if len(out) == limit:
                    break
        return out, pos

    def eof_error(self, eof):
        """The error for input that ends at token `eof` before a datum."""
        top = self.stack[-1] if self.stack else None
        if top is None or top[0] is _QUOTE or top[0] is _AFTER_DOT:
            return ParseError("unexpected end of input", eof.line, eof.col,
                              unexpected_eof=True)
        opener = top[1]
        return ParseError(f"unclosed '{opener.text}'", opener.line,
                          opener.col, unexpected_eof=True)


def read_datum(tokens, pos=0):
    """Parse exactly one datum starting at `pos`; returns (SourceDatum, pos)."""
    parser = Parser()
    datums, pos = parser.feed(tokens, pos, 1)
    if not datums:
        raise parser.eof_error(tokens[pos])
    return datums[0], pos


def read_all(text):
    """Parse every datum in `text`; empty input yields an empty list."""
    tokens = tokenize(text)
    parser = Parser()
    datums, pos = parser.feed(tokens)
    if not parser.idle:
        raise parser.eof_error(tokens[pos])
    return datums


class EntryReader:
    """Reads one entry of an interactive session a line at a time.

    Each line is lexed once, numbered by its place in the entry, and its
    tokens go to one `Parser`.  A line that ends inside a string literal is
    kept and lexed again together with the next line.  The entry is complete
    at the end of a line that leaves the parser idle.  Line by line, the
    outcome is that of `read_all` on the entry's text so far: the same
    datums and locations once complete, the same error when more input
    could not mend it, and no result while it could.
    """

    __slots__ = ("lines", "unlexed", "parser", "datums")

    def __init__(self):
        self._start()

    def _start(self):
        self.lines = []      # the entry's text, one str per line
        self.unlexed = 0     # index in `lines` of the first line not lexed
        self.parser = Parser()
        self.datums = []     # datums read, held until the entry is complete

    def feed_line(self, line):
        """Add `line`; returns the entry's datums once it is complete and
        None while it is not.  A LexError or ParseError that more input
        could not mend is raised, and the entry starts over."""
        lines = self.lines
        lines.append(line)
        start = self.unlexed
        try:
            tokens = tokenize("".join(lines[start:]), start + 1)
            self.unlexed = len(lines)
            datums, _ = self.parser.feed(tokens)
        except (LexError, ParseError) as err:
            if err.unexpected_eof:
                # a string literal runs on past this line
                return None
            self._start()
            raise
        self.datums += datums
        if not self.parser.idle:
            return None
        datums = self.datums
        self._start()
        return datums
