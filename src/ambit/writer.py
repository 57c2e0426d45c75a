"""External representation of runtime values.

`write_value` produces the canonical read-back form (strings quoted);
`display_value` is the human-facing form (strings bare).  Lists and vectors
are written by one loop over an explicit stack of the open ones, so data of
any depth is written without host recursion.  A vector met again inside
itself is written as a marker instead of hanging; `vector-set!` can make
one, and no pair can be made to contain itself but through a vector.
"""

from .values import (
    NIL, VOID, Closure, Cont, Pair, Primitive, Symbol, list_from,
)

DEPTH_MARKER = "#<too-deep>"

_STRING_ESCAPES = str.maketrans(
    {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t"})
_INF_NAN = {"inf": "+inf.0", "-inf": "-inf.0", "nan": "+nan.0"}  # R7RS 6.2.6


def write_value(value, display=False):
    text = _atom(value, display)
    if text is not None:
        return text
    out = []
    # each open list or vector: [the pair written last, the vector or None]
    stack = []
    opened = set()  # the ids of the open vectors
    while True:
        # `text` is `value`'s, or None if it is a list or vector to open
        if text is not None:
            out.append(text)
        elif type(value) is not list:
            out.append("(")
            stack.append([value, None])
            value = value.car
            text = _atom(value, display)
            continue
        elif id(value) in opened or not value:
            out.append("#()" if not value else DEPTH_MARKER)
        else:
            # a vector is written as the list of its items
            out.append("#(")
            opened.add(id(value))
            stack.append([list_from(value), value])
            value = value[0]
            text = _atom(value, display)
            continue
        # on through the innermost open list, writing its atoms here, up to
        # the next item to open or the next list to close
        while stack:
            top = stack[-1]
            rest = top[0].cdr
            while isinstance(rest, Pair):
                out.append(" ")
                value = rest.car
                text = _atom(value, display)
                if text is None:
                    break
                out.append(text)
                rest = rest.cdr
            else:
                if rest is NIL:
                    out.append(")")
                    opened.discard(id(top[1]))
                    stack.pop()
                    continue
                out.append(" . ")
                value = rest
                text = _atom(value, display)
                rest = Pair(None, NIL)  # where the list ends, after its tail
            top[0] = rest
            break
        else:
            return "".join(out)


def display_value(value):
    return write_value(value, display=True)


def _atom(value, display):
    """The text of `value`, or None for a pair or vector."""
    t = type(value)
    if t is int:
        return str(value)
    if t is Symbol:
        return value.name
    if t is str:
        return value if display else f'"{value.translate(_STRING_ESCAPES)}"'
    if value is True:
        return "#t"
    if value is False:
        return "#f"
    if t is float:
        text = repr(value)
        return _INF_NAN.get(text, text)
    if value is NIL:
        return "()"
    if t is list or isinstance(value, Pair):
        return None
    if value is VOID:
        return "#<void>"
    if t is Closure:
        if value.name is not None:
            return f"#<procedure {value.name.name}>"
        return "#<procedure>"
    if t is Primitive:
        return f"#<primitive {value.name}>"
    if t is Cont:
        return "#<continuation>"
    return f"#<{value!r}>"
