"""External representation of runtime values.

`write_value` produces the canonical read-back form (strings quoted);
`display_value` is the human-facing form (strings bare).  Nesting deeper
than MAX_RENDER_DEPTH renders as a marker instead of hanging on
self-referential vectors.
"""

from .values import (
    EOF_OBJECT, NIL, VOID, Closure, Cont, Pair, Primitive, Symbol,
)

MAX_RENDER_DEPTH = 200
DEPTH_MARKER = "#<too-deep>"

_STRING_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t"}
_INF_NAN = {"inf": "+inf.0", "-inf": "-inf.0", "nan": "+nan.0"}  # R7RS 6.2.6


def write_value(value, display=False):
    out = []
    _render(value, display, out, 0)
    return "".join(out)


def display_value(value):
    return write_value(value, display=True)


def _render(value, display, out, depth):
    if depth > MAX_RENDER_DEPTH:
        out.append(DEPTH_MARKER)
        return
    if value is True:
        out.append("#t")
        return
    if value is False:
        out.append("#f")
        return
    t = type(value)
    if t is int:
        out.append(str(value))
        return
    if t is float:
        text = repr(value)
        out.append(_INF_NAN.get(text, text))
        return
    if t is str:
        if display:
            out.append(value)
        else:
            out.append('"')
            for ch in value:
                out.append(_STRING_ESCAPES.get(ch, ch))
            out.append('"')
        return
    if t is Symbol:
        out.append(value.name)
        return
    if value is NIL:
        out.append("()")
        return
    if isinstance(value, Pair):
        out.append("(")
        node = value
        first = True
        while isinstance(node, Pair):
            if not first:
                out.append(" ")
            _render(node.car, display, out, depth + 1)
            first = False
            node = node.cdr
        if node is not NIL:
            out.append(" . ")
            _render(node, display, out, depth + 1)
        out.append(")")
        return
    if t is list:
        out.append("#(")
        for i, item in enumerate(value):
            if i:
                out.append(" ")
            _render(item, display, out, depth + 1)
        out.append(")")
        return
    if value is VOID:
        out.append("#<void>")
        return
    if value is EOF_OBJECT:
        out.append("#<eof>")
        return
    if t is Closure:
        if value.name is not None:
            out.append(f"#<procedure {value.name.name}>")
        else:
            out.append("#<procedure>")
        return
    if t is Primitive:
        out.append(f"#<primitive {value.name}>")
        return
    if t is Cont:
        out.append("#<continuation>")
        return
    out.append(f"#<{value!r}>")
