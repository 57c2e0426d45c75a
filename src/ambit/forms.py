"""Core-form AST, macro expansion, validation, and variable resolution.

Datums are checked and compiled into small AST nodes before the machine sees
them, so evaluation never encounters a macro keyword or a malformed special
form.  The one walk over a datum expands each macro use as it meets it: a
form whose head names a macro is rewritten by `syntax.expand` before it is
dispatched, so the expansion's subforms are expanded when the walk reaches
them, and only in the positions this module parses as expressions.  The
derived forms are lowered to the core ones (R7RS 7.3): `and`, `or` and
`cond` to chains of ifs, the let family to lambda applications.  `(and a
b)` is `(if a b #f)`, as the paper's `and` macro gives it; `(or a b)` is an
`IfExpr` with no `then`, which gives its test's value when that is not #f,
so the deciding value needs no temporary.  A quoted datum is a `Literal`.
A top-level `define-syntax` binds its macro here and becomes `(begin)`.

A quasiquote template is lowered to literals and applications (R7RS 4.2.8):
a constant part becomes one literal, so the constant tail after a list's last
dynamic item is shared by every evaluation, and each list or vector level
with a dynamic part becomes one application whose operands are the level's
items (then the tail, for a list), evaluated left to right like any other
operands.  Its operator is a literal primitive that no global names, so
redefining `cons` or `list` cannot reach it.  A `,@` operand is wrapped in
a one-operand application that checks its value is a proper list as soon
as it arrives, before any later part of the template runs.

Every variable is resolved here, once, by lexical addressing (SICP 5.5.6).
A lambda's frame at run time is a list: slot 0 holds the enclosing frame,
then come its parameters, then one slot for each name a `define` in its body
binds (anywhere in the body except inside nested lambdas).  A name bound by
an enclosing lambda becomes a (depth, index) pair: the frame `depth` links
out, slot `index`.  Any other name is global and is read by symbol from the
machine's global table at run time, so later definitions are seen.  The
addresses are filled in once the whole top-level form is parsed, so a
reference may precede the body `define` it names.  Then each node's class
is picked once, so the machine dispatches on it: a global reference becomes
a `GlobalRef`, and a local one stays a `VarRef`.  An application whose
operator is a global holding an ordinary primitive of fitting arity gets it
in `AppExpr.prim`: with a pure primitive and operands all computed inline
it is computed inline too (`PrimApp1`, `PrimApp2`, `PrimAppN`, by operand
count).  The machine compiles the body of a lambda it has entered often.
"""

from . import syntax
from .errors import EvalError, FormError
from .values import (
    NIL, VOID, Pair, Primitive, SourcePair, Symbol, intern, is_proper_list,
    list_from, to_pylist,
)
from .writer import write_value


class Literal:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class VarRef:
    """A variable: slot `index` of the frame `depth` links out, or a global
    when `index` is None."""

    __slots__ = ("name", "depth", "index")

    def __init__(self, name):
        self.name = name
        self.depth = None
        self.index = None


class IfExpr:
    """`then` is None for an `or`: a test that is not #f is the value.  A
    one-armed `if` has the shared `Literal(VOID)` as its `alt`."""

    __slots__ = ("test", "then", "alt")

    def __init__(self, test, then, alt):
        self.test = test
        self.then = then
        self.alt = alt


class DefineExpr:
    """`define` in a lambda body binds slot `index` of that lambda's frame;
    at top level, and for `define!` anywhere, `index` is None and the name
    is bound in the global table."""

    __slots__ = ("name", "expr", "index")

    def __init__(self, name, expr, index):
        self.name = name
        self.expr = expr
        self.index = index


class SetExpr:
    __slots__ = ("target", "expr")

    def __init__(self, target, expr):
        self.target = target
        self.expr = expr


class LambdaExpr:
    """`body` is one node, a `BeginExpr` for several forms; `defines` counts
    the slots its body's `define`s add after the parameters; `entries`
    counts the machine's entries into its closures, and is None once the
    machine has compiled its body."""

    __slots__ = ("params", "rest", "body", "defines", "entries")

    def __init__(self, params, rest, body, defines):
        self.params = params
        self.rest = rest
        self.body = body
        self.defines = defines
        self.entries = 0


class BeginExpr:
    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body


class AppExpr:
    """`prim` is the ordinary primitive the operator's global held, with a
    fitting arity, when the form was parsed; else None.  `site` counts the
    machine's resumptions of its operand continuations, and holds their
    compiled handlers once there have been enough (see `machine`)."""

    __slots__ = ("op", "args", "op_name", "line", "col", "source", "prim",
                 "site")

    def __init__(self, op, args, op_name, line, col, source):
        self.op = op
        self.args = args
        self.op_name = op_name
        self.line = line
        self.col = col
        self.source = source
        self.prim = None
        self.site = 0


class ChooseExpr:
    __slots__ = ("exprs",)

    def __init__(self, exprs):
        self.exprs = exprs


def _node_class(name, base):
    # no slot is added, so `parse_core` can reassign a node's `__class__`
    return type(name, (base,), {"__slots__": ()})


GlobalRef = _node_class("GlobalRef", VarRef)
PrimAppN = _node_class("PrimAppN", AppExpr)
PrimApp1 = _node_class("PrimApp1", PrimAppN)
PrimApp2 = _node_class("PrimApp2", PrimAppN)

# `(begin)`, a one-armed `if`'s `alt` and the end of a `cond`'s chain of ifs
_VOID = Literal(VOID)


_S_QUOTE = intern("quote")
_S_QUASIQUOTE = intern("quasiquote")
_S_UNQUOTE = intern("unquote")
_S_UNQUOTE_SPLICING = intern("unquote-splicing")
_S_IF = intern("if")
_S_DEFINE = intern("define")
_S_DEFINE_BANG = intern("define!")
_S_SET_BANG = intern("set!")
_S_LAMBDA = intern("lambda")
_S_BEGIN = intern("begin")
_S_AND = intern("and")
_S_OR = intern("or")
_S_COND = intern("cond")
_S_LET = intern("let")
_S_LET_STAR = intern("let*")
_S_LETREC = intern("letrec")
_S_ELSE = intern("else")
_S_CHOOSE = intern("choose")
_S_DEFINE_SYNTAX = intern("define-syntax")


def _loc(form):
    if isinstance(form, SourcePair) and form.loc is not None:
        return form.loc
    return (None, None)


def _bad(form, message):
    line, col = _loc(form)
    return FormError(f"{message}: {write_value(form)}", line, col)


def _spine(form):
    items = []
    node = form
    while isinstance(node, Pair):
        items.append(node.car)
        node = node.cdr
    return items, node


class _Scope:
    """Compile-time frame: each name a lambda binds, mapped to its slot.

    The top-level scope has no slots.  All scopes of one top-level form share
    its macro table, its source name, the list of (VarRef, scope) pairs
    still to resolve and the list of applications with a named operator.
    """

    __slots__ = ("slots", "parent", "refs", "apps", "macros", "source")

    def __init__(self, slots, parent, refs, apps, macros, source):
        self.slots = slots
        self.parent = parent
        self.refs = refs
        self.apps = apps
        self.macros = macros
        self.source = source

    def enter(self, names):
        """The scope of a closure that binds `names`, nested in this one."""
        return _Scope({name: i for i, name in enumerate(names, 1)}, self,
                      self.refs, self.apps, self.macros, self.source)

    def closure(self, params, rest, body):
        # the slots after the parameters are the ones the body's defines added
        return LambdaExpr(params, rest, self.begin(tuple(body)),
                          len(self.slots) - len(params) - (rest is not None))

    def begin(self, body):
        return body[0] if len(body) == 1 else BeginExpr(body)

    def define(self, name, init):
        # a parameter of the same name keeps its slot
        index = self.slots.setdefault(name, len(self.slots) + 1)
        return DefineExpr(name, _parse(init, self), index)


def parse_core(form, macros, source="<input>", global_table=None):
    """Expand the macro uses in one top-level datum, validate it, compile it
    to a core form, and give each of its variables a lexical address.
    `macros` maps each macro name to its clauses (see `syntax`); a
    `define-syntax` binds its macro there and gives the shared `(begin)`
    literal.  With the machine's `global_table`, the applications of
    primitives are marked."""
    if isinstance(form, Pair) and form.car is _S_DEFINE_SYNTAX:
        syntax.define_macro(macros, *syntax.parse_define_syntax(form))
        return _VOID
    top = _Scope(None, None, [], [], macros, source)
    core = _parse(form, top)
    for ref, scope in top.refs:
        depth = 0
        while scope.slots is not None:
            index = scope.slots.get(ref.name)
            if index is not None:
                ref.depth = depth
                ref.index = index
                break
            scope = scope.parent
            depth += 1
        else:
            ref.__class__ = GlobalRef
    # each pair holds a scope and every scope holds this list: emptying it
    # lets reference counting free the scopes
    top.refs.clear()
    for app in top.apps if global_table is not None else ():
        prim = global_table.get(app.op.name)
        na = len(app.args)
        if (type(prim) is not Primitive or prim.control
                or type(app.op) is not GlobalRef or na < prim.min_args
                or prim.max_args is not None and na > prim.max_args):
            continue
        app.prim = prim
        if prim.pure and all(isinstance(a, _INLINE) for a in app.args):
            app.__class__ = _PRIM_APPS.get(na, PrimAppN)
    return core


# the operands with no observable evaluation steps, computed inline
_INLINE = (VarRef, Literal, LambdaExpr, PrimAppN)
_PRIM_APPS = {1: PrimApp1, 2: PrimApp2}


def _parse(form, scope):
    # expanded here rather than by a call back into _parse, so a macro level
    # costs no extra host frame
    if (isinstance(form, Pair) and isinstance(form.car, Symbol)
            and form.car in scope.macros):
        form = syntax.expand(form, scope.macros)
    if isinstance(form, Symbol):
        ref = VarRef(form)
        scope.refs.append((ref, scope))
        return ref
    if isinstance(form, Pair):
        return _parse_pair(form, scope)
    if form is NIL:
        raise FormError("() is not a valid expression")
    # ints, floats, booleans, strings, and vector literals self-evaluate
    return Literal(form)


def _parse_pair(form, scope):
    head = form.car
    items, tail = _spine(form)
    if tail is not NIL:
        raise _bad(form, "improper list is not a valid expression")
    if isinstance(head, Symbol):
        if head is _S_QUOTE:
            if len(items) != 2:
                raise _bad(form, "malformed quote")
            return Literal(items[1])
        if head is _S_QUASIQUOTE:
            if len(items) != 2:
                raise _bad(form, "malformed quasiquote")
            return _lower_qq(items[1], scope)[0]
        if head is _S_UNQUOTE or head is _S_UNQUOTE_SPLICING:
            raise _bad(form, f"{head.name} outside quasiquote")
        if head is _S_IF:
            if len(items) not in (3, 4):
                raise _bad(form, "malformed if")
            alt = _parse(items[3], scope) if len(items) == 4 else _VOID
            return IfExpr(_parse(items[1], scope), _parse(items[2], scope),
                          alt)
        if head is _S_DEFINE or head is _S_DEFINE_BANG:
            if len(items) != 3 or not isinstance(items[1], Symbol):
                raise _bad(form, f"malformed {head.name}")
            if head is _S_DEFINE_BANG or scope.slots is None:
                return DefineExpr(items[1], _parse(items[2], scope), None)
            return scope.define(items[1], items[2])
        if head is _S_SET_BANG:
            if len(items) != 3 or not isinstance(items[1], Symbol):
                raise _bad(form, "malformed set!")
            return SetExpr(_parse(items[1], scope), _parse(items[2], scope))
        if head is _S_LAMBDA:
            if len(items) < 3:
                raise _bad(form, "malformed lambda")
            params, rest = _parse_params(form, items[1])
            inner = scope.enter(params if rest is None else params + (rest,))
            return inner.closure(params, rest,
                                 [_parse(b, inner) for b in items[2:]])
        if head is _S_BEGIN:
            if len(items) == 1:
                return _VOID
            return scope.begin(tuple(_parse(b, scope) for b in items[1:]))
        if head is _S_AND or head is _S_OR:
            return _parse_and_or(head, items[1:], scope)
        if head is _S_COND:
            return _parse_cond(form, items[1:], scope)
        if head is _S_LET or head is _S_LET_STAR or head is _S_LETREC:
            return _parse_let(form, items, scope)
        if head is _S_CHOOSE:
            return ChooseExpr(tuple(_parse(e, scope) for e in items[1:]))
        if head is _S_DEFINE_SYNTAX:
            raise _bad(form, "define-syntax is only allowed at top level")
    op = _parse(head, scope)
    args = tuple(_parse(a, scope) for a in items[1:])
    line, col = _loc(form)
    if type(op) is not VarRef:
        return AppExpr(op, args, None, line, col, scope.source)
    app = AppExpr(op, args, op.name.name, line, col, scope.source)
    scope.apps.append(app)
    return app


def _parse_params(form, params):
    if isinstance(params, Symbol):
        return (), params
    names = []
    rest = None
    node = params
    while isinstance(node, Pair):
        if not isinstance(node.car, Symbol):
            raise _bad(form, "lambda parameters must be symbols")
        names.append(node.car)
        node = node.cdr
    if node is not NIL:
        if not isinstance(node, Symbol):
            raise _bad(form, "malformed lambda parameter list")
        rest = node
    all_names = names + ([rest] if rest is not None else [])
    if len(set(all_names)) != len(all_names):
        raise _bad(form, "duplicate lambda parameter")
    return tuple(names), rest


def _parse_and_or(head, exprs, scope):
    """`(and a b c)` is `(if a (if b c #f) #f)` and `(or a b)` is `(if a
    <a's value> b)`; `(and)` is #t and `(or)` #f."""
    nodes = [_parse(e, scope) for e in exprs]
    node = nodes.pop() if nodes else Literal(head is _S_AND)
    while nodes:
        test = nodes.pop()
        node = (IfExpr(test, node, Literal(False)) if head is _S_AND
                else IfExpr(test, None, node))
    return node


def _parse_cond(form, clauses, scope):
    result = _VOID
    for index in range(len(clauses) - 1, -1, -1):
        clause = clauses[index]
        items, tail = _spine(clause)
        if not isinstance(clause, Pair) or tail is not NIL or not items:
            raise _bad(form, "malformed cond clause")
        if items[0] is _S_ELSE:
            if index != len(clauses) - 1:
                raise _bad(form, "cond: else clause must be last")
            if len(items) < 2:
                raise _bad(form, "cond: empty else clause")
            result = scope.begin(tuple(_parse(e, scope) for e in items[1:]))
            continue
        test = _parse(items[0], scope)
        if len(items) == 1:
            # (test) keeps the test's value when it is truthy
            result = IfExpr(test, None, result)
        else:
            result = IfExpr(
                test, scope.begin(tuple(_parse(e, scope) for e in items[1:])),
                result)
    return result


def _parse_let(form, items, scope):
    """Lower `let` to ((lambda (name ...) body ...) init ...) (R7RS 7.3),
    `let*` to one such application per binding around (let () body ...),
    and `letrec` to (let () (define name init) ... body ...)."""
    head = items[0]
    bindings, tail = _spine(items[1]) if len(items) > 2 else ((), None)
    pairs = [parts for parts, end in map(_spine, bindings) if end is NIL
             and len(parts) == 2 and isinstance(parts[0], Symbol)]
    names = [name for name, _ in pairs]
    # a named let has a symbol where its bindings belong
    if tail is not NIL or len(pairs) != len(bindings) or (
            head is not _S_LET_STAR and len(set(names)) != len(names)):
        raise _bad(form, f"malformed {head.name}")
    # let* opens one scope per binding here and closes them inside out
    # below, so its subforms are parsed in the order nested lets would give
    for name in names if head is _S_LET_STAR else ():
        scope = scope.enter((name,))
    params = tuple(names) if head is _S_LET else ()
    inner = scope.enter(params)
    # loops, not comprehensions, so a nesting level costs no more host
    # frames than an operand of an application does
    body = []
    for name, init in pairs if head is _S_LETREC else ():
        body.append(inner.define(name, init))
    for item in items[2:]:
        body.append(_parse(item, inner))
    operands = []
    for _, init in pairs if head is _S_LET else ():
        operands.append(_parse(init, scope))
    node = _app(inner.closure(params, None, body), operands, scope.source)
    for name, init in reversed(pairs) if head is _S_LET_STAR else ():
        op = scope.closure((name,), None, (node,))
        scope = scope.parent
        node = _app(op, (_parse(init, scope),), scope.source)
    return node


def _splice_items(m, args):
    spliced = args[0]
    if not is_proper_list(spliced):
        raise EvalError("unquote-splicing",
                        f"expected a proper list, got {write_value(spliced)}")
    return tuple(to_pylist(spliced))


def _build_items(args):
    items = []
    for value in args:
        if type(value) is tuple:
            items.extend(value)
        else:
            items.append(value)
    return items


# A template's applications call these through a Literal, so no global
# reaches them.  A spliced operand arrives as a tuple, which is never a
# Scheme value.
_SPLICE = Literal(Primitive("unquote-splicing", _splice_items, 1, 1))
_QQ_LIST = Literal(Primitive(
    "quasiquote", lambda m, args: list_from(_build_items(args[:-1]), args[-1]),
    1, None))
_QQ_VECTOR = Literal(Primitive(
    "quasiquote", lambda m, args: _build_items(args), 0, None))
_QQ_HEADS = (_S_QUASIQUOTE, _S_UNQUOTE, _S_UNQUOTE_SPLICING)


def _lower_qq(template, scope):
    """Lower a quasiquote template to a core form; returns (node, is_dynamic).
    Recurses once per nesting level of the template, never along a list."""
    if not isinstance(template, (Pair, list)):
        return Literal(template), False
    pairs = []
    tail = template
    if isinstance(template, list):
        items = template
    else:
        while isinstance(tail, Pair) and tail.car not in _QQ_HEADS:
            pairs.append(tail)
            tail = tail.cdr
        items = [pair.car for pair in pairs]
    nodes = []
    dynamic_end = 0
    for item in items:
        if isinstance(item, Pair) and item.car is _S_UNQUOTE_SPLICING:
            if not (isinstance(item.cdr, Pair) and item.cdr.cdr is NIL):
                raise _bad(item, "malformed unquote-splicing")
            # checked as soon as its value arrives, before later items run
            node = _app(_SPLICE, [_parse(item.cdr.car, scope)])
            dynamic = True
        else:
            node, dynamic = _lower_qq(item, scope)
        nodes.append(node)
        if dynamic:
            dynamic_end = len(nodes)
    if isinstance(template, list):
        if not dynamic_end:
            return Literal(template), False
        return _app(_QQ_VECTOR, nodes), True
    head = tail.car if isinstance(tail, Pair) else None
    if head is _S_QUASIQUOTE:
        raise _bad(tail, "nested quasiquote is not supported")
    if head is _S_UNQUOTE_SPLICING:
        raise _bad(tail, "unquote-splicing outside list context")
    if head is _S_UNQUOTE:
        if not (isinstance(tail.cdr, Pair) and tail.cdr.cdr is NIL):
            raise _bad(tail, "malformed unquote")
        tail = _parse(tail.cdr.car, scope)
    elif not dynamic_end:
        return Literal(template), False
    else:
        # the items after the last dynamic one stay in the shared datum
        if dynamic_end < len(pairs):
            tail = pairs[dynamic_end]
        tail = Literal(tail)
        del nodes[dynamic_end:]
    if not nodes:
        return tail, True
    nodes.append(tail)
    return _app(_QQ_LIST, nodes), True


def _app(op, operands, source=None):
    # a call site the traceback never shows carries no location
    return AppExpr(op, tuple(operands), None, None, None, source)
