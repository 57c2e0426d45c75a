"""The compiler of hot code to registerised Python: what the machine's
handlers would step through, written out.

`fuse` compiles a lambda's body once its closures have been entered
`machine._HOT_ENTRIES` times; `compile_site` compiles an application's
return points (Appel 1992) once the stepped path has resumed its operand
continuations that often.  Inline values are Python expressions: `not`,
`null?`, `list` (`primitives._EXPRESSION`), a scan for `(member x (list …))`
(`primitives._SCAN`), which builds no list where only its truth is read,
and `+ - = < >` on fixnums while the primitive keeps its `fn`
(`primitives._FIXNUM`).  A `choose` pushes the choice point its `run`
would, the same tuple, and runs its first alternative in place.  The
continuations the stepped path makes are written as its tuples, `(label,
spine, *fields)`, a prefix of literal operands as one tuple among the
fields, with a handler written for their position, which runs the rest of
the application, and which loops while a primitive's value goes to a
continuation made at its own site.  A closure call hits a monomorphic
inline cache (Deutsch & Schiffman 1984) for the compiled lambda of its arity
it last met, builds the frame and enters through `machine._enter`, the
interpreter's own entry, else goes through `apply_proc`; a body's call of
its own lambda enters so too, and jumps back to the top (Steele 1977).  A
`let` is no call: its frame is built inline and its body runs in the same
function, where a self call still jumps back to the top.  A read of a
parameter of any frame the code built itself, the lambda's or a `let`'s,
skips the unassigned test that a body `define`'s slot needs.
Each function returns to the trampoline as soon as it starts a subform
that needs the machine, and first checks every operator's global, running
the stepped path if one has been rebound; user code run by a stepped
subform may rebind one, so a body's forms after it take the stepped path
and a return point checks again, while a body's next turn needs no check.
"""

# the compiled code reads this module's names, some imported only for it
from .errors import EvalError
from .forms import (
    _INLINE, AppExpr, BeginExpr, ChooseExpr, IfExpr, LambdaExpr, LetExpr,
    Literal, PrimApp1, PrimAppN, VarRef,
)
from .machine import (
    _enter, _eval_operands, apply_cont, apply_proc, cont_begin, invoke_fail,
)
from .primitives import _EXPRESSION, _FIXNUM, _SCAN
from .values import (
    BY_IDENTITY, INT64_MAX, INT64_MIN, NIL, UNASSIGNED, Closure, Pair,
)

# how deep compiled code nests (Python's parser allows 100 levels of
# indentation) and its generator recurses, and the most operands written
# out, since each return point unpacks those before it; past these a
# subform runs through its own `run`
_NEST, _WIDE = 40, 64


# a closure call through the site's cache `lam`, which `_miss` fills
_CALL = """if type({p}) is Closure and {p}.lam is {lam}:
    frame = [{p}.env, {xs}]
    if {lam}.defines: frame += [UNASSIGNED] * {lam}.defines
    return _enter(m, {p}, frame, ({xs}), {k}, {app})
return _miss(m, {p}, ({xs}), {k}, {app}, globals(), {lam!r})"""
# a call of the body's own lambda, its operands read before `env` is rebound;
# a list display, since `[p.env, *xs]` leaves the list room to grow
_SELF = """if type({p}) is Closure and {p}.lam is {lam}:
    p, xs = {p}, ({xs})
    env = [p.env, {frame}]
    _enter(m, p, env, xs, {k}, {app})
{turn}    continue
"""
# a return point's head, and that of one that loops, with the loop's end
_RETURN = "    {fields} = m.fields_reg\n    v = m.value_reg\n"
_LOOP = """    fields, v, trace = m.fields_reg, m.value_reg, m.trace
    while True:
        {fields} = fields
"""
_TURN = """if {k}[0] is not {label}:
    return apply_cont(m, {k}, {t})
trace.spine = {k}[1]
fields, v = {k}, {t}"""


def fuse(lam):
    """Compile `lam`'s body to the `run` of a `BeginExpr` holding the body
    as parsed, which becomes the body."""
    lam.entries = None
    code = _Code(dict(globals()), lam)
    code.run(lam.body, "k", "        ", 0)
    # a body handed to its own `run` gains nothing
    if len(code.lines) == 1 and code.lines[0].endswith(".run(m, env, k)"):
        return
    code.lines.insert(0, "    while True:")
    code.define("body(node, m, env, k)", "node.body[0].run(m, env, k)")
    lam.body = type("BeginExpr", (BeginExpr,), {
        "__slots__": (), "run": code.ns["body"]})((lam.body,))


def compile_site(app):
    """Give `app.site` the return point for each field `i` of a
    `cont_operand` continuation, False where `parse_core` saw an inline
    operand; None for an application too wide."""
    if len(app.args) > _WIDE:
        app.site = None
        return
    code = _Code(dict(globals()), None)
    labels = [False, *(not isinstance(arg, _INLINE) and code.ret(app, i + 1)
                       for i, arg in enumerate(app.args))]
    code.define(None, None)
    app.site = tuple(label and code.ns[label] for label in labels)


def _miss(m, proc, args, k, app, ns, cache):
    """`apply_proc`, after which a compiled lambda taking exactly `args`
    fills the site's cache."""
    apply_proc(m, proc, args, k, app)
    lam = proc.lam if type(proc) is Closure else None
    if (lam and lam.entries is None and lam.rest is None
            and len(lam.params) == len(args)):
        ns[cache] = lam


class _Code:
    """What is compiled: the lines and operator guards of a function.  The
    functions of one compile share the return points named so far, with
    those still to be written, and the namespace: the code reads this
    module's names, and each datum it is handed under a made-up name."""

    def __init__(self, ns, lam, root=None):
        self.ns, self.lines, self.guards, self.ints = ns, [], {}, set()
        self.lam = lam
        # the parameter count of each frame this code builds itself, innermost
        # first: the lambda's and those of the `let`s run inline in it
        self.frames = lam and (len(lam.params) + (lam.rest is not None),) or ()
        self.labels, self.todo = (
            ({}, []) if root is None else (root.labels, root.todo))

    def name(self, value):
        self.ns[f"k{len(self.ns)}"] = value
        return f"k{len(self.ns) - 1}"

    def function(self, head, fallback, prologue="", pad="    ", checks=()):
        checks = " or ".join([*checks, *(
            f"get({self.name(s)}) is not {self.name(p)}"
            for s, p in self.guards)])
        body = "".join([prologue, f"{pad}if {checks}:\n{pad}    return "
                        f"{fallback}\n" * bool(checks),
                        *(line + "\n" for line in self.lines)])
        return (f"def {head}:\n" + "    get = m.globals.get\n" * (
            "get(" in body) + body)

    def define(self, head, fallback):
        """Compile this function, unless `head` is None, and every return
        point named, in one `compile()` call."""
        sources = [self.function(head, fallback)] if head else []
        while self.todo:
            sources.append(self.handler(*self.todo.pop()))
        exec(compile("".join(sources), "<fused>", "exec"), self.ns)

    def ret(self, app, i):
        """The label of the return point after `app`'s operand `i - 1`."""
        label = self.labels.get((app, i))
        if label is None:
            label = self.labels[app, i] = f"r{len(self.labels)}"
            self.todo.append((app, i, label, self.frames))
        return label

    def handler(self, app, i, label, frames):
        """The source of return point `label`, after `app`'s operand `i - 1`,
        whose `env` has the `frames` the code that named it had built; a
        literal operand before it is known here."""
        code = _Code(self.ns, None, self)
        code.frames = frames
        xs = [code.value(arg, "") if type(arg) is Literal else f"a{j}"
              for j, arg in enumerate(app.args[:i - 1])]
        loop = app.prim and all(
            isinstance(arg, _INLINE) for arg in app.args[i:])
        pad = "        " if loop else "    "
        step = code.operands(app, "proc", i, [*xs, "v"], "k", pad,
                             loop and label)
        if step:
            code.run(*step, pad, 0)
        fields = "_, _, proc, app, i, ({}), env, k".format(
            _items(x if x[0] == "a" else "_" for x in xs))
        return code.function(
            f"{label}(m)",
            f"_eval_operands(m, proc, app, i, ({_items(xs)}v, ), env, k)",
            (_LOOP if loop else _RETURN).format(fields=fields), pad,
            [f"proc is not {self.name(app.prim)}"] * bool(app.prim))

    def value(self, root, pad, test=False):
        """Compute inline `root`, one temporary per node in the stepped
        path's order; gives the name or expression of its value.  Where
        only whether a value is #f is read (`test`), as in `not`'s operand,
        a scan gives True on a hit and builds no list (Wadler 1990)."""
        code, results, todo = self.lines, [], [(root, False, test)]
        while todo:
            node, ready, test = todo.pop()
            temp = f"t{len(code)}"
            if isinstance(node, PrimAppN) and not ready:
                self.guards[node.op.name, node.prim] = None
                args = node.args
                lst = args[-1] if args else None
                same = (isinstance(lst, PrimAppN) and len(lst.args) <= _WIDE
                        and _SCAN.get((node.prim.name, lst.prim.name)))
                if same:  # the list's operands stand in for the list
                    self.guards[lst.op.name, lst.prim] = None
                    args = (*args[:-1], *lst.args)
                todo.append((node, (len(args), same), test))
                inner = node.prim.name == "not"
                todo += [(a, False, inner) for a in reversed(args)]
                continue
            if type(node) is LambdaExpr:
                # made once, though a scan names its operands more than once
                code.append(f"{pad}{temp} = Closure({self.name(node)}, env)")
            elif type(node) is Literal:
                temp = self.name(node.val(None, None))
                if type(node.value) is int:
                    self.ints.add(temp)
            elif (type(node) is VarRef and node.depth < len(self.frames)
                  and node.index <= self.frames[node.depth]):
                # a parameter of a frame this code built is never unassigned
                temp = f"env{'[0]' * node.depth}[{node.index}]"
            elif isinstance(node, VarRef):
                read = (f"get({self.name(node.name)}, UNASSIGNED)"
                        if node.index is None
                        else f"env{'[0]' * node.depth}[{node.index}]")
                code += [f"{pad}{temp} = {read}", f"{pad}if {temp} is "
                         "UNASSIGNED: raise EvalError('UnboundVariable', "
                         f"{self.name(node.name.name)})"]
            else:
                count, same = ready
                xs = results[len(results) - count:]
                del results[len(results) - count:]
                if same:
                    results.append(self.scan(node, same, xs, pad, test))
                    continue
                build = _EXPRESSION.get(node.prim.name)
                if build and len(xs) <= _WIDE:
                    # a longer chain of nested calls could strain the compiler
                    value = build(xs)
                else:
                    value = self.apply(node.prim, xs, temp)
                code.append(f"{pad}{temp} = {value}")
            results.append(temp)
        return results[0]

    def apply(self, prim, xs, temp):
        """The expression of `prim.fn` on `xs`; `+ - = < >` on two fixnums
        is the Python operator while `fn` is the one `_FIXNUM` names, and a
        sum or difference is checked into `temp` for an overflow."""
        p = self.name(prim)
        call = f"{p}.fn(m, ({_items(xs)}))"
        op = _FIXNUM.get(prim.fn) if len(xs) == 2 else None
        if op is None:
            return call
        test = " and ".join([*(f"type({x}) is int" for x in xs
                               if x not in self.ints),
                             f"{p}.fn is {self.name(prim.fn)}"])
        value = f"{xs[0]} {op} {xs[1]}"
        if op in "+-":
            value = (f"({temp} if {INT64_MIN} <= ({temp} := {value}) <= "
                     f"{INT64_MAX} else {call})")
        return f"{value} if {test} else {call}"

    def scan(self, node, same, xs, pad, test):
        """Write `node` as the scan `_SCAN` gives it, of target `xs[0]` over
        items `xs[1:]`, which a symbol target needs no `same` for
        (`BY_IDENTITY`); gives its temporary, True on a hit in a `test`."""
        code, build = self.lines, _EXPRESSION[node.args[-1].prim.name]
        x, ys, temp, same = xs[0], xs[1:], f"t{len(code)}", self.name(same)
        code.append(f"{pad}{temp} = type({x}) is BY_IDENTITY")
        for i, y in enumerate(ys):
            hit = "True" if test else build(ys[i:])
            code.append(f"{pad}{'el' * bool(i)}if {x} is {y} or not {temp} "
                        f"and {same}({x}, {y}): {temp} = {hit}")
        code.append(f"{pad}{'else: ' * bool(ys)}{temp} = False")
        return temp

    def test(self, node, pad, false=False):
        """The condition that inline `node`'s value is #f (`false`) or is
        not, each `not` around it folded in."""
        while type(node) is PrimApp1 and node.prim.name == "not":
            self.guards[node.op.name, node.prim] = None
            node, false = node.args[0], not false
        return f"{self.value(node, pad, True)} is {'not ' * (not false)}False"

    def run(self, node, k, pad, depth):
        """Run `node` toward `k` as its `run` would; the first subform that
        needs the machine gets the continuation the stepped path makes, and
        is run toward it in turn."""
        code = self.lines
        while not isinstance(node, _INLINE) and depth < _NEST:
            if (type(node) is IfExpr and isinstance(node.test, _INLINE)
                    and node.then is not None):
                code.append(f"{pad}if {self.test(node.test, pad)}:")
                frames = self.frames
                self.run(node.then, k, pad + "    ", depth + 1)
                node, self.frames = node.alt, frames
            elif type(node) is BeginExpr:
                forms, node = node.body, node.body[-1]
                for i, form in enumerate(forms[:-1]):
                    if not isinstance(form, _INLINE):
                        k = self.cont(pad, "cont_begin", self.name(forms),
                                      i + 1, "env", k)
                        node = form
                        break
                    # a dropped `require` fails without raising; known by
                    # name, as a profiler may wrap the primitive's `fn`
                    if (type(form) is PrimApp1
                            and form.prim.name == "require"):
                        self.guards[form.op.name, form.prim] = None
                        failed = self.test(form.args[0], pad, True)
                        code.append(f"{pad}if {failed}: return invoke_fail(m)")
                    else:
                        self.value(form, pad)
            elif type(node) is ChooseExpr:
                if not node.exprs:
                    code.append(f"{pad}return invoke_fail(m)")
                    return
                if len(node.exprs) > 1:
                    code.append(f"{pad}m.fail_reg = ("
                                f"{self.name(node.exprs)}, 1, env, {k}, "
                                "m.fail_reg, m.trace.spine)")
                node = node.exprs[0]
            elif (isinstance(node, AppExpr) and isinstance(node.op, _INLINE)
                  and len(node.args) <= _WIDE):
                if node.prim:
                    self.guards[node.op.name, node.prim] = None
                    proc = self.name(node.prim)
                elif type(node) is LetExpr:
                    proc = self.name(node.op)
                else:
                    proc = self.value(node.op, pad)
                step = self.operands(node, proc, 0, [], k, pad)
                if not step:
                    return
                node, k = step
            else:
                break
        if isinstance(node, _INLINE):
            code.append(f"{pad}return apply_cont(m, {k}, "
                        f"{self.value(node, pad)})")
        else:
            code.append(f"{pad}return {self.name(node)}.run(m, env, {k})")

    def operands(self, app, proc, i, xs, k, pad, loop=None):
        """Compute `app`'s operands from `i` on after the values `xs` and
        apply `proc` to them toward `k`; gives the first stepped operand and
        the continuation made for it, or None once the call is written.  A
        primitive's value goes to `k`, or to the next turn of the loop of
        return point `loop` if `k` was made at its site.  A `let` gives its
        body, to be run toward `k` once its frame is built."""
        code, args = self.lines, app.args
        let = type(app) is LetExpr
        for j, arg in enumerate(args[i:], i):
            if not isinstance(arg, _INLINE):
                # a prefix of literals is one tuple, made now; the frame is
                # None where no operand follows and no `let` body links to it
                # (see `machine.cont_operand`)
                acc = (self.name(tuple(a.value for a in args[:j]))
                       if xs and all(type(a) is Literal for a in args[:j])
                       else f"({_items(xs)})")
                return arg, self.cont(
                    pad, self.ret(app, j + 1), proc, self.name(app), j + 1,
                    acc, "env" if j + 1 < len(args) or let else "None", k)
            xs.append(self.value(arg, pad))
        if let:
            lam = app.op
            code.append(f"{pad}env = [env, "
                        f"{_items([*xs, *['UNASSIGNED'] * lam.defines])}]")
            self.frames = (len(xs), *self.frames)
            return lam.body, k
        temp = f"t{len(code)}"
        if app.prim:
            code.append(f"{pad}{temp} = {self.apply(app.prim, xs, temp)}")
            end = (_TURN.format(k=k, label=loop, t=temp) if loop else
                   f"return apply_cont(m, {k}, {temp})")
        else:
            lam, call = self.lam, dict(p=proc, xs=_items(xs), k=k,
                                       app=self.name(app))
            end = _CALL.format(lam=self.name(None), **call)
            if lam and lam.rest is None and len(lam.params) == len(xs):
                frame = [*(f"xs[{i}]" for i in range(len(xs))),
                         *["UNASSIGNED"] * lam.defines]
                end = _SELF.format(
                    lam=self.name(lam), frame=_items(frame),
                    turn=f"    k = {k}\n" * (k != "k"), **call) + end
        code += [pad + line for line in end.split("\n")]
        return None

    def cont(self, pad, label, *fields):
        """What `Machine.make_cont` does, written out."""
        temp = f"c{len(self.lines)}"
        self.lines += [f"{pad}m.cont_allocations += 1",
                       f"{pad}{temp} = ({label}, m.trace.spine, "
                       f"{_items(map(str, fields))})"]
        return temp


def _items(xs):
    return "".join(x + ", " for x in xs)
