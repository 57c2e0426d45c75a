"""The compiler of hot lambdas: a body to one registerised Python function.

Once a lambda's closures have been entered `machine._HOT_ENTRIES` times,
`fuse` compiles its whole body to one Python `run`, the code the machine's
handlers would step through for it, written out: it computes inline values,
writing `not`, `null?` and `list` as Python expressions
(`Primitive.inline`) and `(member x (list …))` as a scan of the operands
that builds no list unless one matches (`primitives._SCAN`), assigns
registers, makes the continuations the stepped path makes, and returns to
the trampoline as soon as it starts a subform that needs the machine, so
host depth stays constant.  It checks every operator's global first and
runs the stepped path if one has been rebound.  The check holds only up to
the first stepped subform, which may run user code that rebinds one, so
all after it is left to the stepped path.
"""

# the compiled code reads this module's names, some imported only for it
from .errors import EvalError
from .forms import (
    _INLINE, AppExpr, BeginExpr, IfExpr, LambdaExpr, Literal, PrimAppN,
    PrimCall, RequireStmt, VarRef,
)
from .machine import (
    _FAIL, _run_body, apply_cont, apply_proc, cont_begin, cont_operand,
    invoke_fail,
)
from .primitives import _SCAN
from .values import BY_IDENTITY, NIL, UNASSIGNED, Closure, Pair

# how deep compiled code nests (Python's parser allows 100 levels of
# indentation) and its generator recurses; a subform past that runs through
# its own `run`
_NEST = 40


def fuse(lam):
    """Compile `lam`'s body to the `run` of a `BeginExpr` that becomes the
    whole body."""
    lam.entries = None
    code = _Code(dict(globals()), lam)
    code.run(BeginExpr(lam.body), "k", "    ", 0)
    # a body that is one form handed to its own `run` gains nothing
    if len(code.lines) == 1 and code.lines[0].endswith(".run(m, env, k)"):
        return
    exec(compile(code.function("body(node, m, env, k)",
                               "_run_body(m, node.body, 0, env, k)")
                 + "".join(code.rets), "<fused>", "exec"), code.ns)
    lam.body = (type("BeginExpr", (BeginExpr,), {
        "__slots__": (), "run": code.ns["body"]})(lam.body),)


class _Code:
    """What `fuse` compiles: the lines and operator guards of a function and
    the handlers of continuations made there.  The code reads this module's
    names, and each datum it is handed under a made-up name in `ns`."""

    def __init__(self, ns, lam):
        self.ns, self.lines, self.guards, self.rets = ns, [], {}, []
        self.params = len(lam.params) + (lam.rest is not None)

    def name(self, value):
        self.ns[f"k{len(self.ns)}"] = value
        return f"k{len(self.ns) - 1}"

    def function(self, head, fallback):
        checks = " or ".join(f"get({self.name(s)}) is not {self.name(p)}"
                             for s, p in self.guards) or "False"
        return "".join([f"def {head}:\n    get = m.globals.get\n"
                        f"    if {checks}:\n        return {fallback}\n",
                        *(line + "\n" for line in self.lines)])

    def value(self, root, pad):
        """Compute inline `root`, one temporary per node in the stepped
        path's order; gives the name or expression of its value."""
        code, results, todo = self.lines, [], [(root, False)]
        while todo:
            node, ready = todo.pop()
            temp = f"t{len(code)}"
            if isinstance(node, PrimAppN) and not ready:
                self.guards[node.op.name, node.prim] = None
                args = node.args
                lst = args[-1] if args else None
                test = (isinstance(lst, PrimAppN) and len(lst.args) <= 64
                        and _SCAN.get((node.prim.name, lst.prim.name)))
                if test:  # the list's operands stand in for the list
                    self.guards[lst.op.name, lst.prim] = None
                    args = (*args[:-1], *lst.args)
                todo.append((node, (len(args), test)))
                todo += [(a, False) for a in reversed(args)]
                continue
            if type(node) is LambdaExpr:
                # made once, though a scan names its operands more than once
                code.append(f"{pad}{temp} = Closure({self.name(node)}, env)")
            elif type(node) is Literal:
                temp = self.name(node.val(None, None))
            elif (type(node) is VarRef and node.depth == 0
                  and node.index <= self.params):
                temp = f"env[{node.index}]"  # a parameter is never unassigned
            elif isinstance(node, VarRef):
                read = (f"get({self.name(node.name)}, UNASSIGNED)"
                        if node.index is None
                        else f"env{'[0]' * node.depth}[{node.index}]")
                code += [f"{pad}{temp} = {read}", f"{pad}if {temp} is "
                         "UNASSIGNED: raise EvalError('UnboundVariable', "
                         f"{self.name(node.name.name)})"]
            else:
                count, test = ready
                xs = results[len(results) - count:]
                del results[len(results) - count:]
                if test:
                    results.append(self.scan(node, test, xs, pad))
                    continue
                if type(node) is RequireStmt:
                    value = f"_FAIL if {xs[0]} is False else {xs[0]}"
                elif node.prim.inline and len(xs) <= 64:
                    # a longer chain of nested calls could strain the compiler
                    value = node.prim.inline(xs)
                else:
                    value = f"{self.name(node.prim)}.fn(m, ({_items(xs)}))"
                code.append(f"{pad}{temp} = {value}")
            results.append(temp)
        return results[0]

    def scan(self, node, test, xs, pad):
        """Write `node` as the scan `_SCAN` gives it, of target `xs[0]` over
        items `xs[1:]`, which a symbol target needs no `test` for
        (`BY_IDENTITY`); gives its temporary."""
        code, build = self.lines, node.args[-1].prim.inline
        x, ys, temp, test = xs[0], xs[1:], f"t{len(code)}", self.name(test)
        code.append(f"{pad}{temp} = type({x}) is BY_IDENTITY")
        for i, y in enumerate(ys):
            code.append(f"{pad}{'el' * bool(i)}if {x} is {y} or not {temp} "
                        f"and {test}({x}, {y}): {temp} = {build(ys[i:])}")
        code.append(f"{pad}{'else: ' * bool(ys)}{temp} = False")
        return temp

    def run(self, node, k, pad, depth):
        """Run `node` toward `k` as its `run` would; the first subform that
        needs the machine gets the continuation the stepped path makes, and
        is run toward it in turn."""
        code = self.lines
        while not isinstance(node, _INLINE) and depth < _NEST:
            if (type(node) is IfExpr and isinstance(node.test, _INLINE)
                    and node.then is not None):
                code.append(f"{pad}if {self.value(node.test, pad)} "
                            "is not False:")
                self.run(node.then, k, pad + "    ", depth + 1)
                node = node.alt
            elif type(node) is BeginExpr:
                forms, node = node.body, node.body[-1]
                for i, form in enumerate(forms[:-1]):
                    if not isinstance(form, _INLINE):
                        k = self.cont(pad, "cont_begin", self.name(forms),
                                      i + 1, "env", k)
                        node = form
                        break
                    if type(form) is RequireStmt:
                        self.guards[form.op.name, form.prim] = None
                        code.append(f"{pad}if {self.value(form.args[0], pad)}"
                                    " is False: return invoke_fail(m)")
                    else:
                        self.value(form, pad)
            elif isinstance(node, AppExpr) and isinstance(node.op, _INLINE):
                primcall, app, xs = type(node) is PrimCall, self.name(node), []
                if primcall:
                    self.guards[node.op.name, node.prim] = None
                    proc = self.name(node.prim)
                else:
                    proc = self.value(node.op, pad)
                for i, arg in enumerate(node.args):
                    if isinstance(arg, _INLINE):
                        xs.append(self.value(arg, pad))
                        continue
                    if primcall and i == len(node.args) - 1:
                        # the primitive's last operand: the handler calls it
                        ys = _items(f"a{j}" for j in range(len(xs)))
                        label = f"ret{len(self.rets)}"
                        self.rets.append(
                            f"def {label}(m):\n    {ys}k, = m.fields_reg\n"
                            f"    apply_cont(m, k, {proc}.fn(m, ({ys}"
                            "m.value_reg, )))\n")
                        k = self.cont(pad, label, *xs, k)
                    else:
                        k = self.cont(pad, "cont_operand", proc, app, i + 1,
                                      f"({_items(xs)})", "env", k)
                    node = arg
                    break
                else:
                    return code.append(
                        f"{pad}return apply_cont(m, {k}, "
                        f"{proc}.fn(m, ({_items(xs)})))" if primcall else
                        f"{pad}return apply_proc(m, {proc}, ({_items(xs)}), "
                        f"{k}, {app})")
            else:
                break
        if isinstance(node, _INLINE):
            code.append(f"{pad}return apply_cont(m, {k}, "
                        f"{self.value(node, pad)})")
        else:
            code.append(f"{pad}return {self.name(node)}.run(m, env, {k})")

    def cont(self, pad, label, *fields):
        temp = f"c{len(self.lines)}"
        self.lines.append(f"{pad}{temp} = m.make_cont({label}, "
                          f"{_items(map(str, fields))})")
        return temp


def _items(xs):
    return "".join(x + ", " for x in xs)

