"""Trampolined register machine.

Evaluation is driven by a single loop that repeatedly invokes the handler
designated by the `pc` register; `Machine.eval_top` is the one way into it
and out of it.  Handlers only test and assign registers and never call one
another.  Continuations are immutable tagged records (`Cont`), and the fail
register holds a chain of choice points that implements chronological
backtracking for `choose`.

Variables arrive resolved by `forms`: a local is slot `index` of the frame
`depth` links out from `env_reg`, where a frame is a list whose slot 0 is
the enclosing frame; a global is read by symbol from `Machine.globals`, a
plain dict, each time, so redefinitions are seen.  A body `define`'s slot
holds UNASSIGNED until the `define` runs, and reading it earlier is an
unbound-variable error.

Each core form evaluates itself: this module gives every node class of
`forms` a `run(m, env, k)` method, which evaluates the form toward `k`, and
a `val(m, env)` method, which returns the form's value when it has no
observable evaluation steps and `_STEP` when it needs the machine.  The
classes `parse_core` picks have their own: a `GlobalRef` reads its symbol
from the global table, and a `PrimApp1`, `PrimApp2` or `PrimAppN` calls its
primitive inline while the operator's global still holds it.  Once the
operands of a stepped application are in, `apply_proc` applies its operator.
A `run` descends only into the subforms of its own form, and follows the
chain of ifs a `cond`, `and` or `or` becomes in a loop.  `call/cc` is a
control primitive (see `primitives`), so there are nine core forms: the
node classes of `forms`.  Entering a closure (`_enter`, which `apply_proc`
and compiled code both end in), delivering to a continuation (`apply_cont`)
and resuming a choice point (`invoke_fail`) only assign registers and return
to the trampoline, so host call depth grows only with the nesting that
`parse_core` itself recursed through, however deeply the interpreted program
recurses.  A lambda's body is one node; a body of several forms runs them in
one loop that makes a continuation only for a form that needs the machine.

Once a lambda's closures have been entered `_HOT_ENTRIES` times, its body
is compiled to Python (see `compiler`), as are an application's return
points once its operand continuations have been resumed that often; a form
run once never compiles.

`require` is an ordinary primitive: on a false value it raises `Backtrack`,
which unwinds whatever handler was computing it to the trampoline, and the
trampoline resumes the most recent choice point.  A value is always
computed before anything is assigned from it, so the unwinding leaves
nothing half done, and `Backtrack` never leaves `trampoline`.  Only compiled
code resumes the choice point without raising (see `compiler`).
"""

import sys

from .errors import EvalError, SchemeError
from .forms import (
    AppExpr, BeginExpr, ChooseExpr, DefineExpr, GlobalRef, IfExpr,
    LambdaExpr, Literal, PrimApp1, PrimApp2, PrimAppN, SetExpr, VarRef,
    parse_core,
)
from .reader import SourceDatum, read_all
from .trace import TraceStack
from .values import (
    TERMINAL_FAIL, UNASSIGNED, VOID, ChoicePoint, Closure, Cont, Primitive,
    list_from,
)
from .writer import write_value

NO_MORE_CHOICES = "no more choices"


class Backtrack(Exception):
    """A failed `require`: resume the most recent choice point.

    Not a SchemeError, since it is control flow rather than an error; the
    trampoline catches it and calls `invoke_fail`.
    """


class Machine:
    """One interpreter instance: registers, global table, macro table.

    Distinct machines are fully independent; a single machine is strictly
    single-threaded.
    """

    def __init__(self, stdout=None, stack_trace=True):
        self.pc = None
        self.exp_reg = None
        self.env_reg = None
        self.value_reg = None
        self.k_reg = None
        self.fields_reg = None
        self.fail_reg = TERMINAL_FAIL
        self.globals = {}
        self.macros = {}
        self.trace = TraceStack(enabled=stack_trace)
        self.stdout = stdout if stdout is not None else sys.stdout
        self.cont_allocations = 0
        # delivering to it clears `pc`, which ends the trampoline
        self.halt = self.make_cont(None)
        from .primitives import BOOT_SOURCE, install_primitives

        install_primitives(self.globals)
        self.eval_source(BOOT_SOURCE, source="<builtin>")

    def make_cont(self, label, *fields):
        self.cont_allocations += 1
        return Cont(label, fields, self.trace.spine)

    def trampoline(self):
        """Run handlers until `pc` clears, then return the value register.
        A `Backtrack` from a handler resumes the most recent choice point."""
        while True:
            try:
                pc = self.pc
                while pc is not None:
                    pc(self)
                    pc = self.pc
                return self.value_reg
            except Backtrack:
                invoke_fail(self)

    def eval_top(self, datum, source="<input>"):
        """Evaluate one top-level form: the one way into the trampoline and
        the one way out of it.

        `parse_core` expands each macro use as it meets it and defines the
        macro of a `define-syntax`.  The fail register persists across calls,
        so a bare `(choose)` at the top level re-enters the previous
        computation.  On any error the global definitions survive, the fail
        chain is restored to its state before this form, `pc` and the trace
        stack are cleared, and the error keeps the frames that were pending
        in `spine`.  A host exception (say, RecursionError on a deeply nested
        form) surfaces as an InternalError, and Ctrl-C as `Interrupted`.
        """
        form = datum.value if isinstance(datum, SourceDatum) else datum
        saved_fail = self.fail_reg
        try:
            self.exp_reg = parse_core(form, self.macros, source, self.globals)
            self.env_reg = None
            self.k_reg = self.halt
            self.pc = _run
            return self.trampoline()
        except (Exception, KeyboardInterrupt) as err:
            spine = self.trace.spine
            self.fail_reg = saved_fail
            self.trace.clear()
            self.pc = None
            if isinstance(err, SchemeError):
                err.spine = spine
                raise
            error = (EvalError("Interrupted", "evaluation stopped")
                     if isinstance(err, KeyboardInterrupt) else
                     EvalError("InternalError",
                               f"{type(err).__name__}: {err}"))
            error.spine = spine
            raise error from err

    def eval_source(self, text, source="<input>"):
        """Evaluate every form in `text`; returns the last value (or void)."""
        result = VOID
        for datum in read_all(text):
            result = self.eval_top(datum, source)
        return result


def apply_cont(m, k, value):
    """Deliver `value` to continuation `k` by setting registers.

    Making `k`'s frame spine current is what pops the frames of applications
    that have now produced their result; for a re-entered continuation it
    brings back the frames that were pending when `k` was made.
    """
    m.trace.spine = k.spine
    m.value_reg = value
    m.fields_reg = k.fields
    m.pc = k.label


def _run(m):
    """Evaluate `exp_reg` in `env_reg` toward `k_reg`."""
    m.exp_reg.run(m, m.env_reg, m.k_reg)


# what `val` gives for a form that needs the machine
_STEP = object()


def _step(exp, m, env):
    return _STEP


def _deliver(exp, m, env, k):
    apply_cont(m, k, exp.val(m, env))


def _var_val(ref, m, env):
    depth = ref.depth
    while depth:
        env = env[0]
        depth -= 1
    value = env[ref.index]
    if value is UNASSIGNED:
        raise EvalError("UnboundVariable", ref.name.name)
    return value


def _global_val(ref, m, env):
    try:
        return m.globals[ref.name]
    except KeyError:
        raise EvalError("UnboundVariable", ref.name.name) from None


VarRef.val = _var_val
VarRef.run = _deliver
GlobalRef.val = _global_val
Literal.val = lambda lit, m, env: lit.value
Literal.run = lambda lit, m, env, k: apply_cont(m, k, lit.value)
LambdaExpr.val = lambda lam, m, env: Closure(lam, env)
LambdaExpr.run = _deliver
for _cls in (IfExpr, DefineExpr, SetExpr, BeginExpr, ChooseExpr, AppExpr):
    _cls.val = _step


# A `PrimApp*` gives up while its operator's global does not hold its
# primitive.  Only a rebound operator nested among its operands can make it
# give up after computing some, which the stepped path then computes again;
# a `(require #f)` among them raises `Backtrack`, as it would there.
def _prim_app1_val(app, m, env):
    prim = app.prim
    if m.globals.get(app.op.name) is not prim:
        return _STEP
    a = app.args[0].val(m, env)
    return _STEP if a is _STEP else prim.fn(m, (a,))


def _prim_app2_val(app, m, env):
    prim = app.prim
    if m.globals.get(app.op.name) is not prim:
        return _STEP
    operands = app.args
    a = operands[0].val(m, env)
    if a is _STEP:
        return _STEP
    b = operands[1].val(m, env)
    return _STEP if b is _STEP else prim.fn(m, (a, b))


def _prim_app_val(app, m, env):
    prim = app.prim
    if m.globals.get(app.op.name) is not prim:
        return _STEP
    args = []
    for arg in app.args:
        value = arg.val(m, env)
        if value is _STEP:
            return _STEP
        args.append(value)
    return prim.fn(m, tuple(args))


def _app_run(app, m, env, k):
    op = app.op
    proc = op.val(m, env)
    if proc is _STEP:
        op.run(m, env, m.make_cont(cont_operator, app, env, k))
    else:
        _eval_operands(m, proc, app, 0, (), env, k)


AppExpr.run = _app_run
PrimAppN.val = _prim_app_val
PrimApp1.val = _prim_app1_val
PrimApp2.val = _prim_app2_val

# closure entries after which a lambda's body is compiled
_HOT_ENTRIES = 1000

def cont_operator(m):
    app, env, k = m.fields_reg
    _eval_operands(m, m.value_reg, app, 0, (), env, k)


def cont_operand(m):
    """Resume `app` after its stepped operand `i - 1`.  `app.site` counts
    these resumptions up to `_HOT_ENTRIES`, then holds the return points
    compiled for each `i` (see `compiler`), or None if it never will."""
    proc, app, i, acc, env, k = m.fields_reg
    site = app.site
    if type(site) is int:
        app.site = site + 1
        if site + 1 >= _HOT_ENTRIES:
            from .compiler import compile_site
            compile_site(app)
    elif site is not None and site[i]:
        site[i](m)
        return
    _eval_operands(m, proc, app, i, acc + (m.value_reg,), env, k)


def _eval_operands(m, proc, app, i, acc, env, k):
    """Evaluate remaining operands left to right, then apply.  A run of
    values computed inline is gathered in a list, and a continuation gets
    the values as a tuple."""
    args = app.args
    n = len(args)
    values = acc
    while i < n:
        arg = args[i]
        i += 1
        value = arg.val(m, env)
        if value is _STEP:
            arg.run(m, env, m.make_cont(cont_operand, proc, app, i,
                                        tuple(values), env, k))
            return
        if values is acc:
            values = [*acc]
        values.append(value)
    apply_proc(m, proc, acc if values is acc else tuple(values), k, app)


def _if_run(exp, m, env, k):
    """`parse_core` builds `cond`, `and` and `or` into chains of ifs in a
    loop, not by recursion, so a chain is followed in a loop too."""
    while True:
        test = exp.test.val(m, env)
        if test is _STEP:
            exp.test.run(m, env, m.make_cont(cont_if, exp, env, k))
            return
        if test is not False and exp.then is None:
            apply_cont(m, k, test)
            return
        exp = exp.alt if test is False else exp.then
        if type(exp) is not IfExpr:
            exp.run(m, env, k)
            return


IfExpr.run = _if_run


def cont_if(m):
    exp, env, k = m.fields_reg
    value = m.value_reg
    if value is not False and exp.then is None:
        apply_cont(m, k, value)
    else:
        (exp.alt if value is False else exp.then).run(m, env, k)


def _define_run(exp, m, env, k):
    value = exp.expr.val(m, env)
    if value is _STEP:
        exp.expr.run(m, env, m.make_cont(cont_define, exp, env, k))
    else:
        _finish_define(m, exp, value, env, k)


DefineExpr.run = _define_run


def _finish_define(m, exp, value, env, k):
    name = exp.name
    if type(value) is Closure and value.name is None:
        value.name = name
    if exp.index is None:
        m.globals[name] = value
    else:
        env[exp.index] = value
    apply_cont(m, k, VOID)


def cont_define(m):
    exp, env, k = m.fields_reg
    _finish_define(m, exp, m.value_reg, env, k)


def _set_run(exp, m, env, k):
    value = exp.expr.val(m, env)
    if value is _STEP:
        exp.expr.run(m, env, m.make_cont(cont_set, exp.target, env, k))
    else:
        _assign(m, exp.target, env, value)
        apply_cont(m, k, VOID)


SetExpr.run = _set_run


def _assign(m, ref, env, value):
    """`set!`: the variable must already be bound (or its `define` run)."""
    index = ref.index
    if index is None:
        if ref.name not in m.globals:
            raise EvalError("UnboundVariable", f"set!: {ref.name.name}")
        m.globals[ref.name] = value
        return
    depth = ref.depth
    while depth:
        env = env[0]
        depth -= 1
    if env[index] is UNASSIGNED:
        raise EvalError("UnboundVariable", f"set!: {ref.name.name}")
    env[index] = value


def cont_set(m):
    ref, env, k = m.fields_reg
    _assign(m, ref, env, m.value_reg)
    apply_cont(m, k, VOID)


def _run_body(m, body, i, env, k):
    """Run `body[i:]` toward `k`, the last form in tail position.  A
    non-final form whose value can be computed inline is computed and
    dropped in this loop; only one that needs the machine gets a
    continuation for the rest of the body."""
    last = len(body) - 1
    while i < last:
        exp = body[i]
        i += 1
        if exp.val(m, env) is _STEP:
            exp.run(m, env, m.make_cont(cont_begin, body, i, env, k))
            return
    body[last].run(m, env, k)


BeginExpr.run = lambda exp, m, env, k: _run_body(m, exp.body, 0, env, k)


def cont_begin(m):
    body, i, env, k = m.fields_reg
    _run_body(m, body, i, env, k)


def _raise_arity(label, least, most, na):
    """Every procedure's ArityError; `most` is None for no upper bound."""
    if most is None:
        expected = f"at least {least}"
    elif least == most:
        expected = str(least)
    else:
        expected = f"{least} to {most}"
    raise EvalError("ArityError",
                    f"{label}: expected {expected} argument(s), got {na}")


def apply_proc(m, proc, args, k, app=None):
    """Apply closure, primitive, or continuation to already-evaluated args.

    A closure's arguments are checked and its frame built here, and its
    entries counted until it is compiled; then `_enter` enters it.  Tail
    calls happen here: the callee runs toward the caller's `k`, so the
    continuation chain does not grow for calls in tail position.  `app` is
    the application form, which supplies the label and call site; it is None
    for a call through `apply` or `call/cc`.
    """
    t = type(proc)
    if t is Closure:
        lam = proc.lam
        np = len(lam.params)
        na = len(args)
        if lam.rest is None:
            if na != np:
                _raise_arity(_proc_label(proc, app), np, np, na)
            env = [proc.env, *args]
        else:
            if na < np:
                _raise_arity(_proc_label(proc, app), np, None, na)
            env = [proc.env, *args[:np], list_from(args[np:])]
        if lam.defines:
            env += [UNASSIGNED] * lam.defines
        if lam.entries is not None:
            lam.entries += 1
            if lam.entries >= _HOT_ENTRIES:
                # imported here, so a session that never gets hot never
                # loads the compiler
                from .compiler import fuse
                fuse(lam)
        _enter(m, proc, env, args, k, app)
        return
    if t is Primitive:
        na = len(args)
        if na < proc.min_args or (proc.max_args is not None
                                  and na > proc.max_args):
            _raise_arity(proc.name, proc.min_args, proc.max_args, na)
        if proc.control:
            proc.fn(m, args, k)
        else:
            apply_cont(m, k, proc.fn(m, args))
        return
    if t is Cont:
        if len(args) != 1:
            _raise_arity("continuation", 1, 1, len(args))
        apply_cont(m, proc, args[0])
        return
    raise EvalError("NotAProcedure", write_value(proc))


def _enter(m, proc, env, args, k, app):
    """Enter closure `proc` in the frame `env` made of `args`: the one place
    that pushes a closure's trace node and starts its body, from the
    trampoline.  The node goes on `k`'s spine, so a tail call replaces its
    caller's frame and a loop's trace stays bounded; its label is taken
    now, so a later `define` does not rename a pending frame."""
    trace = m.trace
    if trace.config.enabled:
        parent = k.spine
        depth = 1 if parent is None else parent[4] + 1
        trace.spine = (app and app.op_name or _proc_label(proc, None), args,
                       app, parent, depth)
        if depth > trace.high_water:
            trace.high_water = depth
    m.exp_reg = proc.lam.body
    m.env_reg = env
    m.k_reg = k
    m.pc = _run


def _proc_label(proc, app):
    if app is not None and app.op_name is not None:
        return app.op_name
    return "#<procedure>" if proc.name is None else proc.name.name


def _choose_run(exp, m, env, k):
    """Evaluate the first alternative, saving the rest as a choice point."""
    alternatives = exp.exprs
    if not alternatives:
        invoke_fail(m)
        return
    if len(alternatives) > 1:
        m.fail_reg = ChoicePoint(alternatives, 1, env, k, m.fail_reg,
                                 m.trace.snapshot())
    alternatives[0].run(m, env, k)


ChooseExpr.run = _choose_run


def invoke_fail(m):
    """Backtrack to the most recent unexhausted choice point; a literal
    alternative goes straight to the choice point's continuation.

    At the bottom of the chain the computation ends by delivering the string
    "no more choices" to the halt continuation.
    """
    f = m.fail_reg
    if type(f) is not ChoicePoint:
        apply_cont(m, m.halt, NO_MORE_CHOICES)
        return
    alternatives = f.alternatives
    index = f.index + 1
    # the chain holds no point whose last alternative has been taken
    m.fail_reg = (f.parent if index == len(alternatives) else
                  ChoicePoint(alternatives, index, f.env, f.k, f.parent,
                              f.spine))
    m.trace.restore(f.spine)
    alternative = alternatives[index - 1]
    if type(alternative) is Literal:
        apply_cont(m, f.k, alternative.value)
        return
    m.exp_reg = alternative
    m.env_reg = f.env
    m.k_reg = f.k
    m.pc = _run
