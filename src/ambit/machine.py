"""Trampolined register machine.

Evaluation is driven by a single loop that repeatedly invokes the handler
designated by the `pc` register.  Handlers only test and assign registers
and never call one another.  Continuations are immutable tagged records
(`Cont`), and the fail register holds a chain of choice points that
implements chronological backtracking for `choose`.

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
classes `parse_core` picks have their own: a `GlobalRef`, `LocalRef0` or
`LocalRef1` reads its variable without a depth loop, and a `PrimApp1`,
`PrimApp2` or `PrimAppN` calls its primitive inline, as a `PrimCall` does
once its operands are in, while the operator's global still holds it.
A `run` descends only into the subforms of its own form, and follows the
chain of ifs a `cond` becomes in a loop.  Entering a closure body
(`apply_proc`), delivering to a continuation (`apply_cont`) and resuming a
choice point (`invoke_fail`) only assign registers and return to the
trampoline, so host call depth grows only with the nesting that
`parse_core` itself recursed through, however deeply the interpreted
program recurses.  A body's forms run in one loop that makes a continuation
only for a form that needs the machine.

`require` is an ordinary primitive: on a false value it raises `Backtrack`,
which unwinds whatever handler was computing it to the trampoline, and the
trampoline resumes the most recent choice point.  A value is always
computed before anything is assigned from it, so the unwinding leaves
nothing half done, and `Backtrack` never leaves `trampoline`.  A body's
loop resumes the choice point itself for a `RequireStmt`, raising nothing.
"""

import sys

from . import syntax
from .errors import EvalError, SchemeError
from .forms import (
    AndExpr, AppExpr, BeginExpr, CallccExpr, ChooseExpr, DefineExpr,
    GlobalRef, IfExpr, LambdaExpr, Literal, LocalRef0, LocalRef1, OrExpr,
    PrimApp1, PrimApp2, PrimAppN, QuoteExpr, RequireStmt, SetExpr,
    VarRef, parse_core,
)
from .reader import SourceDatum, read_all
from .trace import TraceStack
from .values import (
    TERMINAL_FAIL, UNASSIGNED, VOID, ChoicePoint, Closure, Cont, Pair,
    Primitive, intern, list_from,
)
from .writer import write_value

NO_MORE_CHOICES = "no more choices"

_S_DEFINE_SYNTAX = intern("define-syntax")


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
        self.final_reg = None
        self.fail_reg = TERMINAL_FAIL
        self.globals = {}
        self.macros = {}
        self.trace = TraceStack(enabled=stack_trace)
        self.stdout = stdout if stdout is not None else sys.stdout
        self.cont_allocations = 0
        self.halt = self.make_cont(_halt)
        from .primitives import BOOT_SOURCE, install_primitives

        install_primitives(self.globals)
        for datum in read_all(BOOT_SOURCE):
            self.eval_top(datum, source="<builtin>")

    def make_cont(self, label, *fields):
        self.cont_allocations += 1
        return Cont(label, fields, self.trace.spine)

    def trampoline(self):
        """Run handlers until `pc` clears, then return the final register.
        A `Backtrack` from a handler resumes the most recent choice point."""
        try:
            while True:
                try:
                    pc = self.pc
                    while pc is not None:
                        pc(self)
                        pc = self.pc
                    return self.final_reg
                except Backtrack:
                    invoke_fail(self)
        except SchemeError as err:
            err.spine = self.trace.spine
            self.pc = None
            raise

    def eval_top(self, datum, source="<input>"):
        """Validate and evaluate one top-level form, expanding each macro use
        as `parse_core` meets it.

        The fail register persists across calls, so a bare `(choose)` at the
        top level re-enters the previous computation.  On error the global
        definitions survive, the fail chain is restored to its state before
        this form, and the trace stack is cleared.  Any other exception the
        host raises on the way (say, RecursionError on a deeply nested form)
        leaves the same state and surfaces as an InternalError, and Ctrl-C
        (KeyboardInterrupt) as an `Interrupted` error.
        """
        form = datum.value if isinstance(datum, SourceDatum) else datum
        saved_fail = self.fail_reg
        try:
            if isinstance(form, Pair) and form.car is _S_DEFINE_SYNTAX:
                name, clauses = syntax.parse_define_syntax(form)
                syntax.define_macro(self.macros, name, clauses)
                return VOID
            self.exp_reg = parse_core(form, self.macros, source, self.globals)
            self.env_reg = None
            self.k_reg = self.halt
            self.pc = _run
            return self.trampoline()
        except (Exception, KeyboardInterrupt) as err:
            self.fail_reg = saved_fail
            self.trace.clear()
            self.pc = None
            if isinstance(err, SchemeError):
                raise
            if isinstance(err, KeyboardInterrupt):
                raise EvalError("Interrupted", "evaluation stopped") from err
            raise EvalError("InternalError",
                            f"{type(err).__name__}: {err}") from err

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


def _halt(m):
    m.final_reg = m.value_reg
    m.pc = None


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


def _local0_val(ref, m, env):
    value = env[ref.index]
    if value is UNASSIGNED:
        raise EvalError("UnboundVariable", ref.name.name)
    return value


def _local1_val(ref, m, env):
    value = env[0][ref.index]
    if value is UNASSIGNED:
        raise EvalError("UnboundVariable", ref.name.name)
    return value


VarRef.val = _var_val
VarRef.run = _deliver
GlobalRef.val = _global_val
LocalRef0.val = _local0_val
LocalRef1.val = _local1_val
Literal.val = lambda lit, m, env: lit.value
Literal.run = lambda lit, m, env, k: apply_cont(m, k, lit.value)
QuoteExpr.val = lambda quote, m, env: quote.datum
QuoteExpr.run = lambda quote, m, env, k: apply_cont(m, k, quote.datum)
LambdaExpr.val = lambda lam, m, env: Closure(lam, env)
LambdaExpr.run = _deliver
for _cls in (IfExpr, DefineExpr, SetExpr, BeginExpr, AndExpr, OrExpr,
             CallccExpr, ChooseExpr, AppExpr):
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
    args = ()
    for arg in app.args:
        value = arg.val(m, env)
        if value is _STEP:
            return _STEP
        args += (value,)
    return prim.fn(m, args)


# what a `RequireStmt` gives for a false test, so its body backtracks
_FAIL = object()


def _require_stmt_val(app, m, env):
    if m.globals.get(app.op.name) is not app.prim:
        return _STEP
    test = app.args[0].val(m, env)
    return _FAIL if test is False else test


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
RequireStmt.val = _require_stmt_val


def cont_operator(m):
    app, env, k = m.fields_reg
    _eval_operands(m, m.value_reg, app, 0, (), env, k)


def cont_operand(m):
    proc, app, i, acc, env, k = m.fields_reg
    _eval_operands(m, proc, app, i, acc + (m.value_reg,), env, k)


def _eval_operands(m, proc, app, i, acc, env, k):
    """Evaluate remaining operands left to right, then apply."""
    args = app.args
    n = len(args)
    while i < n:
        arg = args[i]
        value = arg.val(m, env)
        if value is _STEP:
            arg.run(m, env, m.make_cont(cont_operand, proc, app, i + 1, acc,
                                        env, k))
            return
        acc += (value,)
        i += 1
    if proc is app.prim:
        # a `PrimCall`'s primitive, computed before `k`'s spine is current
        apply_cont(m, k, proc.fn(m, acc))
    else:
        apply_proc(m, proc, acc, k, app)


# the branch an `if` without an alternative takes when its test is false
_NO_ALT = Literal(VOID)


def _if_run(exp, m, env, k):
    """`parse_core` builds a `cond`'s clauses into a chain of ifs in a loop,
    not by recursion, so the chain is followed in a loop too."""
    while True:
        test = exp.test.val(m, env)
        if test is _STEP:
            exp.test.run(m, env, m.make_cont(cont_if, exp, env, k))
            return
        exp = exp.then if test is not False else exp.alt or _NO_ALT
        if type(exp) is not IfExpr:
            exp.run(m, env, k)
            return


IfExpr.run = _if_run


def cont_if(m):
    exp, env, k = m.fields_reg
    branch = exp.then if m.value_reg is not False else exp.alt or _NO_ALT
    branch.run(m, env, k)


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
        value = exp.val(m, env)
        if value is _STEP:
            exp.run(m, env, m.make_cont(cont_begin, body, i, env, k))
            return
        if value is _FAIL:
            invoke_fail(m)
            return
    body[last].run(m, env, k)


BeginExpr.run = lambda exp, m, env, k: _run_body(m, exp.body, 0, env, k)


def cont_begin(m):
    body, i, env, k = m.fields_reg
    _run_body(m, body, i, env, k)


def _eval_and_or(m, exprs, env, k, cont_label, empty_value):
    if not exprs:
        apply_cont(m, k, empty_value)
    elif len(exprs) == 1:
        exprs[0].run(m, env, k)
    else:
        exprs[0].run(m, env, m.make_cont(cont_label, exprs, 1, env, k))


AndExpr.run = lambda exp, m, env, k: _eval_and_or(m, exp.exprs, env, k,
                                                  cont_and, True)
OrExpr.run = lambda exp, m, env, k: _eval_and_or(m, exp.exprs, env, k,
                                                 cont_or, False)


def cont_and(m):
    exprs, i, env, k = m.fields_reg
    value = m.value_reg
    if value is False:
        apply_cont(m, k, value)
    elif i == len(exprs) - 1:
        exprs[i].run(m, env, k)
    else:
        exprs[i].run(m, env, m.make_cont(cont_and, exprs, i + 1, env, k))


def cont_or(m):
    exprs, i, env, k = m.fields_reg
    value = m.value_reg
    if value is not False:
        apply_cont(m, k, value)
    elif i == len(exprs) - 1:
        exprs[i].run(m, env, k)
    else:
        exprs[i].run(m, env, m.make_cont(cont_or, exprs, i + 1, env, k))


def _callcc_run(exp, m, env, k):
    proc = exp.expr.val(m, env)
    if proc is _STEP:
        exp.expr.run(m, env, m.make_cont(cont_callcc, k))
    else:
        apply_proc(m, proc, (k,), k)


CallccExpr.run = _callcc_run


def cont_callcc(m):
    (k,) = m.fields_reg
    apply_proc(m, m.value_reg, (k,), k)


def _raise_arity(proc, na):
    if proc.max_args is None:
        expected = f"at least {proc.min_args}"
    elif proc.min_args == proc.max_args:
        expected = str(proc.min_args)
    else:
        expected = f"{proc.min_args} to {proc.max_args}"
    raise EvalError("ArityError",
                    f"{proc.name}: expected {expected} argument(s), got {na}")


def apply_proc(m, proc, args, k, app=None):
    """Apply closure, primitive, or continuation to already-evaluated args.

    This is the only place a closure is entered, and the body starts from
    the trampoline rather than from here, through `cont_begin` when it has
    more than one form.  Tail calls happen here:
    the callee runs toward the caller's `k`, so the continuation chain does
    not grow for calls in tail position.  The callee's trace frame goes on
    top of `k`'s spine rather than the current one, so a tail call replaces
    its caller's frame and the trace stays bounded for tail-recursive loops.
    `app` is the application form, which supplies the label and call site.
    """
    t = type(proc)
    if t is Closure:
        lam = proc.lam
        np = len(lam.params)
        na = len(args)
        if lam.rest is None:
            if na != np:
                raise EvalError("ArityError",
                                f"{_proc_label(proc, app)}: expected {np} "
                                f"argument(s), got {na}")
            env = [proc.env, *args]
        else:
            if na < np:
                raise EvalError("ArityError",
                                f"{_proc_label(proc, app)}: expected at least "
                                f"{np} argument(s), got {na}")
            env = [proc.env, *args[:np], list_from(args[np:])]
        if lam.defines:
            env += [UNASSIGNED] * lam.defines
        trace = m.trace
        if trace.config.enabled:
            # node layout: (label, args, line, col, source, parent, depth)
            parent = k.spine
            depth = 1 if parent is None else parent[6] + 1
            if app is None:
                trace.spine = (_proc_label(proc, None), args, None, None, None,
                               parent, depth)
            else:
                label = app.op_name
                if label is None:
                    label = _proc_label(proc, None)
                trace.spine = (label, args, app.line, app.col, app.source,
                               parent, depth)
            if depth > trace.high_water:
                trace.high_water = depth
        body = lam.body
        if len(body) > 1:
            m.fields_reg = (body, 0, env, k)
            m.pc = cont_begin
            return
        m.exp_reg = body[0]
        m.env_reg = env
        m.k_reg = k
        m.pc = _run
        return
    if t is Primitive:
        na = len(args)
        if na < proc.min_args or (proc.max_args is not None
                                  and na > proc.max_args):
            _raise_arity(proc, na)
        if proc.control:
            proc.fn(m, args, k)
        else:
            apply_cont(m, k, proc.fn(m, args))
        return
    if t is Cont:
        if len(args) != 1:
            raise EvalError("ArityError",
                            f"continuation expects 1 argument, got {len(args)}")
        apply_cont(m, proc, args[0])
        return
    raise EvalError("NotAProcedure", write_value(proc))


def _proc_label(proc, app):
    if app is not None and app.op_name is not None:
        return app.op_name
    if type(proc) is Closure and proc.name is not None:
        return proc.name.name
    return "#<procedure>"


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
    """Backtrack to the most recent unexhausted choice point.

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
    m.exp_reg = alternatives[index - 1]
    m.env_reg = f.env
    m.k_reg = f.k
    m.pc = _run
