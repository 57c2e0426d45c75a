"""Trampolined register machine.

Evaluation is driven by a single loop that repeatedly invokes the handler
designated by the `pc` register.  Handlers only test and assign registers
and never call one another, so host call depth stays constant no matter how
deeply the interpreted program recurses.  Continuations are immutable
tagged records (`Cont`), and the fail register holds a chain of choice
points that implements chronological backtracking for `choose`.

Variables arrive resolved by `forms`: a local is slot `index` of the frame
`depth` links out from `env_reg`, where a frame is a list whose slot 0 is
the enclosing frame; a global is read by symbol from `Machine.globals`, a
plain dict, each time, so redefinitions are seen.  A body `define`'s slot
holds UNASSIGNED until the `define` runs, and reading it earlier is an
unbound-variable error.

Two flavors of shortcut keep the dispatch loop fast without changing
semantics: forms with no observable evaluation steps (variables, literals,
quotes, lambdas, and applications of pure primitives to such forms) are
computed inline, and `if` chains with inline-computable tests are collapsed
before control returns to the trampoline.  Both are plain register updates;
neither recurses with the interpreted program.
"""

import sys

from . import syntax
from .errors import EvalError, SchemeError
from .forms import (
    AndExpr, AppExpr, BeginExpr, CallccExpr, ChooseExpr, DefineExpr, IfExpr,
    LambdaExpr, Literal, OrExpr, QQConst, QQPair, QQSplice, QQUnquote,
    QQVector, QuasiExpr, QuoteExpr, SetExpr, VarRef, parse_core,
)
from .reader import SourceDatum, read_all
from .trace import TraceStack
from .values import (
    TERMINAL_FAIL, UNASSIGNED, VOID, ChoicePoint, Closure, Cont, Pair,
    Primitive, intern, is_proper_list, list_from,
)
from .writer import write_value

NO_MORE_CHOICES = "no more choices"

_S_DEFINE_SYNTAX = intern("define-syntax")
_NOT_ATOMIC = object()


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
        """Run handlers until `pc` clears, then return the final register."""
        try:
            pc = self.pc
            while pc is not None:
                pc(self)
                pc = self.pc
        except SchemeError as err:
            err.spine = self.trace.spine
            self.pc = None
            raise
        return self.final_reg

    def eval_top(self, datum, source="<input>"):
        """Validate and evaluate one top-level form, expanding each macro use
        as `parse_core` meets it.

        The fail register persists across calls, so a bare `(choose)` at the
        top level re-enters the previous computation.  On error the global
        definitions survive, the fail chain is restored to its state before
        this form, and the trace stack is cleared.  Any other exception the
        host raises on the way (say, RecursionError on a deeply nested form)
        leaves the same state and surfaces as an InternalError.
        """
        form = datum.value if isinstance(datum, SourceDatum) else datum
        saved_fail = self.fail_reg
        try:
            if isinstance(form, Pair) and form.car is _S_DEFINE_SYNTAX:
                name, clauses = syntax.parse_define_syntax(form)
                syntax.define_macro(self.macros, name, clauses)
                return VOID
            _goto_exp(self, parse_core(form, self.macros, source), None,
                      self.halt)
            return self.trampoline()
        except Exception as err:
            self.fail_reg = saved_fail
            self.trace.clear()
            self.pc = None
            if isinstance(err, SchemeError):
                raise
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


def _eval_simple(m, form, env):
    """Value of a form the machine may evaluate inline, else a sentinel.

    Variable reads, literals, quotes, and closure creation have no
    observable evaluation steps.  Applications of pure primitives to simple
    operands also qualify: the attempt bails out (before anything impure can
    run) whenever a subform needs the machine, and the normal stepped path
    re-evaluates from the start with identical results.
    """
    t = type(form)
    if t is VarRef:
        index = form.index
        if index is None:
            value = m.globals.get(form.name, UNASSIGNED)
        else:
            depth = form.depth
            while depth:
                env = env[0]
                depth -= 1
            value = env[index]
        if value is UNASSIGNED:
            raise EvalError("UnboundVariable", form.name.name)
        return value
    if t is Literal:
        return form.value
    if t is AppExpr:
        op = form.op
        if type(op) is not VarRef:
            return _NOT_ATOMIC
        if op.index is None:
            # an unbound global is reported by the stepped path
            proc = m.globals.get(op.name)
        else:
            proc = _eval_simple(m, op, env)
        if type(proc) is not Primitive or not proc.pure:
            return _NOT_ATOMIC
        values = ()
        for arg in form.args:
            ta = type(arg)
            if ta is VarRef:
                index = arg.index
                if index is None:
                    value = m.globals.get(arg.name, UNASSIGNED)
                else:
                    frame = env
                    depth = arg.depth
                    while depth:
                        frame = frame[0]
                        depth -= 1
                    value = frame[index]
                if value is UNASSIGNED:
                    raise EvalError("UnboundVariable", arg.name.name)
            elif ta is Literal:
                value = arg.value
            else:
                value = _eval_simple(m, arg, env)
                if value is _NOT_ATOMIC:
                    return _NOT_ATOMIC
            values += (value,)
        na = len(values)
        if na < proc.min_args or (proc.max_args is not None
                                  and na > proc.max_args):
            _raise_arity(proc, na)
        return proc.fn(m, values)
    if t is QuoteExpr:
        return form.datum
    if t is LambdaExpr:
        return Closure(form, env)
    return _NOT_ATOMIC


def _goto_exp(m, exp, env, k):
    """Transfer control to evaluating `exp` toward `k`.

    Collapses `if` chains whose tests compute inline and delivers variable,
    literal, quote, and closure values directly, saving trampoline bounces;
    everything else goes to step_eval.  Pure register updates, bounded by
    the static nesting of the form.
    """
    t = type(exp)
    while t is IfExpr:
        test = _eval_simple(m, exp.test, env)
        if test is _NOT_ATOMIC:
            # the test needs the machine; the branch is picked by cont_if
            m.exp_reg = exp.test
            m.env_reg = env
            m.k_reg = m.make_cont(cont_if, exp, env, k)
            m.pc = step_eval
            return
        if test is not False:
            exp = exp.then
        elif exp.alt is None:
            apply_cont(m, k, VOID)
            return
        else:
            exp = exp.alt
        t = type(exp)
    if t is VarRef or t is Literal or t is QuoteExpr or t is LambdaExpr:
        apply_cont(m, k, _eval_simple(m, exp, env))
        return
    m.exp_reg = exp
    m.env_reg = env
    m.k_reg = k
    m.pc = step_eval


def step_eval(m):
    """Dispatch on a compound form: evaluates `exp_reg` in `env_reg` toward
    `k_reg`.  Atomic forms never get here; `_goto_exp` delivers them."""
    exp = m.exp_reg
    t = type(exp)
    if t is AppExpr:
        env = m.env_reg
        op = exp.op
        if type(op) is VarRef:
            index = op.index
            if index is None:
                proc = m.globals.get(op.name, UNASSIGNED)
            else:
                frame = env
                depth = op.depth
                while depth:
                    frame = frame[0]
                    depth -= 1
                proc = frame[index]
            if proc is UNASSIGNED:
                raise EvalError("UnboundVariable", op.name.name)
        else:
            proc = _eval_simple(m, op, env)
            if proc is _NOT_ATOMIC:
                m.exp_reg = op
                m.k_reg = m.make_cont(cont_operator, exp, env, m.k_reg)
                return
        _eval_operands(m, proc, exp, 0, (), env, m.k_reg)
        return
    if t is IfExpr:
        _goto_exp(m, exp, m.env_reg, m.k_reg)
        return
    if t is BeginExpr:
        _eval_body(m, exp.body, m.env_reg, m.k_reg)
        return
    if t is DefineExpr:
        env = m.env_reg
        value = _eval_simple(m, exp.expr, env)
        if value is _NOT_ATOMIC:
            m.exp_reg = exp.expr
            m.k_reg = m.make_cont(cont_define, exp, env, m.k_reg)
            return
        _finish_define(m, exp, value, env, m.k_reg)
        return
    if t is SetExpr:
        env = m.env_reg
        value = _eval_simple(m, exp.expr, env)
        if value is _NOT_ATOMIC:
            m.exp_reg = exp.expr
            m.k_reg = m.make_cont(cont_set, exp.target, env, m.k_reg)
            return
        _assign(m, exp.target, env, value)
        apply_cont(m, m.k_reg, VOID)
        return
    if t is AndExpr:
        _eval_and_or(m, exp.exprs, m.env_reg, m.k_reg, cont_and, True)
        return
    if t is OrExpr:
        _eval_and_or(m, exp.exprs, m.env_reg, m.k_reg, cont_or, False)
        return
    if t is CallccExpr:
        k = m.k_reg
        proc = _eval_simple(m, exp.expr, m.env_reg)
        if proc is _NOT_ATOMIC:
            m.exp_reg = exp.expr
            m.k_reg = m.make_cont(cont_callcc, k)
            return
        apply_proc(m, proc, (k,), k)
        return
    if t is ChooseExpr:
        eval_choose(m, exp.exprs, m.env_reg, m.k_reg)
        return
    if t is QuasiExpr:
        m.exp_reg = exp.root
        m.pc = step_qq
        return
    raise EvalError("InternalError", f"unknown core form {exp!r}")


def cont_if(m):
    exp, env, k = m.fields_reg
    if m.value_reg is not False:
        _goto_exp(m, exp.then, env, k)
    elif exp.alt is None:
        apply_cont(m, k, VOID)
    else:
        _goto_exp(m, exp.alt, env, k)


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


def _eval_body(m, body, env, k):
    """Evaluate a non-empty form sequence; the last form is in tail position."""
    if len(body) == 1:
        _goto_exp(m, body[0], env, k)
    else:
        _goto_exp(m, body[0], env,
                  m.make_cont(cont_begin, body, 1, env, k))


def cont_begin(m):
    body, i, env, k = m.fields_reg
    if i == len(body) - 1:
        _goto_exp(m, body[i], env, k)
    else:
        _goto_exp(m, body[i], env,
                  m.make_cont(cont_begin, body, i + 1, env, k))


def _eval_and_or(m, exprs, env, k, cont_label, empty_value):
    if not exprs:
        apply_cont(m, k, empty_value)
    elif len(exprs) == 1:
        _goto_exp(m, exprs[0], env, k)
    else:
        _goto_exp(m, exprs[0], env,
                  m.make_cont(cont_label, exprs, 1, env, k))


def cont_and(m):
    exprs, i, env, k = m.fields_reg
    value = m.value_reg
    if value is False:
        apply_cont(m, k, value)
    elif i == len(exprs) - 1:
        _goto_exp(m, exprs[i], env, k)
    else:
        _goto_exp(m, exprs[i], env,
                  m.make_cont(cont_and, exprs, i + 1, env, k))


def cont_or(m):
    exprs, i, env, k = m.fields_reg
    value = m.value_reg
    if value is not False:
        apply_cont(m, k, value)
    elif i == len(exprs) - 1:
        _goto_exp(m, exprs[i], env, k)
    else:
        _goto_exp(m, exprs[i], env,
                  m.make_cont(cont_or, exprs, i + 1, env, k))


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
        ta = type(arg)
        if ta is VarRef:
            index = arg.index
            if index is None:
                value = m.globals.get(arg.name, UNASSIGNED)
            else:
                frame = env
                depth = arg.depth
                while depth:
                    frame = frame[0]
                    depth -= 1
                value = frame[index]
            if value is UNASSIGNED:
                raise EvalError("UnboundVariable", arg.name.name)
        elif ta is Literal:
            value = arg.value
        elif ta is LambdaExpr:
            value = Closure(arg, env)
        else:
            value = _eval_simple(m, arg, env)
            if value is _NOT_ATOMIC:
                m.exp_reg = arg
                m.env_reg = env
                m.k_reg = m.make_cont(cont_operand, proc, app, i + 1, acc,
                                      env, k)
                m.pc = step_eval
                return
        acc = acc + (value,)
        i += 1
    apply_proc(m, proc, acc, k, app)


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

    This is the only place a closure is entered.  Tail calls happen here:
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
        if len(body) == 1:
            _goto_exp(m, body[0], env, k)
        else:
            _goto_exp(m, body[0], env,
                      m.make_cont(cont_begin, body, 1, env, k))
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


def eval_choose(m, alternatives, env, k):
    """Evaluate the first alternative, saving the rest as a choice point."""
    if not alternatives:
        invoke_fail(m)
        return
    m.fail_reg = ChoicePoint(alternatives[1:], env, k, m.fail_reg,
                             m.trace.snapshot())
    _goto_exp(m, alternatives[0], env, k)


def invoke_fail(m):
    """Backtrack to the most recent unexhausted choice point.

    At the bottom of the chain the computation ends by delivering the string
    "no more choices" to the halt continuation.
    """
    f = m.fail_reg
    while type(f) is ChoicePoint and not f.alternatives:
        f = f.parent
    if type(f) is not ChoicePoint:
        m.fail_reg = f
        apply_cont(m, m.halt, NO_MORE_CHOICES)
        return
    alternatives = f.alternatives
    m.fail_reg = ChoicePoint(alternatives[1:], f.env, f.k, f.parent, f.spine)
    m.trace.restore(f.spine)
    _goto_exp(m, alternatives[0], f.env, f.k)


def step_qq(m):
    """Quasiquote template walker; `exp_reg` holds a compiled QQ node."""
    node = m.exp_reg
    t = type(node)
    if t is QQConst:
        apply_cont(m, m.k_reg, node.datum)
        return
    if t is QQUnquote:
        _goto_exp(m, node.form, m.env_reg, m.k_reg)
        return
    if t is QQPair:
        env = m.env_reg
        k = m.k_reg
        car_node = node.car
        if type(car_node) is QQSplice:
            _goto_exp(m, car_node.form, env,
                      m.make_cont(cont_qq_splice, node.cdr, env, k))
        else:
            m.exp_reg = car_node
            m.k_reg = m.make_cont(cont_qq_car, node.cdr, env, k)
            m.pc = step_qq
        return
    if t is QQVector:
        m.exp_reg = node.items
        m.k_reg = m.make_cont(cont_qq_vector, m.k_reg)
        m.pc = step_qq
        return
    raise EvalError("InternalError", f"unknown quasiquote node {node!r}")


def cont_qq_car(m):
    cdr_node, env, k = m.fields_reg
    m.exp_reg = cdr_node
    m.env_reg = env
    m.k_reg = m.make_cont(cont_qq_cons, m.value_reg, k)
    m.pc = step_qq


def cont_qq_cons(m):
    car_value, k = m.fields_reg
    apply_cont(m, k, Pair(car_value, m.value_reg))


def cont_qq_splice(m):
    cdr_node, env, k = m.fields_reg
    spliced = m.value_reg
    if not is_proper_list(spliced):
        raise EvalError("unquote-splicing",
                        f"expected a proper list, got {write_value(spliced)}")
    m.exp_reg = cdr_node
    m.env_reg = env
    m.k_reg = m.make_cont(cont_qq_append, spliced, k)
    m.pc = step_qq


def cont_qq_append(m):
    spliced, k = m.fields_reg
    items = []
    node = spliced
    while isinstance(node, Pair):
        items.append(node.car)
        node = node.cdr
    result = m.value_reg
    for item in reversed(items):
        result = Pair(item, result)
    apply_cont(m, k, result)


def cont_qq_vector(m):
    (k,) = m.fields_reg
    items = []
    node = m.value_reg
    while isinstance(node, Pair):
        items.append(node.car)
        node = node.cdr
    apply_cont(m, k, items)
