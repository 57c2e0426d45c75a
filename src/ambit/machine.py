"""Trampolined register machine.

Evaluation is driven by a single loop that repeatedly invokes the handler
designated by the `pc` register.  Handlers only test and assign registers
and never call one another, so host call depth stays constant no matter how
deeply the interpreted program recurses.  Continuations are immutable
tagged records (`Cont`), and the fail register holds a chain of choice
points that implements chronological backtracking for `choose`.

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
    TERMINAL_FAIL, VOID, ChoicePoint, Closure, Cont, Environment, Pair,
    Primitive, intern, is_proper_list, list_from,
)
from .writer import write_value

NO_MORE_CHOICES = "no more choices"

_S_DEFINE_SYNTAX = intern("define-syntax")
_MISSING = object()
_NOT_ATOMIC = object()


class Machine:
    """One interpreter instance: registers, global frame, macro table.

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
        self.globals = Environment()
        self.macros = syntax.MacroTable()
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
        """Expand, validate, and evaluate one top-level form.

        The fail register persists across calls, so a bare `(choose)` at the
        top level re-enters the previous computation.  On error the global
        environment survives, the fail chain is restored to its state before
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
            expanded = syntax.expand(form, self.macros)
            core = parse_core(expanded, source)
            self.env_reg = self.globals
            self.k_reg = self.halt
            self.exp_reg = core
            self.pc = step_eval
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


def _lookup(env, sym):
    while env is not None:
        value = env.get(sym, _MISSING)
        if value is not _MISSING:
            return value
        env = env.parent
    raise EvalError("UnboundVariable", sym.name)


def _eval_simple(m, form, env):
    """Value of a form the machine may evaluate inline, else a sentinel.

    Variable lookups, literals, quotes, and closure creation have no
    observable evaluation steps.  Applications of pure primitives to simple
    operands also qualify: the attempt bails out (before anything impure can
    run) whenever a subform needs the machine, and the normal stepped path
    re-evaluates from the start with identical results.
    """
    t = type(form)
    if t is VarRef:
        sym = form.name
        while env is not None:
            value = env.get(sym, _MISSING)
            if value is not _MISSING:
                return value
            env = env.parent
        raise EvalError("UnboundVariable", sym.name)
    if t is Literal:
        return form.value
    if t is AppExpr:
        op = form.op
        if type(op) is not VarRef:
            return _NOT_ATOMIC
        sym = op.name
        proc = _MISSING
        scope = env
        while scope is not None:
            proc = scope.get(sym, _MISSING)
            if proc is not _MISSING:
                break
            scope = scope.parent
        if proc is _MISSING:
            raise EvalError("UnboundVariable", sym.name)
        if type(proc) is not Primitive or not proc.pure:
            return _NOT_ATOMIC
        args = form.args
        na = len(args)
        if na == 2:
            arg = args[0]
            ta = type(arg)
            if ta is VarRef:
                sym = arg.name
                a0 = _MISSING
                scope = env
                while scope is not None:
                    a0 = scope.get(sym, _MISSING)
                    if a0 is not _MISSING:
                        break
                    scope = scope.parent
                if a0 is _MISSING:
                    raise EvalError("UnboundVariable", sym.name)
            elif ta is Literal:
                a0 = arg.value
            else:
                a0 = _eval_simple(m, arg, env)
                if a0 is _NOT_ATOMIC:
                    return _NOT_ATOMIC
            arg = args[1]
            ta = type(arg)
            if ta is VarRef:
                sym = arg.name
                a1 = _MISSING
                scope = env
                while scope is not None:
                    a1 = scope.get(sym, _MISSING)
                    if a1 is not _MISSING:
                        break
                    scope = scope.parent
                if a1 is _MISSING:
                    raise EvalError("UnboundVariable", sym.name)
            elif ta is Literal:
                a1 = arg.value
            else:
                a1 = _eval_simple(m, arg, env)
                if a1 is _NOT_ATOMIC:
                    return _NOT_ATOMIC
            values = (a0, a1)
        elif na == 1:
            arg = args[0]
            ta = type(arg)
            if ta is VarRef:
                sym = arg.name
                a0 = _MISSING
                scope = env
                while scope is not None:
                    a0 = scope.get(sym, _MISSING)
                    if a0 is not _MISSING:
                        break
                    scope = scope.parent
                if a0 is _MISSING:
                    raise EvalError("UnboundVariable", sym.name)
            elif ta is Literal:
                a0 = arg.value
            else:
                a0 = _eval_simple(m, arg, env)
                if a0 is _NOT_ATOMIC:
                    return _NOT_ATOMIC
            values = (a0,)
        elif na == 0:
            values = ()
        else:
            collected = []
            for arg in args:
                value = _eval_simple(m, arg, env)
                if value is _NOT_ATOMIC:
                    return _NOT_ATOMIC
                collected.append(value)
            values = tuple(collected)
        if na < proc.min_args or (proc.max_args is not None
                                  and na > proc.max_args):
            _raise_arity(proc, na)
        return proc.fn(m, values)
    if t is QuoteExpr:
        return form.datum
    if t is LambdaExpr:
        return Closure(form.params, form.rest, form.body, env)
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
            # the test needs the machine; step_eval takes it from here
            m.exp_reg = exp
            m.env_reg = env
            m.k_reg = k
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
    if t is VarRef:
        apply_cont(m, k, _lookup(env, exp.name))
        return
    if t is Literal:
        apply_cont(m, k, exp.value)
        return
    if t is QuoteExpr:
        apply_cont(m, k, exp.datum)
        return
    if t is LambdaExpr:
        apply_cont(m, k, Closure(exp.params, exp.rest, exp.body, env))
        return
    m.exp_reg = exp
    m.env_reg = env
    m.k_reg = k
    m.pc = step_eval


def step_eval(m):
    """Expression dispatch: evaluates `exp_reg` in `env_reg` toward `k_reg`."""
    exp = m.exp_reg
    t = type(exp)
    if t is AppExpr:
        env = m.env_reg
        k = m.k_reg
        op = exp.op
        if type(op) is VarRef:
            sym = op.name
            proc = _MISSING
            scope = env
            while scope is not None:
                proc = scope.get(sym, _MISSING)
                if proc is not _MISSING:
                    break
                scope = scope.parent
            if proc is _MISSING:
                raise EvalError("UnboundVariable", sym.name)
        else:
            proc = _eval_simple(m, op, env)
            if proc is _NOT_ATOMIC:
                m.exp_reg = op
                m.k_reg = m.make_cont(cont_operator, exp, env, k)
                return
        # fused operand loop for the common shapes; anything unusual falls
        # back to the generic helpers
        args = exp.args
        n = len(args)
        acc = ()
        i = 0
        while i < n:
            arg = args[i]
            ta = type(arg)
            if ta is VarRef:
                sym = arg.name
                value = _MISSING
                scope = env
                while scope is not None:
                    value = scope.get(sym, _MISSING)
                    if value is not _MISSING:
                        break
                    scope = scope.parent
                if value is _MISSING:
                    raise EvalError("UnboundVariable", sym.name)
            elif ta is Literal:
                value = arg.value
            elif ta is LambdaExpr:
                value = Closure(arg.params, arg.rest, arg.body, env)
            else:
                value = _eval_simple(m, arg, env)
                if value is _NOT_ATOMIC:
                    m.exp_reg = arg
                    m.env_reg = env
                    m.k_reg = m.make_cont(cont_operand, proc, exp, i + 1,
                                          acc, env, k)
                    return
            acc = acc + (value,)
            i += 1
        apply_proc(m, proc, acc, k, exp)
        return
    if t is IfExpr:
        env = m.env_reg
        test = _eval_simple(m, exp.test, env)
        if test is _NOT_ATOMIC:
            m.exp_reg = exp.test
            m.k_reg = m.make_cont(cont_if, exp, env, m.k_reg)
            return
        _select_branch(m, exp, test, env, m.k_reg)
        return
    if t is VarRef:
        apply_cont(m, m.k_reg, _lookup(m.env_reg, exp.name))
        return
    if t is Literal:
        apply_cont(m, m.k_reg, exp.value)
        return
    if t is QuoteExpr:
        apply_cont(m, m.k_reg, exp.datum)
        return
    if t is LambdaExpr:
        apply_cont(m, m.k_reg,
                   Closure(exp.params, exp.rest, exp.body, m.env_reg))
        return
    if t is BeginExpr:
        _eval_body(m, exp.body, m.env_reg, m.k_reg)
        return
    if t is DefineExpr:
        env = m.globals if exp.into_global else m.env_reg
        value = _eval_simple(m, exp.expr, m.env_reg)
        if value is _NOT_ATOMIC:
            m.exp_reg = exp.expr
            m.k_reg = m.make_cont(cont_define, exp.name, env, m.k_reg)
            return
        _finish_define(m, exp.name, value, env, m.k_reg)
        return
    if t is SetExpr:
        env = m.env_reg
        value = _eval_simple(m, exp.expr, env)
        if value is _NOT_ATOMIC:
            m.exp_reg = exp.expr
            m.k_reg = m.make_cont(cont_set, exp.name, env, m.k_reg)
            return
        env.set(exp.name, value)
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


def _select_branch(m, exp, test, env, k):
    if test is not False:
        _goto_exp(m, exp.then, env, k)
    elif exp.alt is None:
        apply_cont(m, k, VOID)
    else:
        _goto_exp(m, exp.alt, env, k)


def cont_if(m):
    exp, env, k = m.fields_reg
    _select_branch(m, exp, m.value_reg, env, k)


def _finish_define(m, name, value, env, k):
    if type(value) is Closure and value.name is None:
        value.name = name
    env[name] = value
    apply_cont(m, k, VOID)


def cont_define(m):
    name, env, k = m.fields_reg
    _finish_define(m, name, m.value_reg, env, k)


def cont_set(m):
    name, env, k = m.fields_reg
    env.set(name, m.value_reg)
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
            sym = arg.name
            value = _MISSING
            scope = env
            while scope is not None:
                value = scope.get(sym, _MISSING)
                if value is not _MISSING:
                    break
                scope = scope.parent
            if value is _MISSING:
                raise EvalError("UnboundVariable", sym.name)
        elif ta is Literal:
            value = arg.value
        elif ta is LambdaExpr:
            value = Closure(arg.params, arg.rest, arg.body, env)
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
        params = proc.params
        np = len(params)
        na = len(args)
        env = Environment(proc.env)
        if proc.rest is None:
            if na != np:
                raise EvalError("ArityError",
                                f"{_proc_label(proc, app)}: expected {np} "
                                f"argument(s), got {na}")
            if np == 1:
                env[params[0]] = args[0]
            elif np == 2:
                env[params[0]] = args[0]
                env[params[1]] = args[1]
            elif np:
                for i in range(np):
                    env[params[i]] = args[i]
        else:
            if na < np:
                raise EvalError("ArityError",
                                f"{_proc_label(proc, app)}: expected at least "
                                f"{np} argument(s), got {na}")
            for i in range(np):
                env[params[i]] = args[i]
            env[proc.rest] = list_from(args[np:])
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
        body = proc.body
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
        m.exp_reg = node.form
        m.pc = step_eval
        return
    if t is QQPair:
        env = m.env_reg
        k = m.k_reg
        car_node = node.car
        if type(car_node) is QQSplice:
            m.exp_reg = car_node.form
            m.k_reg = m.make_cont(cont_qq_splice, node.cdr, env, k)
            m.pc = step_eval
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
