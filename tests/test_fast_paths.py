"""The class-specialised nodes and the compiled code against the stepped
path they short-cut.

Every fast path (inline references and primitive applications, calls of a
known primitive, a lambda's body compiled once it is hot) is guarded by a
check that the operator's global still holds the primitive `parse_core`
saw.  A machine whose primitives are all rebound to wrapper closures before
the program is parsed takes the stepped path everywhere, so it is an oracle
for the fast paths.  A machine whose lambdas count as hot from their first
entry runs compiled code wherever it can.
"""

import io
import re
import signal
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    COLOR_EUROPE_PROGRAM, Reference, coloring_solutions, coloring_text,
    scaling_ratio,
)

import ambit.compiler
import ambit.machine
import ambit.primitives
from ambit import Machine, SchemeError, intern, read_all, write_value
from ambit.forms import BeginExpr, PrimApp1
from ambit.trace import render_traceback
from ambit.values import (
    BY_IDENTITY, NIL, VOID, Cont, Pair, Primitive, equal, eqv, list_from,
    to_pylist,
)


def ev(machine, text):
    return machine.eval_source(text)


# --- random closed programs --------------------------------------------------


def _int(draw, names, depth, helper):
    kinds = ["lit"] + ["var"] * bool(names)
    if depth:
        kinds += ["arith", "choose", "if", "let", "lambda", "begin", "nested",
                  "quotient"] + ["call"] * helper
    kind = draw(st.sampled_from(kinds))
    sub = depth - 1
    if kind == "lit":
        return str(draw(st.integers(0, 9)))
    if kind == "var":
        return draw(st.sampled_from(sorted(names)))
    if kind == "arith":
        op = draw(st.sampled_from("+-*"))
        return (f"({op} {_int(draw, names, sub, helper)} "
                f"{_int(draw, names, sub, helper)})")
    if kind == "choose":
        alternatives = [_int(draw, names, sub, helper)
                        for _ in range(draw(st.integers(1, 3)))]
        return "(choose " + " ".join(alternatives) + ")"
    if kind == "if":
        return (f"(if {_bool(draw, names, sub, helper)} "
                f"{_int(draw, names, sub, helper)} "
                f"{_int(draw, names, sub, helper)})")
    if kind == "let":
        head = draw(st.sampled_from(["let", "let*", "letrec"]))
        name = draw(st.sampled_from("abc"))
        # a letrec init that read its own name would read it unassigned
        visible = names - {name} if head == "letrec" else names
        init = _int(draw, visible, sub, helper)
        body = _body(draw, names | {name}, sub, helper)
        return f"({head} (({name} {init})) {body})"
    if kind == "lambda":
        name = draw(st.sampled_from("abc"))
        body = _body(draw, names | {name}, sub, helper)
        return f"((lambda ({name}) {body}) {_int(draw, names, sub, helper)})"
    if kind == "begin":
        return f"(begin {_body(draw, names, sub, helper)})"
    if kind == "nested":
        # `require` as an operand, where its value is not dropped
        return (f"(car (list {_int(draw, names, sub, helper)} "
                f"(require {_bool(draw, names, sub, helper)})))")
    if kind == "quotient":
        return (f"(quotient {_int(draw, names, sub, helper)} "
                f"{_int(draw, names, sub, helper)})")
    return f"(h {_int(draw, names, sub, helper)})"


def _bool(draw, names, depth, helper):
    kind = draw(st.sampled_from(["lit", "<", "=", "not", "member", "memq",
                                 "symbols", "and", "or"]))
    if kind == "lit":
        return draw(st.sampled_from(["#t", "#f"]))
    if kind in ("and", "or"):
        parts = [_bool(draw, names, max(depth - 1, 0), helper)
                 for _ in range(draw(st.integers(0, 3)))]
        return f"({kind} {' '.join(parts)})"
    if kind == "not":
        return f"(not {_bool(draw, names, max(depth - 1, 0), helper)})"
    if kind == "symbols":
        # compiled code decides a symbol target's membership by identity
        op = draw(st.sampled_from(["member", "memq"]))
        a, b, c = (draw(st.sampled_from(["'a", "'b", "(choose 'a 'b)"]))
                   for _ in range(3))
        return f"({op} {a} (list {b} {c}))"
    a, b, c = (_int(draw, names, max(depth - 1, 0), helper) for _ in range(3))
    if kind in ("member", "memq"):
        return f"({kind} {a} (list {b} {c}))"
    return f"({kind} {a} {b})"


def _body(draw, names, depth, helper):
    """Statements, each a `require` or a `display`, then a final form."""
    forms = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            forms.append(f"(require {_bool(draw, names, depth, helper)})")
        else:
            forms.append(f"(display {_int(draw, names, depth, helper)})")
    forms.append(_int(draw, names, depth, helper))
    return " ".join(forms)


@st.composite
def programs(draw):
    """One or two top-level forms: maybe a helper `h`, then an expression."""
    forms = []
    if draw(st.booleans()):
        forms.append(f"(define h (lambda (x) "
                     f"{_body(draw, frozenset('x'), 2, False)}))")
    forms.append(_int(draw, frozenset(), draw(st.integers(1, 3)),
                      bool(forms)))
    return forms


@contextmanager
def hot_after(entries):
    """Compile a lambda's body on its `entries`-th closure entry."""
    saved = ambit.machine._HOT_ENTRIES
    ambit.machine._HOT_ENTRIES = entries
    try:
        yield
    finally:
        ambit.machine._HOT_ENTRIES = saved


def run_program(forms, wrapped, hot=False):
    """(solutions, printed output, error label or None) of exhausting the
    last form; with `wrapped`, every primitive the program names is first
    rebound to a closure that applies it; with `hot`, every lambda's body is
    compiled on its first entry."""
    if hot:
        with hot_after(1):
            return run_program(forms, wrapped)
    machine = Machine(stdout=io.StringIO())
    if wrapped:
        for token in sorted(set(re.findall(r"[^\s()']+", " ".join(forms)))):
            if type(machine.globals.get(intern(token))) is Primitive:
                ev(machine, f"(define {token} ((lambda (p) (lambda args "
                            f"(apply p args))) {token}))")
    values, label = [], None
    try:
        for form in forms[:-1]:
            ev(machine, form)
        value = ev(machine, forms[-1])
        while value != "no more choices":
            values.append(write_value(value))
            value = ev(machine, "(choose)")
    except SchemeError as err:
        label = err.label
    return values, machine.stdout.getvalue(), label


@settings(max_examples=150, deadline=None)
@given(programs())
@example(["(define h (lambda (x) (require (< x 5)) (display x) (* x 2)))",
          "(let ((a (choose 3 9 4))) (require (not (= a 4))) (h a))"])
@example(["(+ (choose 1 2) (car (list 3 (require (= (choose 1 2) 2)))))"])
@example(["(let* ((a (choose 0 2))) (display a) (quotient 6 a))"])
def test_fast_paths_match_the_stepped_path(forms):
    inline = run_program(forms, False)
    assert inline == run_program(forms, True)
    assert inline == run_program(forms, False, hot=True)


# --- pinned cases ------------------------------------------------------------


def test_rebinding_plus_after_a_definition_that_uses_it(machine):
    ev(machine, "(define f (lambda (x) (+ x 1)))")
    ev(machine, "(define id (lambda (x) x))")
    ev(machine, "(define g (lambda (x) (+ 1 (id x))))")
    assert ev(machine, "(f 5)") == 6 and ev(machine, "(g 5)") == 6
    ev(machine, "(define + -)")
    assert ev(machine, "(f 5)") == 4
    assert ev(machine, "(g 5)") == -4


def test_rebinding_require_after_a_definition_that_uses_it(machine):
    ev(machine, "(define g (lambda (x) (require x) 'ok))")
    assert type(machine.globals[intern("g")].lam.body.body[0]) is PrimApp1
    assert ev(machine, "(g #f)") == "no more choices"
    ev(machine, "(define require (lambda (x) (display 'called)))")
    assert ev(machine, "(g #f)") is intern("ok")
    assert machine.stdout.getvalue() == "called"


def test_operand_rebinding_its_own_operator_keeps_the_operator(machine):
    # the operator is evaluated before the operands
    assert ev(machine, "(+ (begin (set! + -) 1) 2)") == 3
    assert ev(machine, "(+ 1 2)") == -1


def test_statement_require_resumes_with_the_choice_points_spine(machine):
    seen = []

    def spine_here(m, args):
        seen.append(m.trace.spine)
        return VOID

    machine.globals[intern("spine-here")] = Primitive(
        "spine-here", spine_here, 0, 0)
    ev(machine, "(define check (lambda (x) (require (> x 1)) x))")
    check = machine.globals[intern("check")]
    assert type(check.lam.body.body[0]) is PrimApp1
    ev(machine, "(define f (lambda (n) (check (begin (spine-here) "
                "(choose 1 (begin (spine-here) 2))))))")
    assert ev(machine, "(f 0)") == 2
    assert len(seen) == 2 and seen[0] is not None
    assert seen[1] is seen[0]


def test_a_wide_inline_application_takes_linear_time(machine):
    # the operands' values are gathered in one list, so eight times the
    # operands take about eight times as long
    ev(machine, "(define x 1)")
    forms = {width: read_all(f"(length (list{' x' * width}))")[0]
             for width in (1000, 8000)}

    def run(width):
        assert machine.eval_top(forms[width]) == width

    assert scaling_ratio(run, 1000, 8000, 10) <= 10


def test_a_wide_stepped_application_takes_linear_time(machine):
    # after the closure call, the operands computed inline are gathered in
    # one list, as in the inline application above
    ev(machine, "(define g (lambda (x) x))")
    forms = {width: read_all(
        f"(length (list (g 1){' (car (list 0))' * width}))")[0]
        for width in (1000, 8000)}

    def run(width):
        assert machine.eval_top(forms[width]) == width + 1

    assert scaling_ratio(run, 1000, 8000, 10) <= 10


def test_reentering_a_continuation_among_operands_keeps_the_values(machine):
    ev(machine, "(define saved #f)")
    # operands computed inline and stepped, before and after the capture
    ev(machine, "(define r (list (car (list 1)) ((lambda () 0)) "
                "(call/cc (lambda (c) (set! saved c) 2)) (car (list 3))))")
    assert write_value(ev(machine, "r")) == "(1 0 2 3)"
    ev(machine, "(saved 5)")
    assert write_value(ev(machine, "r")) == "(1 0 5 3)"
    ev(machine, "(saved 6)")
    assert write_value(ev(machine, "r")) == "(1 0 6 3)"


# --- inline trees in compiled bodies -----------------------------------------


@pytest.fixture
def hot():
    with hot_after(1):
        yield


def compiled(node):
    """Whether `node` is a body compiled whole."""
    return type(node).run.__code__.co_filename == "<fused>"


def compiled_body(machine, name):
    """Whether the named procedure's whole body has been compiled."""
    return compiled(machine.globals[intern(name)].lam.body)


def body(machine, name):
    """The named procedure's body forms, as parsed."""
    node = machine.globals[intern(name)].lam.body
    if compiled(node):
        node = node.body[0]
    return node.body if type(node) is BeginExpr else (node,)


def exhaust(machine, text):
    values = [ev(machine, text)]
    while values[-1] != "no more choices":
        values.append(ev(machine, "(choose)"))
    return values


def test_a_lambda_is_compiled_on_its_threshold_entry(machine):
    ev(machine, "(define f (lambda (x) (+ x 1)))")
    ev(machine, "(define loop (lambda (n) "
                "(if (= n 0) 'done (begin (f n) (loop (- n 1))))))")
    ev(machine, f"(loop {ambit.machine._HOT_ENTRIES - 1})")
    assert not compiled_body(machine, "f")
    assert ev(machine, "(f 1)") == 2
    assert compiled_body(machine, "f")
    assert ev(machine, "(f 2)") == 3


@pytest.mark.parametrize("define, rebind, call, before, after", [
    ("(define f (lambda (x) (+ x 1)))", "(define + -)", "(f 5)", 6, 4),
    ("(define f (lambda (x) (not (null? x))))",
     "(define not (lambda (x) x))", "(f '())", False, True),
    ("(define f (lambda (x) (null? (cdr x))))",
     "(define null? (lambda (x) 'no))", "(f '(1))", True, intern("no")),
    ("(define f (lambda (x) (length (list x x))))",
     "(define list (lambda args '(1 2 3)))", "(f 0)", 2, 3),
    ("(define f (lambda (x) (require (< x 3)) x))",
     "(define require (lambda (x) #t))", "(f 5)", "no more choices", 5),
])
def test_rebinding_an_operator_after_its_tree_is_compiled(
        machine, hot, define, rebind, call, before, after):
    ev(machine, define)
    assert ev(machine, call) == before
    assert compiled_body(machine, "f")
    ev(machine, rebind)
    assert ev(machine, call) == after


@pytest.mark.parametrize("program, label, frames, lam", [
    # `early`'s init reads `late`'s slot before its define has run
    ("(define f (lambda (n) (define early (+ late 1)) (define late n) "
     "early))", "UnboundVariable: late", ["outer", "f"],
     lambda m: m.globals[intern("f")].lam),
    # the same slot one frame out, and then a global never defined
    ("(define f (lambda (n) (define g (lambda () (* 2 (+ late 1)))) "
     "(define early (g)) (define late n) early))", "UnboundVariable: late",
     ["outer", "f", "g"], lambda m: body(m, "f")[0].expr),
    ("(define f (lambda (n) (+ n (- nowhere 1))))",
     "UnboundVariable: nowhere", ["outer", "f"],
     lambda m: m.globals[intern("f")].lam),
])
def test_an_unbound_read_in_a_compiled_tree_keeps_message_and_frames(
        program, label, frames, lam):
    def error(machine):
        ev(machine, program)
        ev(machine, "(define outer (lambda (n) (list (f n))))")
        with pytest.raises(SchemeError) as excinfo:
            ev(machine, "(outer 4)")
        return excinfo.value.error_line(), excinfo.value.frames, machine

    with hot_after(10 ** 9):
        stepped = error(Machine(stdout=io.StringIO()))
    with hot_after(1):
        fused = error(Machine(stdout=io.StringIO()))
    assert fused[0] == stepped[0] == label
    assert fused[1] == stepped[1]
    assert [frame[0] for frame in fused[1]] == frames
    # the body of the lambda that reads the variable
    assert compiled(lam(fused[2]).body)


def test_a_nested_require_in_a_compiled_tree_backtracks(machine, hot):
    ev(machine, "(define f (lambda (x) (car (list x (require (> x 1))))))")
    assert exhaust(machine, "(f (choose 1 2 0 3))") == [
        2, 3, "no more choices"]
    assert compiled_body(machine, "f")


def test_compiled_roots_in_tail_test_and_alternative_positions(machine, hot):
    ev(machine, "(define f (lambda (xs) "
                "(if (null? xs) 'none (choose (car xs) (cadr xs)))))")
    ev(machine, "(define g (lambda (x) (* x (+ x 1))))")
    assert exhaust(machine, "(f '(1 2))") == [1, 2, "no more choices"]
    assert ev(machine, "(f '())") is intern("none")
    assert ev(machine, "(g 3)") == 12
    assert compiled_body(machine, "f") and compiled_body(machine, "g")


def test_a_compiled_tree_calls_the_primitive_fn_current_at_the_call(
        machine, hot):
    ev(machine, "(define f (lambda (x) (* x (+ x 1))))")
    assert ev(machine, "(f 2)") == 6
    assert compiled_body(machine, "f")
    prim = machine.globals[intern("+")]
    plain, calls = prim.fn, []

    def traced(m, args):
        calls.append(args)
        return plain(m, args)

    prim.fn = traced
    assert ev(machine, "(f 3)") == 12
    assert calls == [(3, 1)]


# --- compiled bodies ---------------------------------------------------------


def compiled_and_stepped(forms, call, entries=1):
    """Each of `forms`, then `call` exhausted, on a machine whose lambdas are
    compiled on their `entries`-th entry (and return points on their
    `entries`-th resumption) and on one where nothing ever is; both must
    give the same values (written) or error line and frames (arguments
    written), print the same, make as many continuations and reach the same
    trace depth.  Gives those and the first machine."""
    runs = []
    for hot in (entries, 10 ** 9):
        with hot_after(hot):
            machine = Machine(stdout=io.StringIO())
            for form in forms:
                ev(machine, form)
            try:
                values = [write_value(value)
                          for value in exhaust(machine, call)[:-1]]
            except SchemeError as err:
                values = (err.error_line(), tuple(
                    (label, tuple(map(write_value, args)), *site)
                    for label, args, *site in err.frames))
            runs.append((values, machine.stdout.getvalue(), machine))
    (hot, hot_out, fused), (cold, cold_out, stepped) = runs
    assert hot == cold and hot_out == cold_out
    assert fused.cont_allocations == stepped.cont_allocations
    assert fused.trace.high_water == stepped.trace.high_water
    return hot, fused


@pytest.mark.parametrize("f", [
    "(lambda (x) (set! + plus) (g) (+ x 1))",
    # the guard of `+` passes for the first form, then `g` rebinds it
    "(lambda (x) (require (= (+ x 0) x)) (g) (+ x 1))",
])
def test_a_stepped_call_rebinding_plus_inside_a_compiled_body(f):
    values, machine = compiled_and_stepped(
        ["(define plus +)", "(define g (lambda () (set! + -)))",
         f"(define f {f})", "(f 5)"], "(begin (set! + plus) (f 5))")
    assert values == ["4"]
    assert compiled_body(machine, "f")


def test_inline_trees_after_a_stepped_subform_take_the_stepped_path():
    # a body `define` first, a choose as an `if` alternative, and the
    # recursive call after a stepped operand, as in `map`
    values, machine = compiled_and_stepped(
        ["(define g (lambda (x) (display x) x))",
         "(define f (lambda (x) (define y (g x)) (+ y 1)))",
         "(define h (lambda (xs) "
         "(if (null? xs) 'none (choose (car xs) (cadr xs)))))",
         "(define m (lambda (l) "
         "(if (null? l) '() (cons (f (car l)) (m (cdr l))))))"],
        "(list (f 1) (h '(2 3)) (h '()) (m '(4 5 6)))")
    assert values == ["(2 2 none (5 6 7))", "(2 3 none (5 6 7))"]
    assert all(compiled_body(machine, name) for name in "fhm")


@pytest.mark.parametrize("f, want", [
    ("(lambda (x) (list (car (list x)) "
     "(call/cc (lambda (c) (set! saved c) 1)) (* x 2)))", "(5 7 10)"),
    # captured in a `let` body, so re-entry resumes in the `let`'s frame
    ("(lambda (x) (let ((y (* x 2))) "
     "(list y (call/cc (lambda (c) (set! saved c) 1)) (+ x y))))",
     "(10 7 15)"),
])
def test_a_continuation_captured_in_a_compiled_body_is_reentered(f, want):
    values, machine = compiled_and_stepped(
        ["(define saved #f)", f"(define f {f})", "(define r (f 5))",
         "(saved 7)"], "r")
    assert values == [want]
    assert compiled_body(machine, "f")


@pytest.mark.parametrize("f, call, want", [
    ("(lambda (x) (let ((y (- x (choose 1 2 3)))) (require (not (= y 8))) "
     "(* y 2)))", "(f 10)", ["18", "14"]),
    # `choose` in two operands of a `let`, with an inline one between
    ("(lambda (x) (let ((a (choose 1 2 3)) (b (+ x 1)) (c (choose 'p 'q))) "
     "(require (not (= a x))) (list a b c)))", "(f 2)",
     ["(1 3 p)", "(1 3 q)", "(3 3 p)", "(3 3 q)"]),
])
def test_a_choose_operand_of_a_compiled_body_is_exhausted(f, call, want):
    values, machine = compiled_and_stepped([f"(define f {f})"], call)
    assert values == want
    assert compiled_body(machine, "f")


@pytest.mark.parametrize("forms, call, line", [
    # a tail call of the wrong arity, a known primitive with its operands in,
    # and one whose last operand returns to the compiled continuation
    (["(define g (lambda (a b) a))", "(define f (lambda (x) (g x)))"],
     "(outer 1)", "ArityError: g: expected 2 argument(s), got 1"),
    (["(define f (lambda (x) (vector-set! x 5 0)))"], "(outer (vector 1))",
     "vector-set!: index 5 out of range for length 1"),
    (["(define id (lambda (v) v))", "(define f (lambda (x) (+ 1 (id x))))"],
     "(outer 'a)", "+: expected a number, got a"),
    # a scan reads its target, then its items, each checked
    (["(define f (lambda (x) (member nowhere (list x elsewhere))))"],
     "(outer 1)", "UnboundVariable: nowhere"),
    (["(define f (lambda (x) (memq x (list x elsewhere))))"], "(outer 1)",
     "UnboundVariable: elsewhere"),
    # an inline form before the body's last is computed, though dropped
    (["(define f (lambda (x) (car x) x))"], "(outer 5)",
     "car: expected a pair, got 5"),
])
def test_errors_in_compiled_bodies_keep_message_and_frames(forms, call, line):
    (error, frames), machine = compiled_and_stepped(
        forms + ["(define outer (lambda (n) (list (f n))))"], call)
    assert error == line
    assert [frame[0] for frame in frames] == ["outer", "f"]
    assert compiled_body(machine, "f")


def test_deep_ifs_and_a_long_cond_in_a_compiled_body():
    nested = "(if (< x 1000) " * 200 + "x" + " 0)" * 200
    clauses = " ".join(f"((= x {i}) {i})" for i in range(500))
    values, machine = compiled_and_stepped(
        [f"(define f (lambda (x) {nested}))",
         f"(define g (lambda (x) (cond {clauses} (else 'none))))",
         "(f 2)", "(g 1)"], "(list (f 1) (f 1000) (g 499) (g 500))")
    assert values == ["(1 0 499 none)"]
    assert compiled_body(machine, "f") and compiled_body(machine, "g")


def test_compiled_bodies_make_the_continuations_the_stepped_path_makes():
    _, machine = compiled_and_stepped(
        [COLOR_EUROPE_PROGRAM, "(color-europe)",
         "(define pick (lambda (d) (if (= d 0) (choose 1 2) "
         "(+ 1 (pick (- d 1))))))", "(pick 30)"],
        "(let ((x (pick 20))) (require (> x 21)) (display x) x)")
    assert compiled_body(machine, "pick")
    assert compiled_body(machine, "color-europe")


@pytest.mark.parametrize("rebind, want", [
    ("(define list vector)", "member: expected a proper list, got #(1 b a)"),
    ("(define member (lambda (x xs) 'mine))", ["(mine b)"]),
    ("(define memq (lambda (x xs) 'mine))", ["((b a) . mine)"]),
])
def test_rebinding_an_operator_of_a_compiled_scan(rebind, want):
    values, machine = compiled_and_stepped(
        ["(define f (lambda (x) "
         "(cons (member x (list 1 x 'a)) (memq x (list 'a x)))))",
         "(f 'a)", rebind], "(f 'b)")
    # an error gives its line and frames
    assert (values if type(values) is list else values[0]) == want
    assert compiled_body(machine, "f")


@pytest.mark.parametrize("f", [
    "(lambda (x) (set! list build) (g) (member x (list 1 x)))",
    # the guard of `list` passes for the first scan, then `g` rebinds it
    "(lambda (x) (require (member x (list x))) (g) (member x (list 1 x)))",
])
def test_a_stepped_call_rebinding_list_inside_a_compiled_body(f):
    values, machine = compiled_and_stepped(
        ["(define build list)",
         "(define g (lambda () (set! list (lambda xs '(0)))))",
         f"(define f {f})", "(f 5)"], "(begin (set! list build) (f 5))")
    assert values == ["#f"]
    assert compiled_body(machine, "f")


def test_a_compiled_scan_returns_the_tail_from_the_match():
    values, machine = compiled_and_stepped(
        ["(define f (lambda (x y) (member x (list 'a y \"s\" 1.0 (list y)))))",
         "(define g (lambda (x y) (memq x (list 'a y \"s\" 1.0 (list y)))))"],
        "(list (f 'a 1) (f 2 2) (f \"s\" 0) (f 1 0) (f '(3) 3) "
        "(g '(3) 3) (g 1.0 0) (g 2 2) (f 'b 1))")
    assert values == ['((a 1 "s" 1.0 (1)) (2 "s" 1.0 (2)) ("s" 1.0 (0)) #f '
                      '((3)) #f (1.0 (0)) (2 "s" 1.0 (2)) #f)']
    assert compiled_body(machine, "f") and compiled_body(machine, "g")


def test_compiled_scans_among_stepped_subforms_make_the_same_continuations():
    values, machine = compiled_and_stepped(
        ["(define f (lambda (x) (let ((y (choose 'a 'b 'c))) "
         "(require (not (memq y (list x 'c)))) "
         "(list y (member x (list 'a (choose 'b 'c)))))))"], "(f 'a)")
    assert values == ["(b (a b))", "(b (a c))"]
    # the `let` is compiled in `f`'s body, not as a lambda of its own
    assert compiled_body(machine, "f")


def test_a_compiled_statement_require_fails_without_calling_its_primitive():
    # compiled code tests a statement `require`'s value itself, where the
    # stepped path calls the primitive, which raises `Backtrack` on #f
    def run(entries):
        with hot_after(entries):
            machine = Machine(stdout=io.StringIO())
            prim, calls = machine.globals[intern("require")], []
            plain = prim.fn
            # the same `Primitive`, so the compiled guard still passes
            prim.fn = lambda m, args: calls.append(args) or plain(m, args)
            ev(machine, "(define g (lambda (x) (require (> x 0)) (display x) "
                        "(vector-ref (vector x) (- x 1))))")
            ev(machine, "(define outer (lambda (x) (list (g x))))")
            values = [write_value(value)
                      for value in exhaust(machine, "(outer (choose 0 1 0))")]
            with pytest.raises(SchemeError) as excinfo:
                ev(machine, "(outer (choose 0 0 5))")
            return ((values, excinfo.value.error_line(), excinfo.value.frames,
                     machine.stdout.getvalue(), machine.cont_allocations),
                    len(calls), compiled_body(machine, "g"))

    hot, hot_calls, fused = run(1)
    cold, cold_calls, stepped = run(10 ** 9)
    assert hot == cold
    values, error, frames, out, _ = hot
    assert values == ["(1)", '"no more choices"']
    assert error == "vector-ref: index 4 out of range for length 1"
    assert [frame[0] for frame in frames] == ["outer", "g"] and out == "15"
    assert fused and not stepped
    assert (hot_calls, cold_calls) == (0, 6)


# --- paths the tests above leave unreached ----------------------------------


@pytest.mark.parametrize("forms, call, want, out", [
    # a `set!` whose value needs the machine, of a local and of a global
    (["(define n 0)", "(define f (lambda (x) (display x) (+ x 1)))",
      "(define g (lambda (x) (set! x (f x)) (set! n (f x)) (list x n)))"],
     "(list (g 1) n)", "((2 3) 3)", "12"),
    # an inline form before a body's last, computed and dropped
    (["(define f (lambda (x) (car x) (display (cdr x)) (cadr x)))"],
     "(f '(1 2))", "2", "(2)"),
    # `car` rebound to a closure among the inline operands of `not`, of
    # each operand of `+` and of a `+` of three
    (["(define f (lambda (x) "
      "(list (not (car x)) (+ (car x) 1) (+ 1 (car x)) (+ 1 2 (car x)))))",
      "(f '(5))", "(define car (lambda (p) (display 'c) 7))"],
     "(f '(5))", "(#f 8 8 10)", "cccc"),
    # a macro whose template holds a vector
    (["(define-syntax vec-of [(vec-of ?a ?b) (quasiquote #((unquote ?a) ?b))])",
      "(define f (lambda (x) (display (vec-of (+ x 1) x)) x))"],
     "(f 1)", "1", "#(2 x)"),
])
def test_rarely_taken_paths_agree_compiled_and_stepped(forms, call, want, out):
    values, machine = compiled_and_stepped(forms, call)
    assert values == [want]
    assert machine.stdout.getvalue() == out


# --- return points, call-site caches, fixnums and looping return chains -----


def cache_holds(machine, caller, callee):
    """Whether a call site compiled in `caller`'s body has cached `callee`'s
    lambda."""
    ns = machine.globals[intern(caller)].lam.body.run.__globals__
    lam = machine.globals[intern(callee)].lam
    return any(value is lam for value in ns.values())


@contextmanager
def sites_compiled():
    """The applications whose return points `compile_site` compiles."""
    apps, plain = [], ambit.compiler.compile_site

    def record(app):
        apps.append(app)
        plain(app)

    ambit.compiler.compile_site = record
    try:
        yield apps
    finally:
        ambit.compiler.compile_site = plain


def test_a_cached_call_misses_once_the_callee_is_redefined():
    values, machine = compiled_and_stepped(
        ["(define mk (lambda (n) (lambda (x) (* x n))))",
         "(define g (mk 2))", "(define f (lambda (x) (+ 1 (g x))))",
         "(define r1 (f 1))", "(define g (mk 5))", "(define r2 (f 1))",
         "(define g (lambda (x) (- x 7)))", "(define r3 (f 1))",
         "(define g -)"], "(list r1 r2 r3 (f 1))")
    # the same lambda with another frame hits the cache
    assert values == ["(3 6 -5 0)"]
    assert compiled_body(machine, "f")


def test_a_cached_call_of_a_callee_of_another_arity():
    (line, frames), machine = compiled_and_stepped(
        ["(define g (lambda (x) x))", "(define f (lambda (x) (+ 1 (g x))))",
         "(f 1)", "(define g (lambda (x y) x))",
         "(define outer (lambda (n) (list (f n))))"], "(outer 1)")
    assert line == "ArityError: g: expected 2 argument(s), got 1"
    assert [frame[0] for frame in frames] == ["outer", "f"]


@pytest.mark.parametrize("forms, call, line", [
    # closures of fixed arity and with a rest parameter
    (["(define g (lambda (a b) a))", "(define f (lambda () (g 1)))"], "(f)",
     "ArityError: g: expected 2 argument(s), got 1"),
    (["(define g (lambda (a b . r) a))", "(define f (lambda () (g 1)))"],
     "(f)", "ArityError: g: expected at least 2 argument(s), got 1"),
    # an anonymous `let` lambda, a lambda applied directly to more operands
    # than it has parameters, and calls through `apply`
    (["(define f (lambda () ((let ((y 1)) (lambda (x) (+ x y))) 1 2)))"],
     "(f)", "ArityError: #<procedure>: expected 1 argument(s), got 2"),
    ([], "((lambda (y) y) 1 2)",
     "ArityError: #<procedure>: expected 1 argument(s), got 2"),
    (["(define f (lambda () (apply (lambda (x . r) x) (list))))"], "(f)",
     "ArityError: #<procedure>: expected at least 1 argument(s), got 0"),
    (["(define g (lambda (x) x))", "(define f (lambda () (apply g 1 '(2))))"],
     "(f)", "ArityError: g: expected 1 argument(s), got 2"),
    # a compiled site that misses once the cached callee is redefined
    (["(define g (lambda (x) x))", "(define f (lambda (x) (+ 1 (g x))))",
      "(f 1)", "(define g (lambda (x y . r) x))"], "(f 1)",
     "ArityError: g: expected at least 2 argument(s), got 1"),
    # primitives of fixed arity, "at least" and a range
    (["(define f (lambda (x) (car x x)))"], "(f 1)",
     "ArityError: car: expected 1 argument(s), got 2"),
    (["(define f (lambda () (error 'f)))"], "(f)",
     "ArityError: error: expected at least 2 argument(s), got 1"),
    (["(define f (lambda (x) (make-vector x x x)))"], "(f 1)",
     "ArityError: make-vector: expected 1 to 2 argument(s), got 3"),
    # a continuation called with two values
    (["(define k #f)", "(call/cc (lambda (c) (set! k c)))",
      "(define f (lambda () (k 1 2)))"], "(f)",
     "ArityError: continuation: expected 1 argument(s), got 2"),
])
def test_every_arity_error_has_one_message(forms, call, line):
    (error, frames), machine = compiled_and_stepped(
        forms + ["(define outer (lambda () (list " + call + ")))"],
        "(outer)")
    assert error == line
    assert frames[0][0] == "outer"
    assert compiled_body(machine, "outer")


@pytest.mark.parametrize("entries", [1, 10 ** 9])
def test_frames_entered_through_apply_and_callcc_have_no_call_site(entries):
    def error(text):
        with pytest.raises(SchemeError) as excinfo:
            ev(machine, text)
        err = excinfo.value
        return err.frames, render_traceback(None, err).split("\n")[1:]

    with hot_after(entries):
        machine = Machine(stdout=io.StringIO())
        ev(machine, "(define f (lambda (x) (car x)))")
        ev(machine, "(define g (lambda (k) (car k)))")
        ev(machine, "(define h (lambda (x) (+ 1 (apply f (list x)))))")
        assert error("(h 5)") == (
            (("h", (5,), 1, 1, "<input>"), ("f", (5,), None, None, None)),
            ['  File "<input>", line 1, col 1, in (h 5)', "  In (f 5)",
             "car: expected a pair, got 5"])
        assert error("(apply (lambda (x) (car x)) (list 6))") == (
            (("#<procedure>", (6,), None, None, None),),
            ["  In (#<procedure> 6)", "car: expected a pair, got 6"])
        frames, lines = error("(call/cc g)")
        assert type(frames[0][1][0]) is Cont
        assert frames == (("g", frames[0][1], None, None, None),)
        assert lines == ["  In (g #<continuation>)",
                         "car: expected a pair, got #<continuation>"]


def test_a_cached_compiled_tail_loop_keeps_the_trace_bounded():
    # through two procedures, so each call goes through its site's cache,
    # not the self call's jump
    with hot_after(1):
        machine = Machine(stdout=io.StringIO())
        ev(machine, "(define loop (lambda (n) "
                    "(if (= n 0) (quote done) (step n))))")
        ev(machine, "(define step (lambda (n) (loop (- n 1))))")
        assert ev(machine, "(loop 10000)") is intern("done")
        assert cache_holds(machine, "loop", "step")
        assert cache_holds(machine, "step", "loop")
        assert machine.trace.high_water == 1


def test_cached_calls_of_callees_with_rest_arguments_and_body_defines():
    values, machine = compiled_and_stepped(
        ["(define g (lambda (x . r) (list x r)))",
         "(define h (lambda (x) (define y (* x 2)) (define z (+ y 1)) z))",
         "(define f (lambda (x) (list (g x) (g x x) (h x) (h (h x)))))",
         "(f 1)"], "(list (f 2) (f 3))")
    assert values == ["(((2 ()) (2 (2)) 5 11) ((3 ()) (3 (3)) 7 15))"]
    assert compiled_body(machine, "f") and compiled_body(machine, "h")
    assert cache_holds(machine, "f", "h")
    assert not cache_holds(machine, "f", "g")


def test_an_uncompiled_callee_gets_hot_through_a_cached_site():
    # `f` is compiled on its third entry, before `g` has had any; then the
    # site in `f` misses, counting `g`'s entries, until `g` is compiled too
    values, machine = compiled_and_stepped(
        ["(define g (lambda (x) (* x 2)))",
         "(define f (lambda (x) (if (= x 0) 0 (+ 1 (g x)))))",
         "(f 0)", "(f 0)", "(f 0)",
         "(define loop (lambda (n) (if (= n 0) '() "
         "(cons (f n) (loop (- n 1))))))"], "(loop 6)", entries=3)
    assert values == ["(13 11 9 7 5 3)"]
    assert compiled_body(machine, "f") and compiled_body(machine, "g")
    assert machine.globals[intern("g")].lam.entries is None
    assert cache_holds(machine, "f", "g")


@pytest.mark.parametrize("x, y", [
    ("9223372036854775807", "0"), ("9223372036854775807", "1"),
    ("-9223372036854775808", "1"), ("-9223372036854775808", "-1"),
    ("1.5", "2"), ("2", "2.0"), ("#t", "1"), ("1", "'a"),
])
@pytest.mark.parametrize("op", ["+", "-", "=", "<", ">"])
@pytest.mark.parametrize("form", [
    # two variables, a literal operand, and the operands of a return point
    "({op} x y)", "({op} x 1)", "({op} -1 y)", "({op} x (id y))",
])
def test_fixnum_paths_at_the_bounds_and_on_other_operands(form, op, x, y):
    values, machine = compiled_and_stepped(
        ["(define id (lambda (v) v))",
         f"(define f (lambda (x y) {form.format(op=op)}))"], f"(f {x} {y})")
    if type(values) is tuple:
        assert values[0] in (f"{op}: integer overflow",
                             f"{op}: expected a number, got #t",
                             f"{op}: expected a number, got a")
    assert compiled_body(machine, "f")


def test_a_fixnum_overflow_is_the_primitive_s_own_error():
    (line, _), _ = compiled_and_stepped(
        ["(define f (lambda (x) (+ x 1)))"], "(f 9223372036854775807)")
    assert line == "+: integer overflow"
    (line, _), _ = compiled_and_stepped(
        ["(define f (lambda (x) (- x 1)))"], "(f -9223372036854775808)")
    assert line == "-: integer overflow"


def test_callcc_inside_a_looping_return_chain_is_reentered():
    values, machine = compiled_and_stepped(
        ["(define saved #f)",
         "(define f (lambda (d) (if (= d 0) 0 (+ 1 (g d)))))",
         "(define g (lambda (d) (if (= d 5) (call/cc (lambda (c) "
         "(set! saved c) (f (- d 1)))) (f (- d 1)))))",
         "(define r (f 10))", "(define first r)", "(saved 100)",
         "(define second r)", "(saved 200)"], "(list first second r)")
    assert values == ["(10 106 206)"]
    assert compiled_body(machine, "f") and compiled_body(machine, "g")


def test_an_error_midway_through_a_looping_return_chain():
    (line, frames), machine = compiled_and_stepped(
        ["(define v (vector 1 1 1 'a 1 1))",
         "(define f (lambda (d) (if (= d 0) 0 (+ (vector-ref v d) "
         "(f (- d 1))))))", "(define outer (lambda (n) (list (f n))))"],
        "(outer 5)")
    assert line == "+: expected a number, got a"
    assert [frame[0] for frame in frames] == ["outer", "f", "f", "f"]
    assert compiled_body(machine, "f")


def test_the_colouring_let_compiles_as_a_hot_site():
    # the `let` of `color-europe` as a top-level form, which no lambda holds
    start = COLOR_EUROPE_PROGRAM.index("(let")
    let = COLOR_EUROPE_PROGRAM[start:].rstrip()[:-2]
    with sites_compiled() as apps:
        values, machine = compiled_and_stepped([COLOR_EUROPE_PROGRAM], let)
    assert values == [coloring_text(combo) for combo in coloring_solutions()]
    assert [len(app.args) for app in apps] == [8]
    assert type(apps[0].site) is tuple


def test_a_site_too_wide_to_compile_stays_stepped():
    width = 8000
    call = f"(length (list{' (g 1)' * width}))"
    with sites_compiled() as apps:
        values, machine = compiled_and_stepped(
            ["(define g (lambda (x) x))"], call)
        for _ in range(3):
            assert ev(machine, call) == width
    assert values == [str(width)]
    # each parse of the call is handed over once, on its first resumption
    # with every site hot at once, then at its thousandth
    wide = [app for app in apps if len(app.args) == width]
    assert len(wide) == 4 and all(app.site is None for app in wide)



# --- self calls as loops ----------------------------------------------------


def body_runs(machine, name, text):
    """How often the named procedure's compiled body function is called
    while `text` is evaluated: once for a call whose self calls loop."""
    cls = type(machine.globals[intern(name)].lam.body)
    plain, runs = cls.run, []
    cls.run = lambda *args: runs.append(args) or plain(*args)
    try:
        ev(machine, text)
    finally:
        cls.run = plain
    return len(runs)


@pytest.mark.parametrize("f, call, want", [
    ("(lambda (n acc) (if (= n 0) acc (f (- n 1) (+ acc n))))", "(f 100 0)",
     "5050"),
    # the descent loops and the ascent is the looping return chain of `+`
    ("(lambda (n) (if (= n 0) 0 (+ 1 (f (- n 1)))))", "(f 100)", "100"),
])
def test_a_compiled_self_call_jumps_back_to_the_body(f, call, want):
    values, machine = compiled_and_stepped([f"(define f {f})"], call)
    assert values == [want]
    assert body_runs(machine, "f", call) == 1


def test_a_self_call_through_a_parameter_reads_the_callers_frame():
    # two closures of one lambda trade places each turn, so operands or a
    # frame read from the callee's frame would name the wrong one
    make = ("(define make (lambda (tag) (lambda (self other n) "
            "(if (= n 0) {} ({} (self other self (- n 1)))))))")
    values, machine = compiled_and_stepped(
        [make.format("(list tag n)", "begin"),
         "(define a (make 'a))", "(define b (make 'b))"],
        "(list (a a b 3) (a b a 4) (b a b 2))")
    assert values == ["((a 0) (a 0) (b 0))"]
    assert body_runs(machine, "a", "(a a b 3)") == 1
    (line, frames), machine = compiled_and_stepped(
        [make.format("(car tag)", "+ 1"),
         "(define a (make 'a))", "(define b (make 'b))"], "(a a b 3)")
    assert line == "car: expected a pair, got a"
    a, b = "#<procedure a>", "#<procedure b>"
    assert [frame[1][:2] for frame in frames] == [(a, b), (b, a)] * 2
    (line, frames), machine = compiled_and_stepped(
        ["(define f (lambda (self n) "
         "(if (= n 0) (car n) (+ 1 (self self (- n 1))))))",
         "(define outer (lambda (n) (list (f f n))))"], "(outer 4)")
    assert line == "car: expected a pair, got 0"
    assert [frame[0] for frame in frames] == ["outer", "f", *["self"] * 4]
    assert [frame[1] for frame in frames[1:]] == [
        ("#<procedure f>", str(n)) for n in range(4, -1, -1)]
    assert compiled_body(machine, "f")


def test_a_rebound_self_call_no_longer_loops():
    values, machine = compiled_and_stepped(
        ["(define f (lambda (n acc) (if (= n 0) acc (f (- n 1) (+ acc 1)))))",
         "(f 10 0)", "(define f0 f)",
         "(set! f (lambda (n acc) (list 'g n acc)))"],
        "(list (f0 5 0) (begin (set! f f0) (f0 5 0)))")
    assert values == ["((g 4 1) 5)"]
    assert body_runs(machine, "f", "(f 10 0)") == 1


def test_a_body_define_in_a_looping_lambda():
    values, machine = compiled_and_stepped(
        ["(define f (lambda (n acc) (if (= n 0) "
         "(begin (define r (* acc 2)) r) (f (- n 1) (+ acc 1)))))",
         "(define g (lambda (n) (if (= n 0) 0 (+ 1 (g (- n 1)))) "
         "(define x n) x))"], "(list (f 5 0) (g 5))")
    assert values == ["(10 5)"]
    assert body_runs(machine, "f", "(f 5 0)") == 1
    assert body_runs(machine, "g", "(g 5)") == 1


def test_a_continuation_captured_in_a_self_loop_is_reentered():
    values, machine = compiled_and_stepped(
        ["(define saved #f)",
         "(define f (lambda (n) (if (= n 0) (call/cc (lambda (c) "
         "(set! saved c) 0)) (+ 1 (f (- n 1))))))",
         "(define r (f 5))", "(define first r)", "(saved 10)"],
        "(list first r)")
    assert values == ["(5 15)"]
    assert compiled_body(machine, "f")


def test_a_choose_reached_in_a_self_loop_is_exhausted():
    values, machine = compiled_and_stepped(
        ["(define f (lambda (n acc) (if (= n 0) (choose acc (* acc 2)) "
         "(f (- n 1) (+ acc n)))))",
         "(define g (lambda (n) (if (= n 0) (choose 1 2 3) "
         "(+ 10 (g (- n 1))))))"],
        "(let ((x (f 4 0)) (y (g 3))) (require (not (= y 32))) (list x y))")
    assert values == ["(10 31)", "(10 33)", "(20 31)", "(20 33)"]
    assert compiled_body(machine, "f") and compiled_body(machine, "g")


def test_ctrl_c_inside_a_self_loop_stops_the_evaluation_with_its_frames():
    with hot_after(1):
        machine = Machine(stdout=io.StringIO())
        ev(machine, "(define f (lambda (n) "
                    "(if (= n 0) 0 (+ 1 (f (- n 1))))))")
        assert ev(machine, "(f 3)") == 3
        # the same `Primitive`, so the compiled guard still passes
        prim = machine.globals[intern("-")]
        plain, calls = prim.fn, []

        def tick(m, args):
            calls.append(args)
            if len(calls) == 50:
                raise KeyboardInterrupt
            return plain(m, args)

        prim.fn = tick
        with pytest.raises(SchemeError) as excinfo:
            ev(machine, "(f 100)")
        prim.fn = plain
        assert excinfo.value.error_line() == "Interrupted: evaluation stopped"
        assert [frame[1] for frame in excinfo.value.frames] == [
            (n,) for n in range(100, 50, -1)]
        assert machine.trace.spine is None and machine.pc is None
        assert body_runs(machine, "f", "(f 100)") == 1


# --- compiled choose, and operand continuations without dead fields --------


def test_a_body_that_is_a_lone_choose_compiles():
    # called from a hot site
    values, machine = compiled_and_stepped(
        ["(define color (lambda () (choose 'red 'green 'blue)))",
         "(define f (lambda (x) (list x (color))))"],
        "(let ((a (f 1)) (b (color))) (require (not (eq? (cadr a) b))) "
        "(list a b))")
    assert values == ["((1 red) green)", "((1 red) blue)", "((1 green) red)",
                      "((1 green) blue)", "((1 blue) red)", "((1 blue) green)"]
    assert compiled_body(machine, "color") and compiled_body(machine, "f")


@pytest.mark.parametrize("forms, call, want", [
    # a `choose` operand after a literal, and a `(choose)`
    (["(define f (lambda (x) (* x (+ 1 (choose 1 2)))))"], "(f 5)",
     ["10", "15"]),
    (["(define f (lambda (x) (if (< x 0) (choose) (* x 2))))"],
     "(f (choose -1 2 -3 4))", ["4", "8"]),
    # a first alternative that is a stepped call
    (["(define g (lambda (x) (display x) (* x 10)))",
      "(define f (lambda (x) (+ 1 (choose (g x) (g (+ x 1)) x))))"],
     "(f 2)", ["21", "31", "3"]),
    # a first alternative that is a self call, which loops
    (["(define f (lambda (n acc) (if (= n 0) acc "
      "(choose (f (- n 1) (+ acc n)) (f (- n 1) acc)))))"], "(f 3 0)",
     ["6", "5", "4", "3", "3", "2", "1", "0"]),
    # a continuation captured under a `choose`, re-entered for each choice
    (["(define saved #f)", "(define f (lambda (x) "
      "(* x (choose (call/cc (lambda (c) (set! saved c) 1)) 2))))"],
     "(let ((r (f 10))) (if (< r 100) (saved (* r 10)) r))",
     ["1000", "2000"]),
])
def test_a_compiled_choose_agrees_with_the_stepped_path(forms, call, want):
    values, machine = compiled_and_stepped(forms, call)
    assert values == want
    assert compiled_body(machine, "f")


@pytest.mark.parametrize("entries", [1, 10 ** 9])
def test_resuming_a_choice_point_leaves_it_unchanged(entries):
    values, machine = compiled_and_stepped(
        ["(define f (lambda () (choose 1 2 3)))"], "(f)", entries)
    assert values == ["1", "2", "3"]
    assert compiled_body(machine, "f") == (entries == 1)
    assert ev(machine, "(f)") == 1
    saved = machine.fail_reg
    assert [ev(machine, "(choose)") for _ in range(2)] == [2, 3]
    # (alternatives, index, env, k, parent, spine)
    alternatives, index = saved[:2]
    assert [form.value for form in alternatives[index:]] == [2, 3]
    machine.fail_reg = saved
    assert ev(machine, "(choose)") == 2


def operand_conts(k):
    """The continuations of stepped operands on the chain of `k`, a
    `call/cc` continuation, newest first: the tuples of six fields,
    `(label, spine, proc, app, i, acc, env, k)`."""
    found = []
    k = k.k
    while len(k) > 2:  # every continuation but the halt ends in its `k`
        if len(k) == 8:
            found.append(k)
        k = k[-1]
    return found


@pytest.mark.parametrize("entries", [1, 10 ** 9])
def test_a_continuation_of_a_last_operand_holds_no_frame(entries):
    with hot_after(entries):
        machine = Machine(stdout=io.StringIO())
        ev(machine, "(define saved #f)")
        ev(machine, "(define f (lambda (n) (if (= n 0) (call/cc (lambda (c) "
                    "(set! saved c) 0)) (+ 1 (f (- n 1))))))")
        assert ev(machine, "(f 5)") == 5
        chain = operand_conts(machine.globals[intern("saved")])
        assert len(chain) == 5
        assert all(k[6] is None for k in chain)
        assert ev(machine, "(saved 10)") == 15


@pytest.mark.parametrize("entries", [1, 10 ** 9])
def test_a_stepped_operand_before_another_keeps_the_frame(entries):
    values, machine = compiled_and_stepped(
        ["(define saved #f)",
         "(define g (lambda (v) (call/cc (lambda (c) (set! saved c) v))))",
         "(define f (lambda (x) (list (g 1) x (lambda () x))))",
         "(define r (f 7))", "(define first r)", "(saved 2)"],
        "(list first r ((caddr first)) ((caddr r)))", entries)
    assert values == ["((1 7 #<procedure>) (2 7 #<procedure>) 7 7)"]
    saved = machine.globals[intern("saved")]
    assert operand_conts(saved)[0] is saved.k and saved.k[6][1] == 7


def test_continuations_made_at_one_compiled_site_share_a_literal_prefix():
    with hot_after(1):
        machine = Machine(stdout=io.StringIO())
        ev(machine, "(define saved '())")
        ev(machine, "(define g (lambda (x) (call/cc (lambda (c) "
                    "(set! saved (cons c saved)) x))))")
        ev(machine, "(define f (lambda (x) (list 1 'a (g x) x)))")
        assert write_value(ev(machine, "(list (f 2) (f 3))")) == (
            "((1 a 2 2) (1 a 3 3))")
        second, first = to_pylist(machine.globals[intern("saved")])
        assert compiled_body(machine, "f")
        assert first.k[5] == (1, intern("a"))
        assert first.k[5] is second.k[5]


# --- scans in test positions -------------------------------------------------


def builds_pairs(machine, name):
    """Whether the named procedure's compiled body can make a pair."""
    cls = type(machine.globals[intern(name)].lam.body)
    return "Pair" in cls.run.__code__.co_names


@pytest.mark.parametrize("form, want", [
    ("(if (member x (list 1 y \"s\")) 'in 'out)", "in in out in out"),
    ("(begin (require (memq x (list 'a y))) 'in)", "in in"),
    ("(if (not (member x (list 1 y \"s\"))) 'out 'in)", "in in out in out"),
    ("(begin (require (not (memq x (list 'a y)))) 'out)", "out out out"),
    ("(if (not (not (member x (list 1 y \"s\")))) 'in 'out)",
     "in in out in out"),
])
def test_a_scan_in_a_test_position_builds_no_list(form, want):
    values, machine = compiled_and_stepped(
        [f"(define f (lambda (x y) {form}))"],
        "(f (choose 1 2 'a \"s\" 'b) 2)")
    assert values == want.split()
    assert compiled_body(machine, "f") and not builds_pairs(machine, "f")


def test_the_operand_of_not_in_a_value_is_a_test():
    values, machine = compiled_and_stepped(
        ["(define f (lambda (x y) (not (member x (list 1 y)))))",
         "(define g (lambda (x y) (not (not (memq x (list 'a y))))))"],
        "(list (f 1 2) (f 2 2) (f 3 2) (g 'a 3) (g 'b 3) (g 'b 'b))")
    assert values == ["(#f #f #t #t #f #t)"]
    assert not builds_pairs(machine, "f") and not builds_pairs(machine, "g")


@pytest.mark.parametrize("form", [
    "(or (member x (list 1 y 3)) 'none)",
    "(cond ((member x (list 1 y 3))) (else 'none))",
])
def test_a_scan_whose_test_value_is_returned_still_gives_the_tail(form):
    values, machine = compiled_and_stepped(
        [f"(define f (lambda (x y) (list {form})))"],
        "(list (f 1 2) (f 2 2) (f 3 2) (f 4 2))")
    assert values == ["(((1 2 3)) ((2 3)) ((3)) (none))"]


# --- a `let` is not a call ---------------------------------------------------


def let_lambda(machine, name):
    """The operator of the application that is the named procedure's body:
    here, a lambda applied where it is written."""
    node = machine.globals[intern(name)].lam.body
    return (node.body[0] if compiled(node) else node).op


@pytest.mark.parametrize("f, call, want", [
    ("(lambda (x) (let ((y (* x 2)) (z x)) (list y z)))", "(f 3)", "(6 3)"),
    ("(lambda (x) (let* ((y (* x 2)) (z (+ y 1))) (list x y z)))", "(f 3)",
     "(3 6 7)"),
    ("(lambda (n) (letrec ((ev? (lambda (n) (if (= n 0) #t (od? (- n 1))))) "
     "(od? (lambda (n) (if (= n 0) #f (ev? (- n 1)))))) (list (ev? n) "
     "(od? n))))", "(f 7)", "(#f #t)"),
    # a body `define` in the `let`, read in its frame and from a closure
    ("(lambda (x) (let ((y (+ x 1))) (define z (* y 10)) "
     "(define get (lambda () z)) (+ y (get))))", "(f 1)", "22"),
    # a stepped operand, then the frame built in the return point
    ("(lambda (x) (let ((y (g x)) (z (+ x 1))) (list x y z)))", "(f 4)",
     "(4 4 5)"),
    # nested, in an operand, and in a test
    ("(lambda (x) (let ((v (+ (let ((y 1)) (let ((z (+ y x))) (* z z))) "
     "(if (let ((w x)) (> w 2)) 100 0)))) v))", "(f 3)", "116"),
])
def test_a_let_runs_in_its_callers_frame_compiled_and_stepped(f, call, want):
    values, machine = compiled_and_stepped(
        ["(define g (lambda (v) v))", f"(define f {f})"], call)
    assert values == [want]
    assert compiled_body(machine, "f")
    # the `let` neither counts entries nor compiles on its own
    lam = let_lambda(machine, "f")
    assert lam.entries == 0 and not compiled(lam.body)


@pytest.mark.parametrize("f, call, want", [
    ("(lambda (n acc) (let ((j (- n 1))) (if (= n 0) acc (f j (+ acc n)))))",
     "(f 100 0)", "5050"),
    ("(lambda (n) (let ((j (- n 1))) (if (= n 0) 0 (+ 1 (f j)))))",
     "(f 100)", "100"),
])
def test_a_self_call_in_a_let_body_jumps_back_to_the_body(f, call, want):
    values, machine = compiled_and_stepped([f"(define f {f})"], call)
    assert values == [want]
    assert body_runs(machine, "f", call) == 1


@pytest.mark.parametrize("f", [
    "(lambda (x) (let ((y (+ x 1))) (car y)))",
    "(lambda (x) (let ((y (+ x 1))) (+ 1 (car y))))",
    "(lambda (x) (let* ((y (+ x 1)) (z y)) (list (car z))))",
])
def test_an_error_in_a_let_body_shows_the_enclosing_procedure(f):
    (line, frames), machine = compiled_and_stepped(
        [f"(define f {f})", "(define outer (lambda (n) (list (f n))))"],
        "(outer 1)")
    assert line == "car: expected a pair, got 2"
    # `f`'s frame, at its call in `outer`, and no frame for the `let`
    assert frames == (("outer", ("1",), 1, 1, "<input>"),
                      ("f", ("1",), 1, 33, "<input>"))
    assert compiled_body(machine, "f")


@pytest.mark.parametrize("f, call", [
    # `late` is slot 3 of the `let`'s frame, a slot that is a parameter of
    # `f`'s own frame
    ("(lambda (a b c) (let ((x a)) (display late) (define late x) late))",
     "(f 1 2 3)"),
    # `late` is slot 2 of `f`'s frame, a parameter slot of the `let` in the
    # other branch
    ("(lambda (a) (display (if (> a 5) (let ((x 1) (y 2)) x) late)) "
     "(define late a) late)", "(f 1)"),
    # slot 2 of the `let`'s frame, read in a return point
    ("(lambda (a b c) (let ((x a)) (display (list (g x) late)) "
     "(define late x) late))", "(f 1 2 3)"),
])
def test_a_define_slot_keeps_its_unassigned_test_beside_a_let(f, call):
    (line, frames), machine = compiled_and_stepped(
        ["(define g (lambda (v) v))", f"(define f {f})",
         f"(define outer (lambda () (list {call})))"], "(outer)")
    assert line == "UnboundVariable: late"
    assert [frame[0] for frame in frames] == ["outer", "f"]
    assert compiled_body(machine, "f")


@pytest.mark.parametrize("f, want, binds", [
    ("(lambda (x) ((lambda (y z) (list x y z)) (+ x 1) x))", "(1 2 1)", True),
    # a rest parameter: a call, whose closure is entered and counted
    ("(lambda (x) ((lambda (y . r) (list y r)) x x x))", "(1 (1 1))", False),
])
def test_a_lambda_applied_directly_binds_only_when_its_count_fits(
        f, want, binds):
    values, machine = compiled_and_stepped([f"(define f {f})"], "(f 1)")
    assert values == [want]
    assert compiled_body(machine, "f")
    assert (let_lambda(machine, "f").entries == 0) is binds


def test_a_hot_body_of_nested_lets_and_ifs_compiles_to_bounded_depth():
    # the nesting depth carries into each `let`'s body, so the compiled code
    # stops indenting at `_NEST` levels and runs the rest stepped
    body = "(* a0 2)"
    for i in reversed(range(1, 201)):
        if i % 2:
            body = f"(if (< a{i} 1000) {body} {i})"
        body = f"(let ((a{i} (+ a{i - 1} 1))) {body})"
    values, machine = compiled_and_stepped(
        [f"(define f (lambda (a0) {body}))", "(f 1)"],
        "(list (f 1) (f 850) (f 998))")
    assert values == ["(2 151 3)"]
    assert compiled_body(machine, "f")


# --- the inline expressions of `not`, `null?` and `list` ---------------------


def _datum_text(leaves):
    return st.recursive(leaves, lambda items: st.lists(items, max_size=4).map(
        lambda xs: "(" + " ".join(xs) + ")"), max_leaves=12)


_LEAF_TEXT = st.one_of(
    st.sampled_from(["#f", "#t", "0", "1", "()", "sym"]),
    st.text("ab;)\\", max_size=4).map(
        lambda s: '"' + s.replace("\\", "\\\\") + '"'))


def _plain(value):
    """`value` with every reader-built `SourcePair` copied to a `Pair`."""
    if not isinstance(value, Pair):
        return value
    items = []
    while isinstance(value, Pair):
        items.append(_plain(value.car))
        value = value.cdr
    return list_from(items, value)


_VALUES = _datum_text(_LEAF_TEXT).flatmap(lambda text: st.sampled_from(
    [read_all(text)[0].value, _plain(read_all(text)[0].value)]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["not", "null?", "list"]),
       st.lists(_VALUES, min_size=1, max_size=5))
def test_inline_expressions_agree_with_their_primitives(name, values):
    prim = Machine(stdout=io.StringIO()).globals[intern(name)]
    if name != "list":
        values = values[:1]
    names = [f"v{i}" for i in range(len(values))]
    got = eval(ambit.primitives._EXPRESSION[name](names),
               {"Pair": Pair, "NIL": NIL, **dict(zip(names, values))})
    want = prim.fn(None, tuple(values))
    if name != "list":
        assert got is want
        return
    assert equal(got, want) and type(got) is Pair
    for value in values:
        assert got.car is value
        got = got.cdr
    assert got is NIL


# --- `member` and `memq` over an inline `list`, scanned ----------------------


_SCAN_VALUES = st.one_of(_VALUES, st.recursive(
    st.sampled_from(["1", "1.0", "sym", "#f", '"a"']),
    lambda items: st.lists(items, max_size=3).flatmap(
        lambda xs: st.sampled_from(["#(", "("]).map(
            lambda opener: opener + " ".join(xs) + ")")),
    max_leaves=6).map(lambda text: read_all(text)[0].value))


@st.composite
def _scan_operands(draw):
    """A target, often one of the items, and 0-5 items."""
    items = draw(st.lists(_SCAN_VALUES, max_size=5))
    pool = st.sampled_from(items) if items else _SCAN_VALUES
    return draw(st.one_of(pool, _SCAN_VALUES)), items


def scan(name, target, items):
    """The value and source of the compiled code of `(name x (list y0 …))`
    over `target` and `items`, read from the lambda's parameters."""
    machine = Machine(stdout=io.StringIO())
    ys = "".join(f" y{i}" for i in range(len(items)))
    lam = ev(machine, f"(lambda (x{ys}) ({name} x (list{ys})))").lam
    code = ambit.compiler._Code(dict(vars(ambit.compiler)), lam)
    result = code.value(lam.body, "    ")
    source = code.function("scan(m, env)", "None") + f"    return {result}\n"
    exec(source, code.ns)
    return code.ns["scan"](machine, [None, target, *items]), source


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["member", "memq"]), _scan_operands())
def test_compiled_scans_agree_with_their_primitives(name, operands):
    target, items = operands
    got, source = scan(name, target, items)
    assert ".fn(" not in source  # no list is built to be scanned
    prim = Machine(stdout=io.StringIO()).globals[intern(name)]
    want = prim.fn(None, (target, list_from(items)))
    if want is False:
        assert got is False
        return
    assert equal(got, want) and type(got) is Pair
    for item in items[len(items) - len(to_pylist(want)):]:
        assert got.car is item
        got = got.cdr
    assert got is NIL


@settings(max_examples=200, deadline=None)
@given(st.lists(_SCAN_VALUES, min_size=1, max_size=5))
def test_a_symbol_is_equal_and_eqv_to_itself_alone(values):
    symbols = [v for v in values if type(v) is BY_IDENTITY] + [intern("sym")]
    for x in symbols:
        for y in values + symbols:
            assert equal(x, y) is equal(y, x) is eqv(x, y) is (x is y)


# --- against the reference evaluator ---------------------------------------


def _ref_kinds(names, depth):
    kinds = ["lit"] + ["var"] * bool(names)
    if depth > 0:
        # calls with operands that need the machine are the point
        kinds += ["arith"] * 4 + ["choose"] * 3 + [
            "quotient", "if", "let", "lambda", "begin", "escape", "reenter",
            "ap", "ap"]
        # `x` is in scope in the body of `h` alone, which must not call `h`
        kinds += ["set"] * bool(names) + ["h", "hh", "hh"] * (
            "x" not in names) + ["r"]
    return kinds


def _ref_int(draw, names, depth, kinds=None):
    kind = draw(st.sampled_from(kinds or _ref_kinds(names, depth)))
    sub = depth - 1
    if kind == "lit":
        return str(draw(st.integers(0, 9)))
    if kind == "var":
        return draw(st.sampled_from(sorted(names)))
    if kind == "set":
        name = draw(st.sampled_from(sorted(names)))
        return f"(begin (set! {name} {_ref_int(draw, names, sub)}) {name})"
    if kind == "quotient":
        return (f"(quotient {_ref_int(draw, names, sub)} "
                f"{_ref_int(draw, names, sub)})")
    if kind == "arith":
        # an operand past the second is a literal or a name, so a wide call
        # multiplies the choices to exhaust no more than a narrow one does
        count = draw(st.integers(1, 4))
        return "({} {})".format(draw(st.sampled_from("+-*")), " ".join(
            _ref_int(draw, names, sub if i < 2 else 0) for i in range(count)))
    if kind == "choose":
        return "(choose " + " ".join(
            _ref_int(draw, names, sub)
            for _ in range(draw(st.integers(0, 3)))) + ")"
    if kind == "if":
        return (f"(if {_ref_bool(draw, names, sub)} "
                f"{_ref_int(draw, names, sub)} {_ref_int(draw, names, sub)})")
    if kind == "let":
        head = draw(st.sampled_from(["let", "let*", "letrec"]))
        name = draw(st.sampled_from("abc"))
        visible = names - {name} if head == "letrec" else names
        return (f"({head} (({name} {_ref_int(draw, visible, sub)})) "
                f"{_ref_body(draw, names | {name}, sub)})")
    if kind == "lambda":
        name = draw(st.sampled_from("abc"))
        return (f"((lambda ({name}) {_ref_body(draw, names | {name}, sub)}) "
                f"{_ref_int(draw, names, sub)})")
    if kind == "begin":
        return f"(begin {_ref_body(draw, names, sub, defines=False)})"
    if kind == "escape":
        return (f"(call/cc (lambda (k) (+ {_ref_int(draw, names, sub)} "
                f"(k {_ref_int(draw, names, sub)}))))")
    if kind == "reenter":
        # the return point of `+`'s second operand, resumed three times
        return (f"(let ((n 0) (kk 0)) (let ((v (+ {_ref_int(draw, names, sub)}"
                " (call/cc (lambda (kc) (set! kk kc) "
                f"{_ref_int(draw, names, sub)}))))) (set! n (+ n 1)) "
                "(if (< n 3) (kk n) v)))")
    if kind == "ap":
        # one call site in `ap` meets many closures of one arity
        name = draw(st.sampled_from("abc"))
        return (f"(ap (lambda ({name}) {_ref_body(draw, names | {name}, sub)})"
                f" {_ref_int(draw, names, sub)})")
    if kind == "hh":
        # a second call of `h` runs its return points again before the first
        # call's choices are exhausted
        return (f"({draw(st.sampled_from('+-*'))} "
                f"(h {_ref_int(draw, names, sub)}) "
                f"(h {_ref_int(draw, names, sub)}))")
    if kind == "r":
        return (f"(r {_ref_int(draw, names, sub)} "
                f"{_ref_int(draw, names, sub)})")
    return f"(h {_ref_int(draw, names, sub)})"


def _ref_bool(draw, names, depth):
    kind = draw(st.sampled_from(["lit", "<", "=", ">", "not", "member"]))
    if kind == "lit":
        return draw(st.sampled_from(["#t", "#f"]))
    if kind == "not":
        return f"(not {_ref_bool(draw, names, max(depth - 1, 0))})"
    if kind == "member":
        # a scan tested, and one whose tail is read
        return "({} (member {} (list {} {})))".format(
            draw(st.sampled_from(["not", "pair?"])),
            *(_ref_int(draw, names, max(depth - 1, 0)) for _ in range(3)))
    return "({} {})".format(kind, " ".join(
        _ref_int(draw, names, max(depth - 1, 0) if i < 2 else 0)
        for i in range(draw(st.integers(2, 3)))))


def _ref_body(draw, names, depth, defines=True):
    """Maybe a `define` at the head, statements, then a final form."""
    forms = []
    if defines and draw(st.booleans()):
        forms.append(f"(define d {_ref_int(draw, names - {'d'}, depth)})")
        names = names | {"d"}
    for _ in range(draw(st.integers(0, 3))):
        # a statement after a `require` checks the body runs every form
        kind = draw(st.sampled_from(["require", "require", "display", "set"]))
        if kind == "require":
            forms.append(f"(require {_ref_bool(draw, names, depth)})")
        elif kind == "display" or not names:
            forms.append(f"(display {_ref_int(draw, names, depth)})")
        else:
            forms.append(f"(set! {draw(st.sampled_from(sorted(names)))} "
                         f"{_ref_int(draw, names, depth)})")
    forms.append(_ref_int(draw, names, depth))
    return " ".join(forms)


@st.composite
def reference_programs(draw):
    """`ap`, a helper `h`, a self-recursive `r` that calls itself in tail
    and in non-tail position at most six levels deep, and an expression
    whose choices are exhausted."""
    # the body of `h` is a call whose operands need the machine, so its
    # return points are resumed, by backtracking, after later calls of `h`
    # have run them again
    stepped = ["choose"] * 4 + ["let", "ap", "escape", "reenter"]
    body = "({} {} {})".format(
        draw(st.sampled_from(["+", "-", "*"])),
        *(_ref_int(draw, frozenset("x"), 1, stepped) for _ in range(2)))
    kinds = draw(st.sampled_from([None, ["hh"], ["r"]]))
    return ["(define ap (lambda (f x) (f x)))",
            f"(define h (lambda (x) {body}))",
            "(define r (lambda (n a) (if (> n 5) (r 5 a) "
            "(if (< n 1) a (+ n (r (- n 1) a))))))",
            _ref_int(draw, frozenset(), draw(st.integers(1, 3)), kinds)]


class _Overrun(Exception):
    """A program run past `machine_run`'s budget; not a KeyboardInterrupt,
    which would stop the test session."""


def _overrun(signum, frame):
    raise _Overrun("the program ran past its time budget")


def machine_run(forms, entries):
    """What `Reference.run` gives, from a machine that compiles a lambda on
    its `entries`-th entry and a return point on its `entries`-th
    resumption.  A program still running after 20 seconds is stopped, which
    `eval_top` reports as an InternalError, so a wrong machine that
    loops fails the comparison instead of hanging it."""
    with hot_after(entries):
        machine = Machine(stdout=io.StringIO())
        values, error = [], None
        handler = signal.signal(signal.SIGALRM, _overrun)
        signal.setitimer(signal.ITIMER_REAL, 20)
        try:
            for form in forms[:-1]:
                ev(machine, form)
            value = ev(machine, forms[-1])
            while value != "no more choices":
                values.append(write_value(value))
                value = ev(machine, "(choose)")
        except SchemeError as err:
            error = err.error_line()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        return values, machine.stdout.getvalue(), error


# generation stops at the first failing example: on a machine that loops,
# every further one would run until the 20 s watchdog
@settings(max_examples=200, deadline=None, report_multiple_bugs=False)
@given(reference_programs())
@example(["(define ap (lambda (f x) (f x)))", "(define h (lambda (x) x))",
          "(+ (ap (lambda (a) (* a 2)) 3) (ap (lambda (b) (+ b 1)) 3))"])
@example(["(define ap (lambda (f x) (f x)))",
          "(define h (lambda (x) (+ (choose x 5) (choose 1 2))))",
          "(+ (h 1) (h 3))"])
@example(["(define ap (lambda (f x) (f x)))", "(define h (lambda (x) x))",
          "(let ((n 0) (kk 0)) (let ((v (+ (choose 1 2) (call/cc (lambda (kc) "
          "(set! kk kc) 5))))) (set! n (+ n 1)) (if (< n 3) (kk n) v)))"])
# inline applications of three operands, whose order the reference checks
@example(["(define ap (lambda (f x) (f x)))",
          "(define h (lambda (x) (- 9 x (* 2 x 3))))",
          "(+ (h (choose 1 2)) (ap (lambda (a) (require (< a 5 9)) a) 4))"])
def test_the_machine_agrees_with_the_reference_evaluator(forms):
    want = Reference().run(forms)
    assert machine_run(forms, 10 ** 9) == want
    assert machine_run(forms, 1) == want
