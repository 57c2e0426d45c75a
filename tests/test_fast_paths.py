"""The class-specialised nodes against the stepped path they short-cut.

Every fast path (inline references and primitive applications, `PrimCall`,
the statement `require`) is guarded by a check that the operator's global
still holds the primitive `parse_core` saw.  A machine whose primitives are
all rebound to wrapper closures before the program is parsed takes the
stepped path everywhere, so it is an oracle for the fast paths.
"""

import io
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambit import Machine, intern, write_value
from ambit.errors import SchemeError
from ambit.forms import RequireStmt
from ambit.values import VOID, Primitive


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
    kind = draw(st.sampled_from(["lit", "<", "=", "not", "member"]))
    if kind == "lit":
        return draw(st.sampled_from(["#t", "#f"]))
    if kind == "not":
        return f"(not {_bool(draw, names, max(depth - 1, 0), helper)})"
    a, b, c = (_int(draw, names, max(depth - 1, 0), helper) for _ in range(3))
    if kind == "member":
        return f"(member {a} (list {b} {c}))"
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


def run_program(forms, wrapped):
    """(solutions, printed output, error label or None) of exhausting the
    last form; with `wrapped`, every primitive the program names is first
    rebound to a closure that applies it."""
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
    assert run_program(forms, False) == run_program(forms, True)


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
    assert type(machine.globals[intern("g")].lam.body[0]) is RequireStmt
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
    assert type(machine.globals[intern("check")].lam.body[0]) is RequireStmt
    ev(machine, "(define f (lambda (n) (check (begin (spine-here) "
                "(choose 1 (begin (spine-here) 2))))))")
    assert ev(machine, "(f 0)") == 2
    assert len(seen) == 2 and seen[0] is not None
    assert seen[1] is seen[0]
