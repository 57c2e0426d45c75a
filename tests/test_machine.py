import io

import pytest

from helpers import EVEN_ODD_PROGRAM, SUM_PROGRAM, exhaust_choices

from ambit import Machine, VOID, equal, read_all, write_value
from ambit.errors import EvalError, FormError, SchemeError


def ev(machine, text):
    return machine.eval_source(text)


def test_literal(machine):
    assert ev(machine, "42") == 42
    assert ev(machine, "#t") is True
    assert ev(machine, '"s"') == "s"


def test_identity_application(machine):
    assert ev(machine, "((lambda (x) x) 7)") == 7


def test_one_armed_if_yields_void(machine):
    assert ev(machine, "(if #f 'a)") is VOID


def test_only_false_is_falsy(machine):
    assert ev(machine, "(if 0 'yes 'no)").name == "yes"
    assert ev(machine, "(if '() 'yes 'no)").name == "yes"
    assert ev(machine, '(if "" (quote yes) (quote no))').name == "yes"


def test_define_then_call(machine):
    ev(machine, "(define f (lambda (n) (* n n)))")
    assert ev(machine, "(f 3)") == 9


def test_define_names_closure(machine):
    ev(machine, "(define square (lambda (n) (* n n)))")
    assert write_value(ev(machine, "square")) == "#<procedure square>"


def test_define_overwrites(machine):
    ev(machine, "(define x 1)")
    ev(machine, "(define x 2)")
    assert ev(machine, "x") == 2


def test_define_bang_targets_global_frame(machine):
    ev(machine, "(define f (lambda () (define! g 42) 'done))")
    ev(machine, "(f)")
    assert ev(machine, "g") == 42
    # define! takes no slot: g in the body is still the global
    ev(machine, "(define f (lambda (x) (define! g (+ x 1)) g))")
    assert ev(machine, "(f 1)") == 2
    ev(machine, "(define h (lambda (g) (define! g 'global) g))")
    assert ev(machine, "(h 'param)").name == "param"
    assert ev(machine, "g").name == "global"


def test_internal_define_is_frame_local(machine):
    ev(machine, "(define f (lambda () (define local 1) local))")
    assert ev(machine, "(f)") == 1
    with pytest.raises(EvalError):
        ev(machine, "local")


def test_set_mutates_nearest_binding(machine):
    ev(machine, "(define x 1)")
    ev(machine, "(set! x 5)")
    assert ev(machine, "x") == 5


def test_set_unbound_errors(machine):
    with pytest.raises(EvalError) as excinfo:
        ev(machine, "(set! nope 1)")
    assert excinfo.value.label == "UnboundVariable"


def test_unbound_variable_error(machine):
    with pytest.raises(EvalError) as excinfo:
        ev(machine, "q")
    assert excinfo.value.error_line() == "UnboundVariable: q"


def test_closure_sees_later_mutation_of_captured_frame(machine):
    ev(machine, """
        (define counter
          (lambda ()
            (define n 0)
            (lambda () (set! n (+ n 1)) n)))
    """)
    ev(machine, "(define tick (counter))")
    assert ev(machine, "(tick)") == 1
    assert ev(machine, "(tick)") == 2


def test_rest_parameter_binding(machine):
    assert write_value(ev(machine, "((lambda args args) 1 2 3)")) == "(1 2 3)"
    assert write_value(ev(machine, "((lambda (a . rest) rest) 1 2 3)")) == "(2 3)"
    assert write_value(ev(machine, "((lambda (a . rest) rest) 1)")) == "()"


def test_closure_arity_errors(machine):
    ev(machine, "(define f (lambda (x y) x))")
    with pytest.raises(EvalError) as excinfo:
        ev(machine, "(f 1)")
    assert "f" in excinfo.value.message
    assert "2" in excinfo.value.message
    with pytest.raises(EvalError):
        ev(machine, "((lambda (a . r) a))")


def test_apply_non_procedure_errors(machine):
    with pytest.raises(EvalError) as excinfo:
        ev(machine, "(1 2)")
    assert excinfo.value.label == "NotAProcedure"


def test_begin_sequences_and_returns_last(machine):
    assert ev(machine, "(begin 1 2 3)") == 3
    assert ev(machine, "(begin)") is VOID


def test_operands_evaluate_left_to_right(machine):
    ev(machine, "(define order '())")
    ev(machine, """
        (define note
          (lambda (tag value) (set! order (cons tag order)) value))
    """)
    ev(machine, "((lambda (a b) a) (note 'first 1) (note 'second 2))")
    assert write_value(ev(machine, "order")) == "(second first)"


def test_and_or_native_semantics(machine):
    assert ev(machine, "(and)") is True
    assert ev(machine, "(or)") is False
    assert ev(machine, "(and 1 2)") == 2
    assert ev(machine, "(and 1 #f 3)") is False
    assert ev(machine, "(or #f 2)") == 2
    assert ev(machine, "(or 1 2)") == 1
    ev(machine, "(define hits 0)")
    ev(machine, "(define bump (lambda () (set! hits (+ hits 1)) #t))")
    ev(machine, "(or (bump) (bump))")
    assert ev(machine, "hits") == 1


@pytest.mark.parametrize("text, value", [
    ("(and 1 2)", 2), ("(or #f 2)", 2), ("(cond (#f 1) (3))", 3)])
def test_inline_and_or_make_no_continuation(machine, text, value):
    before = machine.cont_allocations
    assert ev(machine, text) == value
    assert machine.cont_allocations == before


def test_last_operand_of_and_or_is_in_tail_position(machine):
    ev(machine, "(define a (lambda (n) (and (> n -1) (if (= n 0) 'a "
                "(a (- n 1))))))")
    ev(machine, "(define o (lambda (n) (or (= n 0) (o (- n 1)))))")

    def allocations(call):
        before = machine.cont_allocations
        ev(machine, call)
        return machine.cont_allocations - before

    assert allocations("(a 10)") == allocations("(a 5000)") == 0
    assert allocations("(o 10)") == allocations("(o 5000)") == 0


def test_long_and_or_chains(machine):
    # lowered to ifs nested 3000 deep, which are parsed and run in loops
    assert ev(machine, "(and " + "1 " * 3000 + "2)") == 2
    assert ev(machine, "(or " + "#f " * 3000 + "7)") == 7
    assert ev(machine, "(and " + "1 " * 3000 + "#f 2)") is False


def test_cond_clauses(machine):
    assert ev(machine, "(cond (#f 1) (#t 2) (else 3))") == 2
    assert ev(machine, "(cond (#f 1) (else 3))") == 3
    assert ev(machine, "(cond (#f 1))") is VOID
    assert ev(machine, "(cond ((+ 1 2)) (else 9))") == 3


def test_let_family(machine):
    assert ev(machine, "(let ((x 1) (y 2)) (+ x y))") == 3
    assert ev(machine, "(let* ((x 1) (y (+ x 1))) (* x y))") == 2
    # R7RS lets let* bind a name twice, each binding in its own scope
    assert ev(machine, "(let* ((x 1) (x (+ x 1))) x)") == 2
    assert ev(machine, """
        (letrec ((even? (lambda (n) (if (= n 0) #t (odd? (- n 1)))))
                 (odd? (lambda (n) (if (= n 0) #f (even? (- n 1))))))
          (even? 10))
    """) is True


def test_let_bindings_evaluate_in_source_order(machine):
    ev(machine, "(define order '())")
    ev(machine, """
        (define note
          (lambda (tag value) (set! order (cons tag order)) value))
    """)
    ev(machine, "(let ((a (note 'a 1)) (b (note 'b 2))) (+ a b))")
    assert write_value(ev(machine, "order")) == "(b a)"


def test_let_family_is_built_in(machine):
    # the names of the helper macros the let family was once built from are
    # free for user code
    assert Machine().macros == {}
    for name in ("let-build", "let-reverse", "letrec-defines"):
        ev(machine, f"(define {name} (lambda (x) (* x 2)))")
        assert ev(machine, f"({name} 21)") == 42


@pytest.mark.parametrize("text", [
    "(let x)", "(let (x) x)", "(let ((x)) x)", "(let ((1 2)) 3)",
    "(let ((x 1) (x 2)) x)", "(letrec ((x)) 1)", "(let* ((x 1) . 2) x)",
    "(let loop ((i 0)) i)", "(let ())", "(let* ())", "(letrec ())",
    "(letrec ((x 1) (x 2)) x)",
])
def test_malformed_let_family_reported_at_the_form(machine, text):
    with pytest.raises(FormError) as excinfo:
        ev(machine, "(list 1\n   " + text + ")")
    assert excinfo.value.label == "SyntaxError"
    assert (excinfo.value.line, excinfo.value.col) == (2, 4)


def test_let_family_with_2000_bindings(machine):
    n = 2000
    chained = "((x0 0) " + " ".join(f"(x{i} (+ x{i - 1} 1))"
                                    for i in range(1, n)) + ")"
    assert ev(machine, f"(let* {chained} x{n - 1})") == n - 1
    assert ev(machine, f"(letrec {chained} x{n - 1})") == n - 1
    parallel = "(" + " ".join(f"(x{i} {i})" for i in range(n)) + ")"
    assert ev(machine, f"(let {parallel} (+ x0 x{n - 1}))") == n - 1


def test_let_is_parallel_not_sequential(machine):
    ev(machine, "(define x 10)")
    assert ev(machine, "(let ((x 1) (y x)) y)") == 10


def test_quote_and_quasiquote(machine):
    assert write_value(ev(machine, "'(a b)")) == "(a b)"
    assert write_value(ev(machine, "`(a b)")) == "(a b)"
    assert write_value(ev(machine, "(let ((x 2)) `(1 ,x 3))")) == "(1 2 3)"
    assert write_value(ev(machine, "`(0 ,@(list 1 2) 3)")) == "(0 1 2 3)"
    assert write_value(ev(machine, "(let ((x 5)) `(a . ,x))")) == "(a . 5)"
    assert write_value(
        ev(machine, "(let ((o 'adam)) `((optimizer : ,o)))")) == \
        "((optimizer : adam))"


def test_quasiquote_vector_template(machine):
    assert ev(machine, "(let ((x 2)) `#(1 ,x))") == [1, 2]


def test_quasiquote_splice_non_list_errors(machine):
    with pytest.raises(EvalError):
        ev(machine, "`(a ,@5)")


def test_nested_quasiquote_rejected(machine):
    with pytest.raises(FormError):
        ev(machine, "``x")


def test_unquote_outside_quasiquote_rejected(machine):
    with pytest.raises(FormError):
        ev(machine, ",x")


def test_malformed_special_forms_rejected(machine):
    for text in ("(if)", "(lambda)", "(lambda 5 x)", "(define)",
                 "(define (f) 1)", "(set! 5 1)", "(quote)", "()",
                 "(lambda (x x) x)"):
        with pytest.raises(FormError):
            ev(machine, text)


def test_define_syntax_only_at_top_level(machine):
    with pytest.raises(FormError):
        ev(machine, "(lambda () (define-syntax m [(m ?x) ?x]))")


def test_top_level_define_syntax_gives_void_and_no_pending_frames(machine):
    assert ev(machine, "(choose 1 2)") == 1
    defined = ev(machine, "(define-syntax twice [(twice ?e) (list ?e ?e)])")
    assert defined is VOID
    assert machine.trace.spine is None and machine.pc is None
    assert write_value(ev(machine, "(twice (+ 1 2))")) == "(3 3)"
    assert ev(machine, "(choose)") == 2


def test_sum_program(machine):
    ev(machine, SUM_PROGRAM)
    assert ev(machine, "(sum 100)") == 5050
    assert ev(machine, "(sum 1000)") == 500500


def test_deep_non_tail_recursion_does_not_touch_host_stack(quiet_machine):
    quiet_machine.eval_source(
        "(define sum-rec (lambda (n) (if (= n 0) 0 (+ n (sum-rec (- n 1))))))")
    assert quiet_machine.eval_source("(sum-rec 100000)") == 5000050000


def test_even_odd_tail_calls(machine):
    ev(machine, EVEN_ODD_PROGRAM)
    assert ev(machine, "(even? 100000)") is True
    assert ev(machine, "(odd? 100001)") is True


def test_tail_call_continuation_allocations_constant(machine):
    ev(machine, EVEN_ODD_PROGRAM)

    def allocations(n):
        before = machine.cont_allocations
        ev(machine, f"(even? {n})")
        return machine.cont_allocations - before

    a10, a1000, a10000 = allocations(10), allocations(1000), allocations(10000)
    slope_small = (a1000 - a10) / 990
    slope_large = (a10000 - a1000) / 9000
    assert slope_small == slope_large


def test_callcc_unused_continuation(machine):
    assert ev(machine, "(call/cc (lambda (k) 42))") == 42


def test_callcc_escapes_pending_operation(machine):
    assert ev(machine, "(call/cc (lambda (k) (+ 1 (k 10))))") == 10
    assert ev(machine, "(+ 1 (call/cc (lambda (k) (k 1) 99)))") == 2


def test_callcc_long_spelling(machine):
    assert ev(machine,
              "(call-with-current-continuation (lambda (k) (k 5)))") == 5


def test_continuation_reapplied_twice(machine):
    ev(machine, "(define saved #f)")
    assert ev(machine,
              "(+ 10 (call/cc (lambda (k) (set! saved k) 1)))") == 11
    assert ev(machine, "(saved 5)") == 15
    assert ev(machine, "(saved 90)") == 100


def test_continuation_is_a_procedure(machine):
    assert ev(machine, "(call/cc (lambda (k) (procedure? k)))") is True


def test_continuation_arity(machine):
    with pytest.raises(EvalError):
        ev(machine, "(call/cc (lambda (k) (k 1 2)))")


def test_callcc_is_a_procedure(machine):
    assert ev(machine, "(procedure? call/cc)") is True
    assert write_value(ev(machine, "(map call/cc (list (lambda (k) 1) "
                                   "(lambda (k) (k 2))))")) == "(1 2)"
    assert ev(machine, "(apply call-with-current-continuation "
                       "(list (lambda (k) (k 3))))") == 3


def test_both_spellings_of_callcc_are_one_procedure(machine):
    assert ev(machine, "(eq? call/cc call-with-current-continuation)") is True
    assert ev(machine, "(eqv? call-with-current-continuation call/cc)") is True


def test_callcc_without_an_operand_is_an_arity_error(machine):
    with pytest.raises(EvalError) as excinfo:
        ev(machine, "(call/cc)")
    assert excinfo.value.error_line() == (
        "ArityError: call/cc: expected 1 argument(s), got 0")


def test_a_macro_may_take_the_name_callcc(machine):
    ev(machine, "(define-syntax call/cc [(call/cc ?x) (list ?x ?x)])")
    assert write_value(ev(machine, "(call/cc 1)")) == "(1 1)"


def test_machine_isolation():
    a = Machine(stdout=io.StringIO())
    b = Machine(stdout=io.StringIO())
    a.eval_source("(define x 1)")
    with pytest.raises(EvalError):
        b.eval_source("x")


def test_eval_top_accepts_source_datum(machine):
    datums = read_all("(+ 1 2)")
    assert machine.eval_top(datums[0]) == 3


def test_determinism_across_machines():
    program = "(let ((x (choose 1 2 3)) (y (choose 4 5))) (require (> y x)) (list x y))"
    outs = []
    for _ in range(2):
        m = Machine(stdout=io.StringIO())
        values = [write_value(m.eval_source(program))]
        while True:
            v = m.eval_source("(choose)")
            if v == "no more choices":
                break
            values.append(write_value(v))
        outs.append(values)
    assert outs[0] == outs[1]


def test_global_environment_survives_errors(machine):
    ev(machine, "(define x 42)")
    with pytest.raises(EvalError):
        ev(machine, "(car 5)")
    assert ev(machine, "x") == 42


def test_equal_on_structures(machine):
    assert ev(machine, "(equal? '(1 (2 3)) '(1 (2 3)))") is True
    assert ev(machine, "(equal? #(1 2) #(1 2))") is True
    assert ev(machine, "(equal? '(1 2) '(1 2 3))") is False


def test_non_tail_recursion_on_small_host_stack():
    import threading

    result = {}

    def work():
        m = Machine(stdout=io.StringIO(), stack_trace=False)
        m.eval_source("(define deep (lambda (n) (if (= n 0) 0 (+ 1 (deep (- n 1))))))")
        result["value"] = m.eval_source("(deep 200000)")

    old = threading.stack_size(512 * 1024)
    try:
        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(old)
    assert result["value"] == 200000


def test_fail_chain_holds_remaining_alternatives(machine):
    from ambit.values import ChoicePoint

    machine.eval_source("(choose 1 2 3)")
    point = machine.fail_reg
    assert isinstance(point, ChoicePoint)
    remaining = point.alternatives[point.index:]
    assert [form.value for form in remaining] == [2, 3]


def test_host_exception_becomes_internal_error_with_state_restored(machine):
    machine.eval_source("(define f (lambda () (choose 1 2)))")
    assert machine.eval_source("(f)") == 1
    fail_chain = machine.fail_reg
    deep = "(+ " * 3000 + "1" + ")" * 3000
    with pytest.raises(SchemeError) as excinfo:
        machine.eval_source(deep)
    assert excinfo.value.label == "InternalError"
    assert isinstance(excinfo.value.__cause__, RecursionError)
    assert machine.fail_reg is fail_chain
    assert machine.trace.spine is None
    assert machine.eval_source("(choose)") == 2


# --- lexical addresses ------------------------------------------------------


def test_set_reaches_binding_two_frames_up(machine):
    ev(machine, """
        (define make
          (lambda (n)
            (lambda (a)
              (lambda (b) (set! n (+ n a b)) n))))
    """)
    ev(machine, "(define bump ((make 100) 10))")
    assert ev(machine, "(bump 1)") == 111
    assert ev(machine, "(bump 2)") == 123


def test_closure_sees_global_callee_defined_and_redefined_later(machine):
    ev(machine, "(define caller (lambda (x) (callee x)))")
    with pytest.raises(EvalError) as excinfo:
        ev(machine, "(caller 1)")
    assert excinfo.value.error_line() == "UnboundVariable: callee"
    ev(machine, "(define callee (lambda (x) (* x 10)))")
    assert ev(machine, "(caller 2)") == 20
    ev(machine, "(define callee (lambda (x) (- x)))")
    assert ev(machine, "(caller 3)") == -3


def test_redefined_plus_seen_by_inline_primitive_path(machine):
    ev(machine, "(define add (lambda (a b) (+ a b)))")
    ev(machine, "(define twice (lambda (a) (* 2 (+ a 1))))")
    assert ev(machine, "(add 2 3)") == 5
    assert ev(machine, "(twice 4)") == 10
    ev(machine, "(define + (lambda (a b) (list 'plus a b)))")
    assert write_value(ev(machine, "(add 2 3)")) == "(plus 2 3)"
    with pytest.raises(EvalError) as excinfo:
        ev(machine, "(twice 4)")
    assert excinfo.value.label == "*"


def test_parameter_shadows_primitive_of_the_same_name(machine):
    assert ev(machine, "((lambda (car) (car 1)) (lambda (x) (+ x 1)))") == 2
    assert ev(machine, "((lambda (list) list) 7)") == 7
    assert ev(machine, "((lambda (list) (+ list 1)) 7)") == 8
    assert write_value(ev(machine, "(list (car '(1 2)))")) == "(1)"


def test_define_in_choose_alternative_seen_after_backtracking(machine):
    ev(machine, """
        (define pick
          (lambda ()
            (choose (define v 1) (define v 2) (define v 3))
            (require (> v 1))
            v))
    """)
    assert exhaust_choices(machine, "(pick)") == [2, 3]


def test_body_name_read_before_its_define_is_unbound(machine):
    # R7RS body scope: a body `define` binds the name for the whole body,
    # so an earlier read does not fall through to the global
    ev(machine, "(define x 'outer)")
    ev(machine, "(define f (lambda () (define y x) (define x 'inner) y))")
    with pytest.raises(EvalError) as excinfo:
        ev(machine, "(f)")
    assert excinfo.value.error_line() == "UnboundVariable: x"
    ev(machine, "(define g (lambda () (set! x 1) (define x 2) x))")
    with pytest.raises(EvalError) as excinfo:
        ev(machine, "(g)")
    assert excinfo.value.error_line() == "UnboundVariable: set!: x"
    assert ev(machine, "x").name == "outer"


def test_define_of_parameter_name_reuses_its_slot(machine):
    assert write_value(ev(machine, """
        ((lambda (x) (define y x) (define x (+ x 1)) (list y x)) 1)
    """)) == "(1 2)"


def test_deeply_nested_inline_form(machine):
    # guards against the compiler spending more host frames per nesting
    # level, or per macro level: 250 levels fit under 100 frames of callers
    depth = 250
    plus = "(+ " * depth + "1" + " 1)" * depth
    lets = "(let ((x " * depth + "1" + ")) (+ x 1))" * depth

    def under(frames, text):
        return under(frames - 1, text) if frames else ev(machine, text)

    assert under(100, plus) == depth + 1
    assert under(100, lets) == depth + 1


# --- forms that evaluate themselves -------------------------------------------


def test_inline_operand_work_is_not_redone(machine):
    # an application is computed inline only when every operand can be, so
    # (car '(1)) is not computed once inline and again by the stepped path
    from ambit.values import intern

    car = machine.globals[intern("car")]
    calls = []
    original = car.fn

    def counted(m, args):
        calls.append(args)
        return original(m, args)

    car.fn = counted
    ev(machine, "(define f (lambda (x) x))")
    assert ev(machine, "(if (= (car '(1)) (f 1)) 'a 'b)").name == "a"
    assert len(calls) == 1
    assert write_value(ev(machine, "(list (+ (car '(1)) (f 1)))")) == "(2)"
    assert len(calls) == 2


def test_rebinding_a_primitive_to_another_is_seen(machine):
    ev(machine, "(define g (lambda (x) (+ x 1)))")
    assert ev(machine, "(g 5)") == 6
    ev(machine, "(define + -)")
    assert ev(machine, "(g 5)") == 4


def test_caller_parsed_before_its_operator_became_a_primitive(machine):
    ev(machine, "(define h (lambda () (myneg 5)))")
    ev(machine, "(define myneg -)")
    assert ev(machine, "(h)") == -5


def test_parameter_named_like_a_primitive_in_operator_position(machine):
    assert ev(machine,
              "((lambda (car) (car 1)) (lambda (x) (* x 10)))") == 10


def test_evaluation_adds_no_nesting_limit_below_the_parser():
    from helpers import run_on_small_stack

    def work():
        m = Machine(stdout=io.StringIO())
        m.eval_source("(define f (lambda (x) (+ x 1)))")
        calls = "(f " * 320 + "0" + ")" * 320
        ifs = "(if " * 320 + "#t" + " 1 2)" * 320
        plus = "(+ " * 320 + "1" + " 1)" * 320
        lets = "(let ((x " * 190 + "1" + ")) (+ x 1))" * 190
        return [m.eval_source(text) for text in (calls, ifs, plus, lets)]

    assert run_on_small_stack(work) == [320, 1, 321, 191]


def test_long_cond_chain_costs_no_host_depth(machine):
    # parse_core builds a cond's clauses into a chain of ifs in a loop, so
    # following the chain must not recurse once per clause either
    clauses = " ".join(f"((eq? x 'k{i}) {i})" for i in range(1, 2001))
    ev(machine, "(define no (lambda (x) #f))")
    ev(machine, f"(define pick (lambda (x) (cond ((no x) 0) {clauses})))")
    assert ev(machine, "(pick 'k2000)") == 2000
    assert ev(machine, "(pick 'k1)") == 1
    assert ev(machine, "(pick 'z)") is VOID
    ev(machine, "(define x 'k1999)")
    assert ev(machine, f"(cond {clauses})") == 1999


def test_parsing_leaves_no_scope_cycles(machine):
    # compile-time scopes must be freed by reference counting alone, so parse
    # garbage does not wait for the cyclic collector
    import gc

    from ambit.forms import _Scope, parse_core

    def live_scopes():
        return sum(type(o) is _Scope for o in gc.get_objects())

    text = " ".join(f"(define f{i} (lambda (x) (let ((y x)) (+ x y))))"
                    for i in range(100))
    gc.collect()
    gc.disable()
    try:
        before = live_scopes()
        for datum in read_all(text):
            parse_core(datum.value, machine.macros, "<test>", machine.globals)
        assert live_scopes() - before == 0
    finally:
        gc.enable()


# --- returns through pending primitive applications -------------------------


def test_error_after_primitive_returns_shows_its_own_frames(machine):
    # (g 1) and (g 2) return through pending `+` applications, each of which
    # must make its level's frames current before `(+ 'x …)` fails in (g 3)
    ev(machine, "(define g (lambda (n) (if (= n 0) 0 "
                "(+ (if (= n 3) 'x 1) (g (- n 1))))))")
    with pytest.raises(SchemeError) as excinfo:
        ev(machine, "(g 5)")
    err = excinfo.value
    assert err.error_line() == "+: expected a number, got x"
    assert [(f[0], f[1]) for f in err.frames] == [
        ("g", (5,)), ("g", (4,)), ("g", (3,))]


def test_callcc_reentered_under_pending_primitive_returns(machine):
    ev(machine, "(define saved #f)")
    ev(machine, "(define h (lambda (n) (if (= n 0) "
                "(call/cc (lambda (k) (set! saved k) 0)) "
                "(+ 1 (* 1 (h (- n 1)))))))")
    program = """
    (let ((results '()))
      (let ((v (+ 100 (h 5))))
        (set! results (cons v results))
        (if (< (length results) 3)
            (saved (* 10 (length results)))
            (reverse results))))
    """
    assert write_value(ev(machine, program)) == "(105 115 125)"
    # from a later top-level form, the re-entered let sees its frame as the
    # earlier runs left it
    assert write_value(ev(machine, "(saved 7)")) == "(105 115 125 112)"


def test_body_forms_computed_inline_make_no_continuation(machine):
    ev(machine, "(define f (lambda (x) (require (> x 0)) (car (list x)) "
                "(+ x 1)))")
    before = machine.cont_allocations
    assert ev(machine, "(f 1)") == 2
    assert ev(machine, "(begin (require #t) (f 2))") == 3
    assert machine.cont_allocations == before
