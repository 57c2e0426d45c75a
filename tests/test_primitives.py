import io
import math

import pytest

from helpers import run_on_small_stack

from ambit import Machine, VOID, write_value
from ambit.errors import EvalError


def ev(machine, text):
    return machine.eval_source(text)


def out_text(machine):
    return machine.stdout.getvalue()


# --- pairs and lists -------------------------------------------------------


def test_pair_basics(machine):
    assert write_value(ev(machine, "(cons 1 2)")) == "(1 . 2)"
    assert ev(machine, "(car '(1 2))") == 1
    assert write_value(ev(machine, "(cdr '(1 2))")) == "(2)"
    assert ev(machine, "(caar '((1) 2))") == 1
    assert ev(machine, "(cadr '(1 2))") == 2
    assert write_value(ev(machine, "(cdar '((1 9) 2))")) == "(9)"
    assert write_value(ev(machine, "(cddr '(1 2 3))")) == "(3)"
    assert ev(machine, "(caddr '(1 2 3))") == 3


def test_car_of_non_pair_errors(machine):
    with pytest.raises(EvalError) as excinfo:
        ev(machine, "(car '())")
    assert excinfo.value.label == "car"


def test_list_append_reverse_length(machine):
    assert write_value(ev(machine, "(list 1 2 3)")) == "(1 2 3)"
    assert write_value(ev(machine, "(append '(1) '() '(2 3))")) == "(1 2 3)"
    assert write_value(ev(machine, "(append)")) == "()"
    assert write_value(ev(machine, "(reverse '(1 2 3))")) == "(3 2 1)"
    assert ev(machine, "(length '(a b c))") == 3
    assert ev(machine, "(length '())") == 0


def test_length_of_improper_list_errors(machine):
    with pytest.raises(EvalError):
        ev(machine, "(length '(1 . 2))")


def test_member_and_memq(machine):
    assert write_value(ev(machine, "(member 'b '(a b c))")) == "(b c)"
    assert ev(machine, "(member 'z '(a b c))") is False
    assert write_value(ev(machine, "(member '(1) '((0) (1)))")) == "((1))"
    assert ev(machine, "(memq '(1) '((0) (1)))") is False
    assert write_value(ev(machine, "(memq 'b '(a b))")) == "(b)"


def test_member_and_assv_compare_like_equal_and_eqv(machine):
    # the quoted target is a reader-made pair, a subclass of Pair, and is
    # compared by structure like any other pair
    assert write_value(ev(machine, "(member '(1) (list '(0) '(1)))")) == \
        "((1))"
    assert write_value(ev(machine, "(member \"b\" (list \"a\" \"b\"))")) \
        == '("b")'
    assert write_value(ev(machine, "(member (vector 1) (list (vector 1)))")) \
        == "(#(1))"
    assert write_value(ev(machine, "(member 'c (list 'a 'b 'c 'd))")) == \
        "(c d)"
    assert ev(machine, "(member 'e (list 'a 'b 'c 'd))") is False
    assert write_value(ev(machine, "(member #t (list #f #t))")) == "(#t)"
    assert write_value(ev(machine, "(member 2.5 (list 1 2.5 3))")) == \
        "(2.5 3)"
    assert write_value(ev(machine, "(memq 300 (list 100 200 300))")) == \
        "(300)"
    assert ev(machine, "(member 2 (list 1 2.0 3))") is False
    assert write_value(ev(machine, "(assv 2.5 (list (list 2.5 'x)))")) == \
        "(2.5 x)"


def test_member_of_improper_list_still_errors(machine):
    with pytest.raises(EvalError, match="member"):
        ev(machine, "(member 'z '(a . b))")
    with pytest.raises(EvalError, match="assq"):
        ev(machine, "(assq 'z '((a 1) 2))")


def test_assq_assv(machine):
    assert write_value(ev(machine, "(assq 'b '((a 1) (b 2)))")) == "(b 2)"
    assert ev(machine, "(assq 'z '((a 1)))") is False
    assert write_value(ev(machine, "(assv 2 '((1 a) (2 b)))")) == "(2 b)"


def test_type_predicates_on_lists(machine):
    assert ev(machine, "(null? '())") is True
    assert ev(machine, "(null? '(1))") is False
    assert ev(machine, "(pair? '(1))") is True
    assert ev(machine, "(pair? '())") is False
    assert ev(machine, "(list? '(1 2))") is True
    assert ev(machine, "(list? '(1 . 2))") is False


# --- arithmetic ------------------------------------------------------------


def test_arithmetic_basics(machine):
    assert ev(machine, "(+ 1 2 3)") == 6
    assert ev(machine, "(+)") == 0
    assert ev(machine, "(- 5 1 1)") == 3
    assert ev(machine, "(- 5)") == -5
    assert ev(machine, "(* 2 3 4)") == 24
    assert ev(machine, "(*)") == 1


def test_division_rules(machine):
    assert ev(machine, "(/ 6 2)") == 3
    assert ev(machine, "(/ 1 2)") == 0.5
    assert ev(machine, "(/ 2)") == 0.5
    assert ev(machine, "(/ 1 2.0)") == 0.5
    with pytest.raises(EvalError):
        ev(machine, "(/ 1 0)")
    assert ev(machine, "(/ 1.0 0.0)") == math.inf
    assert ev(machine, "(/ -1.0 0.0)") == -math.inf
    assert math.isnan(ev(machine, "(/ 0.0 0.0)"))


def test_mixed_arithmetic_promotes_to_real(machine):
    value = ev(machine, "(+ 1 2.5)")
    assert value == 3.5 and type(value) is float


def test_integer_overflow_raises(machine):
    assert ev(machine, f"(+ {2**63 - 2} 1)") == 2 ** 63 - 1
    with pytest.raises(EvalError) as excinfo:
        ev(machine, f"(+ {2**63 - 1} 1)")
    assert "overflow" in excinfo.value.message
    with pytest.raises(EvalError):
        ev(machine, f"(* {2**62} 2)")
    with pytest.raises(EvalError):
        ev(machine, f"(- 0 {-(2**63)})")
    with pytest.raises(EvalError):
        ev(machine, f"(abs {-(2**63)})")


def test_comparisons_chain(machine):
    assert ev(machine, "(= 1 1 1)") is True
    assert ev(machine, "(= 1 1.0)") is True
    assert ev(machine, "(< 1 2 3)") is True
    assert ev(machine, "(< 1 3 2)") is False
    assert ev(machine, "(> 3 2 1)") is True
    assert ev(machine, "(<= 1 1 2)") is True
    assert ev(machine, "(>= 2 2 1)") is True


def test_comparison_type_errors(machine):
    with pytest.raises(EvalError):
        ev(machine, "(< 1 'a)")
    with pytest.raises(EvalError):
        ev(machine, "(+ 1 #t)")


def test_min_max_abs(machine):
    assert ev(machine, "(min 3 1 2)") == 1
    assert ev(machine, "(max 3 1 2)") == 3
    assert ev(machine, "(min 1 2.0)") == 1.0
    assert type(ev(machine, "(min 1 2.0)")) is float
    assert ev(machine, "(abs -4)") == 4
    assert ev(machine, "(abs 4.5)") == 4.5


def test_integer_division_family(machine):
    assert ev(machine, "(quotient 7 2)") == 3
    assert ev(machine, "(quotient -7 2)") == -3
    assert ev(machine, "(remainder 7 2)") == 1
    assert ev(machine, "(remainder -7 2)") == -1
    assert ev(machine, "(modulo 7 2)") == 1
    assert ev(machine, "(modulo -7 2)") == 1
    assert ev(machine, "(modulo 7 -2)") == -1
    for text in ("(quotient 1 0)", "(remainder 1 0)", "(modulo 1 0)"):
        with pytest.raises(EvalError):
            ev(machine, text)


# --- predicates ------------------------------------------------------------


def test_equality_predicates(machine):
    assert ev(machine, "(eq? 'a 'a)") is True
    assert ev(machine, "(eq? 'a 'b)") is False
    assert ev(machine, "(eqv? 1 1)") is True
    assert ev(machine, "(eqv? 1 1.0)") is False
    assert ev(machine, "(equal? '(1 2) '(1 2))") is True
    assert ev(machine, "(eq? '(1) '(1))") is False
    assert ev(machine, '(equal? "ab" "ab")') is True


def test_equal_ends_on_circular_vectors(machine):
    # each vector holds itself
    ev(machine, "(define v (vector 1)) (define w (vector 1)) "
                "(vector-set! v 0 v) (vector-set! w 0 w)")
    assert ev(machine, "(equal? v w)") is True
    # the same, but for one element
    ev(machine, "(define a (vector 0 1)) (define b (vector 0 2)) "
                "(vector-set! a 0 a) (vector-set! b 0 b)")
    assert ev(machine, "(equal? a b)") is False
    # a cycle of one vector against a cycle of two
    ev(machine, "(define p (vector 0)) (define q (vector 0)) "
                "(define r (vector 0)) (vector-set! p 0 p) "
                "(vector-set! q 0 r) (vector-set! r 0 q)")
    assert ev(machine, "(equal? p q)") is True


def test_eq_implies_eqv_implies_equal(machine):
    samples = ["'a", "1", "1.5", '"s"', "'(1 2)", "#t", "#(1)", "'()"]
    for a in samples:
        for b in samples:
            eq = ev(machine, f"(eq? {a} {b})")
            eqv = ev(machine, f"(eqv? {a} {b})")
            equal = ev(machine, f"(equal? {a} {b})")
            if eq:
                assert eqv
            if eqv:
                assert equal


def test_not(machine):
    assert ev(machine, "(not #f)") is True
    assert ev(machine, "(not 0)") is False
    assert ev(machine, "(not '())") is False


def test_type_predicates(machine):
    assert ev(machine, "(number? 1)") is True
    assert ev(machine, "(number? 1.5)") is True
    assert ev(machine, "(number? #t)") is False
    assert ev(machine, "(integer? 1)") is True
    assert ev(machine, "(integer? 2.0)") is True
    assert ev(machine, "(integer? 2.5)") is False
    assert ev(machine, "(symbol? 'a)") is True
    assert ev(machine, '(string? "s")') is True
    assert ev(machine, "(string? 's)") is False
    assert ev(machine, "(boolean? #f)") is True
    assert ev(machine, "(boolean? 0)") is False
    assert ev(machine, "(procedure? car)") is True
    assert ev(machine, "(procedure? (lambda () 1))") is True
    assert ev(machine, "(vector? #(1))") is True
    assert ev(machine, "(vector? '(1))") is False


# --- vectors ---------------------------------------------------------------


def test_vector_operations(machine):
    assert ev(machine, "(vector 1 2)") == [1, 2]
    assert ev(machine, "(make-vector 3)") == [0, 0, 0]
    assert ev(machine, "(make-vector 2 'x)") == [
        machine.eval_source("'x"), machine.eval_source("'x")]
    assert ev(machine, "(vector-ref #(7 8) 1)") == 8
    assert ev(machine, "(vector-length #(1 2 3))") == 3
    ev(machine, "(define v (vector 1 2))")
    assert ev(machine, "(begin (vector-set! v 0 9) (vector-ref v 0))") == 9


def test_vector_bounds_checked(machine):
    with pytest.raises(EvalError):
        ev(machine, "(vector-ref #(1) 1)")
    with pytest.raises(EvalError):
        ev(machine, "(vector-ref #(1) -1)")
    with pytest.raises(EvalError):
        ev(machine, "(make-vector -1)")


# --- strings ---------------------------------------------------------------


def test_string_operations(machine):
    assert ev(machine, '(string-append "a" "b" "c")') == "abc"
    assert ev(machine, "(string-append)") == ""
    assert ev(machine, '(string-length "abc")') == 3
    assert ev(machine, '(string->symbol "hi")').name == "hi"
    assert ev(machine, "(symbol->string 'hi)") == "hi"
    assert ev(machine, "(number->string 42)") == "42"
    assert ev(machine, "(number->string 1.5)") == "1.5"
    assert ev(machine, '(string->number "42")') == 42
    assert ev(machine, '(string->number "1.5")') == 1.5
    assert ev(machine, '(string->number "nope")') is False


def test_infinities_and_nan_are_written_as_r7rs_spells_them(machine):
    assert ev(machine, "(number->string (/ 1.0 0))") == "+inf.0"
    assert ev(machine, "(number->string (/ -1.0 0))") == "-inf.0"
    assert ev(machine, "(number->string (/ 0.0 0))") == "+nan.0"
    assert ev(machine, "(string->number (number->string (/ 1.0 0)))") \
        == math.inf
    assert ev(machine, '(string->number "-inf.0")') == -math.inf
    assert math.isnan(ev(machine, '(string->number "+nan.0")'))
    assert ev(machine, '(string->number "inf")') is False


def test_a_decimal_may_start_with_its_point(machine):
    # R7RS 7.1.1 <decimal 10>
    assert ev(machine, "(+ .5 1)") == 1.5
    assert [ev(machine, f'(string->number "{text}")')
            for text in (".5", "-.5", "+.5", ".5e1", ".", ".e1")] == [
        0.5, -0.5, 0.5, 5.0, False, False]


def test_minus_nan_is_read_as_a_nan(machine):
    assert ev(machine, '(let ((x (string->number "-nan.0"))) '
                       '(not (= x x)))') is True
    assert math.isnan(ev(machine, "(quote -nan.0)"))


# --- output ----------------------------------------------------------------


def test_display_write_newline_print(machine):
    ev(machine, '(display "hi")')
    ev(machine, "(newline)")
    ev(machine, '(write "hi")')
    ev(machine, "(newline)")
    ev(machine, "(print '(1 2))")
    ev(machine, "(display '(a \"b\"))")
    assert out_text(machine) == 'hi\n"hi"\n(1 2)\n(a b)'


def test_format_directives(machine):
    assert ev(machine, '(format "~s" \'(1 2))') == "(1 2)"
    assert ev(machine, '(format "x=~a y=~s~%" "v" "v")') == 'x=v y="v"\n'
    assert ev(machine, '(format "plain")') == "plain"


def test_format_errors(machine):
    with pytest.raises(EvalError):
        ev(machine, '(format "~q" 1)')
    with pytest.raises(EvalError):
        ev(machine, '(format "~a")')
    with pytest.raises(EvalError):
        ev(machine, '(format "x" 1)')
    with pytest.raises(EvalError):
        ev(machine, '(format "~")')


# --- control and misc ------------------------------------------------------


def test_error_primitive(machine):
    with pytest.raises(EvalError) as excinfo:
        ev(machine, '(error \'f "bad: ~s" 7)')
    assert excinfo.value.error_line() == "f: bad: 7"


def test_error_arity(machine):
    with pytest.raises(EvalError) as excinfo:
        ev(machine, "(error)")
    assert excinfo.value.label == "ArityError"


def test_apply_spreads_list(machine):
    assert ev(machine, "(apply + '(1 2 3))") == 6
    assert write_value(ev(machine, "(apply cons '(1 2))")) == "(1 . 2)"
    assert ev(machine, "(apply (lambda args (length args)) '(a b c))") == 3
    assert ev(machine, "(apply + 1 2 '(3 4))") == 10


def test_apply_improper_final_list_errors(machine):
    with pytest.raises(EvalError):
        ev(machine, "(apply + '(1 . 2))")


def test_apply_preserves_tail_position(machine):
    machine.eval_source("""
        (define loop
          (lambda (n) (if (= n 0) 'done (apply loop (list (- n 1))))))
    """)
    assert ev(machine, "(loop 30000)").name == "done"


def test_map_single_and_multi_list(machine):
    assert write_value(ev(machine, "(map (lambda (x) (* x x)) '(1 2 3))")) == \
        "(1 4 9)"
    assert write_value(ev(machine, "(map + '(1 2) '(10 20))")) == "(11 22)"
    assert write_value(ev(machine, "(map car '())")) == "()"


def test_for_each_effects_in_order(machine):
    ev(machine, "(for-each display '(1 2 3))")
    assert out_text(machine) == "123"
    assert ev(machine, "(for-each display '())") is VOID


def test_void(machine):
    assert ev(machine, "(void)") is VOID
    assert ev(machine, "(void 1 2)") is VOID


def test_use_stack_trace_validates_boolean(machine):
    assert ev(machine, "(use-stack-trace #f)") is VOID
    assert machine.trace.config.enabled is False
    ev(machine, "(use-stack-trace #t)")
    assert machine.trace.config.enabled is True
    with pytest.raises(EvalError):
        ev(machine, "(use-stack-trace 1)")


def test_primitive_arity_errors(machine):
    with pytest.raises(EvalError) as excinfo:
        ev(machine, "(car)")
    assert excinfo.value.label == "ArityError"
    with pytest.raises(EvalError):
        ev(machine, "(cons 1)")
    with pytest.raises(EvalError):
        ev(machine, "(not 1 2)")


def test_failed_primitive_leaves_machine_usable():
    machine = Machine(stdout=io.StringIO())
    machine.eval_source("(define x 1)")
    before_fail = machine.fail_reg
    for _ in range(100):
        try:
            machine.eval_source("(car 'oops)")
        except EvalError:
            pass
        assert len(machine.trace.frames) == 0
    assert machine.fail_reg is before_fail
    assert machine.eval_source("(+ x 1)") == 2


def test_equal_on_deeply_car_nested_lists_on_small_stack():
    def work():
        m = Machine(stdout=io.StringIO(), stack_trace=False)
        m.eval_source("(define nest (lambda (n acc) "
                      "(if (= n 0) acc (nest (- n 1) (cons acc '())))))")
        return (m.eval_source("(equal? (nest 100000 '(x)) (nest 100000 '(x)))"),
                m.eval_source("(equal? (nest 100000 '(x)) (nest 100000 '(y)))"))

    assert run_on_small_stack(work) == (True, False)
