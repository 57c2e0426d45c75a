"""Quasiquote templates: evaluation order, sharing, splices, and depth."""

import io

import pytest

from helpers import exhaust_choices, run_on_small_stack

from ambit import Machine, write_value
from ambit.errors import EvalError, FormError


def ev(machine, text):
    return machine.eval_source(text)


def test_reentered_unquote_builds_fresh_pairs_and_shares_constant_tail(
        machine):
    text = """
    (let ((k #f) (r '()))
      (let ((v `(a ,(call/cc (lambda (c) (set! k c) 1)) b c)))
        (set! r (cons v r))
        (if (< (length r) 2)
            (k 2)
            (list r (eq? (car r) (cadr r))
                  (eq? (cddr (car r)) (cddr (cadr r)))))))
    """
    assert write_value(ev(machine, text)) == "(((a 2 b c) (a 1 b c)) #f #t)"


def test_choose_inside_a_splice_backtracks_through_the_template(machine):
    values = exhaust_choices(
        machine, "(let ((x 1)) `(,@(choose (list 1) (list 2 3)) ,x))")
    assert [write_value(v) for v in values] == ["(1 1)", "(2 3 1)"]


def test_non_list_splice_stops_the_template_before_later_parts(machine):
    ev(machine, "(define flag #f)")
    with pytest.raises(EvalError) as info:
        ev(machine, "`(,@5 ,(set! flag #t))")
    assert info.value.message == "expected a proper list, got 5"
    assert info.value.label == "unquote-splicing"
    assert ev(machine, "flag") is False


def test_vector_template_with_splice_and_constant_item(machine):
    value = ev(machine, "(let ((x 1)) `#(,x ,@(list 2 3) ,(+ 2 2) x))")
    assert write_value(value) == "#(1 2 3 4 x)"


def test_unquoted_quote(machine):
    assert write_value(ev(machine, "`(a ,'b c)")) == "(a b c)"


def test_empty_splice_before_a_dotted_tail(machine):
    assert write_value(ev(machine, "`(1 ,@(list) . 5)")) == "(1 . 5)"


def test_splice_in_tail_position_and_nested_quasiquote_rejected(machine):
    with pytest.raises(FormError,
                       match="unquote-splicing outside list context"):
        ev(machine, "(define x '(1)) `(a . ,@x)")
    with pytest.raises(FormError, match="nested quasiquote"):
        ev(machine, "`(a quasiquote b)")


_ITEMS = " ".join(f",(+ {i} 1)" for i in range(3000))


def _on_small_stack(text):
    return run_on_small_stack(
        lambda: Machine(stdout=io.StringIO()).eval_source(text))


def test_long_list_template_on_small_stack():
    assert _on_small_stack(f"(length `({_ITEMS}))") == 3000


def test_long_vector_template_on_small_stack():
    assert _on_small_stack(f"(vector-length `#({_ITEMS}))") == 3000
