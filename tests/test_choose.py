import io
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    COLOR_EUROPE_PROGRAM, coloring_solutions, coloring_text, combo_text,
    exhaust_choices, gen_choose_tree, gen_predicate, gen_search_program,
    run_on_small_stack, scaling_ratio, tree_leaves, tree_text,
)

from ambit import Machine, write_value
from ambit.errors import EvalError
from ambit.machine import NO_MORE_CHOICES
from ambit.values import TERMINAL_FAIL


def ev(machine, text):
    return machine.eval_source(text)


def test_choose_returns_first_alternative(machine):
    assert ev(machine, "(choose 1 2 3)") == 1


def test_choose_alternatives_saved_for_failure(machine):
    ev(machine, "(choose 1 2 3)")
    assert ev(machine, "(choose)") == 2
    assert ev(machine, "(choose)") == 3
    assert ev(machine, "(choose)") == NO_MORE_CHOICES


def test_bare_choose_with_no_history(machine):
    assert ev(machine, "(choose)") == NO_MORE_CHOICES
    assert machine.fail_reg is TERMINAL_FAIL


def test_choose_alternatives_evaluate_lazily(machine):
    ev(machine, "(define evaluated '())")
    ev(machine, """
        (define note
          (lambda (tag) (set! evaluated (cons tag evaluated)) tag))
    """)
    ev(machine, "(choose (note 'a) (note 'b))")
    assert write_value(ev(machine, "evaluated")) == "(a)"
    ev(machine, "(choose)")
    assert write_value(ev(machine, "evaluated")) == "(b a)"


def test_require_true_is_void_and_keeps_going(machine):
    assert write_value(ev(machine, "(begin (require #t) 'ok)")) == "ok"


def test_require_filters_alternatives(machine):
    assert ev(machine, "(let ((x (choose 1 2 3))) (require (> x 2)) x)") == 3


def test_require_truthy_non_boolean_passes(machine):
    assert ev(machine, "(begin (require 7) 'ok)").name == "ok"
    assert ev(machine, "(begin (require '()) 'ok)").name == "ok"


def test_exhausted_requirement_returns_no_more_choices(machine):
    assert ev(machine, "(let ((x (choose 1 2))) (require (> x 5)) x)") == \
        NO_MORE_CHOICES


def test_define_with_choose_and_require(machine):
    assert ev(machine,
              "(begin (define x (choose 1 2)) (require (> x 1)) x)") == 2


def test_nested_choose_depth_first_order(machine):
    values = exhaust_choices(machine, "(choose (choose 'a 'b) 'c)")
    assert [v.name for v in values] == ["a", "b", "c"]


def test_two_variable_enumeration_order(machine):
    values = exhaust_choices(
        machine, "(let ((x (choose 1 2)) (y (choose 'a 'b))) (list x y))")
    assert [write_value(v) for v in values] == [
        "(1 a)", "(1 b)", "(2 a)", "(2 b)"]


def test_fail_restores_environment_of_choice_point(machine):
    program = """
    (let ((x (choose 1 2 3)))
      (let ((doubled (* x 2)))
        (require (> doubled 4))
        (list x doubled)))
    """
    assert write_value(ev(machine, program)) == "(3 6)"


def test_choose_after_exhaustion_stays_exhausted(machine):
    ev(machine, "(choose 1)")
    assert ev(machine, "(choose)") == NO_MORE_CHOICES
    assert ev(machine, "(choose)") == NO_MORE_CHOICES


def test_new_choose_resets_the_game(machine):
    exhaust_choices(machine, "(choose 1 2)")
    assert ev(machine, "(choose 'x 'y)").name == "x"
    assert ev(machine, "(choose)").name == "y"


def test_failed_top_level_form_restores_fail_chain(machine):
    ev(machine, "(choose 1 2)")
    saved = machine.fail_reg
    with pytest.raises(Exception):
        ev(machine, "(begin (choose 10 20) (car 5))")
    assert machine.fail_reg is saved
    assert ev(machine, "(choose)") == 2


def test_trace_stack_restored_across_backtracking(machine):
    program = """
    (define picky
      (lambda ()
        (let ((x (choose 1 2)))
          (require (> x 1))
          x)))
    """
    ev(machine, program)
    assert ev(machine, "(picky)") == 2
    assert machine.trace.spine is None


DEEP_BRANCH_PROGRAM = """
(define descend
  (lambda (m) (if (= m 0) (require #f) (+ 1 (descend (- m 1))))))
(define pick (lambda (m) (choose (descend m) (car 'boom))))
(define wrap
  (lambda (n m) (if (= n 0) (pick m) (+ 1 (wrap (- n 1) m)))))
"""


@pytest.mark.parametrize("stack_trace", [True, False])
def test_error_after_deeper_failed_branch_reports_choice_point_frames(
        machine, stack_trace):
    n, m = 30, 50
    ev(machine, DEEP_BRANCH_PROGRAM)
    if not stack_trace:
        ev(machine, "(use-stack-trace #f)")
    machine.trace.high_water = 0
    with pytest.raises(EvalError) as excinfo:
        ev(machine, f"(wrap {n} {m})")
    frames = excinfo.value.frames
    if not stack_trace:
        assert frames == ()
        assert machine.trace.high_water == 0
        return
    # the N pending wrap calls, then pick, which replaced (wrap 0) by a
    # tail call; none of the descend frames of the failed branch
    assert [f[0] for f in frames] == ["wrap"] * n + ["pick"]
    assert [f[1][0] for f in frames[:n]] == list(range(n, 0, -1))
    assert n + m <= machine.trace.high_water <= n + m + 2


def test_map_coloring_matches_brute_force_oracle(machine):
    ev(machine, COLOR_EUROPE_PROGRAM)
    produced = exhaust_choices(machine, "(color-europe)")
    expected = coloring_solutions()
    assert len(produced) == len(expected)
    for value, combo in zip(produced, expected):
        assert write_value(value) == coloring_text(combo)


def test_random_generate_and_test_against_enumerator(machine):
    rng = random.Random(2024)
    for _ in range(30):
        program, expected = gen_search_program(rng)
        produced = exhaust_choices(machine, program)
        assert [write_value(v) for v in produced] == \
            [combo_text(c) for c in expected], program


# Each binder opens frames around the rest of the program: (text, frames).
_BINDERS = {
    "let": ("(let (({v} {e})) {rest})", 1),
    "let*": ("(let* (({v} {e})) {rest})", 2),
    "lambda": ("((lambda ({v}) {rest}) {e})", 1),
    "define": ("((lambda () (define {v} {e}) {rest}))", 1),
}


@st.composite
def nested_search_programs(draw):
    """A generate-and-test program whose variables are bound by nested
    binders, with padding frames between them, so the final requires and
    list read them 0-3 frames out; plus its expected solutions."""
    rng = draw(st.randoms(use_true_random=False))
    nvars = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(sorted(_BINDERS)),
                          min_size=nvars, max_size=nvars))
    pads = draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars))
    trees = [gen_choose_tree(rng, rng.randint(1, 3)) for _ in range(nvars)]
    predicates = [gen_predicate(rng, nvars) for _ in range(rng.randint(1, 3))]
    listing = " ".join(f"x{i}" for i in range(nvars))
    text = " ".join(f"(require {p})" for p, _ in predicates)
    text += f" (list {listing})"
    depth = 0
    depths = []
    for i in reversed(range(nvars)):
        for _ in range(pads[i]):
            text = f"(let ((pad {i})) {text})"
        template, frames = _BINDERS[kinds[i]]
        depths.append(depth + pads[i] + frames - 1)
        depth += pads[i] + frames
        text = template.format(v=f"x{i}", e=tree_text(trees[i]), rest=text)
    assume(max(depths) <= 3)
    leaves = [tree_leaves(t) for t in trees]
    expected = [combo for combo in product(*leaves)
                if all(check(combo) for _, check in predicates)]
    return text, expected


@settings(max_examples=150, deadline=None)
@given(nested_search_programs())
def test_nested_scopes_against_enumerator(program):
    text, expected = program
    produced = exhaust_choices(Machine(stdout=io.StringIO()), text)
    assert [write_value(v) for v in produced] == \
        [combo_text(c) for c in expected], text


# --- require as an ordinary primitive ---------------------------------------
# `require` is computed inline wherever its operand is; a false value unwinds
# whatever was evaluating it back to the trampoline, which resumes the most
# recent choice point.


def test_require_as_non_final_form_of_a_top_level_begin(machine):
    assert ev(machine,
              "(begin (define x (choose 1 2 3)) (require (> x 2)) x)") == 3


def test_require_as_non_final_form_of_a_closure_body(machine):
    ev(machine, "(define keep (lambda (x) (require (> x 1)) (require #t) x))")
    assert ev(machine, "(keep (choose 1 2 3))") == 2
    assert ev(machine, "(choose)") == 3
    assert ev(machine, "(choose)") == NO_MORE_CHOICES


def test_require_as_if_test(machine):
    program = "(let ((x (choose 1 2))) (if (require (> x 1)) x 'no))"
    assert ev(machine, program) == 2


def test_require_as_define_value(machine):
    program = "(let ((x (choose 1 2 3))) (define r (require (> x 2))) x)"
    assert ev(machine, program) == 3


def test_require_as_operand_of_a_marked_application(machine):
    assert ev(machine, "(cadr (list (require #t) 1))") == 1
    program = "(let ((x (choose 1 2 3))) (cadr (list (require (> x 1)) x)))"
    assert ev(machine, program) == 2


def test_require_through_apply_and_map(machine):
    program = "(let ((x (choose 1 2))) (apply require (list (> x 1))) x)"
    assert ev(machine, program) == 2
    assert ev(machine, "(apply require '(#f))") == NO_MORE_CHOICES
    program = "(let ((x (choose 1 2 3))) (map require (list #t (> x 2))) x)"
    assert ev(machine, program) == 3


def test_rebound_require_is_seen(machine):
    ev(machine, "(define early (lambda () (require #f)))")
    ev(machine, "(define require (lambda (x) 'mine))")
    assert ev(machine, "(require #f)").name == "mine"
    assert ev(machine, "(early)").name == "mine"


def test_effects_before_a_failing_require_happen_once_per_attempt(machine):
    result = ev(machine, "(begin (choose 1 2 3) (display \"a\") (require #f))")
    assert result == NO_MORE_CHOICES
    assert machine.stdout.getvalue() == "aaa"


def test_top_level_require_false_without_choice_points(machine):
    # computed inline, nested inline and in a body: never an exception
    for program in ("(require #f)", "(car (list (require #f)))",
                    "((lambda () (require #f) 1))"):
        assert ev(machine, program) == NO_MORE_CHOICES, program
        assert machine.fail_reg is TERMINAL_FAIL
        assert machine.pc is None
    assert ev(machine, "(+ 1 2)") == 3
    assert ev(machine, "(let ((x (choose 1 2))) (require (> x 1)) x)") == 2


def test_long_body_of_requires_on_a_small_stack():
    body = " ".join(["(require #t)"] * 5000)

    def work():
        m = Machine(stdout=io.StringIO())
        lam = m.eval_source(f"((lambda () {body} 'done))")
        top = m.eval_source(f"(begin {body} 'done)")
        return lam.name, top.name

    assert run_on_small_stack(work) == ("done", "done")


def test_exhausting_a_wide_choose_takes_linear_time():
    # each resumption takes the next alternative by index, so eight times
    # the alternatives take about eight times as long
    machine = Machine(stdout=io.StringIO())
    for width in (1000, 8000):
        alternatives = " ".join(map(str, range(width)))
        ev(machine, f"(define run-{width} (lambda () (let ((x (choose "
                    f"{alternatives}))) (require (< x 0)) x)))")

    def run(width):
        assert ev(machine, f"(run-{width})") == NO_MORE_CHOICES

    assert scaling_ratio(run, 1000, 8000, 10) <= 10
