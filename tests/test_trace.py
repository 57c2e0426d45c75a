import pytest

from helpers import BUGGY_FACT, EVEN_ODD_PROGRAM, run_on_small_stack

from ambit import Machine, read_all
from ambit.errors import EvalError, SchemeError
from ambit.trace import frame_call_text, render_traceback, truncate_text


def run_buggy_fact(machine, call="(fact 3)"):
    machine.eval_source(BUGGY_FACT)
    with pytest.raises(SchemeError) as excinfo:
        machine.eval_source(call, source="<stdin>")
    return excinfo.value


def test_buggy_fact_leaves_one_frame_per_pending_call(machine):
    err = run_buggy_fact(machine)
    assert err.error_line() == "UnboundVariable: q"
    assert len(err.frames) == 4
    assert [frame[0] for frame in err.frames] == ["fact"] * 4
    assert [frame[1] for frame in err.frames] == [(3,), (2,), (1,), (0,)]


def test_disabled_tracing_collects_no_frames(quiet_machine):
    err = run_buggy_fact(quiet_machine)
    assert err.frames == ()


def test_tail_calls_replace_frames(machine):
    machine.eval_source(EVEN_ODD_PROGRAM)
    machine.trace.high_water = 0
    machine.eval_source("(even? 100000)")
    assert machine.trace.high_water <= 2
    assert machine.trace.spine is None


def test_trace_stack_balanced_after_success(machine):
    machine.eval_source("(define f (lambda (n) (if (= n 0) 'done (f (- n 1)))))")
    machine.eval_source("(f 50)")
    assert machine.trace.spine is None


def test_toggle_mid_computation_stops_pushes(machine):
    machine.eval_source("""
        (define probe
          (lambda ()
            (use-stack-trace #f)
            (oops)))
    """)
    with pytest.raises(EvalError) as excinfo:
        machine.eval_source("(probe)")
    # the probe frame predates the toggle and is retained; nothing new
    # was pushed after it
    assert [f[0] for f in excinfo.value.frames] == ["probe"]
    machine.trace.config.enabled = True


def test_reenabling_resumes_frames(machine):
    machine.eval_source("(use-stack-trace #f)")
    machine.eval_source("(use-stack-trace #t)")
    err = run_buggy_fact(machine)
    assert len(err.frames) == 4


def test_zero_cost_when_disabled(quiet_machine):
    quiet_machine.eval_source(EVEN_ODD_PROGRAM)
    quiet_machine.eval_source("(even? 1000)")
    assert quiet_machine.trace.high_water == 0
    assert quiet_machine.trace.spine is None


def test_render_traceback_with_location():
    frames = [("fact", (3,), 2, 1, "<stdin>")]
    err = EvalError("UnboundVariable", "q")
    text = render_traceback(frames, err)
    assert text == ("Traceback (most recent call last):\n"
                    '  File "<stdin>", line 2, col 1, in (fact 3)\n'
                    "UnboundVariable: q")


def test_render_traceback_without_frames():
    err = EvalError("UnboundVariable", "q")
    assert render_traceback((), err) == "UnboundVariable: q"


def test_render_traceback_without_location():
    frames = [("f", (), None, None, None)]
    err = EvalError("E", "m")
    assert render_traceback(frames, err) == (
        "Traceback (most recent call last):\n  In (f)\nE: m")


def test_render_traceback_truncates_to_max_frames():
    frames = [("f", (i,), 1, 1, "<x>") for i in range(10_000)]
    err = EvalError("E", "boom")
    text = render_traceback(frames, err, max_frames=40)
    lines = text.split("\n")
    assert lines[1] == "  [9960 frames elided]"
    assert len(lines) == 43
    assert "(f 9999)" in lines[-2]


def test_argument_rendering_truncates_to_60_chars(machine):
    machine.eval_source(
        "(define f (lambda (x) (explode)))")
    with pytest.raises(EvalError) as excinfo:
        machine.eval_source("(f '(aaaaaaaaaa bbbbbbbbbb cccccccccc "
                            "dddddddddd eeeeeeeeee ffffffffff))")
    frame = excinfo.value.frames[-1]
    call = frame_call_text(frame)
    assert call.startswith("(f (aaaaaaaaaa ") and call.endswith("...)")
    rendered = call[len("(f "):-1]
    assert len(rendered) == 60
    assert f"in {call}" in render_traceback([frame], excinfo.value)


def test_truncate_text_helper():
    assert truncate_text("short") == "short"
    long = "x" * 100
    assert truncate_text(long) == "x" * 57 + "..."


def test_errors_during_repl_like_session_leak_no_frames(machine):
    machine.eval_source(BUGGY_FACT)
    for _ in range(1000):
        with pytest.raises(SchemeError):
            machine.eval_source("(fact 2)")
        assert machine.trace.spine is None


def test_frame_locations_point_at_call_sites(machine):
    source = ("(define g (lambda (n) (+ 1 (h n))))\n"
              "(define h (lambda (n) (car n)))")
    machine.eval_source(source, source="<lib>")
    with pytest.raises(EvalError) as excinfo:
        machine.eval_source("(g 1)", source="<stdin>")
    outer, inner = excinfo.value.frames
    assert outer[4] == "<stdin>" and (outer[2], outer[3]) == (1, 1)
    assert inner[4] == "<lib>"
    assert (inner[2], inner[3]) == (1, 28)


def test_tail_call_frame_replaces_caller(machine):
    source = ("(define g (lambda (n) (h n)))\n"
              "(define h (lambda (n) (car n)))")
    machine.eval_source(source, source="<lib>")
    with pytest.raises(EvalError) as excinfo:
        machine.eval_source("(g 1)", source="<stdin>")
    assert [f[0] for f in excinfo.value.frames] == ["h"]


def test_error_inside_map_includes_map_frame(machine):
    with pytest.raises(EvalError) as excinfo:
        machine.eval_source("(map (lambda (x) (car x)) '(1 2))")
    labels = [f[0] for f in excinfo.value.frames]
    assert "map" in labels


CALLCC_REENTRY_PROGRAM = """
(define saved #f)
(define inner (lambda (x) (+ (call/cc (lambda (k) (set! saved k) 1)) x)))
(define outer (lambda (x) (+ 0 (inner x))))
(define h (lambda (v) (+ 0 (saved v))))
(define g (lambda (v) (+ 0 (h v))))
"""


def test_reentered_continuation_reports_frames_where_it_was_captured(machine):
    machine.eval_source(CALLCC_REENTRY_PROGRAM)
    assert machine.eval_source("(outer 1)") == 2
    with pytest.raises(EvalError) as excinfo:
        machine.eval_source("(g 'oops)")
    err = excinfo.value
    assert err.error_line() == "+: expected a number, got oops"
    assert [(f[0], f[1]) for f in err.frames] == [("outer", (1,)),
                                                  ("inner", (1,))]


def test_deep_traceback_renders_from_the_spine_without_copying_it(machine):
    machine.eval_source("(define f (lambda (n) "
                        "(if (= n 0) (car 0) (+ 1 (f (- n 1))))))")

    def work():
        with pytest.raises(EvalError) as excinfo:
            machine.eval_source("(f 100000)")
        return excinfo.value

    err = run_on_small_stack(work)
    text = render_traceback(None, err, 40)
    lines = text.split("\n")
    assert lines[1] == "  [99961 frames elided]"
    assert len(lines) == 43
    assert lines[2].endswith("in (f 39)") and lines[-2].endswith("in (f 0)")
    assert err._frames is None  # rendering walked 40 nodes, copied none
    assert len(err.frames) == 100_001
    assert render_traceback(err.frames, err, 40) == text
