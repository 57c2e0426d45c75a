import io

import pytest

from helpers import COLOR_EUROPE_PROGRAM, SUM_PROGRAM, coloring_solutions, coloring_text

from ambit import Machine, intern
from ambit.cli import eval_string, main, parse_args, repl_loop, run_file
from ambit.values import Primitive


def run_repl(input_text, stack_trace=True):
    stdout, stderr = io.StringIO(), io.StringIO()
    machine = Machine(stdout=stdout, stack_trace=stack_trace)
    code = repl_loop(machine, stdin=io.StringIO(input_text),
                     stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def test_parse_args_modes():
    args = parse_args([])
    assert args.file is None and args.expr is None
    assert args.no_stack_trace is False
    args = parse_args(["program.scm"])
    assert args.file == "program.scm" and args.expr is None
    args = parse_args(["-e", "(+ 1 2)"])
    assert args.file is None and args.expr == "(+ 1 2)"
    assert parse_args(["--no-stack-trace"]).no_stack_trace is True


def test_parse_args_rejects_unknown_flag():
    with pytest.raises(SystemExit) as excinfo:
        parse_args(["--badflag"])
    assert excinfo.value.code == 2


def test_parse_args_rejects_eval_plus_file():
    with pytest.raises(SystemExit) as excinfo:
        parse_args(["-e", "1", "file.scm"])
    assert excinfo.value.code == 2


def test_parse_args_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse_args(["--help"])
    assert excinfo.value.code == 0
    assert "ambit" in capsys.readouterr().out


def test_eval_string_prints_result():
    stdout, stderr = io.StringIO(), io.StringIO()
    machine = Machine(stdout=stdout)
    assert eval_string(machine, "(+ 1 2)", stdout, stderr) == 0
    assert stdout.getvalue() == "3\n"


def test_eval_string_error_exits_one():
    stdout, stderr = io.StringIO(), io.StringIO()
    machine = Machine(stdout=stdout, stack_trace=False)
    assert eval_string(machine, "(car '())", stdout, stderr) == 1
    assert "car" in stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()


def test_main_eval_mode(capsys):
    assert main(["-e", "(+ 1 2)"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_repl_prints_results_on_stdout_prompts_on_stderr():
    code, out, err = run_repl("(+ 1 2)\n")
    assert code == 0
    assert out == "3\n"
    assert err.startswith("==> ")


def test_repl_session_defines_persist():
    code, out, _ = run_repl("(define f (lambda (n) (* n n)))\n(f 3)\n")
    assert out == "9\n"


def test_repl_sum_session():
    code, out, _ = run_repl(SUM_PROGRAM + "\n(sum 100)\n")
    assert out == "5050\n"


def test_repl_void_prints_nothing():
    code, out, _ = run_repl("(define x 1)\n(if #f #f)\n")
    assert out == ""


def test_repl_strings_display_bare():
    code, out, _ = run_repl('"no more choices"\n(choose)\n')
    assert out == "no more choices\nno more choices\n"


def test_repl_multiline_datum():
    code, out, err = run_repl("(+ 1\n2)\n")
    assert out == "3\n"
    assert "... " in err


def test_repl_error_keeps_session_alive():
    code, out, err = run_repl("(car '())\n(+ 1 1)\n")
    assert code == 0
    assert out == "2\n"
    assert "car" in err


def test_repl_parse_error_reported_and_recovered():
    code, out, err = run_repl("(a]\n(+ 1 1)\n")
    assert out == "2\n"
    assert "ParseError" in err


def test_repl_choose_reenters_previous_computation():
    inputs = "(choose 1 2 3)\n(choose)\n(choose)\n(choose)\n"
    code, out, _ = run_repl(inputs)
    assert out == "1\n2\n3\nno more choices\n"


def test_repl_transcript_matches_published_solutions():
    inputs = COLOR_EUROPE_PROGRAM + "\n(color-europe)\n(choose)\n(choose)\n"
    code, out, _ = run_repl(inputs)
    expected = [coloring_text(c) for c in coloring_solutions()[:3]]
    assert out.splitlines() == expected


def test_run_file_executes_and_exits_zero(tmp_path):
    path = tmp_path / "program.scm"
    path.write_text(COLOR_EUROPE_PROGRAM + "\n(display (color-europe))\n",
                    encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    machine = Machine(stdout=stdout)
    assert run_file(machine, str(path), stderr) == 0
    assert stdout.getvalue() == coloring_text(coloring_solutions()[0])


def test_run_file_error_exits_one(tmp_path):
    path = tmp_path / "bad.scm"
    path.write_text("(car '())\n", encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    machine = Machine(stdout=stdout)
    assert run_file(machine, str(path), stderr) == 1
    assert "car" in stderr.getvalue()


def test_run_file_empty_file(tmp_path):
    path = tmp_path / "empty.scm"
    path.write_text("", encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    machine = Machine(stdout=stdout)
    assert run_file(machine, str(path), stderr) == 0
    assert stdout.getvalue() == ""


def test_run_file_missing_file():
    stderr = io.StringIO()
    machine = Machine(stdout=io.StringIO())
    assert run_file(machine, "/definitely/not/here.scm", stderr) == 1
    assert "cannot read" in stderr.getvalue()


def test_no_stack_trace_flag_equivalent_to_boot_toggle(capsys):
    assert main(["--no-stack-trace", "-e", "(car '())"]) == 1
    err = capsys.readouterr().err
    assert "car" in err
    assert "Traceback" not in err


def test_repl_error_resilience_no_frame_leak():
    inputs = "".join("(car '())\n" for _ in range(1000)) + "(+ 2 2)\n"
    stdout, stderr = io.StringIO(), io.StringIO()
    machine = Machine(stdout=stdout)
    repl_loop(machine, stdin=io.StringIO(inputs), stdout=stdout, stderr=stderr)
    assert machine.trace.spine is None
    assert stdout.getvalue() == "4\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse_args(["--version"])
    assert excinfo.value.code == 0
    assert "ambit" in capsys.readouterr().out


def test_repl_string_literal_spanning_lines():
    code, out, err = run_repl('(string-length "a (\n; b")\n(+ 1 1)\n')
    assert out == "7\n2\n"
    assert err == "==> ... ==> ==> "


def test_repl_reports_a_bad_line_at_once_and_goes_on():
    code, out, err = run_repl("(a . b c\n(+ 1 2)\n")
    assert out == "3\n"
    assert err == ("==> ParseError: expected a single datum after '.'\n"
                   "==> ==> ")


def test_repl_survives_a_host_recursion_error():
    deep = "(+ " * 3000 + "1" + ")" * 3000
    code, out, err = run_repl(deep + "\n(+ 1 2)\n")
    assert code == 0
    assert out == "3\n"
    assert "InternalError: RecursionError" in err


def test_repl_survives_ctrl_c_and_keeps_the_fail_chain():
    def interrupt(m, args):
        raise KeyboardInterrupt

    stdout, stderr = io.StringIO(), io.StringIO()
    machine = Machine(stdout=stdout)
    machine.globals[intern("interrupt")] = Primitive("interrupt", interrupt,
                                                     0, 0)
    repl_loop(machine, stdin=io.StringIO(
        "(choose 1 2 3)\n(define f (lambda (x) (+ x (interrupt))))\n"
        "(f 1)\n(choose)\n(+ 1 2)\n"), stdout=stdout, stderr=stderr)
    assert stdout.getvalue() == "1\n2\n3\n"
    assert "Interrupted: evaluation stopped" in stderr.getvalue()
    assert stderr.getvalue().endswith("==> ==> ==> ")
    assert machine.trace.spine is None and machine.pc is None


@pytest.mark.parametrize("exception, error_line", [
    (KeyboardInterrupt, "Interrupted: evaluation stopped"),
    (RuntimeError("no disk"), "InternalError: RuntimeError: no disk"),
], ids=["ctrl-c", "host-error"])
def test_repl_host_exception_mid_evaluation_shows_the_pending_frames(
        exception, error_line):
    def explode(m, args):
        raise exception

    stdout, stderr = io.StringIO(), io.StringIO()
    machine = Machine(stdout=stdout)
    machine.globals[intern("explode")] = Primitive("explode", explode, 0, 0)
    repl_loop(machine, stdin=io.StringIO(
        "(choose 1 2)\n(define f (lambda (x) (+ x (explode))))\n"
        "(define g (lambda (x) (* 2 (f x))))\n(g 1)\n(choose)\n"),
        stdout=stdout, stderr=stderr)
    assert stdout.getvalue() == "1\n2\n"
    assert stderr.getvalue() == (
        "==> ==> ==> ==> Traceback (most recent call last):\n"
        '  File "<stdin>", line 1, col 1, in (g 1)\n'
        '  File "<stdin>", line 1, col 28, in (f 1)\n'
        f"{error_line}\n==> ==> ")
    assert machine.trace.spine is None and machine.pc is None


class InterruptedStdin:
    """stdin whose readline gives each item in turn, raising KeyboardInterrupt
    where the item is None, then EOF."""

    def __init__(self, items):
        self.items = list(items)

    def readline(self):
        if not self.items:
            return ""
        item = self.items.pop(0)
        if item is None:
            raise KeyboardInterrupt
        return item


def test_repl_ctrl_c_at_the_prompt_drops_the_entry_and_goes_on():
    stdout, stderr = io.StringIO(), io.StringIO()
    machine = Machine(stdout=stdout)
    stdin = InterruptedStdin(
        ["(choose 1 2 3)\n", "(+ 1\n", None, "(choose)\n", "(+ 1 2)\n"])
    assert repl_loop(machine, stdin, stdout, stderr) == 0
    assert stdout.getvalue() == "1\n2\n3\n"
    assert stderr.getvalue() == "==> ==> ... KeyboardInterrupt\n==> ==> ==> "


def test_repl_reports_an_entry_left_open_at_end_of_input():
    code, out, err = run_repl('(+ 1\n  "a')
    assert code == 0 and out == ""
    assert err == "==> ... ... LexError: unterminated string literal\n"


_LOOP = ("(define loop (lambda (n) (if (= n 0) (void) "
         "(begin (f n) (loop (- n 1)))))) (loop 3000)")
_NESTED_IFS = ("(define f (lambda (x) " + "(if (< x 1000) " * 200 + "x"
               + " 0)" * 200 + ")) " + _LOOP + " (f 1)")

# (argv, stdin, stdout, last stderr line, exit code) for one `ambit` run
CONSOLE_CASES = [
    pytest.param(["-e", "(+ 1 2)"], None, "3", "", 0, id="sum"),
    # goes through the built-in `let`
    pytest.param(["-e", "(let ((x 1)) (+ x 1))"], None, "2", "", 0,
                 id="let"),
    # a quasiquote template spelt out, as backticks would be shell syntax
    pytest.param(["-e", "(let ((x 1)) (quasiquote (a (unquote x) "
                  "(unquote-splicing (list 2 3)))))"], None, "(a 1 2 3)",
                 "", 0, id="quasiquote"),
    pytest.param(["-e", "(let ((x (choose 1 2 3))) (require (> x 1)) x)"],
                 None, "2", "", 0, id="choose-require"),
    # calls a name the let family was once built from
    pytest.param(["-e", "(define let-build (lambda (x) (* x 2))) "
                  "(let-build 21)"], None, "42", "", 0, id="let-build"),
    pytest.param(["-e", "(letrec ((ev? (lambda (n) (if (= n 0) #t "
                  "(od? (- n 1))))) (od? (lambda (n) (if (= n 0) #f "
                  "(ev? (- n 1)))))) (list (ev? 10) (od? 7)))"], None,
                 "(#t #t)", "", 0, id="letrec"),
    # `+` redefined after a body that uses it was parsed
    pytest.param(["-e", "(define f (lambda (x) (+ x 1))) (define + -) "
                  "(f 5)"], None, "4", "", 0, id="redefine-plus"),
    # `require` redefined after a body that uses it was parsed
    pytest.param(["-e", "(define g (lambda (x) (require x) (quote ok))) "
                  "(define require (lambda (x) #t)) (g #f)"], None, "ok",
                 "", 0, id="redefine-require"),
    # `(+ x 1)` made hot enough to be compiled before `+` is redefined
    pytest.param(["-e", "(define f (lambda (x) (+ x 1))) " + _LOOP
                  + " (define + -) (f 5)"], None, "4", "", 0,
                 id="redefine-plus-hot"),
    # a hot body whose call to `g` rebinds `+` midway, so its `+` must be
    # looked up again after the call
    pytest.param(["-e", "(define plus +) (define g (lambda () (set! + -))) "
                  "(define f (lambda (x) (set! + plus) (g) (+ x 1))) "
                  + _LOOP + " (f 5)"], None, "4", "", 0,
                 id="rebind-plus-midway"),
    # a hot body of 200 nested ifs, deeper than Python nests blocks
    pytest.param(["-e", _NESTED_IFS], None, "1", "", 0, id="nested-ifs"),
    # a hot `(member x (list 1 x))` is compiled as a scan; once `list` is
    # redefined, the call must fail as the stepped path fails
    pytest.param(["-e", "(define f (lambda (x) (member x (list 1 x)))) "
                  + _LOOP + " (define list vector) (f 5)"], None, "",
                 "member: expected a proper list, got #(1 5)", 1,
                 id="member-scan-list-redefined"),
    # a hot body whose first form is a body `define` that calls `g`, so its
    # `(+ y 1)` runs on the stepped path and must see `+` redefined
    pytest.param(["-e", "(define g (lambda (x) x)) (define f (lambda (x) "
                  "(define y (g x)) (+ y 1))) " + _LOOP
                  + " (define + -) (f 5)"], None, "4", "", 0,
                 id="body-define-stepped"),
    # reads back the way infinity is written
    pytest.param(["-e", "(string->number (number->string (/ 1.0 0)))"],
                 None, "+inf.0", "", 0, id="infinity"),
    pytest.param(["-e", "(procedure? call/cc)"], None, "#t", "", 0,
                 id="callcc-is-procedure"),
    # a hot body whose `and` is compiled, then `car` redefined, which the
    # compiled `and` must see
    pytest.param(["-e", "(define f (lambda (x) (and (pair? x) (car x)))) "
                  "(define loop (lambda (n) (if (= n 0) (void) (begin "
                  "(f (list n)) (loop (- n 1)))))) (loop 3000) "
                  "(define car cdr) (f (list 1 2))"], None, "(2)", "", 0,
                 id="compiled-and-car-redefined"),
    pytest.param(["-e", '(string->number "-nan.0")'], None, "+nan.0", "", 0,
                 id="nan"),
    # both spellings of call/cc are one procedure
    pytest.param(["-e", "(eq? call/cc call-with-current-continuation)"],
                 None, "#t", "", 0, id="callcc-spellings"),
    # the REPL reads a string literal that spans lines and holds `;` and `)`
    pytest.param([], '(string-length "a\n;b)")\n', "5", "==> ... ==> ", 0,
                 id="repl-string-spans-lines"),
    # an anonymous lambda with a rest parameter applied to too few
    # arguments through `apply`: one ArityError message for every procedure
    pytest.param(["-e", "(apply (lambda (x . r) x) (list))"], None, "",
                 "ArityError: #<procedure>: expected at least 1 argument(s), "
                 "got 0", 1, id="apply-arity"),
    # a decimal written with no digit before its point
    pytest.param(["-e", "(+ .5 1)"], None, "1.5", "", 0, id="leading-point"),
    # a body's statement `require` fails and resumes the choice point in a
    # cold body, which raises `Backtrack`...
    pytest.param(["-e", "(define g (lambda (x) (require (> x 0)) x)) "
                  "(g (choose 0 0 5))"], None, "5", "", 0,
                 id="require-statement-cold"),
    # ...and in one a 3,000-call loop has made hot, whose compiled code
    # resumes it without raising
    pytest.param(["-e", "(define g (lambda (x) (require (> x 0)) x)) "
                  "(define loop (lambda (n) (if (= n 0) (void) (begin "
                  "(g n) (loop (- n 1)))))) (loop 3000) (g (choose 0 0 5))"],
                 None, "5", "", 0, id="require-statement-hot"),
    # a self tail loop of 5,000 turns, compiled on its 1,000th entry at the
    # default threshold, whose later turns jump back to the compiled body
    pytest.param(["-e", "(define f (lambda (n acc) (if (= n 0) acc "
                  "(f (- n 1) (+ acc 1))))) (f 5000 0)"], None, "5000", "", 0,
                 id="self-tail-loop"),
    # one name bound twice in a `letrec` is a syntax error, as under `let`
    pytest.param(["-e", "(letrec ((x 1) (x 2)) x)"], None, "",
                 "SyntaxError: malformed letrec: (letrec ((x 1) (x 2)) x)", 1,
                 id="letrec-duplicate"),
    # with `--no-stack-trace` a failing call prints the error line alone
    pytest.param(["--no-stack-trace", "-e",
                  "(define f (lambda (x) (car x))) (f 1)"], None, "",
                 "car: expected a pair, got 1", 1, id="no-stack-trace"),
]


@pytest.mark.parametrize("argv, stdin, out, err, code", CONSOLE_CASES)
def test_console_entry_point(argv, stdin, out, err, code, capsys,
                             monkeypatch):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out.rstrip("\n") == out
    assert (captured.err.splitlines() or [""])[-1] == err
    if "--no-stack-trace" in argv:
        assert captured.err == err + "\n"
