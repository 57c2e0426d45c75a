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
    assert parse_args([]).mode == "repl"
    config = parse_args(["program.scm"])
    assert config.mode == "run-file" and config.path == "program.scm"
    config = parse_args(["-e", "(+ 1 2)"])
    assert config.mode == "eval-string" and config.expr == "(+ 1 2)"
    assert parse_args([]).stack_trace is True
    assert parse_args(["--no-stack-trace"]).stack_trace is False


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
    assert len(machine.trace.frames) == 0
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
