"""Interactive REPL, file runner, and one-shot expression evaluator.

Prompts go to stderr so piped stdout stays clean.  Results print with write
semantics, except top-level strings which display bare (matching how the
"no more choices" result reads at the REPL).  Exit codes: 0 success,
1 evaluation error, 2 usage error.
"""

import argparse
import sys

from . import __version__
from .errors import LexError, ParseError, SchemeError
from .machine import Machine
from .reader import EntryReader, read_all
from .trace import render_traceback
from .values import VOID
from .writer import write_value

PROMPT = "==> "
CONT_PROMPT = "... "


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="ambit",
        description="Scheme interpreter with first-class continuations and "
                    "choose/require backtracking.")
    parser.add_argument("file", nargs="?", default=None,
                        help="Scheme source file to run")
    parser.add_argument("-e", "--eval", dest="expr", metavar="EXPR",
                        default=None, help="evaluate EXPR and print the result")
    parser.add_argument("--no-stack-trace", action="store_true",
                        help="start with stack tracing disabled")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    args = parser.parse_args(argv)
    if args.expr is not None and args.file is not None:
        parser.error("cannot combine -e with a file argument")
    return args


def _print_result(value, out):
    if value is VOID:
        return
    if type(value) is str:
        out.write(value + "\n")
    else:
        out.write(write_value(value) + "\n")
    out.flush()


def _report_error(err, errout):
    errout.write(render_traceback(None, err) + "\n")
    errout.flush()


def repl_loop(machine, stdin=None, stdout=None, stderr=None):
    """Read balanced datums (multi-line aware), evaluate, print, repeat.

    Each line is read once, as it arrives; the datums of an entry are
    evaluated when its last line closes them all.  Errors print a traceback
    and the loop continues, and Ctrl-C at the prompt drops the entry being
    typed; EOF ends the session.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    entry = EntryReader()
    while True:
        stderr.write(PROMPT if not entry.lines else CONT_PROMPT)
        stderr.flush()
        try:
            line = stdin.readline()
        except KeyboardInterrupt:
            stderr.write("KeyboardInterrupt\n")
            entry = EntryReader()
            continue
        if line == "":
            if entry.lines:
                _report_error(entry.eof_error(), stderr)
            break
        try:
            datums = entry.feed_line(line)
        except (LexError, ParseError) as err:
            _report_error(err, stderr)
            continue
        if datums is None:
            continue
        for datum in datums:
            try:
                value = machine.eval_top(datum, "<stdin>")
            except SchemeError as err:
                _report_error(err, stderr)
                break
            _print_result(value, stdout)
    return 0


def run_file(machine, path, stderr=None):
    stderr = stderr if stderr is not None else sys.stderr
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        stderr.write(f"ambit: cannot read {path}: {err.strerror}\n")
        return 1
    try:
        machine.eval_source(text, path)
    except SchemeError as err:
        _report_error(err, stderr)
        return 1
    return 0


def eval_string(machine, text, stdout=None, stderr=None):
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        for datum in read_all(text):
            _print_result(machine.eval_top(datum, "<string>"), stdout)
    except SchemeError as err:
        _report_error(err, stderr)
        return 1
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    machine = Machine(stack_trace=not args.no_stack_trace)
    if args.file is not None:
        return run_file(machine, args.file)
    if args.expr is not None:
        return eval_string(machine, args.expr)
    return repl_loop(machine)


if __name__ == "__main__":
    sys.exit(main())
