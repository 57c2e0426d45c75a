"""ambit: a Scheme interpreter built as a trampolined register machine.

Continuations are first-class data, tail calls run in constant control
space, and `choose`/`require` provide chronological backtracking.  Embed it
by creating a Machine and feeding it source text:

    from ambit import Machine
    m = Machine()
    m.eval_source("(define f (lambda (n) (* n n)))")
    m.eval_source("(f 7)")   # => 49
"""

from .errors import (
    EvalError, FormError, LexError, MacroError, ParseError, SchemeError,
)
from .machine import Machine, NO_MORE_CHOICES
from .reader import read_all
from .values import NIL, VOID, Pair, Symbol, equal, intern
from .writer import display_value, write_value

__version__ = "0.1.0"

__all__ = [
    "EvalError",
    "FormError",
    "LexError",
    "Machine",
    "MacroError",
    "NIL",
    "NO_MORE_CHOICES",
    "Pair",
    "ParseError",
    "SchemeError",
    "Symbol",
    "VOID",
    "display_value",
    "equal",
    "intern",
    "read_all",
    "write_value",
]
