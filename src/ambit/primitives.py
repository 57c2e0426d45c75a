"""Built-in procedures plus the boot definitions evaluated at startup.

Most primitives compute a value directly.  `apply` and `call/cc` are the
control primitives: they receive the current continuation and steer the
machine themselves.  `require` is ordinary: on a false value it raises the
machine's `Backtrack`, which the trampoline turns into a jump to the most
recent choice point, so it may be computed inline like any pure primitive.
`map` and `for-each` are defined in Scheme at boot so they behave like
ordinary closures, with real application frames and proper tail behavior.
"""

import math

from .errors import EvalError
from .machine import Backtrack, apply_proc
from .reader import _INF_NAN, _INT_RE, _REAL_RE
from .values import (
    INT64_MAX, INT64_MIN, NIL, VOID, Closure, Cont, Pair, Primitive, Symbol,
    eq, equal, eqv, intern, is_proper_list, list_from, to_pylist,
)
from .writer import display_value, write_value


# Primitives with observable effects (output or mutation); everything else
# that is not a control primitive is safe to evaluate inline (`require`
# too: a failure unwinds to the trampoline before anything is assigned).
_IMPURE = frozenset({
    "display", "write", "newline", "print", "vector-set!", "use-stack-trace",
})

# What compiled code computes in place of a call, by name: the operands'
# Python expressions in, an expression (which may name `Pair` and `NIL`)
# out.
_EXPRESSION = {}

# The calls compiled code writes as a scan when their list operand is an
# inline call, by (operator, producer): the test each of the producer's
# operands gets.  A list is built only from a match on (Wadler 1990).
_SCAN = {("member", "list"): equal, ("memq", "list"): eq}


def install_primitives(table):
    """Bind every built-in procedure in the (fresh) global table."""
    for name, fn, min_args, max_args, control in _PRIMITIVE_SPECS:
        table[intern(name)] = Primitive(
            name, fn, min_args, max_args, control=control,
            pure=not control and name not in _IMPURE)
    # one procedure under two names (R7RS 6.10)
    table[intern("call-with-current-continuation")] = table[intern("call/cc")]


def _type_error(who, expected, value):
    return EvalError(who, f"expected {expected}, got {write_value(value)}")


def _number(value, who):
    t = type(value)
    if t is int or t is float:
        return value
    raise _type_error(who, "a number", value)


def _integer(value, who):
    if type(value) is int:
        return value
    raise _type_error(who, "an integer", value)


def _check_int64(value, who):
    if not INT64_MIN <= value <= INT64_MAX:
        raise EvalError(who, "integer overflow")
    return value


def _pair(value, who):
    if isinstance(value, Pair):
        return value
    raise _type_error(who, "a pair", value)


# --- pairs and lists ---------------------------------------------------


def _prim_cons(m, args):
    return Pair(args[0], args[1])


def _prim_car(m, args):
    return _pair(args[0], "car").car


def _prim_cdr(m, args):
    return _pair(args[0], "cdr").cdr


def _make_cxr(name):
    # "caddr" applies cdr, cdr, car reading the path right to left
    path = name[1:-1]

    def cxr(m, args):
        value = args[0]
        for step in reversed(path):
            node = _pair(value, name)
            value = node.car if step == "a" else node.cdr
        return value

    return cxr


def _prim_list(m, args):
    return list_from(args)


_EXPRESSION["list"] = lambda xs: (
    "".join(f"Pair({x}, " for x in xs) + "NIL" + ")" * len(xs))


def _prim_append(m, args):
    if not args:
        return NIL
    result = args[-1]
    for lst in reversed(args[:-1]):
        items = to_pylist(lst, "append")
        for item in reversed(items):
            result = Pair(item, result)
    return result


def _prim_reverse(m, args):
    result = NIL
    for item in to_pylist(args[0], "reverse"):
        result = Pair(item, result)
    return result


def _prim_length(m, args):
    return len(to_pylist(args[0], "length"))


def _member_with(pred, who):
    def member(m, args):
        target, lst = args
        node = lst
        while isinstance(node, Pair):
            if pred(target, node.car):
                return node
            node = node.cdr
        if node is not NIL:
            raise _type_error(who, "a proper list", lst)
        return False

    return member


def _assoc_with(pred, who):
    def assoc(m, args):
        target, alist = args
        node = alist
        while isinstance(node, Pair):
            entry = node.car
            if not isinstance(entry, Pair):
                raise _type_error(who, "an association list", alist)
            if pred(target, entry.car):
                return entry
            node = node.cdr
        if node is not NIL:
            raise _type_error(who, "an association list", alist)
        return False

    return assoc


def _prim_null_p(m, args):
    return args[0] is NIL


_EXPRESSION["null?"] = lambda xs: f"{xs[0]} is NIL"


def _prim_pair_p(m, args):
    return isinstance(args[0], Pair)


def _prim_list_p(m, args):
    return is_proper_list(args[0])


# --- arithmetic and comparison ------------------------------------------


def _prim_add(m, args):
    if len(args) == 2:
        a, b = args
        if type(a) is int and type(b) is int:
            total = a + b
            if INT64_MIN <= total <= INT64_MAX:
                return total
            raise EvalError("+", "integer overflow")
    total = 0
    for arg in args:
        total = total + _number(arg, "+")
    if type(total) is int:
        _check_int64(total, "+")
    return total


def _prim_sub(m, args):
    if len(args) == 2:
        a, b = args
        if type(a) is int and type(b) is int:
            result = a - b
            if INT64_MIN <= result <= INT64_MAX:
                return result
            raise EvalError("-", "integer overflow")
    if len(args) == 1:
        result = -_number(args[0], "-")
    else:
        result = _number(args[0], "-")
        for arg in args[1:]:
            result = result - _number(arg, "-")
    if type(result) is int:
        _check_int64(result, "-")
    return result


def _prim_mul(m, args):
    if len(args) == 2:
        a, b = args
        if type(a) is int and type(b) is int:
            result = a * b
            if INT64_MIN <= result <= INT64_MAX:
                return result
            raise EvalError("*", "integer overflow")
    result = 1
    for arg in args:
        result = result * _number(arg, "*")
    if type(result) is int:
        _check_int64(result, "*")
    return result


def _div2(a, b):
    if type(a) is int and type(b) is int:
        if b == 0:
            raise EvalError("/", "division by zero")
        q, r = divmod(a, b)
        if r == 0:
            return _check_int64(q, "/")
        return a / b
    fa, fb = float(a), float(b)
    if fb == 0.0:
        # IEEE semantics for real division by zero
        if fa == 0.0 or math.isnan(fa):
            return math.nan
        return math.copysign(math.inf, fa) * math.copysign(1.0, fb)
    return fa / fb


def _prim_div(m, args):
    if len(args) == 1:
        return _div2(1, _number(args[0], "/"))
    result = _number(args[0], "/")
    for arg in args[1:]:
        result = _div2(result, _number(arg, "/"))
    return result


def _compare_with(op, who):
    def compare(m, args):
        prev = _number(args[0], who)
        for arg in args[1:]:
            nxt = _number(arg, who)
            if not op(prev, nxt):
                return False
            prev = nxt
        return True

    return compare


_chain_eq = _compare_with(lambda a, b: a == b, "=")
_chain_lt = _compare_with(lambda a, b: a < b, "<")
_chain_gt = _compare_with(lambda a, b: a > b, ">")


def _prim_num_eq(m, args):
    if len(args) == 2:
        a, b = args
        ta, tb = type(a), type(b)
        if (ta is int or ta is float) and (tb is int or tb is float):
            return a == b
    return _chain_eq(m, args)


def _prim_num_lt(m, args):
    if len(args) == 2:
        a, b = args
        if type(a) is int and type(b) is int:
            return a < b
    return _chain_lt(m, args)


def _prim_num_gt(m, args):
    if len(args) == 2:
        a, b = args
        if type(a) is int and type(b) is int:
            return a > b
    return _chain_gt(m, args)


# What compiled code writes as a Python operator on two fixnums while the
# primitive's `fn` is still the one named here; `+` and `-` fall back to it
# on an overflow.
_FIXNUM = {_prim_add: "+", _prim_sub: "-", _prim_num_eq: "==",
           _prim_num_lt: "<", _prim_num_gt: ">"}


def _minmax_with(pick, who):
    def minmax(m, args):
        result = _number(args[0], who)
        inexact = type(result) is float
        for arg in args[1:]:
            value = _number(arg, who)
            inexact = inexact or type(value) is float
            result = pick(result, value)
        return float(result) if inexact else result

    return minmax


def _prim_abs(m, args):
    value = _number(args[0], "abs")
    result = abs(value)
    if type(result) is int:
        _check_int64(result, "abs")
    return result


def _prim_quotient(m, args):
    a = _integer(args[0], "quotient")
    b = _integer(args[1], "quotient")
    if b == 0:
        raise EvalError("quotient", "division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return _check_int64(q, "quotient")


def _prim_remainder(m, args):
    a = _integer(args[0], "remainder")
    b = _integer(args[1], "remainder")
    if b == 0:
        raise EvalError("remainder", "division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return a - b * q


def _prim_modulo(m, args):
    a = _integer(args[0], "modulo")
    b = _integer(args[1], "modulo")
    if b == 0:
        raise EvalError("modulo", "division by zero")
    return a % b


# --- predicates ----------------------------------------------------------


def _prim_not(m, args):
    return args[0] is False


_EXPRESSION["not"] = lambda xs: f"{xs[0]} is False"


def _prim_eqv_p(m, args):
    return eqv(args[0], args[1])


def _prim_equal_p(m, args):
    return equal(args[0], args[1])


def _prim_number_p(m, args):
    return type(args[0]) in (int, float)


def _prim_integer_p(m, args):
    value = args[0]
    if type(value) is int:
        return True
    return type(value) is float and value.is_integer()


def _prim_symbol_p(m, args):
    return isinstance(args[0], Symbol)


def _prim_string_p(m, args):
    return type(args[0]) is str


def _prim_boolean_p(m, args):
    return args[0] is True or args[0] is False


def _prim_procedure_p(m, args):
    return type(args[0]) in (Closure, Primitive, Cont)


def _prim_vector_p(m, args):
    return type(args[0]) is list


# --- vectors -------------------------------------------------------------


def _prim_vector(m, args):
    return list(args)


def _prim_make_vector(m, args):
    n = _integer(args[0], "make-vector")
    if n < 0:
        raise EvalError("make-vector", f"negative length {n}")
    fill = args[1] if len(args) == 2 else 0
    return [fill] * n


def _vector_arg(value, who):
    if type(value) is list:
        return value
    raise _type_error(who, "a vector", value)


def _vector_index(vec, value, who):
    i = _integer(value, who)
    if not 0 <= i < len(vec):
        raise EvalError(who, f"index {i} out of range for length {len(vec)}")
    return i


def _prim_vector_ref(m, args):
    vec = _vector_arg(args[0], "vector-ref")
    return vec[_vector_index(vec, args[1], "vector-ref")]


def _prim_vector_set(m, args):
    vec = _vector_arg(args[0], "vector-set!")
    vec[_vector_index(vec, args[1], "vector-set!")] = args[2]
    return VOID


def _prim_vector_length(m, args):
    return len(_vector_arg(args[0], "vector-length"))


# --- strings -------------------------------------------------------------


def _string_arg(value, who):
    if type(value) is str:
        return value
    raise _type_error(who, "a string", value)


def _prim_string_append(m, args):
    return "".join(_string_arg(a, "string-append") for a in args)


def _prim_string_length(m, args):
    return len(_string_arg(args[0], "string-length"))


def _prim_string_to_symbol(m, args):
    return intern(_string_arg(args[0], "string->symbol"))


def _prim_symbol_to_string(m, args):
    value = args[0]
    if not isinstance(value, Symbol):
        raise _type_error("symbol->string", "a symbol", value)
    return value.name


def _prim_number_to_string(m, args):
    return write_value(_number(args[0], "number->string"))


def _prim_string_to_number(m, args):
    text = _string_arg(args[0], "string->number")
    if _INT_RE.match(text):
        value = int(text)
        if INT64_MIN <= value <= INT64_MAX:
            return value
        return False
    if _REAL_RE.match(text):
        return float(text)
    return _INF_NAN.get(text, False)


# --- output --------------------------------------------------------------


def _prim_display(m, args):
    m.stdout.write(display_value(args[0]))
    return VOID


def _prim_write(m, args):
    m.stdout.write(write_value(args[0]))
    return VOID


def _prim_newline(m, args):
    m.stdout.write("\n")
    return VOID


def _prim_print(m, args):
    m.stdout.write(display_value(args[0]))
    m.stdout.write("\n")
    return VOID


def _format_text(who, fmt, fmt_args):
    out = []
    arg_index = 0
    i = 0
    n = len(fmt)
    while i < n:
        ch = fmt[i]
        if ch != "~":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise EvalError(who, "dangling '~' in format string")
        directive = fmt[i + 1]
        if directive == "%":
            out.append("\n")
        elif directive in ("a", "s"):
            if arg_index >= len(fmt_args):
                raise EvalError(who, "not enough arguments for format string")
            value = fmt_args[arg_index]
            arg_index += 1
            out.append(display_value(value) if directive == "a"
                       else write_value(value))
        else:
            raise EvalError(who, f"unknown format directive '~{directive}'")
        i += 2
    if arg_index != len(fmt_args):
        raise EvalError(who, "too many arguments for format string")
    return "".join(out)


def _prim_format(m, args):
    return _format_text("format", _string_arg(args[0], "format"), args[1:])


# --- control -------------------------------------------------------------


def _prim_error(m, args):
    who = args[0]
    if not isinstance(who, Symbol):
        raise _type_error("error", "a symbol", who)
    message = _string_arg(args[1], "error")
    raise EvalError(who.name, _format_text(who.name, message, args[2:]))


def _prim_require(m, args):
    if args[0] is False:
        raise Backtrack
    return VOID


def _prim_apply(m, args, k):
    proc = args[0]
    spread = to_pylist(args[-1], "apply")
    apply_proc(m, proc, tuple(args[1:-1]) + tuple(spread), k)


def _prim_callcc(m, args, k):
    apply_proc(m, args[0], (Cont(k),), k)


# --- misc ----------------------------------------------------------------


def _prim_void(m, args):
    return VOID


def _prim_use_stack_trace(m, args):
    flag = args[0]
    if flag is not True and flag is not False:
        raise _type_error("use-stack-trace", "a boolean", flag)
    m.trace.config.enabled = flag
    return VOID


_PRIMITIVE_SPECS = [
    # (name, fn, min_args, max_args, control)
    ("cons", _prim_cons, 2, 2, False),
    ("car", _prim_car, 1, 1, False),
    ("cdr", _prim_cdr, 1, 1, False),
    ("caar", _make_cxr("caar"), 1, 1, False),
    ("cadr", _make_cxr("cadr"), 1, 1, False),
    ("cdar", _make_cxr("cdar"), 1, 1, False),
    ("cddr", _make_cxr("cddr"), 1, 1, False),
    ("caddr", _make_cxr("caddr"), 1, 1, False),
    ("list", _prim_list, 0, None, False),
    ("append", _prim_append, 0, None, False),
    ("reverse", _prim_reverse, 1, 1, False),
    ("length", _prim_length, 1, 1, False),
    ("member", _member_with(equal, "member"), 2, 2, False),
    ("memq", _member_with(eq, "memq"), 2, 2, False),
    ("assq", _assoc_with(eq, "assq"), 2, 2, False),
    ("assv", _assoc_with(eqv, "assv"), 2, 2, False),
    ("null?", _prim_null_p, 1, 1, False),
    ("pair?", _prim_pair_p, 1, 1, False),
    ("list?", _prim_list_p, 1, 1, False),
    ("+", _prim_add, 0, None, False),
    ("-", _prim_sub, 1, None, False),
    ("*", _prim_mul, 0, None, False),
    ("/", _prim_div, 1, None, False),
    ("=", _prim_num_eq, 2, None, False),
    ("<", _prim_num_lt, 2, None, False),
    (">", _prim_num_gt, 2, None, False),
    ("<=", _compare_with(lambda a, b: a <= b, "<="), 2, None, False),
    (">=", _compare_with(lambda a, b: a >= b, ">="), 2, None, False),
    ("min", _minmax_with(min, "min"), 1, None, False),
    ("max", _minmax_with(max, "max"), 1, None, False),
    ("abs", _prim_abs, 1, 1, False),
    ("modulo", _prim_modulo, 2, 2, False),
    ("quotient", _prim_quotient, 2, 2, False),
    ("remainder", _prim_remainder, 2, 2, False),
    ("not", _prim_not, 1, 1, False),
    ("eq?", _prim_eqv_p, 2, 2, False),
    ("eqv?", _prim_eqv_p, 2, 2, False),
    ("equal?", _prim_equal_p, 2, 2, False),
    ("number?", _prim_number_p, 1, 1, False),
    ("integer?", _prim_integer_p, 1, 1, False),
    ("symbol?", _prim_symbol_p, 1, 1, False),
    ("string?", _prim_string_p, 1, 1, False),
    ("boolean?", _prim_boolean_p, 1, 1, False),
    ("procedure?", _prim_procedure_p, 1, 1, False),
    ("vector?", _prim_vector_p, 1, 1, False),
    ("vector", _prim_vector, 0, None, False),
    ("make-vector", _prim_make_vector, 1, 2, False),
    ("vector-ref", _prim_vector_ref, 2, 2, False),
    ("vector-set!", _prim_vector_set, 3, 3, False),
    ("vector-length", _prim_vector_length, 1, 1, False),
    ("string-append", _prim_string_append, 0, None, False),
    ("string-length", _prim_string_length, 1, 1, False),
    ("string->symbol", _prim_string_to_symbol, 1, 1, False),
    ("symbol->string", _prim_symbol_to_string, 1, 1, False),
    ("number->string", _prim_number_to_string, 1, 1, False),
    ("string->number", _prim_string_to_number, 1, 1, False),
    ("display", _prim_display, 1, 1, False),
    ("write", _prim_write, 1, 1, False),
    ("newline", _prim_newline, 0, 0, False),
    ("print", _prim_print, 1, 1, False),
    ("format", _prim_format, 1, None, False),
    ("error", _prim_error, 2, None, False),
    ("require", _prim_require, 1, 1, False),
    ("apply", _prim_apply, 2, None, True),
    ("call/cc", _prim_callcc, 1, 1, True),
    ("void", _prim_void, 0, None, False),
    ("use-stack-trace", _prim_use_stack_trace, 1, 1, False),
]


# Evaluated once per machine at startup; defines procedures only, no macros.
BOOT_SOURCE = """
(define map
  (lambda (f first . rest)
    (define map1
      (lambda (lst)
        (if (null? lst)
            '()
            (cons (f (car lst)) (map1 (cdr lst))))))
    (define cars
      (lambda (ls)
        (if (null? ls) '() (cons (car (car ls)) (cars (cdr ls))))))
    (define cdrs
      (lambda (ls)
        (if (null? ls) '() (cons (cdr (car ls)) (cdrs (cdr ls))))))
    (define mapn
      (lambda (ls)
        (if (null? (car ls))
            '()
            (cons (apply f (cars ls)) (mapn (cdrs ls))))))
    ;; dispatch through a binding so the map frame stays on the trace
    ;; stack while elements are processed
    (let ((result (if (null? rest) (map1 first) (mapn (cons first rest)))))
      result)))

(define for-each
  (lambda (f first . rest)
    (define walk
      (lambda (lst)
        (if (null? lst)
            (void)
            (begin (f (car lst)) (walk (cdr lst))))))
    (let ((result (if (null? rest)
                      (walk first)
                      (begin (apply map (cons f (cons first rest))) (void)))))
      result)))
"""
