"""Shared program texts and independent oracles used across the test suite.

The oracles deliberately avoid the interpreter: the map-coloring enumerator
and the choose-tree enumerator are plain Python, so they can vouch for the
machine's backtracking order.
"""

import gc
import math
import operator
import sys
import threading
import time
from itertools import product

from ambit import read_all, write_value
from ambit.values import NIL, Pair, Symbol, intern, list_from

SUM_PROGRAM = """
(define sum-cps
  (lambda (n k)
    (if (= n 0)
        (k 0)
        (sum-cps (- n 1)
          (lambda (value)
            (k (+ n value)))))))

(define sum
  (lambda (n)
    (sum-cps n (lambda (value) value))))
"""

EVEN_ODD_PROGRAM = """
(define even?
  (lambda (n)
    (if (= n 0) #t (odd? (- n 1)))))

(define odd?
  (lambda (n)
    (if (= n 0) #f (even? (- n 1)))))
"""

BUGGY_FACT = "(define fact (lambda (n) (if (= n 0) q (* n (fact (- n 1))))))"

COLOR_EUROPE_PROGRAM = """
(define choose-color
  (lambda ()
    (choose 'red 'yellow 'blue 'white)))

(define-syntax color
  [(color ?country different from . ?neighbors)
   (require (not (member ?country (list . ?neighbors))))])

(define color-europe
  (lambda ()
    (let ([portugal (choose-color)]
          [spain (choose-color)]
          [france (choose-color)]
          [belgium (choose-color)]
          [germany (choose-color)]
          [luxembourg (choose-color)]
          [italy (choose-color)]
          [switzerland (choose-color)])
      ;; apply the constraints
      (color portugal different from spain)
      (color spain different from france portugal)
      (color france different from spain italy switzerland belgium germany luxembourg)
      (color belgium different from france luxembourg germany)
      (color germany different from france switzerland belgium luxembourg)
      (color luxembourg different from france belgium germany)
      (color italy different from france switzerland)
      (color switzerland different from france italy germany)
      ;; return a coloring that satisfies the constraints
      (list (list 'portugal portugal)
            (list 'spain spain)
            (list 'france france)
            (list 'belgium belgium)
            (list 'germany germany)
            (list 'luxembourg luxembourg)
            (list 'italy italy)
            (list 'switzerland switzerland)))))
"""

AND_OR_MACROS = """
(define-syntax and
  [(and ?exp) ?exp]
  [(and ?first-exp . ?other-exps) (if ?first-exp (and . ?other-exps) #f)])

(define-syntax or
  [(or ?exp) ?exp]
  [(or ?first-exp . ?other-exps) (if ?first-exp #t (or . ?other-exps))])
"""

LET_HELPER_MACROS = """
(define-syntax let
  [(let ?bindings . ?bodies) (let-helper ?bindings () () . ?bodies)])

(define-syntax let-helper
  [(let-helper () ?ids ?exps . ?bodies) ((lambda ?ids . ?bodies) . ?exps)]
  [(let-helper ((?i ?e) . ?other-bindings) ?ids ?exps . ?bodies)
   (let-helper ?other-bindings (?i . ?ids) (?e . ?exps) . ?bodies)])
"""

# The let family as pattern macros, the reference the built-in lowering in
# `forms` is compared against.  `let` runs two accumulator passes so its
# inits evaluate in source order.
BOOT_LET_MACROS = """
(define-syntax let
  [(let ?bindings . ?bodies) (let-reverse ?bindings () . ?bodies)])

(define-syntax let-reverse
  [(let-reverse () ?acc . ?bodies) (let-build ?acc () () . ?bodies)]
  [(let-reverse (?binding . ?rest) ?acc . ?bodies)
   (let-reverse ?rest (?binding . ?acc) . ?bodies)])

(define-syntax let-build
  [(let-build () ?ids ?exps . ?bodies) ((lambda ?ids . ?bodies) . ?exps)]
  [(let-build ((?i ?e) . ?other) ?ids ?exps . ?bodies)
   (let-build ?other (?i . ?ids) (?e . ?exps) . ?bodies)])

(define-syntax let*
  [(let* () . ?bodies) ((lambda () . ?bodies))]
  [(let* ((?i ?e) . ?rest) . ?bodies)
   ((lambda (?i) (let* ?rest . ?bodies)) ?e)])

(define-syntax letrec
  [(letrec ?bindings . ?bodies)
   ((lambda () (letrec-defines ?bindings . ?bodies)))])

(define-syntax letrec-defines
  [(letrec-defines () . ?bodies) (begin . ?bodies)]
  [(letrec-defines ((?name ?exp) . ?rest) . ?bodies)
   (begin (define ?name ?exp) (letrec-defines ?rest . ?bodies))])
"""

COLORS = ("red", "yellow", "blue", "white")
COUNTRIES = ("portugal", "spain", "france", "belgium", "germany",
             "luxembourg", "italy", "switzerland")
ADJACENCY = [
    ("portugal", ("spain",)),
    ("spain", ("france", "portugal")),
    ("france", ("spain", "italy", "switzerland", "belgium", "germany",
                "luxembourg")),
    ("belgium", ("france", "luxembourg", "germany")),
    ("germany", ("france", "switzerland", "belgium", "luxembourg")),
    ("luxembourg", ("france", "belgium", "germany")),
    ("italy", ("france", "switzerland")),
    ("switzerland", ("france", "italy", "germany")),
]


def coloring_solutions():
    """All valid colorings, in the interpreter's depth-first order: the
    countries bind left to right, so the last one varies fastest."""
    solutions = []
    for combo in product(COLORS, repeat=len(COUNTRIES)):
        assignment = dict(zip(COUNTRIES, combo))
        if all(assignment[country] not in
               tuple(assignment[n] for n in neighbors)
               for country, neighbors in ADJACENCY):
            solutions.append(combo)
    return solutions


def coloring_text(combo):
    return ("(" + " ".join(f"({c} {color})"
                           for c, color in zip(COUNTRIES, combo)) + ")")


def exhaust_choices(machine, first_form):
    """Evaluate `first_form`, then `(choose)` until "no more choices";
    returns the list of produced values (terminator excluded)."""
    out = []
    value = machine.eval_source(first_form)
    while value != "no more choices":
        out.append(value)
        value = machine.eval_source("(choose)")
    return out


# --- randomized generate-and-test programs --------------------------------


def gen_choose_tree(rng, depth):
    """Nested choose expression over integer literals, depth <= 3,
    <= 4 alternatives per node."""
    if depth == 0 or rng.random() < 0.35:
        return ("leaf", rng.randint(0, 9))
    width = rng.randint(1, 4)
    return ("node", [gen_choose_tree(rng, depth - 1) for _ in range(width)])


def tree_text(tree):
    kind, payload = tree
    if kind == "leaf":
        return str(payload)
    return "(choose " + " ".join(tree_text(c) for c in payload) + ")"


def tree_leaves(tree):
    kind, payload = tree
    if kind == "leaf":
        return [payload]
    leaves = []
    for child in payload:
        leaves.extend(tree_leaves(child))
    return leaves


def gen_predicate(rng, nvars):
    """One decidable require-test; returns (scheme text, python check)."""
    kind = rng.randrange(5)
    i = rng.randrange(nvars)
    j = rng.randrange(nvars)
    c = rng.randint(0, 9)
    if kind == 0:
        return f"(> x{i} x{j})", lambda vs, i=i, j=j: vs[i] > vs[j]
    if kind == 1:
        return f"(< x{i} {c})", lambda vs, i=i, c=c: vs[i] < c
    if kind == 2:
        modulus = rng.randint(2, 4)
        r = rng.randrange(modulus)
        return (f"(= (modulo x{i} {modulus}) {r})",
                lambda vs, i=i, m=modulus, r=r: vs[i] % m == r)
    if kind == 3:
        return f"(not (= x{i} x{j}))", lambda vs, i=i, j=j: vs[i] != vs[j]
    members = sorted({rng.randint(0, 9) for _ in range(rng.randint(1, 4))})
    text = "(member x{} '({}))".format(i, " ".join(map(str, members)))
    return text, lambda vs, i=i, ms=tuple(members): vs[i] in ms


def gen_search_program(rng):
    """A (let ((x0 <choices>) ...) (require ...) ... (list x0 ...)) program
    plus its expected solution sequence from brute-force enumeration."""
    nvars = rng.randint(1, 3)
    trees = [gen_choose_tree(rng, rng.randint(1, 3)) for _ in range(nvars)]
    predicates = [gen_predicate(rng, nvars) for _ in range(rng.randint(1, 3))]
    bindings = " ".join(f"(x{i} {tree_text(t)})" for i, t in enumerate(trees))
    requires = " ".join(f"(require {text})" for text, _ in predicates)
    listing = " ".join(f"x{i}" for i in range(nvars))
    program = f"(let ({bindings}) {requires} (list {listing}))"
    leaf_seqs = [tree_leaves(t) for t in trees]
    expected = [combo for combo in product(*leaf_seqs)
                if all(check(combo) for _, check in predicates)]
    return program, expected


def combo_text(combo):
    return "(" + " ".join(str(v) for v in combo) + ")"


# --- randomized literal values for writer/reader roundtrips ----------------

_SYMBOL_FIRST = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ*!?<>=_%&^~"
_SYMBOL_REST = _SYMBOL_FIRST + "0123456789+-./:"
_STRING_CHARS = ("abc XYZ 012 \t\n" + '"' + "\\" + "äßλ中!?*()[]';`,#.")


def gen_symbol_name(rng):
    name = rng.choice(_SYMBOL_FIRST)
    name += "".join(rng.choice(_SYMBOL_REST)
                    for _ in range(rng.randint(0, 6)))
    return name


def gen_literal(rng, depth):
    """Random reader-producible value (no closures/continuations)."""
    from ambit import intern

    atoms = ("int", "real", "bool", "string", "symbol", "nil")
    if depth <= 0:
        kind = rng.choice(atoms)
    else:
        kind = rng.choice(atoms + ("list", "dotted", "vector"))
    if kind == "int":
        return rng.randint(-(2 ** 63), 2 ** 63 - 1)
    if kind == "real":
        return rng.uniform(-1e9, 1e9)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "string":
        return "".join(rng.choice(_STRING_CHARS)
                       for _ in range(rng.randint(0, 10)))
    if kind == "symbol":
        return intern(gen_symbol_name(rng))
    if kind == "nil":
        return NIL
    if kind == "vector":
        return [gen_literal(rng, depth - 1)
                for _ in range(rng.randint(0, 4))]
    items = [gen_literal(rng, depth - 1) for _ in range(rng.randint(1, 4))]
    if kind == "dotted":
        tail = gen_literal(rng, 0)
        result = tail if tail is not NIL else rng.randint(0, 9)
    else:
        result = NIL
    for item in reversed(items):
        result = Pair(item, result)
    return result


def gen_bool_tree(rng, depth):
    """Random and/or tree over #t/#f leaves; every node has >= 1 child."""
    if depth == 0:
        return rng.choice(("#t", "#f"))
    op = rng.choice(("and", "or"))
    width = rng.randint(1, 4)
    children = " ".join(gen_bool_tree(rng, depth - 1) for _ in range(width))
    return f"({op} {children})"


def run_on_small_stack(fn, size=512 * 1024):
    """Call fn() on a thread whose stack is `size` bytes; returns its result
    and re-raises whatever it raised."""
    result = {}

    def work():
        try:
            result["value"] = fn()
        except BaseException as err:  # handed to the calling thread
            result["error"] = err

    old = threading.stack_size(size)
    try:
        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(old)
    if "error" in result:
        raise result["error"]
    return result["value"]


def scaling_ratio(run, small, large, bound, rounds=15):
    """time(large) / time(small) for `run(width)`, each the fastest of its
    runs, timed as this process's CPU time, so time the host gives other
    processes is not counted.  Each run starts from a collected heap, so no
    run pays for the garbage of the one before.  The two widths are timed in
    turn, so a slow spell of the host reaches both.  After five rounds the
    timing stops as soon as the ratio is within `bound`, so a slow spell
    costs more rounds, up to `rounds`, rather than a failure; the bound
    itself is the caller's."""
    best = {}
    for done in range(1, rounds + 1):
        for width in (small, large):
            gc.collect()
            start = time.process_time()
            run(width)
            took = time.process_time() - start
            best[width] = min(best.get(width, took), took)
        if done >= 5 and best[large] / best[small] <= bound:
            break
    return best[large] / best[small]


# --- a reference evaluator ------------------------------------------------


class ReferenceError(Exception):
    """An error of the reference evaluator, with the machine's error line."""

    def __init__(self, label, message):
        super().__init__(f"{label}: {message}")
        self.line = f"{label}: {message}"


class _Failed(Exception):
    """Unwinds the reference evaluator's host stack to its driver, which
    then calls `fk`: in continuation-passing style nothing the stack holds is
    needed later, so each failure starts afresh from the driver."""

    def __init__(self, fk):
        super().__init__()
        self.fk = fk


class _Closure:
    def __init__(self, params, body, env):
        self.params, self.body, self.env = params, body, env


class _Escape:
    """A continuation captured by `call/cc`."""

    def __init__(self, sk):
        self.sk = sk


_UNASSIGNED = object()
_VOID = object()
_INT64 = (-(2 ** 63), 2 ** 63 - 1)
# the programs `test_fast_paths` generates have needed up to 4,000
_REFERENCE_FRAMES = 20_000


def _checked(who, value):
    if not _INT64[0] <= value <= _INT64[1]:
        raise ReferenceError(who, "integer overflow")
    return value


def _quotient(a, b):
    if b == 0:
        raise ReferenceError("quotient", "division by zero")
    q = abs(a) // abs(b)
    return _checked("quotient", -q if (a < 0) != (b < 0) else q)


def _chain(test):
    return lambda *xs: all(map(test, xs, xs[1:]))


# `+ - *` fold over Python ints and check the 64-bit range on the result
# alone, as the interpreter does for other than two operands
_REFERENCE_PRIMITIVES = {
    "+": lambda *xs: _checked("+", sum(xs)),
    "-": lambda a, *xs: _checked("-", a - sum(xs) if xs else -a),
    "*": lambda *xs: _checked("*", math.prod(xs)),
    "quotient": _quotient,
    "=": _chain(operator.eq),
    "<": _chain(operator.lt),
    ">": _chain(operator.gt),
    "not": lambda a: a is False,
    # a list is a tuple, and `member` gives the tail from the match
    "list": lambda *xs: xs,
    "member": lambda x, xs: next((xs[i:] for i, y in enumerate(xs)
                                  if type(y) is type(x) and y == x), False),
    "pair?": lambda x: type(x) is tuple and len(x) > 0,
}


class Reference:
    """A direct-style evaluator of a small Scheme: `lambda` (fixed
    parameters), `define` (top level and at the head of a body), `set!`,
    `if`, `begin`, `let`/`let*`/`letrec`, `quote`, `choose`, and the
    procedures `+ - * quotient = < > not list member pair? display require
    call/cc`, over integers, booleans and lists of integers.  Like the `amb`
    evaluator of SICP 4.3.3 it takes a success continuation `sk(value, fk)`
    and a failure continuation `fk()`, both Python closures, so `choose` and
    `call/cc` need no machine.  It shares nothing with the interpreter but
    the reader and its values."""

    def __init__(self):
        self.globals, self.output = {}, []
        for name, fn in _REFERENCE_PRIMITIVES.items():
            self.globals[intern(name)] = fn
        for name in ("display", "require", "call/cc"):
            self.globals[intern(name)] = name

    def run(self, forms):
        """(solutions written, output, error line or None) of evaluating each
        form and exhausting the last one's choices.  The evaluator recurses
        at each step until a choice fails, so it runs on a thread with room
        for `_REFERENCE_FRAMES` Python frames."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_REFERENCE_FRAMES)
        try:
            return run_on_small_stack(lambda: self._run(forms), 64 << 20)
        finally:
            sys.setrecursionlimit(limit)

    def _run(self, forms):
        values, error = [], None
        try:
            for form in forms[:-1]:
                self._drive(form, lambda value, fk: None)
            step = self._drive(forms[-1], lambda value, fk: (value, fk))
            while step is not None:
                values.append(self.write(step[0]))
                step = self._drive(None, None, step[1])
        except ReferenceError as err:
            error = err.line
        return values, "".join(self.output), error

    def _drive(self, text, sk, fk=None):
        if fk is None:
            form = read_all(text)[0].value
            step = lambda: self.eval(form, None, sk, lambda: None)  # noqa
        else:
            step = fk
        while True:
            try:
                return step()
            except _Failed as failed:
                step = failed.fk

    def write(self, value):
        if value is True or value is False:
            return "#t" if value else "#f"
        return str(value)

    def lookup(self, name, env):
        while env is not None:
            frame, env = env
            if name in frame:
                value = frame[name]
                break
        else:
            value = self.globals.get(name, _UNASSIGNED)
        if value is _UNASSIGNED:
            raise ReferenceError("UnboundVariable", name.name)
        return value

    def assign(self, name, value, env):
        while env is not None:
            frame, env = env
            if name in frame:
                if frame[name] is _UNASSIGNED:
                    raise ReferenceError("UnboundVariable",
                                         f"set!: {name.name}")
                frame[name] = value
                return
        if name not in self.globals:
            raise ReferenceError("UnboundVariable", f"set!: {name.name}")
        self.globals[name] = value

    def eval(self, x, env, sk, fk):
        if isinstance(x, Symbol):
            return sk(self.lookup(x, env), fk)
        if not isinstance(x, Pair):
            return sk(x, fk)
        items, head = _items_of(x), x.car.name if isinstance(
            x.car, Symbol) else None
        if head == "quote":
            return sk(items[1], fk)
        if head == "if":
            return self.eval(items[1], env, lambda test, fk2: self.eval(
                items[2] if test is not False else
                items[3] if len(items) > 3 else None, env, sk, fk2), fk)
        if head == "define":
            name = items[1]

            def bind(value, fk2):
                (env[0] if env is not None else self.globals)[name] = value
                return sk(_VOID, fk2)

            return self.eval(items[2], env, bind, fk)
        if head == "set!":
            return self.eval(items[2], env, lambda value, fk2: (
                self.assign(items[1], value, env), sk(_VOID, fk2))[1], fk)
        if head == "lambda":
            return sk(_Closure(_items_of(items[1]), items[2:], env), fk)
        if head == "begin":
            return self.body(items[1:], env, sk, fk)
        if head == "let":
            names = [_items_of(b)[0] for b in _items_of(items[1])]
            inits = [_items_of(b)[1] for b in _items_of(items[1])]
            return self.operands(inits, env, [], lambda values, fk2: self.enter(
                names, values, items[2:], env, sk, fk2), fk)
        if head == "let*":
            bindings = _items_of(items[1])
            if not bindings:
                return self.enter([], [], items[2:], env, sk, fk)
            rest = Pair(intern("let*"), Pair(list_from(bindings[1:]),
                                             x.cdr.cdr))
            name, init = _items_of(bindings[0])
            return self.eval(init, env, lambda value, fk2: self.enter(
                [name], [value], [rest], env, sk, fk2), fk)
        if head == "letrec":
            defines = [Pair(intern("define"), b) for b in _items_of(items[1])]
            return self.enter([], [], defines + items[2:], env, sk, fk)
        if head == "choose":
            alternatives = items[1:]

            def alternative(i):
                if i == len(alternatives):
                    raise _Failed(fk)
                return self.eval(alternatives[i], env, sk,
                                 lambda: alternative(i + 1))

            return alternative(0)
        return self.eval(x.car, env, lambda proc, fk2: self.operands(
            items[1:], env, [], lambda args, fk3: self.apply(
                proc, args, sk, fk3), fk2), fk)

    def operands(self, xs, env, done, sk, fk):
        """Evaluate `xs` left to right after the values `done`; a value list
        is never changed once made, since a continuation may be resumed."""
        if len(done) == len(xs):
            return sk(done, fk)
        return self.eval(xs[len(done)], env, lambda value, fk2: self.operands(
            xs, env, done + [value], sk, fk2), fk)

    def body(self, forms, env, sk, fk):
        if len(forms) == 1:
            return self.eval(forms[0], env, sk, fk)
        return self.eval(forms[0], env, lambda value, fk2: self.body(
            forms[1:], env, sk, fk2), fk)

    def enter(self, names, values, forms, env, sk, fk):
        """Run a body in a new frame binding `names`; each name a `define`
        at its head binds is unassigned until the `define` runs."""
        frame = dict(zip(names, values))
        for form in forms:
            if isinstance(form, Pair) and form.car is intern("define"):
                frame[form.cdr.car] = _UNASSIGNED
        return self.body(forms, (frame, env), sk, fk)

    def apply(self, proc, args, sk, fk):
        if type(proc) is _Closure:
            return self.enter(proc.params, args, proc.body, proc.env, sk, fk)
        if type(proc) is _Escape:
            return proc.sk(args[0], fk)
        if proc == "call/cc":
            return self.apply(args[0], [_Escape(sk)], sk, fk)
        if proc == "require":
            if args[0] is False:
                raise _Failed(fk)
            return sk(args[0], fk)
        if proc == "display":
            self.output.append(self.write(args[0]))
            return sk(_VOID, fk)
        return sk(proc(*args), fk)


def _items_of(datum):
    items = []
    while isinstance(datum, Pair):
        items.append(datum.car)
        datum = datum.cdr
    return items
