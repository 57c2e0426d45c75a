"""Shared program texts and independent oracles used across the test suite.

The oracles deliberately avoid the interpreter: the map-coloring enumerator
and the choose-tree enumerator are plain Python, so they can vouch for the
machine's backtracking order.
"""

import threading
from itertools import product

from ambit import write_value
from ambit.values import NIL, Pair

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
