"""Seeded inputs and independent oracles for the three benchmark workloads.

Each `generate_*` function takes a `random.Random` and a size scale and
returns the Scheme text ambit is fed plus the expected results, computed
here in plain Python and never by running ambit.  Each `run_*` function
performs one timed pass on a machine that `run.py` has already set up and
returns a `Pass`; the outputs are checked against the oracle after the clock
stops, so checking costs nothing in the timed section.
"""

import io
import threading
import time
from collections import namedtuple
from itertools import product

NO_MORE_CHOICES = "no more choices"


# What one timed pass did: wall time, work, per-request delays, checks.
Pass = namedtuple("Pass", "elapsed items responses ops failed")


def _scaled(full, scale, least):
    return max(least, int(full * scale))


# --- cps_deep: (sum n) in continuation-passing style ------------------------

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

# Acceptance criterion 2 uses a depth of 10^6, which takes 10-13 s per pass
# with Python 3.11 on a shared 2-vCPU host.  At 3 * 10^5 a pass takes about
# 3 s and the cyclic GC still takes over a tenth of the traced pass.
CPS_DEPTH = 300_000
CPS_STACK_BYTES = 512 * 1024


class CpsInputs:
    __slots__ = ("prelude", "depth", "expected")

    def __init__(self, depth):
        self.prelude = SUM_PROGRAM
        self.depth = depth
        self.expected = depth * (depth + 1) // 2


def generate_cps_deep(rng, scale=1.0):
    # The depth is the workload; the seed has nothing to vary.
    del rng
    return CpsInputs(_scaled(CPS_DEPTH, scale, 10))


def run_cps_deep(machine, inputs):
    """Evaluate (sum depth) on a thread with a 512 KiB stack."""
    result = {}
    text = f"(sum {inputs.depth})"

    def work():
        start = time.perf_counter()
        try:
            result["value"] = machine.eval_source(text)
        finally:
            result["elapsed"] = time.perf_counter() - start

    old_size = threading.stack_size(CPS_STACK_BYTES)
    try:
        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(old_size)
    elapsed = result["elapsed"]
    failed = int(result.get("value") != inputs.expected)
    return Pass(elapsed, inputs.depth, [elapsed * 1000.0], 1, failed)


# --- choose_exhaust: REPL-style exhaustion of choose/require programs -------

COLORS = ("red", "yellow", "blue", "white")
EUROPE = (
    ("portugal", ("spain",)),
    ("spain", ("france", "portugal")),
    ("france", ("spain", "italy", "switzerland", "belgium", "germany",
                "luxembourg")),
    ("belgium", ("france", "luxembourg", "germany")),
    ("germany", ("france", "switzerland", "belgium", "luxembourg")),
    ("luxembourg", ("france", "belgium", "germany")),
    ("italy", ("france", "switzerland")),
    ("switzerland", ("france", "italy", "germany")),
)

COLOR_MACRO = """
(define choose-color
  (lambda ()
    (choose 'red 'yellow 'blue 'white)))

(define-syntax color
  [(color ?country different from . ?neighbors)
   (require (not (member ?country (list . ?neighbors))))])
"""

PICK_PROGRAM = """
(define choose-among
  (lambda (alts)
    (if (null? alts)
        (choose)
        (choose (car alts) (choose-among (cdr alts))))))

(define pick
  (lambda (d alts)
    (if (= d 0)
        (choose-among alts)
        (+ 1 (pick (- d 1) alts)))))
"""


def color_map_program(adjacency):
    """The paper's map-coloring search over `adjacency`, as Scheme text."""
    countries = [c for c, _ in adjacency]
    bindings = "\n".join(f"          [{c} (choose-color)]" for c in countries)
    constraints = "\n".join(
        f"      (color {c} different from {' '.join(ns)})"
        for c, ns in adjacency)
    listing = " ".join(f"(list '{c} {c})" for c in countries)
    return (f"(define color-map\n  (lambda ()\n    (let (\n{bindings})\n"
            f"{constraints}\n      (list {listing}))))\n")


def coloring_solutions(adjacency):
    """Brute force over every assignment, in the machine's depth-first
    order: countries bind left to right, so the last one varies fastest."""
    countries = [c for c, _ in adjacency]
    out = []
    for combo in product(COLORS, repeat=len(countries)):
        colour = dict(zip(countries, combo))
        if all(colour[c] not in [colour[n] for n in ns] for c, ns in adjacency):
            out.append("(" + " ".join(f"({c} {k})" for c, k in
                                      zip(countries, combo)) + ")")
    return out


def _choose_tree(rng, depth):
    """Nested choose over integer literals: (text, leaves in order)."""
    if depth == 0 or rng.random() < 0.35:
        leaf = rng.randint(0, 9)
        return str(leaf), [leaf]
    children = [_choose_tree(rng, depth - 1) for _ in range(rng.randint(1, 4))]
    text = "(choose " + " ".join(t for t, _ in children) + ")"
    return text, [leaf for _, leaves in children for leaf in leaves]


def _predicate(rng, nvars):
    """One require test: (Scheme text, equivalent Python check)."""
    kind = rng.randrange(5)
    i, j, c = rng.randrange(nvars), rng.randrange(nvars), rng.randint(0, 9)
    if kind == 0:
        return f"(> x{i} x{j})", lambda vs: vs[i] > vs[j]
    if kind == 1:
        return f"(< x{i} {c})", lambda vs: vs[i] < c
    if kind == 2:
        modulus = rng.randint(2, 4)
        r = rng.randrange(modulus)
        return (f"(= (modulo x{i} {modulus}) {r})",
                lambda vs: vs[i] % modulus == r)
    if kind == 3:
        return f"(not (= x{i} x{j}))", lambda vs: vs[i] != vs[j]
    members = sorted({rng.randint(0, 9) for _ in range(rng.randint(1, 4))})
    text = f"(member x{i} '({' '.join(map(str, members))}))"
    return text, lambda vs: vs[i] in members


def search_program(rng):
    """A random generate-and-test program and its solutions, enumerated
    depth-first and left to right like the machine's choice points."""
    nvars = rng.randint(1, 3)
    trees = [_choose_tree(rng, rng.randint(1, 3)) for _ in range(nvars)]
    tests = [_predicate(rng, nvars) for _ in range(rng.randint(1, 3))]
    bindings = " ".join(f"(x{i} {text})" for i, (text, _) in enumerate(trees))
    requires = " ".join(f"(require {text})" for text, _ in tests)
    listing = " ".join(f"x{i}" for i in range(nvars))
    program = f"(let ({bindings}) {requires} (list {listing}))"
    expected = ["(" + " ".join(map(str, combo)) + ")"
                for combo in product(*(leaves for _, leaves in trees))
                if all(check(combo) for _, check in tests)]
    return program, expected


# Random programs are drawn until each has the number of solutions its slot
# asks for, so every seed gives the same number of solutions and requests.
SEARCH_SOLUTION_COUNTS = (0, 0, 0, 0, 0, 1, 2, 3, 4, 6)


def search_program_with(rng, solutions):
    while True:
        program, expected = search_program(rng)
        if len(expected) == solutions:
            return program, expected


def deep_program(rng, depth):
    """`choose` reached under non-tail recursion `depth` levels deep, with
    one of its four alternatives rejected by `require`."""
    alts = rng.sample(range(100), 4)
    banned = depth + rng.choice(alts)
    program = (f"(let ((x (pick {depth} '({' '.join(map(str, alts))}))))"
               f" (require (not (= x {banned}))) x)")
    expected = [str(depth + a) for a in alts if depth + a != banned]
    return program, expected


class ChooseInputs:
    __slots__ = ("prelude", "programs")

    def __init__(self, prelude, programs):
        self.prelude = prelude
        self.programs = programs  # [(first form, [expected solution text])]


def generate_choose_exhaust(rng, scale=1.0):
    adjacency = EUROPE if scale >= 1.0 else (
        ("portugal", ("spain",)), ("spain", ("france", "portugal")),
        ("france", ("spain",)))
    programs = [("(color-map)", coloring_solutions(adjacency))]
    slots = list(SEARCH_SOLUTION_COUNTS * _scaled(10, scale, 1))
    rng.shuffle(slots)
    programs += [search_program_with(rng, n) for n in slots]
    # depths evenly spaced from a tenth of the deepest up to it, so the
    # seed changes the values but not the amount of work
    deepest, count = _scaled(3000, scale, 20), _scaled(40, scale, 2)
    programs += [deep_program(rng, deepest // 10 + (deepest - deepest // 10)
                              * k // (count - 1))
                 for k in range(count)]
    prelude = COLOR_MACRO + color_map_program(adjacency) + PICK_PROGRAM
    return ChooseInputs(prelude, programs)


def run_choose_exhaust(machine, inputs):
    """eval_source each program, then (choose) until "no more choices"."""
    from ambit import write_value

    clock = time.perf_counter
    eval_source = machine.eval_source
    responses = []
    produced = []
    start = clock()
    for program, expected in inputs.programs:
        # a wrong machine could enumerate forever; two extra answers are
        # enough to show the mismatch
        budget = len(expected) + 2
        values = []
        text = program
        while budget:
            t0 = clock()
            value = eval_source(text)
            responses.append((clock() - t0) * 1000.0)
            values.append(value)
            if value == NO_MORE_CHOICES:
                break
            text = "(choose)"
            budget -= 1
        produced.append(values)
    elapsed = clock() - start
    ops = failed = solutions = 0
    for (_, expected), values in zip(inputs.programs, produced):
        got = [NO_MORE_CHOICES if v == NO_MORE_CHOICES else write_value(v)
               for v in values]
        want = expected + [NO_MORE_CHOICES]
        solutions += len(values) - 1
        ops += len(want)
        failed += _mismatches(got, want)
    return Pass(elapsed, solutions, responses, ops, failed)


def _mismatches(got, want):
    """Positions where `got` differs from `want`, counting missing or extra
    entries as mismatches."""
    same = sum(1 for g, w in zip(got, want) if g == w)
    return max(len(got), len(want)) - same


# --- repl_load: a generated transcript through cli.repl_loop ----------------

class ReplInputs:
    __slots__ = ("prelude", "lines", "forms", "outputs", "errors")

    def __init__(self, lines, forms, outputs, errors):
        self.prelude = ""
        self.lines = lines      # transcript, one str per input line
        self.forms = forms      # top-level forms in the transcript
        self.outputs = outputs  # expected stdout lines, in order
        self.errors = errors    # expected (error line, frame count) pairs


def _scheme_list(items):
    return "(" + " ".join(str(x) for x in items) + ")"


def _bool(flag):
    return "#t" if flag else "#f"


def _def_let(rng, i):
    c1, c2, c3 = rng.randint(1, 20), rng.randint(2, 9), rng.randint(-9, 9)
    text = f"""(define calc-{i}
  (lambda (x y)
    (let* ((a (+ x {c1}))
           (b (* a {c2})))
      (let ((c (- b y))
            (d {c3}))
        (+ c d)))))"""
    calls = []
    for _ in range(2):
        x, y = rng.randint(-50, 50), rng.randint(-50, 50)
        calls.append((f"(calc-{i} {x} {y})", str((x + c1) * c2 - y + c3)))
    return [text], calls


def _def_letrec(rng, i):
    first = rng.randint(0, 3)
    text = f"""(define sumsq-{i}
  (lambda (n)
    (letrec ((loop (lambda (k acc)
                     (if (> k n)
                         acc
                         (loop (+ k 1) (+ acc (* k k)))))))
      (loop {first} 0))))"""
    n = rng.randint(5, 40)
    return [text], [(f"(sumsq-{i} {n})",
                     str(sum(k * k for k in range(first, n + 1))))]


def _def_cond(rng, i):
    low = rng.randint(0, 40)
    mid = low + rng.randint(1, 40)
    exact = mid + rng.randint(0, 10)
    text = f"""(define classify-{i}
  (lambda (x)
    (cond ((< x {low}) 'low)
          ((< x {mid}) 'mid)
          ((= x {exact}) 'exact)
          (else 'high))))"""

    def classify(x):
        if x < low:
            return "low"
        if x < mid:
            return "mid"
        return "exact" if x == exact else "high"

    probes = [rng.randint(0, 100), rng.randint(0, 100), exact]
    return [text], [(f"(classify-{i} {x})", classify(x)) for x in probes]


def _def_quasi(rng, i):
    tag = rng.choice(("north", "south", "east", "west"))
    text = f"""(define pack-{i}
  (lambda (a b)
    `(pack {i} ,a (sum ,(+ a b))
       ,@(list a b) {tag})))"""
    a, b = rng.randint(-99, 99), rng.randint(-99, 99)
    return [text], [(f"(pack-{i} {a} {b})",
                     f"(pack {i} {a} (sum {a + b}) {a} {b} {tag})")]


def _def_unless_macro(rng, i):
    limit, factor = rng.randint(0, 50), rng.randint(2, 7)
    macro = f"""(define-syntax unless-{i}
  [(unless-{i} ?test . ?body) (if ?test #f (begin . ?body))])"""
    text = f"""(define guard-{i}
  (lambda (x)
    (unless-{i} (> x {limit})
      (* x {factor}))))"""
    calls = []
    for _ in range(2):
        x = rng.randint(0, 100)
        calls.append((f"(guard-{i} {x})",
                      "#f" if x > limit else str(x * factor)))
    return [macro, text], calls


def _def_all_macro(rng, i):
    low = rng.randint(0, 40)
    high = low + rng.randint(2, 40)
    skip = rng.randint(low, high)
    macro = f"""(define-syntax all-{i}
  [(all-{i}) #t]
  [(all-{i} ?e) ?e]
  [(all-{i} ?e . ?rest) (if ?e (all-{i} . ?rest) #f)])"""
    text = f"""(define in-range-{i}
  (lambda (x)
    (all-{i} (> x {low})
             (< x {high})
             (not (= x {skip})))))"""
    probes = [rng.randint(0, 90), skip]
    return [macro, text], [(f"(in-range-{i} {x})",
                            _bool(low < x < high and x != skip))
                           for x in probes]


def _def_map(rng, i):
    factor = rng.randint(-5, 9)
    items = [rng.randint(-20, 20) for _ in range(5)]
    text = f"""(define scale-{i}
  (lambda (lst)
    (map (lambda (v) (* v {factor}))
         lst)))"""
    return [text], [(f"(scale-{i} '{_scheme_list(items)})",
                     _scheme_list(v * factor for v in items))]


def _def_string(rng, i):
    tag = rng.choice(("alpha", "beta", "gamma"))
    text = f"""(define label-{i}
  (lambda (n)
    (string-append "item-" (number->string n)
                   "-{tag}")))"""
    n = rng.randint(0, 9999)
    # a top-level string result prints bare
    return [text], [(f"(label-{i} {n})", f"item-{n}-{tag}")]


def _def_car_error(rng, i):
    depth = rng.randint(0, 60)
    text = f"""(define dig-{i}
  (lambda (n)
    (if (= n 0)
        (car '())
        (+ 1 (dig-{i} (- n 1))))))"""
    # one pending frame per call: dig-i with depth, depth-1, ..., 0
    return [text], [(f"(dig-{i} {depth})",
                     ("car: expected a pair, got ()", depth + 1))]


def _def_unbound_error(rng, i):
    depth = rng.randint(0, 60)
    text = f"""(define probe-{i}
  (lambda (n)
    (if (= n 0)
        missing-{i}
        (* 2 (probe-{i} (- n 1))))))"""
    return [text], [(f"(probe-{i} {depth})",
                     (f"UnboundVariable: missing-{i}", depth + 1))]


_VALUE_TEMPLATES = (_def_let, _def_letrec, _def_cond, _def_quasi,
                    _def_unless_macro, _def_all_macro, _def_map, _def_string)
_ERROR_TEMPLATES = (_def_car_error, _def_unbound_error)
# A cycle uses every value template twice and every error template once, so
# the scale alone fixes the transcript's size and number of checks; the seed
# picks the order and the constants.
_CYCLE = _VALUE_TEMPLATES * 2 + _ERROR_TEMPLATES
REPL_CYCLES = 25


def generate_repl_load(rng, scale=1.0):
    """A REPL transcript of definitions, checked calls and failing calls.

    Expected error frame counts assume stack tracing is on; `run_repl_load`
    expects none when the machine runs with tracing off.
    """
    lines, outputs, errors = [], [], []
    forms = 0
    templates = list(_CYCLE * _scaled(REPL_CYCLES, scale, 1))
    rng.shuffle(templates)
    for i, template in enumerate(templates):
        failing = template in _ERROR_TEMPLATES
        texts, calls = template(rng, i)
        for text in texts:
            lines.extend(line + "\n" for line in text.split("\n"))
            lines.append("\n")
        for call, expected in calls:
            lines.append(call + "\n")
            (errors if failing else outputs).append(expected)
        forms += len(texts) + len(calls)
    return ReplInputs(lines, forms, outputs, errors)


class _Lines:
    """stdin for repl_loop that stamps the clock at every readline, so the
    gap between stamps is the delay the user waits after each line."""

    def __init__(self, lines):
        self._lines = iter(lines)
        self.stamps = []

    def readline(self):
        self.stamps.append(time.perf_counter())
        return next(self._lines, "")


class _Writes:
    """stderr for repl_loop that keeps every write apart."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)

    def flush(self):
        pass


def parse_traceback(text):
    """(error line, pending frame count) of one rendered traceback."""
    lines = text.rstrip("\n").split("\n")
    frames = 0
    for line in lines[:-1]:
        if line.startswith("  File ") or line.startswith("  In "):
            frames += 1
        elif line.startswith("  [") and line.endswith(" frames elided]"):
            frames += int(line[3:].split(" ", 1)[0])
    return lines[-1], frames


def run_repl_load(machine, inputs):
    """Feed the transcript through cli.repl_loop with in-memory streams."""
    from ambit import cli

    stdin, stdout, stderr = _Lines(inputs.lines), io.StringIO(), _Writes()
    start = time.perf_counter()
    cli.repl_loop(machine, stdin, stdout, stderr)
    elapsed = time.perf_counter() - start
    stamps = stdin.stamps
    responses = [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]
    prompts = (cli.PROMPT, cli.CONT_PROMPT)
    reported = [parse_traceback(p) for p in stderr.parts if p not in prompts]
    tracing = machine.trace.config.enabled
    want_errors = [(line, frames if tracing else 0)
                   for line, frames in inputs.errors]
    got = stdout.getvalue().split("\n")[:-1]
    ops = len(inputs.outputs) + len(want_errors)
    failed = (_mismatches(got, inputs.outputs)
              + _mismatches(reported, want_errors))
    return Pass(elapsed, inputs.forms, responses, ops, failed)


WORKLOADS = {
    "cps_deep": (generate_cps_deep, run_cps_deep),
    "choose_exhaust": (generate_choose_exhaust, run_choose_exhaust),
    "repl_load": (generate_repl_load, run_repl_load),
}
