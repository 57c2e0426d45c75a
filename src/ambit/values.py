"""Runtime data model: symbols, pairs, closures, continuations.

Scheme values map onto Python as follows: integers are int (kept within
signed 64-bit range by the arithmetic primitives), reals are float, booleans
are True/False, strings are str, vectors are Python lists.  Everything else
gets a dedicated class below.  A lambda's frame at run time is a plain list
of slots, slot 0 being the enclosing frame (see `forms`); globals live in a
dict keyed by symbol.
"""

from .errors import EvalError

INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1


class Symbol:
    """Interned identifier; identity comparison is `eq?`."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


_SYMBOLS = {}


def intern(name):
    sym = _SYMBOLS.get(name)
    if sym is None:
        # setdefault keeps interning single-winner under concurrent readers
        sym = _SYMBOLS.setdefault(name, Symbol(name))
    return sym


class Pair:
    """Mutable cons cell."""

    __slots__ = ("car", "cdr")

    def __init__(self, car, cdr):
        self.car = car
        self.cdr = cdr


class SourcePair(Pair):
    """Pair built by the reader; remembers where its datum started."""

    __slots__ = ("loc",)

    def __init__(self, car, cdr, loc=None):
        self.car = car
        self.cdr = cdr
        self.loc = loc


class _Unique:
    __slots__ = ("_label",)

    def __init__(self, label):
        self._label = label

    def __repr__(self):
        return self._label


NIL = _Unique("()")
VOID = _Unique("#<void>")

# Terminal element of the fail-continuation chain.
TERMINAL_FAIL = _Unique("#<terminal-fail>")

# Content of a body `define`'s frame slot until the `define` runs.
UNASSIGNED = _Unique("#<unassigned>")


class Closure:
    """User procedure: its compiled `LambdaExpr` and the defining frame.

    The frame is captured by reference, so later mutations of captured
    frames are visible to the closure.
    """

    __slots__ = ("lam", "env", "name")

    def __init__(self, lam, env, name=None):
        self.lam = lam
        self.env = env
        self.name = name


class Primitive:
    """Host-implemented procedure.

    Ordinary primitives are called as fn(machine, args) and their result is
    delivered to the current continuation.  Control primitives are called as
    fn(machine, args, k) and set the machine registers themselves.  `pure`
    marks primitives with no I/O or mutation; the machine may evaluate those
    inline in operand position.
    """

    __slots__ = ("name", "fn", "min_args", "max_args", "control", "pure")

    def __init__(self, name, fn, min_args, max_args, control=False,
                 pure=False):
        self.name = name
        self.fn = fn
        self.min_args = min_args
        self.max_args = max_args
        self.control = control
        self.pure = pure


class Cont:
    """A continuation as a Scheme value: what `call/cc` hands its receiver.

    The machine's own continuations are immutable tuples `(label, spine,
    *fields)` (see `machine`), which nothing but this wrapper lets a program
    see; applying it delivers to the tuple `k` it wraps, any number of
    times.
    """

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k


def scheme_list(*items):
    return list_from(items)


def list_from(items, tail=NIL):
    result = tail
    for item in reversed(items):
        result = Pair(item, result)
    return result


def is_proper_list(value):
    while isinstance(value, Pair):
        value = value.cdr
    return value is NIL


def to_pylist(value, who="list"):
    """Proper list -> Python list; raises for improper lists."""
    out = []
    while isinstance(value, Pair):
        out.append(value.car)
        value = value.cdr
    if value is not NIL:
        raise EvalError(who, "expected a proper list")
    return out


def eqv(x, y):
    if x is y:
        return True
    tx = type(x)
    if tx is not type(y):
        return False
    if tx is int or tx is float:
        return x == y
    return False


# `eq?` on numbers is made deterministic by behaving like `eqv?`; on symbols
# interning already guarantees identity.
eq = eqv


# `equal?`, `eqv?` and `eq?` hold between a symbol and a value only when the
# value is that symbol: interning gives each name one object.
BY_IDENTITY = Symbol


def equal(x, y):
    """`equal?`: pairs and vectors by structure, numbers by `eqv?`, strings
    by text, everything else by identity.

    Comparisons still to be made wait on an explicit list, so nesting never
    grows the host stack.  The list is made only when two cars are both
    pairs or both vectors; comparing atoms allocates nothing.  A cycle can
    only pass through a vector, so a pair of vectors met again is taken as
    equal, which ends the comparison of circular data (R7RS 6.1).
    """
    todo = seen = None
    while True:
        if x is not y:
            if isinstance(x, Pair):
                if not isinstance(y, Pair):
                    return False
                a, b = x.car, y.car
                x, y = x.cdr, y.cdr
                if a is not b:
                    ta = type(a)
                    if ta is int or ta is float or ta is str:
                        if type(b) is not ta or a != b:
                            return False
                    elif (isinstance(a, Pair) and isinstance(b, Pair)
                          or ta is list and type(b) is list):
                        if todo is None:
                            todo = []
                        todo.append((x, y))
                        x, y = a, b
                    else:
                        return False
                continue
            tx = type(x)
            if tx is list:
                if type(y) is not list or len(x) != len(y):
                    return False
                if seen is None:
                    seen, todo = set(), [] if todo is None else todo
                if (id(x), id(y)) not in seen:
                    seen.add((id(x), id(y)))
                    todo.extend(zip(reversed(x), reversed(y)))
            elif not ((tx is int or tx is float or tx is str)
                      and type(y) is tx and x == y):
                return False
        if not todo:
            return True
        x, y = todo.pop()
