"""define-syntax macros: unification pattern matching with `?`-variables.

A macro table is a plain dict from each macro name to its ordered list of
(pattern, template) clauses.  Patterns are plain list structure; a symbol
starting with `?` matches any single value, and a dotted tail variable
`(p1 . ?rest)` matches the whole remainder of the form.  Expansion is
deliberately non-hygienic: templates are instantiated by direct
substitution, so macros can capture variables.

`expand` rewrites one macro use at its head only.  `forms.parse_core` calls
it on each form it meets whose head names a macro, so only `forms` knows
which positions of a core form hold expressions.
"""

from .errors import MacroError
from .values import NIL, Pair, Symbol, equal, intern
from .writer import write_value

# Expansions one macro use may take before it counts as a runaway.
FUEL = 10_000

# Structural core forms a macro may not shadow.  `and`, `or`, `cond` and the
# let family are absent: they are expressible as macros, so user
# definitions take precedence over the built-in forms.  `call/cc` is a
# procedure, which a macro may shadow like any other global.
RESERVED_NAMES = frozenset({
    "quote", "quasiquote", "unquote", "unquote-splicing", "if", "define",
    "define!", "set!", "lambda", "begin", "choose", "define-syntax",
})

_S_DEFINE_SYNTAX = intern("define-syntax")


class MacroClause:
    __slots__ = ("pattern", "template")

    def __init__(self, pattern, template):
        self.pattern = pattern
        self.template = template


def match_pattern(pattern, form):
    """Match `form` against `pattern`; returns a bindings dict or None."""
    bindings = {}
    if _match(pattern, form, bindings):
        return bindings
    return None


def _match(pattern, form, bindings):
    if isinstance(pattern, Symbol):
        if pattern.name.startswith("?"):
            bindings[pattern] = form
            return True
        return pattern is form
    if isinstance(pattern, Pair):
        if not isinstance(form, Pair):
            return False
        return (_match(pattern.car, form.car, bindings)
                and _match(pattern.cdr, form.cdr, bindings))
    if pattern is NIL:
        return form is NIL
    return equal(pattern, form)


def instantiate(template, bindings):
    """Substitute bound `?`-variables into `template`.

    A dotted tail variable splices naturally: cons'ing onto its bound list
    yields a proper list again.
    """
    if isinstance(template, Symbol):
        if template.name.startswith("?"):
            try:
                return bindings[template]
            except KeyError:
                raise MacroError(
                    f"unbound pattern variable {template.name} in template",
                    label="ExpansionError") from None
        return template
    if isinstance(template, Pair):
        return Pair(instantiate(template.car, bindings),
                    instantiate(template.cdr, bindings))
    if isinstance(template, list):
        return [instantiate(item, bindings) for item in template]
    return template


def define_macro(table, name, clauses):
    """Validate `clauses` and (re)bind `name` in `table`."""
    if not isinstance(name, Symbol):
        raise MacroError("macro name must be a symbol")
    if name.name in RESERVED_NAMES:
        raise MacroError(f"cannot redefine special form '{name.name}'")
    if not clauses:
        raise MacroError(f"define-syntax {name.name}: needs at least one clause")
    for clause in clauses:
        pattern, template = clause.pattern, clause.template
        if not isinstance(pattern, Pair):
            raise MacroError(
                f"define-syntax {name.name}: pattern must be a list, got "
                f"{write_value(pattern)}")
        if pattern.car is not name:
            raise MacroError(
                f"define-syntax {name.name}: pattern head is "
                f"{write_value(pattern.car)}")
        seen = set()
        for var in _pattern_variables(pattern):
            if var in seen:
                raise MacroError(
                    f"define-syntax {name.name}: duplicate pattern variable "
                    f"{var.name}")
            seen.add(var)
        for var in _pattern_variables(template):
            if var not in seen:
                raise MacroError(
                    f"define-syntax {name.name}: template variable {var.name} "
                    f"does not occur in its pattern")
    table[name] = list(clauses)
    return table


def _pattern_variables(value):
    stack = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, Symbol):
            if node.name.startswith("?"):
                yield node
        elif isinstance(node, Pair):
            stack.append(node.car)
            stack.append(node.cdr)
        elif isinstance(node, list):
            stack.extend(node)


def parse_define_syntax(form):
    """Pick apart a (define-syntax name [pattern template] ...) datum."""
    if not isinstance(form, Pair) or form.car is not _S_DEFINE_SYNTAX:
        raise MacroError("not a define-syntax form")
    rest = form.cdr
    if not isinstance(rest, Pair) or not isinstance(rest.car, Symbol):
        raise MacroError("define-syntax: expected a macro name symbol")
    name = rest.car
    clauses = []
    node = rest.cdr
    while isinstance(node, Pair):
        clause = node.car
        if (not isinstance(clause, Pair)
                or not isinstance(clause.cdr, Pair)
                or clause.cdr.cdr is not NIL):
            raise MacroError(
                f"define-syntax {name.name}: each clause must be a "
                f"two-element [pattern template] list, got "
                f"{write_value(clause)}")
        clauses.append(MacroClause(clause.car, clause.cdr.car))
        node = node.cdr
    if node is not NIL:
        raise MacroError(f"define-syntax {name.name}: improper clause list")
    return name, clauses


def expand(form, table):
    """Expand the macro use `form` until its head is no longer a macro.

    Only the head is rewritten: the parser calls this on each form it meets
    whose head names a macro, so the subforms of the result are expanded when
    the parser reaches them.  One call makes at most FUEL expansions, so a
    runaway macro fails fast.
    """
    fuel = FUEL
    while isinstance(form, Pair) and isinstance(form.car, Symbol):
        clauses = table.get(form.car)
        if clauses is None:
            return form
        for clause in clauses:
            bindings = match_pattern(clause.pattern, form)
            if bindings is not None:
                break
        else:
            raise MacroError(
                f"no matching clause for {write_value(form)}",
                label="ExpansionError")
        if fuel <= 0:
            raise MacroError(
                "macro expansion fuel exhausted (runaway macro?) at "
                f"{write_value(form)}", label="ExpansionError")
        fuel -= 1
        form = instantiate(clause.template, bindings)
    return form
