import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    AND_OR_MACROS, BOOT_LET_MACROS, LET_HELPER_MACROS, exhaust_choices,
)

from ambit import Machine, equal, intern, read_all, write_value
from ambit.errors import FormError, MacroError
from ambit.forms import (
    AppExpr, BeginExpr, ChooseExpr, DefineExpr, GlobalRef, IfExpr,
    LambdaExpr, Literal, LocalRef0, LocalRef1, PrimApp1, PrimApp2, PrimAppN,
    PrimCall, QuoteExpr, RequireStmt, VarRef, parse_core,
)
from ambit.syntax import (
    MacroClause, define_macro, expand, instantiate, match_pattern,
    parse_define_syntax,
)


def datum(text):
    datums = read_all(text)
    assert len(datums) == 1
    return datums[0].value


def table_with(*sources):
    table = {}
    for source in sources:
        for d in read_all(source):
            name, clauses = parse_define_syntax(d.value)
            define_macro(table, name, clauses)
    return table


def show(core):
    """Scheme text for the core forms these tests produce."""
    if isinstance(core, VarRef):
        return core.name.name
    if isinstance(core, Literal):
        return write_value(core.value)
    if isinstance(core, QuoteExpr):
        return f"(quote {write_value(core.datum)})"
    if isinstance(core, IfExpr):
        parts = [core.test, core.then] + ([core.alt] if core.alt else [])
        return "(if " + " ".join(map(show, parts)) + ")"
    if isinstance(core, LambdaExpr):
        params = " ".join(p.name for p in core.params)
        return f"(lambda ({params}) " + " ".join(map(show, core.body)) + ")"
    if isinstance(core, DefineExpr):
        return f"(define {core.name.name} {show(core.expr)})"
    if isinstance(core, BeginExpr):
        return "(begin " + " ".join(map(show, core.body)) + ")"
    if isinstance(core, ChooseExpr):
        return "(choose " + " ".join(map(show, core.exprs)) + ")"
    assert isinstance(core, AppExpr)
    return "(" + " ".join(map(show, (core.op,) + core.args)) + ")"


def test_match_or_pattern_binds_head_and_rest():
    bindings = match_pattern(datum("(or ?first-exp . ?other-exps)"),
                             datum("(or a b c d)"))
    assert bindings is not None
    assert bindings[intern("?first-exp")] is intern("a")
    assert equal(bindings[intern("?other-exps")], datum("(b c d)"))


def test_match_single_clause():
    bindings = match_pattern(datum("(and ?exp)"), datum("(and x)"))
    assert bindings == {intern("?exp"): intern("x")}


def test_match_head_symbol_mismatch():
    assert match_pattern(datum("(f ?x)"), datum("(g 1)")) is None


def test_match_rest_variable_accepts_empty_tail():
    bindings = match_pattern(datum("(f ?x . ?rest)"), datum("(f 1)"))
    assert bindings[intern("?x")] == 1
    assert bindings[intern("?rest")] is datum("()")


def test_match_literals_by_equality():
    assert match_pattern(datum("(f 1 \"s\")"), datum("(f 1 \"s\")")) == {}
    assert match_pattern(datum("(f 1)"), datum("(f 2)")) is None


def test_keyword_symbols_match_only_themselves():
    pattern = datum("(color ?country different from . ?neighbors)")
    good = match_pattern(pattern,
                         datum("(color luxembourg different from a b)"))
    assert good is not None
    assert match_pattern(pattern, datum("(color luxembourg same as a)")) is None


def test_instantiate_or_template():
    template = datum("(if ?first-exp #t (or . ?other-exps))")
    bindings = {intern("?first-exp"): intern("a"),
                intern("?other-exps"): datum("(b c d)")}
    assert equal(instantiate(template, bindings),
                 datum("(if a #t (or b c d))"))


def test_instantiate_bare_variable():
    assert equal(instantiate(datum("?exp"), {intern("?exp"): datum("(+ 1 2)")}),
                 datum("(+ 1 2)"))


def test_instantiate_constraint_template():
    template = datum("(require (not (member ?country (list . ?neighbors))))")
    bindings = {intern("?country"): intern("luxembourg"),
                intern("?neighbors"): datum("(france belgium germany)")}
    expected = datum(
        "(require (not (member luxembourg (list france belgium germany))))")
    assert equal(instantiate(template, bindings), expected)


def test_instantiate_unbound_variable_errors():
    with pytest.raises(MacroError):
        instantiate(datum("?missing"), {})


def test_match_instantiate_coherence():
    cases = [
        ("(or ?first . ?rest)", "(or a b c)"),
        ("(f ?x (g ?y) . ?z)", "(f 1 (g 2) 3 4)"),
        ("(m ?a)", "(m (nested (deep)))"),
    ]
    for pattern_text, form_text in cases:
        pattern = datum(pattern_text)
        form = datum(form_text)
        bindings = match_pattern(pattern, form)
        assert bindings is not None
        assert equal(instantiate(pattern, bindings), form)


def test_define_macro_registers_clauses():
    table = table_with(AND_OR_MACROS)
    assert len(table.get(intern("and"))) == 2
    assert len(table.get(intern("or"))) == 2


def test_define_macro_footnote_let_pair():
    table = table_with(LET_HELPER_MACROS)
    assert table.get(intern("let")) is not None
    assert table.get(intern("let-helper")) is not None


def test_redefinition_replaces_clauses():
    table = table_with(AND_OR_MACROS)
    for d in read_all("(define-syntax and [(and ?e) ?e])"):
        name, clauses = parse_define_syntax(d.value)
        define_macro(table, name, clauses)
    assert len(table.get(intern("and"))) == 1


def test_reserved_special_forms_rejected():
    clause = MacroClause(datum("(if ?x)"), datum("?x"))
    with pytest.raises(MacroError):
        define_macro({}, intern("if"), [clause])


def test_duplicate_pattern_variable_rejected():
    clause = MacroClause(datum("(m ?x ?x)"), datum("?x"))
    with pytest.raises(MacroError):
        define_macro({}, intern("m"), [clause])


def test_template_variable_missing_from_pattern_rejected():
    clause = MacroClause(datum("(m ?x)"), datum("(?x ?y)"))
    with pytest.raises(MacroError):
        define_macro({}, intern("m"), [clause])


def test_bad_clause_shapes_rejected():
    table = {}
    with pytest.raises(MacroError):
        define_macro(table, intern("m"),
                     [MacroClause(intern("m"), datum("1"))])
    with pytest.raises(MacroError):
        define_macro(table, intern("m"),
                     [MacroClause(datum("(other ?x)"), datum("?x"))])
    with pytest.raises(MacroError):
        define_macro(table, intern("m"), [])


def test_expand_or_to_nested_ifs():
    # expand rewrites the head only; parse_core expands the rest in place
    table = table_with(AND_OR_MACROS)
    form = datum("(or a b c d)")
    assert equal(expand(form, table), datum("(if a #t (or b c d))"))
    assert show(parse_core(form, table)) == "(if a #t (if b #t (if c #t d)))"


def test_expand_and_to_nested_ifs():
    table = table_with(AND_OR_MACROS)
    form = datum("(and a b c)")
    assert equal(expand(form, table), datum("(if a (and b c) #f)"))
    assert show(parse_core(form, table)) == "(if a (if b c #f) #f)"


def test_expand_footnote_let_reverses_bindings():
    table = table_with(LET_HELPER_MACROS)
    form = datum("(let ((x 1) (y 2)) (+ x y))")
    assert equal(expand(form, table), datum("((lambda (y x) (+ x y)) 2 1)"))
    assert show(parse_core(form, table)) == "((lambda (y x) (+ x y)) 2 1)"


def test_expand_quote_is_opaque():
    table = table_with(AND_OR_MACROS)
    form = datum("(quote (or a b))")
    core = parse_core(form, table)
    assert type(core) is QuoteExpr and core.datum is form.cdr.car


def test_expand_inside_quasiquote_only_under_unquote():
    machine = Machine(stdout=io.StringIO())
    machine.eval_source("(define-syntax m [(m ?x) (list ?x ?x)])")
    value = machine.eval_source("`((m 1) ,(m 2) #((m 3) ,(m 4)))")
    assert write_value(value) == "((m 1) (2 2) #((m 3) (4 4)))"


def test_expand_nonmacro_form_unchanged():
    table = table_with(AND_OR_MACROS)
    form = datum("(f (g 1) 2)")
    assert expand(form, table) is form
    assert show(parse_core(form, table)) == "(f (g 1) 2)"


def test_expand_no_matching_clause_errors():
    table = table_with(AND_OR_MACROS)
    with pytest.raises(MacroError):
        expand(datum("(and)"), table)
    with pytest.raises(MacroError, match="no matching clause"):
        parse_core(datum("(f (lambda () (and)))"), table)


def test_malformed_core_form_reported_before_a_later_expansion_error():
    # macro uses are expanded in parse order, so the malformed `if` is the
    # first error met, although its own test could not be expanded
    table = table_with(AND_OR_MACROS)
    with pytest.raises(FormError, match="malformed if"):
        parse_core(datum("(if (and) 1 2 3)"), table)


def test_expand_fuel_exhaustion():
    table = table_with("(define-syntax loop [(loop ?x) (loop ?x)])")
    for text in ("(loop 1)", "(f (loop 1))"):
        with pytest.raises(MacroError) as excinfo:
            parse_core(datum(text), table)
        assert excinfo.value.label == "ExpansionError"
        assert "fuel" in str(excinfo.value)


def test_fuel_is_counted_per_macro_use():
    # each use takes three expansions; 3400 of them in one form exceed a
    # budget shared by the whole form, but not one per macro use
    machine = Machine(stdout=io.StringIO())
    machine.eval_source("""
        (define-syntax three
          [(three) (three 1)] [(three ?a) (three ?a 2)] [(three ?a ?b) ?a])
    """)
    assert machine.eval_source("(begin" + " (three)" * 3400 + ")") == 1


def test_expansion_is_deterministic():
    table = table_with(AND_OR_MACROS, LET_HELPER_MACROS)
    text = "(let ((a (or 1 2))) (and a a))"
    one = show(parse_core(datum(text), table))
    two = show(parse_core(datum(text), table))
    assert one == two == "((lambda (a) (if a a #f)) (if 1 #t 2))"


def test_macro_in_operand_position_not_expanded():
    table = table_with("(define-syntax m [(m ?x) ?x])")
    form = datum("(f m 1)")
    assert expand(form, table) is form
    core = parse_core(form, table)
    assert isinstance(core.args[0], VarRef)
    assert core.args[0].name is intern("m")
    assert show(core) == "(f m 1)"


# --- the built-in let family against the reference macros -------------------


def _expr(draw, names, depth, heads):
    """An expression that reads only `names`, each bound or defined before
    the expression runs, with let-family forms nested up to `depth`."""
    kinds = ["int"] + ["var"] * bool(names) + ["choose", "add", "let"] * (
        depth > 0)
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return str(draw(st.integers(0, 9)))
    if kind == "var":
        return draw(st.sampled_from(sorted(names)))
    if kind == "choose":
        alternatives = [_expr(draw, names, depth - 1, heads)
                        for _ in range(draw(st.integers(1, 2)))]
        return "(choose " + " ".join(alternatives) + ")"
    if kind == "add":
        return (f"(+ {_expr(draw, names, depth - 1, heads)} "
                f"{_expr(draw, names, depth - 1, heads)})")
    return _let_form(draw, names, depth, heads)


def _let_form(draw, names, depth, heads):
    head = draw(st.sampled_from(heads))
    bound = draw(st.lists(st.sampled_from("abc"), unique=True, max_size=3))
    defined = draw(st.lists(st.sampled_from("uw"), unique=True, max_size=2))
    bindings = []
    for i, name in enumerate(bound):
        if head == "let":
            visible = names
        elif head == "let*":
            visible = names | set(bound[:i])
        else:
            # letrec binds its names and the body's defines in one frame
            visible = names - set(bound) - set(defined) | set(bound[:i])
        init = _expr(draw, visible, depth - 1, heads)
        bindings.append(f"({name} {init})")
    visible = names | set(bound)
    body = []
    for i, name in enumerate(defined):
        init = _expr(draw, visible - set(defined[i:]), depth - 1, heads)
        body.append(f"(define {name} {init})")
    visible |= set(defined)
    if draw(st.booleans()):
        body.append(f"(display {_expr(draw, visible, depth - 1, heads)})")
    body.append(_expr(draw, visible, depth - 1, heads))
    return f"({head} ({' '.join(bindings)}) {' '.join(body)})"


@st.composite
def let_programs(draw, heads):
    return _let_form(draw, frozenset(), draw(st.integers(1, 3)), heads)


@settings(max_examples=200, deadline=None)
@given(let_programs(("let", "let*")))
def test_let_lowering_matches_the_reference_macros(text):
    form = datum(text)
    reference = table_with(BOOT_LET_MACROS)
    assert show(parse_core(form, {})) == show(parse_core(form, reference))


@settings(max_examples=100, deadline=None)
@given(let_programs(("let", "let*", "letrec")))
@example("(let* ((a 1) (b (begin (define z 2) (+ a z)))) (+ b z))")
def test_letrec_lowering_runs_like_the_reference_macros(text):
    # letrec's body is flat now, where the macros nested a begin per
    # binding, so the two are compared by what they compute and print
    runs = []
    for macros in ((), (BOOT_LET_MACROS,)):
        machine = Machine(stdout=io.StringIO())
        for source in macros:
            machine.eval_source(source)
        values = [write_value(v) for v in exhaust_choices(machine, text)]
        runs.append((values, machine.stdout.getvalue()))
    assert runs[0] == runs[1]


# --- the node class parse_core picks -----------------------------------------


def core_of(text):
    machine = Machine(stdout=io.StringIO())
    return parse_core(datum(text), machine.macros, "<test>", machine.globals)


def test_references_are_classed_by_depth():
    core = core_of("(lambda (a) (lambda (b) (lambda (c) (f a b c g))))")
    app = core.body[0].body[0].body[0]
    assert [type(node) for node in (app.op,) + app.args] == [
        GlobalRef, VarRef, LocalRef1, LocalRef0, GlobalRef]
    # a body define's slot is local too
    core = core_of("(lambda () (define d 1) d)")
    assert type(core.body[1]) is LocalRef0
    # without the global table, references are still classed
    core = parse_core(datum("(lambda (a) (+ a b))"), {})
    assert [type(node) for node in (core.body[0].op,) + core.body[0].args] \
        == [GlobalRef, LocalRef0, GlobalRef]
    assert type(core.body[0]) is AppExpr


def test_inline_primitive_applications_are_classed_by_operand_count():
    core = core_of("(lambda (x) (list (car x) (+ x 1) (list) (list 1 2 3) "
                   "(not (= x (car x)))))")
    app = core.body[0]
    assert type(app) is PrimAppN
    assert [type(arg) for arg in app.args] == [
        PrimApp1, PrimApp2, PrimAppN, PrimAppN, PrimApp1]
    assert app.prim.name == "list"


def test_other_applications_of_primitives_are_prim_calls():
    core = core_of("(lambda (x) (begin (display x) (+ 1 (f x)) "
                   "(car (choose x 1))))")
    assert [type(node) for node in core.body[0].body] == [
        PrimCall, PrimCall, PrimCall]
    assert core.body[0].body[1].prim.name == "+"


def test_applications_left_generic():
    # a closure, a local operator, a wrong arity, a control primitive
    core = core_of("(lambda (car) (list (f 1) (car 1) (cdr 1 2) "
                   "(apply f '())))")
    assert type(core.body[0]) is PrimCall
    assert [type(arg) for arg in core.body[0].args] == [AppExpr] * 4
    assert all(arg.prim is None for arg in core.body[0].args)


def test_require_in_a_body_before_its_last_form_is_a_statement():
    core = core_of("(lambda (x) (require x) (require (car x)) "
                   "(list (require x)) (require x))")
    assert [type(node) for node in core.body] == [
        RequireStmt, RequireStmt, PrimApp1, PrimApp1]
    assert type(core.body[2].args[0]) is PrimApp1
    core = core_of("(begin (require #t) (cond (#t (require #t) 1)) "
                   "(let ((y 1)) (require y) (require (f y)) y))")
    assert type(core.body[0]) is RequireStmt
    assert type(core.body[1].then.body[0]) is RequireStmt
    let_body = core.body[2].op.body
    assert [type(node) for node in let_body] == [
        RequireStmt, PrimCall, LocalRef0]
