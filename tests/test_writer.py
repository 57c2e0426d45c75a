import random

from helpers import gen_literal

from ambit import NIL, equal, intern, read_all, write_value
from ambit.values import Pair, scheme_list
from ambit.writer import display_value


def test_atoms():
    assert write_value(42) == "42"
    assert write_value(-1.5) == "-1.5"
    assert write_value(True) == "#t"
    assert write_value(False) == "#f"
    assert write_value(intern("abc")) == "abc"
    assert write_value(NIL) == "()"


def test_dotted_pair_rendering():
    value = Pair(1, Pair(2, 3))
    assert write_value(value) == "(1 2 . 3)"


def test_nested_list_rendering():
    value = scheme_list(1, scheme_list(2, 3), intern("x"))
    assert write_value(value) == "(1 (2 3) x)"


def test_vector_rendering():
    assert write_value([1, [2], intern("a")]) == "#(1 #(2) a)"


def test_string_write_vs_display():
    assert write_value('a"b\n') == '"a\\"b\\n"'
    assert display_value('a"b\n') == 'a"b\n'


def test_display_recurses_into_structures():
    value = scheme_list("hi", intern("x"))
    assert write_value(value) == '("hi" x)'
    assert display_value(value) == "(hi x)"


def test_procedure_rendering(machine):
    closure = machine.eval_source("(define f (lambda (x) x)) f")
    assert write_value(closure) == "#<procedure f>"
    assert write_value(machine.eval_source("(lambda (x) x)")) == "#<procedure>"
    assert write_value(machine.eval_source("car")) == "#<primitive car>"


def test_self_referential_vector_hits_depth_cap():
    vec = [1]
    vec.append(vec)
    text = write_value(vec)
    assert "#<too-deep>" in text


def test_deep_data_is_written_so_that_it_reads_back():
    # 5,000 levels, far past the host's recursion limit
    nested_list, nested_vector = 0, 0
    for _ in range(5000):
        nested_list = scheme_list(nested_list)
        nested_vector = [Pair(1, 2), nested_vector]
    for value in (nested_list, nested_vector):
        text = write_value(value)
        assert "#<too-deep>" not in text
        assert equal(read_all(text)[0].value, value)


def test_only_a_vector_inside_itself_is_cut_short(machine):
    shared = [1]
    assert write_value(scheme_list(shared, [shared])) == "(#(1) #(#(1)))"
    machine.eval_source("(define v (vector 1)) (vector-set! v 0 (list v 2))")
    assert write_value(machine.eval_source("v")) == "#((#<too-deep> 2))"


def test_roundtrip_unit_sample():
    rng = random.Random(7)
    for _ in range(200):
        value = gen_literal(rng, 3)
        reread = read_all(write_value(value))
        assert len(reread) == 1
        assert equal(reread[0].value, value)


def test_equal_is_an_equivalence_relation():
    rng = random.Random(11)
    values = [gen_literal(rng, 2) for _ in range(40)]
    for v in values:
        assert equal(v, v)
    for a in values:
        for b in values:
            assert equal(a, b) == equal(b, a)
    # transitivity spot check over structurally regenerated twins
    for v in values:
        twin = read_all(write_value(v))[0].value
        triplet = read_all(write_value(twin))[0].value
        assert equal(v, twin) and equal(twin, triplet) and equal(v, triplet)


def test_source_text_roundtrip():
    sources = [
        "(a (b . c) #(1 2.5 \"s\") 'q ())",
        "(1 -2 +3 4.5 -6.7e2 #t #f)",
        '("line\\nbreak" "tab\\there")',
    ]
    for text in sources:
        first = read_all(text)[0].value
        again = read_all(write_value(first))[0].value
        assert equal(first, again)
