from pathlib import Path

import pytest

import holim_engine.cli as cli_mod
from holim_engine.chaincx import betti_numbers
from holim_engine.dsl import Binding, Workspace, parse
from holim_engine.endkan import FinSetDiagram, hom_bifunctor
from holim_engine.errors import (DiagramError, DSquareNonzero, DuplicateLabel,
                                 EngineError, NotLoopFree, ParseError,
                                 UnknownBinding)
from holim_engine.fincat import from_poset, product_mor
from holim_engine.printer import pretty_print

CORPUS = Path(cli_mod.__file__).parent / "corpus"


ARROW_SRC = """
category C {
  objects: a, b
  arrows: f: a -> b
}
"""


def test_parse_arrow_category_with_composite():
    ws = parse("""
category C {
  objects: a, b, c
  arrows: f: a -> b, g: b -> c
}
""")
    C = ws.get("C", "category").value
    # identities + f + g + the auto-named composite g.f
    assert C.n_morphisms == 6
    assert "g.f" in C.mor_labels


def test_parse_relations_quotient():
    ws = parse("""
category C {
  objects: a, b, c
  arrows: f: a -> b, g: b -> c, h: a -> c
  relations: g.f = h
}
""")
    C = ws.get("C", "category").value
    # the composite g.f is identified with h: 3 identities + 3 arrows
    assert C.n_morphisms == 6
    f = C.mor_labels.index("f")
    g = C.mor_labels.index("g")
    h = C.mor_labels.index("h")
    assert C.comp(g, f) == h


def test_parse_rejects_cyclic_generators_without_table():
    n = 1100        # a cycle longer than the interpreter's recursion limit
    long_cycle = "category L {\n  objects: %s\n  arrows: %s\n}\n" % (
        ", ".join(f"o{i}" for i in range(n)),
        ", ".join(f"a{i}: o{i} -> o{(i + 1) % n}" for i in range(n)))
    for text in ("""
category M {
  objects: x
  arrows: e: x -> x
}
""", long_cycle):
        with pytest.raises(NotLoopFree):
            parse(text)


def test_parse_table_mode_allows_loops():
    ws = parse("""
category M {
  objects: x
  arrows: e: x -> x
  compose: e * e = id_x
}
""")
    M = ws.get("M", "category").value
    e = M.mor_labels.index("e")
    assert M.comp(e, e) == M.identity[0]


def test_parse_complex_and_d_square_error():
    ws = parse("""
complex K {
  degrees: 0..1
  dim 0: 2
  dim 1: 1
  d 1: [[1], [-1]]
}
""")
    K = ws.get("K", "complex").value
    assert dict(K.dims) == {0: 2, 1: 1}
    with pytest.raises(DSquareNonzero) as exc:
        parse("""
complex Bad {
  degrees: 0..2
  dim 0: 1
  dim 1: 1
  dim 2: 1
  d 1: [[1]]
  d 2: [[1]]
}
""")
    assert "Bad" in str(exc.value)


def test_unicode_minus_accepted():
    ws = parse("complex K { degrees: 0..1; dim 0: 1; dim 1: 1; "
               "d 1: [[−2]] }")
    K = ws.get("K", "complex").value
    assert K.d(1).entries[0][0] == -2


def test_parse_diagram_actions_derived():
    ws = parse("""
category C {
  objects: a, b, c
  arrows: f: a -> b, g: b -> c
}
diagram S over C into FinSet {
  at a: {x, y}
  at b: {u}
  at c: {w, z}
  on f: x -> u, y -> u
  on g: u -> w
}
""")
    S = ws.get("S", "diagram_finset").value
    C = S.base
    gf = C.mor_labels.index("g.f")
    assert S.actions[gf] == {"x": "w", "y": "w"}


def test_parse_functor_and_missing_entries():
    ws = parse(ARROW_SRC + """
category T { objects: t }
functor i : T -> C { t => a }
""")
    F = ws.get("i", "functor").value
    assert F.object_map == (0,)
    with pytest.raises(UnknownBinding):
        parse(ARROW_SRC + """
category T { objects: t }
functor j : T -> C { }
""")


def test_unknown_binding_and_duplicates():
    with pytest.raises(UnknownBinding):
        parse("diagram D over Nope into FinSet { }")
    with pytest.raises(ParseError):
        parse("category C { objects: a }\ncategory C { objects: b }")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("category C %")
    assert "line" in str(exc.value)


def test_zero_denominator_is_a_located_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("complex K {\n  degrees: 0..1\n  dim 0: 1\n  dim 1: 1\n"
              "  d 1: [[1/0]]\n}\n")
    assert (exc.value.line, exc.value.col) == (5, 10)


@pytest.mark.parametrize("pairs", ["x -> zz", "zz -> u", "x -> u, y -> v"])
def test_finset_action_outside_its_sets(pairs):
    src = ("category C { objects: a, b; arrows: f: a -> b }\n"
           "diagram S over C into FinSet {\n  at a: {x}\n  at b: {u, v}\n"
           f"  on f: {pairs}\n}}\n")
    with pytest.raises(EngineError) as exc:
        parse(src)
    assert "'f' must send {x} into {u, v}" in str(exc.value)
    assert "'S' (declared at line 2)" in str(exc.value)


@pytest.mark.parametrize("tail", ["x -> u,", "x ->"])
def test_input_ending_inside_a_finset_action_is_a_parse_error(tail):
    with pytest.raises(ParseError):
        parse("category C { objects: a, b; arrows: f: a -> b }\n"
              "diagram S over C into FinSet {\n  at a: {x}\n  at b: {u}\n"
              f"  on f: {tail}\n")


def _chain_diagrams_equal(D1, D2):
    if D1.base != D2.base:
        return False
    for x in D1.base.objects():
        if D1.value(x) != D2.value(x):
            return False
    for m in D1.base.morphisms():
        if D1.action(m) != D2.action(m):
            return False
    return True


@pytest.mark.parametrize("name", ["arrow.hle", "cospan.hle", "hom_end.hle"])
def test_roundtrip_corpus(name):
    src = (CORPUS / name).read_text()
    ws1 = parse(src)
    printed = pretty_print(ws1)
    ws2 = parse(printed)
    assert ws1.order == ws2.order
    for nm in ws1.order:
        b1, b2 = ws1.bindings[nm], ws2.bindings[nm]
        assert b1.kind == b2.kind
        if b1.kind == "diagram_ch":
            assert _chain_diagrams_equal(b1.value, b2.value)
        else:
            assert b1.value == b2.value
    # printing is idempotent
    assert pretty_print(ws2) == printed


def test_roundtrip_product_base():
    src = (CORPUS / "hom_end.hle").read_text()
    ws = parse(src)
    H = ws.get("H", "diagram_finset").value
    assert H.base.n_objects == 4
    printed = pretty_print(ws)
    assert "over op(C) * C" in printed


def test_corpus_loop_diagram_value():
    ws = parse((CORPUS / "cospan.hle").read_text())
    loop = ws.get("Loop", "diagram_ch").value
    assert loop.value(0).is_zero()
    assert betti_numbers(loop.value(2)) == {0: 1}


def test_semantic_error_names_binding_and_line():
    src = """complex Good { degrees: 0..0; dim 0: 1 }

complex Bad {
  degrees: 0..2
  dim 0: 1
  dim 1: 1
  dim 2: 1
  d 1: [[1]]
  d 2: [[1]]
}
"""
    with pytest.raises(DSquareNonzero) as exc:
        parse(src)
    msg = str(exc.value)
    assert "Bad" in msg and "line 3" in msg


def test_chain_rule_violation_in_diagram():
    from holim_engine.errors import ChainRuleViolation
    src = """
category C { objects: a, b; arrows: f: a -> b }
complex K { degrees: 0..1; dim 0: 1; dim 1: 1; d 1: [[1]] }
complex L { degrees: 0..1; dim 0: 1; dim 1: 1; d 1: [[0]] }
diagram D over C into Ch {
  at a: K
  at b: L
  on f: deg 0: [[1]], deg 1: [[1]]
}
"""
    with pytest.raises(ChainRuleViolation) as exc:
        parse(src)
    assert "D" in str(exc.value)


def test_functor_label_ambiguity_rejected():
    src = """
category C { objects: f, b; arrows: f: f -> b }
functor G : C -> C { f => f; b => b }
"""
    with pytest.raises(ParseError):
        parse(src)


# a category whose labels repeat, with a diagram S reading the repeated
# label, and the error naming the label
REPEATED_LABELS = {
    "object": ("category C { objects: a, a }\n"
               "diagram S over C into FinSet { at a: {x, y} }\n",
               "two objects are labelled 'a'"),
    "arrow": ("category C { objects: a, b, c; arrows: f: a -> b, f: b -> c }\n"
              "diagram S over C into FinSet {\n"
              "  at a: {x}; at b: {x}; at c: {x}; on f: x -> x }\n",
              "two morphisms are labelled 'f'"),
    "identity": ("category C { objects: a, b; arrows: id_a: a -> b }\n"
                 "diagram S over C into FinSet {\n"
                 "  at a: {x}; at b: {y}; on id_a: x -> y }\n",
                 "two morphisms are labelled 'id_a'"),
    "composite": ('category C { objects: a, b, c\n'
                  '  arrows: f: a -> b, g: b -> c, "g.f": a -> c }\n'
                  'diagram S over C into FinSet {\n'
                  '  at a: {x}; at b: {x}; at c: {x}; on "g.f": x -> x }\n',
                  "two morphisms are labelled 'g.f'"),
    "table": ("category C { objects: a, b; arrows: f: a -> b, f: a -> b\n"
              "  compose: f * id_a = f }\n"
              "diagram S over C into FinSet { at a: {x}; at b: {y} }\n",
              "two morphisms are labelled 'f'"),
}


@pytest.mark.parametrize("case", REPEATED_LABELS)
def test_a_repeated_label_is_a_located_error(case):
    """Both modes, presentation and table, reject a label that names two
    objects or two morphisms, the identities and composites named for
    the declaration among them."""
    src, what = REPEATED_LABELS[case]
    with pytest.raises(DuplicateLabel) as exc:
        parse(src)
    assert str(exc.value) == f"in binding 'C' (declared at line 1): {what}"


@pytest.mark.parametrize("case", REPEATED_LABELS)
def test_a_repeated_label_exits_1(tmp_path, capsys, case):
    src, what = REPEATED_LABELS[case]
    path = tmp_path / "repeated.hle"
    path.write_text(src)
    assert cli_mod.main([str(path), "--cmd", "lim S"]) == 1
    assert capsys.readouterr().err == \
        f"error: in binding 'C' (declared at line 1): {what}\n"


def test_quoted_labels_parse_and_a_bad_escape_is_located():
    ws = parse('category P { objects: "0", "*"; arrows: "0<*": "0" -> "*" }\n'
               'functor F : P -> P { "0" => "*"; "*" => "*"; "0<*" => "id_*" }')
    P = ws.get("P", "category").value
    assert P.obj_labels == ("0", "*") and "0<*" in P.mor_labels
    assert ws.get("F", "functor").value.object_map == (1, 1)
    with pytest.raises(ParseError) as exc:
        parse('category Q { objects: "a\\q" }')
    assert (exc.value.line, exc.value.col) == (1, 23)


def _arrow_S():
    return parse((CORPUS / "arrow.hle").read_text()).get(
        "S", "diagram_finset").value


def _renamed(S, ren):
    """S with its elements renamed by the dict `ren`."""
    return FinSetDiagram(
        S.base, tuple(tuple(ren.get(e, e) for e in v) for v in S.values),
        {m: {ren.get(e, e): ren.get(v, v) for e, v in act.items()}
         for m, act in S.actions.items()})


def _print_with(name, D, base_expr):
    """pretty_print of the arrow.hle workspace with D bound as `name`."""
    ws = parse((CORPUS / "arrow.hle").read_text())
    ws.add(Binding(name, "diagram_finset", D, meta={"base_expr": base_expr}))
    return pretty_print(ws)


def test_pretty_print_names_an_element_that_is_not_a_string():
    S = _arrow_S()
    with pytest.raises(DiagramError) as exc:
        _print_with("H", hom_bifunctor(S, S), "op(C) * C")
    msg = str(exc.value)
    assert "binding 'H'" in msg and "element ('x',)" in msg


def test_pretty_print_names_an_element_the_grammar_cannot_read():
    with pytest.raises(DiagramError) as exc:
        _print_with("R", _renamed(_arrow_S(), {"x": "x<u"}), "C")
    msg = str(exc.value)
    assert "binding 'R'" in msg and "element 'x<u'" in msg
    # numbers and identifiers print bare and read back
    N = _renamed(_arrow_S(), {"x": "-1", "u": "u_2.b"})
    assert parse(_print_with("N", N, "C")).get(
        "N", "diagram_finset").value == N


def test_first_print_over_a_product_of_a_poset_category_is_a_fixpoint():
    """`from_poset` numbers each identity among the arrows, a parsed
    category numbers identities first; the `on` lines of a diagram over
    op(C) * C print in the same order either way."""
    C = from_poset(["a", "b", "c"], {(0, 1), (1, 2), (0, 2)})
    P = C.bifunctor_base

    def hom(x, y):
        return tuple(f"h{m}" for m in C.hom(x, y))

    actions = {}
    for m1 in C.morphisms():              # a morphism of op(C)
        for m2 in C.morphisms():
            actions[product_mor(P, m1, m2)] = {
                f"h{a}": f"h{C.comp(C.comp(m2, a), m1)}"
                for a in C.hom(C.tgt(m1), C.src(m2))}
    H = FinSetDiagram(P, tuple(hom(x, y) for x in C.objects()
                               for y in C.objects()), actions)
    ws = Workspace()
    ws.add(Binding("C", "category", C))
    ws.add(Binding("H", "diagram_finset", H,
                   meta={"base_expr": "op(C) * C"}))
    printed = pretty_print(ws)
    assert pretty_print(parse(printed)) == printed
