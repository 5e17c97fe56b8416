import random
import re
from holim_engine.records import fields, replace

import pytest

import holim_engine.fincat as fincat_mod

from holim_engine.errors import (CompositionDomainError, FunctorError,
                                 IdentityViolation, NotLoopFree)
from holim_engine.fincat import (FinCategory, FunctorData, UnionFind,
                                 arrow_category, category_from_presentation,
                                 chain_poset, comma_from, comma_over,
                                 comma_under_functor, cospan_category,
                                 discrete_category,
                                 find_initial, find_terminal, from_poset,
                                 generating_morphisms, identity_functor,
                                 is_direct, object_inclusion, opposite,
                                 product, terminal_category,
                                 validate_category, validate_functor)

from holim_engine.randgen import free_category, random_loopfree_category


def test_terminal_category_valid():
    C = terminal_category()
    assert C.validated
    assert C.n_objects == 1 and C.n_morphisms == 1


def test_arrow_category_valid():
    C = arrow_category()
    assert C.n_objects == 2 and C.n_morphisms == 3
    f = C.non_identities()
    assert len(f) == 1
    assert C.src(f[0]) == 0 and C.tgt(f[0]) == 1


def test_malformed_composite_rejected():
    C = arrow_category()
    # break the table: claim f o id_a is id_b (wrong source)
    f = C.non_identities()[0]
    bad_table = dict(C.compose_table)
    bad_table[(f, C.identity[0])] = C.identity[1]
    bad = FinCategory(C.n_objects, C.obj_labels, C.mor_src, C.mor_tgt,
                      C.mor_labels, C.identity, bad_table)
    with pytest.raises(CompositionDomainError):
        validate_category(bad)


def test_missing_identity_law_rejected():
    # two parallel arrows, table swaps one identity composite
    src, tgt = (0, 0, 0, 0), (0, 1, 1, 1)
    labels = ("ia", "ib", "f", "g")
    # ids: 0 = id_a, 1 = id_b, 2 = f, 3 = g
    table = {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2, (3, 0): 3, (1, 3): 3}
    table[(1, 2)] = 3  # id_b o f claimed to be g
    bad = FinCategory(2, ("a", "b"), src, tgt, labels, (0, 1), table)
    with pytest.raises(IdentityViolation):
        validate_category(bad)


def test_opposite_involution_bit_identical():
    C = chain_poset(2)
    assert opposite(opposite(C)) == C


def test_opposite_of_arrow():
    C = opposite(arrow_category())
    f = C.non_identities()[0]
    assert C.src(f) == 1 and C.tgt(f) == 0


def test_product_counts():
    C = arrow_category()
    P = product(C, C)
    assert P.n_objects == 4
    assert P.n_morphisms == 9
    validate_category(P)
    P2 = product(opposite(C), C)
    assert P2.n_objects == 4 and P2.n_morphisms == 9


def test_product_with_terminal_is_relabeling():
    C = chain_poset(2)
    P = product(terminal_category(), C)
    assert P.n_objects == C.n_objects and P.n_morphisms == C.n_morphisms
    assert P.mor_src == C.mor_src and P.mor_tgt == C.mor_tgt
    assert {k: v for k, v in P.compose_table.items()} == C.compose_table


def test_opposite_product_commute():
    C, D = arrow_category(), chain_poset(2)
    lhs = opposite(product(C, D))
    rhs = product(opposite(C), opposite(D))
    assert lhs == rhs


def test_comma_over_arrow():
    C = arrow_category()
    com = comma_over(C, 1)  # over b
    assert com.cat.n_objects == 2  # f and id_b
    assert len(com.cat.non_identities()) == 1
    validate_category(com.cat)
    validate_functor(com.projection)
    # isomorphic to [1]: one non-identity from f to id_b
    m = com.cat.non_identities()[0]
    assert com.object_keys[com.cat.src(m)] != com.object_keys[com.cat.tgt(m)]


def test_comma_over_has_terminal_object():
    rng = random.Random(11)
    for _ in range(25):
        C = random_loopfree_category(rng)
        for g in C.objects():
            com = comma_over(C, g)
            t = find_terminal(com.cat)
            assert t is not None
            assert com.object_keys[t] == C.identity[g]


def test_comma_over_discrete_is_terminal():
    C = discrete_category(["x", "y"])
    for g in C.objects():
        com = comma_over(C, g)
        assert com.cat.n_objects == 1 and com.cat.n_morphisms == 1


def test_comma_under_identity_functor_is_comma_over():
    C = chain_poset(2)
    f = identity_functor(C)
    for g in C.objects():
        a = comma_over(C, g)
        b = comma_under_functor(f, g)
        assert a.cat.n_objects == b.cat.n_objects
        assert a.cat.n_morphisms == b.cat.n_morphisms
        assert a.cat.compose_table == b.cat.compose_table


def test_comma_under_point_inclusion():
    C = arrow_category()
    f = object_inclusion(C, 0)  # hits a
    at_b = comma_under_functor(f, 1)
    assert at_b.cat.n_objects == 1 and at_b.cat.n_morphisms == 1
    at_a = comma_under_functor(f, 0)
    assert at_a.cat.n_objects == 1 and at_a.cat.n_morphisms == 1
    # under b-inclusion, the comma at a is empty
    g = object_inclusion(C, 1)
    assert comma_under_functor(g, 0).cat.n_objects == 0


def test_comma_from_dual():
    C = arrow_category()
    f = object_inclusion(C, 0)
    # (a down f): alpha: a -> f(.) = a: just id_a
    assert comma_from(f, 0).cat.n_objects == 1
    # (b down f): alpha: b -> a: none
    assert comma_from(f, 1).cat.n_objects == 0


def test_is_direct_chain():
    C = chain_poset(2)
    d = is_direct(C)
    assert d is not None
    assert d.assignment == (0, 1, 2)


def test_is_direct_rejects_endomorphism():
    # one-object monoid with e o e = id
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    M = validate_category(FinCategory(
        1, ("x",), (0, 0), (0, 0), ("id_x", "e"), (0,), table))
    assert is_direct(M) is None


def test_is_direct_discrete():
    C = discrete_category(["x", "y", "z"])
    d = is_direct(C)
    assert d is not None and d.assignment == (0, 0, 0)


def _has_cycle_oracle(C):
    # independent DFS cycle detector on the non-identity morphism graph
    edges = {}
    for m in C.non_identities():
        if C.src(m) == C.tgt(m):
            return True
        edges.setdefault(C.src(m), set()).add(C.tgt(m))
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {x: WHITE for x in C.objects()}

    def dfs(x):
        color[x] = GRAY
        for y in edges.get(x, ()):
            if color[y] == GRAY:
                return True
            if color[y] == WHITE and dfs(y):
                return True
        color[x] = BLACK
        return False

    return any(color[x] == WHITE and dfs(x) for x in C.objects())


def test_is_direct_matches_cycle_oracle():
    rng = random.Random(999)
    cases = [random_loopfree_category(rng) for _ in range(20)]
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    idempotent = validate_category(FinCategory(
        1, ("x",), (0, 0), (0, 0), ("id_x", "e"), (0,), table))
    cases.append(idempotent)
    for C in cases:
        d = is_direct(C)
        assert (d is None) == _has_cycle_oracle(C)
        if d is not None:
            for m in C.non_identities():
                assert d(C.tgt(m)) > d(C.src(m))


def test_is_direct_sorts_once_per_instance(monkeypatch):
    calls = []
    sort = fincat_mod._longest_path_degrees
    monkeypatch.setattr(fincat_mod, "_longest_path_degrees",
                        lambda C: calls.append(C) or sort(C))
    # chain_poset is memoised: build two equal instances afresh
    C, twin = chain_poset.__wrapped__(3), chain_poset.__wrapped__(3)
    text = repr(C)
    d = is_direct(C)
    assert is_direct(C) is d and d.assignment == (0, 1, 2, 3)
    assert len(calls) == 1
    # the memo is no field: equality, repr and replace ignore it
    assert C == twin and repr(C) == repr(twin) == text
    assert [f.name for f in fields(C)] == [f.name for f in fields(twin)]
    copy = replace(C, validated=False)
    assert copy == C and repr(copy) == repr(C).replace(
        "validated=True", "validated=False")
    assert is_direct(copy) == d and len(calls) == 2
    loop = FinCategory(1, ("x",), (0, 0), (0, 0), ("id_x", "e"), (0,),
                       {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert is_direct(loop) is None and is_direct(loop) is None
    assert len(calls) == 3


def test_generating_morphisms_generate():
    rng = random.Random(5)
    for _ in range(20):
        C = random_loopfree_category(rng)
        gens = generating_morphisms(C)
        reached = {C.identity[x] for x in C.objects()} | set(gens)
        changed = True
        while changed:
            changed = False
            for g in list(reached):
                for f in list(reached):
                    h = C.compose_table.get((g, f))
                    if h is not None and h not in reached:
                        reached.add(h)
                        changed = True
        assert reached == set(C.morphisms())


def test_generating_morphisms_monoid_with_cycle():
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    M = validate_category(FinCategory(
        1, ("x",), (0, 0), (0, 0), ("id_x", "e"), (0,), table))
    assert generating_morphisms(M) == [1]


def test_find_initial_terminal():
    C = cospan_category()
    assert find_initial(C) is None
    assert find_terminal(C) == 2
    assert find_initial(chain_poset(2)) == 0


def test_bad_functor_rejected():
    C = arrow_category()
    f = C.non_identities()[0]
    raw = FunctorData(C, C, (0, 1), (C.identity[0], C.identity[1], C.identity[0]))
    with pytest.raises(FunctorError):
        validate_functor(raw)


def test_poset_requires_transitivity():
    with pytest.raises(CompositionDomainError):
        from_poset(["a", "b", "c"], {(0, 1), (1, 2)})


def test_unknown_object_errors():
    from holim_engine.errors import UnknownObject
    C = arrow_category()
    with pytest.raises(UnknownObject):
        comma_over(C, 7)
    with pytest.raises(UnknownObject):
        object_inclusion(C, 5)


def test_an_object_that_is_not_an_index_is_unknown():
    """`find_initial` returns None on a poset with no initial object;
    including None, or any object that is not an index, ends in an
    `EngineError`."""
    from holim_engine.errors import EngineError, UnknownObject
    P = from_poset(["a", "b"], set())
    assert find_initial(P) is None
    with pytest.raises(UnknownObject, match="no object with index None"):
        object_inclusion(P, find_initial(P))
    for x in ("0", 0.0, -1, 2):
        with pytest.raises(EngineError):
            P.require_object(x)


def test_omitted_composable_pair_rejected():
    C = chain_poset(2)
    table = dict(C.compose_table)
    nonid = C.non_identities()
    # drop a genuinely composable non-identity pair
    for key in list(table):
        g, f = key
        if g in nonid and f in nonid:
            del table[key]
            break
    bad = FinCategory(C.n_objects, C.obj_labels, C.mor_src, C.mor_tgt,
                      C.mor_labels, C.identity, table)
    with pytest.raises(CompositionDomainError):
        validate_category(bad)


def test_union_find_keeps_the_least_root_and_reports_merges():
    uf = UnionFind(range(6))
    assert uf.union(4, 2) and uf.union(5, 4) and uf.union(1, 3)
    assert not uf.union(2, 5)
    assert [uf.find(x) for x in range(6)] == [0, 1, 2, 1, 2, 2]


def test_free_category_rejects_a_cyclic_generator_graph():
    with pytest.raises(NotLoopFree):
        free_category(["a", "b"], [("f", 0, 1), ("g", 1, 0)])
    with pytest.raises(NotLoopFree):
        free_category(["a"], [("e", 0, 0)])


def test_a_line_presentation_composes_exactly_its_composable_pairs():
    n = 12
    C = category_from_presentation(
        [f"o{i}" for i in range(n)],
        [(f"a{i}", i, i + 1) for i in range(n - 1)])
    P = chain_poset(n - 1)
    assert [[len(C.hom(x, y)) for y in C.objects()] for x in C.objects()] \
        == [[len(P.hom(x, y)) for y in P.objects()] for x in P.objects()]
    # the identity entries first, then (g, f) by g, then f, in morphism order
    nonid = C.non_identities()
    want = [key for m in C.morphisms()
            for key in ((C.identity[C.tgt(m)], m), (m, C.identity[C.src(m)]))]
    want += [(g, f) for g in nonid for f in nonid if C.tgt(f) == C.src(g)]
    assert list(C.compose_table) == list(dict.fromkeys(want))
    assert set(C.compose_table) == {(g, f) for g in C.morphisms()
                                    for f in C.morphisms()
                                    if C.tgt(f) == C.src(g)}


def test_the_first_omitted_pair_is_named():
    C = chain_poset(3)
    table = dict(C.compose_table)
    nonid = C.non_identities()
    pairs = [(g, f) for f in nonid for g in nonid if C.tgt(f) == C.src(g)]
    for key in pairs[-1:] + pairs[:1]:
        del table[key]
    bad = FinCategory(C.n_objects, C.obj_labels, C.mor_src, C.mor_tgt,
                      C.mor_labels, C.identity, table)
    g, f = pairs[0]
    with pytest.raises(CompositionDomainError, match=re.escape(
            f"table omits the composable pair {C.mor_labels[g]!r} o "
            f"{C.mor_labels[f]!r}")):
        validate_category(bad)
