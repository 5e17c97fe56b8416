import random
import re
from holim_engine.records import fields, replace

import pytest

import holim_engine.fincat as fincat_mod

from holim_engine.errors import (AssociativityViolation,
                                 CompositionDomainError, DuplicateLabel,
                                 FunctorError, IdentityViolation,
                                 NotLoopFree)
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

from holim_engine.holim import delta_plus_category
from holim_engine.randgen import (free_category, random_free_category,
                                  random_functor_between_loopfree,
                                  random_loopfree_category, random_poset)


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


def test_every_builder_rejects_a_repeated_label():
    """Labels name one object or one morphism each: a poset object
    labelled like an arrow of the poset, a generator named like an
    identity, a generator named like a composite and a repeated object."""
    cases = [
        (lambda: from_poset(["a", "a"], set()), "object", "a"),
        (lambda: from_poset(["a", "b", "a<b"], {(0, 1)}), "morphism", "a<b"),
        (lambda: category_from_presentation(["a", "b"], [("id_a", 0, 1)]),
         "morphism", "id_a"),
        (lambda: category_from_presentation(
            ["a", "b", "c"], [("f", 0, 1), ("g", 1, 2), ("g.f", 0, 2)]),
         "morphism", "g.f"),
    ]
    for build, kind, lab in cases:
        with pytest.raises(DuplicateLabel) as exc:
            build()
        assert str(exc.value) == f"two {kind}s are labelled {lab!r}"
    C = arrow_category()
    with pytest.raises(DuplicateLabel):
        validate_category(replace(C, mor_labels=("a", "a", "b")))


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
            assert com.object_keys[t] == (g, C.identity[g])


def test_comma_over_discrete_is_terminal():
    C = discrete_category(["x", "y"])
    for g in C.objects():
        com = comma_over(C, g)
        assert com.cat.n_objects == 1 and com.cat.n_morphisms == 1


def test_comma_under_identity_functor_is_comma_over():
    """The comma of the identity functor over g is the slice over g:
    the same objects in the same (arrow-major) order, the same keys,
    labels, morphisms, table and projection."""
    rng = random.Random(3201)
    for C in [chain_poset(2), cospan_category()] + \
            [random_loopfree_category(rng) for _ in range(20)]:
        f = identity_functor(C)
        for g in C.objects():
            a = comma_over(C, g)
            assert a == comma_under_functor(f, g)
            assert a.object_keys == tuple(
                (C.src(u), u) for u in C.morphisms() if C.tgt(u) == g)


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


def test_composition_tables_list_the_composable_pairs_g_by_g():
    """Posets, the three commas and the injective-simplex categories fill
    their tables over the composable pairs only, g by g, each g meeting
    the arrows into its source in morphism order.  The validators report
    the first bad pair in this order."""
    rng = random.Random(2527)
    cats = [random_poset(rng, 5) for _ in range(20)]
    for _ in range(20):
        f = random_functor_between_loopfree(rng)
        for C in (f.source, f.target):
            cats += [comma_over(C, g).cat for g in C.objects()]
        for g in f.target.objects():
            cats += [comma_under_functor(f, g).cat, comma_from(f, g).cat]
    cats += [delta_plus_category(N) for N in range(4)]
    for C in cats:
        assert list(C.compose_table) == [
            (g, f) for g in C.morphisms() for f in C.morphisms()
            if C.tgt(f) == C.src(g)]


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


def _rescan_closure(C, gens):
    """The morphisms that the identities and `gens` reach by composition,
    closed by rescanning every pair until nothing changes."""
    reached = {C.identity[x] for x in C.objects()} | set(gens)
    changed = True
    while changed:
        changed = False
        for g in sorted(reached):
            for f in sorted(reached):
                h = C.compose_table.get((g, f))
                if h is not None and h not in reached:
                    reached.add(h)
                    changed = True
    return reached


def _table_monoids():
    """Z/2 (e o e = id) and Z/3 as one-object composition tables."""
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    Z2 = validate_category(FinCategory(
        1, ("x",), (0, 0), (0, 0), ("id_x", "e"), (0,), table))
    table = {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}
    Z3 = validate_category(FinCategory(
        1, ("x",), (0, 0, 0), (0, 0, 0), ("id_x", "g", "g2"), (0,), table))
    return Z2, Z3


def test_generating_morphisms_generate():
    rng = random.Random(5)
    cats = [random_loopfree_category(rng) for _ in range(20)]
    for C in cats + list(_table_monoids()):
        gens = generating_morphisms(C)
        assert _rescan_closure(C, gens) == set(C.morphisms())


def test_generating_morphisms_monoid_with_cycle():
    Z2, Z3 = _table_monoids()
    assert generating_morphisms(Z2) == [1]
    # every element of Z/3 decomposes (g = g2 o g2, g2 = g o g), so no
    # arrow is indecomposable: over a loop every non-identity is taken
    assert generating_morphisms(Z3) == [1, 2]


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
    """Dropping a pair x < z from a poset breaks transitivity exactly
    when some y lies strictly between."""
    with pytest.raises(CompositionDomainError):
        from_poset(["a", "b", "c"], {(0, 1), (1, 2)})
    rng = random.Random(3303)
    for _ in range(30):
        P = random_poset(rng, 5)
        rel = {(P.src(m), P.tgt(m)) for m in P.non_identities()}
        for x, z in sorted(rel):
            rest = rel - {(x, z)}
            labels = list(P.obj_labels)
            if any((x, y) in rest and (y, z) in rest for y in P.objects()):
                with pytest.raises(CompositionDomainError,
                                   match="^relation is not transitive$"):
                    from_poset(labels, rest)
            else:
                assert from_poset(labels, rest).n_morphisms == \
                    P.n_morphisms - 1


def test_random_poset_closes_its_draws_as_a_rescan_does():
    """`random_poset` makes the draws it always made, and its relation is
    their transitive closure as a rescan of every pair finds it."""
    for seed in range(1000):
        max_objects, with_bottom = 1 + seed % 6, seed % 3 == 0
        rng = random.Random(seed)
        P = random_poset(rng, max_objects, with_bottom)
        ref = random.Random(seed)
        n = ref.randint(1, max_objects)
        rel = {(i, j) for i in range(n) for j in range(i + 1, n)
               if ref.random() < 0.45}
        assert rng.getstate() == ref.getstate()
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rel):
                for (c, d) in list(rel):
                    if c == b and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        if with_bottom:
            rel = {(a + 1, b + 1) for a, b in rel} | \
                {(0, k) for k in range(1, n + 1)}
            n += 1
        assert P.n_objects == n
        assert {(P.src(m), P.tgt(m)) for m in P.non_identities()} == rel


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


def test_a_changed_generator_triple_breaks_associativity():
    """f: a -> b, g: b -> c, h: c -> d and k: a -> c, presented freely;
    declaring g o f to be k keeps every source, target and identity law
    but makes (h o g) o f = h.g.f differ from h o (g o f) = h.k."""
    C, _ = fincat_mod._presented(
        ["a", "b", "c", "d"],
        [("f", 0, 1), ("g", 1, 2), ("h", 2, 3), ("k", 0, 2)])
    validate_category(C)
    f, g, k = (C.mor_labels.index(lab) for lab in ("f", "g", "k"))
    table = dict(C.compose_table)
    table[(g, f)] = k
    with pytest.raises(AssociativityViolation, match=re.escape(
            "('h' o 'g') o 'f' != 'h' o ('g' o 'f')")):
        validate_category(replace(C, compose_table=table, validated=False))


def _categories_of_every_kind(rng):
    """Random posets, free categories, their products and opposites, and
    the slices and functor commas of random functors."""
    cats = []
    for _ in range(10):
        P, (D, _, _) = random_poset(rng), random_free_category(rng)
        cats += [P, D, opposite(D), product(P, D), product(D, opposite(P))]
        f = random_functor_between_loopfree(rng)
        for g in f.target.objects():
            cats += [comma_under_functor(f, g).cat, comma_from(f, g).cat]
        cats += [comma_over(D, g).cat for g in D.objects()]
    return cats


def test_hom_reads_an_index_equal_to_the_morphism_scan():
    for C in _categories_of_every_kind(random.Random(2601)):
        for x in C.objects():
            for y in C.objects():
                scan = [m for m in C.morphisms()
                        if C.src(m) == x and C.tgt(m) == y]
                got = C.hom(x, y)
                assert got == scan
                got.append(-1)          # the caller's list is its own
                assert C.hom(x, y) == scan


def _functors_into_every_kind(rng):
    """Random functors into posets, identity functors, and slice
    projections into free categories, whose hom sets may hold parallel
    arrows."""
    fs = [random_functor_between_loopfree(rng) for _ in range(40)]
    for _ in range(20):
        D, _, _ = random_free_category(rng)
        fs += [identity_functor(D)]
        fs += [comma_over(D, g).projection for g in D.objects()]
    return fs


def _check_moves_compose(Gp, moves, over):
    for u in Gp.morphisms():
        for v in Gp.morphisms():
            if Gp.src(v) != Gp.tgt(u):
                continue
            vu = moves[Gp.comp(v, u)]
            if over:
                assert vu == tuple(moves[v][i] for i in moves[u])
            else:
                assert vu == tuple(moves[u][i] for i in moves[v])


def test_a_comma_family_moves_objects_by_its_change_of_base():
    """Over, u: s -> t sends (gamma, alpha) to (gamma, u o alpha); under,
    (gamma, beta) over t comes from (gamma, beta o u) over s; over the
    identity functor the commas are the slices.  Identities move every
    object to itself, and the moves of v o u are those of u and v
    composed."""
    family = fincat_mod._comma_family
    for f in _functors_into_every_kind(random.Random(2602)):
        Gp = f.target
        for over, make in ((True, comma_under_functor), (False, comma_from)):
            commas, moves = family(f, over)
            assert commas == [make(f, g) for g in Gp.objects()]
            assert len(moves) == Gp.n_morphisms
            for u in Gp.morphisms():
                s, t = Gp.src(u), Gp.tgt(u)
                if over:
                    want = tuple(commas[t].object_keys.index(
                        (gamma, Gp.comp(u, alpha)))
                        for gamma, alpha in commas[s].object_keys)
                else:
                    want = tuple(commas[s].object_keys.index(
                        (gamma, Gp.comp(beta, u)))
                        for gamma, beta in commas[t].object_keys)
                assert moves[u] == want
            for g in Gp.objects():
                assert moves[Gp.identity[g]] == \
                    tuple(range(commas[g].cat.n_objects))
            _check_moves_compose(Gp, moves, over)
        C = f.source
        slices = [comma_over(C, g) for g in C.objects()]
        commas, moves = family(identity_functor(C), True)
        assert commas == slices
        for u in C.morphisms():
            assert moves[u] == tuple(
                slices[C.tgt(u)].object_keys.index((gamma, C.comp(u, a)))
                for gamma, a in slices[C.src(u)].object_keys)
        for g in C.objects():
            assert moves[C.identity[g]] == tuple(range(slices[g].cat.n_objects))
        _check_moves_compose(C, moves, True)


# --- presentations: the compiler held to a naive rescan -----------------------

def _shortlex(p):
    return (len(p), p)


def _paths(arrows):
    """Every path of an acyclic generator graph, first arrow first."""
    paths = [(i,) for i in range(len(arrows))]
    for p in paths:             # grows while it runs
        paths += [p + (i,) for i, (_, s, _) in enumerate(arrows)
                  if s == arrows[p[-1]][2]]
    return paths


def _naive_classes(arrows, relations):
    """path -> a member naming its class in the congruence the relations
    generate: rescan every pair of equal paths and whisker it by every
    arrow on either side until nothing changes."""
    paths = _paths(arrows)
    cls = {p: p for p in paths}

    def merge(p, q):
        a, b = cls[p], cls[q]
        for r in paths:
            if cls[r] == b:
                cls[r] = a
        return a != b

    for lhs, rhs in relations:
        merge(lhs, rhs)
    changed = True
    while changed:
        changed = False
        for p in paths:
            for q in paths:
                if p == q or cls[p] != cls[q]:
                    continue
                for i, (_, s, t) in enumerate(arrows):
                    if s == arrows[p[-1]][2]:
                        changed |= merge(p + (i,), q + (i,))
                    if t == arrows[p[0]][1]:
                        changed |= merge((i,) + p, (i,) + q)
    return cls


def _random_presentation(rng):
    """Up to 5 objects, 7 arrows running up the object order, and up to
    4 relations between parallel paths."""
    n = rng.randint(1, 5)
    arrows = []
    for j in range(rng.randint(0, 7) if n > 1 else 0):
        s = rng.randint(0, n - 2)
        arrows.append((f"a{j}", s, rng.randint(s + 1, n - 1)))
    paths = _paths(arrows)
    relations = []
    for _ in range(rng.randint(0, 4) if paths else 0):
        p = rng.choice(paths)
        parallel = [q for q in paths if arrows[q[0]][1] == arrows[p[0]][1]
                    and arrows[q[-1]][2] == arrows[p[-1]][2]]
        relations.append((p, rng.choice(parallel)))
    return [f"o{i}" for i in range(n)], arrows, relations


def test_a_presentation_identifies_exactly_what_a_naive_rescan_does():
    """Two paths compose to the same morphism exactly when the naive
    closure identifies them, and each morphism is labelled by the
    shortlex-least path of its class, in shortlex order."""
    rng = random.Random(3301)
    related = 0
    for _ in range(150):
        labels, arrows, relations = _random_presentation(rng)
        C, reps = fincat_mod._presented(labels, arrows, relations)
        cls = _naive_classes(arrows, relations)
        least = {}
        for p in sorted(cls, key=_shortlex):
            least.setdefault(cls[p], p)
        want = sorted(least.values(), key=_shortlex)
        assert reps == tuple(want)
        n = len(labels)
        assert C.mor_labels == tuple(f"id_{x}" for x in labels) + tuple(
            ".".join(arrows[i][0] for i in reversed(p)) for p in want)
        mor = {p: n + j for j, p in enumerate(want)}
        for p in cls:
            m = mor[least[cls[p[:1]]]]
            for i in p[1:]:
                m = C.comp(mor[least[cls[(i,)]]], m)
            assert m == mor[least[cls[p]]]
        related += len(want) < len(cls)
    assert related >= 40


def test_a_relation_naming_no_path_or_two_ends_is_refused_in_order():
    objs, arrows = ["a", "b", "c"], [("f", 0, 1), ("g", 1, 2), ("h", 0, 2)]
    for relations, message in [
            ([((0, 1), (2,)), ((1, 0), (2,))], "names an unknown path"),
            ([((0,), (2,)), ((1, 0), (2,))], "with different endpoints"),
            ([((0, 1), (2,)), ((0,), (7,))], "names an unknown path")]:
        with pytest.raises(CompositionDomainError, match=message):
            category_from_presentation(objs, arrows, relations)


def _grid(n):
    """The commutative n x n grid: objects (i, j), arrows r: (i, j) ->
    (i + 1, j) and u: (i, j) -> (i, j + 1), one relation per square."""
    labels = [f"({i},{j})" for i in range(n + 1) for j in range(n + 1)]
    arrows, right, up = [], {}, {}
    for i in range(n + 1):
        for j in range(n + 1):
            x = i * (n + 1) + j
            if i < n:
                right[i, j] = len(arrows)
                arrows.append((f"r{i}_{j}", x, x + n + 1))
            if j < n:
                up[i, j] = len(arrows)
                arrows.append((f"u{i}_{j}", x, x + 1))
    relations = [((right[i, j], up[i + 1, j]), (up[i, j], right[i, j + 1]))
                 for i in range(n) for j in range(n)]
    return labels, arrows, relations


def test_a_commutative_grid_is_the_product_poset():
    for n in range(1, 7):
        C = category_from_presentation(*_grid(n))
        assert C.n_morphisms == ((n + 1) * (n + 2) // 2) ** 2
        P = product(chain_poset(n), chain_poset(n))
        assert [[len(C.hom(x, y)) for y in C.objects()]
                for x in C.objects()] == \
            [[len(P.hom(x, y)) for y in P.objects()] for x in P.objects()]
        assert all(len(C.hom(x, y)) <= 1
                   for x in C.objects() for y in C.objects())


def test_generating_morphisms_are_the_indecomposables():
    """Over a loop-free category the generating set is the arrows that
    are no composite of two non-identities, checked over every pair, and
    none of them can be left out."""
    rng = random.Random(3302)
    cats = [random_loopfree_category(rng) for _ in range(40)]
    cats += [random_poset(rng) for _ in range(20)]
    cats += [random_free_category(rng)[0] for _ in range(20)]
    cats += [category_from_presentation(*_random_presentation(rng))
             for _ in range(20)]
    for C in cats + [chain_poset(6)]:
        assert is_direct(C) is not None
        non_ids = C.non_identities()
        composites = {C.compose_table.get((g, f))
                      for g in non_ids for f in non_ids}
        gens = generating_morphisms(C)
        assert gens == [h for h in non_ids if h not in composites]
        for m in gens:
            assert m not in _rescan_closure(C, [g for g in gens if g != m])
    P = chain_poset(24)
    assert [(P.src(m), P.tgt(m)) for m in generating_morphisms(P)] == \
        [(i, i + 1) for i in range(24)]
