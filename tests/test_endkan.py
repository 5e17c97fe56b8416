import random
from fractions import Fraction

import pytest

from holim_engine import chaincx, endkan, fincat
from holim_engine.chaincx import (betti_numbers, identity_map, make_complex,
                                  single, zero_map)
from holim_engine.endkan import (ChainDiagram, FinSetDiagram,
                                 bifunctor_diagram, coend_finset,
                                 co_yoneda_check, constant_finset_diagram,
                                 end_chain, end_finset, finset_colimit,
                                 finset_limit, hom_bifunctor, lan,
                                 lan_agreement, lan_via_coend,
                                 nat_trans_bruteforce, ran, ran_agreement,
                                 ran_via_end, representable_finset_diagram,
                                 restrict, validate_chain_diagram,
                                 validate_finset_diagram)
from holim_engine.errors import DiagramError
from holim_engine.exactalg import RationalMatrix
from holim_engine.fincat import (arrow_category, chain_poset,
                                 cospan_category, discrete_category,
                                 from_poset, identity_functor,
                                 object_inclusion, opposite, product,
                                 product_mor, product_obj, terminal_category,
                                 FunctorData, validate_functor)
from holim_engine.oracle import fubini_check, hom_set_bifunctor
from holim_engine.randgen import (random_chain_complex, random_finset_diagram,
                                  random_finset_pair, random_free_category,
                                  random_loopfree_category, random_poset,
                                  random_poset_chain_diagram)

M = RationalMatrix.from_rows


def _span_category():
    # b <- a -> c
    return from_poset(["a", "b", "c"], {(0, 1), (0, 2)})


def _arrow_diagram(sizes=(1, 2)):
    """F over [1] with |F(a)| = sizes[0], |F(b)| = sizes[1], action
    sending everything to the first element."""
    C = arrow_category()
    va = tuple(f"a{i}" for i in range(sizes[0]))
    vb = tuple(f"b{i}" for i in range(sizes[1]))
    f = C.non_identities()[0]
    actions = {C.identity[0]: {e: e for e in va},
               C.identity[1]: {e: e for e in vb},
               f: {e: vb[0] for e in va}}
    return validate_finset_diagram(FinSetDiagram(C, (va, vb), actions))


def _arrow_identity_diagram(n):
    """F over [1] with both values of size n and identity action."""
    C = arrow_category()
    v = tuple(f"x{i}" for i in range(n))
    act = {e: e for e in v}
    return validate_finset_diagram(FinSetDiagram(
        C, (v, v), {m: dict(act) for m in C.morphisms()}))


def test_limit_of_constant_over_connected_base():
    C = chain_poset(2)
    F = constant_finset_diagram(C, ("u", "v"))
    lim = finset_limit(F)
    assert len(lim.elements) == 2
    for el in lim.elements:
        assert el[0] == el[1] == el[2]


def test_limit_over_discrete_base_is_product():
    C = discrete_category(["x", "y"])
    F = FinSetDiagram(C, (("1", "2"), ("a", "b", "c")),
                      {C.identity[0]: {"1": "1", "2": "2"},
                       C.identity[1]: {"a": "a", "b": "b", "c": "c"}})
    assert len(finset_limit(F).elements) == 6


def test_colimit_span_union_find():
    # b <- a -> c with injective legs: 2 + 1 + 3 elements, 4 classes
    C = _span_category()
    m_ab = C.hom(0, 1)[0]
    m_ac = C.hom(0, 2)[0]
    F = FinSetDiagram(
        C, (("a0",), ("b0", "b1"), ("c0", "c1", "c2")),
        {C.identity[0]: {"a0": "a0"},
         C.identity[1]: {"b0": "b0", "b1": "b1"},
         C.identity[2]: {"c0": "c0", "c1": "c1", "c2": "c2"},
         m_ab: {"a0": "b0"}, m_ac: {"a0": "c1"}})
    validate_finset_diagram(F)
    col = finset_colimit(F)
    assert len(col.classes) == 4
    assert col.inject(0, "a0") == col.inject(1, "b0") == col.inject(2, "c1")


def test_end_of_first_variable_constant_is_limit():
    # H constant in the first variable recovers the limit
    rng = random.Random(60)
    for _ in range(15):
        C = random_loopfree_category(rng)
        F = random_finset_diagram(rng, C)
        P = product(opposite(C), C)
        values = tuple(F.values[i % C.n_objects]
                       for i in range(P.n_objects))
        actions = {}
        for m1 in C.morphisms():
            for m2 in C.morphisms():
                actions[product_mor(P, m1, m2)] = F.actions[m2]
        H = FinSetDiagram(P, values, actions)
        end = end_finset(H)
        lim = finset_limit(F)
        assert set(end) == set(lim.elements)


def test_end_of_hom_bifunctor_counts_natural_transformations():
    F = _arrow_identity_diagram(1)
    G = _arrow_identity_diagram(2)
    end = end_finset(hom_bifunctor(F, G))
    assert len(end) == 2
    assert len(nat_trans_bruteforce(F, G)) == 2


def test_end_with_empty_diagonal_is_empty():
    C = arrow_category()
    F = _arrow_diagram((1, 2))
    G = FinSetDiagram(C, ((), ()), {m: {} for m in C.morphisms()})
    # maps into an empty set from a nonempty one do not exist: empty end
    assert end_finset(hom_bifunctor(F, G)) == ()
    # maps out of the empty set are unique: the end is a singleton
    assert len(end_finset(hom_bifunctor(G, F))) == 1


def test_nat_trans_empty_target_blocks():
    C = arrow_category()
    F = _arrow_diagram((1, 1))
    G = FinSetDiagram(C, ((), ()), {m: {} for m in C.morphisms()})
    assert nat_trans_bruteforce(F, G) == ()
    assert len(nat_trans_bruteforce(G, F)) == 1


def test_nat_trans_constant_singletons():
    C = chain_poset(2)
    F = constant_finset_diagram(C, ("x",))
    assert len(nat_trans_bruteforce(F, F)) == 1


def test_coend_constant_second_variable_is_colimit_of_first():
    rng = random.Random(61)
    for _ in range(10):
        C = random_loopfree_category(rng)
        Cop = opposite(C)
        F = random_finset_diagram(rng, Cop)   # contravariant data
        P = product(Cop, C)
        values = tuple(F.values[i // C.n_objects]
                       for i in range(P.n_objects))
        actions = {}
        for m1 in C.morphisms():
            for m2 in C.morphisms():
                actions[product_mor(P, m1, m2)] = F.actions[m1]
        H = FinSetDiagram(P, values, actions)
        coe = coend_finset(H)
        col = finset_colimit(F)
        assert len(coe.classes) == len(col.classes)


def test_coend_of_hom_over_arrow():
    # relations u o f ~ f o u are indexed by pairs (f: g -> g', u: g' -> g);
    # a poset has no backward u, so nothing is identified and the coend of
    # Hom is one class per object (the trace of the identity functor)
    C = arrow_category()
    coe = coend_finset(hom_set_bifunctor(C))
    assert len(coe.classes) == 2


def test_coend_of_hom_identifies_along_inverses():
    # with a genuine backward morphism the twisted relations do merge:
    # the one-object group Z/2 has e o e = id, so id ~ e o e ~ ... and the
    # coend of Hom is the set of conjugacy classes, here 2 (id and e)
    from holim_engine.fincat import FinCategory, validate_category
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    Z2 = validate_category(FinCategory(
        1, ("x",), (0, 0), (0, 0), ("id_x", "e"), (0,), table))
    coe = coend_finset(hom_set_bifunctor(Z2))
    assert len(coe.classes) == 2


def test_coend_empty_base():
    C0 = discrete_category([])
    P = product(opposite(C0), C0)
    H = FinSetDiagram(P, (), {})
    assert coend_finset(H).classes == ()


def test_lan_ran_point_inclusion():
    C = arrow_category()
    f = object_inclusion(C, 0)
    T = terminal_category()
    F = constant_finset_diagram(T, ("0", "1", "2"))
    le = lan(f, F)
    assert [len(v) for v in le.diagram.values] == [3, 3]
    u = C.non_identities()[0]
    act = le.diagram.actions[u]
    assert len(set(act.values())) == 3   # identity-like action
    re_ = ran(f, F)
    assert [len(v) for v in re_.diagram.values] == [3, 1]


def test_lan_ran_identity_functor():
    rng = random.Random(62)
    C = random_loopfree_category(rng)
    F = random_finset_diagram(rng, C)
    for ke in (lan(identity_functor(C), F), ran(identity_functor(C), F)):
        assert [len(v) for v in ke.diagram.values] == \
            [len(v) for v in F.values]
        validate_finset_diagram(ke.diagram)


def test_lan_ran_to_terminal_are_colimit_limit():
    rng = random.Random(63)
    for _ in range(10):
        C = random_loopfree_category(rng)
        F = random_finset_diagram(rng, C)
        T = terminal_category()
        f = validate_functor(FunctorData(
            C, T, tuple(0 for _ in C.objects()),
            tuple(0 for _ in C.morphisms())))
        le = lan(f, F)
        assert len(le.diagram.values[0]) == len(finset_colimit(F).classes)
        re_ = ran(f, F)
        assert len(re_.diagram.values[0]) == len(finset_limit(F).elements)


def test_restrict_identity_and_collapse():
    rng = random.Random(64)
    C = random_loopfree_category(rng)
    F = random_finset_diagram(rng, C)
    assert restrict(identity_functor(C), F).values == F.values
    T = terminal_category()
    S = constant_finset_diagram(T, ("s1", "s2"))
    f = validate_functor(FunctorData(
        C, T, tuple(0 for _ in C.objects()),
        tuple(0 for _ in C.morphisms())))
    back = restrict(f, S)
    assert all(v == ("s1", "s2") for v in back.values)
    validate_finset_diagram(back)


def test_kan_formula_agreement_randomized():
    from holim_engine.randgen import random_functor_between_loopfree
    rng = random.Random(65)
    for _ in range(12):
        f = random_functor_between_loopfree(rng)
        F = random_finset_diagram(rng, f.source)
        assert lan_agreement(f, F)
        assert ran_agreement(f, F)


def test_adjunction_cardinalities_randomized():
    from holim_engine.randgen import random_functor_between_loopfree
    rng = random.Random(66)
    for _ in range(8):
        f = random_functor_between_loopfree(rng)
        F = random_finset_diagram(rng, f.source, max_size=2)
        G = random_finset_diagram(rng, f.target, max_size=2)
        lhs = nat_trans_bruteforce(lan(f, F).diagram, G)
        rhs = nat_trans_bruteforce(F, restrict(f, G))
        assert len(lhs) == len(rhs)


def test_co_yoneda_randomized():
    from holim_engine.randgen import random_functor_between_loopfree
    rng = random.Random(67)
    for _ in range(10):
        f = random_functor_between_loopfree(rng)
        G = random_finset_diagram(rng, f.target)
        gamma = rng.randrange(f.source.n_objects)
        rep = co_yoneda_check(G, f, gamma)
        assert rep.passed
        assert rep.end_size == rep.value_size


def test_co_yoneda_fixed_examples():
    C = arrow_category()
    G = _arrow_diagram((2, 3))
    rep = co_yoneda_check(G, identity_functor(C), 0)
    assert rep.passed and rep.end_size == 2
    G1 = constant_finset_diagram(C, ("z",))
    rep1 = co_yoneda_check(G1, identity_functor(C), 1)
    assert rep1.passed and rep1.end_size == 1
    G2 = FinSetDiagram(C, ((), ()), {m: {} for m in C.morphisms()})
    rep2 = co_yoneda_check(G2, identity_functor(C), 0)
    assert rep2.passed and rep2.end_size == 0


def test_bifunctor_base_is_built_once_per_category(monkeypatch):
    calls = []
    build = fincat.product
    monkeypatch.setattr(fincat, "product",
                        lambda C, D: calls.append(D) or build(C, D))
    C, F, G = random_finset_pair(random.Random(5), cap=3000)
    H1, H2 = hom_bifunctor(F, G), hom_bifunctor(G, F)
    assert calls == [C] and H1.base is H2.base is C.bifunctor_base
    assert C.bifunctor_base.product_of == (opposite(C), C)
    assert hom_set_bifunctor(C).base is C.bifunctor_base
    D = bifunctor_diagram(C, lambda x, y: single(0),
                          lambda m1, m2: identity_map(single(0)))
    assert D.base is C.bifunctor_base and calls == [C]
    # the memo is no field: equality and repr ignore it
    twin = random_finset_pair(random.Random(5), cap=3000)[0]
    assert C == twin and repr(C) == repr(twin)
    # Ran takes one end per target object, all over the source's base,
    # and Lan's coend diagrams use the same base
    from holim_engine.randgen import random_functor_between_loopfree
    rng = random.Random(68)
    for _ in range(6):
        f = random_functor_between_loopfree(rng)
        F = random_finset_diagram(rng, f.source, max_size=2)
        calls.clear()
        assert lan_agreement(f, F) and ran_agreement(f, F)
        assert len(calls) == 1 and calls[0] is f.source


def test_end_over_the_cached_hom_base_builds_no_opposite(monkeypatch):
    C, F, G = random_finset_pair(random.Random(5), cap=3000)
    H = hom_bifunctor(F, G)
    calls = []
    build = fincat.opposite
    for mod in (endkan, fincat):
        monkeypatch.setattr(mod, "opposite",
                            lambda D: calls.append(D) or build(D))
    end, coend = end_finset(H), coend_finset(H)
    assert calls == []
    # an equal base built afresh is still checked against opposite(G)
    twin = FinSetDiagram(product(build(C), C), H.values, H.actions)
    assert twin.base == H.base and twin.base is not H.base
    assert end_finset(twin) == end and coend_finset(twin) == coend
    assert calls == [C, C]


def test_end_rejects_a_base_that_is_not_opposite_times_itself():
    A = arrow_category()
    for P in (A, product(A, A), product(opposite(A), chain_poset(2))):
        H = constant_finset_diagram(P, ("z",))
        for take in (end_finset, coend_finset):
            with pytest.raises(DiagramError):
                take(H)


# --- chain-valued ----------------------------------------------------------------


def _diagonal_bifunctor(C, value, with_identity_actions=True):
    """H(x, y) = value with identity structure maps."""
    P = product(opposite(C), C)
    ident = identity_map(value)
    values = [value for _ in range(P.n_objects)]
    return ChainDiagram(P, values, lambda m: ident)


def test_end_chain_discrete_base_is_product():
    C = discrete_category(["x", "y"])
    P = product(opposite(C), C)
    c1, c2 = single(0, 1), single(0, 2)
    vals = {product_obj(P, 0, 0): c1, product_obj(P, 1, 1): c2}
    values = [vals.get(i, chaincx.ZERO_COMPLEX)
              for i in range(P.n_objects)]

    def action(m):
        x = P.src(m)
        return identity_map(values[x])

    H = ChainDiagram(P, values, action)
    E = end_chain(H)
    assert dict(E.complex.dims) == {0: 3}


def test_end_chain_arrow_identity_is_diagonal():
    C = arrow_category()
    H = _diagonal_bifunctor(C, single(0))
    E = end_chain(H)
    assert dict(E.complex.dims) == {0: 1}
    # the inclusion hits the diagonal of the two copies
    col = E.inclusion.component(0).column(0)
    assert col[0] == col[1] != 0


def test_end_chain_zero_diagonal():
    C = arrow_category()
    H = _diagonal_bifunctor(C, chaincx.ZERO_COMPLEX)
    E = end_chain(H)
    assert E.complex.is_zero()


def test_end_chain_generators_vs_all_morphisms():
    rng = random.Random(68)
    from holim_engine.holim import weighted_end
    from holim_engine.ssets import nerve_weight
    for _ in range(6):
        P = random_poset(rng, 3)
        F = random_poset_chain_diagram(rng, P, max_dim=2, max_width=2)
        W = nerve_weight(P)
        E1 = weighted_end(F, W)
        E2 = weighted_end(F, W, generators=P.non_identities())
        assert E1.complex.dims == E2.complex.dims
        for k in E1.complex.degrees():
            assert E1.inclusion.component(k) == E2.inclusion.component(k)
            assert E1.complex.d(k) == E2.complex.d(k)


def test_validate_chain_diagram_randomized():
    rng = random.Random(69)
    for _ in range(5):
        P = random_poset(rng, 3)
        F = random_poset_chain_diagram(rng, P)
        validate_chain_diagram(F)


def test_fubini_three_ways():
    rng = random.Random(70)
    from holim_engine.ssets import nerve_weight
    from holim_engine.chaincx import hom_complex, hom_precompose, \
        hom_postcompose, compose_maps
    from holim_engine.ssets import chains_of_map, normalized_chains
    for G1, G2 in [(terminal_category(), terminal_category()),
                   (arrow_category(), arrow_category()),
                   (arrow_category(), chain_poset(2))]:
        PP = product(G1, G2)
        F = random_poset_chain_diagram(rng, PP, max_dim=1, max_width=2)
        W = nerve_weight(PP)
        NW = [normalized_chains(W.value(x)) for x in PP.objects()]

        def value_at(x, y):
            return hom_complex(NW[x], F.value(y))

        def action_at(m1, m2):
            pre = hom_precompose(chains_of_map(W.action(m1)),
                                 F.value(PP.src(m2)))
            post = hom_postcompose(NW[PP.src(m1)], F.action(m2))
            return compose_maps(post, pre)

        from holim_engine.endkan import bifunctor_diagram
        H = bifunctor_diagram(PP, value_at, action_at)
        rep = fubini_check(H, G1, G2)
        assert rep.passed, rep


def test_fubini_zero_diagram():
    G1 = arrow_category()
    G2 = arrow_category()
    PP = product(G1, G2)
    P = product(opposite(PP), PP)
    values = [chaincx.ZERO_COMPLEX] * P.n_objects
    H = ChainDiagram(P, values,
                     lambda m: zero_map(chaincx.ZERO_COMPLEX,
                                        chaincx.ZERO_COMPLEX))
    rep = fubini_check(H, G1, G2)
    assert rep.passed
    assert rep.dims_joint == {}


def _limit_bruteforce(F):
    """Independent oracle: filter the full product by every morphism
    condition (no generator pruning)."""
    from itertools import product as iproduct
    C = F.base
    out = []
    for tup in iproduct(*[F.values[x] for x in C.objects()]):
        if all(F.actions[m][tup[C.src(m)]] == tup[C.tgt(m)]
               for m in C.morphisms()):
            out.append(tup)
    return out


def _end_bruteforce(H):
    from itertools import product as iproduct
    from holim_engine.endkan import _split_product_base
    P = H.base
    G = _split_product_base(P)
    diag = [H.value(product_obj(P, g, g)) for g in G.objects()]
    out = []
    for tup in iproduct(*diag):
        ok = True
        for f in G.morphisms():
            push = H.action(product_mor(P, G.identity[G.src(f)], f))
            pull = H.action(product_mor(P, f, G.identity[G.tgt(f)]))
            if push[tup[G.src(f)]] != pull[tup[G.tgt(f)]]:
                ok = False
                break
        if ok:
            out.append(tup)
    return out


def test_limit_universal_property_bruteforce():
    # the limit is exactly the set of commuting families: compare with
    # an unpruned full-product filter over all morphisms
    rng = random.Random(71)
    for _ in range(15):
        C = random_loopfree_category(rng)
        F = random_finset_diagram(rng, C, max_size=2)
        assert sorted(finset_limit(F).elements) == sorted(_limit_bruteforce(F))


def test_end_generator_pruning_vs_all_morphisms():
    rng = random.Random(72)
    for _ in range(10):
        C, F, G = random_finset_pair(rng, cap=2000)
        H = hom_bifunctor(F, G)
        assert sorted(end_finset(H)) == sorted(_end_bruteforce(H))


def test_end_of_hom_equals_bruteforce_tuple_for_tuple():
    # same natural transformations in the same order, not only as many
    nonempty = 0
    for seed in range(400):
        C, F, G = random_finset_pair(random.Random(seed), cap=3000)
        end = end_finset(hom_bifunctor(F, G))
        assert end == nat_trans_bruteforce(F, G)
        nonempty += bool(end)
    assert nonempty >= 200


def _components(nodes, edges):
    """Connected components by breadth-first search, each in node order."""
    adj = {v: [] for v in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, comps = set(), []
    for v in nodes:
        if v in seen:
            continue
        seen.add(v)
        comp, queue = {v}, [v]
        while queue:
            for w in adj[queue.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(tuple(u for u in nodes if u in comp))
    return tuple(comps)


def _check_classes(res, nodes, edges):
    assert res.classes == _components(nodes, edges)
    assert res.injections == {it: ci for ci, mem in enumerate(res.classes)
                              for it in mem}


def test_colimit_and_coend_classes_are_components_over_all_morphisms():
    rng = random.Random(73)
    for _ in range(60):
        C, F, G = random_finset_pair(rng, cap=3000)
        _check_classes(
            finset_colimit(F),
            [(x, e) for x in C.objects() for e in F.values[x]],
            [((C.src(m), e), (C.tgt(m), F.actions[m][e]))
             for m in C.morphisms() for e in F.values[C.src(m)]])
        H = hom_bifunctor(F, G)
        P = H.base
        edges = []
        for f in C.morphisms():
            s, t = C.src(f), C.tgt(f)
            pull = H.action(product_mor(P, f, C.identity[s]))
            push = H.action(product_mor(P, C.identity[t], f))
            edges += [((s, pull[u]), (t, push[u]))
                      for u in H.value(product_obj(P, t, s))]
        _check_classes(coend_finset(H),
                       [(g, e) for g in C.objects()
                        for e in H.value(product_obj(P, g, g))], edges)
