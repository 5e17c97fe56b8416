import random
from holim_engine.records import replace
from itertools import product
from math import comb

import pytest

from holim_engine.chaincx import betti_numbers, validate_map
from holim_engine.errors import (CompositionDomainError, EmptyComplex,
                                 NotLoopFree, SimplicialError)
from holim_engine.fincat import (FinCategory, arrow_category,
                                 category_from_presentation, chain_poset,
                                 comma_over, cospan_category,
                                 identity_functor, object_inclusion,
                                 terminal_category, validate_category)
from holim_engine.oracle import (augmentation, boundary, euler_characteristic,
                                 validate_sset, validate_weight)
from holim_engine.randgen import random_free_category, random_loopfree_category
from holim_engine.ssets import (EMPTY_SSET, Weight, chains_of_map,
                                check_free_basis, check_point_resolution,
                                constant_point_weight, fat_chains,
                                homology_contractible, identity_sset_map,
                                nerve, nerve_chains, nerve_of_comma_under,
                                nerve_weight, normalized_chains, point,
                                standard_simplex)


def test_standard_simplex_cell_counts():
    for n in range(5):
        K = standard_simplex(n)
        validate_sset(K)
        for k in range(n + 1):
            assert len(K.n_cells(k)) == comb(n + 1, k + 1)


def test_boundary_omits_top_cell():
    B, incl = boundary(2)
    assert len(B.n_cells(0)) == 3
    assert len(B.n_cells(1)) == 3
    assert len(B.n_cells(2)) == 0
    assert betti_numbers(normalized_chains(B)) == {0: 1, 1: 1}


def test_boundary_of_point_is_empty():
    B, incl = boundary(0)
    assert B.is_empty()


def test_nerve_terminal_is_point():
    K = nerve(terminal_category())
    assert len(K.n_cells(0)) == 1 and K.top_dim == 0


def test_nerve_arrow_is_interval():
    K = nerve(arrow_category())
    assert len(K.n_cells(0)) == 2 and len(K.n_cells(1)) == 1
    validate_sset(K)


def test_nerve_of_chain_poset_is_simplex():
    K = nerve(chain_poset(2))
    assert [len(K.n_cells(k)) for k in range(3)] == [3, 3, 1]
    validate_sset(K)
    N = normalized_chains(K)
    assert betti_numbers(N) == {0: 1}


def test_nerve_rejects_loops():
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    M = validate_category(FinCategory(
        1, ("x",), (0, 0), (0, 0), ("id_x", "e"), (0,), table))
    with pytest.raises(NotLoopFree):
        nerve(M)
    with pytest.raises(NotLoopFree):
        nerve_chains(M)


def test_nerve_rejects_a_table_whose_composite_skips_an_object():
    """A table sending (1<2) o (0<1) to 1<2 is no category's: the chain
    enumerator names the composite instead of listing a wrong face."""
    P = chain_poset(2)
    f, g = P.mor_labels.index("0<1"), P.mor_labels.index("1<2")
    C = replace(P, compose_table={**P.compose_table, (g, f): g},
                validated=False)
    for build in (nerve_chains, nerve):
        with pytest.raises(CompositionDomainError,
                           match="'1<2' o '0<1' is not a non-identity "
                                 "arrow '0' -> '2'"):
            build(C)


def test_nerve_simplicial_identities_randomized():
    rng = random.Random(100)
    for _ in range(15):
        C = random_loopfree_category(rng)
        validate_sset(nerve(C))


def _nerve_by_enumeration(C):
    """The nerve of C from every k-tuple of non-identity morphisms in
    lexicographic order, kept when composable, with the faces of the
    nerve conventions: d_0 drops the first arrow, d_k the last, inner
    d_i composes at the i-th object; d(m) = (tgt m, src m)."""
    nonid = [m for m in C.morphisms() if not C.is_identity(m)]
    cells, faces = [tuple(C.objects())], {}
    for k in range(1, C.n_objects):
        chains = tuple(c for c in product(nonid, repeat=k)
                       if all(C.mor_tgt[c[i]] == C.mor_src[c[i + 1]]
                              for i in range(k - 1)))
        if not chains:
            break
        cells.append(chains)
        for c in chains:
            if k == 1:
                faces[(1, c)] = (C.mor_tgt[c[0]], C.mor_src[c[0]])
                continue
            inner = [c[:i - 1] + (C.compose_table[(c[i], c[i - 1])],) +
                     c[i + 1:] for i in range(1, k)]
            faces[(k, c)] = (c[1:], *inner, c[:-1])
    return tuple(cells), faces


def test_nerve_matches_enumeration_in_order_randomized():
    rng = random.Random(101)
    cats = [random_loopfree_category(rng) for _ in range(30)] + \
        [random_free_category(rng)[0] for _ in range(15)] + \
        [chain_poset(n) for n in range(5)]
    for C in cats:
        K = nerve(C)
        cells, faces = _nerve_by_enumeration(C)
        assert K.cells == cells
        assert list(K.faces.items()) == list(faces.items())


def test_check_free_basis_rejects_a_replaced_face():
    """Over f: a -> b, g, h: b -> c and k: c -> d, the 2-chain (f, g) has
    faces ((g), id_c), ((g.f), id_c) and ((f), g).  Replacing (g.f) by
    (h.f), the arrow g by h, or (f) by (g) (at the wrong object) breaks
    the certificate; so do the vertex b of (g) replaced by a (at the
    wrong object) and the face (g, k) of (f, g, k) replaced by (h, k),
    whose composites agree with the other faces' but whose face (k.h)
    is another chain.  Each face replaced differs from its neighbours,
    so no swap hides among equal faces."""
    G = category_from_presentation(["a", "b", "c", "d"],
                                   [("f", 0, 1), ("g", 1, 2), ("h", 1, 2),
                                    ("k", 2, 3)])
    basis = nerve_chains(G)
    check_free_basis(G, basis)
    f, g, h, k, gf, hf = (G.mor_labels.index(m)
                          for m in ("f", "g", "h", "k", "g.f", "h.f"))
    index = {b[2]: i for i, b in enumerate(basis)}
    assert basis[index[(f, g)]][3] == ((index[(g,)], G.identity[2]),
                                       (index[(gf,)], G.identity[2]),
                                       (index[(f,)], g))
    for chain, i, face in (((f, g), 1, (index[(hf,)], G.identity[2])),
                           ((f, g), 2, (index[(f,)], h)),
                           ((f, g), 2, (index[(g,)], g)),
                           ((g,), 1, (0, g)),
                           ((f, g, k), 0, (index[(h, k)], G.identity[3]))):
        j = index[chain]
        faces = basis[j][3]
        assert faces[i] != face
        broken = list(basis)
        broken[j] = basis[j][:3] + (faces[:i] + (face,) + faces[i + 1:],)
        with pytest.raises(SimplicialError):
            check_free_basis(G, broken)


def test_check_free_basis_rejects_misplaced_faces():
    """The arrow f: a -> b is a 1-chain with faces (b, id_b) and (a, f)
    and no face of anything, so only the placement of its faces is
    checked: each replacement below puts a face at the wrong object, at
    the wrong dimension, outside the basis or leaves one out."""
    C = arrow_category()
    basis = nerve_chains(C)
    a, b, (f,) = 0, 1, C.non_identities()
    j, ida, idb = 2, C.identity[a], C.identity[b]
    assert basis[j] == (1, b, (f,), ((b, idb), (a, f)))
    check_free_basis(C, basis)
    for faces in (((b, idb), (b, f)), ((b, idb), (a, ida)),
                  ((j, idb), (a, f)), ((b, idb), (len(basis), f)),
                  ((b, idb),)):
        with pytest.raises(SimplicialError):
            check_free_basis(C, basis[:j] + ((1, b, (f,), faces),))


def test_fat_chains_stop_at_the_depth():
    """The cospan has 3 + 2n chains of length n with identities allowed;
    no chain has length at most -1, so a negative depth lists none."""
    C = cospan_category()
    for N in range(4):
        assert [n for n, _, _, _ in fat_chains(C, N)] == \
            [n for n in range(N + 1) for _ in range(3 + 2 * n)]
    assert fat_chains(C, -1) == ()


def test_normalized_chains_point():
    N = normalized_chains(point())
    assert dict(N.dims) == {0: 1}


def test_normalized_chains_interval_orientation():
    # d(edge) = vertex 1 minus vertex 0
    N = normalized_chains(standard_simplex(1))
    assert dict(N.dims) == {0: 2, 1: 1}
    col = N.d(1).column(0)
    assert (col[0], col[1]) == (-1, 1)


def test_homology_contractible():
    assert homology_contractible(point())
    for n in range(1, 5):
        assert homology_contractible(standard_simplex(n))
    B, _ = boundary(2)
    assert not homology_contractible(B)
    with pytest.raises(EmptyComplex):
        homology_contractible(EMPTY_SSET)


def test_comma_nerves_contractible_randomized():
    rng = random.Random(200)
    for _ in range(15):
        C = random_loopfree_category(rng)
        for g in C.objects():
            K = nerve(comma_over(C, g).cat)
            assert homology_contractible(K)
            assert euler_characteristic(K) == 1


def test_nerve_weight_over_arrow():
    C = arrow_category()
    W = validate_weight(nerve_weight(C))
    assert W.value(0).top_dim == 0          # point at a
    assert len(W.value(1).n_cells(0)) == 2  # interval at b
    assert len(W.value(1).n_cells(1)) == 1
    f = C.non_identities()[0]
    act = W.action(f)
    com_b = comma_over(C, 1)
    vertex = act(0, W.value(0).n_cells(0)[0])
    assert com_b.object_keys[vertex] == f


def test_nerve_weight_functorial_randomized():
    rng = random.Random(300)
    for _ in range(10):
        C = random_loopfree_category(rng)
        W = nerve_weight(C)
        validate_weight(W)
        for m in C.morphisms():
            validate_map(chains_of_map(W.action(m)))


def test_nerve_of_comma_under_identity_matches_nerve_weight():
    C = chain_poset(2)
    W1 = nerve_weight(C)
    W2 = nerve_of_comma_under(identity_functor(C))
    for x in C.objects():
        assert [len(cs) for cs in W1.value(x).cells] == \
            [len(cs) for cs in W2.value(x).cells]


def test_nerve_of_comma_under_point_inclusions():
    C = arrow_category()
    Wa = nerve_of_comma_under(object_inclusion(C, 0))
    assert Wa.value(0).total_cells() == 1
    assert Wa.value(1).total_cells() == 1
    Wb = nerve_of_comma_under(object_inclusion(C, 1))
    assert Wb.value(0).is_empty()
    assert Wb.value(1).total_cells() == 1


def test_check_point_resolution_nerve_weight():
    rep = check_point_resolution(nerve_weight(arrow_category()))
    assert rep.passed and rep.whitelisted and all(rep.per_object)


def test_check_point_resolution_constant_point():
    rep = check_point_resolution(constant_point_weight(arrow_category()))
    assert rep.passed  # [1] has an initial object
    rep2 = check_point_resolution(constant_point_weight(cospan_category()))
    assert not rep2.passed  # the cospan has no initial object


def test_check_point_resolution_checks_structure_not_label():
    C = arrow_category()
    fake = replace(nerve_weight(C), provenance="constant_point")
    assert not check_point_resolution(fake).whitelisted
    fake2 = replace(constant_point_weight(cospan_category()),
                    provenance="nerve_weight")
    rep = check_point_resolution(fake2)
    assert not rep.whitelisted and not rep.passed


def test_check_point_resolution_rejects_boundary_value():
    B, _ = boundary(2)
    C = terminal_category()
    W = Weight(C, (B,), {0: identity_sset_map(B)}, provenance="custom")
    rep = check_point_resolution(W)
    assert not rep.passed and not rep.per_object[0]


def test_augmentation_is_chain_map():
    for n in range(4):
        validate_map(augmentation(standard_simplex(n)))
    rng = random.Random(42)
    for _ in range(5):
        C = random_loopfree_category(rng)
        validate_map(augmentation(nerve(C)))
