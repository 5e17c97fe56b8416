"""The products over generating cells that `bk_holim`, `fat_tot`,
`holim_we_invariance`, `comparison_map` and `change_of_diagrams_iso`
compute, against the equalizer end of their free weights (the
oracle)."""

import random
from holim_engine.records import replace
from fractions import Fraction
from pathlib import Path

import pytest

import holim_engine.cli as cli_mod
import holim_engine.endkan as endkan_mod
import holim_engine.exactalg as exactalg_mod
import holim_engine.fincat as fincat_mod
import holim_engine.holim as holim_mod
import holim_engine.ssets as ssets_mod
from holim_engine.chaincx import (ZERO_COMPLEX, _hom_blocks, betti_numbers,
                                  hom_postcompose, identity_map,
                                  induced_homology_maps, is_quasi_iso,
                                  make_chain_map, make_complex,
                                  validate_complex)
from holim_engine.dsl import parse
from holim_engine.endkan import ChainDiagram, end_induced_map, restrict
from holim_engine.errors import (CompositionDomainError, IdentityViolation,
                                 SimplicialError, WeightRejected)
from holim_engine.exactalg import RationalMatrix, rank, solve_matrix
from holim_engine.fincat import (FinCategory, arrow_category, chain_poset,
                                 comma_over, cospan_category,
                                 discrete_category, find_initial,
                                 find_terminal, from_poset,
                                 identity_functor, object_inclusion)
from holim_engine.holim import (bk_holim, change_of_diagrams_iso,
                                check_homotopy_initial, comparison_map,
                                cosimplicial_replacement, fat_tot, free_end,
                                homotopy_pullback, weighted_end)
from holim_engine.oracle import (_simplex_inclusion, constant_cosimplicial,
                                 cosimplicial_levels, delta_plus_vertices,
                                 holim_we_invariance, validate_weight)
from holim_engine.randgen import (fattened_quasi_iso, random_chain_complex,
                                  random_chain_map, random_cospan_diagram,
                                  random_free_category,
                                  random_functor_between_loopfree,
                                  random_loopfree_category, random_poset,
                                  random_poset_chain_diagram)
from holim_engine.ssets import (SemiSimplicialSet, SSetMap, Weight,
                                _levelwise_free, check_point_resolution,
                                constant_point_weight, identity_sset_map,
                                nerve, nerve_chains, nerve_of_comma_under,
                                nerve_weight, normalized_chains,
                                standard_simplex)

CORPUS = Path(cli_mod.__file__).parent / "corpus"


def arrow_chain_diagram(A, B, fmap):
    C = arrow_category()
    f = C.non_identities()[0]
    return ChainDiagram(C, [A, B], {C.identity[0]: identity_map(A),
                                    C.identity[1]: identity_map(B),
                                    f: fmap})


def _last(G, k, c):
    return c if k == 0 else G.tgt(c[-1])


def _cell_chain(G, com, p, cell):
    """A p-cell of N(G over g) as (chain of G, augmentation last -> g)."""
    if p == 0:
        return com.object_keys[cell]
    chain = tuple(com.mor_key(m)[2] for m in cell)
    return chain, com.object_keys[com.mor_key(cell[-1])[1]][1]


def _product_to_diagonal_sum(F, R, S):
    """phi |-> (F(a) phi(c))_{(c, a)}: the chain product R into the sum S
    of the diagonal values Hom(chains of N(G over g), F(g)), one matrix
    per degree.  R is laid out as in `nerve(G).cells`; a Hom block is
    flattened target index major, cell index minor."""
    G = F.base
    K = nerve(G)
    gens = [(k, c) for k, cells in enumerate(K.cells) for c in cells]
    W = nerve_weight(G)
    comps = {}
    for n in R.degrees():
        off, acc = {}, 0
        for k, c in gens:
            off[(k, c)] = acc
            acc += F.value(_last(G, k, c)).dim(n + k)
        assert acc == R.dim(n)
        rows = [[Fraction(0)] * R.dim(n) for _ in range(S.dim(n))]
        r0 = 0
        for g in G.objects():
            com = comma_over(G, g)
            A = normalized_chains(W.value(g))
            for p, a, b in _hom_blocks(A, F.value(g), n):
                for j, cell in enumerate(W.value(g).n_cells(p)):
                    chain, aug = _cell_chain(G, com, p, cell)
                    blk = F.action(aug).component(p + n)
                    for i in range(b):
                        for r in range(blk.cols):
                            rows[r0 + i * a + j][off[(p, chain)] + r] = \
                                blk.entries[i][r]
                r0 += a * b
        assert r0 == S.dim(n)
        comps[n] = RationalMatrix(S.dim(n), R.dim(n),
                                  tuple(tuple(r) for r in rows))
    return comps


def _check_against_equalizer(F):
    res = bk_holim(F)
    R = res.complex
    E = weighted_end(F, nerve_weight(F.base))
    assert {k: v for k, v in R.dims.items() if v} == \
        {k: v for k, v in E.complex.dims.items() if v}
    assert betti_numbers(R) == betti_numbers(E.complex)
    psi = _product_to_diagonal_sum(F, R, E.sum_complex)
    comps = {}
    for n, m in psi.items():
        X = solve_matrix(E.inclusion.component(n), m)
        assert X is not None, f"image leaves the end in degree {n}"
        comps[n] = X
    theta = make_chain_map(R, E.complex, comps, check=True)
    ok = is_quasi_iso(theta)
    assert ok


def test_chain_product_matches_equalizer_end_randomized():
    rng = random.Random(2024)
    for _ in range(12):
        P = random_poset(rng, 4)
        _check_against_equalizer(
            random_poset_chain_diagram(rng, P, max_dim=2, max_width=2))
    for _ in range(8):
        _check_against_equalizer(random_cospan_diagram(rng, 2, 2))
    for _ in range(8):
        A = random_chain_complex(rng, max_dim=2, max_width=2)
        B = random_chain_complex(rng, max_dim=2, max_width=2)
        _check_against_equalizer(
            arrow_chain_diagram(A, B, random_chain_map(rng, A, B)))
    for _ in range(6):
        # free categories have parallel arrows: not posets
        G = random_loopfree_category(rng)
        c = random_chain_complex(rng, max_dim=2, max_width=2)
        _check_against_equalizer(
            ChainDiagram(G, [c for _ in G.objects()],
                         lambda m, c=c: identity_map(c)))


def test_chain_product_of_zero_diagram_is_zero():
    z = ZERO_COMPLEX
    res = bk_holim(ChainDiagram(arrow_category(), [z, z],
                                lambda m: identity_map(z)))
    assert res.complex.is_zero() and res.betti == {}


def test_bk_holim_rejects_relabelled_constant_point_weight():
    # the constant point over the cospan is not a resolution of the
    # point (no initial object); no trusted label may hide it
    ws = parse((CORPUS / "cospan.hle").read_text())
    D = ws.get("Loop", "diagram_ch").value
    for label in ("nerve_weight", "nerve_of_comma_under"):
        W = replace(constant_point_weight(D.base), provenance=label)
        with pytest.raises(WeightRejected):
            bk_holim(D, W)
    assert bk_holim(D).betti == {-1: 1}


def _non_natural_free_weight():
    """Over [1] = (a -> b): W(a) = Delta^1, vertices a0, a1 and the edge
    ea with faces (a1, a0); W(b) the path b0 - b1 - b2, edges e1 with
    faces (b1, b0) and e2 with faces (b2, b1); W(f) sends a0 to b1, a1
    to b2 and ea to e1.  Every W_n is free (a0, a1, b0 and ea, e2
    generate), and every value is contractible, but W(f) is no map:
    d_0 W(f)(ea) = b1, while W(f)(d_0 ea) = b2."""
    C = arrow_category()
    A = SemiSimplicialSet((("a0", "a1"), ("ea",)), {(1, "ea"): ("a1", "a0")})
    B = SemiSimplicialSet((("b0", "b1", "b2"), ("e1", "e2")),
                          {(1, "e1"): ("b1", "b0"), (1, "e2"): ("b2", "b1")})
    f = C.non_identities()[0]
    return Weight(C, (A, B), {
        C.identity[0]: identity_sset_map(A),
        C.identity[1]: identity_sset_map(B),
        f: SSetMap(A, B, {(0, "a0"): "b1", (0, "a1"): "b2",
                          (1, "ea"): "e1"})})


def test_bk_holim_refuses_a_free_weight_whose_action_is_no_map():
    """The basis of the weight above presents at b two vertices joined
    by two edges beside the vertex b0, which is not contractible, so the
    weight is refused whatever its label; trusted by a label, its end of
    the constant diagram Q gave {-1: 1, 0: 2} for {0: 1}."""
    W = _non_natural_free_weight()
    with pytest.raises(SimplicialError):
        validate_weight(W)
    Q = make_complex({0: 1})
    F = arrow_chain_diagram(Q, Q, identity_map(Q))
    assert bk_holim(F).betti == {0: 1}
    for label in ("nerve_weight", "nerve_of_comma_under", "constant_point",
                  "custom"):
        rep = check_point_resolution(replace(W, provenance=label))
        assert rep.free and rep.per_object == (True, False)
        assert not rep.passed
        with pytest.raises(WeightRejected):
            bk_holim(F, replace(W, provenance=label))


def test_constant_point_over_components_with_initial_objects():
    """Over a base whose components each have an initial object the
    constant point is free on those objects, so `bk_holim` takes it and
    agrees with the nerve weight: Q at each of two discrete objects
    gives {0: 2}, and the equalizer end agrees on random diagrams."""
    rng = random.Random(3202)
    D = discrete_category(["x", "y"])
    Q = make_complex({0: 1})
    F = ChainDiagram(D, [Q, Q], lambda m: identity_map(Q))
    assert bk_holim(F, constant_point_weight(D)).betti == {0: 2}
    for C in (D, from_poset(["a", "b", "c", "d"], {(0, 1), (2, 3)})):
        for _ in range(3):
            assert _check_free_end_against_equalizer(
                random_poset_chain_diagram(rng, C, 2, 2),
                constant_point_weight(C))


def _slices_have_terminal_objects(C):
    """The oracle: build every slice C over g and search it."""
    return all(find_terminal(comma_over(C, g).cat) is not None
               for g in C.objects())


def test_slice_certificate_agrees_with_comma_oracle():
    rng = random.Random(2031)
    cats = [chain_poset(n) for n in range(6)] + [cospan_category()]
    for _ in range(12):
        cats += [random_loopfree_category(rng), random_free_category(rng)[0],
                 random_poset(rng, 5)]
    for C in cats:
        nerve_chains(C)     # its enumerator checks the unit law
        assert _slices_have_terminal_objects(C)


def _parallel_arrows(id_b_after):
    """a => b with arrows f = 2 and f' = 3, and id_b o f, id_b o f' as
    given: a table that no category has unless they are (2, 3), built
    without `validate_category`."""
    table = {(0, 0): 0, (1, 1): 1, (2, 0): 2, (3, 0): 3,
             (1, 2): id_b_after[0], (1, 3): id_b_after[1]}
    return FinCategory(2, ("a", "b"), (0, 1, 0, 0), (0, 1, 1, 1),
                       ("id_a", "id_b", "f", "f'"), (0, 1), table)


def test_bk_holim_rejects_a_table_where_identities_are_not_terminal():
    c = random_chain_complex(random.Random(2032), max_dim=2, max_width=2)
    good = _parallel_arrows((2, 3))
    nerve_chains(good)
    bk_holim(ChainDiagram(good, [c, c], lambda m: identity_map(c)))
    # id_b o f' = f: nothing in the slice over b is terminal
    collapsed = _parallel_arrows((2, 2))
    assert not _slices_have_terminal_objects(collapsed)
    # id_b swaps f and f': each arrow into b still has exactly one map
    # to id_b, but id_b o h != h
    swapped = _parallel_arrows((3, 2))
    for C, h in ((collapsed, "\"f'\""), (swapped, "'f'")):
        with pytest.raises(IdentityViolation, match=f"^id o {h} != {h}$"):
            nerve_chains(C)
        with pytest.raises(IdentityViolation):
            bk_holim(ChainDiagram(C, [c, c], lambda m: identity_map(c)))


def test_comma_over_a_non_category_table_names_the_missing_composite():
    # id_b swaps f and f': in the slice over b, f' is an arrow (a,f) ->
    # (b,id_b) and id_b an arrow (b,id_b) -> (b,id_b), but their
    # composite f is not
    swapped = _parallel_arrows((3, 2))
    with pytest.raises(CompositionDomainError,
                       match=r"composite 'f' = 'id_b' o \"f'\" is not an "
                             r"arrow '\(a,f\)' -> '\(b,id_b\)' of the comma "
                             r"category"):
        comma_over(swapped, 1)


def test_comparison_map_builds_each_product_once(monkeypatch):
    counts = {"free_end": 0, "_chain_generators": 0}
    for name in counts:
        def counted(*args, _orig=getattr(holim_mod, name), _name=name):
            counts[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(holim_mod, name, counted)
    rng = random.Random(2033)
    for _ in range(3):
        P = random_poset(rng, 5, with_bottom=True)
        F = random_poset_chain_diagram(rng, P, 2, 2)
        for k in counts:
            counts[k] = 0
        _, rep = comparison_map(object_inclusion(P, find_initial(P)), F)
        assert rep.quasi_iso and rep.change_of_diagrams_ok
        # P', P and E2; E3 is P
        assert counts["free_end"] == 3
        assert counts["_chain_generators"] <= 2


def test_bk_holim_and_pullbacks_build_no_nerve(monkeypatch):
    """The chain product reads the chains off `ssets.nerve_chains`, so
    neither `bk_holim` nor `homotopy_pullback` builds `nerve(G)`, and the
    cospan shape is built once."""
    calls = []
    for mod in (ssets_mod, holim_mod):
        monkeypatch.setattr(mod, "nerve",
                            lambda C, _orig=ssets_mod.nerve:
                            calls.append(C) or _orig(C))
    rng = random.Random(2034)
    for n in range(5):
        F = random_poset_chain_diagram(rng, chain_poset(n), 2, 2)
        assert bk_holim(F).betti == betti_numbers(F.value(0))
    for _ in range(3):
        D = random_cospan_diagram(rng, 2, 2)
        C = D.base
        _, rep = homotopy_pullback(D.action(C.hom(0, 2)[0]),
                                   D.action(C.hom(1, 2)[0]))
        assert rep.passed
    assert calls == []
    assert cospan_category() is cospan_category()


def test_chain_poset_is_built_and_sorted_once(monkeypatch):
    """`chain_poset(n)` is built once per n, so bk_holim on two
    diagrams over chain_poset(4) sorts the poset (`is_direct`) once."""
    chain_poset.cache_clear()
    calls = []
    monkeypatch.setattr(fincat_mod, "_longest_path_degrees",
                        lambda C, _orig=fincat_mod._longest_path_degrees:
                        calls.append(C) or _orig(C))
    assert chain_poset(4) is chain_poset(4)
    rng = random.Random(2035)
    for _ in range(2):
        F = random_poset_chain_diagram(rng, chain_poset(4), 2, 2)
        assert bk_holim(F).betti == betti_numbers(F.value(0))
    assert len(calls) == 1


def test_betti_numbers_eliminate_only_the_uncleared_rows(monkeypatch):
    """The product over chain_poset(6) is acyclic.  By clearing, degree k
    hands elimination only the rows of d_k outside the pivot columns of
    d_{k-1}: dim C_{k-1} - rk d_{k-1} = rk d_k rows, 240 in all, where
    eliminating every nonzero row takes 472."""
    F = random_poset_chain_diagram(random.Random(1), chain_poset(6), 2, 2, 3)
    C = validate_complex(bk_holim(F).complex)     # ranks found afresh
    handed = []

    def counted(rows, cols, _orig=exactalg_mod._echelon):
        handed.append(len(rows))
        return _orig(rows, cols)
    monkeypatch.setattr(exactalg_mod, "_echelon", counted)
    assert betti_numbers(C) == {}
    monkeypatch.undo()
    degrees = range(C.lo + 1, C.hi + 1)
    assert handed == [rank(C.d(k)) for k in degrees]
    assert sum(handed) == 240 == C.total_dim() // 2
    assert sum(len(C.d(k)._r) for k in degrees) == 472


def test_comma_under_weights_are_levelwise_free():
    rng = random.Random(2025)
    for _ in range(10):
        f = random_functor_between_loopfree(rng)
        assert check_point_resolution(nerve_of_comma_under(f)).free


def _nonzero_dims(C):
    return {k: v for k, v in C.dims.items() if v}


def _check_free_end_against_equalizer(F, W):
    basis = _levelwise_free(W)
    assert basis is not None
    P = free_end(F, basis)
    E = weighted_end(F, W).complex
    assert _nonzero_dims(P) == _nonzero_dims(E)
    assert betti_numbers(P) == betti_numbers(E)
    if check_point_resolution(W).passed:
        assert bk_holim(F, W).betti == bk_holim(F).betti
        return True
    with pytest.raises(WeightRejected):
        bk_holim(F, W)
    return False


def test_free_end_matches_equalizer_end_on_every_weight_kind():
    rng = random.Random(2029)
    # the nerve weight, over posets, cospans and free categories
    for _ in range(6):
        P = random_poset(rng, 4)
        assert _check_free_end_against_equalizer(
            random_poset_chain_diagram(rng, P, 2, 2), nerve_weight(P))
    for _ in range(4):
        F = random_cospan_diagram(rng, 2, 2)
        assert _check_free_end_against_equalizer(F, nerve_weight(F.base))
    for _ in range(4):
        f = random_functor_between_loopfree(rng)
        F = restrict(f, random_poset_chain_diagram(rng, f.target, 2, 2))
        assert _check_free_end_against_equalizer(F, nerve_weight(f.source))
    # the constant point over a base with an initial object
    for _ in range(6):
        P = random_poset(rng, 4, with_bottom=True)
        assert _check_free_end_against_equalizer(
            random_poset_chain_diagram(rng, P, 2, 2),
            constant_point_weight(P))
    # N(f over -): a resolution of the point only when its values are
    # contractible; along an initial-object inclusion they are points
    verdicts = []
    for _ in range(10):
        f = random_functor_between_loopfree(rng)
        verdicts.append(_check_free_end_against_equalizer(
            random_poset_chain_diagram(rng, f.target, 2, 2),
            nerve_of_comma_under(f)))
    for _ in range(3):
        P = random_poset(rng, 4, with_bottom=True)
        assert _check_free_end_against_equalizer(
            random_poset_chain_diagram(rng, P, 2, 2),
            nerve_of_comma_under(object_inclusion(P, find_initial(P))))
    assert True in verdicts and False in verdicts


def test_free_weight_ends_never_take_the_equalizer(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("equalizer end on a free weight")

    # `holim.weighted_end` imports `end_chain` from `endkan` when called,
    # so the patch on `endkan` covers it too
    for mod, name in ((holim_mod, "weighted_end"), (endkan_mod, "end_chain"),
                      (endkan_mod, "end_induced_map")):
        monkeypatch.setattr(mod, name, refuse)
    rng = random.Random(2030)
    P = random_poset(rng, 4, with_bottom=True)
    F = random_poset_chain_diagram(rng, P, 2, 2)
    incl = object_inclusion(P, find_initial(P))
    betti = bk_holim(F).betti
    for W in (nerve_weight(P), constant_point_weight(P),
              nerve_of_comma_under(incl)):
        assert bk_holim(F, W).betti == betti
    assert change_of_diagrams_iso(incl, F).passed
    _, rep = comparison_map(incl, F)
    assert rep.quasi_iso and rep.change_of_diagrams_ok
    assert cli_mod.main([str(CORPUS / "arrow.hle"), "--cmd",
                         "compare-holim ia D", "--json"]) == 0
    assert '"change_of_diagrams_ok": true' in capsys.readouterr().out


def _delta_weight(C):
    """[n] |-> Delta^n over delta_plus_category(N), acting by the simplex
    inclusion with the image vertices of each morphism."""
    S = [standard_simplex(n) for n in C.objects()]
    return Weight(C, tuple(S),
                  {m: _simplex_inclusion(S[C.src(m)], S[C.tgt(m)],
                                         delta_plus_vertices(C, m))
                   for m in C.morphisms()}, provenance="delta")


def _check_fat_tot_against_equalizer(X):
    res = fat_tot(X)
    L = cosimplicial_levels(X)      # X as a diagram over delta_plus
    E = weighted_end(L, _delta_weight(L.base))
    assert _nonzero_dims(res.complex) == _nonzero_dims(E.complex)
    assert res.betti == betti_numbers(E.complex)


def test_fat_tot_matches_equalizer_end_randomized():
    rng = random.Random(2026)
    for N in (1, 2, 3):
        for _ in range(3):
            c = random_chain_complex(rng, max_dim=2, max_width=2)
            _check_fat_tot_against_equalizer(constant_cosimplicial(c, N))
    for N in (2, 3):
        for _ in range(3):
            D = random_cospan_diagram(rng, 2, 2, lo_min=0, hi_max=1)
            _check_fat_tot_against_equalizer(cosimplicial_replacement(D, N))
    ws = parse((CORPUS / "cospan.hle").read_text())
    _check_fat_tot_against_equalizer(
        cosimplicial_replacement(ws.get("Loop", "diagram_ch").value, 3))


def test_we_invariance_matches_equalizer_end_randomized():
    rng = random.Random(2027)
    for _ in range(8):
        P = random_poset(rng, 3)
        G = random_poset_chain_diagram(rng, P, max_dim=2, max_width=2)
        _, alpha = fattened_quasi_iso(rng, G)
        rep = holim_we_invariance(alpha)
        W = nerve_weight(P)
        NW = [normalized_chains(W.value(x)) for x in P.objects()]
        E_F = weighted_end(alpha.source, W)
        E_G = weighted_end(alpha.target, W)
        induced = end_induced_map(
            E_F, E_G, [hom_postcompose(NW[x], alpha.component(x))
                       for x in P.objects()])
        assert rep.quasi_iso == is_quasi_iso(induced)
        assert rep.betti_source == betti_numbers(E_F.complex)
        assert rep.betti_target == betti_numbers(E_G.complex)


def _check_comparison_against_equalizer(f, F):
    R, rep = comparison_map(f, F)
    assert rep.betti_full == betti_numbers(
        weighted_end(F, nerve_weight(f.target)).complex)
    assert rep.betti_restricted == betti_numbers(
        weighted_end(restrict(f, F), nerve_weight(f.source)).complex)
    induced = induced_homology_maps(R).values()
    assert rep.quasi_iso == all(m.rows == m.cols and rank(m) == m.rows
                                for m in induced)
    if check_homotopy_initial(f).passed:
        assert rep.quasi_iso
    return rep.quasi_iso


def test_comparison_map_matches_equalizer_end_randomized():
    rng = random.Random(2028)
    verdicts = []
    for _ in range(14):
        # identity functors, posets and free categories into a poset
        f = random_functor_between_loopfree(rng)
        verdicts.append(_check_comparison_against_equalizer(
            f, random_poset_chain_diagram(rng, f.target, 2, 2)))
    for _ in range(4):
        P = random_poset(rng, 4, with_bottom=True)
        F = random_poset_chain_diagram(rng, P, 2, 2)
        verdicts.append(_check_comparison_against_equalizer(
            object_inclusion(P, find_initial(P)), F))
        verdicts.append(_check_comparison_against_equalizer(
            identity_functor(P), F))
    assert True in verdicts and False in verdicts
