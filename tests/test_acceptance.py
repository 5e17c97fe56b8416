"""Acceptance suite: one test per criterion, each printing a verdict
line (run with -s to stream them).

All expected values are either computed by an independent oracle inside
the test (enumeration, union-find, mapping-path complexes, double
complexes) or are frozen structural facts checked exactly; tolerances
are exact equality of integers throughout.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import holim_engine.cli as cli_mod
from holim_engine import chaincx, endkan, holim, randgen, ssets
from holim_engine.chaincx import (betti_numbers, identity_map, make_chain_map,
                                  single, zero_map)
from holim_engine.endkan import (ChainDiagram, FinSetDiagram, co_yoneda_check,
                                 end_finset, finset_limit, hom_bifunctor, lan,
                                 lan_agreement, nat_trans_bruteforce,
                                 ran_agreement, restrict, bifunctor_diagram)
from holim_engine.exactalg import RationalMatrix
from holim_engine.fincat import (FinCategory, arrow_category, chain_poset,
                                 comma_over, comma_under_functor,
                                 cospan_category, discrete_category,
                                 find_initial, identity_functor,
                                 object_inclusion, opposite, product,
                                 product_mor, product_obj, terminal_category,
                                 validate_functor, FunctorData)
from holim_engine.holim import (bk_holim, change_of_diagrams_iso,
                                check_homotopy_initial, comparison_map,
                                cosimplicial_replacement, fat_tot,
                                homotopy_pullback, weighted_end)
from holim_engine.oracle import (check_reedy_fibrant, constant_cosimplicial,
                                 fibrant_frame, fubini_check,
                                 holim_we_invariance)
from holim_engine.randgen import (fattened_quasi_iso, random_chain_complex,
                                  random_cospan_diagram, random_finset_diagram,
                                  random_finset_pair,
                                  random_functor_between_loopfree,
                                  random_loopfree_category, random_poset,
                                  random_poset_chain_diagram)
from holim_engine.ssets import (nerve, nerve_of_comma_under, nerve_weight,
                                homology_contractible, normalized_chains,
                                chains_of_map)

CORPUS = Path(cli_mod.__file__).parent / "corpus"


def _report(n, desc):
    print(f"\n[acceptance {n:2d}] PASS  {desc}")


def test_acceptance_01_end_vs_enumeration():
    rng = random.Random(20260801)
    t0 = time.monotonic()
    for _ in range(100):
        C, F, G = random_finset_pair(rng)
        end = end_finset(hom_bifunctor(F, G))
        brute = nat_trans_bruteforce(F, G)
        assert len(end) == len(brute)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"end vs enumeration on 100 random pairs "
               f"({elapsed:.2f}s < 10s)")


def test_acceptance_02_limit_recovery():
    rng = random.Random(20260802)
    for _ in range(50):
        C = random_loopfree_category(rng)
        F = random_finset_diagram(rng, C)
        P = product(opposite(C), C)
        values = tuple(F.values[i % C.n_objects] for i in range(P.n_objects))
        actions = {}
        for m1 in C.morphisms():
            for m2 in C.morphisms():
                actions[product_mor(P, m1, m2)] = F.actions[m2]
        H = FinSetDiagram(P, values, actions)
        assert sorted(end_finset(H)) == sorted(finset_limit(F).elements)
    _report(2, "first-variable-constant end recovers the limit, "
               "elementwise, on 50 random diagrams")


def test_acceptance_03_kan_formula_agreement():
    rng = random.Random(20260803)
    for _ in range(50):
        f = random_functor_between_loopfree(rng)
        F = random_finset_diagram(rng, f.source, max_size=2)
        assert lan_agreement(f, F)
        assert ran_agreement(f, F)
        G = random_finset_diagram(rng, f.target, max_size=2)
        lhs = len(nat_trans_bruteforce(lan(f, F).diagram, G))
        rhs = len(nat_trans_bruteforce(F, restrict(f, G)))
        assert lhs == rhs
    _report(3, "comma-formula vs (co)end-formula Kan extensions and "
               "adjunction counts on 50 random (f, F)")


def test_acceptance_04_nerve_contractibility():
    rng = random.Random(20260804)
    for _ in range(50):
        C = random_loopfree_category(rng)
        for g in C.objects():
            K = nerve(comma_over(C, g).cat)
            assert homology_contractible(K)
    _report(4, "slice-comma nerves homology-contractible for 50 random "
               "loop-free categories, every object")


def _kan_of_nerves_bijection(f, n):
    """Explicit bijection between the lan of the dimension-n cell sets of
    the slice nerves and the cells of the comma nerves N(f over -)."""
    G, Gp = f.source, f.target
    W = nerve_weight(G)
    V = nerve_of_comma_under(f)
    over_commas = [comma_over(G, g) for g in G.objects()]
    values = tuple(tuple(W.value(g).n_cells(n)) for g in G.objects())
    actions = {}
    for u in G.morphisms():
        amap = W.action(u).mapping
        actions[u] = {c: amap[(n, c)] for c in values[G.src(u)]}
    cells_diag = FinSetDiagram(G, values, actions)
    ke = lan(f, cells_diag)
    for gp in Gp.objects():
        under = comma_under_functor(f, gp)
        under_obj = {k: i for i, k in enumerate(under.object_keys)}
        under_mor = {under.mor_key(m): m for m in under.cat.morphisms()}
        target_cells = V.value(gp).n_cells(n)

        def translate(j, cell):
            gamma, alpha = ke.commas[gp].object_keys[j]
            over = over_commas[gamma]

            def tobj(i):
                x, beta = over.object_keys[i]
                return under_obj[(x, Gp.comp(alpha, f.morphism_map[beta]))]

            if n == 0:
                return tobj(cell)
            out = []
            for mhat in cell:
                i1, i2, m = over.mor_key(mhat)
                out.append(under_mor[(tobj(i1), tobj(i2), m)])
            return tuple(out)

        seen = {}
        for ci, members in enumerate(ke.details[gp].classes):
            images = {translate(j, cell) for j, cell in members}
            if len(images) != 1:
                return False
            seen[ci] = images.pop()
        if len(set(seen.values())) != len(seen):
            return False
        if set(seen.values()) != set(target_cells):
            return False
    return True


def test_acceptance_05_kan_extension_of_nerves():
    rng = random.Random(20260805)
    for _ in range(25):
        f = random_functor_between_loopfree(rng)
        for n in range(4):
            assert _kan_of_nerves_bijection(f, n)
    _report(5, "cell-set colimit bijection lan(f, N(G over -))_n = "
               "N(f over -)_n for 25 random functors, n <= 3")


def test_acceptance_06_change_of_diagrams_iso():
    rng = random.Random(20260806)
    for _ in range(25):
        f = random_functor_between_loopfree(rng)
        F = random_poset_chain_diagram(rng, f.target, max_dim=2, max_width=2)
        rep = change_of_diagrams_iso(f, F)
        assert rep.passed, rep
    _report(6, "change-of-diagrams isomorphism (dims + differential-"
               "commuting basis map) on 25 random (f, F)")


def test_acceptance_07_homotopy_initial_preservation():
    rng = random.Random(20260807)
    # identity functor on a random shape
    P0 = random_poset(rng, 3)
    F0 = random_poset_chain_diagram(rng, P0, max_dim=2, max_width=2)
    assert check_homotopy_initial(identity_functor(P0)).passed
    _, rep0 = comparison_map(identity_functor(P0), F0)
    assert rep0.quasi_iso
    # inclusions of initial objects into 10 random shapes
    for _ in range(10):
        P = random_poset(rng, 3, with_bottom=True)
        i = find_initial(P)
        incl = object_inclusion(P, i)
        assert check_homotopy_initial(incl).passed
        F = random_poset_chain_diagram(rng, P, max_dim=2, max_width=2)
        _, rep = comparison_map(incl, F)
        assert rep.quasi_iso
    # the curated non-initial case must be detected
    c = single(0)
    C = arrow_category()
    fmap = zero_map(c, c)
    Fz = ChainDiagram(C, [c, c],
                      {C.identity[0]: identity_map(c),
                       C.identity[1]: identity_map(c),
                       C.non_identities()[0]: fmap})
    bad = object_inclusion(C, 1)
    assert not check_homotopy_initial(bad).passed
    _, repbad = comparison_map(bad, Fz)
    assert not repbad.quasi_iso
    assert repbad.betti_full == {0: 1} == repbad.betti_restricted
    _report(7, "restriction along homotopy-initial functors preserves "
               "holim; the non-initial {b} in [1] case is refuted")


def test_acceptance_08_pullback_oracle():
    t0 = time.monotonic()
    # fixed cases first
    c = single(0)
    ident = make_chain_map(c, c, {0: RationalMatrix.from_rows([[1]])})
    res, rep = homotopy_pullback(ident, ident)
    assert rep.passed and res.betti == {0: 1}
    z = zero_map(chaincx.ZERO_COMPLEX, c)
    res2, rep2 = homotopy_pullback(z, z)
    assert rep2.passed and res2.betti == {-1: 1}
    rng = random.Random(20260808)
    for _ in range(100):
        D = random_cospan_diagram(rng, max_dim=3, max_width=3)
        C = D.base
        p = D.action(C.hom(0, 2)[0])
        q = D.action(C.hom(1, 2)[0])
        _, r = homotopy_pullback(p, q)
        assert r.passed, (r.betti_bk, r.betti_oracle)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(8, f"bousfield-kan over cospans matches the mapping-path "
               f"oracle on 100 random cospans + fixed cases "
               f"({elapsed:.2f}s < 30s)")


def test_acceptance_09_fat_totalization():
    rng = random.Random(20260809)
    for _ in range(10):
        cx = random_chain_complex(rng, max_dim=3, max_width=3)
        N = (cx.hi - cx.lo + 2) if not cx.is_zero() else 2
        res = fat_tot(constant_cosimplicial(cx, N))
        want = betti_numbers(cx)
        assert res.stable_from <= (cx.lo if not cx.is_zero() else 0)
        for k in range(res.stable_from, (cx.hi if not cx.is_zero() else 0) + 1):
            assert res.betti_at(k) == want.get(k, 0)
    for _ in range(10):
        # a common degree window keeps the truncation depth at 3
        D = random_cospan_diagram(rng, max_dim=2, max_width=2,
                                  lo_min=0, hi_max=1)
        bk = bk_holim(D)
        his = [D.value(x).hi for x in D.base.objects()
               if not D.value(x).is_zero()]
        width = (max(his) - min(D.value(x).lo for x in D.base.objects()
                                if not D.value(x).is_zero()) + 1) if his else 1
        X = cosimplicial_replacement(D, width + 1)
        res = fat_tot(X)
        top = max(his) if his else 0
        for k in range(res.stable_from, top + 1):
            assert res.betti_at(k) == bk.betti.get(k, 0), \
                (k, res.betti, bk.betti)
    _report(9, "fat totalization matches constants and bousfield-kan of "
               "cospans in all truncation-stable degrees")


def test_acceptance_10_reedy_fibrancy():
    rng = random.Random(20260810)
    for _ in range(20):
        cx = random_chain_complex(rng, max_dim=3, max_width=3)
        frame = fibrant_frame(cx, 4)
        rep = check_reedy_fibrant(frame, 4)
        assert rep.passed
    _report(10, "matching maps are degreewise surjective up to depth 4 "
                "for 20 random complexes")


def test_acceptance_11_homotopy_invariance():
    rng = random.Random(20260811)
    for _ in range(25):
        P = random_poset(rng, 3)
        G = random_poset_chain_diagram(rng, P, max_dim=2, max_width=2)
        F, alpha = fattened_quasi_iso(rng, G)
        rep = holim_we_invariance(alpha)
        assert rep.quasi_iso
    _report(11, "cone-fattened componentwise quasi-isos induce "
                "quasi-isos on holim, 25 random instances")


def test_acceptance_12_fubini_and_co_yoneda():
    rng = random.Random(20260812)
    bases = [(terminal_category(), terminal_category()),
             (terminal_category(), arrow_category()),
             (arrow_category(), arrow_category()),
             (arrow_category(), discrete_category(["x", "y"])),
             (discrete_category(["x", "y"]), arrow_category())]
    for i in range(25):
        G1, G2 = bases[i % len(bases)]
        PP = product(G1, G2)
        F = random_poset_chain_diagram(rng, PP, max_dim=1, max_width=2)
        W = nerve_weight(PP)
        NW = [normalized_chains(W.value(x)) for x in PP.objects()]

        def value_at(x, y):
            return chaincx.hom_complex(NW[x], F.value(y))

        def action_at(m1, m2):
            pre = chaincx.hom_precompose(chains_of_map(W.action(m1)),
                                         F.value(PP.src(m2)))
            post = chaincx.hom_postcompose(NW[PP.src(m1)], F.action(m2))
            return chaincx.compose_maps(post, pre)

        H = bifunctor_diagram(PP, value_at, action_at)
        assert fubini_check(H, G1, G2).passed
    for _ in range(25):
        f = random_functor_between_loopfree(rng)
        G = random_finset_diagram(rng, f.target)
        rep = co_yoneda_check(G, f, rng.randrange(f.source.n_objects))
        assert rep.passed
    _report(12, "fubini three-way end equality and co-yoneda bijection, "
                "25 random instances each")


def test_acceptance_13_cli_determinism():
    cmds = [("cospan.hle", "holim Loop"),
            ("cospan.hle", "hopullback Glue"),
            ("cospan.hle", "fattot Loop"),
            ("arrow.hle", "verify all"),
            ("arrow.hle", "compare-holim ia D"),
            ("hom_end.hle", "end H")]
    for fname, cmd in cmds:
        outs = []
        for _ in range(2):
            r = subprocess.run(
                [sys.executable, "-m", "holim_engine.cli",
                 str(CORPUS / fname), "--cmd", cmd, "--json", "--seed", "5"],
                capture_output=True)
            assert r.returncode in (0, 2), r.stderr
            json.loads(r.stdout)
            outs.append(r.stdout)
        assert outs[0] == outs[1]
    _report(13, "repeated CLI runs on the bundled corpus emit "
                "byte-identical JSON")
