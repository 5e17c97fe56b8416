import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from holim_engine import chaincx, holim
from holim_engine.chaincx import (ZERO_COMPLEX, betti_numbers, direct_sum,
                                  hom_precompose, identity_map, is_quasi_iso,
                                  make_chain_map, make_complex, single,
                                  zero_map)
from holim_engine.endkan import (ChainDiagram, ChainDiagramMap,
                                 end_induced_map, restrict)
from holim_engine.errors import (DepthExceeded, DiagramError,
                                 NotComponentwiseWE, NotLoopFree,
                                 TruncationTooShallow, WeightRejected)
from holim_engine.exactalg import RationalMatrix
from holim_engine.fincat import (arrow_category, chain_poset,
                                 cospan_category, identity_functor,
                                 object_inclusion, terminal_category,
                                 validate_functor, FunctorData, find_initial)
from holim_engine.holim import (bk_holim, change_of_diagrams_iso,
                                check_homotopy_initial, comparison_map,
                                cosimplicial_replacement, cospan_diagram,
                                delta_plus_category, fat_tot,
                                homotopy_pullback, mapping_path_complex,
                                weighted_end)
from holim_engine.oracle import (augmentation, check_reedy_fibrant,
                                 constant_cosimplicial,
                                 cosimplicial_from_cofaces,
                                 cosimplicial_levels, fibrant_frame,
                                 holim_we_invariance, matching_object)
from holim_engine.randgen import (fattened_quasi_iso, random_chain_complex,
                                  random_chain_map, random_cospan_diagram,
                                  random_poset, random_poset_chain_diagram)
from holim_engine.ssets import (constant_point_weight, nerve_weight,
                                normalized_chains)

M = RationalMatrix.from_rows


def arrow_chain_diagram(A, B, fmap):
    C = arrow_category()
    f = C.non_identities()[0]
    return ChainDiagram(C, [A, B], {C.identity[0]: identity_map(A),
                                    C.identity[1]: identity_map(B),
                                    f: fmap})


def constant_diagram(C, c):
    return ChainDiagram(C, [c for _ in C.objects()],
                        lambda m: identity_map(c))


# --- frames ---------------------------------------------------------------------

def test_frame_levels():
    frame = fibrant_frame(single(0), 2)
    assert frame.level(0).dims == single(0).dims
    assert dict(frame.level(1).dims) == {0: 2, -1: 1}
    assert betti_numbers(frame.level(1)) == {0: 1}
    with pytest.raises(DepthExceeded):
        frame.level(3)


def test_frame_zero_complex():
    frame = fibrant_frame(ZERO_COMPLEX, 2)
    assert frame.level(2).is_zero()


def test_frame_coface_functoriality():
    rng = random.Random(1)
    c = random_chain_complex(rng, max_dim=2, max_width=2)
    frame = fibrant_frame(c, 3)
    # (0,2) into [3] factors as <0,2,3> after <0,2> etc.; spot-check one
    r1 = frame.coface_action((0, 2), 3)
    r2a = frame.coface_action((0, 1, 2), 3)   # [2] -> [3]
    r2b = frame.coface_action((0, 2), 2)      # [1] -> [2], image {0, 2}
    comp = chaincx.compose_maps(r2b, r2a)
    for k in frame.level(3).degrees():
        assert comp.component(k) == r1.component(k)


def test_matching_object_base_cases():
    frame = fibrant_frame(single(0), 2)
    M0, map0 = matching_object(frame, 0)
    assert M0.is_zero()
    M1, map1 = matching_object(frame, 1)
    assert dict(M1.dims) == {0: 2}
    # evaluation at the two vertices
    assert map1.component(0).rows == 2


def test_check_reedy_fibrant():
    rng = random.Random(2)
    frame = fibrant_frame(single(0), 3)
    assert check_reedy_fibrant(frame, 3).passed
    frame0 = fibrant_frame(ZERO_COMPLEX, 2)
    assert check_reedy_fibrant(frame0, 2).passed
    cone = make_complex({0: 1, 1: 1}, {1: M([[1]])})
    assert check_reedy_fibrant(fibrant_frame(cone, 2), 2).passed


# --- Bousfield-Kan --------------------------------------------------------------

def test_bk_holim_terminal():
    rng = random.Random(3)
    c = random_chain_complex(rng)
    F = constant_diagram(terminal_category(), c)
    res = bk_holim(F)
    assert res.betti == betti_numbers(c)


def test_bk_holim_arrow_identity():
    F = arrow_chain_diagram(single(0), single(0),
                            make_chain_map(single(0), single(0),
                                           {0: M([[1]])}))
    res = bk_holim(F)
    assert res.betti == {0: 1}


def test_bk_holim_rejects_bad_weight():
    """A boundary value, and values whose edge has no faces entry or a
    face naming no cell, end in `WeightRejected`, not a `KeyError`."""
    from holim_engine.ssets import (SemiSimplicialSet, Weight,
                                    identity_sset_map)
    from holim_engine.oracle import boundary
    C = terminal_category()
    F = constant_diagram(C, single(0))
    for K in [boundary(2)[0],
              SemiSimplicialSet((("v",), ("e",)), {}),
              SemiSimplicialSet((("v",), ("e",)), {(1, "e"): ("w", "v")})]:
        with pytest.raises(WeightRejected):
            bk_holim(F, Weight(C, (K,), {0: identity_sset_map(K)}))


def test_bk_holim_rejects_loops():
    from holim_engine.fincat import FinCategory, validate_category
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    Z2 = validate_category(FinCategory(
        1, ("x",), (0, 0), (0, 0), ("id_x", "e"), (0,), table))
    F = ChainDiagram(Z2, [single(0)], lambda m: identity_map(single(0)))
    with pytest.raises(NotLoopFree):
        bk_holim(F)


def test_bk_holim_finite_dimension_bound():
    rng = random.Random(4)
    from holim_engine.ssets import nerve_weight
    for _ in range(5):
        P = random_poset(rng, 3)
        F = random_poset_chain_diagram(rng, P, max_dim=2, max_width=2)
        res = bk_holim(F)
        W = nerve_weight(P)
        bound = sum(F.value(g).total_dim() * W.value(g).total_cells()
                    for g in P.objects())
        assert res.complex.total_dim() <= bound


def test_weight_independence_over_arrow():
    # nerve weight vs constant point over [1]: comparison map along the
    # augmentations is a quasi-iso
    rng = random.Random(5)
    A = random_chain_complex(rng, max_dim=2, max_width=2)
    B = random_chain_complex(rng, max_dim=2, max_width=2)
    fmap = random_chain_map(rng, A, B)
    F = arrow_chain_diagram(A, B, fmap)
    C = F.base
    Wn = nerve_weight(C)
    Wp = constant_point_weight(C)
    En = weighted_end(F, Wn)
    Ep = weighted_end(F, Wp)
    assert betti_numbers(En.complex) == betti_numbers(Ep.complex)
    comps = [hom_precompose(augmentation(Wn.value(g)), F.value(g))
             for g in C.objects()]
    comp = end_induced_map(Ep, En, comps)
    ok = is_quasi_iso(comp)
    assert ok


# --- homotopy pullback ------------------------------------------------------------

def test_pullback_identity_legs():
    c = single(0)
    ident = make_chain_map(c, c, {0: M([[1]])})
    res, rep = homotopy_pullback(ident, ident)
    assert rep.passed
    assert res.betti == {0: 1}


def test_pullback_two_zero_legs():
    c = single(0)
    z = zero_map(ZERO_COMPLEX, c)
    res, rep = homotopy_pullback(z, z)
    assert rep.passed
    assert res.betti == {-1: 1}


def test_pullback_zero_target():
    rng = random.Random(6)
    A = random_chain_complex(rng)
    B = random_chain_complex(rng)
    res, rep = homotopy_pullback(zero_map(A, ZERO_COMPLEX),
                                 zero_map(B, ZERO_COMPLEX))
    assert rep.passed
    expected = {}
    for k in set(A.degrees()) | set(B.degrees()):
        b = betti_numbers(A).get(k, 0) + betti_numbers(B).get(k, 0)
        if b:
            expected[k] = b
    assert res.betti == expected


def test_pullback_oracle_randomized():
    rng = random.Random(7)
    for _ in range(10):
        D = random_cospan_diagram(rng)
        C = D.base
        p = D.action(C.hom(0, 2)[0])
        q = D.action(C.hom(1, 2)[0])
        res, rep = homotopy_pullback(p, q)
        assert rep.passed, (rep.betti_bk, rep.betti_oracle)


def test_mapping_path_complex_d_squared():
    rng = random.Random(8)
    for _ in range(10):
        D = random_cospan_diagram(rng)
        C = D.base
        P = mapping_path_complex(D.action(C.hom(0, 2)[0]),
                                 D.action(C.hom(1, 2)[0]))
        # make_complex already asserts d o d = 0
        assert P.lo <= P.hi or P.is_zero()


# --- fat totalization ---------------------------------------------------------------

def test_delta_plus_category_counts():
    C = delta_plus_category(2)
    assert C.n_objects == 3
    # morphisms [m] -> [n]: C(n+1, m+1) injections
    assert C.n_morphisms == 1 + 2 + 3 + 1 + 3 + 1


def test_fat_tot_constant_point():
    X = constant_cosimplicial(single(0), 3)
    res = fat_tot(X)
    assert res.stable_from == -2
    assert res.betti_at(0) == 1
    for k in (-1, -2):
        assert res.betti_at(k) == 0
    with pytest.raises(TruncationTooShallow):
        res.betti_at(-3)


def test_fat_tot_zero():
    X = constant_cosimplicial(ZERO_COMPLEX, 2)
    res = fat_tot(X)
    assert res.complex.is_zero()


def test_fat_tot_constant_matches_input():
    rng = random.Random(9)
    for _ in range(3):
        c = random_chain_complex(rng, max_dim=2, max_width=2)
        N = (c.hi - c.lo) + 2 if not c.is_zero() else 2
        res = fat_tot(constant_cosimplicial(c, N))
        want = betti_numbers(c)
        for k in range(res.stable_from, c.hi + 1):
            assert res.betti_at(k) == want.get(k, 0)


def test_fat_tot_of_cosimplicial_replacement_matches_bk():
    # the spec's cospan (0 -> Q[0] <- 0): holim has H_{-1} = 1
    C = cospan_category()
    z = ZERO_COMPLEX
    c = single(0)
    F = ChainDiagram(C, [z, z, c],
                     {C.identity[0]: identity_map(z),
                      C.identity[1]: identity_map(z),
                      C.identity[2]: identity_map(c),
                      C.hom(0, 2)[0]: zero_map(z, c),
                      C.hom(1, 2)[0]: zero_map(z, c)})
    bk = bk_holim(F)
    assert bk.betti == {-1: 1}
    X = cosimplicial_replacement(F, 3)
    res = fat_tot(X)
    for k in range(res.stable_from, 1):
        assert res.betti_at(k) == bk.betti.get(k, 0)


def test_cosimplicial_replacement_levels_for_cospan():
    C = cospan_category()
    F = constant_diagram(C, single(0))
    X = cosimplicial_replacement(F, 2)
    # chains of length n in the cospan: 3 + 2n of them
    assert X.value(0).dim(0) == 3
    assert X.value(1).dim(0) == 5
    assert X.value(2).dim(0) == 7
    with pytest.raises(DiagramError, match="needs level 0"):
        cosimplicial_replacement(F, -1)


def test_fat_tot_refuses_a_diagram_that_is_not_a_functor():
    """The coface identities of the replacement rest on F being a
    functor, which `fat_tot` checks before its free end: over 0 -> 1 -> 2
    with every value Q[0], the composite 0 -> 2 acting by 2 while both
    steps act by 1, or the identity of 0 acting by 2, is refused."""
    C, c = chain_poset(2), single(0)
    two = make_chain_map(c, c, {0: M([[2]])})
    for m, match in ((C.hom(0, 2)[0], "not functorial"),
                     (C.identity[0], "identity action at object 0")):
        F = ChainDiagram(C, [c] * 3, lambda u, m=m:
                         two if u == m else identity_map(c))
        with pytest.raises(DiagramError, match=match):
            fat_tot(cosimplicial_replacement(F, 2))


def test_cosimplicial_from_cofaces_rejects_a_missing_coface():
    c = single(0)
    cofaces = {(n, i): identity_map(c) for n in (1, 2) for i in range(n + 1)}
    del cofaces[(1, 1)]
    with pytest.raises(DiagramError, match=r"coface \(1, 1\) is missing"):
        cosimplicial_from_cofaces([c] * 3, cofaces)
    with pytest.raises(DiagramError, match="needs level 0"):
        cosimplicial_from_cofaces([], {})


def test_cosimplicial_from_cofaces_rejects_a_misshapen_coface():
    # at N = 1 there is no coface identity to check; the shapes still are
    c = single(0)
    cc, _, _ = direct_sum([c, c])
    with pytest.raises(DiagramError,
                       match=r"coface \(1, 0\) does not map level 0 to "
                             r"level 1"):
        cosimplicial_from_cofaces([c, cc], {(1, 0): identity_map(c),
                                            (1, 1): zero_map(c, cc)})


def test_cosimplicial_from_cofaces_rejects_a_broken_coface_identity():
    c = single(0)
    cofaces = {(n, i): identity_map(c) for n in (1, 2) for i in range(n + 1)}
    cofaces[(2, 0)] = make_chain_map(c, c, {0: M([[2]])})
    # d^1 d^0 = id but d^0 d^0 = 2
    with pytest.raises(DiagramError,
                       match=r"coface identity fails at \(n=1, i=0, j=1\)"):
        cosimplicial_from_cofaces([c] * 3, cofaces)
    X = cosimplicial_from_cofaces([c] * 3, {
        (n, i): identity_map(c) for n in (1, 2) for i in range(n + 1)})
    assert X == cosimplicial_levels(constant_cosimplicial(c, 2))


def test_fat_tot_builds_no_delta_plus_category():
    """In a fresh interpreter, since the category is cached per process:
    neither the CLI `fattot` nor the library `fat_tot` builds the
    truncated injective-simplex category, and a diagram that is not a
    `Cosimplicial` is refused."""
    src = Path(holim.__file__).resolve().parents[1]
    code = (
        "import contextlib, io, os\n"
        "from holim_engine import cli, dsl, holim\n"
        "from holim_engine.errors import ShapeMismatch\n"
        "def built():\n"
        "    return holim.delta_plus_category.cache_info().currsize\n"
        "corpus = os.path.join(os.path.dirname(holim.__file__), 'corpus',\n"
        "                      'cospan.hle')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main([corpus, '--cmd', 'fattot Loop', '--depth', '4',\n"
        "                     '--json']) == 0\n"
        "assert built() == 0, 'cli'\n"
        "with open(corpus, encoding='utf-8') as fh:\n"
        "    D = dsl.parse(fh.read()).get('Glue', 'diagram_ch').value\n"
        "holim.fat_tot(holim.cosimplicial_replacement(D, 10))\n"
        "assert built() == 0, 'library'\n"
        "try:\n"
        "    holim.fat_tot(D)\n"
        "except ShapeMismatch:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('a ChainDiagram was accepted')\n"
        "assert built() == 0, 'refusal'\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr


def test_cli_fattot_composes_and_assembles_no_matrices():
    """In a fresh interpreter, CLI `fattot Loop --depth 6` makes no call
    to `compose_maps`, `direct_sum`, `block_matrix` or `product_total`,
    parsing included: the fat totalization is one `free_end`, which
    writes each row once, and no coface is composed.  Every engine
    module the command loads is loaded, and each of its bindings of
    these names counted, before the command runs."""
    src = Path(holim.__file__).resolve().parents[1]
    code = (
        "import contextlib, io, os, sys\n"
        "from holim_engine import chaincx, cli, exactalg, holim\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.startswith('holim_engine')}\n"
        "before, calls = loaded(), {}\n"
        "for mod, name in ((chaincx, 'compose_maps'), (chaincx, 'direct_sum'),\n"
        "                  (exactalg, 'block_matrix'),\n"
        "                  (chaincx, 'product_total')):\n"
        "    orig = getattr(mod, name)\n"
        "    def counted(*a, _orig=orig, _name=name, **kw):\n"
        "        calls[_name] = calls.get(_name, 0) + 1\n"
        "        return _orig(*a, **kw)\n"
        "    for m in before:\n"
        "        if getattr(sys.modules[m], name, None) is orig:\n"
        "            setattr(sys.modules[m], name, counted)\n"
        "corpus = os.path.join(os.path.dirname(holim.__file__), 'corpus',\n"
        "                      'cospan.hle')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main([corpus, '--cmd', 'fattot Loop', '--depth', '6',\n"
        "                     '--json']) == 0\n"
        "assert loaded() == before, loaded() - before\n"
        "assert calls == {}, calls\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr


# --- homotopy-initial functors --------------------------------------------------------

def test_homotopy_initial_identity():
    rng = random.Random(10)
    P = random_poset(rng, 3)
    assert check_homotopy_initial(identity_functor(P)).passed


def test_homotopy_initial_initial_object():
    P = random_poset(random.Random(11), 3, with_bottom=True)
    i = find_initial(P)
    assert i is not None
    rep = check_homotopy_initial(object_inclusion(P, i))
    assert rep.passed


def test_homotopy_initial_fails_for_non_initial():
    C = arrow_category()
    rep = check_homotopy_initial(object_inclusion(C, 1))
    assert not rep.passed
    assert rep.per_object == (False, True)


# --- change of diagrams and comparison ---------------------------------------------

def test_change_of_diagrams_identity():
    rng = random.Random(12)
    P = random_poset(rng, 3)
    F = random_poset_chain_diagram(rng, P, max_dim=2, max_width=2)
    rep = change_of_diagrams_iso(identity_functor(P), F)
    assert rep.passed
    assert rep.dims_over_source == rep.dims_over_target


def test_change_of_diagrams_point_inclusion():
    c = single(0)
    ident = make_chain_map(c, c, {0: M([[1]])})
    F = arrow_chain_diagram(c, c, ident)
    rep = change_of_diagrams_iso(object_inclusion(arrow_category(), 0), F)
    assert rep.passed


def test_change_of_diagrams_zero():
    C = arrow_category()
    F = constant_diagram(C, ZERO_COMPLEX)
    rep = change_of_diagrams_iso(object_inclusion(C, 0), F)
    assert rep.passed
    assert rep.dims_over_source == {} == rep.dims_over_target


def test_comparison_identity_functor():
    rng = random.Random(13)
    P = random_poset(rng, 3)
    F = random_poset_chain_diagram(rng, P, max_dim=2, max_width=2)
    cmap, rep = comparison_map(identity_functor(P), F)
    assert rep.change_of_diagrams_ok
    assert rep.quasi_iso
    # over the identity the comparison is an isomorphism of complexes
    from holim_engine.exactalg import rank
    for k in cmap.source.degrees():
        m = cmap.component(k)
        assert m.rows == m.cols and rank(m) == m.rows


def test_comparison_initial_inclusion_quasi_iso():
    c = single(0)
    ident = make_chain_map(c, c, {0: M([[1]])})
    F = arrow_chain_diagram(c, c, ident)
    cmap, rep = comparison_map(object_inclusion(arrow_category(), 0), F)
    assert rep.quasi_iso
    assert rep.betti_full == {0: 1}
    assert rep.betti_restricted == {0: 1}


def test_comparison_non_initial_detected():
    # f: {b} into [1] with F = (Q[0] --0--> Q[0]): both ends have H_0 = 1
    # but the comparison map is zero on homology
    c = single(0)
    F = arrow_chain_diagram(c, c, zero_map(c, c))
    cmap, rep = comparison_map(object_inclusion(arrow_category(), 1), F)
    assert rep.change_of_diagrams_ok
    assert rep.betti_full == {0: 1}
    assert rep.betti_restricted == {0: 1}
    assert not rep.quasi_iso


def test_bk_holim_initial_object_value():
    # holim over a shape with initial object i is F(i) up to quasi-iso
    rng = random.Random(14)
    for _ in range(4):
        P = random_poset(rng, 3, with_bottom=True)
        F = random_poset_chain_diagram(rng, P, max_dim=2, max_width=2)
        i = find_initial(P)
        cmap, rep = comparison_map(object_inclusion(P, i), F)
        assert rep.quasi_iso
        assert rep.betti_full == betti_numbers(F.value(i))


# --- homotopy invariance -----------------------------------------------------------

def test_we_invariance_identity():
    rng = random.Random(15)
    P = random_poset(rng, 3)
    F = random_poset_chain_diagram(rng, P, max_dim=2, max_width=2)
    alpha = ChainDiagramMap(F, F, {x: identity_map(F.value(x))
                                   for x in P.objects()})
    rep = holim_we_invariance(alpha)
    assert rep.quasi_iso


def test_we_invariance_fattened():
    rng = random.Random(16)
    for _ in range(4):
        P = random_poset(rng, 3)
        G = random_poset_chain_diagram(rng, P, max_dim=2, max_width=2)
        F, alpha = fattened_quasi_iso(rng, G)
        rep = holim_we_invariance(alpha)
        assert rep.quasi_iso
        assert rep.betti_source == rep.betti_target


def test_we_invariance_rejects_non_we():
    c = single(0)
    F = arrow_chain_diagram(c, c, zero_map(c, c))
    G = constant_diagram(arrow_category(), ZERO_COMPLEX)
    alpha = ChainDiagramMap(F, G, {0: zero_map(c, ZERO_COMPLEX),
                                   1: zero_map(c, ZERO_COMPLEX)})
    with pytest.raises(NotComponentwiseWE):
        holim_we_invariance(alpha)


def test_matching_map_is_vertex_evaluation():
    frame = fibrant_frame(single(0), 1)
    _, mmap = matching_object(frame, 1)
    assert mmap.component(0) == RationalMatrix.identity(2)


def test_fattot_depth_too_shallow_detected():
    # with the minimum depth the stable range still starts above lo - 1
    X = constant_cosimplicial(single(0), 1)
    res = fat_tot(X)
    assert res.stable_from == 0
    with pytest.raises(TruncationTooShallow):
        res.betti_at(-1)


def test_bk_holim_accepts_constant_point_weight_over_arrow():
    rng = random.Random(17)
    A = random_chain_complex(rng, max_dim=2, max_width=2)
    B = random_chain_complex(rng, max_dim=2, max_width=2)
    F = arrow_chain_diagram(A, B, random_chain_map(rng, A, B))
    res_pt = bk_holim(F, constant_point_weight(F.base))
    res_nw = bk_holim(F)
    assert res_pt.betti == res_nw.betti
