import random
from fractions import Fraction

import pytest

from holim_engine import chaincx
from holim_engine.chaincx import (ZERO_COMPLEX, direct_sum, hom_complex,
                                  hom_decode, hom_encode, homology,
                                  identity_map, induced_homology_maps,
                                  is_quasi_iso, make_chain_map, make_complex,
                                  power, product_total, single, validate_map,
                                  zero_map, betti_numbers, compose_maps,
                                  hom_precompose, hom_postcompose)
from holim_engine.errors import (ChainRuleViolation, DSquareNonzero,
                                 ShapeMismatch, TotalDSquareNonzero)
from holim_engine.exactalg import RationalMatrix
from holim_engine.oracle import augmentation, boundary, equalizer_kernel
from holim_engine.randgen import random_chain_complex, random_chain_map
from holim_engine.ssets import normalized_chains, point, standard_simplex

M = RationalMatrix.from_rows


def test_zero_complex_valid():
    assert make_complex({}) is ZERO_COMPLEX or make_complex({}).is_zero()


def test_single_q_in_degree_zero():
    C = single(0)
    assert C.lo == C.hi == 0 and C.dim(0) == 1
    assert betti_numbers(C) == {0: 1}


def test_d_square_nonzero_rejected():
    with pytest.raises(DSquareNonzero):
        make_complex({0: 1, 1: 1, 2: 1}, {1: M([[1]]), 2: M([[1]])})


def test_homology_acyclic_cone():
    C = make_complex({0: 1, 1: 1}, {1: M([[1]])})
    assert betti_numbers(C) == {}


def test_homology_zero_differential():
    C = make_complex({0: 1, 1: 1}, {1: M([[0]])})
    assert betti_numbers(C) == {0: 1, 1: 1}


def test_homology_representatives_are_cycles():
    rng = random.Random(3)
    for _ in range(20):
        C = random_chain_complex(rng)
        for k in C.degrees():
            b, reps = homology(C, k)
            assert len(reps) == b
            for r in reps:
                assert all(x == 0 for x in C.d(k).apply(r))


def test_quasi_iso_identity():
    C = make_complex({0: 2, 1: 1}, {1: M([[1], [0]])})
    ok = is_quasi_iso(identity_map(C))
    assert ok


def test_quasi_iso_cone_to_zero():
    cone = make_complex({0: 1, 1: 1}, {1: M([[1]])})
    ok = is_quasi_iso(zero_map(cone, ZERO_COMPLEX))
    assert ok


def test_zero_selfmap_not_quasi_iso():
    C = single(0)
    ok = is_quasi_iso(zero_map(C, C))
    assert not ok
    assert induced_homology_maps(zero_map(C, C))[0].entries == \
        ((Fraction(0),),)


def test_chain_rule_violation_detected():
    src = make_complex({0: 1, 1: 1}, {1: M([[1]])})
    tgt = single(0)
    with pytest.raises(ChainRuleViolation):
        make_chain_map(src, tgt, {0: M([[1]]), 1: M([], rows=0, cols=1)},
                       check=True)
        # f_0 d = d f_1 forces f_0 to kill the image of d
        # (the above has f_0 = 1 on a boundary)


def test_hom_complex_unit_left():
    rng = random.Random(8)
    for _ in range(10):
        B = random_chain_complex(rng)
        H = hom_complex(single(0), B)
        assert H.dims == B.dims
        for k in B.degrees():
            assert H.d(k) == B.d(k)


def test_hom_complex_dual_degrees():
    A = make_complex({0: 1, 1: 1})  # zero differential
    H = hom_complex(A, single(0))
    assert dict(H.dims) == {0: 1, -1: 1}


def test_hom_complex_self_point():
    H = hom_complex(single(0), single(0))
    assert dict(H.dims) == {0: 1}


def test_hom_complex_d_squared_randomized():
    rng = random.Random(77)
    for _ in range(15):
        A = random_chain_complex(rng, max_dim=2, max_width=3)
        B = random_chain_complex(rng, max_dim=2, max_width=3)
        H = hom_complex(A, B)  # make_complex re-asserts d o d = 0
        assert H.lo <= H.hi or H.is_zero()


def test_hom_degree_zero_cycles_are_chain_maps():
    # adjunction shadow: cycles of Hom(Q[0], B)_0 = ker d_0 of B
    rng = random.Random(12)
    from holim_engine.exactalg import rank_kernel
    for _ in range(20):
        B = random_chain_complex(rng)
        H = hom_complex(single(0), B)
        if H.is_zero():
            assert B.dim(0) == 0
            continue
        _, hk = rank_kernel(H.d(0))
        _, bk = rank_kernel(B.d(0))
        assert len(hk) == len(bk)


def test_hom_encode_decode_roundtrip():
    rng = random.Random(4)
    A = random_chain_complex(rng)
    B = random_chain_complex(rng)
    H = hom_complex(A, B)
    for k in H.degrees():
        if not H.dim(k):
            continue
        vec = tuple(Fraction(rng.randint(-3, 3)) for _ in range(H.dim(k)))
        assert hom_encode(A, B, k, hom_decode(A, B, k, vec)) == vec


def test_power_point_is_identity():
    rng = random.Random(5)
    c = random_chain_complex(rng)
    P = power(point(), c)
    assert P.dims == c.dims
    for k in c.degrees():
        assert P.d(k) == c.d(k)


def test_power_interval():
    # chains of the interval: dims {0: 2, -1: 1}, d_0 = [1, -1]
    P = power(standard_simplex(1), single(0))
    assert dict(P.dims) == {0: 2, -1: 1}
    assert P.d(0) == M([[1, -1]])
    assert betti_numbers(P) == {0: 1}


def test_power_boundary_of_interval():
    B, _ = boundary(1)
    P = power(B, single(0))
    assert dict(P.dims) == {0: 2}
    assert betti_numbers(P) == {0: 2}


def test_power_of_contractible_is_quasi_iso_to_unit():
    # the canonical map c -> c^K along K -> point, for homology-trivial K
    rng = random.Random(21)
    for n in range(0, 4):
        K = standard_simplex(n)
        for _ in range(3):
            c = random_chain_complex(rng)
            unit = hom_precompose(augmentation(K), c, check=True)
            assert unit.source.dims == c.dims
            ok = is_quasi_iso(unit)
            assert ok


def test_hom_postcompose_functorial():
    rng = random.Random(31)
    A = random_chain_complex(rng, max_dim=2, max_width=2)
    B = random_chain_complex(rng, max_dim=2, max_width=2)
    C = random_chain_complex(rng, max_dim=2, max_width=2)
    f = random_chain_map(rng, B, C)
    post = hom_postcompose(A, f, check=True)
    # evaluate on a random element and compare with direct composition
    H = hom_complex(A, B)
    for k in H.degrees():
        if not H.dim(k):
            continue
        vec = tuple(Fraction(rng.randint(-2, 2)) for _ in range(H.dim(k)))
        mats = hom_decode(A, B, k, vec)
        out = hom_decode(A, C, k, post.component(k).apply(vec))
        for n, m in out.items():
            expect = f.component(n + k) * mats[n] if n in mats else None
            if expect is not None:
                assert m == expect


def test_product_total_single_column():
    rng = random.Random(9)
    c = random_chain_complex(rng)
    T = product_total([c], lambda n, k: None)
    assert T.dims == c.dims


def test_product_total_cone():
    c = single(0)
    T = product_total([c, c], lambda n, k: RationalMatrix.identity(1)
                      if (n, k) == (0, 0) else None)
    assert betti_numbers(T) == {}


def test_product_total_zero_horizontal():
    c = single(0, 2)
    T = product_total([c, c], lambda n, k: None)
    assert dict(T.dims) == {0: 2, -1: 2}
    assert betti_numbers(T) == {0: 2, -1: 2}


def test_product_total_rejects_non_anticommuting():
    c = make_complex({0: 1, 1: 1}, {1: M([[1]])})
    # identity in both degrees commutes (rather than anticommutes) with d
    def h(n, k):
        if n == 0 and k in (0, 1):
            return RationalMatrix.identity(1)
        return None
    with pytest.raises(TotalDSquareNonzero):
        product_total([c, c], h)


def test_equalizer_of_equal_maps_is_source():
    rng = random.Random(14)
    A = random_chain_complex(rng)
    B = random_chain_complex(rng)
    f = random_chain_map(rng, A, B)
    E, incl = equalizer_kernel(f, f)
    assert E.dims == A.dims


def test_equalizer_id_vs_zero():
    c = single(0)
    E, _ = equalizer_kernel(identity_map(c), zero_map(c, c))
    assert E.is_zero()


def test_equalizer_diagonal():
    c2, c1 = single(0, 2), single(0)
    f = make_chain_map(c2, c1, {0: M([[1, 0]])})
    g = make_chain_map(c2, c1, {0: M([[0, 1]])})
    E, incl = equalizer_kernel(f, g)
    assert dict(E.dims) == {0: 1}
    v = incl.component(0).column(0)
    assert v[0] == v[1] != 0


def test_equalizer_universal_property_randomized():
    rng = random.Random(15)
    from holim_engine.exactalg import solve_matrix
    for _ in range(10):
        A = random_chain_complex(rng, max_dim=2, max_width=2)
        B = random_chain_complex(rng, max_dim=2, max_width=2)
        f = random_chain_map(rng, A, B)
        g = random_chain_map(rng, A, B)
        E, incl = equalizer_kernel(f, g)
        T = random_chain_complex(rng, max_dim=2, max_width=2)
        h = random_chain_map(rng, T, A)
        # project h to the equalizer: (f-g) o h = 0 is needed; test with
        # h replaced by incl itself (a map that does equalize factors
        # uniquely, witnessed by exact solving)
        for k in E.degrees():
            X = solve_matrix(incl.component(k), incl.component(k))
            assert X == RationalMatrix.identity(E.dim(k))
        del h, T


def test_direct_sum_projections():
    rng = random.Random(16)
    a = random_chain_complex(rng)
    b = random_chain_complex(rng)
    S, incls, projs = direct_sum([a, b])
    assert S.total_dim() == a.total_dim() + b.total_dim()
    validate_map(incls[0])
    validate_map(projs[1])
    comp = compose_maps(projs[0], incls[0])
    for k in a.degrees():
        if a.dim(k):
            assert comp.component(k) == RationalMatrix.identity(a.dim(k))


def test_maps_through_equal_dims_but_different_complexes_rejected():
    # Q --1--> Q and Q --0--> Q share their dims, not their differential
    cone = make_complex({0: 1, 1: 1}, {1: M([[1]])})
    split = make_complex({0: 1, 1: 1})
    f, g = identity_map(cone), identity_map(split)
    with pytest.raises(ShapeMismatch):
        compose_maps(g, f)
    with pytest.raises(ShapeMismatch):
        chaincx.map_sub(f, g)
    assert compose_maps(f, f).component(1) == M([[1]])
