"""Property-based tests (hypothesis)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from holim_engine.chaincx import (betti_numbers, homology, identity_map,
                                  induced_homology_maps, is_quasi_iso,
                                  zero_map)
from holim_engine.exactalg import rank
from holim_engine.randgen import random_chain_complex, random_chain_map


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 4))
def test_rank_betti_numbers_match_homology(seed, max_dim, max_width):
    C = random_chain_complex(random.Random(seed), max_dim=max_dim,
                             max_width=max_width)
    from_reps = {}
    for k in C.degrees():
        b, reps = homology(C, k)
        assert len(reps) == b
        if b:
            from_reps[k] = b
    assert betti_numbers(C) == from_reps


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["map", "selfmap", "identity", "zero"]))
def test_cone_verdict_matches_induced_homology_maps(seed, kind):
    rng = random.Random(seed)
    A = random_chain_complex(rng, max_dim=3, max_width=3)
    B = A if kind in ("selfmap", "identity") else \
        random_chain_complex(rng, max_dim=3, max_width=3)
    if kind == "identity":
        f = identity_map(A)
    elif kind == "zero":
        f = zero_map(A, B)
    else:
        f = random_chain_map(rng, A, B)
    induced = induced_homology_maps(f).values()
    assert is_quasi_iso(f) == all(m.rows == m.cols and rank(m) == m.rows
                                  for m in induced)
