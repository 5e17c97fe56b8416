"""Property-based tests (hypothesis)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from holim_engine.chaincx import betti_numbers, homology
from holim_engine.randgen import random_chain_complex


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
