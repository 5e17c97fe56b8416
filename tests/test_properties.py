"""Property-based tests (hypothesis)."""

import random
import re
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import holim_engine.cli as cli_mod
from holim_engine.chaincx import (betti_numbers, homology, identity_map,
                                  induced_homology_maps, is_quasi_iso,
                                  zero_map)
from holim_engine.dsl import parse
from holim_engine.errors import EngineError
from holim_engine.exactalg import RationalMatrix, block_matrix, rank
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


_ENTRY = st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))


@st.composite
def _placed_blocks(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        r0, c0 = draw(st.integers(0, nrows)), draw(st.integers(0, ncols))
        br = draw(st.integers(0, nrows - r0))
        bc = draw(st.integers(0, ncols - c0))
        rows = draw(st.lists(st.lists(_ENTRY, min_size=bc, max_size=bc),
                             min_size=br, max_size=br))
        blocks.append((r0, c0, RationalMatrix.from_rows(rows, rows=br,
                                                        cols=bc)))
    return nrows, ncols, blocks


def _zero_padded(nrows, ncols, r0, c0, blk):
    """The block alone in an nrows x ncols matrix, by hstack and vstack."""
    Z = RationalMatrix.zero
    mid = Z(blk.rows, c0).hstack(blk).hstack(
        Z(blk.rows, ncols - c0 - blk.cols))
    return Z(r0, ncols).vstack(mid).vstack(
        Z(nrows - r0 - blk.rows, ncols))


@settings(max_examples=200, deadline=None)
@given(_placed_blocks())
def test_block_matrix_is_the_sum_of_zero_padded_blocks(case):
    nrows, ncols, blocks = case
    want = RationalMatrix.zero(nrows, ncols)
    for r0, c0, blk in blocks:
        want = want + _zero_padded(nrows, ncols, r0, c0, blk)
    assert block_matrix(nrows, ncols, blocks) == want


CORPUS = Path(cli_mod.__file__).parent / "corpus"
_PIECE = re.compile(r"\s+|\w+|[^\w\s]")
_TEXTS = [(CORPUS / name).read_text()
          for name in ("arrow.hle", "cospan.hle", "hom_end.hle")]
_CHARS = sorted(set("".join(_TEXTS)))
_TOKENS = sorted({t for text in _TEXTS for t in _PIECE.findall(text)})
_EDIT = st.tuples(st.sampled_from(["char", "token"]),
                  st.sampled_from(["delete", "insert", "replace"]),
                  st.integers(0, 2000), st.integers(0, 10 ** 4))


def _edited(text, edits):
    """Apply (unit, op, position, pick) edits; a unit is a character or a
    token (a run of whitespace, a word, or one other character), and
    inserted or replacing units come from the corpus itself."""
    for unit, op, pos, pick in edits:
        seq = list(text) if unit == "char" else _PIECE.findall(text)
        pool = _CHARS if unit == "char" else _TOKENS
        i = pos % (len(seq) + 1)
        if op == "insert":
            seq.insert(i, pool[pick % len(pool)])
        elif seq:
            i %= len(seq)
            if op == "delete":
                del seq[i]
            else:
                seq[i] = pool[pick % len(pool)]
        text = "".join(seq)
    return text


# At most three edits: a number in the corpus grows by at most three
# digits, so every edited workspace stays cheap to build (sizes are not
# budgeted yet); the test is about which exceptions escape, not cost.
@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(_TEXTS) - 1), st.lists(_EDIT, min_size=1,
                                                  max_size=3))
def test_dsl_edits_of_the_corpus_raise_only_engine_errors(which, edits):
    try:
        parse(_edited(_TEXTS[which], edits))
    except EngineError:
        pass
