"""Property-based tests (hypothesis)."""

import random
import re
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import holim_engine.cli as cli_mod
from holim_engine.chaincx import (betti_numbers, hom_complex, homology,
                                  identity_map, induced_homology_maps,
                                  is_quasi_iso, make_chain_map, make_complex,
                                  mapping_cone, validate_complex, zero_map)
from holim_engine.dsl import Binding, Workspace, parse
from holim_engine.endkan import ChainDiagram, FinSetDiagram
from holim_engine.errors import EngineError
from holim_engine.exactalg import (RationalMatrix, block_matrix,
                                   kernel_matrix, product_is_zero, rank)
from holim_engine.fincat import (FinCategory, chain_poset, cospan_category,
                                 discrete_category, find_initial, is_direct,
                                 object_inclusion, validate_category)
from holim_engine.holim import (_chain_generators, bk_holim,
                                cosimplicial_replacement, fat_tot, free_end)
from holim_engine.oracle import (chain_generators_by_levels,
                                 constant_cosimplicial, cosimplicial_levels,
                                 fat_chains_by_levels, fat_tot_by_columns,
                                 free_end_by_blocks, nerve_by_levels,
                                 validate_weight)
from holim_engine.printer import pretty_print
from holim_engine.randgen import (random_chain_complex, random_chain_map,
                                  random_cospan_diagram, random_finset_pair,
                                  random_free_category,
                                  random_functor_between_loopfree,
                                  random_loopfree_category, random_poset,
                                  random_poset_chain_diagram)
from holim_engine.records import replace
from holim_engine.ssets import (_levelwise_free, check_free_basis,
                                check_point_resolution,
                                constant_point_weight, fat_chains,
                                homology_contractible, nerve, nerve_chains,
                                nerve_of_comma_under, nerve_weight)


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


def _betti_from_full_ranks(C):
    """b_k = dim C_k - rk d_k - rk d_{k+1}, each rank from all rows of
    d_k: the independent formula that clearing must reproduce."""
    ranks = {k: rank(C.d(k)) for k in range(C.lo, C.hi + 2)}
    return {k: b for k in C.degrees()
            if (b := C.dim(k) - ranks[k] - ranks[k + 1])}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["complex", "bk_holim", "cone", "fat_tot",
                        "mixed_cache"]))
def test_betti_numbers_by_clearing_match_full_ranks(seed, source):
    """`betti_numbers` on complexes of five origins; for `mixed_cache` it
    runs after `homology` has read some degrees, which leaves nothing on
    the complex."""
    rng = random.Random(seed)
    if source == "bk_holim":
        F = random_poset_chain_diagram(rng, random_poset(rng, 4), 2, 2)
        C = validate_complex(bk_holim(F).complex)
    elif source == "cone":
        A = random_chain_complex(rng, max_dim=3, max_width=3)
        B = random_chain_complex(rng, max_dim=3, max_width=3)
        C = mapping_cone(random_chain_map(rng, A, B))
    elif source == "fat_tot":
        D = random_cospan_diagram(rng, max_dim=2, max_width=2)
        C = validate_complex(fat_tot(cosimplicial_replacement(D, 3)).complex)
    else:
        C = random_chain_complex(rng, max_dim=4, max_width=6, hi_max=4)
        if source == "mixed_cache":
            for k in C.degrees():
                if rng.random() < 0.5:
                    homology(C, k)
    assert betti_numbers(C) == _betti_from_full_ranks(C)


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



# --- the sparse kernel against a dense list-of-Fraction reference ------------

def _ref_mul(a, b, inner, ncols):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(ncols)] for i in range(len(a))]


def _ref_kron(a, b, bc):
    ac = len(a[0]) if a else 0
    return [[a[i1][j // bc] * b[i2][j % bc] for j in range(ac * bc)]
            for i1 in range(len(a)) for i2 in range(len(b))]


def _ref_rank(a, ncols):
    m = [list(r) for r in a]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


@st.composite
def _dense(draw, nrows, ncols):
    """Dense rows of Fractions: random, sparse, or all zero."""
    kind = draw(st.sampled_from(["random", "sparse", "zero"]))
    entry = st.just(Fraction(0)) if kind == "zero" else st.one_of(
        st.just(Fraction(0)), st.builds(Fraction, _ENTRY)) \
        if kind == "sparse" else st.builds(Fraction, _ENTRY)
    return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


def _assert_matrix(got, want, nrows, ncols):
    """got holds exactly the dense rows want, and equals and hashes like
    the same rows entered as a literal."""
    assert (got.rows, got.cols) == (nrows, ncols)
    assert got.entries == tuple(tuple(Fraction(x) for x in r) for r in want)
    lit = RationalMatrix(nrows, ncols, tuple(tuple(r) for r in want))
    assert got == lit and hash(got) == hash(lit)
    assert got.is_zero() == all(x == 0 for r in want for x in r)


@st.composite
def _kernel_case(draw):
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    a, b = draw(_dense(r, k)), draw(_dense(r, k))
    m = draw(_dense(k, c))
    s = draw(st.sampled_from([0, 1, -1, Fraction(2, 3), Fraction(-5, 2)]))
    return r, k, c, a, b, m, s


@settings(max_examples=300, deadline=None)
@given(_kernel_case())
def test_sparse_kernel_matches_dense_reference(case):
    r, k, c, a, b, m, s = case
    A = RationalMatrix.from_rows(a, rows=r, cols=k)
    B = RationalMatrix.from_rows(b, rows=r, cols=k)
    M = RationalMatrix.from_rows(m, rows=k, cols=c)
    _assert_matrix(A, a, r, k)
    _assert_matrix(A * M, _ref_mul(a, m, k, c), r, c)
    _assert_matrix(A + B, [[x + y for x, y in zip(p, q)]
                           for p, q in zip(a, b)], r, k)
    _assert_matrix(A - B, [[x - y for x, y in zip(p, q)]
                           for p, q in zip(a, b)], r, k)
    _assert_matrix(-A, [[-x for x in p] for p in a], r, k)
    _assert_matrix(A.scale(s), [[s * x for x in p] for p in a], r, k)
    _assert_matrix(A.kron(M), _ref_kron(a, m, c), r * k, k * c)
    _assert_matrix(A.transpose(), [[a[i][j] for i in range(r)]
                                   for j in range(k)], k, r)
    _assert_matrix(A.hstack(B), [p + q for p, q in zip(a, b)], r, 2 * k)
    _assert_matrix(A.vstack(B), a + b, 2 * r, k)
    assert rank(A) == _ref_rank(a, k)
    assert rank(A * M) == _ref_rank(_ref_mul(a, m, k, c), c)
    # equal values reached by other routes store and hash the same
    for other in (A.scale(2).scale(Fraction(1, 2)), A + B - B,
                  RationalMatrix.identity(r) * A,
                  A.scale(Fraction(3, 4)).scale(Fraction(4, 3))):
        assert other == A and hash(other) == hash(A)


@st.composite
def _dense_blocks(draw):
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        r0, c0 = draw(st.integers(0, nrows)), draw(st.integers(0, ncols))
        if r0 < nrows and c0 < ncols and draw(st.booleans()):
            blocks.append((r0, c0, draw(_ENTRY)))
            continue
        br = draw(st.integers(0, nrows - r0))
        bc = draw(st.integers(0, ncols - c0))
        blocks.append((r0, c0, draw(_dense(br, bc))))
    return nrows, ncols, blocks


@settings(max_examples=200, deadline=None)
@given(_dense_blocks())
def test_sparse_block_matrix_matches_dense_scatter(case):
    nrows, ncols, blocks = case
    want = [[Fraction(0)] * ncols for _ in range(nrows)]
    placed = []
    for r0, c0, blk in blocks:
        rows = [[blk]] if not isinstance(blk, list) else blk
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                want[r0 + i][c0 + j] += x
        placed.append((r0, c0, blk if not isinstance(blk, list) else
                       RationalMatrix.from_rows(
                           blk, rows=len(blk),
                           cols=len(blk[0]) if blk else 0)))
    _assert_matrix(block_matrix(nrows, ncols, placed), want, nrows, ncols)


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


# --- pretty_print round trip on generated workspaces -----------------------------

def _random_workspace(rng):
    """Categories, FinSet diagrams, complexes, a chain diagram and a
    functor, all from randgen, bound as the parser would bind them."""
    ws = Workspace()
    C, F, G = random_finset_pair(rng, cap=3000)
    ws.add(Binding("C", "category", C))
    for name, X in (("F", F), ("G", G)):
        ws.add(Binding(name, "diagram_finset",
                       FinSetDiagram(C, X.values, X.actions),
                       meta={"base_expr": "C"}))
    D = random_cospan_diagram(rng, max_dim=2, max_width=3)
    S = D.base
    ws.add(Binding("S", "category", S))
    refs = {}
    for name, x in zip(("A", "B", "Z"), S.objects()):
        ws.add(Binding(name, "complex", D.value(x)))
        refs[S.obj_labels[x]] = name
    ws.add(Binding("D", "diagram_ch",
                   ChainDiagram(S, [D.value(x) for x in S.objects()],
                                {m: D.action(m) for m in S.morphisms()}),
                   meta={"base_expr": "S", "at_refs": refs}))
    f = random_functor_between_loopfree(rng)
    ws.add(Binding("Src", "category", f.source))
    ws.add(Binding("Tgt", "category", f.target))
    ws.add(Binding("f", "functor", f,
                   meta={"source": "Src", "target": "Tgt"}))
    return ws


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_pretty_print_round_trips_generated_workspaces(seed):
    printed = pretty_print(_random_workspace(random.Random(seed)))
    assert pretty_print(parse(printed)) == printed


# --- d o d = 0, read off the differentials ---------------------------------------

def _assert_d_squared_zero(X):
    for k in range(X.lo + 2, X.hi + 1):
        d_k, d_below = X.d(k), X.d(k - 1)
        assert (d_k.rows, d_below.cols) == (X.dim(k - 1), X.dim(k - 1))
        assert (d_below * d_k).is_zero()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_hom_complex_differential_squares_to_zero(seed):
    rng = random.Random(seed)
    A = random_chain_complex(rng, max_dim=3, max_width=3)
    B = random_chain_complex(rng, max_dim=3, max_width=3)
    _assert_d_squared_zero(hom_complex(A, B))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_fat_totalization_differential_squares_to_zero(seed):
    D = random_cospan_diagram(random.Random(seed), max_dim=2, max_width=2)
    _assert_d_squared_zero(fat_tot(cosimplicial_replacement(D, 3)).complex)


# one object x and an idempotent e = e o e: a base with a loop
_IDEMPOTENT = validate_category(FinCategory(
    1, ("x",), (0, 0), (0, 0), ("id_x", "e"), (0,),
    {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}))


def _fat_tot_input(rng, kind, N):
    if kind == "constant":
        return constant_cosimplicial(
            random_chain_complex(rng, max_dim=2, max_width=2), N)
    if kind == "idempotent":
        V = random_chain_complex(rng, max_dim=2, max_width=2)
        e = rng.choice([identity_map(V), zero_map(V, V)])
        D = ChainDiagram(_IDEMPOTENT, [V], {0: identity_map(V), 1: e})
    elif kind == "cospan":
        D = random_cospan_diagram(rng, 2, 2, lo_min=0, hi_max=1)
    elif kind == "poset":
        D = random_poset_chain_diagram(rng, random_poset(rng, 3), 2, 2)
    else:
        D = parse(_TEXTS[1]).get(kind, "diagram_ch").value
    return cosimplicial_replacement(D, N)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["cospan", "poset", "Loop", "Glue", "constant",
                        "idempotent"]),
       st.integers(0, 4))
def test_fat_tot_matches_the_column_assembly(seed, kind, N):
    """`fat_tot`, the end over the fat chains, is the double complex of
    the levels and cofaces entry for entry (`oracle.fat_tot_by_columns`
    of `oracle.cosimplicial_levels`), and `ssets.fat_chains` lists the
    replacement's chains in its order with the indices of their faces
    (`oracle.fat_chains_by_levels`), also over a base with a loop."""
    X = _fat_tot_input(random.Random(seed), kind, N)
    got = fat_tot(X).complex
    want = fat_tot_by_columns(cosimplicial_levels(X))
    assert (got.lo, got.hi, got.dims) == (want.lo, want.hi, want.dims)
    assert got.diff == want.diff
    G = X.diagram.base
    assert fat_chains(G, N) == fat_chains_by_levels(G, N)


# --- the zero test of a product -------------------------------------------------

def _sparse_rational(rng, rows, cols):
    """A random rows x cols matrix, about half zeros, whose nonzero
    entries have denominators 1, 2, 3 or 6."""
    return RationalMatrix.from_rows(
        [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 6)))
          if rng.random() < 0.5 else 0 for _ in range(cols)]
         for _ in range(rows)], rows, cols)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["random", "cancel", "last_row"]))
def test_product_is_zero_agrees_with_the_product(seed, kind):
    """`product_is_zero(A, B)` is `(A * B).is_zero()`, on random
    products, on products that cancel to zero (B's columns in the
    kernel of A) and on products whose one nonzero row is A's last."""
    rng = random.Random(seed)
    m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 5)
    A = _sparse_rational(rng, m, k)
    if kind == "random":
        B = _sparse_rational(rng, k, n)
    else:
        # B's columns in the kernel of A, or of A without its last row
        K = kernel_matrix(A if kind == "cancel" else A.row_block(0, m - 1))
        B = K * _sparse_rational(rng, K.cols, n)
    assert product_is_zero(A, B) == (A * B).is_zero()
    if kind == "cancel":
        assert product_is_zero(A, B)


# --- free ends, row by row and block by block --------------------------------------

def _gauged(rng, F):
    """A diagram isomorphic to F whose actions and differentials have
    non-integral entries: F(x) rescaled by c_x, so F(u) becomes
    (c_y / c_x) F(u), and d_k by t_k in every value alike."""
    G = F.base
    c = [rng.choice((Fraction(1), Fraction(7), Fraction(1, 3),
                     Fraction(5, 2))) for _ in G.objects()]
    t = {k: rng.choice((3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)))
         for k in range(-8, 9)}
    values = [make_complex(dict(V.dims),
                           {k: d.scale(t[k]) for k, d in V.diff.items()})
              for V in map(F.value, G.objects())]
    actions = {}
    for m in G.morphisms():
        x, y = G.src(m), G.tgt(m)
        a = F.action(m)
        actions[m] = make_chain_map(values[x], values[y], {
            k: a.component(k).scale(c[y] / c[x]) for k in a.components},
            check=True)
    return ChainDiagram(G, values, actions)


def _free_end_input(rng, kind):
    """(diagram, free basis) of one of the kinds of weight free_end
    takes its ends over."""
    if kind == "cospan_nerve":
        F = random_cospan_diagram(rng, 2, 2)
        return F, _chain_generators(F.base)[1]
    if kind == "comma_under":
        f = random_functor_between_loopfree(rng)
        F = random_poset_chain_diagram(rng, f.target, 2, 2)
        return F, _levelwise_free(nerve_of_comma_under(f))
    # the constant point is free only over a base with an initial object
    P = random_poset(rng, 4, with_bottom=kind in ("point", "initial_comma"))
    F = random_poset_chain_diagram(rng, P, 2, 2)
    if kind == "poset_nerve":
        return F, _chain_generators(P)[1]
    if kind == "nerve_weight":
        W = nerve_weight(P)
    elif kind == "point":
        W = constant_point_weight(P)
    else:
        W = nerve_of_comma_under(object_inclusion(P, find_initial(P)))
    return F, _levelwise_free(W)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["cospan_nerve", "poset_nerve", "nerve_weight",
                        "comma_under", "point", "initial_comma"]),
       st.booleans())
def test_free_end_matches_block_assembly(seed, kind, gauged):
    """`free_end`, written row by row, is the block-by-block assembly
    of `oracle.free_end_by_blocks` entry for entry: the same dims and
    every d_n equal, over the nerve, over the `_levelwise_free` bases of
    `nerve_weight`, `nerve_of_comma_under` and the constant point, and
    over diagrams with non-integral actions and differentials."""
    rng = random.Random(seed)
    F, basis = _free_end_input(rng, kind)
    if gauged:
        F = _gauged(rng, F)
    got, want = free_end(F, basis), free_end_by_blocks(F, basis)
    assert (got.lo, got.hi, got.dims) == (want.lo, want.hi, want.dims)
    assert got.diff == want.diff


def test_free_end_of_a_gauged_diagram_has_non_integral_rows():
    """The gauged inputs above do reach rows over a denominator."""
    rng = random.Random(16)
    dens = set()
    for _ in range(6):
        F = _gauged(rng, random_cospan_diagram(rng, 2, 2))
        C = free_end(F, _chain_generators(F.base)[1])
        assert C == free_end_by_blocks(F, _chain_generators(F.base)[1])
        dens |= {den for d in C.diff.values() for den, _ in d._r.values()}
    assert dens - {1}


# --- the chains of a loop-free category ------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["poset", "free", "cospan", "chain"]))
def test_chain_enumerator_matches_the_nerve_built_by_levels(seed, kind):
    """`ssets.nerve_chains`, one pass over G, is the chain basis read off
    the nerve built level by level (`oracle.chain_generators_by_levels`):
    the same chains in the same order, at the same last objects, with
    the same faces; and `nerve(G)`, its view, is that nerve cell for
    cell.  Free categories have several arrows between two objects, so
    their inner faces compose arrows a poset cannot tell apart."""
    rng = random.Random(seed)
    if kind == "poset":
        G = random_poset(rng, 6)
    elif kind == "free":
        G = random_free_category(rng, 5, 20)[0]
    elif kind == "cospan":
        G = cospan_category()
    else:
        G = chain_poset(rng.randint(0, 7))
    index, basis = chain_generators_by_levels(G)
    assert nerve_chains(G) == basis
    assert _chain_generators(G) == (index, basis)
    assert nerve(G) == nerve_by_levels(G)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["poset", "free", "nerve_weight", "fat"]))
def test_free_bases_pass_the_simplicial_certificate(seed, kind):
    """`ssets.check_free_basis` passes the chains of random loop-free
    categories (posets and free categories), the `_levelwise_free` basis
    of the nerve weight of a poset, and the fat chains of posets, free
    categories, the cospan and the idempotent."""
    rng = random.Random(seed)
    if kind == "poset":
        G = random_poset(rng, 6)
        basis = nerve_chains(G)
    elif kind == "free":
        G = random_free_category(rng, 5, 20)[0]
        basis = nerve_chains(G)
    elif kind == "nerve_weight":
        G = random_poset(rng, 4)
        basis = _levelwise_free(nerve_weight(G))
    else:
        G = rng.choice([random_poset(rng, 3), cospan_category(),
                        random_free_category(rng, 3, 4)[0], _IDEMPOTENT])
        basis = fat_chains(G, rng.randint(0, 4))
    check_free_basis(G, basis)


# Z/3 as a one-object table: every arrow is parallel to every other
_Z3 = validate_category(FinCategory(
    1, ("x",), (0, 0, 0), (0, 0, 0), ("id_x", "g", "g2"), (0,),
    {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["poset", "free", "loopfree", "cospan", "Z3",
                        "idempotent"]),
       st.booleans())
def test_chain_enumerator_certifies_its_bases(seed, kind, mutated):
    """`ssets._chains` checks the unit law once per arrow and the
    associativity of each chain's last three arrows as it lists them.
    On categories, and on their tables with one composite changed,
    `nerve_chains` (over a loop-free table) and `fat_chains` either
    raise an `EngineError` or return a basis that the pairwise
    `check_free_basis` accepts; neither refuses a table that passes
    `validate_category`."""
    rng = random.Random(seed)
    G = {"poset": lambda: random_poset(rng, 5),
         "free": lambda: random_free_category(rng, 4, 10)[0],
         "loopfree": lambda: random_loopfree_category(rng),
         "cospan": cospan_category, "Z3": lambda: _Z3,
         "idempotent": lambda: _IDEMPOTENT}[kind]()
    if mutated:
        key = rng.choice(sorted(G.compose_table))
        G = replace(G, compose_table={**G.compose_table,
                                      key: rng.choice(G.morphisms())},
                    validated=False)
    try:
        validate_category(G)
        valid = True
    except EngineError:
        valid = False
    N = rng.randint(0, 4)
    builds = [lambda: fat_chains(G, N)]
    if is_direct(G) is not None:
        builds.append(lambda: nerve_chains(G))
    for build in builds:
        try:
            basis = build()
        except EngineError:
            assert not valid
        else:
            check_free_basis(G, basis)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["poset", "free", "cospan"]))
def test_nerve_chains_are_the_identity_free_fat_chains(seed, kind):
    """On a loop-free G, the chains of the nerve are exactly the chains of
    `fat_chains(G, |G|)` that contain no identity, and each has the same
    last object and the same faces, read as (chain, arrow) pairs: the
    Bousfield-Kan basis is a sub-basis of the fat one."""
    rng = random.Random(seed)
    G = random_poset(rng, 5) if kind == "poset" else \
        random_free_category(rng, 5, 20)[0] if kind == "free" else \
        cospan_category()

    def by_chain(basis):
        return {(n, c): (x, tuple((basis[j][2], u) for j, u in faces))
                for n, x, c, faces in basis}

    fat = by_chain(fat_chains(G, G.n_objects))
    assert by_chain(nerve_chains(G)) == {
        (n, c): v for (n, c), v in fat.items()
        if not n or not any(G.is_identity(m) for m in c)}


# --- functoriality of the nerve weight ----------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_nerve_weight_is_a_functor(seed):
    """Cell by cell, the action of `nerve_weight(G)` sends each identity
    to the identity map and each composite g o f to the composite of the
    actions of g and f."""
    G = random_loopfree_category(random.Random(seed))
    W = nerve_weight(G)
    for x in G.objects():
        act = W.action(G.identity[x])
        for n, cells in enumerate(W.value(x).cells):
            assert all(act(n, c) == c for c in cells)
    for f in G.morphisms():
        for g in G.morphisms():
            if G.tgt(f) != G.src(g):
                continue
            af, ag, agf = W.action(f), W.action(g), W.action(G.comp(g, f))
            for n, cells in enumerate(W.value(G.src(f)).cells):
                assert all(agf(n, c) == ag(n, af(n, c)) for c in cells)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["nerve", "comma_under", "point_poset",
                        "point_bottom", "point_discrete"]))
def test_point_resolution_verdict_reads_structure_not_label(seed, kind):
    """On engine-built weights (each a functor, by the oracle) the
    verdict of `check_point_resolution` is the same under every label
    and is "levelwise free, and every value nonempty and contractible";
    a free weight's presented values are its values."""
    rng = random.Random(seed)
    if kind == "nerve":
        W = nerve_weight(random_loopfree_category(rng))
    elif kind == "comma_under":
        W = nerve_of_comma_under(random_functor_between_loopfree(rng))
    elif kind == "point_discrete":
        n = rng.randint(1, 4)
        W = constant_point_weight(discrete_category([f"x{i}"
                                                     for i in range(n)]))
    else:
        W = constant_point_weight(
            random_poset(rng, 5, with_bottom=kind == "point_bottom"))
    validate_weight(W)
    reports = [check_point_resolution(replace(W, provenance=label))
               for label in ("nerve_weight", "nerve_of_comma_under",
                             "constant_point", "custom")]
    assert len({replace(r, provenance="") for r in reports}) == 1
    contractible = tuple(not W.value(x).is_empty() and
                         homology_contractible(W.value(x))
                         for x in W.base.objects())
    free = _levelwise_free(W) is not None
    assert reports[0].free == free
    assert reports[0].passed == (free and all(contractible))
    if free:
        assert reports[0].per_object == contractible
