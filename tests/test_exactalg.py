import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holim_engine.errors import ShapeMismatch
from holim_engine.exactalg import (RationalMatrix, block_diag, block_matrix,
                                   canonical_row_basis, kernel_matrix,
                                   quotient_basis, rank, rank_kernel, solve,
                                   solve_matrix)


def test_rank_kernel_identity():
    A = RationalMatrix.identity(3)
    r, basis = rank_kernel(A)
    assert r == 3
    assert basis == []


def test_rank_kernel_row_of_ones():
    A = RationalMatrix.from_rows([[1, 1]])
    r, basis = rank_kernel(A)
    assert r == 1
    assert basis == [(Fraction(-1), Fraction(1))]
    # spec states the basis {(1, -1)}; same line, our fixed pivot order
    # puts the free variable second with coefficient 1.
    assert A.apply(basis[0]) == (Fraction(0),)


def test_rank_kernel_dependent_rows():
    # hand elimination: [[1,2],[2,4]] has rank 1, kernel spanned by (-2,1)
    A = RationalMatrix.from_rows([[1, 2], [2, 4]])
    r, basis = rank_kernel(A)
    assert r == 1
    assert basis == [(Fraction(-2), Fraction(1))]


def test_solve_identity():
    A = RationalMatrix.identity(2)
    assert solve(A, [5, -7]) == (Fraction(5), Fraction(-7))


def test_solve_free_variable_zero():
    A = RationalMatrix.from_rows([[1, 1]])
    assert solve(A, [2]) == (Fraction(2), Fraction(0))


def test_solve_unsolvable():
    A = RationalMatrix.zero(2, 2)
    assert solve(A, [1, 0]) is None


def test_solve_matrix_roundtrip():
    A = RationalMatrix.from_rows([[1, 2, 0], [0, 1, 1]])
    B = RationalMatrix.from_rows([[3, 1], [2, 0]])
    X = solve_matrix(A, B)
    assert X is not None
    assert A * X == B


def test_quotient_basis_trivial():
    proj, reps = quotient_basis(2, [])
    assert proj == RationalMatrix.identity(2)
    assert len(reps) == 2


def test_quotient_basis_one_generator():
    proj, reps = quotient_basis(2, [(1, 0)])
    assert proj.rows == 1
    assert len(reps) == 1
    assert proj.apply((1, 0)) == (Fraction(0),)


def test_quotient_basis_two_generators():
    # rank 2 generators in Q^3 leave a 1-dimensional quotient
    proj, reps = quotient_basis(3, [(1, 1, 0), (0, 1, 1)])
    assert proj.rows == 1
    assert len(reps) == 1
    for g in [(1, 1, 0), (0, 1, 1)]:
        assert proj.apply(g) == (Fraction(0),)
    # representatives map to a basis of the quotient
    assert proj.apply(reps[0]) == (Fraction(1),)


def _random_matrix(rng, rows, cols):
    return RationalMatrix.from_rows(
        [[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
          for _ in range(cols)] for _ in range(rows)])


def test_rank_nullity_and_transpose_rank_randomized():
    rng = random.Random(20260810)
    for _ in range(100):
        A = _random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        r, basis = rank_kernel(A)
        assert r + len(basis) == A.cols
        assert rank(A.transpose()) == r
        for v in basis:
            assert all(x == 0 for x in A.apply(v))
        # basis vectors are reduced: unit at own free column, zero at others
        if basis:
            K = kernel_matrix(A)
            assert rank(K) == len(basis)


def test_solve_of_image_always_succeeds_randomized():
    rng = random.Random(42)
    for _ in range(100):
        A = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = [Fraction(rng.randint(-4, 4)) for _ in range(A.cols)]
        b = A.apply(x)
        x2 = solve(A, b)
        assert x2 is not None
        assert A.apply(x2) == b


def test_block_diag_and_kron_shapes():
    A = RationalMatrix.from_rows([[1, 2]])
    B = RationalMatrix.from_rows([[3], [4]])
    D = block_diag([A, B])
    assert (D.rows, D.cols) == (3, 3)
    K = A.kron(B)
    assert (K.rows, K.cols) == (2, 2)
    assert K.entries == ((Fraction(3), Fraction(6)), (Fraction(4), Fraction(8)))


def test_block_matrix_adds_overlaps_and_rejects_outside_blocks():
    A = RationalMatrix.from_rows([[1, 2], [3, 4]])
    M = block_matrix(3, 3, [(0, 0, A), (1, 1, A.scale(Fraction(1, 2))),
                            (2, 0, -1), (2, 2, 0)])
    assert M == RationalMatrix.from_rows(
        [[1, 2, 0], [3, Fraction(9, 2), 1], [-1, Fraction(3, 2), 2]])
    # overlapping entries that cancel leave a zero entry
    assert block_matrix(1, 1, [(0, 0, 5), (0, 0, -5)]).is_zero()
    # empty and 0 x k blocks place nothing, also at the far edge
    Z = block_matrix(2, 3, [(2, 0, RationalMatrix.zero(0, 3)),
                            (0, 3, RationalMatrix.zero(2, 0)),
                            (1, 1, RationalMatrix.zero(0, 0))])
    assert Z == RationalMatrix.zero(2, 3)
    assert block_matrix(0, 0, []) == RationalMatrix.zero(0, 0)
    assert block_matrix(0, 2, [(0, 0, RationalMatrix.zero(0, 2))]) == \
        RationalMatrix.zero(0, 2)
    for r0, c0, blk in [(2, 2, A), (0, 2, A), (-1, 0, A), (0, -1, 1),
                        (3, 0, 1), (4, 0, RationalMatrix.zero(0, 1))]:
        with pytest.raises(ShapeMismatch):
            block_matrix(3, 3, [(r0, c0, blk)])


def test_empty_shapes():
    A = RationalMatrix.zero(0, 3)
    r, basis = rank_kernel(A)
    assert r == 0 and len(basis) == 3
    B = RationalMatrix.zero(3, 0)
    r, basis = rank_kernel(B)
    assert r == 0 and basis == []
    assert solve(B, [0, 0, 0]) == ()
    assert solve(B, [1, 0, 0]) is None


def test_determinism():
    rng = random.Random(7)
    A = _random_matrix(rng, 4, 6)
    assert rank_kernel(A) == rank_kernel(A)
    assert solve(A, A.apply([1] * 6)) == solve(A, A.apply([1] * 6))


# --- an independent oracle: textbook dense Gauss-Jordan over Fractions ------

def _gauss_jordan(rows, cols):
    """The reduced row echelon form of the dense rows (its nonzero rows)
    and its pivot columns, by row swaps, scaling and full elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _reduced_kernel(rref, pivots, cols):
    """One kernel vector per free column f: 1 at f, 0 at the other free
    columns, and -rref[i][f] at the i-th pivot column."""
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, c in zip(rref, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return basis


def _reference_solve(rows, cols, b):
    """The solution of A x = b with every free variable 0, or None."""
    rref, pivots = _gauss_jordan(
        [list(row) + [y] for row, y in zip(rows, b)], cols + 1)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(rref, pivots):
        x[c] = row[cols]
    return tuple(x)


_ENTRIES = st.one_of(st.just(0), st.integers(-3, 3),
                     st.builds(Fraction, st.integers(-4, 4),
                               st.integers(1, 3)))


@st.composite
def _dense_rows(draw, cols):
    """Up to 5 rows, some of them zero or sums of earlier rows."""
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("entries", "entries", "zero", "sum")))
        if kind == "zero" or (kind == "sum" and not rows):
            rows.append([0] * cols)
        elif kind == "sum":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([Fraction(x) - 2 * Fraction(y) for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(_ENTRIES, min_size=cols,
                                      max_size=cols)))
    return rows


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 5), st.integers(0, 3))
def test_kernel_matches_dense_gauss_jordan(data, cols, rhs_cols):
    rows = data.draw(_dense_rows(cols))
    A = RationalMatrix(len(rows), cols, rows)
    rref, pivots = _gauss_jordan(rows, cols)
    kernel = _reduced_kernel(rref, pivots, cols)
    assert canonical_row_basis(rows, cols) == [tuple(r) for r in rref]
    assert rank_kernel(A) == (len(pivots), kernel)
    proj, reps = quotient_basis(cols, rows)
    assert proj.entries == tuple(kernel)
    assert reps == [tuple(Fraction(int(j == f)) for j in range(cols))
                    for f in range(cols) if f not in pivots]
    # right-hand sides: drawn at random, or images A x
    rhs = []
    for _ in range(rhs_cols):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(_ENTRIES, min_size=cols, max_size=cols))
            rhs.append(A.apply(x))
        else:
            rhs.append(tuple(data.draw(st.lists(
                _ENTRIES, min_size=len(rows), max_size=len(rows)))))
    want = [_reference_solve(rows, cols, b) for b in rhs]
    for b, x in zip(rhs, want):
        assert solve(A, b) == x
    X = solve_matrix(A, RationalMatrix.from_columns(rhs, len(rows)))
    if None in want:
        assert X is None
    else:
        assert X == RationalMatrix.from_columns(want, cols)
