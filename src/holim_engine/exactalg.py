"""Exact rational linear algebra.

All homology and equalizer computations reduce to ranks, kernels and
quotients of matrices over Q.  A `RationalMatrix` stores only its
nonzero rows, each as an integer row over a positive row denominator:
row i is `(den, {j: numerator})` with entry (i, j) = numerator / den.
Every row is normalized (zero entries dropped, den > 0, and den coprime
to the gcd of the numerators), so a matrix has exactly one storage and
`==` and `hash` compare values exactly.  `entries`, the dense tuple of
`fractions.Fraction` rows, is a derived view built on first use.

One elimination and one back-substitution serve every result.
`_echelon` reads the stored integer rows directly (row scaling keeps
the row space) and runs fraction-free (integer cross-multiplication
with gcd reduction), pivoting on columns left to right.
`_back_substitute` fills in the pivot columns of a vector given at the
free ones: from 1 at free column f it gives the reduced kernel vector
k_f, and from -1 at column j of [A | B] the solution for that column of
B.  The quotient's projection rows are the k_f, and the reduced row
echelon form is read off them.  Every basis this module emits depends
only on the row space and the column order, so it is deterministic
across runs and platforms.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import ShapeMismatch

Vector = tuple[Fraction, ...]
_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _normal(den: int, row: dict[int, int]) -> tuple[int, dict[int, int]]:
    """A nonzero row over den > 0 with the common factor of den and the
    numerators divided out."""
    if den != 1:
        g = gcd(den, *row.values())
        if g != 1:
            den //= g
            row = {j: v // g for j, v in row.items()}
    return den, row


def _row_of(vals: dict[int, object]) -> Optional[tuple[int, dict[int, int]]]:
    """The stored form of the row with the given entries (ints or
    Fractions; zeros allowed), or None for a zero row.  Over the lcm of
    the entries' reduced denominators the row is already normalized."""
    den = 1
    for x in vals.values():
        d = x.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    row = {j: x.numerator * (den // x.denominator)
           for j, x in vals.items() if x}
    return (den, row) if row else None


def _merge(parts) -> Optional[tuple[int, dict[int, int]]]:
    """The sum of the rows (den, row, column shift), or None if zero."""
    if len(parts) == 1:
        den, row, c0 = parts[0]
        return den, (row if not c0 else
                     {j + c0: v for j, v in row.items()})
    L = 1
    for den, _, _ in parts:
        if den != 1:
            L = L * den // gcd(L, den)
    acc: dict[int, int] = {}
    get = acc.get
    for den, row, c0 in parts:
        f = L // den
        for j, v in row.items():
            j += c0
            acc[j] = get(j, 0) + (v if f == 1 else v * f)
    if 0 in acc.values():
        acc = {j: v for j, v in acc.items() if v}
    return _normal(L, acc) if acc else None


def _products(A: "RationalMatrix", B: "RationalMatrix"):
    """The nonzero rows of A * B, in the stored order of A's rows, as
    (i, den, numerators) with den > 0 but not yet normalized.  Row i
    is summed exactly over the lcm of the denominators of the rows of
    B that it reads; a row whose entries all cancel is skipped."""
    if A.cols != B.rows:
        raise ValueError(f"shape mismatch in *: {A.rows}x{A.cols} "
                         f"by {B.rows}x{B.cols}")
    brows = B._r
    if not brows:
        return
    b_int = B._integral()
    for i, (da, ra) in A._r.items():
        L = 1
        if not b_int:
            for k in ra:
                got = brows.get(k)
                if got is not None and got[0] != 1:
                    L = L * got[0] // gcd(L, got[0])
        acc: dict[int, int] = {}
        get = acc.get
        for k, a in ra.items():
            got = brows.get(k)
            if got is None:
                continue
            db, rb = got
            if db != L:
                a *= L // db
            for j, b in rb.items():
                acc[j] = get(j, 0) + a * b
        if not any(acc.values()):
            continue
        if 0 in acc.values():
            acc = {j: v for j, v in acc.items() if v}
        yield i, da * L, acc


def product_is_zero(A: "RationalMatrix", B: "RationalMatrix") -> bool:
    """Whether A * B is the zero matrix.  Every entry is computed
    exactly, as `A * B` computes it, but no product is built: the
    answer is False at the first nonzero row."""
    return next(_products(A, B), None) is None


class RationalMatrix:
    """An immutable rows x cols matrix over Q, stored as sparse rows.

    `RationalMatrix(rows, cols, dense_rows)` builds one from dense rows of
    numbers; `entries` gives them back as tuples of Fractions."""

    __slots__ = ("rows", "cols", "_r", "_dense", "_hash")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence]):
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        stored = {}
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ValueError("ragged rows")
            got = _row_of({j: _frac(x) for j, x in enumerate(row) if x})
            if got is not None:
                stored[i] = got
        self.rows, self.cols, self._r = rows, cols, stored
        self._dense = self._hash = None

    @classmethod
    def _of(cls, rows: int, cols: int, stored: dict) -> "RationalMatrix":
        """The matrix with the given normalized rows (not copied)."""
        m = object.__new__(cls)
        m.rows, m.cols, m._r = rows, cols, stored
        m._dense = m._hash = None
        return m

    @staticmethod
    def from_rows(data: Sequence[Sequence], rows: Optional[int] = None,
                  cols: Optional[int] = None) -> "RationalMatrix":
        data = [tuple(row) for row in data]
        r = len(data) if rows is None else rows
        if len(data) != r:
            raise ValueError(f"expected {r} rows, got {len(data)}")
        c = (len(data[0]) if data else 0) if cols is None else cols
        return RationalMatrix(r, c, data)

    @staticmethod
    def zero(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix._of(rows, cols, {})

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix._of(n, n, {i: (1, {i: 1}) for i in range(n)})

    @staticmethod
    def from_columns(cols: Sequence[Sequence], nrows: int) -> "RationalMatrix":
        cols = list(cols)
        vals: dict[int, dict[int, object]] = {}
        for j, c in enumerate(cols):
            if len(c) != nrows:
                raise ValueError("column length mismatch")
            for i, x in enumerate(c):
                if x:
                    vals.setdefault(i, {})[j] = _frac(x)
        stored = {}
        for i, row in vals.items():
            got = _row_of(row)
            if got is not None:
                stored[i] = got
        return RationalMatrix._of(nrows, len(cols), stored)

    # --- views ----------------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense rows, as tuples of Fractions (built once, cached)."""
        if self._dense is None:
            self._dense = tuple(self.row(i) for i in range(self.rows))
        return self._dense

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.row(i)[j]

    def row(self, i: int) -> Vector:
        """Row i as a dense tuple of Fractions."""
        out = [_ZERO] * self.cols
        got = self._r.get(range(self.rows)[i])
        if got is not None:
            den, row = got
            for j, v in row.items():
                out[j] = Fraction(v, den)
        return tuple(out)

    def row_block(self, start: int, stop: int) -> "RationalMatrix":
        """The matrix of rows start..stop-1."""
        if not 0 <= start <= stop <= self.rows:
            raise ValueError(f"rows {start}..{stop} outside a "
                             f"{self.rows}-row matrix")
        return RationalMatrix._of(stop - start, self.cols, {
            i - start: r for i, r in self._r.items() if start <= i < stop})

    def column(self, j: int) -> Vector:
        out = [_ZERO] * self.rows
        for i, (den, row) in self._r.items():
            v = row.get(j)
            if v:
                out[i] = Fraction(v, den)
        return tuple(out)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return not self._r

    def _integral(self) -> bool:
        return all(den == 1 for den, _ in self._r.values())

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and \
            self._r == other._r

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, frozenset(
                (i, den, frozenset(row.items()))
                for i, (den, row) in self._r.items())))
        return self._hash

    def __repr__(self):
        return f"RationalMatrix({self.rows}, {self.cols}, {self.entries!r})"

    # --- arithmetic -------------------------------------------------------------

    def transpose(self) -> "RationalMatrix":
        cols: dict[int, list] = {}
        for i, (den, row) in self._r.items():
            for j, v in row.items():
                got = cols.get(j)
                if got is None:
                    cols[j] = [(i, v, den)]
                else:
                    got.append((i, v, den))
        stored = {}
        for j, col in cols.items():
            L = 1
            for _, _, den in col:
                if den != 1:
                    L = L * den // gcd(L, den)
            stored[j] = _normal(L, {i: v if den == L else v * (L // den)
                                    for i, v, den in col})
        return RationalMatrix._of(self.cols, self.rows, stored)

    def _combine(self, other: "RationalMatrix", sign: int, what: str):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in {what}")
        stored = dict(self._r)
        for i, (den, row) in other._r.items():
            if sign < 0:
                row = {j: -v for j, v in row.items()}
            mine = stored.pop(i, None)
            got = (den, row) if mine is None else \
                _merge([(mine[0], mine[1], 0), (den, row, 0)])
            if got is not None:
                stored[i] = got
        return RationalMatrix._of(self.rows, self.cols, stored)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, 1, "+")

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, -1, "-")

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._of(self.rows, self.cols, {
            i: (den, {j: -v for j, v in row.items()})
            for i, (den, row) in self._r.items()})

    def scale(self, c) -> "RationalMatrix":
        if not isinstance(c, int):
            c = _frac(c)
        if not c:
            return RationalMatrix.zero(self.rows, self.cols)
        if c == 1:
            return self
        p, q = c.numerator, c.denominator
        return RationalMatrix._of(self.rows, self.cols, {
            i: _normal(den * q, {j: p * v for j, v in row.items()})
            for i, (den, row) in self._r.items()})

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix._of(self.rows, other.cols, {
            i: _normal(den, acc) for i, den, acc in _products(self, other)})

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        vv = [_frac(x) for x in v]
        out = [_ZERO] * self.rows
        for i, (den, row) in self._r.items():
            s = sum((a * vv[j] for j, a in row.items() if vv[j]), _ZERO)
            out[i] = s / den if den != 1 else s
        return tuple(out)

    def kron(self, other: "RationalMatrix") -> "RationalMatrix":
        br, bc = other.rows, other.cols
        stored = {}
        for i, (da, ra) in self._r.items():
            for k, (db, rb) in other._r.items():
                stored[i * br + k] = _normal(da * db, {
                    j * bc + l: a * b for j, a in ra.items()
                    for l, b in rb.items()})
        return RationalMatrix._of(self.rows * br, self.cols * bc, stored)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return block_matrix(self.rows, self.cols + other.cols,
                            [(0, 0, self), (0, self.cols, other)])

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return block_matrix(self.rows + other.rows, self.cols,
                            [(0, 0, self), (self.rows, 0, other)])

def block_matrix(nrows: int, ncols: int,
                 blocks: Iterable[tuple]) -> RationalMatrix:
    """The nrows x ncols matrix holding each block at its offsets.

    `blocks` yields (row offset, column offset, block), where a block is
    a RationalMatrix or a scalar (a 1x1 block).  Overlapping blocks add.
    A block that does not fit in the matrix raises ShapeMismatch."""
    parts: dict[int, list] = {}
    for r0, c0, blk in blocks:
        if isinstance(blk, RationalMatrix):
            br, bc, rows = blk.rows, blk.cols, blk._r.items()
        else:
            br = bc = 1
            if not isinstance(blk, int):
                blk = _frac(blk)
            rows = ((0, (blk.denominator, {0: blk.numerator})),) \
                if blk else ()
        if r0 < 0 or c0 < 0 or r0 + br > nrows or c0 + bc > ncols:
            raise ShapeMismatch(
                f"{br}x{bc} block at ({r0}, {c0}) does not fit in a "
                f"{nrows}x{ncols} matrix")
        for i, (den, row) in rows:
            got = parts.get(r0 + i)
            if got is None:
                parts[r0 + i] = [(den, row, c0)]
            else:
                got.append((den, row, c0))
    stored = {}
    for i, row_parts in parts.items():
        got = _merge(row_parts)
        if got is not None:
            stored[i] = got
    return RationalMatrix._of(nrows, ncols, stored)


def block_diag(blocks: Iterable[RationalMatrix]) -> RationalMatrix:
    placed, r0, c0 = [], 0, 0
    for b in blocks:
        placed.append((r0, c0, b))
        r0 += b.rows
        c0 += b.cols
    return block_matrix(r0, c0, placed)


# --- fraction-free elimination core ----------------------------------------

def _int_rows(m: RationalMatrix) -> list[dict[int, int]]:
    """The stored rows without their denominators: the same row space."""
    return [row for _, row in m._r.values()]


def _echelon(rows: list[dict[int, int]], cols: int):
    """Row echelon form by fraction-free elimination.

    Pivot columns are taken left to right among the columns below
    `cols`; in each, the shortest row holding it is the pivot and clears
    it from the others.  Returns the pivot rows as (pivot_col, row) in
    pivot-column order, and the remaining nonzero rows, which hold no
    column below `cols`.  The input rows are not modified.
    """
    by_lead: dict[int, list[dict[int, int]]] = {}
    for r in rows:
        if r:
            by_lead.setdefault(min(r), []).append(r)
    heap = list(by_lead)
    heapify(heap)
    pivots: list[tuple[int, dict[int, int]]] = []
    while heap and heap[0] < cols:
        c = heappop(heap)
        group = by_lead.pop(c)
        if len(group) == 1:
            pivots.append((c, group[0]))
            continue
        pi = min(range(len(group)), key=lambda t: len(group[t]))
        prow = group[pi]
        p = prow[c]
        for t, r in enumerate(group):
            if t == pi:
                continue
            e = r[c]
            g = gcd(p, e)
            pm, em = p // g, e // g
            r2 = dict(r) if pm == 1 else {k: pm * v for k, v in r.items()}
            del r2[c]
            for k, v in prow.items():
                if k != c:
                    s = r2.get(k, 0) - em * v
                    if s:
                        r2[k] = s
                    else:
                        del r2[k]
            if r2:
                g = gcd(*r2.values())
                if g > 1:
                    r2 = {k: v // g for k, v in r2.items()}
                lead = min(r2)
                got = by_lead.get(lead)
                if got is None:
                    by_lead[lead] = [r2]
                    heappush(heap, lead)
                else:
                    got.append(r2)
        pivots.append((c, prow))
    rest = [r for c in sorted(by_lead) for r in by_lead[c]]
    return pivots, rest


def _back_substitute(pivots, x: dict[int, Fraction]) -> dict[int, Fraction]:
    """Fill in the pivot columns of x so that every pivot row vanishes
    on it.  x holds values at some non-pivot columns and is 0 at the
    others; it is extended in place and returned."""
    for c, row in reversed(pivots):
        s = _ZERO
        for k, v in row.items():
            if k in x:
                s += v * x[k]
        if s:
            x[c] = -s / row[c]
    return x


def _kernel(pivots, cols: int) -> list[tuple[int, dict[int, Fraction]]]:
    """The reduced kernel of an echelon form: for each free column f, in
    increasing order, the sparse vector k_f with 1 at f and 0 at every
    other free column."""
    pivot_cols = {c for c, _ in pivots}
    return [(f, _back_substitute(pivots, {f: _ONE}))
            for f in range(cols) if f not in pivot_cols]


def _dense(x: dict[int, Fraction], cols: int) -> Vector:
    return tuple(x.get(j, _ZERO) for j in range(cols))


def _rank_kernel(A: RationalMatrix) -> tuple[int, list[Vector]]:
    pivots, _ = _echelon(_int_rows(A), A.cols)
    return len(pivots), [_dense(k, A.cols) for _, k in _kernel(pivots, A.cols)]


def _solutions(A: RationalMatrix, B: RationalMatrix) -> Optional[list[Vector]]:
    """For each column of B, the solution x of A x = (that column) with
    every free variable 0; None if some column has no solution.

    The solution for column j of [A | B] back-substitutes from -1 at j.
    Only A's columns are pivots, so every row left over holds only
    columns of B and makes the system unsolvable."""
    n = A.cols
    pivots, rest = _echelon(_int_rows(A.hstack(B)), n)
    if rest:
        return None
    return [_dense(_back_substitute(pivots, {j: _MINUS_ONE}), n)
            for j in range(n, n + B.cols)]


def _span_echelon(vectors: Sequence[Sequence], dim: int, what: str):
    """The pivot rows of the echelon form of the span of the vectors."""
    for v in vectors:
        if len(v) != dim:
            raise ValueError(f"{what} length mismatch")
    pivots, _ = _echelon(_int_rows(
        RationalMatrix(len(vectors), dim, vectors)), dim)
    return pivots


def rank_pivots(A: RationalMatrix, skip_rows=frozenset()) \
        -> tuple[int, frozenset]:
    """Rank and pivot columns of the rows of A whose index is not in
    `skip_rows`.  That rank is the rank of A when every skipped row is a
    combination of the others; the caller vouches for it."""
    pivots, _ = _echelon([row for i, (_, row) in A._r.items()
                          if i not in skip_rows], A.cols)
    return len(pivots), frozenset(c for c, _ in pivots)


def rank(A: RationalMatrix) -> int:
    return len(_echelon(_int_rows(A), A.cols)[0])


def rank_kernel(A: RationalMatrix) -> tuple[int, list[Vector]]:
    """Rank and a deterministic kernel basis.

    Each basis vector carries 1 at its free column and 0 at every other
    free column (reduced column echelon of the kernel).
    """
    return _rank_kernel(A)


def kernel_matrix(A: RationalMatrix) -> RationalMatrix:
    return RationalMatrix.from_columns(_rank_kernel(A)[1], A.cols)


def solve(A: RationalMatrix, b: Sequence) -> Optional[Vector]:
    """A particular solution of A x = b, or None.

    Free variables are set to 0 under the fixed pivot order.
    """
    bb = [_frac(x) for x in b]
    if len(bb) != A.rows:
        raise ValueError("rhs length mismatch")
    got = _solutions(A, RationalMatrix.from_columns([bb], A.rows))
    return None if got is None else got[0]


def solve_matrix(A: RationalMatrix, B: RationalMatrix) -> Optional[RationalMatrix]:
    """X with A X = B (columnwise particular solutions, as `solve`
    gives them), or None.  The echelon form of [A | B] is computed
    once for all columns.
    """
    if A.rows != B.rows:
        raise ValueError("row count mismatch")
    got = _solutions(A, B)
    return None if got is None else RationalMatrix.from_columns(got, A.cols)


def canonical_row_basis(vectors: Sequence[Sequence], dim: int) -> list[Vector]:
    """The unique reduced-row-echelon basis of the span; depends only on
    the subspace, so equal subspaces give identical bases.

    The row at pivot c is read off the reduced kernel: 1 at c, -k_f[c]
    at each free column f and 0 at the other pivot columns."""
    pivots = _span_echelon(vectors, dim, "vector")
    kernel = _kernel(pivots, dim)
    basis = []
    for c, _ in pivots:
        row = [_ZERO] * dim
        row[c] = _ONE
        for f, k in kernel:
            row[f] = -k.get(c, _ZERO)
        basis.append(tuple(row))
    return basis


def quotient_basis(ambient_dim: int, subspace_gens: Sequence[Sequence]):
    """Quotient of Q^n by the span of the generators.

    Returns (projection, representatives): projection is onto, kills
    every generator, and sends each representative to a distinct
    standard basis vector of the quotient.  Its rows are the reduced
    kernel vectors k_f of the generators' echelon form, and the
    representatives are the unit vectors at the free columns f.
    """
    pivots = _span_echelon(subspace_gens, ambient_dim, "generator")
    kernel = _kernel(pivots, ambient_dim)
    # f first, then the pivot columns left to right: products and
    # transposes of the projection visit a row in its key order
    projection = RationalMatrix._of(len(kernel), ambient_dim, {
        i: _row_of({f: _ONE, **{c: k[c] for c, _ in pivots if c in k}})
        for i, (f, k) in enumerate(kernel)})
    return projection, [_dense({f: _ONE}, ambient_dim) for f, _ in kernel]
