"""Exact rational linear algebra.

All homology and equalizer computations reduce to ranks, kernels and
quotients of matrices over Q.  Entries are `fractions.Fraction`;
elimination clears denominators row-wise and runs fraction-free
(integer cross-multiplication with gcd reduction) with fixed row-major
pivoting, so every basis this module emits is deterministic across runs
and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import ShapeMismatch

Vector = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


_FRAC_CACHE = {i: Fraction(i) for i in range(-16, 17)}


def _wrap_int(v: int) -> Fraction:
    got = _FRAC_CACHE.get(v)
    return got if got is not None else Fraction(v)


def _int_entries(m: "RationalMatrix"):
    """Numerator table when every entry is an integer, else None;
    cached on the instance (entries are immutable)."""
    cached = m.__dict__.get("_ints", False)
    if cached is not False:
        return cached
    out = []
    for row in m.entries:
        r = []
        for x in row:
            if x.denominator != 1:
                m.__dict__["_ints"] = None
                return None
            r.append(x.numerator)
        out.append(r)
    m.__dict__["_ints"] = out
    return out


@dataclass(frozen=True)
class RationalMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(data: Sequence[Sequence], rows: Optional[int] = None,
                  cols: Optional[int] = None) -> "RationalMatrix":
        ent = tuple(tuple(_frac(x) for x in row) for row in data)
        r = len(ent) if rows is None else rows
        if len(ent) != r:
            raise ValueError(f"expected {r} rows, got {len(ent)}")
        if ent:
            c = len(ent[0]) if cols is None else cols
            for row in ent:
                if len(row) != c:
                    raise ValueError("ragged rows")
        else:
            c = 0 if cols is None else cols
        return RationalMatrix(r, c, ent)

    @staticmethod
    def zero(rows: int, cols: int) -> "RationalMatrix":
        z = Fraction(0)
        return RationalMatrix(rows, cols, tuple(tuple(z for _ in range(cols))
                                                for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        one, z = Fraction(1), Fraction(0)
        return RationalMatrix(n, n, tuple(
            tuple(one if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def from_columns(cols: Sequence[Sequence], nrows: int) -> "RationalMatrix":
        cs = [tuple(_frac(x) for x in c) for c in cols]
        for c in cs:
            if len(c) != nrows:
                raise ValueError("column length mismatch")
        return RationalMatrix(nrows, len(cs), tuple(
            tuple(c[i] for c in cs) for i in range(nrows)))

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows, tuple(
            tuple(self.entries[i][j] for i in range(self.rows))
            for j in range(self.cols)))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        return RationalMatrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in -")
        return RationalMatrix(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, tuple(
            tuple(-a for a in row) for row in self.entries))

    def scale(self, c) -> "RationalMatrix":
        c = _frac(c)
        ia = _int_entries(self)
        if ia is not None and c.denominator == 1:
            cn = c.numerator
            return RationalMatrix(self.rows, self.cols, tuple(
                tuple(_wrap_int(cn * a) for a in row) for row in ia))
        return RationalMatrix(self.rows, self.cols, tuple(
            tuple(c * a for a in row) for row in self.entries))

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in *: {self.rows}x{self.cols} "
                             f"by {other.rows}x{other.cols}")
        ia, ib = _int_entries(self), _int_entries(other)
        if ia is not None and ib is not None:
            out = []
            for arow in ia:
                acc = [0] * other.cols
                for k, a in enumerate(arow):
                    if a:
                        brow = ib[k]
                        for j, b in enumerate(brow):
                            if b:
                                acc[j] += a * b
                out.append(tuple(_wrap_int(v) for v in acc))
            return RationalMatrix(self.rows, other.cols, tuple(out))
        zero = Fraction(0)
        ot = other.entries
        out = []
        for arow in self.entries:
            acc = [zero] * other.cols
            for k, a in enumerate(arow):
                if a:
                    brow = ot[k]
                    for j in range(other.cols):
                        b = brow[j]
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return RationalMatrix(self.rows, other.cols, tuple(out))

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        vv = [_frac(x) for x in v]
        return tuple(sum((a * x for a, x in zip(row, vv) if a and x),
                         Fraction(0)) for row in self.entries)

    def kron(self, other: "RationalMatrix") -> "RationalMatrix":
        ia, ib = _int_entries(self), _int_entries(other)
        if ia is not None and ib is not None:
            out = []
            for ra in ia:
                for rb in ib:
                    out.append(tuple(_wrap_int(a * b)
                                     for a in ra for b in rb))
            return RationalMatrix(self.rows * other.rows,
                                  self.cols * other.cols, tuple(out))
        out = []
        for ra in self.entries:
            for rb in other.entries:
                out.append(tuple(a * b for a in ra for b in rb))
        return RationalMatrix(self.rows * other.rows,
                              self.cols * other.cols, tuple(out))

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return RationalMatrix(self.rows, self.cols + other.cols, tuple(
            ra + rb for ra, rb in zip(self.entries, other.entries)))

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return RationalMatrix(self.rows + other.rows, self.cols,
                              self.entries + other.entries)


def block_matrix(nrows: int, ncols: int,
                 blocks: Iterable[tuple]) -> RationalMatrix:
    """The nrows x ncols matrix holding each block at its offsets.

    `blocks` yields (row offset, column offset, block), where a block is
    a RationalMatrix or a scalar (a 1x1 block).  Overlapping blocks add;
    only nonzero entries are scattered.  A block that does not fit in
    the matrix raises ShapeMismatch."""
    z = Fraction(0)
    out = [[z] * ncols for _ in range(nrows)]
    for r0, c0, blk in blocks:
        if isinstance(blk, RationalMatrix):
            br, bc, ent = blk.rows, blk.cols, blk.entries
        else:
            br, bc, ent = 1, 1, ((_frac(blk),),)
        if r0 < 0 or c0 < 0 or r0 + br > nrows or c0 + bc > ncols:
            raise ShapeMismatch(
                f"{br}x{bc} block at ({r0}, {c0}) does not fit in a "
                f"{nrows}x{ncols} matrix")
        for i, brow in enumerate(ent):
            row = out[r0 + i]
            for j, v in enumerate(brow):
                if v:
                    cur = row[c0 + j]
                    row[c0 + j] = v if cur is z else cur + v
    return RationalMatrix(nrows, ncols, tuple(tuple(r) for r in out))


def block_diag(blocks: Iterable[RationalMatrix]) -> RationalMatrix:
    placed, r0, c0 = [], 0, 0
    for b in blocks:
        placed.append((r0, c0, b))
        r0 += b.rows
        c0 += b.cols
    return block_matrix(r0, c0, placed)


# --- fraction-free elimination core ----------------------------------------

def _sparse_int_rows(m: RationalMatrix) -> list[dict[int, int]]:
    """Clear denominators row by row; row scaling preserves row space."""
    out = []
    for row in m.entries:
        den = 1
        for x in row:
            if x:
                den = den * x.denominator // gcd(den, x.denominator)
        d = {}
        for j, x in enumerate(row):
            if x:
                d[j] = x.numerator * (den // x.denominator)
        out.append(d)
    return out


def _reduce_row(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def _echelon(rows: list[dict[int, int]], cols: int):
    """Row echelon by fraction-free elimination.

    Pivot rule: columns left to right, first (in input order) remaining
    row with a nonzero entry in the pivot column.  Returns the pivot
    rows as (pivot_col, row) in pivot-column order.
    """
    work = [dict(r) for r in rows if r]
    pivots: list[tuple[int, dict[int, int]]] = []
    for c in range(cols):
        pidx = None
        for i, r in enumerate(work):
            if r.get(c):
                pidx = i
                break
        if pidx is None:
            continue
        prow = work.pop(pidx)
        p = prow[c]
        nxt = []
        for r in work:
            e = r.get(c)
            if e:
                r2 = {}
                for k in r.keys() | prow.keys():
                    v = p * r.get(k, 0) - e * prow.get(k, 0)
                    if v:
                        r2[k] = v
                if r2:
                    nxt.append(_reduce_row(r2))
            else:
                nxt.append(r)
        work = nxt
        pivots.append((c, prow))
    return pivots, work


def _kernel_from_echelon(pivots, cols: int, free_cols=None) -> list[Vector]:
    """Back-substitute one kernel vector per free column (set to 1)."""
    pivot_cols = {c for c, _ in pivots}
    if free_cols is None:
        free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        x: dict[int, Fraction] = {f: Fraction(1)}
        for c, row in reversed(pivots):
            s = Fraction(0)
            for k, v in row.items():
                if k != c and k in x:
                    s += v * x[k]
            if s:
                x[c] = -s / row[c]
        basis.append(tuple(x.get(j, Fraction(0)) for j in range(cols)))
    return basis


def rank(A: RationalMatrix) -> int:
    pivots, _ = _echelon(_sparse_int_rows(A), A.cols)
    return len(pivots)


def rank_kernel(A: RationalMatrix) -> tuple[int, list[Vector]]:
    """Rank and a deterministic kernel basis.

    Each basis vector carries 1 at its free column and 0 at every other
    free column (reduced column echelon of the kernel).
    """
    pivots, _ = _echelon(_sparse_int_rows(A), A.cols)
    return len(pivots), _kernel_from_echelon(pivots, A.cols)


def kernel_matrix(A: RationalMatrix) -> RationalMatrix:
    r, basis = rank_kernel(A)
    return RationalMatrix.from_columns(basis, A.cols)


def solve(A: RationalMatrix, b: Sequence) -> Optional[Vector]:
    """A particular solution of A x = b, or None.

    Free variables are set to 0 under the fixed pivot order.
    """
    bb = [_frac(x) for x in b]
    if len(bb) != A.rows:
        raise ValueError("rhs length mismatch")
    aug = A.hstack(RationalMatrix.from_columns([bb], A.rows))
    rows = _sparse_int_rows(aug)
    bcol = A.cols
    # never pivot on the rhs column
    pivots, rest = _echelon(rows, A.cols)
    for r in rest:
        if r.get(bcol):
            return None
    x: dict[int, Fraction] = {}
    for c, row in reversed(pivots):
        s = Fraction(row.get(bcol, 0))
        for k, v in row.items():
            if k != c and k != bcol and k in x:
                s -= v * x[k]
        x[c] = s / row[c]
    return tuple(x.get(j, Fraction(0)) for j in range(A.cols))


def solve_matrix(A: RationalMatrix, B: RationalMatrix) -> Optional[RationalMatrix]:
    """X with A X = B (columnwise particular solutions), or None.

    The echelon form of A is computed once and reused per column.
    """
    if A.rows != B.rows:
        raise ValueError("row count mismatch")
    aug = A.hstack(B)
    pivots, rest = _echelon(_sparse_int_rows(aug), A.cols)
    bcols = range(A.cols, A.cols + B.cols)
    for r in rest:
        if any(r.get(j) for j in bcols):
            return None
    # pivot rows may involve several rhs columns at once; substitute per rhs
    cols_out = []
    for jb in bcols:
        x: dict[int, Fraction] = {}
        for c, row in reversed(pivots):
            s = Fraction(row.get(jb, 0))
            for k, v in row.items():
                if k != c and k < A.cols and k in x:
                    s -= v * x[k]
            x[c] = s / row[c]
        cols_out.append(tuple(x.get(j, Fraction(0)) for j in range(A.cols)))
    return RationalMatrix.from_columns(cols_out, A.cols)


def _rref(vectors: Sequence[Sequence], dim: int, what: str):
    """The reduced row echelon form of the span of the vectors: one
    (pivot column, sparse row with 1 at the pivot) pair per row, in
    increasing pivot order."""
    vecs = [[_frac(x) for x in v] for v in vectors]
    for v in vecs:
        if len(v) != dim:
            raise ValueError(f"{what} length mismatch")
    pivots, _ = _echelon(_sparse_int_rows(
        RationalMatrix.from_rows(vecs, cols=dim)), dim)
    # normalize pivots to 1 and eliminate upwards
    rref: list[tuple[int, dict[int, Fraction]]] = []
    for c, row in reversed(pivots):
        p = Fraction(row[c])
        frow = {k: Fraction(v) / p for k, v in row.items()}
        for c2, row2 in rref:
            coef = frow.get(c2, Fraction(0))
            if coef:
                for k, v in row2.items():
                    nv = frow.get(k, Fraction(0)) - coef * v
                    if nv:
                        frow[k] = nv
                    else:
                        frow.pop(k, None)
        rref.append((c, frow))
    rref.reverse()
    return rref


def canonical_row_basis(vectors: Sequence[Sequence], dim: int) -> list[Vector]:
    """The unique reduced-row-echelon basis of the span; depends only on
    the subspace, so equal subspaces give identical bases."""
    return [tuple(frow.get(j, Fraction(0)) for j in range(dim))
            for _, frow in _rref(vectors, dim, "vector")]


def quotient_basis(ambient_dim: int, subspace_gens: Sequence[Sequence]):
    """Quotient of Q^n by the span of the generators.

    Returns (projection, representatives): projection is onto, kills
    every generator, and sends each representative to a distinct
    standard basis vector of the quotient.
    """
    rref = _rref(subspace_gens, ambient_dim, "generator")
    pivot_cols = {c for c, _ in rref}
    free_cols = [j for j in range(ambient_dim) if j not in pivot_cols]
    proj_rows = []
    for f in free_cols:
        row = [Fraction(0)] * ambient_dim
        row[f] = Fraction(1)
        for c, frow in rref:
            coef = frow.get(f)
            if coef:
                row[c] = -coef
        proj_rows.append(tuple(row))
    projection = RationalMatrix(len(free_cols), ambient_dim, tuple(proj_rows))
    reps = []
    for f in free_cols:
        v = [Fraction(0)] * ambient_dim
        v[f] = Fraction(1)
        reps.append(tuple(v))
    return projection, reps
