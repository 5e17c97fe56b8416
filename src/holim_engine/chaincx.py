"""Bounded chain complexes of finite-dimensional Q-vector spaces.

Conventions fixed project-wide:
  * homological grading, d_k : C_k -> C_{k-1}, d o d = 0 exactly;
  * hom-complex differential  delta(phi) = d o phi - (-1)^k phi o d,
    so degree-0 cycles of Hom(A, B) are exactly the chain maps A -> B;
  * powering by a simplicial set K is Hom(chains of K, -), hence
    powering by the interval lands in degrees {0, -1}.

Weak equivalences are quasi-isomorphisms; fibrations are degreewise
surjections (everything is fibrant over Q).

`make_complex` checks d o d = 0 exactly: every entry of each
d_{k-1} d_k is computed in integers over the row's lcm denominator
(`exactalg.product_is_zero`, the kernel of `RationalMatrix.__mul__`),
without building the product, and the check stops at the first nonzero
row.  `betti_numbers` relies on it: it finds ranks by clearing, skipping
the rows of d_{k+1} that the pivot columns of d_k make redundant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from typing import Mapping, Sequence

from .errors import ChainRuleViolation, DSquareNonzero, ShapeMismatch, \
    TotalDSquareNonzero
from .exactalg import (RationalMatrix, block_matrix,
                       product_is_zero, quotient_basis, rank_kernel,
                       rank_pivots, solve_matrix)
from .records import record


@record(frozen=True)
class ChainComplex:
    lo: int
    hi: int                       # lo > hi encodes the zero complex
    dims: Mapping[int, int]
    diff: Mapping[int, RationalMatrix]   # d_k for lo < k <= hi

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def d(self, k: int) -> RationalMatrix:
        got = self.diff.get(k)
        if got is not None:
            return got
        return RationalMatrix.zero(self.dim(k - 1), self.dim(k))

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0


ZERO_COMPLEX = ChainComplex(0, -1, {}, {})


def make_complex(dims: Mapping[int, int],
                 diff: Mapping[int, RationalMatrix] | None = None) -> ChainComplex:
    """Build and validate a complex; trims zero degrees at both ends."""
    diff = dict(diff or {})
    support = sorted(k for k, v in dims.items() if v)
    if not support:
        return ZERO_COMPLEX
    lo, hi = support[0], support[-1]
    cdims = {k: dims.get(k, 0) for k in range(lo, hi + 1)}
    cdiff = {}
    for k in range(lo + 1, hi + 1):
        m = diff.get(k)
        if m is None:
            m = RationalMatrix.zero(cdims[k - 1], cdims[k])
        if (m.rows, m.cols) != (cdims[k - 1], cdims[k]):
            raise ShapeMismatch(
                f"d_{k} has shape {m.rows}x{m.cols}, expected "
                f"{cdims[k - 1]}x{cdims[k]}")
        cdiff[k] = m
    for k, m in diff.items():
        if k not in cdiff and not m.is_zero():
            raise ShapeMismatch(f"nonzero d_{k} outside the declared support")
    C = ChainComplex(lo, hi, cdims, cdiff)
    for k in range(lo + 2, hi + 1):
        if not product_is_zero(C.d(k - 1), C.d(k)):
            raise DSquareNonzero(k - 1)
    return C


def validate_complex(raw: ChainComplex) -> ChainComplex:
    return make_complex(dict(raw.dims), dict(raw.diff))


def single(k: int = 0, dim: int = 1) -> ChainComplex:
    """Q^dim concentrated in degree k."""
    return make_complex({k: dim})


@record(frozen=True)
class ChainMap:
    source: ChainComplex
    target: ChainComplex
    components: Mapping[int, RationalMatrix]

    def component(self, k: int) -> RationalMatrix:
        got = self.components.get(k)
        if got is not None:
            return got
        return RationalMatrix.zero(self.target.dim(k), self.source.dim(k))


def make_chain_map(source: ChainComplex, target: ChainComplex,
                   components: Mapping[int, RationalMatrix],
                   check: bool = True) -> ChainMap:
    comps = {}
    for k in source.degrees():
        if source.dim(k) == 0:
            continue
        m = components.get(k)
        if m is None:
            m = RationalMatrix.zero(target.dim(k), source.dim(k))
        if (m.rows, m.cols) != (target.dim(k), source.dim(k)):
            raise ShapeMismatch(
                f"component at degree {k} has shape {m.rows}x{m.cols}, "
                f"expected {target.dim(k)}x{source.dim(k)}")
        comps[k] = m
    f = ChainMap(source, target, comps)
    if check:
        validate_map(f)
    return f


def validate_map(f: ChainMap) -> ChainMap:
    for k in range(f.source.lo, f.source.hi + 2):
        lhs = f.target.d(k) * f.component(k)
        rhs = f.component(k - 1) * f.source.d(k)
        if lhs != rhs:
            raise ChainRuleViolation(k)
    return f


def identity_map(C: ChainComplex) -> ChainMap:
    return ChainMap(C, C, {k: RationalMatrix.identity(C.dim(k))
                           for k in C.degrees() if C.dim(k)})


def zero_map(C: ChainComplex, D: ChainComplex) -> ChainMap:
    return ChainMap(C, D, {})


def compose_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    if g.source != f.target:
        raise ShapeMismatch("chain maps not composable")
    return ChainMap(f.source, g.target,
                    {k: g.component(k) * f.component(k)
                     for k in f.source.degrees() if f.source.dim(k)})


def map_sub(f: ChainMap, g: ChainMap) -> ChainMap:
    if f.source != g.source or f.target != g.target:
        raise ShapeMismatch("maps are not parallel")
    return ChainMap(f.source, f.target,
                    {k: f.component(k) - g.component(k)
                     for k in f.source.degrees() if f.source.dim(k)})


# --- direct sums ------------------------------------------------------------

def sum_with_layout(summands: Sequence[ChainComplex]):
    """The direct sum and its layout: starts[k][i] is where summand i
    begins in degree k."""
    summands = list(summands)
    return _total([(c, 0) for c in summands], lambda k: [
        (i, i, c.d(k)) for i, c in enumerate(summands)])


def direct_sum(summands: Sequence[ChainComplex]):
    """Direct sum with inclusion and projection chain maps."""
    summands = list(summands)
    S, starts = sum_with_layout(summands)
    incls, projs = [], []
    for i, c in enumerate(summands):
        comps_i, comps_p = {}, {}
        for k in c.degrees():
            if not c.dim(k):
                continue
            m = block_matrix(S.dim(k), c.dim(k),
                             [(starts[k][i], 0,
                               RationalMatrix.identity(c.dim(k)))])
            comps_i[k] = m
            comps_p[k] = m.transpose()
        incls.append(ChainMap(c, S, comps_i))
        projs.append(ChainMap(S, c, comps_p))
    return S, incls, projs


def _total(parts: Sequence[tuple[ChainComplex, int]], blocks):
    """The complex whose degree n is the sum, in order, of P_{n+s} over
    the parts (P, s), with d_n assembled from `blocks(n)`: each (i, j, M)
    places M, from part j in degree n to part i in degree n - 1.  Returns
    the complex (one `make_complex`) and its layout: starts[n][i] is
    where part i begins in degree n."""
    shifted = [(P.lo - s, P.hi - s) for P, s in parts if not P.is_zero()]
    if not shifted:
        return ZERO_COMPLEX, {}
    lo, hi = min(a for a, _ in shifted), max(b for _, b in shifted)
    starts = {n: list(accumulate((P.dim(n + s) for P, s in parts),
                                 initial=0)) for n in range(lo, hi + 1)}
    dims = {n: at[-1] for n, at in starts.items()}
    diff = {n: block_matrix(dims[n - 1], dims[n], [
        (starts[n - 1][i], starts[n][j], M) for i, j, M in blocks(n)])
        for n in range(lo + 1, hi + 1)}
    return make_complex(dims, diff), starts


# --- homology ---------------------------------------------------------------

def _homology_data(C: ChainComplex, k: int):
    """(betti, kernel matrix of d_k, projection to homology coordinates,
    cycle representatives)."""
    nk = C.dim(k)
    if nk == 0:
        return 0, RationalMatrix.zero(0, 0), RationalMatrix.zero(0, 0), []
    _, ker = rank_kernel(C.d(k))
    K = RationalMatrix.from_columns(ker, nk)
    dk1 = C.d(k + 1)
    Y = solve_matrix(K, dk1)
    if Y is None:
        raise DSquareNonzero(k, "boundaries are not cycles")
    proj, qreps = quotient_basis(K.cols, Y.columns())
    return proj.rows, K, proj, [K.apply(r) for r in qreps]


def homology(C: ChainComplex, k: int):
    """Betti number and cycle representatives of H_k."""
    betti, _, _, reps = _homology_data(C, k)
    return betti, reps


def betti_numbers(C: ChainComplex) -> dict[int, int]:
    """Nonzero Betti numbers, degree -> count, from ranks alone:
    b_k = dim C_k - rk d_k - rk d_{k+1}.

    Ranks come by clearing (Chen & Kerber, "Persistent homology
    computation with a twist", 2011), degrees ascending.  The echelon
    form of d_k is triangular on its pivot columns P_k, and every row of
    d_k is annihilated by d_{k+1} (d o d = 0, checked by `make_complex`
    when the complex is built).  So each row of d_{k+1} indexed by P_k
    is a combination of the other rows, and rk d_{k+1} is the rank of
    the rows outside P_k.  Each call clears from scratch and leaves the
    complex as it was: nothing is cached on it."""
    ranks, cleared = {}, frozenset()
    for k in range(C.lo + 1, C.hi + 1):
        ranks[k], cleared = rank_pivots(C.d(k), cleared)
    out = {}
    for k in range(C.lo, C.hi + 1):
        b = C.dim(k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if b:
            out[k] = b
    return out


def induced_homology_maps(f: ChainMap) -> dict[int, RationalMatrix]:
    src, tgt = f.source, f.target
    if src.is_zero() and tgt.is_zero():
        return {}
    los = [c.lo for c in (src, tgt) if not c.is_zero()]
    his = [c.hi for c in (src, tgt) if not c.is_zero()]
    out = {}
    for k in range(min(los), max(his) + 1):
        bs, _, _, reps_s = _homology_data(src, k)
        bt, K_t, proj_t, _ = _homology_data(tgt, k)
        cols = []
        for r in reps_s:
            v = f.component(k).apply(r)
            y = solve_matrix(
                K_t, RationalMatrix.from_columns([v], tgt.dim(k)))
            if y is None:
                raise ChainRuleViolation(k, "image of a cycle is not a cycle")
            cols.append(proj_t.apply(y.column(0)))
        out[k] = RationalMatrix.from_columns(cols, bt)
    return out


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone(f)_n = A_{n-1} + B_n for f: A -> B, with
    d(a, b) = (-d a, f a + d b)."""
    A, B = f.source, f.target
    return _total([(A, -1), (B, 0)], lambda n: [
        (0, 0, A.d(n - 1).scale(-1)), (1, 0, f.component(n - 1)),
        (1, 1, B.d(n))])[0]


def is_quasi_iso(f: ChainMap) -> bool:
    """True iff f induces an isomorphism on homology in every degree,
    that is iff its mapping cone is acyclic: ranks alone decide it.
    `induced_homology_maps` gives the induced matrices."""
    return not betti_numbers(mapping_cone(f))


# --- hom complexes and powering ----------------------------------------------

def _hom_blocks(A: ChainComplex, B: ChainComplex, k: int):
    """Ordered blocks (n, dim A_n, dim B_{n+k}) of Hom(A, B)_k; within a
    block the matrix Hom(A_n, B_{n+k}) is flattened row-major
    (target index major, source index minor)."""
    out = []
    for n in A.degrees():
        a, b = A.dim(n), B.dim(n + k)
        if a and b:
            out.append((n, a, b))
    return out


def _hom_dim(A, B, k):
    return sum(a * b for _, a, b in _hom_blocks(A, B, k))


def _hom_offsets(blocks):
    offs, acc = {}, 0
    for n, a, b in blocks:
        offs[n] = acc
        acc += a * b
    return offs, acc


def hom_complex(A: ChainComplex, B: ChainComplex) -> ChainComplex:
    """Hom(A, B)_k = prod_n Hom(A_n, B_{n+k}),
    delta(phi) = d_B o phi - (-1)^k phi o d_A."""
    if A.is_zero() or B.is_zero():
        return ZERO_COMPLEX
    lo, hi = B.lo - A.hi, B.hi - A.lo
    dims = {k: _hom_dim(A, B, k) for k in range(lo, hi + 1)}
    diff = {}
    for k in range(lo + 1, hi + 1):
        src_blocks = _hom_blocks(A, B, k)
        tgt_blocks = _hom_blocks(A, B, k - 1)
        src_offs, src_dim = _hom_offsets(src_blocks)
        tgt_offs, tgt_dim = _hom_offsets(tgt_blocks)
        sign = -1 if k % 2 == 0 else 1  # -(-1)^k
        blocks = []
        for n, a, bt in tgt_blocks:
            # post-composition with d_B from block n
            if n in src_offs:
                blk = B.d(n + k).kron(RationalMatrix.identity(a))
                blocks.append((tgt_offs[n], src_offs[n], blk))
            # pre-composition with d_A from block n-1
            if (n - 1) in src_offs:
                blk = RationalMatrix.identity(bt).kron(A.d(n).transpose())
                blocks.append((tgt_offs[n], src_offs[n - 1], blk.scale(sign)))
        diff[k] = block_matrix(tgt_dim, src_dim, blocks)
    return make_complex(dims, diff)


def hom_decode(A: ChainComplex, B: ChainComplex, k: int,
               vector) -> dict[int, RationalMatrix]:
    """Unpack a Hom(A, B)_k vector into its per-degree matrices A_n -> B_{n+k}."""
    blocks = _hom_blocks(A, B, k)
    offs, total = _hom_offsets(blocks)
    if len(vector) != total:
        raise ShapeMismatch("hom element has wrong length")
    return {n: RationalMatrix.from_rows(
        [vector[offs[n] + i * a:offs[n] + (i + 1) * a] for i in range(b)],
        rows=b, cols=a) for n, a, b in blocks}


def hom_encode(A: ChainComplex, B: ChainComplex, k: int,
               mats: Mapping[int, RationalMatrix]):
    blocks = _hom_blocks(A, B, k)
    out = []
    for n, a, b in blocks:
        m = mats.get(n)
        if m is None:
            out.extend([Fraction(0)] * (a * b))
        else:
            if (m.rows, m.cols) != (b, a):
                raise ShapeMismatch(f"block {n} has wrong shape")
            for i in range(b):
                out.extend(m.row(i))
    return tuple(out)


def _hom_map(A: ChainComplex, B: ChainComplex, Ap: ChainComplex,
             Bp: ChainComplex, block, check: bool) -> ChainMap:
    """The map Hom(A, B) -> Hom(Ap, Bp) that is block(n, k, a, b) from
    the block n of Hom(A, B)_k to the block n of Hom(Ap, Bp)_k, which
    holds the b x a matrices Ap_n -> Bp_{n+k}, and zero elsewhere."""
    H, Hp = hom_complex(A, B), hom_complex(Ap, Bp)
    comps = {}
    for k in H.degrees():
        if not H.dim(k):
            continue
        src_offs, sdim = _hom_offsets(_hom_blocks(A, B, k))
        tgt_blocks = _hom_blocks(Ap, Bp, k)
        tgt_offs, tdim = _hom_offsets(tgt_blocks)
        comps[k] = block_matrix(tdim, sdim, [
            (tgt_offs[n], src_offs[n], block(n, k, a, b))
            for n, a, b in tgt_blocks if n in src_offs])
    return make_chain_map(H, Hp, comps, check=check)


def hom_postcompose(A: ChainComplex, f: ChainMap,
                    check: bool = False) -> ChainMap:
    """Hom(A, f) : Hom(A, B) -> Hom(A, B'), phi |-> f o phi."""
    return _hom_map(A, f.source, A, f.target, lambda n, k, a, _:
                    f.component(n + k).kron(RationalMatrix.identity(a)),
                    check)


def hom_precompose(g: ChainMap, B: ChainComplex,
                   check: bool = False) -> ChainMap:
    """Hom(g, B) : Hom(A, B) -> Hom(A', B), phi |-> phi o g, for g: A' -> A."""
    return _hom_map(g.target, B, g.source, B, lambda n, k, _, b:
                    RationalMatrix.identity(b).kron(
                        g.component(n).transpose()), check)


def power(K, c: ChainComplex) -> ChainComplex:
    """Powering c^K = Hom(chains of K, c); contravariant in K,
    covariant in c; power(point, c) = c."""
    from .ssets import normalized_chains
    return hom_complex(normalized_chains(K), c)


def power_map_complex(K, f: ChainMap, check: bool = False) -> ChainMap:
    """c^K -> c'^K induced by f: c -> c'."""
    from .ssets import normalized_chains
    return hom_postcompose(normalized_chains(K), f, check=check)


def power_map_sset(m, c: ChainComplex, check: bool = False) -> ChainMap:
    """c^L -> c^K induced by the simplicial map m: K -> L."""
    from .ssets import chains_of_map
    return hom_precompose(chains_of_map(m), c, check=check)


# --- totalization and subcomplexes -------------------------------------------

def product_total(columns: Sequence[ChainComplex], horizontal) -> ChainComplex:
    """Total complex of finitely many columns with horizontal maps.

    Degree-k part is the sum over n of (column n)_{k+n}; `horizontal`
    maps (n, k) to the matrix (col n)_k -> (col n+1)_k and must already
    square to zero and anticommute with the vertical differentials.
    """
    columns = list(columns)
    N = len(columns)

    @cache      # the checks and the blocks read each (n, k) more than once
    def h(n, k):
        if n + 1 >= N:
            return RationalMatrix.zero(0, columns[n].dim(k))
        m = horizontal(n, k)
        if m is None:
            m = RationalMatrix.zero(columns[n + 1].dim(k), columns[n].dim(k))
        if (m.rows, m.cols) != (columns[n + 1].dim(k), columns[n].dim(k)):
            raise ShapeMismatch(f"horizontal map at ({n}, {k}) has wrong shape")
        return m

    for n in range(N - 1):
        col, nxt = columns[n], columns[n + 1]
        for k in col.degrees():
            anti = nxt.d(k) * h(n, k) + h(n, k - 1) * col.d(k)
            if not anti.is_zero():
                raise TotalDSquareNonzero(
                    f"horizontal and vertical do not anticommute at ({n}, {k})")
            if n + 2 < N:
                if not (h(n + 1, k) * h(n, k)).is_zero():
                    raise TotalDSquareNonzero(
                        f"horizontal composite nonzero at ({n}, {k})")

    def blocks(k):
        for n, c in enumerate(columns):
            q = k + n
            if not c.dim(q):
                continue
            yield n, n, c.d(q)
            hm = h(n, q)
            if hm.rows:
                yield n + 1, n, hm

    try:
        return _total([(c, n) for n, c in enumerate(columns)], blocks)[0]
    except DSquareNonzero as e:
        raise TotalDSquareNonzero(str(e)) from None


def subcomplex_from_kernels(C: ChainComplex,
                            kernels: Mapping[int, RationalMatrix]):
    """Subcomplex spanned by the given kernel bases (columns) with the
    restricted differential; returns (subcomplex, inclusion)."""
    dims = {k: m.cols for k, m in kernels.items() if m.cols}
    if not dims:
        return ZERO_COMPLEX, zero_map(ZERO_COMPLEX, C)
    lo, hi = min(dims), max(dims)
    diff = {}
    for k in range(lo + 1, hi + 1):
        Kk = kernels.get(k)
        if Kk is None or not Kk.cols:
            continue
        dK = C.d(k) * Kk
        Kk1 = kernels.get(k - 1)
        if Kk1 is None or not Kk1.cols:
            if not dK.is_zero():
                raise ShapeMismatch("kernels do not form a subcomplex")
            continue
        X = solve_matrix(Kk1, dK)
        if X is None:
            raise ShapeMismatch("kernels do not form a subcomplex")
        diff[k] = X
    E = make_complex(dims, diff)
    incl = make_chain_map(E, C, {k: kernels[k] for k in dims}, check=False)
    return E, incl
