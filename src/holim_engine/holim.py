"""The homotopy-limit engine.

The weighted end of a diagram F with weight W is the end of
(x, y) |-> Hom(chains of W(x), F(y)) over product(opposite(G), G).
Every weight the engine accepts is free, so by Yoneda its end is the
product over the generating cells of F at their representing objects:
`free_end` builds that product from the basis `ssets._levelwise_free`
reads off the weight.  With the nerve weight g |-> N(G over g) the end
is the Bousfield-Kan homotopy limit; its generators are the chains of
G (`_chain_generators`), and maps between such products are block maps
along the chains (`_chain_product_map`).  `bk_holim`,
`holim_we_invariance`, `comparison_map` and `change_of_diagrams_iso`
all take their ends this way.  With the truncated injective-simplex
weight [n] |-> Delta^n the end is the fat totalization, which `fat_tot`
computes as the double complex of the levels.  The equalizer end
(`weighted_end`) is kept as the independent oracle for these products.

Quasi-isomorphism is only ever asserted along an explicitly constructed
comparison map; equal Betti numbers alone are reported as consistent,
never as quasi-isomorphic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Optional, Sequence

from . import chaincx, fincat, ssets
from .chaincx import (ChainComplex, ChainMap, betti_numbers, compose_maps,
                      direct_sum, hom_complex, hom_postcompose,
                      hom_precompose, identity_map, is_quasi_iso,
                      make_chain_map, power)
from .endkan import (ChainDiagram, ChainDiagramMap, EndChain,
                     bifunctor_diagram, end_chain, restrict,
                     validate_chain_diagram_map)
from .errors import (DepthExceeded, DiagramError, NotComponentwiseWE,
                     NotLoopFree, ShapeMismatch, TruncationTooShallow,
                     WeightRejected)
from .exactalg import RationalMatrix, block_matrix, rank
from .fincat import (FinCategory, FunctorData, comma_over,
                     comma_under_functor, cospan_category, find_terminal,
                     is_direct, validate_category)
from .ssets import (SSetMap, Weight, _levelwise_free, boundary,
                    chains_of_map, check_point_resolution,
                    homology_contractible, nerve, nerve_of_comma_under,
                    normalized_chains, standard_simplex)


@dataclass
class HolimResult:
    complex: ChainComplex
    betti: dict[int, int]
    provenance: str


# --- simplicial frames ---------------------------------------------------------

class SimplicialFrame:
    """Levels power(Delta^n, c) of the Reedy-fibrant replacement of the
    constant cosimplicial object at c, with restriction maps along the
    injective cofaces."""

    def __init__(self, underlying: ChainComplex, depth: int):
        self.underlying = underlying
        self.depth = depth
        self.simplices = [standard_simplex(n) for n in range(depth + 1)]
        self.levels = [power(K, underlying) for K in self.simplices]
        self._restrictions: dict[tuple, ChainMap] = {}

    def level(self, n: int) -> ChainComplex:
        if n > self.depth:
            raise DepthExceeded(f"frame materialized to depth {self.depth}")
        return self.levels[n]

    def coface_action(self, vertices: tuple[int, ...], n: int) -> ChainMap:
        """Restriction level(n) -> level(m) along the injection with the
        given image vertices (m + 1 of them)."""
        if n > self.depth:
            raise DepthExceeded(f"frame materialized to depth {self.depth}")
        key = (vertices, n)
        got = self._restrictions.get(key)
        if got is None:
            m = len(vertices) - 1
            smap = _simplex_inclusion(self.simplices[m], self.simplices[n],
                                      vertices)
            got = hom_precompose(chains_of_map(smap), self.underlying)
            self._restrictions[key] = got
        return got


def _simplex_inclusion(Ksmall, Kbig, vertices) -> SSetMap:
    mapping = {}
    for k, cells in enumerate(Ksmall.cells):
        for c in cells:
            mapping[(k, c)] = tuple(vertices[v] for v in c)
    return SSetMap(Ksmall, Kbig, mapping)


def fibrant_frame(c: ChainComplex, depth: int) -> SimplicialFrame:
    """Materialize levels 0..depth and verify each unit map
    c -> power(Delta^n, c) is a quasi-isomorphism."""
    frame = SimplicialFrame(c, depth)
    for n in range(depth + 1):
        unit = hom_precompose(ssets.augmentation(frame.simplices[n]), c)
        if not is_quasi_iso(unit):
            raise DiagramError(f"unit map into level {n} is not a quasi-iso")
    return frame


def matching_object(frame: SimplicialFrame, n: int):
    """power(boundary of Delta^n, c) with the restriction map from
    level n."""
    if n > frame.depth:
        raise DepthExceeded(f"frame materialized to depth {frame.depth}")
    B, incl = boundary(n)
    M = power(B, frame.underlying)
    mmap = hom_precompose(chains_of_map(incl), frame.underlying)
    return M, mmap


@dataclass(frozen=True)
class ReedyReport:
    per_level: tuple[bool, ...]
    passed: bool


def check_reedy_fibrant(frame: SimplicialFrame, depth: int) -> ReedyReport:
    """Matching maps must be degreewise surjective (the fibrations of
    this model); over Q a failure indicates an implementation bug."""
    verdicts = []
    for n in range(depth + 1):
        M, mmap = matching_object(frame, n)
        ok = True
        for k in M.degrees():
            if rank(mmap.component(k)) != M.dim(k):
                ok = False
        verdicts.append(ok)
    return ReedyReport(tuple(verdicts), all(verdicts))


# --- weighted ends and the Bousfield-Kan formula ---------------------------------

def weighted_end(F: ChainDiagram, W: Weight,
                 generators: Optional[Sequence[int]] = None) -> EndChain:
    """The end over product(opposite(G), G) of
    (x, y) |-> Hom(chains of W(x), F(y))."""
    G = F.base
    if W.base != G:
        raise ShapeMismatch("weight and diagram have different bases")
    NW = [normalized_chains(W.value(x)) for x in G.objects()]
    NW_maps: dict[int, ChainMap] = {}

    def nw_map(m):
        got = NW_maps.get(m)
        if got is None:
            got = chains_of_map(W.action(m))
            NW_maps[m] = got
        return got

    def value_at(x, y):
        return hom_complex(NW[x], F.value(y))

    def action_at(m1, m2):
        pre = hom_precompose(nw_map(m1), F.value(G.src(m2)))
        post = hom_postcompose(NW[G.src(m1)], F.action(m2))
        return compose_maps(post, pre)

    H = bifunctor_diagram(G, value_at, action_at)
    return end_chain(H, generators=generators)


def bk_holim(F: ChainDiagram, W: Optional[Weight] = None) -> HolimResult:
    """Bousfield-Kan homotopy limit: the end of F powered by a
    projectively cofibrant resolution of the point.

    With no weight the resolution is the nerve weight
    g |-> N(G over g), free on the chains of G (`_chain_product`); each
    G over g has the terminal object id_g, so its nerve is contractible.
    An explicit weight must pass `check_point_resolution`, and is then
    free on the basis `ssets._levelwise_free` reads off it."""
    G = F.base
    if is_direct(G) is None:
        raise NotLoopFree("bk_holim requires a loop-free base")
    if W is None:
        provenance = "nerve_weight"
        passed = all(find_terminal(comma_over(G, g).cat) is not None
                     for g in G.objects())
    else:
        if W.base != G:
            raise ShapeMismatch("weight and diagram have different bases")
        provenance = W.provenance
        passed = check_point_resolution(W).passed
    if not passed:
        raise WeightRejected(
            f"weight (provenance {provenance!r}) is not a certified "
            f"cofibrant resolution of the point")
    cx = _chain_product(F) if W is None else free_end(F, _levelwise_free(W))
    return HolimResult(cx, betti_numbers(cx),
                       f"bousfield-kan end, {provenance} weight")


def free_end(F: ChainDiagram, basis) -> ChainComplex:
    """The end of F weighted by a free weight, as the product over the
    generators (k, x, cell, faces) of its basis (`ssets._levelwise_free`)
    of F(x) shifted down by k.

    Total degree n is the sum of F(x)_{n+k}, in basis order.  Face i of
    a generator is W(u_i) of the generator g_i, where (g_i, u_i) =
    faces[i], so by naturality, for phi of degree n,
      (delta phi)(gen) = d_F phi(gen) - (-1)^n sum_i (-1)^i F(u_i) phi(g_i)."""
    G = F.base
    nonzero = [(k, F.value(x)) for k, x, _, _ in basis
               if not F.value(x).is_zero()]
    if not nonzero:
        return chaincx.ZERO_COMPLEX
    lo = min(V.lo - k for k, V in nonzero)
    hi = max(V.hi - k for k, V in nonzero)
    offsets, dims = {}, {}
    for n in range(lo, hi + 1):
        offsets[n], dims[n] = _chain_offsets(F, basis, n)
    signed_identity = lru_cache(None)(
        lambda d, s: RationalMatrix.identity(d).scale(s))
    diff = {}
    for n in range(lo + 1, hi + 1):
        src, tgt = offsets[n], offsets[n - 1]
        sign = -1 if n % 2 == 0 else 1          # -(-1)^n
        blocks = []
        for j, (k, x, _, faces) in enumerate(basis):
            V = F.value(x)
            q = n + k - 1
            if not V.dim(q):
                continue
            blocks.append((tgt[j], src[j], V.d(q + 1)))
            # the faces are (k-1)-generators, read in internal degree q
            for i, (g, u) in enumerate(faces):
                s = sign if i % 2 == 0 else -sign
                blk = signed_identity(V.dim(q), s) if G.is_identity(u) \
                    else F.action(u).component(q).scale(s)
                blocks.append((tgt[j], src[g], blk))
        diff[n] = block_matrix(dims[n - 1], dims[n], blocks)
    return chaincx.make_complex({n: dims[n] for n in range(lo, hi + 1)},
                                diff)


def _chain_generators(G: FinCategory):
    """The nerve of G as a free basis for `free_end`, with the index of
    each chain: the k-chains c = (x_0 -> ... -> x_k) in the order of
    `nerve(G).cells`, at x_k, whose faces d_i c carry the identity for
    i < k and the last arrow m_k for i = k (d_k alone moves x_k)."""
    K = nerve(G)
    index = {(k, c): j for j, (k, c) in enumerate(
        (k, c) for k, cells in enumerate(K.cells) for c in cells)}
    basis = []
    for k, c in index:
        x = c if k == 0 else G.tgt(c[-1])
        basis.append((k, x, c, tuple(
            (index[(k - 1, d)], c[-1] if i == k else G.identity[x])
            for i, d in enumerate(K.faces.get((k, c), ())))))
    return index, basis


def _chain_offsets(F: ChainDiagram, basis, n: int):
    """Offsets of the blocks F(x)_{n+k} of the generators (k, x, ...) in
    total degree n of the product over them, and its dimension there."""
    off, acc = [], 0
    for k, x, _, _ in basis:
        off.append(acc)
        acc += F.value(x).dim(n + k)
    return off, acc


def _chain_product(F: ChainDiagram) -> ChainComplex:
    """The end of F weighted by the nerve weight: the product over the
    k-chains c of G of F(x_k) shifted down by k."""
    return free_end(F, _chain_generators(F.base)[1])


def _chain_product_map(f: FunctorData, Fp: ChainDiagram, F: ChainDiagram,
                       alpha: Sequence[ChainMap], P: ChainComplex,
                       Q: ChainComplex) -> ChainMap:
    """The map from the chain product P of Fp over the target of f to the
    chain product Q of F over its source: the block of the chain c, with
    last object x, is alpha[x] : Fp(f(x)) -> F(x) in internal degree
    n + k applied to the block of the chain f(c), and zero when f sends
    an arrow of c to an identity (f(c) is degenerate)."""
    Gp = f.target
    src_index, src_gens = _chain_generators(Gp)
    _, tgt_gens = _chain_generators(f.source)
    images = []
    for j, (k, x, c, _) in enumerate(tgt_gens):
        fc = f.object_map[c] if k == 0 else \
            tuple(f.morphism_map[m] for m in c)
        if k == 0 or not any(Gp.is_identity(m) for m in fc):
            images.append((j, k, x, src_index[(k, fc)]))
    comps = {}
    for n in P.degrees():
        src, cols = _chain_offsets(Fp, src_gens, n)
        tgt, nrows = _chain_offsets(F, tgt_gens, n)
        comps[n] = block_matrix(nrows, cols, [
            (tgt[j], src[i], alpha[x].component(n + k))
            for j, k, x, i in images])
    return make_chain_map(P, Q, comps, check=True)


# --- homotopy pullback ------------------------------------------------------------

def cospan_diagram(p: ChainMap, q: ChainMap) -> ChainDiagram:
    if p.target.dims != q.target.dims:
        raise ShapeMismatch("cospan legs have different targets")
    C = cospan_category()
    values = [p.source, q.source, p.target]
    actions = {C.identity[0]: identity_map(p.source),
               C.identity[1]: identity_map(q.source),
               C.identity[2]: identity_map(p.target),
               C.hom(0, 2)[0]: p,
               C.hom(1, 2)[0]: q}
    return ChainDiagram(C, values, actions)


def mapping_path_complex(p: ChainMap, q: ChainMap) -> ChainComplex:
    """The independent homotopy-pullback oracle: degree k part
    A_k + B_k + C_{k+1}, d(a, b, c) = (da, db, p(a) - q(b) - dc)."""
    A, B, C = p.source, q.source, p.target
    nonzero = [x for x in (A, B) if not x.is_zero()]
    los = [x.lo for x in nonzero] + ([C.lo - 1] if not C.is_zero() else [])
    his = [x.hi for x in nonzero] + ([C.hi - 1] if not C.is_zero() else [])
    if not los:
        return chaincx.ZERO_COMPLEX
    lo, hi = min(los), max(his)
    dims = {k: A.dim(k) + B.dim(k) + C.dim(k + 1) for k in range(lo, hi + 1)}
    diff = {}
    for k in range(lo + 1, hi + 1):
        oa, ob, oc = 0, A.dim(k - 1), A.dim(k - 1) + B.dim(k - 1)
        ja, jb, jc = 0, A.dim(k), A.dim(k) + B.dim(k)
        diff[k] = block_matrix(dims.get(k - 1, 0), dims[k], [
            (oa, ja, A.d(k)),
            (ob, jb, B.d(k)),
            (oc, ja, p.component(k)),
            (oc, jb, q.component(k).scale(-1)),
            (oc, jc, C.d(k + 1).scale(-1))])
    return chaincx.make_complex(dims, diff)


@dataclass(frozen=True)
class PullbackReport:
    betti_bk: dict[int, int]
    betti_oracle: dict[int, int]
    passed: bool


def homotopy_pullback(p: ChainMap, q: ChainMap):
    """bk_holim over the cospan, cross-checked against the mapping-path
    oracle; returns (HolimResult, PullbackReport)."""
    F = cospan_diagram(p, q)
    res = bk_holim(F)
    oracle = betti_numbers(mapping_path_complex(p, q))
    rep = PullbackReport(res.betti, oracle, res.betti == oracle)
    res.provenance = "bousfield-kan end over the cospan + mapping-path oracle"
    return res, rep


# --- truncated injective-simplex category and fat totalization ---------------------

@lru_cache(maxsize=None)
def _delta_plus_records(N: int) -> tuple[tuple[int, int, tuple], ...]:
    records = []   # (m, n, image vertices)
    for m in range(N + 1):
        for n in range(m, N + 1):
            for t in combinations(range(n + 1), m + 1):
                records.append((m, n, t))
    return tuple(records)


@lru_cache(maxsize=None)
def delta_plus_category(N: int) -> FinCategory:
    """Injective monotone maps between [0], ..., [N]; a morphism is
    interned by its image vertex tuple."""
    objs = [f"[{n}]" for n in range(N + 1)]
    records = _delta_plus_records(N)
    index = {r: i for i, r in enumerate(records)}
    mor_src = tuple(r[0] for r in records)
    mor_tgt = tuple(r[1] for r in records)
    labels = tuple(f"<{','.join(map(str, t))}>:{m}->{n}"
                   for m, n, t in records)
    identity = tuple(index[(n, n, tuple(range(n + 1)))] for n in range(N + 1))
    table = {}
    for j, (b2, c2, t2) in enumerate(records):
        for i, (a1, b1, t1) in enumerate(records):
            if b1 == b2:
                comp = tuple(t2[v] for v in t1)
                table[(j, i)] = index[(a1, c2, comp)]
    C = FinCategory(N + 1, tuple(objs), mor_src, mor_tgt, labels, identity,
                    table)
    return validate_category(C)


def delta_plus_vertices(C: FinCategory, m: int) -> tuple[int, ...]:
    """Recover the image tuple of a morphism of delta_plus_category."""
    return _delta_plus_records(C.n_objects - 1)[m][2]


def cosimplicial_from_cofaces(levels: Sequence[ChainComplex],
                              cofaces: Mapping[tuple[int, int], ChainMap]) \
        -> ChainDiagram:
    """Build the diagram over delta_plus_category from coface maps
    cofaces[(n, i)] : X^{n-1} -> X^n, verifying the coface identities."""
    N = len(levels) - 1
    for n in range(1, N):
        for j in range(n + 2):
            for i in range(j):
                lhs = compose_maps(cofaces[(n + 1, j)], cofaces[(n, i)])
                rhs = compose_maps(cofaces[(n + 1, i)], cofaces[(n, j - 1)])
                for k in levels[n - 1].degrees():
                    if lhs.component(k) != rhs.component(k):
                        raise DiagramError(
                            f"coface identity fails at (n={n}, i={i}, j={j})")
    C = delta_plus_category(N)

    def action(m):
        a, b = C.src(m), C.tgt(m)
        if a == b:
            return identity_map(levels[a])
        t = delta_plus_vertices(C, m)
        missing = sorted(set(range(b + 1)) - set(t), reverse=True)
        # delta^{i_1} o ... o delta^{i_r} with i_1 > ... > i_r
        out = None
        dim = a
        for i in reversed(missing):
            step = cofaces[(dim + 1, i)]
            out = step if out is None else compose_maps(step, out)
            dim += 1
        return out

    return ChainDiagram(C, list(levels), action)


def constant_cosimplicial(c: ChainComplex, N: int) -> ChainDiagram:
    ident = identity_map(c)
    return cosimplicial_from_cofaces(
        [c] * (N + 1), {(n, i): ident for n in range(1, N + 1)
                        for i in range(n + 1)})


def cosimplicial_replacement(F: ChainDiagram, N: int) -> ChainDiagram:
    """X^n = product over chains [n] -> G (identities allowed) of the
    value at the last object, with the usual cofaces."""
    G = F.base
    chains: list[list[tuple]] = [[(x,) for x in G.objects()]]
    for n in range(1, N + 1):
        nxt = []
        for c in chains[-1]:
            last = c[0] if n == 1 else G.tgt(c[-1])
            if n == 1:
                for m in G.morphisms():
                    if G.src(m) == c[0]:
                        nxt.append((c[0], m))
            else:
                for m in G.morphisms():
                    if G.src(m) == last:
                        nxt.append(c + (m,))
        chains.append(nxt)

    def last_obj(c):
        return c[0] if len(c) == 1 else G.tgt(c[-1])

    def face_chain(c, i):
        """c o delta^i for a chain of length n >= 1."""
        n = len(c) - 1
        if i == 0:
            if n == 1:
                return (G.tgt(c[1]),)
            return (G.tgt(c[1]),) + c[2:]
        if i == n:
            return c[:-1]
        return c[:i] + (G.comp(c[i + 1], c[i]),) + c[i + 2:]

    levels, index = [], []
    for n in range(N + 1):
        S, _, _ = direct_sum([F.value(last_obj(c)) for c in chains[n]])
        levels.append(S)
        index.append({c: i for i, c in enumerate(chains[n])})
    cofaces = {}
    for n in range(1, N + 1):
        dims_src = [F.value(last_obj(c)) for c in chains[n - 1]]
        for i in range(n + 1):
            comps = {}
            for k in levels[n - 1].degrees():
                blocks, r0 = [], 0
                for c in chains[n]:
                    src_c = face_chain(c, i)
                    ci = index[n - 1][src_c]
                    c0 = sum(dims_src[j].dim(k) for j in range(ci))
                    if i == n:
                        blk = F.action(c[-1]).component(k)
                    else:
                        blk = RationalMatrix.identity(
                            F.value(last_obj(c)).dim(k))
                    blocks.append((r0, c0, blk))
                    r0 += F.value(last_obj(c)).dim(k)
                comps[k] = block_matrix(levels[n].dim(k),
                                        levels[n - 1].dim(k), blocks)
            cofaces[(n, i)] = make_chain_map(levels[n - 1], levels[n], comps,
                                             check=False)
    return cosimplicial_from_cofaces(levels, cofaces)


@dataclass
class FatTotResult(HolimResult):
    truncation: int = 0
    stable_from: int = 0

    def betti_at(self, k: int) -> int:
        if k < self.stable_from:
            raise TruncationTooShallow(k, self.stable_from)
        return self.betti.get(k, 0)


def fat_tot(X: ChainDiagram) -> FatTotResult:
    """Fat totalization: the end over the truncated injective-simplex
    category of power(Delta^n, X^n).  The weight n |-> Delta^n is free
    on the top cells, so the end is the double complex with columns
    X^n (shifted down by n) and horizontal map the alternating sum of
    the cofaces.

    Homology is final in degrees >= max_n hi(X^n) - N + 1: level n only
    reaches total degree k when lo(X^n) - n <= k <= hi(X^n) - n."""
    C = X.base
    N = C.n_objects - 1
    if C != delta_plus_category(N):
        raise ShapeMismatch(
            "fat_tot expects a diagram over delta_plus_category(N)")
    columns = [X.value(n) for n in range(N + 1)]
    index = {r: m for m, r in enumerate(_delta_plus_records(N))}
    cofaces = {(n, i): X.action(index[(n - 1, n, tuple(
                   v for v in range(n + 1) if v != i))])
               for n in range(1, N + 1) for i in range(n + 1)}

    def horizontal(n, q):
        # product_total asks only for n < N
        if not columns[n].dim(q):
            return None
        out = RationalMatrix.zero(columns[n + 1].dim(q), columns[n].dim(q))
        for i in range(n + 2):
            out = out + cofaces[(n + 1, i)].component(q).scale(
                -1 if i % 2 else 1)
        return out.scale(-1 if (q - n - 1) % 2 else 1)

    T = chaincx.product_total(columns, horizontal)
    his = [c.hi for c in columns if not c.is_zero()]
    stable_from = (max(his) - N + 1) if his else T.lo
    return FatTotResult(T, betti_numbers(T),
                        f"fat totalization, truncation {N}",
                        truncation=N, stable_from=stable_from)


# --- homotopy-initial functors -----------------------------------------------------

@dataclass(frozen=True)
class InitialReport:
    per_object: tuple[bool, ...]
    passed: bool


def check_homotopy_initial(f: FunctorData) -> InitialReport:
    """Homology-level certificate: every comma nerve N(f over g') must be
    nonempty and homology-contractible."""
    if is_direct(f.source) is None or is_direct(f.target) is None:
        raise NotLoopFree("homotopy-initiality needs loop-free categories")
    verdicts = []
    for gp in f.target.objects():
        K = nerve(comma_under_functor(f, gp).cat)
        if K.is_empty():
            verdicts.append(False)
        else:
            verdicts.append(homology_contractible(K))
    return InitialReport(tuple(verdicts), all(verdicts))


@dataclass
class ChangeOfDiagramsReport:
    dims_over_source: dict[int, int]
    dims_over_target: dict[int, int]
    iso: bool

    @property
    def passed(self) -> bool:
        return self.iso and self.dims_over_source == self.dims_over_target


def change_of_diagrams_iso(f: FunctorData, F: ChainDiagram) \
        -> ChangeOfDiagramsReport:
    """Both sides of the change-of-diagrams lemma, E2 the end over the
    target weighted by N(f over -) and E3 the end over the source of f*F
    weighted by the nerve weight, with the basis-level map Theta: E2 -> E3
    between them; reports whether Theta is an isomorphism of complexes.

    Both weights are free, so both ends are `free_end` products.  The
    generators of N(f over -) are the chains c of G with the identity
    augmentation at f(x_k); Theta matches each with the chain c of E3 by
    an identity block, and is an isomorphism iff that matching is a
    bijection."""
    G, Gp = f.source, f.target
    if is_direct(G) is None or is_direct(Gp) is None:
        raise NotLoopFree("change of diagrams needs loop-free categories")
    basis = _levelwise_free(nerve_of_comma_under(f))
    E2 = free_end(F, basis)
    Frest = restrict(f, F)
    index, gens = _chain_generators(G)
    E3 = free_end(Frest, gens)
    commas = [comma_under_functor(f, gp) for gp in Gp.objects()]
    match = {}                                  # generator of E3 -> of E2
    for j, (k, gp, cell, _) in enumerate(basis):
        com = commas[gp]
        if k == 0:
            c, last = com.object_keys[cell][0], cell
        else:
            c = tuple(com.mor_key(m)[2] for m in cell)
            last = com.mor_key(cell[-1])[1]
        if Gp.is_identity(com.object_keys[last][1]):
            match[index[(k, c)]] = j
    comps = {}
    for n in E2.degrees():
        src, cols = _chain_offsets(F, basis, n)
        tgt, rows = _chain_offsets(Frest, gens, n)
        comps[n] = block_matrix(rows, cols, [
            (tgt[i], src[j], RationalMatrix.identity(
                Frest.value(gens[i][1]).dim(n + gens[i][0])))
            for i, j in match.items()])
    make_chain_map(E2, E3, comps, check=True)
    return ChangeOfDiagramsReport(
        {k: E3.dim(k) for k in E3.degrees() if E3.dim(k)},
        {k: E2.dim(k) for k in E2.degrees() if E2.dim(k)},
        len(match) == len(basis) == len(gens))


@dataclass
class ComparisonReport:
    quasi_iso: bool
    change_of_diagrams_ok: bool
    betti_full: dict[int, int]
    betti_restricted: dict[int, int]


def comparison_map(f: FunctorData, F: ChainDiagram):
    """The comparison holim over the target -> holim over the source of
    the restriction, on the Bousfield-Kan chain products: restriction
    along the nerve of f (`_chain_product_map` with identity components).
    Reports whether it is a quasi-isomorphism, and checks the
    change-of-diagrams lemma on the explicit weight N(f over -)."""
    G, Gp = f.source, f.target
    if is_direct(G) is None or is_direct(Gp) is None:
        raise NotLoopFree("comparison needs loop-free categories")
    if F.base != Gp:
        raise ShapeMismatch("diagram must live over the target of f")
    Frest = restrict(f, F)
    Pp, P = _chain_product(F), _chain_product(Frest)
    R = _chain_product_map(f, F, Frest, [identity_map(Frest.value(x))
                                         for x in G.objects()], Pp, P)
    report = ComparisonReport(
        is_quasi_iso(R), change_of_diagrams_iso(f, F).passed,
        betti_numbers(Pp), betti_numbers(P))
    return R, report


# --- homotopy invariance -----------------------------------------------------------

@dataclass(frozen=True)
class InvarianceReport:
    quasi_iso: bool
    betti_source: dict[int, int]
    betti_target: dict[int, int]


def holim_we_invariance(alpha: ChainDiagramMap) -> InvarianceReport:
    """A componentwise quasi-isomorphism F => G must induce a
    quasi-isomorphism bk_holim(F) -> bk_holim(G)."""
    G = alpha.source.base
    validate_chain_diagram_map(alpha)
    for x in G.objects():
        if not is_quasi_iso(alpha.component(x)):
            raise NotComponentwiseWE(
                f"component at object {x} is not a quasi-isomorphism")
    P, Q = _chain_product(alpha.source), _chain_product(alpha.target)
    ok = is_quasi_iso(_chain_product_map(
        fincat.identity_functor(G), alpha.source, alpha.target,
        [alpha.component(x) for x in G.objects()], P, Q))
    return InvarianceReport(ok, betti_numbers(P), betti_numbers(Q))
