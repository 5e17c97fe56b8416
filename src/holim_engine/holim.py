"""The homotopy-limit engine.

The weighted end of a diagram F with weight W is the end of (x, y) |->
Hom(chains of W(x), F(y)) over product(opposite(G), G).  Every weight
the engine accepts is free, so by Yoneda its end is the product over
the generating cells of F at their representing objects: `free_end`
builds that product from a free basis and one profile of F per object
(`_profiles`).  Both homotopy-limit formulas of the paper are such
ends.  With the nerve weight g |-> N(G over g) the end is the
Bousfield-Kan homotopy limit; its generators are the chains of G,
listed with their faces in one pass over G (`ssets.nerve_chains`), and
every map between two such products is a block map along their
generators (`_product_map`).  `bk_holim`, `comparison_map` and
`change_of_diagrams_iso` all take their ends this way; the pullback's
oracle, `mapping_path_complex`, is a `chaincx._total` instead.  The fat
totalization of the cosimplicial replacement of F, truncated at N, is
the end over the chains [n] -> G with identities allowed and n <= N
(`ssets.fat_chains`); both bases come from the one chain enumerator,
`ssets._chains`, over the non-identity arrows or over every arrow to
depth N.  `fat_tot` checks F and that basis
(`ssets.check_free_basis`) and takes `free_end` over it.  The levels
and cofaces of the replacement, and the truncated injective-simplex
category they are a diagram over, are the oracle's
(`oracle.cosimplicial_levels`).  The equalizer end (`weighted_end`) is
the independent check of these products; no command runs it, but it
stays here because `bench/spans.py` wraps it by this module's name.  It
imports `endkan` when called, so no homotopy-limit command loads
`endkan`.

Quasi-isomorphism is only ever asserted along an explicitly constructed
comparison map; equal Betti numbers alone are reported as consistent,
never as quasi-isomorphic.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd
from typing import TYPE_CHECKING, Optional, Sequence

from . import chaincx
from .chaincx import (ChainComplex, ChainMap, betti_numbers, compose_maps,
                      direct_sum, hom_complex, hom_postcompose,
                      hom_precompose, identity_map, is_quasi_iso,
                      make_chain_map)
from .diagrams import ChainDiagram, restrict, validate_chain_diagram
from .errors import (DiagramError, NotLoopFree, ShapeMismatch,
                     TruncationTooShallow, TypeMismatch, WeightRejected)
from .exactalg import RationalMatrix, _normal, block_matrix
from .fincat import (FinCategory, FunctorData, comma_under_functor,
                     cospan_category, identities_terminal_in_slices,
                     is_direct, validate_category)
from .records import record
from .ssets import (Weight, _levelwise_free, _nerve_of_commas, chains_of_map,
                    check_free_basis, check_point_resolution, fat_chains,
                    homology_contractible, nerve, nerve_chains,
                    normalized_chains)

if TYPE_CHECKING:
    from .endkan import EndChain


@record
class HolimResult:
    complex: ChainComplex
    betti: dict[int, int]
    provenance: str


# --- weighted ends and the Bousfield-Kan formula ---------------------------------

def weighted_end(F: ChainDiagram, W: Weight,
                 generators: Optional[Sequence[int]] = None) -> EndChain:
    """The end over product(opposite(G), G) of
    (x, y) |-> Hom(chains of W(x), F(y))."""
    from .endkan import bifunctor_diagram, end_chain
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
    g |-> N(G over g), free on the chains of G (`ssets.nerve_chains`).  Its
    values are contractible because id_g is terminal in each G over g,
    which `fincat.identities_terminal_in_slices` reads off the
    composition table without building the slices.  An explicit weight
    must pass `check_point_resolution`, and is then free on the basis
    `ssets._levelwise_free` reads off it."""
    G = F.base
    if is_direct(G) is None:
        raise NotLoopFree("bk_holim requires a loop-free base")
    if W is None:
        provenance = "nerve_weight"
        passed = identities_terminal_in_slices(G)
    else:
        if W.base != G:
            raise ShapeMismatch("weight and diagram have different bases")
        provenance = W.provenance
        passed = check_point_resolution(W).passed
    if not passed:
        raise WeightRejected(
            f"weight (provenance {provenance!r}) is not a certified "
            f"cofibrant resolution of the point")
    cx = free_end(F, nerve_chains(G) if W is None else _levelwise_free(W))
    return HolimResult(cx, betti_numbers(cx),
                       f"bousfield-kan end, {provenance} weight")


def free_end(F: ChainDiagram, basis) -> ChainComplex:
    """The end of F weighted by a free weight, as the product over the
    generators (k, x, cell, faces) of its basis (`ssets._levelwise_free`)
    of F(x) shifted down by k.

    Total degree n is the sum of F(x)_{n+k}, in basis order.  Face i of
    a generator is W(u_i) of the generator g_i, where (g_i, u_i) =
    faces[i], so by naturality, for phi of degree n,
      (delta phi)(gen) = d_F phi(gen) - (-1)^n sum_i (-1)^i F(u_i) phi(g_i).
    Each generator contributes only in the degrees where F(x) is
    nonzero.  Each stored row of d_n is written once: the generator's
    own row of d_F, then per face a signed 1 for an identity u_i or the
    signed row of F(u_i), summed over the lcm of their denominators."""
    G = F.base
    profile = _profiles(F)
    offsets, dims = _chain_offsets(profile, basis)
    identities = set(G.identity)

    @lru_cache(maxsize=None)
    def rows_of(u):             # {q: stored rows of F(u)_q}, once per u
        a = F.action(u)
        return {q: a.component(q)._r for q, _, _ in profile[G.tgt(u)]}

    diff: dict[int, dict] = {}
    for j, (k, x, _, faces) in enumerate(basis):
        # (g_i, rows of F(u_i) or None for an identity, (-1)^i)
        acts = [(g, None if u in identities else rows_of(u),
                 -1 if i % 2 else 1) for i, (g, u) in enumerate(faces)]
        # the block F(x)_q in total degree n - 1 = q - k, hit by d_n
        for q, dq, own in profile[x]:
            src = offsets.get(q - k + 1)
            if src is None:
                continue
            n, r0 = q - k + 1, offsets[q - k][j]
            sign = -1 if n % 2 == 0 else 1          # -(-1)^n
            # (stored rows or None for an identity, column, sign)
            parts = [(own, src[j], 1)] if j in src else []
            # the faces are (k-1)-generators, read in internal degree q
            for g, a, s in acts:
                c0 = src.get(g)
                if c0 is not None:
                    parts.append((None if a is None else a[q], c0, s * sign))
            out = diff.setdefault(n, {})
            for r in range(dq):
                L, acc = 1, {}
                get = acc.get
                for rows, c0, s in parts:
                    if rows is None:
                        acc[c0 + r] = get(c0 + r, 0) + s * L
                        continue
                    got = rows.get(r)
                    if got is None:
                        continue
                    den, row = got
                    if L % den:             # widen the sum to lcm(L, den)
                        m = den // gcd(L, den)
                        L *= m
                        acc = {c: v * m for c, v in acc.items()}
                        get = acc.get
                    f = s * (L // den)
                    for c, v in row.items():
                        acc[c0 + c] = get(c0 + c, 0) + f * v
                if 0 in acc.values():
                    acc = {c: v for c, v in acc.items() if v}
                if acc:
                    out[r0 + r] = _normal(L, acc)
    return chaincx.make_complex(dims, {
        n: RationalMatrix._of(dims.get(n - 1, 0), dims[n], rows)
        for n, rows in diff.items()})


def _chain_generators(G: FinCategory):
    """The chains of G (`ssets.nerve_chains`) and the index of each."""
    basis = nerve_chains(G)
    return {c: j for j, (_, _, c, _) in enumerate(basis)}, basis


def _profiles(F: ChainDiagram) -> list:
    """Per object x of the base, the nonzero degrees of F(x) as
    (q, dim F(x)_q, stored rows of d_F: F(x)_{q+1} -> F(x)_q)."""
    return [[(q, V.dim(q), V.d(q + 1)._r) for q in V.degrees() if V.dim(q)]
            for V in map(F.value, F.base.objects())]


def _chain_offsets(profile, basis):
    """The layout of the product over the generators (k, x, ...) of F(x)
    shifted down by k, given the `_profiles` of F, in one pass over them:
    offsets[n][j] is where the block F(x)_{n+k} of generator j starts in
    total degree n, for the generators whose block there is nonzero, and
    dims[n] is the dimension of degree n."""
    offsets: dict[int, dict[int, int]] = {}
    dims: dict[int, int] = {}
    for j, (k, x, _, _) in enumerate(basis):
        for q, dq, _ in profile[x]:
            n = q - k
            acc = dims.get(n, 0)
            offsets.setdefault(n, {})[j] = acc
            dims[n] = acc + dq
    return offsets, dims


def _product_map(P: ChainComplex, Q: ChainComplex, FP: ChainDiagram,
                 FQ: ChainDiagram, P_gens, Q_gens, pairs, block) -> ChainMap:
    """The checked block map from the product P of FP over the generators
    P_gens to the product Q of FQ over Q_gens (`free_end`).  For each
    (i, j) in pairs, with (k, x) the dimension and object of generator
    i of Q, the block from generator j of P to generator i in total
    degree q - k is block(x, q), from FP_q at the object of generator j
    to FQ(x)_q; every other block is zero."""
    profile = _profiles(FQ)
    src, _ = _chain_offsets(_profiles(FP), P_gens)
    tgt, _ = _chain_offsets(profile, Q_gens)
    blocks: dict[int, list] = {}
    for i, j in pairs:
        k, x = Q_gens[i][:2]
        for q, _, _ in profile[x]:
            if j in src.get(q - k, ()):
                blocks.setdefault(q - k, []).append(
                    (tgt[q - k][i], src[q - k][j], block(x, q)))
    return make_chain_map(P, Q, {
        n: block_matrix(Q.dim(n), P.dim(n), b) for n, b in blocks.items()},
        check=True)


def _chain_product_map(f: FunctorData, Fp: ChainDiagram, F: ChainDiagram,
                       alpha: Sequence[ChainMap], P: ChainComplex,
                       Q: ChainComplex, src_chains, tgt_chains) -> ChainMap:
    """The map from the chain product P of Fp over the target of f to the
    chain product Q of F over its source, whose chains are src_chains and
    tgt_chains (`_chain_generators`): the block of the chain c, with
    last object x, is alpha[x] : Fp(f(x)) -> F(x) in internal degree
    n + k applied to the block of the chain f(c), and zero when f sends
    an arrow of c to an identity (f(c) is degenerate)."""
    Gp = f.target
    (src_index, src_gens), (_, tgt_gens) = src_chains, tgt_chains
    pairs = []
    for i, (k, _, c, _) in enumerate(tgt_gens):
        fc = f.object_map[c] if k == 0 else \
            tuple(f.morphism_map[m] for m in c)
        if not k or not any(Gp.is_identity(m) for m in fc):
            pairs.append((i, src_index[fc]))
    return _product_map(P, Q, Fp, F, src_gens, tgt_gens, pairs,
                        lambda x, q: alpha[x].component(q))


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


def cospan_legs(D: ChainDiagram) -> tuple[ChainMap, ChainMap]:
    """The legs p, q of a diagram over a cospan, as `cospan_diagram`
    takes them: the leg out of the object listed first is p."""
    C = D.base
    nonid = C.non_identities()
    if C.n_objects != 3 or len(nonid) != 2:
        raise TypeMismatch("hopullback expects a diagram over a cospan")
    f, g = sorted(nonid, key=lambda m: C.src(m))
    if C.tgt(f) != C.tgt(g) or C.src(f) == C.src(g):
        raise TypeMismatch("hopullback expects a diagram over a cospan")
    return D.action(f), D.action(g)


def mapping_path_complex(p: ChainMap, q: ChainMap) -> ChainComplex:
    """The independent homotopy-pullback oracle: degree k part
    A_k + B_k + C_{k+1}, d(a, b, c) = (da, db, p(a) - q(b) - dc)."""
    A, B, C = p.source, q.source, p.target
    return chaincx._total([(A, 0), (B, 0), (C, 1)], lambda k: [
        (0, 0, A.d(k)), (1, 1, B.d(k)), (2, 0, p.component(k)),
        (2, 1, q.component(k).scale(-1)), (2, 2, C.d(k + 1).scale(-1))])[0]


@record(frozen=True)
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


# --- cosimplicial objects and fat totalization -----------------------------------

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
    interned by its image vertex tuple.  Its table grows about 4x per
    level, so only the view of a `Cosimplicial` as a diagram over it
    (`Cosimplicial.base`, `oracle.cosimplicial_levels`) builds it;
    `fat_tot` does not."""
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


@record(frozen=True)
class Cosimplicial:
    """The cosimplicial replacement of a chain diagram F over G, truncated
    at `depth` N: level n is the product, over the chains [n] -> G with
    identities allowed (`ssets.fat_chains`), of the value at the last
    object, and coface i of an n-chain c reads the block of d_i c, through
    F of its last arrow for i = n.  `base` and `value` give the levels as
    a diagram over delta_plus_category(N); its cofaces are the oracle's
    (`oracle.cosimplicial_levels`)."""
    diagram: ChainDiagram
    depth: int

    @cached_property
    def base(self) -> FinCategory:
        return delta_plus_category(self.depth)

    def value(self, n: int) -> ChainComplex:
        """The level X^n, summed over the n-chains in basis order."""
        F = self.diagram
        return direct_sum([F.value(x) for k, x, _, _ in
                           fat_chains(F.base, n) if k == n])[0]


def cosimplicial_replacement(F: ChainDiagram, N: int) -> Cosimplicial:
    """The replacement of F truncated at N >= 0."""
    if N < 0:
        raise DiagramError("a cosimplicial complex needs level 0")
    return Cosimplicial(F, N)


@record
class FatTotResult(HolimResult):
    truncation: int = 0
    stable_from: int = 0

    def betti_at(self, k: int) -> int:
        if k < self.stable_from:
            raise TruncationTooShallow(k, self.stable_from)
        return self.betti.get(k, 0)


def fat_tot(X: Cosimplicial) -> FatTotResult:
    """Fat totalization: the end over the truncated injective-simplex
    category of power(Delta^n, X^n).  The weight n |-> Delta^n is free on
    the top cells, and the chains of the replacement are free on
    themselves, so the end is `free_end` over the chains [n] -> G with
    n <= N (`ssets.fat_chains`): the double complex with columns X^n
    shifted down by n and horizontal map the alternating sum of the
    cofaces, laid out degree by degree in basis order.  F is checked to
    be a functor and the chains to satisfy the simplicial identities
    (`ssets.check_free_basis`); together they give every coface
    identity.

    Homology is final in degrees >= max_x hi(F(x)) - N + 1: level n only
    reaches total degree k when lo(X^n) - n <= k <= hi(X^n) - n."""
    if not isinstance(X, Cosimplicial):
        raise ShapeMismatch("fat_tot expects a Cosimplicial complex")
    F, N = validate_chain_diagram(X.diagram), X.depth
    basis = fat_chains(F.base, N)
    check_free_basis(F.base, basis)
    T = free_end(F, basis)
    his = [V.hi for V in map(F.value, F.base.objects()) if not V.is_zero()]
    stable_from = (max(his) - N + 1) if his else T.lo
    return FatTotResult(T, betti_numbers(T),
                        f"fat totalization, truncation {N}",
                        truncation=N, stable_from=stable_from)


# --- homotopy-initial functors -----------------------------------------------------

@record(frozen=True)
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


@record
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
    Frest = restrict(f, F)
    chains = _chain_generators(G)
    return _change_of_diagrams(f, F, Frest, chains,
                               free_end(Frest, chains[1]))


def _change_of_diagrams(f: FunctorData, F: ChainDiagram,
                        Frest: ChainDiagram, chains, E3: ChainComplex) \
        -> ChangeOfDiagramsReport:
    """`change_of_diagrams_iso` given f*F, the chains of G
    (`_chain_generators`) and E3, the chain product over them."""
    commas = [comma_under_functor(f, gp) for gp in f.target.objects()]
    basis = _levelwise_free(_nerve_of_commas(f, commas))
    E2 = free_end(F, basis)
    index, gens = chains
    match = {}                                  # generator of E3 -> of E2
    for j, (k, gp, cell, _) in enumerate(basis):
        com = commas[gp]
        if k == 0:
            c, last = com.object_keys[cell][0], cell
        else:
            c = tuple(com.mor_key(m)[2] for m in cell)
            last = com.mor_key(cell[-1])[1]
        if f.target.is_identity(com.object_keys[last][1]):
            match[index[c]] = j
    _product_map(E2, E3, F, Frest, basis, gens, match.items(),
                 lambda x, q: RationalMatrix.identity(Frest.value(x).dim(q)))
    return ChangeOfDiagramsReport(
        {k: E3.dim(k) for k in E3.degrees() if E3.dim(k)},
        {k: E2.dim(k) for k in E2.degrees() if E2.dim(k)},
        len(match) == len(basis) == len(gens))


@record
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
    chains_p, chains = _chain_generators(Gp), _chain_generators(G)
    Pp, P = free_end(F, chains_p[1]), free_end(Frest, chains[1])
    R = _chain_product_map(f, F, Frest, [identity_map(Frest.value(x))
                                         for x in G.objects()], Pp, P,
                           chains_p, chains)
    report = ComparisonReport(
        is_quasi_iso(R), _change_of_diagrams(f, F, Frest, chains, P).passed,
        betti_numbers(Pp), betti_numbers(P))
    return R, report
