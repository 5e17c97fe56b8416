"""Independent checks of the paper's results that no command runs.

Validators of semisimplicial sets, weights and natural transformations,
the nerve and its chain basis built level by level through a face dict,
the block-by-block assembly of a free end, the cosimplicial
replacement built as levels and cofaces (block matrices, with every
coface identity checked by composing them) and its fat totalization as
the double complex of the levels (`chaincx.product_total`), simplicial
frames with their Reedy check, homotopy invariance of `bk_holim`,
Fubini for ends and the equalizer of two chain maps.  Tests import this
module; no CLI command, `verify` suite or engine module does.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import Mapping, Sequence

from . import chaincx, fincat
from .chaincx import (ChainComplex, ChainMap, betti_numbers, compose_maps,
                      direct_sum, hom_precompose, identity_map, is_quasi_iso,
                      make_chain_map, map_sub, power, subcomplex_from_kernels)
from .endkan import (ChainDiagram, ChainDiagramMap, EndChain, FinSetDiagram,
                     end_chain, end_induced_map)
from .errors import (DepthExceeded, DiagramError, NotComponentwiseWE,
                     NotLoopFree, SimplicialError)
from .exactalg import (RationalMatrix, block_matrix, canonical_row_basis,
                       rank, rank_kernel, solve_matrix)
from .fincat import FinCategory, is_direct, product, product_mor, product_obj
from .holim import (Cosimplicial, _chain_generators, _chain_offsets,
                    _chain_product_map, _delta_plus_records, _profiles,
                    cosimplicial_replacement, delta_plus_category, free_end)
from .records import record
from .ssets import (EMPTY_SSET, SemiSimplicialSet, SSetMap, Weight,
                    chains_of_map, identity_sset_map, normalized_chains,
                    standard_simplex)


# --- chain complexes ----------------------------------------------------------

def equalizer_kernel(f: ChainMap, g: ChainMap):
    """Degreewise kernel of f - g with the restricted differential."""
    h = map_sub(f, g)
    kernels = {}
    for k in h.source.degrees():
        if not h.source.dim(k):
            continue
        _, basis = rank_kernel(h.component(k))
        kernels[k] = RationalMatrix.from_columns(basis, h.source.dim(k))
    return subcomplex_from_kernels(h.source, kernels)


# --- semisimplicial sets and weights ------------------------------------------

def validate_sset(K: SemiSimplicialSet) -> SemiSimplicialSet:
    for n in range(1, len(K.cells)):
        lower = set(K.n_cells(n - 1))
        for c in K.n_cells(n):
            fs = K.faces.get((n, c))
            if fs is None or len(fs) != n + 1:
                raise SimplicialError(
                    f"cell {c!r} in dimension {n} lacks its {n + 1} faces")
            for f in fs:
                if f not in lower:
                    raise SimplicialError(
                        f"face of {c!r} is not a cell of dimension {n - 1}")
    for n in range(2, len(K.cells)):
        for c in K.n_cells(n):
            for j in range(1, n + 1):
                for i in range(j):
                    # d_i d_j = d_{j-1} d_i for i < j
                    a = K.face(n - 1, K.face(n, c, j), i)
                    b = K.face(n - 1, K.face(n, c, i), j - 1)
                    if a != b:
                        raise SimplicialError(
                            f"simplicial identity fails on {c!r} (i={i}, j={j})")
    return K


def nerve_by_levels(C: FinCategory) -> SemiSimplicialSet:
    """`ssets.nerve` built level by level: the k-chains extend the
    (k-1)-chains by every non-identity arrow out of their last object,
    and each face is spelled out as a chain of arrows."""
    if is_direct(C) is None:
        raise NotLoopFree("nerve requires a loop-free category")
    if C.n_objects == 0:
        return EMPTY_SSET
    nonid = C.non_identities()
    out: dict[int, list[int]] = {x: [] for x in C.objects()}
    for m in nonid:                     # in morphism order
        out[C.src(m)].append(m)
    cells: list[tuple] = [tuple(C.objects())]
    faces: dict = {}
    prev = [(m,) for m in nonid]
    if prev:
        cells.append(tuple(prev))
        for (m,) in prev:
            faces[(1, (m,))] = (C.tgt(m), C.src(m))
    while prev:
        k = len(prev[0]) + 1
        nxt = [chain + (m,) for chain in prev for m in out[C.tgt(chain[-1])]]
        if not nxt:
            break
        cells.append(tuple(nxt))
        for chain in nxt:
            fs = [chain[1:]]
            for i in range(1, k):
                comp = C.comp(chain[i], chain[i - 1])
                fs.append(chain[:i - 1] + (comp,) + chain[i + 1:])
            fs.append(chain[:-1])
            faces[(k, chain)] = tuple(fs)
        prev = nxt
    return SemiSimplicialSet(tuple(cells), faces)


def chain_generators_by_levels(G: FinCategory):
    """`holim._chain_generators` read off `nerve_by_levels(G)`: index
    its cells, then look each face up by its chain."""
    K = nerve_by_levels(G)
    index = {c: j for j, c in enumerate(c for cells in K.cells
                                        for c in cells)}
    basis = []
    for k, cells in enumerate(K.cells):
        for c in cells:
            x = c if k == 0 else G.tgt(c[-1])
            basis.append((k, x, c, tuple(
                (index[d], c[-1] if i == k else G.identity[x])
                for i, d in enumerate(K.faces.get((k, c), ())))))
    return index, tuple(basis)


def make_sset_map(source: SemiSimplicialSet, target: SemiSimplicialSet,
                  mapping) -> SSetMap:
    m = SSetMap(source, target, dict(mapping))
    for n, cs in enumerate(source.cells):
        tset = set(target.n_cells(n))
        for c in cs:
            if (n, c) not in m.mapping:
                raise SimplicialError(f"cell {c!r} (dim {n}) has no image")
            if m.mapping[(n, c)] not in tset:
                raise SimplicialError(
                    f"image of {c!r} is not a target cell of dimension {n}")
            if n:
                for i in range(n + 1):
                    if target.face(n, m.mapping[(n, c)], i) != \
                            m.mapping[(n - 1, source.face(n, c, i))]:
                        raise SimplicialError(
                            f"map does not commute with d_{i} on {c!r}")
    return m


def compose_sset_maps(g: SSetMap, f: SSetMap) -> SSetMap:
    return SSetMap(f.source, g.target,
                   {(n, c): g.mapping[(n, v)]
                    for (n, c), v in f.mapping.items()})


def boundary(n: int) -> tuple[SemiSimplicialSet, SSetMap]:
    """The boundary of Delta^n with its inclusion."""
    full = standard_simplex(n)
    cells = list(full.cells[:-1])
    if n == 0:
        B = EMPTY_SSET
    else:
        faces = {key: v for key, v in full.faces.items() if key[0] < n}
        B = SemiSimplicialSet(tuple(cells), faces)
    incl = SSetMap(B, full, {(k, c): c for k, cs in enumerate(B.cells)
                             for c in cs})
    return B, incl


def augmentation(K: SemiSimplicialSet) -> ChainMap:
    """Chains of K -> Q[0], each vertex to 1; the chain-level collapse
    K -> point."""
    N = normalized_chains(K)
    pt = chaincx.single(0, 1)
    if K.is_empty():
        return chaincx.zero_map(N, pt)
    row = RationalMatrix.from_rows([[1] * len(K.n_cells(0))])
    return make_chain_map(N, pt, {0: row}, check=True)


def euler_characteristic(K: SemiSimplicialSet) -> int:
    return sum((-1 if n % 2 else 1) * len(cs)
               for n, cs in enumerate(K.cells))


def validate_weight(W: Weight) -> Weight:
    C = W.base
    for m in C.morphisms():
        a = W.actions.get(m)
        if a is None:
            raise SimplicialError(f"weight lacks an action for morphism {m}")
        if a.source is not W.values[C.src(m)] and \
                a.source != W.values[C.src(m)]:
            raise SimplicialError(f"action source mismatch at morphism {m}")
        if a.target is not W.values[C.tgt(m)] and \
                a.target != W.values[C.tgt(m)]:
            raise SimplicialError(f"action target mismatch at morphism {m}")
        make_sset_map(a.source, a.target, a.mapping)
    for x in C.objects():
        if W.actions[C.identity[x]].mapping != \
                identity_sset_map(W.values[x]).mapping:
            raise SimplicialError(f"identity action at object {x} is not id")
    for (g, f), h in C.compose_table.items():
        comp = compose_sset_maps(W.actions[g], W.actions[f])
        if comp.mapping != W.actions[h].mapping:
            raise SimplicialError(
                f"weight action not functorial on ({g}, {f})")
    return W


# --- diagrams -----------------------------------------------------------------

def validate_chain_diagram_map(a: ChainDiagramMap) -> ChainDiagramMap:
    C = a.source.base
    if a.target.base != C:
        raise DiagramError("natural transformation needs one base")
    for m in C.morphisms():
        lhs = compose_maps(a.component(C.tgt(m)), a.source.action(m))
        rhs = compose_maps(a.target.action(m), a.component(C.src(m)))
        for k in a.source.value(C.src(m)).degrees():
            if lhs.component(k) != rhs.component(k):
                raise DiagramError(f"naturality fails at morphism {m}")
    return a


def hom_set_bifunctor(C: FinCategory) -> FinSetDiagram:
    """Hom(-, -) over product(opposite(C), C); elements are morphism ids."""
    P = C.bifunctor_base
    values = tuple(tuple(C.hom(x, y)) for x in C.objects()
                   for y in C.objects())
    actions = {}
    for m1 in C.morphisms():
        for m2 in C.morphisms():
            act = {a: C.comp(C.comp(m2, a), m1)
                   for a in C.hom(C.tgt(m1), C.src(m2))}
            actions[product_mor(P, m1, m2)] = act
    return FinSetDiagram(P, values, actions)


# --- simplicial frames --------------------------------------------------------

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
        unit = hom_precompose(augmentation(frame.simplices[n]), c)
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


@record(frozen=True)
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


# --- free ends -----------------------------------------------------------------

def free_end_by_blocks(F: ChainDiagram, basis) -> ChainComplex:
    """`holim.free_end` assembled block by block: d_n is one
    `block_matrix` of the generators' own differentials and their
    signed face blocks, an identity face as a scaled identity matrix."""
    G = F.base
    offsets, dims = _chain_offsets(_profiles(F), basis)

    def face_block(u, q, s):
        if G.is_identity(u):
            return RationalMatrix.identity(F.value(G.src(u)).dim(q)).scale(s)
        return F.action(u).component(q).scale(s)

    blocks: dict[int, list] = {}
    for j, (k, x, _, faces) in enumerate(basis):
        V = F.value(x)
        for q in V.degrees():
            src = offsets.get(q - k + 1)
            if not V.dim(q) or src is None:
                continue
            n, row = q - k + 1, offsets[q - k][j]
            sign = -1 if n % 2 == 0 else 1          # -(-1)^n
            out = blocks.setdefault(n, [])
            if j in src:
                out.append((row, src[j], V.d(q + 1)))
            for i, (g, u) in enumerate(faces):
                if g in src:
                    out.append((row, src[g],
                                face_block(u, q, sign if i % 2 == 0
                                           else -sign)))
    return chaincx.make_complex(dims, {
        n: block_matrix(dims.get(n - 1, 0), dims[n], b)
        for n, b in blocks.items()})


# --- cosimplicial objects -----------------------------------------------------

def delta_plus_vertices(C: FinCategory, m: int) -> tuple[int, ...]:
    """Recover the image tuple of a morphism of delta_plus_category."""
    return _delta_plus_records(C.n_objects - 1)[m][2]


@record(frozen=True)
class CosimplicialLevels:
    """A cosimplicial complex truncated at N = len(levels) - 1, as the
    levels X^0, ..., X^N and the cofaces cofaces[(n, i)] : X^{n-1} -> X^n
    for 0 <= i <= n.  The truncated injective-simplex category is
    presented by the cofaces subject to d^j d^i = d^i d^{j-1} for i < j,
    so these data are the whole functor; build one with
    `cosimplicial_from_cofaces`, which checks them.  `base`, `value` and
    `action` view it as a diagram over delta_plus_category(N)."""
    levels: tuple[ChainComplex, ...]
    cofaces: dict[tuple[int, int], ChainMap]

    @cached_property
    def base(self) -> FinCategory:
        return delta_plus_category(len(self.levels) - 1)

    def value(self, n: int) -> ChainComplex:
        return self.levels[n]

    def action(self, m: int) -> ChainMap:
        """The composite of cofaces along the morphism m of `base`."""
        C = self.base
        a, b = C.src(m), C.tgt(m)
        if a == b:
            return identity_map(self.levels[a])
        t = delta_plus_vertices(C, m)
        missing = sorted(set(range(b + 1)) - set(t))
        # delta^{i_1} o ... o delta^{i_r} with i_1 > ... > i_r
        out = self.cofaces[(a + 1, missing[0])]
        for n, i in enumerate(missing[1:], a + 2):
            out = compose_maps(self.cofaces[(n, i)], out)
        return out


def cosimplicial_from_cofaces(levels: Sequence[ChainComplex],
                              cofaces: Mapping[tuple[int, int], ChainMap]) \
        -> CosimplicialLevels:
    """The cosimplicial complex with the given levels and cofaces, after
    checking that every coface is present, maps X^{n-1} to X^n and
    satisfies the coface identities, by composing matrices."""
    N = len(levels) - 1
    if N < 0:
        raise DiagramError("a cosimplicial complex needs level 0")
    for n in range(1, N + 1):
        for i in range(n + 1):
            f = cofaces.get((n, i))
            if f is None:
                raise DiagramError(f"coface ({n}, {i}) is missing")
            if f.source != levels[n - 1] or f.target != levels[n]:
                raise DiagramError(
                    f"coface ({n}, {i}) does not map level {n - 1} "
                    f"to level {n}")
    for n in range(1, N):
        for j in range(n + 2):
            for i in range(j):
                lhs = compose_maps(cofaces[(n + 1, j)], cofaces[(n, i)])
                rhs = compose_maps(cofaces[(n + 1, i)], cofaces[(n, j - 1)])
                for k in levels[n - 1].degrees():
                    if lhs.component(k) != rhs.component(k):
                        raise DiagramError(
                            f"coface identity fails at (n={n}, i={i}, j={j})")
    return CosimplicialLevels(tuple(levels), dict(cofaces))


def replacement_chains(G: FinCategory, N: int):
    """The chains [n] -> G with identities allowed, n <= N, as lists per
    level n of tuples (x_0, m_1, ..., m_n), each level extending the one
    below by every arrow out of its last object, and the face map
    face_chain(c, i) = c o delta^i spelled out on such tuples."""
    def last_obj(c):
        return c[0] if len(c) == 1 else G.tgt(c[-1])

    chains: list[list[tuple]] = [[(x,) for x in G.objects()]]
    for n in range(1, N + 1):
        chains.append([c + (m,) for c in chains[-1] for m in G.morphisms()
                       if G.src(m) == last_obj(c)])

    def face_chain(c, i):
        n = len(c) - 1
        if i == 0:
            return (G.tgt(c[1]),) + c[2:]
        if i == n:
            return c[:-1]
        return c[:i] + (G.comp(c[i + 1], c[i]),) + c[i + 2:]

    return chains, face_chain


def fat_chains_by_levels(G: FinCategory, N: int) -> tuple:
    """`ssets.fat_chains` read off `replacement_chains`: index the chains,
    then look each face up by `face_chain`."""
    chains, face_chain = replacement_chains(G, N)
    flat = [c for level in chains for c in level]
    index = {c: j for j, c in enumerate(flat)}
    basis = []
    for c in flat:
        n = len(c) - 1
        x = G.tgt(c[-1]) if n else c[0]
        basis.append((n, x, c[1:] if n else x, tuple(
            (index[face_chain(c, i)], c[-1] if i == n else G.identity[x])
            for i in range(n + 1 if n else 0))))
    return tuple(basis)


def cosimplicial_levels(X: Cosimplicial) -> CosimplicialLevels:
    """`holim.Cosimplicial` built level by level: X^n the direct sum over
    the n-chains of F at the last object, and each coface a block matrix
    of identity blocks, F of the last arrow for the last coface, checked
    by `cosimplicial_from_cofaces`."""
    F, N = X.diagram, X.depth
    G = F.base
    chains, face_chain = replacement_chains(G, N)

    def value(c):
        return F.value(c[0] if len(c) == 1 else G.tgt(c[-1]))

    levels, index = [], []
    for n in range(N + 1):
        levels.append(direct_sum([value(c) for c in chains[n]])[0])
        index.append({c: i for i, c in enumerate(chains[n])})
    cofaces = {}
    for n in range(1, N + 1):
        # starts[k][j]: the column where chain j of X^{n-1} starts in degree k
        starts = {k: list(accumulate((value(c).dim(k) for c in chains[n - 1]),
                                     initial=0))
                  for k in levels[n - 1].degrees()}
        for i in range(n + 1):
            comps = {}
            for k in levels[n - 1].degrees():
                blocks, r0 = [], 0
                for c in chains[n]:
                    c0 = starts[k][index[n - 1][face_chain(c, i)]]
                    if i == n:
                        blk = F.action(c[-1]).component(k)
                    else:
                        blk = RationalMatrix.identity(value(c).dim(k))
                    blocks.append((r0, c0, blk))
                    r0 += value(c).dim(k)
                comps[k] = block_matrix(levels[n].dim(k),
                                        levels[n - 1].dim(k), blocks)
            cofaces[(n, i)] = make_chain_map(levels[n - 1], levels[n], comps,
                                             check=False)
    return cosimplicial_from_cofaces(levels, cofaces)


def fat_tot_by_columns(X: CosimplicialLevels) -> ChainComplex:
    """The complex of `holim.fat_tot` as the double complex of the levels:
    columns X^n shifted down by n, horizontal map the alternating sum of
    the cofaces, assembled by `chaincx.product_total`, which checks that
    the horizontal maps anticommute with the vertical ones and square to
    zero."""
    columns, cofaces = X.levels, X.cofaces

    def horizontal(n, q):
        # product_total asks only for n < N
        if not columns[n].dim(q):
            return None
        out = RationalMatrix.zero(columns[n + 1].dim(q), columns[n].dim(q))
        for i in range(n + 2):
            out = out + cofaces[(n + 1, i)].component(q).scale(
                -1 if i % 2 else 1)
        return out.scale(-1 if (q - n - 1) % 2 else 1)

    return chaincx.product_total(columns, horizontal)


def constant_cosimplicial(c: ChainComplex, N: int) -> Cosimplicial:
    """The constant cosimplicial complex at c: the replacement of the
    diagram c over the terminal category."""
    T = fincat.terminal_category()
    return cosimplicial_replacement(
        ChainDiagram(T, [c], {T.identity[0]: identity_map(c)}), N)


# --- Fubini -------------------------------------------------------------------

@record(frozen=True)
class FubiniReport:
    dims_joint: dict
    dims_first_inner: dict
    dims_second_inner: dict
    subspaces_equal: bool
    differentials_equal: bool

    @property
    def passed(self) -> bool:
        return (self.dims_joint == self.dims_first_inner ==
                self.dims_second_inner and self.subspaces_equal and
                self.differentials_equal)


def _canonical_subcomplex(ambient: ChainComplex, incl: ChainMap):
    """Canonical (RREF) basis of the embedded subcomplex and the
    differential rewritten in that basis."""
    bases, dims = {}, {}
    for k in ambient.degrees():
        m = incl.component(k)
        if not m.cols:
            continue
        rows = canonical_row_basis([m.column(j) for j in range(m.cols)],
                                   ambient.dim(k))
        if rows:
            bases[k] = RationalMatrix.from_columns(rows, ambient.dim(k))
            dims[k] = len(rows)
    diffs = {}
    for k in sorted(bases):
        if (k - 1) in bases:
            X = solve_matrix(bases[k - 1], ambient.d(k) * bases[k])
            if X is None:
                raise DiagramError("canonical basis is not a subcomplex")
            diffs[k] = X
        elif not (ambient.d(k) * bases[k]).is_zero():
            raise DiagramError("canonical basis is not a subcomplex")
    return dims, bases, diffs


def fubini_check(H: ChainDiagram, G1: FinCategory,
                 G2: FinCategory) -> FubiniReport:
    """Ends over a product base in both iterated orders and jointly;
    all three must be the identical subcomplex of the diagonal sum, with
    identical differentials in the canonical basis."""
    PP = product(G1, G2)
    P = H.base
    if P.product_of is None or P.product_of[1] != PP:
        raise DiagramError("fubini_check needs a diagram over "
                           "product(opposite(G1 x G2), G1 x G2)")
    n1, n2 = G1.n_objects, G2.n_objects
    nm1, nm2 = G1.n_morphisms, G2.n_morphisms

    def pp_obj(g, d):
        return g * n2 + d

    def pp_mor(u, v):
        return u * nm2 + v

    joint = end_chain(H)

    def inner_over_second(gm, gp):
        P2 = G2.bifunctor_base
        values = [H.value(product_obj(P, pp_obj(gm, i // n2),
                                      pp_obj(gp, i % n2)))
                  for i in range(P2.n_objects)]

        def action(m):
            m2m, m2p = divmod(m, nm2)
            return H.action(product_mor(
                P, pp_mor(G1.identity[gm], m2m), pp_mor(G1.identity[gp], m2p)))

        return end_chain(ChainDiagram(P2, values, action))

    def inner_over_first(dm, dp):
        P1 = G1.bifunctor_base
        values = [H.value(product_obj(P, pp_obj(i // n1, dm),
                                      pp_obj(i % n1, dp)))
                  for i in range(P1.n_objects)]

        def action(m):
            m1m, m1p = divmod(m, nm1)
            return H.action(product_mor(
                P, pp_mor(m1m, G2.identity[dm]), pp_mor(m1p, G2.identity[dp])))

        return end_chain(ChainDiagram(P1, values, action))

    def outer_end(Gout, Gin, inner, cross_action):
        """inner[(a, b)] for objects of Gout; returns the outer EndChain
        plus the per-object inner results on the diagonal."""
        Pout = Gout.bifunctor_base
        inner_all = {}
        for a in Gout.objects():
            for b in Gout.objects():
                inner_all[(a, b)] = inner(a, b)
        values = [inner_all[(i // Gout.n_objects,
                             i % Gout.n_objects)].complex
                  for i in range(Pout.n_objects)]

        def action(m):
            mm, mp = divmod(m, Gout.n_morphisms)
            srcpair = (Gout.tgt(mm), Gout.src(mp))
            tgtpair = (Gout.src(mm), Gout.tgt(mp))
            comps = [cross_action(mm, mp, d) for d in Gin.objects()]
            return end_induced_map(inner_all[srcpair], inner_all[tgtpair],
                                   comps)

        E = end_chain(ChainDiagram(Pout, values, action))
        return E, [inner_all[(g, g)] for g in Gout.objects()]

    E_a, inners_a = outer_end(
        G1, G2, inner_over_second,
        lambda mm, mp, d: H.action(product_mor(
            P, pp_mor(mm, G2.identity[d]), pp_mor(mp, G2.identity[d]))))
    E_b, inners_b = outer_end(
        G2, G1, inner_over_first,
        lambda mm, mp, g: H.action(product_mor(
            P, pp_mor(G1.identity[g], mm), pp_mor(G1.identity[g], mp))))

    ambient = joint.sum_complex
    # embed both iterated ends into the joint diagonal sum
    def total_inclusion(outer: EndChain, inners, major_first: bool):
        comps = {}
        for k in outer.complex.degrees():
            if not outer.complex.dim(k):
                continue
            n_rows = ambient.dim(k)
            out_m = outer.inclusion.component(k)
            # row offset of the (g, d) diagonal block in the joint sum
            def joint_off(g, d):
                off = 0
                for gg in range(n1):
                    for dd in range(n2):
                        if (gg, dd) == (g, d):
                            return off
                        off += H.value(product_obj(
                            P, pp_obj(gg, dd), pp_obj(gg, dd))).dim(k)
                raise AssertionError

            blocks, col_off = [], 0
            for pos, inn in enumerate(inners):
                m = inn.inclusion.component(k)
                # rows of m are blocks over the inner base objects
                inner_off = 0
                for d2 in range(len(inn.projections)):
                    blk_dim = inn.projections[d2].target.dim(k)
                    g, d = (pos, d2) if major_first else (d2, pos)
                    blocks.append((joint_off(g, d), col_off, m.row_block(
                        inner_off, inner_off + blk_dim)))
                    inner_off += blk_dim
                col_off += m.cols
            # compose: outer coords -> inner coords -> joint ambient
            big = block_matrix(n_rows, out_m.rows, blocks)
            comps[k] = big * out_m
        return ChainMap(outer.complex, ambient, comps)

    incl_a = total_inclusion(E_a, inners_a, major_first=True)
    incl_b = total_inclusion(E_b, inners_b, major_first=False)
    dims_j, bas_j, dif_j = _canonical_subcomplex(ambient, joint.inclusion)
    dims_a, bas_a, dif_a = _canonical_subcomplex(ambient, incl_a)
    dims_b, bas_b, dif_b = _canonical_subcomplex(ambient, incl_b)
    sub_eq = bas_j == bas_a == bas_b
    dif_eq = dif_j == dif_a == dif_b
    return FubiniReport(dims_j, dims_a, dims_b, sub_eq, dif_eq)


# --- homotopy invariance ------------------------------------------------------

@record(frozen=True)
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
    chains = _chain_generators(G)
    P, Q = free_end(alpha.source, chains[1]), free_end(alpha.target, chains[1])
    ok = is_quasi_iso(_chain_product_map(
        fincat.identity_functor(G), alpha.source, alpha.target,
        [alpha.component(x) for x in G.objects()], P, Q, chains, chains))
    return InvarianceReport(ok, betti_numbers(P), betti_numbers(Q))
