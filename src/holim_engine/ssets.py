"""Finite semisimplicial sets (nondegenerate cells and face maps only).

Nerves of loop-free categories, standard simplices, normalized chains,
and homology-level contractibility.  One breadth-first enumerator,
`_chains`, lists the chains of a set of arrows with their faces and
checks the laws those faces rest on: over the non-identity arrows it
is the nerve's basis (`nerve_chains`), over every arrow to a depth N
the fat basis (`fat_chains`).  One loop, `_comma_nerves`, makes the
weight of the nerves of a family of commas: the nerve weight
N(C over -) is the comma-nerve weight N(f over -) at f = id_C, and both
move objects by the index maps of one `fincat._comma_family`.  One
certificate, `check_point_resolution`, trusts a weight as a resolution
of the point from its structure, never its label: it is free on
`_levelwise_free`, whose faces `check_free_basis` compares pair by
pair, and the weight that basis presents has contractible values.
Degeneracies are never materialized: every construction used here
(nerves, postcomposition actions, functor-induced cell maps) preserves
nondegeneracy, and normalized chains only see nondegenerate cells.

Nerve conventions: a k-cell is a chain of k composable non-identity
morphisms; d_0 drops the first arrow, d_k the last, inner d_i composes
at the i-th object.  On 1-cells this gives d(f) = tgt(f) - src(f).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, groupby
from operator import itemgetter
from typing import Mapping, Optional

from . import chaincx
from .chaincx import ChainComplex, ChainMap, make_chain_map
from .errors import (AssociativityViolation, CompositionDomainError,
                     EmptyComplex, IdentityViolation, NotLoopFree,
                     SimplicialError)
from .exactalg import block_matrix
from .fincat import (FinCategory, FunctorData, _comma_family,
                     identity_functor, is_direct)
from .records import record


@record(frozen=True)
class SemiSimplicialSet:
    cells: tuple[tuple, ...]                 # cells[n] = ordered n-cells
    faces: Mapping[tuple[int, object], tuple]  # (n, cell) -> (d_0, ..., d_n)

    @property
    def top_dim(self) -> int:
        return len(self.cells) - 1

    def n_cells(self, n: int) -> tuple:
        if 0 <= n < len(self.cells):
            return self.cells[n]
        return ()

    def is_empty(self) -> bool:
        return not any(self.cells)

    def face(self, n: int, cell, i: int):
        return self.faces[(n, cell)][i]

    @cached_property
    def _index(self) -> dict:
        out = {}
        for n, cs in enumerate(self.cells):
            for j, c in enumerate(cs):
                out[(n, c)] = j
        return out

    def cell_index(self, n: int, cell) -> int:
        return self._index[(n, cell)]

    def total_cells(self) -> int:
        return sum(len(cs) for cs in self.cells)


EMPTY_SSET = SemiSimplicialSet((), {})


@record(frozen=True)
class SSetMap:
    source: SemiSimplicialSet
    target: SemiSimplicialSet
    mapping: Mapping[tuple[int, object], object]   # (n, cell) -> cell

    def __call__(self, n: int, cell):
        return self.mapping[(n, cell)]


def identity_sset_map(K: SemiSimplicialSet) -> SSetMap:
    return SSetMap(K, K, {(n, c): c for n, cs in enumerate(K.cells)
                          for c in cs})


# --- standard simplices -------------------------------------------------------

def standard_simplex(n: int) -> SemiSimplicialSet:
    """Delta^n: k-cells are the (k+1)-subsets of {0..n}; d_i drops the
    i-th vertex."""
    if n < 0:
        raise SimplicialError("negative dimension")
    cells = [tuple(combinations(range(n + 1), k + 1)) for k in range(n + 1)]
    faces = {}
    for k in range(1, n + 1):
        for c in cells[k]:
            faces[(k, c)] = tuple(c[:i] + c[i + 1:] for i in range(k + 1))
    return SemiSimplicialSet(tuple(cells), faces)


def point() -> SemiSimplicialSet:
    return standard_simplex(0)


# --- nerves -------------------------------------------------------------------

def _chains(C: FinCategory, arrows, N: int) -> tuple:
    """Every chain of `arrows` with at most N arrows, in one breadth-first
    pass: each n-chain c = (x_0 -> ... -> x_n) as (n, x_n, c, faces),
    with faces[i] = (j, u), j the index of d_i c and u the identity of
    x_n for i < n, the last arrow for i = n (d_n alone moves x_n).  A
    0-chain is its object, an n-chain the tuple of its arrows.  The
    1-chains come in the order of `arrows`; each longer level extends
    the chains below it, in order, by the arrows out of their last
    object.  An n-chain extends its d_n by one arrow m, so d_i c with
    i < n - 1 extends d_i d_n c by m, and d_{n-1} c extends
    d_{n-1} d_n c by the composite of the last two arrows, which must
    be one of `arrows` ending where m does.  It checks the laws those
    faces rest on once each: identities are endomorphisms and two-sided
    units, and each chain's last three arrows associate (the others are
    its d_n's), so by induction every face is the chain's own face and
    d_i d_j = d_{j-1} d_i holds as `check_free_basis` would check it."""
    ident, src, tgt, lab = C.identity, C.mor_src, C.mor_tgt, C.mor_labels
    table = C.compose_table
    for x in C.objects():
        if not (0 <= (i := ident[x]) < len(src) and src[i] == tgt[i] == x):
            raise IdentityViolation(f"identity of {C.obj_labels[x]!r} is "
                                    f"not an endomorphism of it")
    for m in C.morphisms():
        if table.get((ident[tgt[m]], m)) != m:
            raise IdentityViolation(f"id o {lab[m]!r} != {lab[m]!r}")
        if table.get((m, ident[src[m]])) != m:
            raise IdentityViolation(f"{lab[m]!r} o id != {lab[m]!r}")
    basis = [(0, x, x, ()) for x in C.objects()]
    ext: list[dict] = [{} for _ in basis]   # ext[j][m]: chain j, then m
    for m in arrows if N > 0 else ():
        x, y = src[m], tgt[m]
        ext[x][m] = len(basis)
        basis.append((1, y, (m,), ((y, ident[y]), (x, m))))
    p = C.n_objects
    while p < len(basis) and basis[p][0] < N:   # level by level
        k, y, c, pf = basis[p]
        ext.append({})
        for m in ext[y]:        # the arrows out of y, in their order
            z = tgt[m]
            ext[p][m] = len(basis)
            d = ext[pf[-1][0]].get(u := C.comp(m, c[-1]))
            if d is None or tgt[u] != z:    # the table is not a category's
                raise CompositionDomainError(
                    f"{lab[m]!r} o {lab[c[-1]]!r} is not a non-identity arrow "
                    f"{C.obj_labels[src[c[-1]]]!r} -> {C.obj_labels[z]!r}")
            fs = [(ext[g][m], ident[z]) for g, _ in pf[:-1]]
            # d_{k-1} d_k = d_{k-1} d_{k-1}: the last three arrows associate
            if k > 1 and basis[d][3][-2] != basis[fs[-1][0]][3][-2]:
                raise AssociativityViolation(
                    f"({lab[m]!r} o {lab[c[-1]]!r}) o {lab[c[-2]]!r} != "
                    f"{lab[m]!r} o ({lab[c[-1]]!r} o {lab[c[-2]]!r})")
            basis.append((k + 1, z, c + (m,), (*fs, (d, ident[z]), (p, m))))
        p += 1
    return tuple(basis)


def nerve_chains(C: FinCategory) -> tuple:
    """The nerve of a loop-free category as a free basis: the `_chains`
    of its non-identity arrows, in the order of `nerve(C).cells`
    (lexicographic in the arrows).  Such a chain visits each object at
    most once, so it has fewer than `C.n_objects` arrows."""
    if is_direct(C) is None:
        raise NotLoopFree("nerve requires a loop-free category")
    return _chains(C, C.non_identities(), C.n_objects)


def fat_chains(C: FinCategory, N: int) -> tuple:
    """The chains [n] -> C with identities allowed, n <= N, as the free
    basis of the fat totalization's weight: the `_chains` of every
    arrow, level by level, each lexicographic in (x_0, arrows).  C need
    not be loop-free; the depth N ends the enumeration."""
    return _chains(C, sorted(C.morphisms(), key=C.src), N) if N >= 0 else ()


def check_free_basis(C: FinCategory, basis) -> None:
    """Raise `SimplicialError` unless `basis` presents a semisimplicial
    diagram over C: the faces of every n-generator are n + 1 generators
    (g_i, u_i) of dimension n - 1 with u_i an arrow from the object of
    g_i to that of the generator, and for i < j face i of face j equals
    face j - 1 of face i as a pair (generator, composite arrow of C).
    With a functorial F this gives every coface identity of the product
    `holim.free_end` lays out over the basis.  Production runs it only
    on weights' bases (`_point_resolution`); `_chains` checks its own."""
    comp = C.compose_table.__getitem__
    for n, x, cell, faces in basis:
        if len(faces) != (n + 1 if n else 0) or any(
                not 0 <= g < len(basis) or basis[g][0] != n - 1 or
                C.src(u) != basis[g][1] or C.tgt(u) != x for g, u in faces):
            raise SimplicialError(f"generator {cell!r} has misplaced faces")
        for j in range(1, n + 1 if n > 1 else 0):   # faces of faces
            gj, uj = faces[j]
            below = basis[gj][3]
            for i in range(j):
                gi, ui = faces[i]
                a, v = below[i]
                b, w = basis[gi][3][j - 1]
                # faces precede their generators, so their arrows compose
                if a != b or comp((uj, v)) != comp((ui, w)):
                    raise SimplicialError(
                        f"d_{i} d_{j} != d_{j - 1} d_{i} on generator "
                        f"{cell!r}")


def nerve(C: FinCategory) -> SemiSimplicialSet:
    """Nerve of a loop-free category; k-cells are chains of k composable
    non-identity morphisms, 0-cells are the objects: a view of
    `nerve_chains(C)`."""
    basis = nerve_chains(C)
    return SemiSimplicialSet(
        tuple(tuple(c for _, _, c, _ in level)
              for _, level in groupby(basis, itemgetter(0))),
        {(k, c): tuple(basis[j][2] for j, _ in fs)
         for k, _, c, fs in basis if k})


@record(frozen=True)
class Weight:
    """A diagram of semisimplicial sets over a finite category, used as
    the exponent of the Bousfield-Kan end."""
    base: FinCategory
    values: tuple[SemiSimplicialSet, ...]
    actions: Mapping[int, SSetMap]
    provenance: str = "custom"

    def value(self, obj: int) -> SemiSimplicialSet:
        return self.values[obj]

    def action(self, mor: int) -> SSetMap:
        return self.actions[mor]


def _comma_nerves(C: FinCategory, family, provenance: str) -> Weight:
    """The weight over C of the nerves of a comma family over C, as
    `fincat._comma_family` returns it: u: s -> t sends object i of
    commas[s] to object moves[u][i] of commas[t], and a morphism (i, j,
    m) to the one on the images of i and j over the same m."""
    commas, moves = family
    values = [nerve(com.cat) for com in commas]
    looks = [{com.mor_key(m): m for m in com.cat.morphisms()}
             for com in commas]
    actions = {}
    for u, obj in enumerate(moves):
        s, t = C.src(u), C.tgt(u)
        com, K = commas[s], values[s]
        mor = [looks[t][(obj[i], obj[j], m)]
               for i, j, m in map(com.mor_key, com.cat.morphisms())]
        mapping = {(0, c): obj[c] for c in K.n_cells(0)}
        mapping.update(((n, c), tuple(mor[m] for m in c))
                       for n in range(1, len(K.cells)) for c in K.cells[n])
        actions[u] = SSetMap(K, values[t], mapping)
    return Weight(C, tuple(values), actions, provenance=provenance)


def nerve_weight(C: FinCategory) -> Weight:
    """gamma |-> N(C over gamma), acting by postcomposition on the
    augmentations; a projectively cofibrant resolution of the point.  It
    is the comma-nerve weight of the identity functor, whose commas are
    the slices."""
    if is_direct(C) is None:
        raise NotLoopFree("nerve weight requires a loop-free category")
    return _comma_nerves(C, _comma_family(identity_functor(C), True),
                         "nerve_weight")


def nerve_of_comma_under(f: FunctorData) -> Weight:
    """gamma' |-> N(f over gamma') as a weight over the target of f."""
    G, Gp = f.source, f.target
    if is_direct(G) is None or is_direct(Gp) is None:
        raise NotLoopFree("comma nerves require loop-free categories")
    return _comma_nerves(Gp, _comma_family(f, True), "nerve_of_comma_under")


def constant_point_weight(C: FinCategory) -> Weight:
    pt = point()
    ident = identity_sset_map(pt)
    return Weight(C, tuple(pt for _ in C.objects()),
                  {m: ident for m in C.morphisms()},
                  provenance="constant_point")


# --- chains -------------------------------------------------------------------

def normalized_chains(K: SemiSimplicialSet) -> ChainComplex:
    """Free Q-span of the nondegenerate cells with d = sum (-1)^i d_i."""
    if K.is_empty():
        return chaincx.ZERO_COMPLEX
    dims = {n: len(cs) for n, cs in enumerate(K.cells)}
    diff = {}
    for n in range(1, len(K.cells)):
        diff[n] = block_matrix(dims[n - 1], dims[n], [
            (K.cell_index(n - 1, fc), j, -1 if i % 2 else 1)
            for j, c in enumerate(K.n_cells(n))
            for i, fc in enumerate(K.faces[(n, c)])])
    return chaincx.make_complex(dims, diff)


def chains_of_map(m: SSetMap) -> ChainMap:
    A, B = normalized_chains(m.source), normalized_chains(m.target)
    comps = {}
    for n, cs in enumerate(m.source.cells):
        if not cs:
            continue
        comps[n] = block_matrix(len(m.target.n_cells(n)), len(cs), [
            (m.target.cell_index(n, m.mapping[(n, c)]), j, 1)
            for j, c in enumerate(cs)])
    return make_chain_map(A, B, comps, check=False)


def homology_contractible(K: SemiSimplicialSet) -> bool:
    """True iff H_0 = Q and H_k = 0 for k > 0."""
    if K.is_empty():
        raise EmptyComplex("the empty semisimplicial set is never contractible")
    return chaincx.betti_numbers(normalized_chains(K)) == {0: 1}


# --- point-resolution checking -------------------------------------------------

@record(frozen=True)
class PointResolutionReport:
    per_object: tuple[bool, ...]
    free: bool
    provenance: str
    passed: bool


def _levelwise_free(W: Weight) -> Optional[tuple]:
    """The free basis of W, or None when some W_n is not a free diagram
    of sets or some generator's faces are missing or name no cell of its
    value (a malformed value is refused, not raised on).  The generators
    in dimension n are the n-cells outside the image of every
    non-identity action; W_n is free on them exactly when, through the
    actions W(u) for u: x -> y, they map bijectively onto every W(y)_n.

    The basis lists each generator as (n, x, cell, faces), where
    faces[i] = (j, u) is the unique generator j and morphism u with
    W(u)(generator j) = d_i cell."""
    C = W.base
    if any(u not in W.actions for u in C.morphisms()):
        return None
    top = max((len(W.value(x).cells) for x in C.objects()), default=0)
    basis, preimage = [], {}
    for n in range(top):
        hit = {(C.tgt(u), W.actions[u].mapping.get((n, c)))
               for u in C.non_identities()
               for c in W.value(C.src(u)).n_cells(n)}
        gens = [(x, c) for x in C.objects() for c in W.value(x).n_cells(n)
                if (x, c) not in hit]
        first = len(basis)
        for y in C.objects():
            pairs = [(W.actions[u].mapping.get((n, c)), (first + j, u))
                     for j, (x, c) in enumerate(gens) for u in C.hom(x, y)]
            cells = W.value(y).n_cells(n)
            preimage[(n, y)] = dict(pairs)
            if len(pairs) != len(cells) or \
                    set(preimage[(n, y)]) != set(cells):
                return None
        for x, c in gens:
            faces = tuple(preimage[(n - 1, x)].get(d) for d in
                          W.value(x).faces.get((n, c), (None,))) if n else ()
            if None in faces:
                return None
            basis.append((n, x, c, faces))
    return tuple(basis)


def _presented_value(C: FinCategory, basis, y: int) -> SemiSimplicialSet:
    """The value at y of the weight a free basis presents: its n-cells
    are the pairs (j, u) of an n-generator j at x and an arrow u: x -> y,
    and d_i (j, u) = (g_i, u o u_i) for (g_i, u_i) = faces[i] of j."""
    cells = [[] for _ in range(basis[-1][0] + 1 if basis else 0)]
    faces = {}
    for j, (n, x, _, fs) in enumerate(basis):
        for u in C.hom(x, y):
            cells[n].append((j, u))
            faces[(n, (j, u))] = tuple((g, C.comp(u, v)) for g, v in fs)
    return SemiSimplicialSet(tuple(map(tuple, cells)), faces)


def _point_resolution(W: Weight) -> tuple[PointResolutionReport,
                                          Optional[tuple]]:
    """`check_point_resolution` and the basis it certifies, or None."""
    C, basis = W.base, _levelwise_free(W)
    try:
        if basis is not None:
            check_free_basis(C, basis)
    except SimplicialError:
        basis = None
    free = basis is not None
    per_object = tuple(free and chaincx.betti_numbers(normalized_chains(
        _presented_value(C, basis, y))) == {0: 1} for y in C.objects())
    return PointResolutionReport(per_object, free, W.provenance,
                                 passed=free and all(per_object)), basis


def check_point_resolution(W: Weight) -> PointResolutionReport:
    """One rule, whatever the provenance of W (only copied into the
    report): W is free on `_levelwise_free(W)`, that basis presents a
    semisimplicial diagram (`check_free_basis`; a failure is a refusal,
    not a raise), and its value at each y, `per_object[y]`, has Betti
    numbers {0: 1}.  Over Q, W is then a resolution of the point."""
    return _point_resolution(W)[0]
