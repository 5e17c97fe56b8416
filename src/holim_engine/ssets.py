"""Finite semisimplicial sets (nondegenerate cells and face maps only).

Nerves of loop-free categories, standard simplices, normalized chains,
and homology-level contractibility.
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
from typing import Mapping

from . import chaincx
from .chaincx import ChainComplex, ChainMap, make_chain_map
from .errors import (CompositionDomainError, EmptyComplex, NotLoopFree,
                     SimplicialError)
from .exactalg import block_matrix
from .fincat import (Comma, FinCategory, FunctorData, comma_over,
                     comma_under_functor, find_initial, is_direct)
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

def nerve_chains(C: FinCategory) -> tuple:
    """The nerve of a loop-free category as a free basis, in one pass:
    each k-chain c = (x_0 -> ... -> x_k) as (k, x_k, c, faces) in the
    order of `nerve(C).cells`, with faces[i] = (j, u), j the index of
    d_i c and u the identity of x_k for i < k, the last arrow for i = k
    (d_k alone moves x_k).  A 0-chain is its object, a k-chain the tuple
    of its arrows.  A k-chain extends its d_k by one arrow, so d_i c
    with i < k - 1 extends d_i d_k c by that arrow, and d_{k-1} c extends
    d_{k-1} d_k c by the composite of the last two."""
    if is_direct(C) is None:
        raise NotLoopFree("nerve requires a loop-free category")
    ident, tgt = C.identity, C.mor_tgt
    basis = [(0, x, x, ()) for x in C.objects()]
    ext: list[dict] = [{} for _ in basis]   # ext[j][m]: chain j, then m
    for m in C.non_identities():        # in morphism order
        x, y = C.src(m), tgt[m]
        ext[x][m] = len(basis)
        basis.append((1, y, (m,), ((y, ident[y]), (x, m))))
    p = C.n_objects
    while p < len(basis):       # breadth first, so level by level
        k, y, c, pf = basis[p]
        ext.append({})
        for m in ext[y]:        # the arrows out of y, in morphism order
            z = tgt[m]
            ext[p][m] = len(basis)
            d = ext[pf[-1][0]].get(u := C.comp(m, c[-1]))
            if d is None or tgt[u] != z:    # the table is not a category's
                raise CompositionDomainError(
                    f"{C.mor_labels[m]!r} o {C.mor_labels[c[-1]]!r} is not "
                    f"a non-identity arrow {C.obj_labels[C.src(c[-1])]!r} -> "
                    f"{C.obj_labels[z]!r}")
            fs = [(ext[g][m], ident[z]) for g, _ in pf[:-1]]
            basis.append((k + 1, z, c + (m,), (*fs, (d, ident[z]), (p, m))))
        p += 1
    return tuple(basis)


def fat_chains(C: FinCategory, N: int) -> tuple:
    """The chains [n] -> C with identities allowed, n <= N, as the free
    basis of the fat totalization's weight: each n-chain c as
    (n, x_n, c, faces) with faces as in `nerve_chains`, level by level,
    each level in the order of its (n-1)-chains and then of the arrows
    out of their last object.  A 0-chain is its object, an n-chain the
    tuple of its arrows.  C need not be loop-free; the depth N ends the
    enumeration.  An n-chain extends its d_n by one arrow m, so d_i c
    with i < n - 1 extends d_i d_n c by m, and d_{n-1} c extends
    d_{n-1} d_n c by the composite of the last two arrows."""
    ident, tgt = C.identity, C.mor_tgt
    out: list[list[int]] = [[] for _ in C.objects()]
    for m in C.morphisms():
        out[C.src(m)].append(m)
    basis = [(0, x, x, ()) for x in C.objects()] if N >= 0 else []
    ext: list[dict] = []        # ext[j][m]: chain j, then m
    for p, (k, y, c, pf) in enumerate(basis):   # grows while it runs
        if k == N:
            break
        ext.append({})
        for m in out[y]:
            z = tgt[m]
            ext[p][m] = len(basis)
            if k == 0:
                basis.append((1, z, (m,), ((z, ident[z]), (p, m))))
                continue
            d = ext[pf[-1][0]].get(u := C.comp(m, c[-1]))
            if d is None:               # the table is not a category's
                raise CompositionDomainError(
                    f"{C.mor_labels[m]!r} o {C.mor_labels[c[-1]]!r} does "
                    f"not start at {C.obj_labels[C.src(c[-1])]!r}")
            fs = [(ext[g][m], ident[z]) for g, _ in pf[:-1]]
            basis.append((k + 1, z, c + (m,), (*fs, (d, ident[z]), (p, m))))
    return tuple(basis)


def check_free_basis(C: FinCategory, basis) -> None:
    """Raise `SimplicialError` unless `basis` (`nerve_chains`,
    `fat_chains`, `_levelwise_free`) presents a semisimplicial diagram
    over C: the faces of every n-generator are n + 1 generators
    (g_i, u_i) of dimension n - 1 with u_i an arrow from the object of
    g_i to that of the generator, and for i < j face i of face j equals
    face j - 1 of face i as a pair (generator, composite arrow of C).
    With a functorial F this gives every coface identity of the product
    `holim.free_end` lays out over the basis."""
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


def _comma_mor_lookup(com: Comma) -> dict:
    return {com.mor_key(m): m for m in com.cat.morphisms()}


def _nerve_cell_map(com1: Comma, com2: Comma, obj_map: dict, K1, K2) -> SSetMap:
    """Cell map N(com1) -> N(com2) induced by an object translation and
    the identity on underlying morphisms."""
    look = _comma_mor_lookup(com2)

    def mor_image(m):
        i, j, u = com1.mor_key(m)
        return look[(obj_map[i], obj_map[j], u)]

    mapping = {}
    for c in K1.n_cells(0):
        mapping[(0, c)] = obj_map[c]
    for n in range(1, len(K1.cells)):
        for chain in K1.n_cells(n):
            mapping[(n, chain)] = tuple(mor_image(m) for m in chain)
    return SSetMap(K1, K2, mapping)


def nerve_weight(C: FinCategory) -> Weight:
    """gamma |-> N(C over gamma), acting by postcomposition on the
    augmentations; a projectively cofibrant resolution of the point."""
    if is_direct(C) is None:
        raise NotLoopFree("nerve weight requires a loop-free category")
    commas = [comma_over(C, g) for g in C.objects()]
    values = [nerve(com.cat) for com in commas]
    actions = {}
    for u in C.morphisms():
        s, t = C.src(u), C.tgt(u)
        com1, com2 = commas[s], commas[t]
        keys2 = {a: i for i, a in enumerate(com2.object_keys)}
        obj_map = {i: keys2[C.comp(u, a)]
                   for i, a in enumerate(com1.object_keys)}
        actions[u] = _nerve_cell_map(com1, com2, obj_map, values[s], values[t])
    return Weight(C, tuple(values), actions, provenance="nerve_weight")


def nerve_of_comma_under(f: FunctorData) -> Weight:
    """gamma' |-> N(f over gamma') as a weight over the target of f."""
    G, Gp = f.source, f.target
    if is_direct(G) is None or is_direct(Gp) is None:
        raise NotLoopFree("comma nerves require loop-free categories")
    return _nerve_of_commas(
        f, [comma_under_functor(f, gp) for gp in Gp.objects()])


def _nerve_of_commas(f: FunctorData, commas) -> Weight:
    """`nerve_of_comma_under(f)` from its commas f over gamma', one per
    object of the target of f, in object order."""
    Gp = f.target
    values = [nerve(com.cat) for com in commas]
    actions = {}
    for u in Gp.morphisms():
        s, t = Gp.src(u), Gp.tgt(u)
        com1, com2 = commas[s], commas[t]
        keys2 = {k: i for i, k in enumerate(com2.object_keys)}
        obj_map = {i: keys2[(x, Gp.comp(u, a))]
                   for i, (x, a) in enumerate(com1.object_keys)}
        actions[u] = _nerve_cell_map(com1, com2, obj_map, values[s], values[t])
    return Weight(Gp, tuple(values), actions,
                  provenance="nerve_of_comma_under")


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
    whitelisted: bool
    provenance: str
    passed: bool


def contractible_values(W: Weight) -> tuple[bool, ...]:
    """Per object: is the value nonempty and homology-contractible?"""
    return tuple(not W.value(x).is_empty() and
                 homology_contractible(W.value(x)) for x in W.base.objects())


def _same_weight(W: Weight, ref: Weight) -> bool:
    """Equal values and equal action mappings on every morphism."""
    if W.values != ref.values:
        return False
    for m in W.base.morphisms():
        a = W.actions.get(m)
        if a is None or a.mapping != ref.actions[m].mapping:
            return False
    return True


def _levelwise_free(W: Weight) -> Optional[tuple]:
    """The free basis of W, or None when some W_n is not a free diagram
    of sets.  The generators in dimension n are the n-cells outside the
    image of every non-identity action; W_n is free on them exactly
    when, through the actions W(u) for u: x -> y, they map bijectively
    onto every W(y)_n.

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
        basis.extend((n, x, c, tuple(preimage[(n - 1, x)][d] for d in
                                     W.value(x).faces[(n, c)]) if n else ())
                     for x, c in gens)
    return tuple(basis)


def check_point_resolution(W: Weight) -> PointResolutionReport:
    """Per-object homology contractibility plus structural cofibrancy.

    A weight is trusted as free when it is, cell for cell, the weight
    its provenance names: `nerve_weight(W.base)`, or the constant point
    over a base with an initial object (the functor represented there).
    A `nerve_of_comma_under` weight (f_! of the cofibrant nerve weight)
    is trusted when it is levelwise free, and then resolves the point
    exactly when every value is contractible."""
    per_object = contractible_values(W)
    if W.provenance == "nerve_weight":
        white = is_direct(W.base) is not None and \
            _same_weight(W, nerve_weight(W.base))
    elif W.provenance == "nerve_of_comma_under":
        white = _levelwise_free(W) is not None
    elif W.provenance == "constant_point":
        white = find_initial(W.base) is not None and \
            _same_weight(W, constant_point_weight(W.base))
    else:
        white = False
    return PointResolutionReport(per_object, white, W.provenance,
                                 passed=white and all(per_object))
