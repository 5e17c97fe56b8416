"""Seeded random instances for property checks.

Every generator takes an explicit `random.Random`; nothing here touches
global state, so suites are reproducible from a single seed.

Functoriality by construction: diagrams over free categories get
arbitrary generator actions, diagrams over posets are sums of
corepresented summands (c if o <= g else 0), which are functorial for
any choice of summands.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from . import chaincx, endkan, fincat
from .chaincx import ChainComplex, ChainMap, hom_complex, hom_decode, \
    make_chain_map, make_complex
from .endkan import ChainDiagram, FinSetDiagram, constant_finset_diagram, \
    representable_finset_diagram
from .exactalg import RationalMatrix, block_matrix, rank_kernel
from .fincat import (FinCategory, FunctorData, arrow_category, chain_poset,
                     cospan_category, discrete_category, from_poset,
                     terminal_category, validate_functor, _presented)


# --- categories ---------------------------------------------------------------

def free_category(obj_labels, arrows):
    """Free category on an acyclic multigraph, keeping the path of each
    morphism.  Returns (category, paths) with paths[m] the tuple of
    arrow indices (empty for identities)."""
    C, reps = _presented(obj_labels, arrows)
    return C, ((),) * len(obj_labels) + reps


def random_free_category(rng: random.Random, max_objects: int = 4,
                         max_morphisms: int = 12):
    """(category, paths, generator morphism ids); morphism count
    includes identities."""
    while True:
        n = rng.randint(1, max_objects)
        labels = [chr(ord("a") + i) for i in range(n)]
        n_arrows = rng.randint(0, min(4, 2 * n))
        arrows = []
        for j in range(n_arrows):
            if n < 2:
                break
            s = rng.randint(0, n - 2)
            t = rng.randint(s + 1, n - 1)
            arrows.append((f"f{j}", s, t))
        C, paths = free_category(labels, arrows)
        if C.n_morphisms <= max_morphisms:
            gen_ids = tuple(m for m in C.morphisms() if len(paths[m]) == 1)
            return C, paths, gen_ids


def random_poset(rng: random.Random, max_objects: int = 4,
                 with_bottom: bool = False) -> FinCategory:
    n = rng.randint(1, max_objects)
    drawn = [[j for j in range(i + 1, n) if rng.random() < 0.45]
             for i in range(n)]
    # transitive closure: every pair has i < j, so closing from the
    # highest index down reads only sets already closed
    above: list[set[int]] = [set() for _ in range(n)]
    for i in reversed(range(n)):
        for j in drawn[i]:
            above[i] |= above[j] | {j}
    rel = {(i, j) for i in range(n) for j in above[i]}
    if with_bottom:
        rel = {(a + 1, b + 1) for a, b in rel} | \
            {(0, k) for k in range(1, n + 1)}
        n += 1
    return from_poset([chr(ord("a") + i) for i in range(n)], rel)


def random_loopfree_category(rng: random.Random, max_objects: int = 4,
                             max_morphisms: int = 12) -> FinCategory:
    kind = rng.choice(["named", "poset", "free", "free"])
    if kind == "named":
        return rng.choice([terminal_category, arrow_category,
                           cospan_category, lambda: chain_poset(2),
                           lambda: discrete_category(["x", "y"])])()
    if kind == "poset":
        return random_poset(rng, max_objects)
    C, _, _ = random_free_category(rng, max_objects, max_morphisms)
    return C


# --- finite-set diagrams --------------------------------------------------------

def _relabel(F: FinSetDiagram, prefix: str) -> FinSetDiagram:
    values = tuple(tuple(f"{prefix}{x}_{i}" for i in range(len(F.values[x])))
                   for x in F.base.objects())
    enc = [{e: values[x][i] for i, e in enumerate(F.values[x])}
           for x in F.base.objects()]
    C = F.base
    actions = {m: {enc[C.src(m)][e]: enc[C.tgt(m)][v]
                   for e, v in F.actions[m].items()}
               for m in C.morphisms()}
    return FinSetDiagram(C, values, actions)


def _coproduct_diagrams(parts: list[FinSetDiagram]) -> FinSetDiagram:
    C = parts[0].base
    values = tuple(tuple((i, e) for i, p in enumerate(parts)
                         for e in p.values[x])
                   for x in C.objects())
    actions = {}
    for m in C.morphisms():
        actions[m] = {(i, e): (i, p.actions[m][e])
                      for i, p in enumerate(parts)
                      for e in p.values[C.src(m)]}
    return FinSetDiagram(C, values, actions)


def random_finset_diagram(rng: random.Random, C: FinCategory,
                          paths=None, gen_ids=None,
                          max_size: int = 3) -> FinSetDiagram:
    """A functorial random diagram on C with value sizes <= max_size."""
    if paths is not None:
        for _ in range(40):
            sizes = [rng.randint(0, max_size) for _ in C.objects()]
            values = tuple(tuple(f"{C.obj_labels[x]}{i}"
                                 for i in range(sizes[x]))
                           for x in C.objects())
            gen_actions = {}
            ok = True
            for g in gen_ids:
                s, t = C.src(g), C.tgt(g)
                if values[s] and not values[t]:
                    ok = False
                    break
                gen_actions[g] = {e: rng.choice(values[t])
                                  for e in values[s]}
            if not ok:
                continue
            actions = {}
            for m in C.morphisms():
                act = {e: e for e in values[C.src(m)]}
                for a in paths[m]:
                    g = gen_ids[a]
                    act = {e: gen_actions[g][act[e]] for e in act}
                actions[m] = act
            return endkan.validate_finset_diagram(
                FinSetDiagram(C, values, actions))
        return constant_finset_diagram(C, ("z0",))
    # sums of representables and constants stay functorial on any base
    for _ in range(40):
        parts = []
        for _ in range(rng.randint(0, 2)):
            parts.append(representable_finset_diagram(
                C, rng.randrange(C.n_objects)))
        if rng.random() < 0.5:
            parts.append(constant_finset_diagram(C, ("c",)))
        if not parts:
            return constant_finset_diagram(C, ())
        F = _coproduct_diagrams(parts)
        if all(len(v) <= max_size for v in F.values):
            return _relabel(F, "e")
    return constant_finset_diagram(C, ("z0",))


def random_finset_pair(rng: random.Random, cap: int = 30000):
    """(C, F, G) sized so that brute-force natural-transformation
    enumeration stays below `cap` candidates."""
    while True:
        if rng.random() < 0.5:
            C, paths, gen_ids = random_free_category(rng)
            F = random_finset_diagram(rng, C, paths, gen_ids)
            G = random_finset_diagram(rng, C, paths, gen_ids)
        else:
            C = random_loopfree_category(rng)
            F = random_finset_diagram(rng, C)
            G = random_finset_diagram(rng, C)
        total = 1
        for x in C.objects():
            total *= max(1, len(G.values[x])) ** len(F.values[x])
            if total > cap:
                break
        if total <= cap:
            return C, F, G


# --- chain complexes ------------------------------------------------------------

def random_chain_complex(rng: random.Random, max_dim: int = 3,
                         max_width: int = 3, lo_min: int = -1,
                         hi_max: int = 2) -> ChainComplex:
    width = rng.randint(1, max_width)
    lo = rng.randint(lo_min, hi_max - width + 1)
    dims = {lo + i: rng.randint(0, max_dim) for i in range(width)}
    diff = {}
    prev = None  # d_{k+1}, to be killed by d_k
    for k in range(lo + width - 1, lo, -1):
        rows, cols = dims[k - 1], dims[k]
        if rows == 0 or cols == 0:
            prev = None
            continue
        if prev is None or prev.cols == 0:
            m = RationalMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(cols)]
                 for _ in range(rows)])
        else:
            from .exactalg import quotient_basis
            proj, _ = quotient_basis(cols, [prev.column(j)
                                            for j in range(prev.cols)])
            m = RationalMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(proj.rows)]
                 for _ in range(rows)]) * proj
        diff[k] = m
        prev = m
    return make_complex(dims, diff)


def random_chain_map(rng: random.Random, A: ChainComplex,
                     B: ChainComplex) -> ChainMap:
    """A random point of the space of chain maps A -> B (a random
    integer combination of the degree-0 cycles of Hom(A, B))."""
    H = hom_complex(A, B)
    if H.dim(0) == 0:
        return chaincx.zero_map(A, B)
    _, basis = rank_kernel(H.d(0))
    if not basis:
        return chaincx.zero_map(A, B)
    vec = [Fraction(0)] * H.dim(0)
    for v in basis:
        c = rng.randint(-2, 2)
        if c:
            vec = [x + c * y for x, y in zip(vec, v)]
    mats = hom_decode(A, B, 0, vec)
    return make_chain_map(A, B, mats, check=True)


def random_cospan_diagram(rng: random.Random, max_dim: int = 3,
                          max_width: int = 3, lo_min: int = -1,
                          hi_max: int = 2) -> ChainDiagram:
    """A random diagram over the cospan a -> c <- b."""
    C = cospan_category()
    A = random_chain_complex(rng, max_dim, max_width, lo_min, hi_max)
    B = random_chain_complex(rng, max_dim, max_width, lo_min, hi_max)
    Z = random_chain_complex(rng, max_dim, max_width, lo_min, hi_max)
    p = random_chain_map(rng, A, Z)
    q = random_chain_map(rng, B, Z)
    values = [A, B, Z]
    m_p = C.hom(0, 2)[0]
    m_q = C.hom(1, 2)[0]
    actions = {C.identity[0]: chaincx.identity_map(A),
               C.identity[1]: chaincx.identity_map(B),
               C.identity[2]: chaincx.identity_map(Z),
               m_p: p, m_q: q}
    return ChainDiagram(C, values, actions)


def random_poset_chain_diagram(rng: random.Random, P: FinCategory,
                               max_dim: int = 2, max_width: int = 2,
                               n_summands: Optional[int] = None) -> ChainDiagram:
    """Sum of corepresented summands over a poset: the o-th summand
    contributes c_o at every object above o, with inclusions as actions."""
    if n_summands is None:
        n_summands = rng.randint(1, 3)
    summands = [(rng.randrange(P.n_objects),
                 random_chain_complex(rng, max_dim, max_width))
                for _ in range(n_summands)]
    leq = {(o, x) for o in P.objects() for x in P.objects()
           if P.hom(o, x)}
    actives = [[i for i, (o, _) in enumerate(summands) if (o, x) in leq]
               for x in P.objects()]
    # one sum per distinct set of summands; a lone summand is its own sum
    sums = {}
    for act in map(tuple, actives):
        if act not in sums:
            parts = [summands[i][1] for i in act]
            sums[act] = parts[0] if len(parts) == 1 else \
                chaincx.sum_with_layout(parts)[0]
    values = [sums[tuple(act)] for act in actives]

    def action(m):
        x, y = P.src(m), P.tgt(m)
        comps = {}
        for k in values[x].degrees():
            if not values[x].dim(k):
                continue
            # summand i goes identically from its block in F(x) to its
            # block in F(y)
            blocks, c0 = [], 0
            for i in actives[x]:
                r0 = sum(summands[j][1].dim(k)
                         for j in actives[y][:actives[y].index(i)])
                d = summands[i][1].dim(k)
                blocks.append((r0, c0, RationalMatrix.identity(d)))
                c0 += d
            comps[k] = block_matrix(values[y].dim(k), values[x].dim(k),
                                    blocks)
        return make_chain_map(values[x], values[y], comps, check=False)

    return ChainDiagram(P, values, action)


def cone_complex(deg: int, r: int = 1) -> ChainComplex:
    return make_complex({deg: r, deg - 1: r},
                        {deg: RationalMatrix.identity(r)})


def fattened_quasi_iso(rng: random.Random, G: ChainDiagram):
    """(F, alpha: F => G) with each component a quasi-isomorphism:
    F(g) = G(g) + an acyclic cone, alpha the projection."""
    P = G.base
    cones = [cone_complex(rng.randint(0, 2), rng.randint(1, 2))
             for _ in P.objects()]
    values = []
    sums = []
    for x in P.objects():
        S, incls, projs = chaincx.direct_sum([G.value(x), cones[x]])
        values.append(S)
        sums.append((incls, projs))

    def action(m):
        x, y = P.src(m), P.tgt(m)
        if P.is_identity(m):
            return chaincx.identity_map(values[x])
        incl_y = sums[y][0][0]
        proj_x = sums[x][1][0]
        return chaincx.compose_maps(
            incl_y, chaincx.compose_maps(G.action(m), proj_x))

    F = ChainDiagram(P, values, action)
    alpha = endkan.ChainDiagramMap(
        F, G, {x: sums[x][1][0] for x in P.objects()})
    return F, alpha


def random_functor_between_loopfree(rng: random.Random):
    """A random functor into a poset target (unique homs make any
    hom-compatible object map a functor)."""
    Gp = random_poset(rng)
    kind = rng.choice(["identity", "poset", "free"])
    if kind == "identity":
        C = random_loopfree_category(rng)
        return fincat.identity_functor(C)
    if kind == "poset":
        G = random_poset(rng)
    else:
        G, _, _ = random_free_category(rng)
    for _ in range(200):
        omap = tuple(rng.randrange(Gp.n_objects) for _ in G.objects())
        if all(Gp.hom(omap[G.src(m)], omap[G.tgt(m)])
               for m in G.morphisms()):
            mmap = tuple(Gp.hom(omap[G.src(m)], omap[G.tgt(m)])[0]
                         for m in G.morphisms())
            return validate_functor(FunctorData(G, Gp, omap, mmap))
    omap = tuple(0 for _ in G.objects())
    mmap = tuple(Gp.identity[0] for _ in G.morphisms())
    return validate_functor(FunctorData(G, Gp, omap, mmap))
