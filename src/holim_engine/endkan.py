"""Limits, colimits, ends, coends and Kan extensions.

The diagram records they take (`FinSetDiagram`, `ChainDiagram`, their
validators and `restrict`) are defined in `diagrams`, so that parsing a
workspace or taking a homotopy limit does not load this module; they
are imported back here and resolve under this module's name too.

On finite sets, a limit and an end are one staged search,
`_equalizing_tuples`: a limit equalizes F(m) against the identity, an
end pushes against pulls.  A colimit and a coend are one class
collector, `_classes`, on `fincat.UnionFind`.  The end formula for Ran
and the co-Yoneda check take the end of `hom_bifunctor` of a
representable.  `nat_trans_bruteforce` keeps a search of its own: it is
the independent oracle for ends of Hom bifunctors.

Ends are computed by the equalizer formula: the equalizer of the two
maps  prod_g H(g, g) => prod_f H(src f, tgt f)  given by pushing along
f in the covariant slot and pulling along f in the contravariant slot.
Equalizing over a generating set of morphisms suffices: for a genuine
bifunctor the condition for a composite follows from the conditions for
its factors by the interchange law.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Optional, Sequence

from .chaincx import (ChainComplex, ChainMap, compose_maps, direct_sum,
                      subcomplex_from_kernels)
from .diagrams import (ChainDiagram, FinSetDiagram, restrict,  # noqa: F401
                       validate_chain_diagram, validate_finset_diagram)
from .errors import DiagramError
from .exactalg import RationalMatrix, block_diag, block_matrix, rank_kernel
from .fincat import (Comma, FinCategory, FunctorData, UnionFind, comma_from,
                     comma_under_functor, generating_morphisms, opposite,
                     product_mor, product_obj)
from .records import record


# --- finite-set diagrams ------------------------------------------------------

def constant_finset_diagram(C: FinCategory, elements) -> FinSetDiagram:
    elements = tuple(elements)
    act = {e: e for e in elements}
    return FinSetDiagram(C, tuple(elements for _ in C.objects()),
                         {m: dict(act) for m in C.morphisms()})


def representable_finset_diagram(C: FinCategory, o: int) -> FinSetDiagram:
    """Hom(o, -) with postcomposition actions."""
    values = tuple(tuple(C.hom(o, x)) for x in C.objects())
    actions = {m: {a: C.comp(m, a) for a in values[C.src(m)]}
               for m in C.morphisms()}
    return FinSetDiagram(C, values, actions)


@record(frozen=True)
class LimitResult:
    elements: tuple[tuple, ...]   # tuples indexed by object order

    def project(self, obj: int, element: tuple):
        return element[obj]


@record(frozen=True)
class ColimitResult:
    classes: tuple[tuple, ...]    # each class: (obj, elem) in item order
    injections: Mapping[tuple, int]

    def inject(self, obj: int, elem) -> int:
        return self.injections[(obj, elem)]


def _equalizing_tuples(candidates, equations) -> tuple[tuple, ...]:
    """Tuples (c_0, ..., c_n-1), c_i in candidates[i], with a[c_s] == b[c_t]
    for every equation (s, a, t, b), in lexicographic candidate order.  The
    search is staged: an equation is checked once c_max(s, t) is placed."""
    n = len(candidates)
    by_stage: list[list] = [[] for _ in range(n)]
    for eq in equations:
        by_stage[max(eq[0], eq[2])].append(eq)
    out: list[tuple] = []
    partial: list = []

    def extend(stage: int):
        if stage == n:
            out.append(tuple(partial))
            return
        checks = by_stage[stage]
        # a plain loop: a per-check lambda in all() made ends 2.3x slower
        for c in candidates[stage]:
            partial.append(c)
            for s, a, t, b in checks:
                if a[partial[s]] != b[partial[t]]:
                    break
            else:
                extend(stage + 1)
            partial.pop()

    extend(0)
    return tuple(out)


def finset_limit(F: FinSetDiagram) -> LimitResult:
    """Tuples in the product satisfying every action equation,
    enumerated in lexicographic (object index, element index) order."""
    C = F.base
    equations = [(C.src(m), F.actions[m], C.tgt(m),
                  {e: e for e in F.values[C.tgt(m)]})
                 for m in generating_morphisms(C)]
    return LimitResult(_equalizing_tuples(F.values, equations))


def _classes(items, pairs) -> ColimitResult:
    """`items` quotiented by the equivalence that `pairs` of items
    generate: each class in item order, classes by their first item."""
    order = {it: i for i, it in enumerate(items)}
    uf = UnionFind(range(len(items)))
    for a, b in pairs:
        uf.union(order[a], order[b])
    roots: dict[int, list] = {}
    for i, it in enumerate(items):
        roots.setdefault(uf.find(i), []).append(it)
    classes = tuple(tuple(mem) for mem in roots.values())
    injections = {it: ci for ci, mem in enumerate(classes) for it in mem}
    return ColimitResult(classes, injections)


def finset_colimit(F: FinSetDiagram) -> ColimitResult:
    """Disjoint union quotiented by the congruence generated by the
    action identifications."""
    C = F.base
    return _classes(
        [(x, e) for x in C.objects() for e in F.values[x]],
        [((C.src(m), e), (C.tgt(m), F.actions[m][e]))
         for m in generating_morphisms(C) for e in F.values[C.src(m)]])


# --- finite-set ends and coends -----------------------------------------------

def _split_product_base(P: FinCategory) -> FinCategory:
    if P.product_of is None:
        raise DiagramError("end requires a diagram over a product category")
    left, right = P.product_of
    # the cached `right.bifunctor_base` is that product by construction;
    # any other base is compared with a fresh opposite
    if vars(right).get("bifunctor_base") is not P and opposite(right) != left:
        raise DiagramError(
            "end requires the base product(opposite(G), G)")
    return right


def hom_bifunctor(F: FinSetDiagram, G: FinSetDiagram) -> FinSetDiagram:
    """Hom(F-, G-) over product(opposite(base), base); an element of
    H(x, y) is the tuple of images (in F.value(x) order) of a function
    F(x) -> G(y)."""
    if F.base != G.base:
        raise DiagramError("Hom bifunctor needs diagrams over one base")
    C = F.base
    P = C.bifunctor_base
    values = tuple(tuple(itertools.product(G.values[y],
                                           repeat=len(F.values[x])))
                   for x in C.objects() for y in C.objects())
    f_index = [{e: i for i, e in enumerate(F.values[x])}
               for x in C.objects()]
    actions = {}
    for m1 in C.morphisms():        # contravariant slot (morphism of op)
        x_src, a1 = C.tgt(m1), F.actions[m1]
        # t o F(m1) reads t at these positions
        pos = [f_index[x_src][a1[e]] for e in F.values[C.src(m1)]]
        for m2 in C.morphisms():    # covariant slot
            a2 = G.actions[m2]
            actions[product_mor(P, m1, m2)] = {
                t: tuple(a2[t[i]] for i in pos)
                for t in values[product_obj(P, x_src, C.src(m2))]}
    return FinSetDiagram(P, values, actions)


def end_finset(H: FinSetDiagram) -> tuple[tuple, ...]:
    """The end of a bifunctor over product(opposite(G), G): families
    (x_g) with f_*(x_g) = f^*(x_g') for every f: g -> g'."""
    P = H.base
    G = _split_product_base(P)
    equations = [
        (G.src(f), H.action(product_mor(P, G.identity[G.src(f)], f)),
         G.tgt(f), H.action(product_mor(P, f, G.identity[G.tgt(f)])))
        for f in generating_morphisms(G)]
    return _equalizing_tuples(
        [H.value(product_obj(P, g, g)) for g in G.objects()], equations)


def coend_finset(H: FinSetDiagram) -> ColimitResult:
    """Coequalizer of the dual pair, as classes of the diagonal union."""
    P = H.base
    G = _split_product_base(P)
    pairs = []
    for f in generating_morphisms(G):
        s, t = G.src(f), G.tgt(f)
        # for u in H(t, s): H(f, s)(u) ~ H(t, f)(u)
        pull = H.action(product_mor(P, f, G.identity[s]))
        push = H.action(product_mor(P, G.identity[t], f))
        pairs += [((s, pull[u]), (t, push[u]))
                  for u in H.value(product_obj(P, t, s))]
    return _classes([(g, e) for g in G.objects()
                     for e in H.value(product_obj(P, g, g))], pairs)


def nat_trans_bruteforce(F: FinSetDiagram, G: FinSetDiagram) -> tuple[tuple, ...]:
    """All natural transformations F => G by enumeration of component
    families filtered by the naturality squares; the independent oracle
    for ends of Hom bifunctors."""
    if F.base != G.base:
        raise DiagramError("diagrams must share the base")
    C = F.base
    gens = generating_morphisms(C)
    by_stage: dict[int, list[int]] = {}
    for m in gens:
        by_stage.setdefault(max(C.src(m), C.tgt(m)), []).append(m)
    f_index = [{e: i for i, e in enumerate(F.values[x])} for x in C.objects()]
    out: list[tuple] = []
    partial: list = []

    def natural(stage: int) -> bool:
        for m in by_stage.get(stage, ()):
            sx, tx = C.src(m), C.tgt(m)
            am_f, am_g = F.actions[m], G.actions[m]
            for e in F.values[sx]:
                lhs = partial[tx][f_index[tx][am_f[e]]]
                rhs = am_g[partial[sx][f_index[sx][e]]]
                if lhs != rhs:
                    return False
        return True

    def extend(stage: int):
        if stage == C.n_objects:
            out.append(tuple(partial))
            return
        for comp in itertools.product(G.values[stage],
                                      repeat=len(F.values[stage])):
            partial.append(comp)
            if natural(stage):
                extend(stage + 1)
            partial.pop()

    extend(0)
    return tuple(out)


# --- Kan extensions -----------------------------------------------------------

@record(frozen=True)
class KanExtension:
    diagram: FinSetDiagram
    commas: tuple[Comma, ...]
    details: tuple


def lan(f: FunctorData, F: FinSetDiagram) -> KanExtension:
    """Left Kan extension: pointwise colimit over the comma (f over g')."""
    G, Gp = f.source, f.target
    if F.base != G:
        raise DiagramError("diagram is not over the source of the functor")
    commas = [comma_under_functor(f, gp) for gp in Gp.objects()]
    colims = [finset_colimit(restrict(com.projection, F)) for com in commas]
    values = tuple(tuple(range(len(col.classes))) for col in colims)
    actions = {}
    for u in Gp.morphisms():
        s, t = Gp.src(u), Gp.tgt(u)
        com_s, com_t = commas[s], commas[t]
        tgt_keys = {k: i for i, k in enumerate(com_t.object_keys)}
        act = {}
        for ci, members in enumerate(colims[s].classes):
            i, x = members[0]
            gamma, alpha = com_s.object_keys[i]
            j = tgt_keys[(gamma, Gp.comp(u, alpha))]
            act[ci] = colims[t].inject(j, x)
        actions[u] = act
    return KanExtension(FinSetDiagram(Gp, values, actions), tuple(commas),
                        tuple(colims))


def ran(f: FunctorData, F: FinSetDiagram) -> KanExtension:
    """Right Kan extension: pointwise limit over the comma (g' under f)."""
    G, Gp = f.source, f.target
    if F.base != G:
        raise DiagramError("diagram is not over the source of the functor")
    commas = [comma_from(f, gp) for gp in Gp.objects()]
    lims = [finset_limit(restrict(com.projection, F)) for com in commas]
    values = tuple(tuple(lim.elements) for lim in lims)
    actions = {}
    for u in Gp.morphisms():
        s, t = Gp.src(u), Gp.tgt(u)
        com_s, com_t = commas[s], commas[t]
        src_keys = {k: i for i, k in enumerate(com_s.object_keys)}
        act = {}
        for el in lims[s].elements:
            img = tuple(el[src_keys[(gamma, Gp.comp(beta, u))]]
                        for gamma, beta in com_t.object_keys)
            act[el] = img
        actions[u] = act
    return KanExtension(FinSetDiagram(Gp, values, actions), tuple(commas),
                        tuple(lims))


def lan_via_coend(f: FunctorData, F: FinSetDiagram) -> KanExtension:
    """Left Kan extension by the coend formula
    Lan_f F (g') = coend over g of Hom(f g, g') x F(g)."""
    G, Gp = f.source, f.target
    P = G.bifunctor_base
    coends = []
    for gp in Gp.objects():
        values = []
        for x in G.objects():
            homs = Gp.hom(f.object_map[x], gp)
            for y in G.objects():
                values.append(tuple((a, e) for a in homs
                                    for e in F.values[y]))
        actions = {}
        for m1 in G.morphisms():
            for m2 in G.morphisms():
                x_src = G.tgt(m1)
                y_src = G.src(m2)
                fm1 = f.morphism_map[m1]
                act = {}
                for (a, e) in values[product_obj(P, x_src, y_src)]:
                    act[(a, e)] = (Gp.comp(a, fm1), F.actions[m2][e])
                actions[product_mor(P, m1, m2)] = act
        coends.append(coend_finset(FinSetDiagram(P, tuple(values), actions)))
    values_out = tuple(tuple(range(len(col.classes))) for col in coends)
    actions_out = {}
    for u in Gp.morphisms():
        s, t = Gp.src(u), Gp.tgt(u)
        act = {}
        for ci, members in enumerate(coends[s].classes):
            g, (a, e) = members[0]
            act[ci] = coends[t].inject(g, (Gp.comp(u, a), e))
        actions_out[u] = act
    return KanExtension(FinSetDiagram(Gp, values_out, actions_out), (),
                        tuple(coends))


def ran_via_end(f: FunctorData, F: FinSetDiagram) -> KanExtension:
    """Right Kan extension by the end formula
    Ran_f F (g') = end over g of F(g)^(Hom(g', f g))."""
    G, Gp = f.source, f.target
    reps = [restrict(f, representable_finset_diagram(Gp, gp))
            for gp in Gp.objects()]
    ends = [end_finset(hom_bifunctor(R, F)) for R in reps]
    values_out = tuple(tuple(e) for e in ends)
    actions_out = {}
    for u in Gp.morphisms():
        s, t = Gp.src(u), Gp.tgt(u)
        act = {}
        for fam in ends[s]:
            img = []
            for x in G.objects():
                img.append(tuple(
                    fam[x][reps[s].values[x].index(Gp.comp(b, u))]
                    for b in reps[t].values[x]))
            act[fam] = tuple(img)
        actions_out[u] = act
    return KanExtension(FinSetDiagram(Gp, values_out, actions_out), (),
                        tuple(ends))


@record(frozen=True)
class CoYonedaReport:
    passed: bool
    end_size: int
    value_size: int


def co_yoneda_check(G_diag: FinSetDiagram, f: FunctorData,
                    gamma: int) -> CoYonedaReport:
    """Exhibits the bijection G(f gamma) = end over g' of
    G(g')^(Hom(f gamma, g'))."""
    Gp = G_diag.base
    if f.target != Gp:
        raise DiagramError("functor target must be the diagram base")
    o = f.object_map[gamma]
    homs = representable_finset_diagram(Gp, o)
    end = end_finset(hom_bifunctor(homs, G_diag))
    end_set = set(end)
    # canonical map: g |-> (beta |-> G(beta)(g)) per object
    images = []
    ok = True
    for g in G_diag.values[o]:
        fam = tuple(tuple(G_diag.actions[b][g] for b in homs.values[x])
                    for x in Gp.objects())
        if fam not in end_set:
            ok = False
        images.append(fam)
    if len(set(images)) != len(images) or len(images) != len(end):
        ok = False
    return CoYonedaReport(ok, len(end), len(G_diag.values[o]))


# --- chain-valued diagrams ----------------------------------------------------

@record
class ChainDiagramMap:
    """A natural transformation of chain diagrams."""
    source: ChainDiagram
    target: ChainDiagram
    components: Mapping[int, ChainMap]

    def component(self, x: int) -> ChainMap:
        return self.components[x]


# --- chain ends ---------------------------------------------------------------

@record
class EndChain:
    complex: ChainComplex
    inclusion: ChainMap            # into the sum of diagonal values
    sum_complex: ChainComplex
    projections: list[ChainMap]    # end -> H(g, g), by object of G
    base: FinCategory              # G


def end_chain(H: ChainDiagram,
              generators: Optional[Sequence[int]] = None) -> EndChain:
    """End of a chain bifunctor over product(opposite(G), G): the
    degreewise kernel of (pushforward - pullback) between the sums of
    diagonal values and of per-condition values, with the end wedge
    checked to commute at every generator."""
    P = H.base
    G = _split_product_base(P)
    gens = list(generating_morphisms(G) if generators is None else generators)
    diag = [H.value(product_obj(P, g, g)) for g in G.objects()]
    S, s_incls, s_projs = direct_sum(diag)
    push = [H.action(product_mor(P, G.identity[G.src(f)], f)) for f in gens]
    pull = [H.action(product_mor(P, f, G.identity[G.tgt(f)])) for f in gens]
    targets = [p.target for p in push]
    kernels: dict[int, RationalMatrix] = {}
    for k in S.degrees():
        if not S.dim(k):
            continue
        off = [0, *itertools.accumulate(c.dim(k) for c in diag)]
        blocks, r0 = [], 0
        for i, f in enumerate(gens):
            t_dim = targets[i].dim(k)
            if not t_dim:
                continue
            blocks.append((r0, off[G.src(f)], push[i].component(k)))
            blocks.append((r0, off[G.tgt(f)], pull[i].component(k).scale(-1)))
            r0 += t_dim
        M = block_matrix(r0, S.dim(k), blocks)
        _, basis = rank_kernel(M)
        kernels[k] = RationalMatrix.from_columns(basis, S.dim(k))
    E, incl = subcomplex_from_kernels(S, kernels)
    projections = [compose_maps(pr, incl) for pr in s_projs]
    for i, f in enumerate(gens):
        s, t = G.src(f), G.tgt(f)
        lhs = compose_maps(push[i], projections[s])
        rhs = compose_maps(pull[i], projections[t])
        for k in E.degrees():
            if lhs.component(k) != rhs.component(k):
                raise DiagramError(
                    f"end wedge does not commute at morphism {f}")
    return EndChain(E, incl, S, projections, G)


def bifunctor_diagram(G: FinCategory, value_at: Callable[[int, int], ChainComplex],
                      action_at: Callable[[int, int], ChainMap]) -> ChainDiagram:
    """Assemble a lazy ChainDiagram over product(opposite(G), G) from a
    value callback (x, y) and an action callback on morphism pairs."""
    P = G.bifunctor_base
    nG = G.n_objects

    def value(i):
        return value_at(i // nG, i % nG)

    values = [value(i) for i in range(P.n_objects)]

    def action(m):
        m1, m2 = divmod(m, G.n_morphisms)
        return action_at(m1, m2)

    return ChainDiagram(P, values, action)


def end_induced_map(src: EndChain, tgt: EndChain,
                    comps: Sequence[ChainMap]) -> ChainMap:
    """The map of ends induced by per-object maps of diagonal values
    that commute with both equalizer legs."""
    from .exactalg import solve_matrix
    components = {}
    for k in src.complex.degrees():
        if not src.complex.dim(k):
            continue
        big = block_diag([c.component(k) for c in comps])
        X = solve_matrix(tgt.inclusion.component(k),
                         big * src.inclusion.component(k))
        if X is None:
            raise DiagramError("induced map does not restrict to the end")
        components[k] = X
    return ChainMap(src.complex, tgt.complex, components)


# --- agreement of the two Kan extension formulas --------------------------------

def lan_agreement(f: FunctorData, F: FinSetDiagram) -> bool:
    """The canonical bijection between the comma-colimit and coend forms
    of the left Kan extension, checked elementwise and naturally."""
    ke = lan(f, F)
    kc = lan_via_coend(f, F)
    Gp = f.target
    bijections = []
    for gp in Gp.objects():
        col = ke.details[gp]
        coe = kc.details[gp]
        if len(col.classes) != len(coe.classes):
            return False
        bij = {}
        for ci, members in enumerate(col.classes):
            images = set()
            for i, x in members:
                gamma, alpha = ke.commas[gp].object_keys[i]
                images.add(coe.inject(gamma, (alpha, x)))
            if len(images) != 1:
                return False
            bij[ci] = images.pop()
        if len(set(bij.values())) != len(bij):
            return False
        bijections.append(bij)
    for u in Gp.morphisms():
        s, t = Gp.src(u), Gp.tgt(u)
        for ci in range(len(ke.details[s].classes)):
            lhs = bijections[t][ke.diagram.actions[u][ci]]
            rhs = kc.diagram.actions[u][bijections[s][ci]]
            if lhs != rhs:
                return False
    return True


def ran_agreement(f: FunctorData, F: FinSetDiagram) -> bool:
    """The canonical bijection between the comma-limit and end forms of
    the right Kan extension."""
    ke = ran(f, F)
    re_ = ran_via_end(f, F)
    G, Gp = f.source, f.target
    bijections = []
    for gp in Gp.objects():
        homs = [tuple(Gp.hom(gp, f.object_map[x])) for x in G.objects()]
        lim_set = {el: i for i, el in enumerate(ke.details[gp].elements)}
        fams = re_.details[gp]
        if len(fams) != len(lim_set):
            return False
        bij = {}
        seen = set()
        for fam in fams:
            el = tuple(fam[gamma][homs[gamma].index(beta)]
                       for gamma, beta in ke.commas[gp].object_keys)
            if el not in lim_set or el in seen:
                return False
            seen.add(el)
            bij[fam] = el
        bijections.append(bij)
    for u in Gp.morphisms():
        s, t = Gp.src(u), Gp.tgt(u)
        for fam in re_.details[s]:
            lhs = bijections[t][re_.diagram.actions[u][fam]]
            rhs = ke.diagram.actions[u][bijections[s][fam]]
            if lhs != rhs:
                return False
    return True
