"""Finitely presented categories with total composition tables.

Objects and morphisms are interned integers; labels live in side
tables, unique among objects and among morphisms (`validate_category`),
so every construction is deterministic and reproducible.
Composition tables are total: `compose[(g, f)]` is defined exactly when
tgt(f) = src(g).  One fill, `_table`, lists those pairs g by g for
posets, commas and the injective-simplex category; one builder,
`_functor_comma`, makes every comma category, the slice C over g being
the comma of the identity functor over g, and keys every comma object
by its pair (gamma, alpha), arrow-major; `_comma_family` gives the
commas over every object with the change of base along each arrow as an
index map.  Each category indexes its hom sets once (`_homs`).
A presentation compiles in one pass over its paths (`_presented`): they
are listed once in shortlex order, `UnionFind` over their indices makes
each class's root its representative, and the congruence the relations
generate is closed by a worklist.  `generating_morphisms` reads a
generating set off the composition table in one pass: the
indecomposable arrows of a loop-free category, every non-identity of
one with a loop.  `ssets._chains` checks the laws each chain rests on.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Optional

from .errors import (AssociativityViolation, CompositionDomainError,
                     DuplicateLabel, FunctorError, IdentityViolation,
                     NotLoopFree, UnknownObject)
from .records import field, record, replace


@record(frozen=True)
class FinCategory:
    n_objects: int
    obj_labels: tuple[str, ...]
    mor_src: tuple[int, ...]
    mor_tgt: tuple[int, ...]
    mor_labels: tuple[str, ...]
    identity: tuple[int, ...]
    compose_table: dict[tuple[int, int], int]
    validated: bool = field(default=False, compare=False)
    product_of: Optional[tuple["FinCategory", "FinCategory"]] = \
        field(default=None, compare=False)

    @property
    def n_morphisms(self) -> int:
        return len(self.mor_src)

    def objects(self) -> range:
        return range(self.n_objects)

    def morphisms(self) -> range:
        return range(self.n_morphisms)

    def src(self, m: int) -> int:
        return self.mor_src[m]

    def tgt(self, m: int) -> int:
        return self.mor_tgt[m]

    def is_identity(self, m: int) -> bool:
        return self.identity[self.mor_src[m]] == m and \
            self.mor_src[m] == self.mor_tgt[m]

    def non_identities(self) -> list[int]:
        return [m for m in self.morphisms() if not self.is_identity(m)]

    def comp(self, g: int, f: int) -> int:
        """g after f."""
        try:
            return self.compose_table[(g, f)]
        except KeyError:
            raise CompositionDomainError(
                f"morphisms {self.mor_labels[g]!r} and {self.mor_labels[f]!r} "
                f"are not composable") from None

    def hom(self, x: int, y: int) -> list[int]:
        return list(self._homs.get((x, y), ()))

    def require_object(self, x: int) -> None:
        if not isinstance(x, int) or not 0 <= x < self.n_objects:
            raise UnknownObject(f"no object with index {x}")

    @cached_property
    def _homs(self) -> dict[tuple[int, int], list[int]]:
        """(x, y) -> the arrows x -> y in morphism order, built once."""
        homs: dict[tuple[int, int], list[int]] = {}
        for m, xy in enumerate(zip(self.mor_src, self.mor_tgt)):
            homs.setdefault(xy, []).append(m)
        return homs

    @cached_property
    def _degrees(self) -> Optional["DegreeFunction"]:
        # the fields are frozen, so `is_direct` sorts once per instance
        return _longest_path_degrees(self)

    @cached_property
    def bifunctor_base(self) -> "FinCategory":
        """product(opposite(self), self), the base of a bifunctor such as
        Hom; built once per instance, since the fields are frozen."""
        return product(opposite(self), self)


@record(frozen=True)
class FunctorData:
    source: FinCategory
    target: FinCategory
    object_map: tuple[int, ...]
    morphism_map: tuple[int, ...]
    validated: bool = field(default=False, compare=False)


@record(frozen=True)
class DegreeFunction:
    assignment: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.assignment[x]


@record(frozen=True)
class Comma:
    """A comma category together with its projection functor.

    `object_keys[i]` is the pair (gamma, alpha) object i stands for, in
    every comma; comma morphisms are determined by (source object, target
    object, underlying morphism), recoverable from the projection.
    """
    cat: FinCategory
    projection: FunctorData
    object_keys: tuple

    def mor_key(self, m: int) -> tuple[int, int, int]:
        return (self.cat.mor_src[m], self.cat.mor_tgt[m],
                self.projection.morphism_map[m])


# --- validation -------------------------------------------------------------

def validate_category(raw: FinCategory) -> FinCategory:
    """Check that labels name one object or one morphism each and all
    category laws on the full table; returns the data marked validated."""
    n, nm = raw.n_objects, raw.n_morphisms
    if len(raw.obj_labels) != n or len(raw.mor_labels) != nm:
        raise CompositionDomainError("label table length mismatch")
    if len(raw.mor_src) != nm or len(raw.mor_tgt) != nm:
        raise CompositionDomainError("src/tgt table length mismatch")
    for kind, labels in (("object", raw.obj_labels),
                         ("morphism", raw.mor_labels)):
        seen = set()
        for lab in labels:
            if lab in seen:
                raise DuplicateLabel(f"two {kind}s are labelled {lab!r}")
            seen.add(lab)
    for x in range(n):
        i = raw.identity[x]
        if not (0 <= i < nm) or raw.mor_src[i] != x or raw.mor_tgt[i] != x:
            raise IdentityViolation(
                f"identity of object {raw.obj_labels[x]!r} is not an "
                f"endomorphism of it")
    lab = raw.mor_labels
    for (g, f), h in raw.compose_table.items():
        if raw.mor_tgt[f] != raw.mor_src[g]:
            raise CompositionDomainError(
                f"table defines {lab[g]!r} o {lab[f]!r} on a non-composable pair")
        if raw.mor_src[h] != raw.mor_src[f] or raw.mor_tgt[h] != raw.mor_tgt[g]:
            raise CompositionDomainError(
                f"composite {lab[h]!r} = {lab[g]!r} o {lab[f]!r} has wrong "
                f"source or target")
    # the morphisms out of each object, in order: the composable pairs
    by_src: dict[int, list[int]] = {}
    for g in range(nm):
        by_src.setdefault(raw.mor_src[g], []).append(g)
    for f in range(nm):
        for g in by_src.get(raw.mor_tgt[f], ()):
            if (g, f) not in raw.compose_table:
                raise CompositionDomainError(
                    f"table omits the composable pair {lab[g]!r} o {lab[f]!r}")
    for f in range(nm):
        if raw.compose_table[(raw.identity[raw.mor_tgt[f]], f)] != f:
            raise IdentityViolation(f"id o {lab[f]!r} != {lab[f]!r}")
        if raw.compose_table[(f, raw.identity[raw.mor_src[f]])] != f:
            raise IdentityViolation(f"{lab[f]!r} o id != {lab[f]!r}")
    # associativity on every composable triple
    for f in range(nm):
        for g in by_src.get(raw.mor_tgt[f], ()):
            gf = raw.compose_table[(g, f)]
            for h in by_src.get(raw.mor_tgt[g], ()):
                if raw.compose_table[(h, gf)] != \
                        raw.compose_table[(raw.compose_table[(h, g)], f)]:
                    raise AssociativityViolation(
                        f"({lab[h]!r} o {lab[g]!r}) o {lab[f]!r} != "
                        f"{lab[h]!r} o ({lab[g]!r} o {lab[f]!r})")
    return replace(raw, validated=True)


def validate_functor(raw: FunctorData) -> FunctorData:
    C, D = raw.source, raw.target
    if len(raw.object_map) != C.n_objects or \
            len(raw.morphism_map) != C.n_morphisms:
        raise FunctorError("map table length mismatch")
    for m in C.morphisms():
        fm = raw.morphism_map[m]
        if D.mor_src[fm] != raw.object_map[C.mor_src[m]] or \
                D.mor_tgt[fm] != raw.object_map[C.mor_tgt[m]]:
            raise FunctorError(
                f"image of {C.mor_labels[m]!r} has wrong source or target")
    for x in C.objects():
        if raw.morphism_map[C.identity[x]] != D.identity[raw.object_map[x]]:
            raise FunctorError(
                f"identity of {C.obj_labels[x]!r} not sent to an identity")
    for (g, f), h in C.compose_table.items():
        if D.compose_table[(raw.morphism_map[g], raw.morphism_map[f])] != \
                raw.morphism_map[h]:
            raise FunctorError(
                f"composition {C.mor_labels[g]!r} o {C.mor_labels[f]!r} "
                f"not preserved")
    return replace(raw, validated=True)


# --- constructions ----------------------------------------------------------

def opposite(C: FinCategory) -> FinCategory:
    table = {(g, f): C.compose_table[(f, g)]
             for (f, g) in sorted(C.compose_table)}
    return FinCategory(C.n_objects, C.obj_labels, C.mor_tgt, C.mor_src,
                       C.mor_labels, C.identity, table, validated=True)


def product(C: FinCategory, D: FinCategory) -> FinCategory:
    """Product category; object (x, y) is interned as x*|D| + y and
    morphism (f, g) as f*|Mor D| + g."""
    nD, nmD = D.n_objects, D.n_morphisms
    obj_labels = tuple(f"({lc},{ld})" for lc in C.obj_labels
                       for ld in D.obj_labels)
    mor_src, mor_tgt, mor_labels = [], [], []
    for f in C.morphisms():
        for g in D.morphisms():
            mor_src.append(C.mor_src[f] * nD + D.mor_src[g])
            mor_tgt.append(C.mor_tgt[f] * nD + D.mor_tgt[g])
            mor_labels.append(f"({C.mor_labels[f]},{D.mor_labels[g]})")
    identity = tuple(C.identity[x] * nmD + D.identity[y]
                     for x in C.objects() for y in D.objects())
    table = {}
    for (gc, fc) in sorted(C.compose_table):
        hc = C.compose_table[(gc, fc)]
        for (gd, fd) in sorted(D.compose_table):
            hd = D.compose_table[(gd, fd)]
            table[(gc * nmD + gd, fc * nmD + fd)] = hc * nmD + hd
    return FinCategory(C.n_objects * nD, obj_labels, tuple(mor_src),
                       tuple(mor_tgt), tuple(mor_labels), identity, table,
                       validated=True, product_of=(C, D))


def product_obj(P: FinCategory, x: int, y: int) -> int:
    return x * P.product_of[1].n_objects + y


def product_mor(P: FinCategory, f: int, g: int) -> int:
    return f * P.product_of[1].n_morphisms + g


def _table(mor_src, mor_tgt, compose) -> dict[tuple[int, int], int]:
    """The composition table {(g, f): compose(g, f)} over the composable
    pairs only: g by g, and for each g the arrows f into src g in
    morphism order."""
    into: dict[int, list[int]] = {}
    for f, y in enumerate(mor_tgt):
        into.setdefault(y, []).append(f)
    return {(g, f): compose(g, f)
            for g, x in enumerate(mor_src) for f in into.get(x, ())}


def comma_over(C: FinCategory, g: int) -> Comma:
    """The slice C over g, the comma of the identity functor over g: objects
    (x, alpha) for the arrows alpha: x -> g in morphism order; morphisms
    m: x -> x' with alpha' o m = alpha.  (g, id_g) is terminal."""
    return _functor_comma(identity_functor(C), g, True)


def _functor_comma(f: FunctorData, g: int, over: bool) -> Comma:
    """The comma f over g (over=True) or g under f (over=False), the one
    builder of every comma.  Its objects are the pairs (gamma, alpha)
    with alpha: f(gamma) -> g, or alpha: g -> f(gamma), listed
    arrow-major (for each alpha in morphism order, each gamma in object
    order), keyed and labelled by those pairs; over f = id they are the
    slice's.  Its morphisms are the m: gamma1 -> gamma2 with
    alpha2 o f(m) = alpha1, or f(m) o alpha1 = alpha2, as records
    (i, j, m); composition is that of the source of f."""
    G, Gp = f.source, f.target
    Gp.require_object(g)
    near, far = (Gp.mor_src, Gp.mor_tgt) if over else \
        (Gp.mor_tgt, Gp.mor_src)
    pairs = [(x, a) for a in Gp.morphisms() if far[a] == g
             for x in G.objects() if f.object_map[x] == near[a]]
    obj_labels = [f"({G.obj_labels[x]},{Gp.mor_labels[a]})" for x, a in pairs]
    comp, homs = Gp.compose_table, G._homs
    records = [(i, j, m) for i, (x1, a1) in enumerate(pairs)
               for j, (x2, a2) in enumerate(pairs)
               for m in homs.get((x1, x2), ())
               if (comp[(a2, f.morphism_map[m])] == a1 if over else
                   comp[(f.morphism_map[m], a1)] == a2)]
    index = {rec: k for k, rec in enumerate(records)}

    def compose(j2, j1):
        (b1, _, m1), (_, c2, m2) = records[j1], records[j2]
        h = G.compose_table[(m2, m1)]
        k = index.get((b1, c2, h))
        if k is None:
            lab = G.mor_labels
            raise CompositionDomainError(
                f"composite {lab[h]!r} = {lab[m2]!r} o {lab[m1]!r} is "
                f"not an arrow {obj_labels[b1]!r} -> "
                f"{obj_labels[c2]!r} of the comma category")
        return k

    mor_src = tuple(r[0] for r in records)
    mor_tgt = tuple(r[1] for r in records)
    cat = FinCategory(
        len(pairs), tuple(obj_labels), mor_src, mor_tgt,
        tuple(f"{G.mor_labels[m]}|{i}>{j}" for i, j, m in records),
        tuple(index[(i, i, G.identity[x])] for i, (x, _) in enumerate(pairs)),
        _table(mor_src, mor_tgt, compose), validated=True)
    proj = FunctorData(cat, G, tuple(x for x, _ in pairs),
                       tuple(r[2] for r in records), validated=True)
    return Comma(cat, proj, tuple(pairs))


def comma_under_functor(f: FunctorData, gp: int) -> Comma:
    """The comma f over gp: objects are pairs (gamma, alpha: f(gamma) -> gp),
    morphisms m: gamma1 -> gamma2 with alpha2 o f(m) = alpha1."""
    return _functor_comma(f, gp, True)


def comma_from(f: FunctorData, g: int) -> Comma:
    """The comma g under f: objects are pairs (gamma, alpha: g -> f(gamma)),
    morphisms m: gamma1 -> gamma2 with f(m) o alpha1 = alpha2."""
    return _functor_comma(f, g, False)


def _comma_family(f: FunctorData, over: bool):
    """The commas f over g (over=True) or g under f, one per object g of
    the target in object order, and the change of base along each arrow
    u: s -> t as a tuple of object indices, read off the keys (gamma,
    alpha) of every comma: over, u sends object i = (gamma, alpha) of
    commas[s] to object moves[u][i] = (gamma, u o alpha) of commas[t];
    under, object i = (gamma, beta) of commas[t] comes from object
    moves[u][i] = (gamma, beta o u) of commas[s].  Over f = id the commas
    are the slices `comma_over`."""
    Gp, make = f.target, comma_under_functor if over else comma_from
    commas = [make(f, g) for g in Gp.objects()]
    keys = [com.object_keys for com in commas]
    index = [{k: i for i, k in enumerate(ks)} for ks in keys]
    comp = Gp.compose_table
    moves = tuple(
        tuple(index[t][(x, comp[(u, a)])] for x, a in keys[s]) if over else
        tuple(index[s][(x, comp[(b, u)])] for x, b in keys[t])
        for u, s, t in zip(Gp.morphisms(), Gp.mor_src, Gp.mor_tgt))
    return commas, moves


def is_direct(C: FinCategory) -> Optional[DegreeFunction]:
    """Longest-path degree function if C is loop-free, else None."""
    return C._degrees


def _longest_path_degrees(C: FinCategory) -> Optional[DegreeFunction]:
    deg = _longest_paths(C.n_objects, [(C.mor_src[m], C.mor_tgt[m])
                                       for m in C.non_identities()])
    return None if deg is None else DegreeFunction(tuple(deg))


def _longest_paths(n: int, edges) -> Optional[list[int]]:
    """Kahn's sort of the graph on 0..n-1 with the (x, y) `edges`: the
    length of the longest path ending at each vertex, or None when the
    graph has a directed cycle (a self-loop among them).  It keeps no
    recursion, so a long path or cycle costs no stack."""
    out: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for x, y in edges:
        out[x].append(y)
        indeg[y] += 1
    deg = [0] * n
    order = [x for x in range(n) if not indeg[x]]
    for x in order:             # grows while it runs
        for y in out[x]:
            deg[y] = max(deg[y], deg[x] + 1)
            indeg[y] -= 1
            if not indeg[y]:
                order.append(y)
    return deg if len(order) == n else None


def generating_morphisms(C: FinCategory) -> list[int]:
    """A generating set of non-identity morphisms, in morphism order,
    read off the composition table.  Over a loop-free C it is the
    indecomposable arrows, those that are no composite g o f of two
    non-identities: every generating set contains them, and they
    generate, since each non-identity factor raises the longest-path
    degree.  Over a C with a loop it is every non-identity, since there
    the indecomposables may not generate (in Z/3 each arrow is the
    square of the other)."""
    non_ids = C.non_identities()
    if is_direct(C) is None:
        return non_ids
    ids = set(C.identity)
    composite = {h for (g, f), h in C.compose_table.items()
                 if g not in ids and f not in ids}
    return [m for m in non_ids if m not in composite]


def find_terminal(C: FinCategory) -> Optional[int]:
    for t in C.objects():
        if all(len(C.hom(x, t)) == 1 for x in C.objects()):
            return t
    return None


def find_initial(C: FinCategory) -> Optional[int]:
    for i in C.objects():
        if all(len(C.hom(i, x)) == 1 for x in C.objects()):
            return i
    return None


class UnionFind:
    """Disjoint sets over hashable, mutually comparable items, with path
    halving; each root is the least item of its set."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the sets of a and b; whether they were apart."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


# --- small builders ---------------------------------------------------------

def from_poset(labels: list[str], leq: set[tuple[int, int]]) -> FinCategory:
    """Category of a finite poset (at most one morphism x -> y); `leq`
    lists the related pairs, reflexivity is added, transitivity required."""
    n = len(labels)
    rel = set(leq) | {(x, x) for x in range(n)}
    above: dict[int, list[int]] = {}
    for (y, z) in rel:
        above.setdefault(y, []).append(z)
    # only the pairs that meet: (x, y), then each (y, z) out of y
    if any((x, z) not in rel for (x, y) in rel for z in above.get(y, ())):
        raise CompositionDomainError("relation is not transitive")
    pairs = sorted(rel)
    idx = {p: i for i, p in enumerate(pairs)}
    mor_src = tuple(p[0] for p in pairs)
    mor_tgt = tuple(p[1] for p in pairs)
    mor_labels = tuple(labels[x] if x == y else f"{labels[x]}<{labels[y]}"
                       for x, y in pairs)
    identity = tuple(idx[(x, x)] for x in range(n))
    table = _table(mor_src, mor_tgt,
                   lambda j, i: idx[(pairs[i][0], pairs[j][1])])
    return validate_category(FinCategory(
        n, tuple(labels), mor_src, mor_tgt, mor_labels, identity, table))


def terminal_category() -> FinCategory:
    return from_poset(["*"], set())


def discrete_category(labels: list[str]) -> FinCategory:
    return from_poset(labels, set())


def arrow_category() -> FinCategory:
    """The walking arrow [1]: objects a, b and one morphism a -> b."""
    return from_poset(["a", "b"], {(0, 1)})


@cache
def chain_poset(n: int) -> FinCategory:
    """The linear order [n] = 0 < 1 < ... < n, built once per n: a
    category is frozen."""
    labels = [str(i) for i in range(n + 1)]
    return from_poset(labels, {(i, j) for i in range(n + 1)
                               for j in range(i + 1, n + 1)})


@cache
def cospan_category() -> FinCategory:
    """The cospan shape a -> c <- b, built once: a category is frozen."""
    return from_poset(["a", "b", "c"], {(0, 2), (1, 2)})


def category_from_presentation(
        obj_labels: list[str],
        arrows: list[tuple[str, int, int]],
        relations: list[tuple[tuple[int, ...], tuple[int, ...]]] = (),
) -> FinCategory:
    """Compile a loop-free presentation to a total composition table.

    Arrows are generators; all directed paths are enumerated, unnamed
    composites are auto-named `g.f`, and the path set is quotiented by
    the congruence generated by the relations (pairs of paths given as
    arrow-index tuples, written left-to-right along the path).
    """
    return _presented(obj_labels, arrows, relations)[0]


def _presented(obj_labels, arrows, relations=()):
    """The category of `category_from_presentation` and the
    representative path of each non-identity morphism, in morphism
    order (a tuple of arrow indices, first arrow first).

    Every path is listed once, shortest first and lexicographic within a
    length, and `UnionFind` runs over the list's indices, so the root of
    each class is its shortlex-least path: its representative.  The
    congruence is closed by a worklist of pairs (Nelson and Oppen,
    JACM 1980): a pair that merges two classes pushes its whiskers by
    every generator on either side, once."""
    n = len(obj_labels)
    # the generator graph must be acyclic or path enumeration diverges
    if any(s == t for _, s, t in arrows):
        raise NotLoopFree("generator graph has a self-loop")
    if _longest_paths(n, [(s, t) for _, s, t in arrows]) is None:
        raise NotLoopFree("generator graph has a directed cycle")
    out, into = [[] for _ in range(n)], [[] for _ in range(n)]
    for i, (_, s, t) in enumerate(arrows):
        out[s].append(i)
        into[t].append(i)
    paths = [((i,), s, t) for i, (_, s, t) in enumerate(arrows)]
    for p, s, t in paths:           # grows while it runs
        paths.extend((p + (i,), s, arrows[i][2]) for i in out[t])
    at = {p: k for k, (p, _, _) in enumerate(paths)}

    todo = []
    for lhs, rhs in relations:
        if lhs not in at or rhs not in at:
            raise CompositionDomainError("relation names an unknown path")
        if paths[at[lhs]][1:] != paths[at[rhs]][1:]:
            raise CompositionDomainError(
                "relation equates paths with different endpoints")
        todo.append((at[lhs], at[rhs]))
    uf = UnionFind(range(len(paths)))
    while todo:
        a, b = todo.pop()
        if uf.union(a, b):
            (p, s, t), q = paths[a], paths[b][0]
            todo += [(at[p + (i,)], at[q + (i,)]) for i in out[t]]
            todo += [(at[(i,) + p], at[(i,) + q]) for i in into[s]]
    reps = [k for k in range(len(paths)) if uf.find(k) == k]

    mor = {k: n + j for j, k in enumerate(reps)}
    mor_src = list(range(n)) + [paths[k][1] for k in reps]
    mor_tgt = list(range(n)) + [paths[k][2] for k in reps]
    mor_labels = [f"id_{x}" for x in obj_labels] + [
        ".".join(arrows[i][0] for i in reversed(paths[k][0])) for k in reps]
    identity = tuple(range(n))
    table: dict[tuple[int, int], int] = {}
    # identities compose trivially
    for m in range(len(mor_src)):
        table[(identity[mor_tgt[m]], m)] = m
        table[(m, identity[mor_src[m]])] = m
    # only composable pairs: each rep meets the reps that end where it
    # starts, in rep order
    by_tgt = [[] for _ in range(n)]
    for k in reps:
        by_tgt[paths[k][2]].append(k)
    for k2 in reps:
        for k1 in by_tgt[paths[k2][1]]:
            table[(mor[k2], mor[k1])] = \
                mor[uf.find(at[paths[k1][0] + paths[k2][0]])]
    return validate_category(FinCategory(
        n, tuple(obj_labels), tuple(mor_src), tuple(mor_tgt),
        tuple(mor_labels), identity, table)), \
        tuple(paths[k][0] for k in reps)


def identity_functor(C: FinCategory) -> FunctorData:
    return FunctorData(C, C, tuple(C.objects()), tuple(C.morphisms()),
                       validated=True)


def object_inclusion(C: FinCategory, x: int) -> FunctorData:
    """Inclusion of the terminal category hitting the object x."""
    C.require_object(x)
    return validate_functor(FunctorData(
        terminal_category(), C, (x,), (C.identity[x],)))
