"""Finitely presented categories with total composition tables.

Objects and morphisms are interned integers; labels live in side
tables, so every construction is deterministic and reproducible.
Composition tables are total: `compose[(g, f)]` is defined exactly when
tgt(f) = src(g).
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Optional

from .errors import (AssociativityViolation, CompositionDomainError,
                     FunctorError, IdentityViolation, NotLoopFree,
                     UnknownObject)
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
        return [m for m in self.morphisms()
                if self.mor_src[m] == x and self.mor_tgt[m] == y]

    def require_object(self, x: int) -> None:
        if not isinstance(x, int) or not 0 <= x < self.n_objects:
            raise UnknownObject(f"no object with index {x}")

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

    `object_keys[i]` records which data object i stands for; comma
    morphisms are determined by (source object, target object,
    underlying morphism), recoverable from the projection.
    """
    cat: FinCategory
    projection: FunctorData
    object_keys: tuple

    def mor_key(self, m: int) -> tuple[int, int, int]:
        return (self.cat.mor_src[m], self.cat.mor_tgt[m],
                self.projection.morphism_map[m])


# --- validation -------------------------------------------------------------

def validate_category(raw: FinCategory) -> FinCategory:
    """Check all category laws on the full table; returns the data
    marked validated."""
    n, nm = raw.n_objects, raw.n_morphisms
    if len(raw.obj_labels) != n or len(raw.mor_labels) != nm:
        raise CompositionDomainError("label table length mismatch")
    if len(raw.mor_src) != nm or len(raw.mor_tgt) != nm:
        raise CompositionDomainError("src/tgt table length mismatch")
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


def _comma_from_records(C_amb: FinCategory, object_keys: list,
                        obj_labels: list[str], records: list[tuple[int, int, int]],
                        proj_obj: list[int],
                        mor_label_of: dict[tuple[int, int, int], str]) -> Comma:
    """Assemble a comma category from (src_obj, tgt_obj, underlying mor)
    records; composition is inherited from the ambient category."""
    index = {rec: i for i, rec in enumerate(records)}
    mor_src = tuple(r[0] for r in records)
    mor_tgt = tuple(r[1] for r in records)
    labels = tuple(mor_label_of[r] for r in records)
    identity = tuple(index[(i, i, C_amb.identity[proj_obj[i]])]
                     for i in range(len(object_keys)))
    table = {}
    for j2, (b2, c2, m2) in enumerate(records):
        for j1, (b1, c1, m1) in enumerate(records):
            if c1 == b2:
                h = C_amb.compose_table[(m2, m1)]
                k = index.get((b1, c2, h))
                if k is None:
                    lab = C_amb.mor_labels
                    raise CompositionDomainError(
                        f"composite {lab[h]!r} = {lab[m2]!r} o {lab[m1]!r} is "
                        f"not an arrow {obj_labels[b1]!r} -> "
                        f"{obj_labels[c2]!r} of the comma category")
                table[(j2, j1)] = k
    cat = FinCategory(len(object_keys), tuple(obj_labels), mor_src, mor_tgt,
                      labels, identity, table, validated=True)
    proj = FunctorData(cat, C_amb, tuple(proj_obj),
                       tuple(r[2] for r in records), validated=True)
    return Comma(cat, proj, tuple(object_keys))


def comma_over(C: FinCategory, g: int) -> Comma:
    """The slice C over g: objects are morphisms alpha: x -> g, morphisms
    are m: x -> x' with alpha' o m = alpha.  id_g is terminal."""
    C.require_object(g)
    objs = [a for a in C.morphisms() if C.mor_tgt[a] == g]
    records, labels = [], {}
    for i, a in enumerate(objs):
        for j, a2 in enumerate(objs):
            for m in C.morphisms():
                if C.mor_src[m] == C.mor_src[a] and \
                        C.mor_tgt[m] == C.mor_src[a2] and \
                        C.compose_table[(a2, m)] == a:
                    rec = (i, j, m)
                    records.append(rec)
                    labels[rec] = f"{C.mor_labels[m]}|{i}>{j}"
    return _comma_from_records(
        C, objs, [C.mor_labels[a] for a in objs], records,
        [C.mor_src[a] for a in objs], labels)


def _functor_comma(f: FunctorData, g: int, over: bool) -> Comma:
    """The comma f over g (over=True) or g under f (over=False): objects
    are pairs (gamma, alpha) with alpha: f(gamma) -> g, or alpha: g ->
    f(gamma); morphisms m: gamma1 -> gamma2 with alpha2 o f(m) = alpha1,
    or f(m) o alpha1 = alpha2.  Both list keys, records and labels in
    the same order."""
    G, Gp = f.source, f.target
    Gp.require_object(g)
    near, far = (Gp.mor_src, Gp.mor_tgt) if over else \
        (Gp.mor_tgt, Gp.mor_src)
    keys = [(x, a) for x in G.objects() for a in Gp.morphisms()
            if near[a] == f.object_map[x] and far[a] == g]
    comp = Gp.compose_table
    records, labels = [], {}
    for i, (x1, a1) in enumerate(keys):
        for j, (x2, a2) in enumerate(keys):
            for m in G.morphisms():
                if G.mor_src[m] == x1 and G.mor_tgt[m] == x2:
                    fm = f.morphism_map[m]
                    if (comp[(a2, fm)] == a1) if over else \
                            (comp[(fm, a1)] == a2):
                        rec = (i, j, m)
                        records.append(rec)
                        labels[rec] = f"{G.mor_labels[m]}|{i}>{j}"
    return _comma_from_records(
        G, keys, [f"({G.obj_labels[x]},{Gp.mor_labels[a]})" for x, a in keys],
        records, [x for x, _ in keys], labels)


def comma_under_functor(f: FunctorData, gp: int) -> Comma:
    """The comma f over gp: objects are pairs (gamma, alpha: f(gamma) -> gp),
    morphisms m: gamma1 -> gamma2 with alpha2 o f(m) = alpha1."""
    return _functor_comma(f, gp, True)


def comma_from(f: FunctorData, g: int) -> Comma:
    """The comma g under f: objects are pairs (gamma, alpha: g -> f(gamma)),
    morphisms m: gamma1 -> gamma2 with f(m) o alpha1 = alpha2."""
    return _functor_comma(f, g, False)


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
    """A deterministic generating set of non-identity morphisms: greedily
    add the smallest morphism not yet reachable by composition."""
    reached = {C.identity[x] for x in C.objects()}
    gens: list[int] = []

    def close():
        changed = True
        while changed:
            changed = False
            cur = sorted(reached)
            for g in cur:
                for f in cur:
                    h = C.compose_table.get((g, f))
                    if h is not None and h not in reached:
                        reached.add(h)
                        changed = True

    close()
    for m in C.morphisms():
        if m not in reached:
            gens.append(m)
            reached.add(m)
            close()
    return gens


def find_terminal(C: FinCategory) -> Optional[int]:
    for t in C.objects():
        if all(len(C.hom(x, t)) == 1 for x in C.objects()):
            return t
    return None


def identities_terminal_in_slices(C: FinCategory) -> bool:
    """Whether id_g is terminal in the slice C over g for every object g,
    read off the composition table: id_g is an endomorphism of g and, for
    every arrow a: x -> g, the only h in C(x, g) with id_g o h = a is a
    itself, since id_g o h = h for every arrow h into g.  Every category
    passes; on any table whose slices can be built it is at least as
    strict as asking for some terminal object in each `comma_over(C, g)`."""
    table, ident = C.compose_table, C.identity
    return all(C.mor_src[ident[g]] == C.mor_tgt[ident[g]] == g
               for g in C.objects()) and \
        all(table.get((ident[C.mor_tgt[h]], h)) == h for h in C.morphisms())


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
    for (x, y) in list(rel):
        for (y2, z) in list(rel):
            if y2 == y and (x, z) not in rel:
                raise CompositionDomainError("relation is not transitive")
    pairs = sorted(rel)
    idx = {p: i for i, p in enumerate(pairs)}
    mor_src = tuple(p[0] for p in pairs)
    mor_tgt = tuple(p[1] for p in pairs)
    mor_labels = tuple(labels[x] if x == y else f"{labels[x]}<{labels[y]}"
                       for x, y in pairs)
    identity = tuple(idx[(x, x)] for x in range(n))
    table = {}
    for j, (b, c) in enumerate(pairs):
        for i, (a, b2) in enumerate(pairs):
            if b2 == b:
                table[(j, i)] = idx[(a, c)]
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
    order (a tuple of arrow indices, first arrow first)."""
    n = len(obj_labels)
    # the generator graph must be acyclic or path enumeration diverges
    if any(s == t for _, s, t in arrows):
        raise NotLoopFree("generator graph has a self-loop")
    if _longest_paths(n, [(s, t) for _, s, t in arrows]) is None:
        raise NotLoopFree("generator graph has a directed cycle")
    # enumerate all paths; a path is a tuple of arrow indices in
    # traversal order (first arrow first)
    frontier = [((i,), arrows[i][1], arrows[i][2])
                for i in range(len(arrows))]
    all_paths: list[tuple[tuple[int, ...], int, int]] = []
    while frontier:
        all_paths.extend(frontier)
        nxt = []
        for p, s, t in frontier:
            for i, (_, s2, t2) in enumerate(arrows):
                if s2 == t:
                    nxt.append((p + (i,), s, t2))
        frontier = nxt
    ends = {p: (s, t) for p, s, t in all_paths}

    uf = UnionFind(ends)
    for lhs, rhs in relations:
        if lhs not in ends or rhs not in ends:
            raise CompositionDomainError("relation names an unknown path")
        if ends[lhs] != ends[rhs]:
            raise CompositionDomainError(
                "relation equates paths with different endpoints")
        uf.union(lhs, rhs)
    changed = bool(relations)
    while changed:
        changed = False
        classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for p in ends:
            classes.setdefault(uf.find(p), []).append(p)
        for members in classes.values():
            if len(members) < 2:
                continue
            for p in members:
                for q in members:
                    if p is q:
                        continue
                    for i, (_, s2, t2) in enumerate(arrows):
                        if s2 == ends[p][1]:
                            if uf.union(p + (i,), q + (i,)):
                                changed = True
                        if t2 == ends[p][0]:
                            if uf.union((i,) + p, (i,) + q):
                                changed = True
    classes = {}
    for p in sorted(ends, key=lambda p: (len(p), p)):
        classes.setdefault(uf.find(p), []).append(p)
    reps = sorted((min((len(p), p) for p in mem)[1] for mem in classes.values()),
                  key=lambda p: (len(p), p))
    rep_of = {}
    for root, mem in classes.items():
        rep = min(mem, key=lambda p: (len(p), p))
        for p in mem:
            rep_of[p] = rep

    def path_label(p):
        return ".".join(arrows[i][0] for i in reversed(p))

    mor_src = [x for x in range(n)]
    mor_tgt = [x for x in range(n)]
    mor_labels = [f"id_{obj_labels[x]}" for x in range(n)]
    index: dict[tuple[int, ...] | int, int] = {}
    for rep in reps:
        index[rep] = len(mor_src)
        mor_src.append(ends[rep][0])
        mor_tgt.append(ends[rep][1])
        mor_labels.append(path_label(rep))
    identity = tuple(range(n))
    table: dict[tuple[int, int], int] = {}
    nm = len(mor_src)
    # identities compose trivially
    for m in range(nm):
        table[(identity[mor_tgt[m]], m)] = m
        table[(m, identity[mor_src[m]])] = m
    # only composable pairs: each rep2 meets the reps that end where it
    # starts, in the order of `reps`
    by_tgt: dict[int, list[tuple[int, ...]]] = {}
    for rep1 in reps:
        by_tgt.setdefault(ends[rep1][1], []).append(rep1)
    for rep2 in reps:
        j = index[rep2]
        for rep1 in by_tgt.get(ends[rep2][0], ()):
            table[(j, index[rep1])] = index[rep_of[rep1 + rep2]]
    return validate_category(FinCategory(
        n, tuple(obj_labels), tuple(mor_src), tuple(mor_tgt),
        tuple(mor_labels), identity, table)), tuple(reps)


def identity_functor(C: FinCategory) -> FunctorData:
    return FunctorData(C, C, tuple(C.objects()), tuple(C.morphisms()),
                       validated=True)


def object_inclusion(C: FinCategory, x: int) -> FunctorData:
    """Inclusion of the terminal category hitting the object x."""
    C.require_object(x)
    return validate_functor(FunctorData(
        terminal_category(), C, (x,), (C.identity[x],)))
