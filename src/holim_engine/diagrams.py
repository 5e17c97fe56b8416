"""Diagram records: finite-set and chain-complex valued diagrams over a
finite category, their validators, and restriction along a functor.

These are what `dsl` builds and `holim` takes; the algorithms on them
((co)limits, (co)ends, Kan extensions, chain ends) are in `endkan`,
which imports these names back.  FinSet-valued diagrams are eager
tables; chain-valued diagrams carry lazily memoized action maps because
bifunctors over product categories grow quadratically in morphisms.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from .chaincx import ChainComplex, ChainMap, compose_maps, validate_map
from .errors import DiagramError, ShapeMismatch
from .exactalg import RationalMatrix
from .fincat import FinCategory, FunctorData
from .records import record


# --- finite-set diagrams ------------------------------------------------------

@record(frozen=True)
class FinSetDiagram:
    base: FinCategory
    values: tuple[tuple, ...]
    actions: Mapping[int, dict]

    def value(self, x: int) -> tuple:
        return self.values[x]

    def action(self, m: int) -> dict:
        return self.actions[m]


def validate_finset_diagram(F: FinSetDiagram) -> FinSetDiagram:
    C = F.base
    if len(F.values) != C.n_objects:
        raise DiagramError("diagram lacks values for some objects")
    for x in C.objects():
        if len(set(F.values[x])) != len(F.values[x]):
            raise DiagramError(f"value at object {x} has repeated elements")
    for m in C.morphisms():
        a = F.actions.get(m)
        if a is None:
            raise DiagramError(f"diagram lacks an action for morphism {m}")
        sx, tx = C.src(m), C.tgt(m)
        if set(a.keys()) != set(F.values[sx]):
            raise DiagramError(f"action of morphism {m} has wrong domain")
        target = set(F.values[tx])
        for v in a.values():
            if v not in target:
                raise DiagramError(f"action of morphism {m} leaves the target")
    for x in C.objects():
        ide = F.actions[C.identity[x]]
        if any(ide[e] != e for e in F.values[x]):
            raise DiagramError(f"identity action at object {x} is not id")
    for (g, f), h in C.compose_table.items():
        ag, af, ah = F.actions[g], F.actions[f], F.actions[h]
        for e in F.values[C.src(f)]:
            if ag[af[e]] != ah[e]:
                raise DiagramError(
                    f"diagram not functorial on the pair ({g}, {f})")
    return F


# --- chain-valued diagrams ----------------------------------------------------

class ChainDiagram:
    """A chain-complex-valued diagram; `action` may be a table or a
    callable (memoized) so bifunctors over product bases stay lazy."""

    def __init__(self, base: FinCategory, values, action):
        self.base = base
        self._values = list(values)
        if callable(action):
            self._action_fn: Optional[Callable[[int], ChainMap]] = action
            self._actions: dict[int, ChainMap] = {}
        else:
            self._action_fn = None
            self._actions = dict(action)

    def value(self, x: int) -> ChainComplex:
        return self._values[x]

    def action(self, m: int) -> ChainMap:
        got = self._actions.get(m)
        if got is None:
            if self._action_fn is None:
                raise DiagramError(f"diagram lacks an action for morphism {m}")
            got = self._action_fn(m)
            self._actions[m] = got
        return got


def validate_chain_diagram(D: ChainDiagram) -> ChainDiagram:
    C = D.base
    for m in C.morphisms():
        a = D.action(m)
        if a.source.dims != D.value(C.src(m)).dims or \
                a.target.dims != D.value(C.tgt(m)).dims:
            raise DiagramError(f"action of morphism {m} has wrong shape")
        validate_map(a)
    for x in C.objects():
        ide = D.action(C.identity[x])
        V = D.value(x)
        for k in V.degrees():
            if V.dim(k) and ide.component(k) != \
                    RationalMatrix.identity(V.dim(k)):
                raise DiagramError(f"identity action at object {x} is not id")
    for (g, f), h in C.compose_table.items():
        if C.is_identity(g) and h == f or C.is_identity(f) and h == g:
            continue        # holds once the identity actions are identities
        lhs = compose_maps(D.action(g), D.action(f))
        rhs = D.action(h)
        for k in D.value(C.src(f)).degrees():
            if lhs.component(k) != rhs.component(k):
                raise DiagramError(
                    f"chain diagram not functorial on the pair ({g}, {f})")
    return D


def restrict(f: FunctorData, F):
    """Precompose a diagram with a functor: (f*F)(g) = F(f(g))."""
    if isinstance(F, FinSetDiagram):
        if F.base != f.target:
            raise ShapeMismatch("diagram is not over the target of the functor")
        return FinSetDiagram(
            f.source,
            tuple(F.values[f.object_map[x]] for x in f.source.objects()),
            {m: F.actions[f.morphism_map[m]] for m in f.source.morphisms()})
    if isinstance(F, ChainDiagram):
        if F.base != f.target:
            raise ShapeMismatch("diagram is not over the target of the functor")
        return ChainDiagram(
            f.source,
            [F.value(f.object_map[x]) for x in f.source.objects()],
            lambda m: F.action(f.morphism_map[m]))
    raise ShapeMismatch("restrict expects a FinSet or chain diagram")
