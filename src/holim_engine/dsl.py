"""Text DSL for categories, complexes, diagrams and functors.

Line-oriented grammar, comments with `#`, statements separated by
newlines or `;`:

    category C {
      objects: a, b
      arrows: f: a -> b, g: b -> c
      relations: g.f = h            # both sides are paths of arrows
    }
    category M {                    # explicit table mode (loops allowed)
      objects: x
      arrows: e: x -> x
      compose: e * e = id_x         # one entry per composable pair
    }
    complex K {
      degrees: 0..1
      dim 0: 2
      dim 1: 1
      d 1: [[1], [-1]]              # row-major, target dim many rows
    }
    diagram D over C into Ch {
      at a: K
      on f: deg 0: [[1, 0]]         # omitted degrees are zero
    }
    diagram S over op(C) * C into FinSet {
      at (a,a): {x, y}
      on (f,f): x -> y
    }
    functor F : C -> D { a => x; f => g }

Entries `on`/`=>` are needed on generating morphisms only; composites
are derived through the composition table and the result is fully
validated.  Base expressions allow `op(NAME)` and `*`-products.  A
label that is not an identifier or a pair `(a,b)` is a JSON string, as
in `"a<b"`.  Both ASCII `-` and U+2212 are accepted as minus; output is
ASCII.

The parser compiles arrow presentations by enumerating all generator
paths (the graph must be loop-free unless `compose:` gives the table)
and quotienting by the relation congruence via union-find; composites
are auto-named `g.f`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

from . import chaincx
from .chaincx import ChainComplex, ChainMap, make_chain_map, make_complex
from .diagrams import (ChainDiagram, FinSetDiagram, validate_chain_diagram,
                       validate_finset_diagram)
from .errors import (DiagramError, EngineError, ParseError, ShapeMismatch,
                     TypeMismatch, UnknownBinding)
from .exactalg import RationalMatrix
from .fincat import (FinCategory, FunctorData, category_from_presentation,
                     opposite, product, validate_category, validate_functor)
from .records import field, record


@record
class Binding:
    name: str
    kind: str        # category | complex | diagram_ch | diagram_finset | functor
    value: object
    meta: dict = field(default_factory=dict)


@record
class Workspace:
    bindings: dict[str, Binding] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)

    def add(self, b: Binding):
        if b.name in self.bindings:
            raise ParseError(f"duplicate binding {b.name!r}")
        self.bindings[b.name] = b
        self.order.append(b.name)

    def get(self, name: str, kind: Optional[str] = None) -> Binding:
        b = self.bindings.get(name)
        if b is None:
            raise UnknownBinding(f"no binding named {name!r}")
        if kind is not None and b.kind != kind:
            raise TypeMismatch(
                f"binding {name!r} is a {b.kind}, expected {kind}")
        return b


# A complex is stored degree by degree from its lowest to its highest
# nonzero dim, so the parser bounds that span.
MAX_DEGREE_SPAN = 10_000


# --- tokenizer --------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>(?:-|−)?\d+(?:/\d+)?)
  | (?P<dotdot>\.\.)
  | (?P<arrow>->)
  | (?P<fatarrow>=>)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<quoted>"(?:[^"\\\n]|\\.)*")
  | (?P<punct>[{}\[\]():;,=*])
""", re.VERBOSE)


@record(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[Token]:
    out, line, col, i = [], 1, 1, 0
    while i < len(source):
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ParseError(f"unexpected character {source[i]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "newline":
            out.append(Token("newline", "\n", line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                out.append(Token(kind, text, line, col))
            col += len(text)
        i = m.end()
    out.append(Token("eof", "", line, col))
    return out


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Token:
        p = self.pos
        while self.toks[p].kind == "newline":
            p += 1
        return self.toks[p]

    def next(self) -> Token:
        while self.toks[self.pos].kind == "newline":
            self.pos += 1
        t = self.toks[self.pos]
        if t.kind != "eof":          # the end token is never consumed
            self.pos += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.next()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text!r}",
                             t.line, t.col)
        return t

    def skip_statement_seps(self):
        while True:
            t = self.toks[self.pos]
            if t.kind == "newline" or (t.kind == "punct" and t.text == ";"):
                self.pos += 1
            else:
                return

    def entry(self) -> Optional[Token]:
        """The first token of the next entry of a `{ ... }` body, or None
        once its closing brace is consumed."""
        self.skip_statement_seps()
        t = self.peek()
        if t.kind == "punct" and t.text == "}":
            self.next()
            return None
        return t

    def comma_list(self, item) -> list:
        """One or more items, each read by `item()`, separated by commas."""
        items = [item()]
        while self.peek().text == ",":
            self.next()
            items.append(item())
        return items

    def parse_name(self) -> str:
        """An arrow name in a category body: IDENT or a quoted label."""
        t = self.peek()
        if t.kind != "quoted":
            return self.expect("ident").text
        self.next()
        try:
            return json.loads(t.text)
        except ValueError:
            raise ParseError(f"bad quoted label {t.text}", t.line, t.col) \
                from None

    def parse_label(self) -> str:
        """An object/morphism label: IDENT, a quoted label or a tuple
        (l1,l2)."""
        t = self.peek()
        if t.kind in ("ident", "quoted"):
            return self.parse_name()
        if t.kind == "punct" and t.text == "(":
            self.next()
            a = self.parse_label()
            self.expect("punct", ",")
            b = self.parse_label()
            self.expect("punct", ")")
            return f"({a},{b})"
        raise ParseError(f"expected a label, found {t.text!r}", t.line, t.col)

    def parse_number(self) -> Fraction:
        t = self.expect("number")
        text = t.text.replace("−", "-")
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise ParseError(f"zero denominator in {t.text!r}",
                                 t.line, t.col)
            return Fraction(int(num), int(den))
        return Fraction(int(text))

    def parse_int(self) -> int:
        t = self.peek()
        v = self.parse_number()
        if v.denominator != 1:
            raise ParseError("expected an integer", t.line, t.col)
        return int(v)

    def parse_matrix(self) -> list[list[Fraction]]:
        self.expect("punct", "[")
        rows = []
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text == "]":
                self.next()
                break
            self.expect("punct", "[")
            row = []
            while True:
                t2 = self.peek()
                if t2.kind == "punct" and t2.text == "]":
                    self.next()
                    break
                row.append(self.parse_number())
                if self.peek().text == ",":
                    self.next()
            rows.append(row)
            if self.peek().text == ",":
                self.next()
        return rows


# --- declaration collection ---------------------------------------------------

def parse(source: str) -> Workspace:
    """Parse a workspace file; every binding is validated by its owning
    module before it becomes queryable."""
    p = _Parser(_tokenize(source))
    ws = Workspace()
    while True:
        p.skip_statement_seps()
        t = p.peek()
        if t.kind == "eof":
            break
        if t.kind != "ident":
            raise ParseError(f"expected a declaration, found {t.text!r}",
                             t.line, t.col)
        if t.text == "category":
            _parse_category(p, ws)
        elif t.text == "complex":
            _parse_complex(p, ws)
        elif t.text == "diagram":
            _parse_diagram(p, ws)
        elif t.text == "functor":
            _parse_functor(p, ws)
        else:
            raise ParseError(f"unknown declaration {t.text!r}", t.line, t.col)
    return ws


def _named_error(name: str, exc: EngineError, line=None):
    loc = f" (declared at line {line})" if line else ""
    exc.args = (f"in binding {name!r}{loc}: "
                f"{exc.args[0] if exc.args else ''}",)
    return exc


def _parse_category(p: _Parser, ws: Workspace):
    p.expect("ident", "category")
    tok = p.expect("ident")
    name, decl_line = tok.text, tok.line
    p.expect("punct", "{")
    objects: list[str] = []
    arrows: list[tuple[str, str, str]] = []   # label, src, tgt
    relations: list[tuple[str, str]] = []
    compose_entries: list[tuple[str, str, str]] = []

    def arrow():
        lab = p.parse_name()
        p.expect("punct", ":")
        src = p.parse_label()
        p.expect("arrow")
        return lab, src, p.parse_label()

    def relation():
        lhs = p.expect("ident").text
        p.expect("punct", "=")
        return lhs, p.expect("ident").text

    def compose_entry():
        g = p.parse_name()
        p.expect("punct", "*")
        f = p.parse_name()
        p.expect("punct", "=")
        return g, f, p.parse_name()

    fields = {"objects": (objects, p.parse_label), "arrows": (arrows, arrow),
              "relations": (relations, relation),
              "compose": (compose_entries, compose_entry)}
    while (t := p.entry()) is not None:
        key = p.expect("ident").text
        p.expect("punct", ":")
        if key not in fields:
            raise ParseError(f"unknown category field {key!r}",
                             t.line, t.col)
        out, item = fields[key]
        out += p.comma_list(item)
    if compose_entries and relations:
        raise ParseError(f"category {name!r}: give either relations "
                         f"(presentation mode) or compose (table mode)")
    try:
        obj_index = {o: i for i, o in enumerate(objects)}
        arr = []
        for lab, src, tgt in arrows:
            if src not in obj_index or tgt not in obj_index:
                raise ParseError(f"arrow {lab!r} references an unknown object")
            arr.append((lab, obj_index[src], obj_index[tgt]))
        if compose_entries:
            C = _category_from_table(objects, arr, compose_entries)
        else:
            arrow_index = {lab: i for i, (lab, _, _) in enumerate(arr)}
            C = category_from_presentation(objects, arr, [
                (_path_of(lhs, arrow_index), _path_of(rhs, arrow_index))
                for lhs, rhs in relations])
    except EngineError as e:
        raise _named_error(name, e, decl_line)
    ws.add(Binding(name, "category", C, meta={"line": decl_line}))


def _path_of(text: str, arrow_index: dict[str, int]) -> tuple[int, ...]:
    # "g.f" composes left of dot after right of dot: the path is (f, g)
    names = text.split(".")
    for n in names:
        if n not in arrow_index:
            raise ParseError(f"relation references unknown arrow {n!r}")
    return tuple(arrow_index[n] for n in reversed(names))


def _category_from_table(objects, arrows, compose_entries) -> FinCategory:
    """`arrows` are (label, source index, target index)."""
    n = len(objects)
    labels = [f"id_{o}" for o in objects] + [lab for lab, _, _ in arrows]
    src = list(range(n)) + [s for _, s, _ in arrows]
    tgt = list(range(n)) + [t for _, _, t in arrows]
    mor_index = {lab: i for i, lab in enumerate(labels)}
    table = {}
    for m in range(len(labels)):
        table[(tgt[m], m)] = m
        table[(m, src[m])] = m
    for g, f, h in compose_entries:
        for nm in (g, f, h):
            if nm not in mor_index:
                raise ParseError(f"compose entry references unknown "
                                 f"morphism {nm!r}")
        table[(mor_index[g], mor_index[f])] = mor_index[h]
    return validate_category(FinCategory(
        n, tuple(objects), tuple(src), tuple(tgt), tuple(labels),
        tuple(range(n)), table))


def _parse_complex(p: _Parser, ws: Workspace):
    p.expect("ident", "complex")
    tok = p.expect("ident")
    name, decl_line = tok.text, tok.line
    p.expect("punct", "{")
    lo = hi = None
    dims: dict[int, int] = {}
    diffs: dict[int, list[list[Fraction]]] = {}
    while (t := p.entry()) is not None:
        key = p.expect("ident").text
        if key == "degrees":
            p.expect("punct", ":")
            lo = p.parse_int()
            p.expect("dotdot")
            hi = p.parse_int()
        elif key == "dim":
            k = p.parse_int()
            p.expect("punct", ":")
            dims[k] = p.parse_int()
        elif key == "d":
            k = p.parse_int()
            p.expect("punct", ":")
            diffs[k] = p.parse_matrix()
        else:
            raise ParseError(f"unknown complex field {key!r}", t.line, t.col)
    if lo is None:
        raise ParseError(f"complex {name!r} lacks a degrees range")
    support = [k for k, v in dims.items() if v]
    if support and max(support) - min(support) >= MAX_DEGREE_SPAN:
        raise ParseError(f"complex {name!r}: its nonzero dims span more "
                         f"than {MAX_DEGREE_SPAN} degrees", decl_line)
    for k in dims:
        if not lo <= k <= hi:
            raise ParseError(f"complex {name!r}: dim {k} outside the "
                             f"declared range {lo}..{hi}")
    for k in diffs:
        if not lo < k <= hi:
            raise ParseError(f"complex {name!r}: d {k} outside the "
                             f"declared range {lo}..{hi}")
    diff_m = {}
    for k, rows in diffs.items():
        r, c = dims.get(k - 1, 0), dims.get(k, 0)
        flat = [list(row) for row in rows]
        if len(flat) != r or any(len(row) != c for row in flat):
            raise ParseError(
                f"complex {name!r}: d {k} should be {r}x{c}")
        diff_m[k] = RationalMatrix.from_rows(flat, rows=r, cols=c)
    try:
        C = make_complex(dims, diff_m)
    except EngineError as e:
        raise _named_error(name, e, decl_line)
    ws.add(Binding(name, "complex", C,
                   meta={"declared_lo": lo, "declared_hi": hi,
                         "line": decl_line}))


def _resolve_base(p: _Parser, ws: Workspace) -> tuple[FinCategory, str]:
    def atom():
        t = p.peek()
        if t.kind == "ident" and t.text == "op":
            p.next()
            p.expect("punct", "(")
            inner = p.expect("ident").text
            p.expect("punct", ")")
            return opposite(ws.get(inner, "category").value), f"op({inner})"
        nm = p.expect("ident").text
        return ws.get(nm, "category").value, nm

    C, expr = atom()
    while p.peek().text == "*":
        p.next()
        D, dexpr = atom()
        C = product(C, D)
        expr = f"{expr} * {dexpr}"
    return C, expr


def _parse_diagram(p: _Parser, ws: Workspace):
    p.expect("ident", "diagram")
    tok = p.expect("ident")
    name, decl_line = tok.text, tok.line
    p.expect("ident", "over")
    base, base_expr = _resolve_base(p, ws)
    p.expect("ident", "into")
    target = p.expect("ident").text
    if target not in ("Ch", "FinSet"):
        raise ParseError(f"diagram target must be Ch or FinSet, "
                         f"got {target!r}")
    p.expect("punct", "{")
    at_entries: dict[str, object] = {}
    on_entries: dict[str, object] = {}

    def deg():
        p.expect("ident", "deg")
        k = p.parse_int()
        p.expect("punct", ":")
        return k, p.parse_matrix()

    def pair():
        e1 = p.next()
        p.expect("arrow")
        return e1.text, p.next().text

    while (t := p.entry()) is not None:
        key = p.expect("ident").text
        if key == "at":
            lab = p.parse_label()
            p.expect("punct", ":")
            if target == "Ch":
                at_entries[lab] = p.expect("ident").text
            else:
                p.expect("punct", "{")
                elems = []
                while p.peek().text != "}":
                    e = p.next()
                    if e.kind not in ("ident", "number"):
                        raise ParseError("bad element", e.line, e.col)
                    elems.append(e.text)
                    if p.peek().text == ",":
                        p.next()
                p.expect("punct", "}")
                at_entries[lab] = tuple(elems)
        elif key == "on":
            lab = p.parse_label()
            p.expect("punct", ":")
            if target == "Ch" and p.peek().text == "deg":
                on_entries[lab] = dict(p.comma_list(deg))
            elif target == "Ch":
                on_entries[lab] = {None: p.parse_matrix()}
            else:
                on_entries[lab] = p.comma_list(pair)
        else:
            raise ParseError(f"unknown diagram field {key!r}", t.line, t.col)
    try:
        if target == "Ch":
            D = _build_chain_diagram(base, at_entries, on_entries, ws)
            kind = "diagram_ch"
        else:
            D = _build_finset_diagram(base, at_entries, on_entries)
            kind = "diagram_finset"
    except EngineError as e:
        raise _named_error(name, e, decl_line)
    ws.add(Binding(name, kind, D,
                   meta={"base_expr": base_expr, "at_refs": dict(at_entries),
                         "line": decl_line}))


def _obj_by_label(C: FinCategory, lab: str) -> int:
    try:
        return C.obj_labels.index(lab)
    except ValueError:
        raise UnknownBinding(f"no object labelled {lab!r}") from None


def _mor_by_label(C: FinCategory, lab: str) -> int:
    try:
        return C.mor_labels.index(lab)
    except ValueError:
        raise UnknownBinding(f"no morphism labelled {lab!r}") from None


def _derive_actions(C: FinCategory, known: dict, compose, forced=None):
    """Extend generator actions to all morphisms through the table.

    `forced` may supply the action for morphisms whose action is the
    unique possibility (zero hom space, empty source set)."""
    if forced is not None:
        for m in C.morphisms():
            if m not in known:
                a = forced(m)
                if a is not None:
                    known[m] = a
    changed = True
    while changed:
        changed = False
        for (g, f), h in C.compose_table.items():
            if h not in known and g in known and f in known:
                known[h] = compose(known[g], known[f])
                changed = True
    missing = [m for m in C.morphisms() if m not in known]
    if missing:
        raise UnknownBinding(
            f"no action given (or derivable) for morphism "
            f"{C.mor_labels[missing[0]]!r}")
    return known


def _build_chain_diagram(C, at_entries, on_entries, ws) -> ChainDiagram:
    values: list[ChainComplex] = []
    for x in C.objects():
        lab = C.obj_labels[x]
        if lab not in at_entries:
            raise UnknownBinding(f"no value given at object {lab!r}")
        values.append(ws.get(at_entries[lab], "complex").value)
    known: dict[int, ChainMap] = {}
    for x in C.objects():
        known[C.identity[x]] = chaincx.identity_map(values[x])
    for lab, comps in on_entries.items():
        m = _mor_by_label(C, lab)
        src, tgt = values[C.src(m)], values[C.tgt(m)]
        if None in comps:
            support = [k for k in src.degrees() if src.dim(k)]
            if len(support) != 1:
                raise TypeMismatch(
                    f"shorthand matrix for {lab!r} needs a single-degree "
                    f"source complex")
            comps = {support[0]: comps[None]}
        comp_m: dict[int, RationalMatrix] = {}
        for k, rows in comps.items():
            r, c = tgt.dim(k), src.dim(k)
            if len(rows) != r or any(len(row) != c for row in rows):
                raise ShapeMismatch(
                    f"action on {lab!r} at degree {k} should be {r}x{c}")
            comp_m[k] = RationalMatrix.from_rows(rows, rows=r, cols=c)
        known[m] = make_chain_map(src, tgt, comp_m, check=True)

    def forced(m):
        src, tgt = values[C.src(m)], values[C.tgt(m)]
        if all(src.dim(k) == 0 or tgt.dim(k) == 0 for k in src.degrees()):
            return make_chain_map(src, tgt, {}, check=False)
        return None

    _derive_actions(C, known, chaincx.compose_maps, forced)
    return validate_chain_diagram(ChainDiagram(C, values, known))


def _build_finset_diagram(C, at_entries, on_entries) -> FinSetDiagram:
    values = []
    for x in C.objects():
        lab = C.obj_labels[x]
        if lab not in at_entries:
            raise UnknownBinding(f"no value given at object {lab!r}")
        values.append(tuple(at_entries[lab]))
    known: dict[int, dict] = {}
    for x in C.objects():
        known[C.identity[x]] = {e: e for e in values[x]}
    for lab, pairs in on_entries.items():
        m = _mor_by_label(C, lab)
        src, tgt = values[C.src(m)], values[C.tgt(m)]
        known[m] = dict(pairs)
        if set(known[m]) != set(src) or not set(known[m].values()) <= set(tgt):
            raise DiagramError(
                f"on {lab!r} must send {{{', '.join(src)}}} into "
                f"{{{', '.join(tgt)}}}")

    def compose(ag, af):
        return {e: ag[v] for e, v in af.items()}

    def forced(m):
        return {} if not values[C.src(m)] else None

    _derive_actions(C, known, compose, forced)
    return validate_finset_diagram(FinSetDiagram(C, tuple(values), known))


def _parse_functor(p: _Parser, ws: Workspace):
    p.expect("ident", "functor")
    tok = p.expect("ident")
    name, decl_line = tok.text, tok.line
    p.expect("punct", ":")
    src_name = p.expect("ident").text
    p.expect("arrow")
    tgt_name = p.expect("ident").text
    p.expect("punct", "{")
    entries = []
    while (t := p.entry()) is not None:
        a = p.parse_label()
        p.expect("fatarrow")
        b = p.parse_label()
        entries.append((a, b))
    S = ws.get(src_name, "category").value
    T = ws.get(tgt_name, "category").value
    obj_map: dict[int, int] = {}
    mor_known: dict[int, int] = {}
    try:
        for a, b in entries:
            if a in S.obj_labels and a in S.mor_labels:
                raise ParseError(
                    f"label {a!r} names both an object and a morphism")
            if a in S.obj_labels:
                obj_map[_obj_by_label(S, a)] = _obj_by_label(T, b)
            else:
                mor_known[_mor_by_label(S, a)] = _mor_by_label(T, b)
        if len(obj_map) != S.n_objects:
            missing = [S.obj_labels[x] for x in S.objects()
                       if x not in obj_map]
            raise UnknownBinding(f"functor lacks an image for object "
                                 f"{missing[0]!r}")
        for x in S.objects():
            mor_known[S.identity[x]] = T.identity[obj_map[x]]
        _derive_actions(S, mor_known, lambda g, f: T.comp(g, f))
        F = validate_functor(FunctorData(
            S, T, tuple(obj_map[x] for x in S.objects()),
            tuple(mor_known[m] for m in S.morphisms())))
    except EngineError as e:
        raise _named_error(name, e, decl_line)
    ws.add(Binding(name, "functor", F,
                   meta={"source": src_name, "target": tgt_name,
                         "line": decl_line}))
