"""The workspace printer: `pretty_print`, the canonical text form that
`dsl.parse` reads back.  No command prints a workspace, so no command
loads this module.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .chaincx import ChainComplex
from .dsl import Binding, Workspace, _named_error, _Parser, _tokenize
from .errors import DiagramError, ParseError
from .exactalg import RationalMatrix
from .fincat import FinCategory, FunctorData


def _fmt_frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def _fmt_matrix(m: RationalMatrix) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(_fmt_frac(v) for v in m.row(i)) + "]"
        for i in range(m.rows)) + "]"


def _spell(label: str, read=_Parser.parse_label) -> str:
    """`label` as `read` reads it back: bare when it reads back whole,
    else quoted."""
    try:
        p = _Parser(_tokenize(label))
        if read(p) == label and p.next().kind == "eof":
            return label
    except ParseError:
        pass
    return json.dumps(label)


def _mor_name(C: FinCategory, m: int) -> str:
    """The label `parse` gives morphism m: `id_<object>` for an identity,
    whatever C calls it, and a pair of such names over a product."""
    if C.product_of is not None:
        A, B = C.product_of
        a, b = divmod(m, B.n_morphisms)
        return f"({_mor_name(A, a)},{_mor_name(B, b)})"
    return f"id_{C.obj_labels[C.src(m)]}" if C.is_identity(m) \
        else C.mor_labels[m]


def _mor_order(C: FinCategory, m: int) -> tuple:
    """A sort key for the morphisms of C that `parse` keeps: identities
    first, in object order, then the other morphisms in their order in
    C, componentwise over a product.  A parsed category is numbered in
    this order; `from_poset` numbers each identity among the arrows."""
    if C.product_of is not None:
        A, B = C.product_of
        a, b = divmod(m, B.n_morphisms)
        return _mor_order(A, a) + _mor_order(B, b)
    return (0, C.src(m)) if C.is_identity(m) else (1, m)


def _printed_non_identities(C: FinCategory) -> list[int]:
    return sorted(C.non_identities(), key=lambda m: _mor_order(C, m))


def _print_category(b: Binding) -> str:
    C: FinCategory = b.value

    def name(m):
        return _spell(_mor_name(C, m), _Parser.parse_name)

    def obj(x):
        return _spell(C.obj_labels[x])

    lines = [f"category {b.name} {{"]
    lines.append("  objects: " + ", ".join(map(obj, C.objects())))
    nonid = C.non_identities()
    if nonid:
        lines.append("  arrows: " + ", ".join(
            f"{name(m)}: {obj(C.src(m))} -> {obj(C.tgt(m))}" for m in nonid))
        entries = []
        for g in nonid:
            for f in nonid:
                if C.mor_tgt[f] == C.mor_src[g]:
                    entries.append(
                        f"{name(g)} * {name(f)} = {name(C.comp(g, f))}")
        if entries:
            lines.append("  compose: " + ", ".join(entries))
    lines.append("}")
    return "\n".join(lines)


def _print_complex(b: Binding) -> str:
    C: ChainComplex = b.value
    lo = b.meta.get("declared_lo", C.lo)
    hi = b.meta.get("declared_hi", C.hi)
    lines = [f"complex {b.name} {{", f"  degrees: {lo}..{hi}"]
    for k in C.degrees():
        if C.dim(k):
            lines.append(f"  dim {k}: {C.dim(k)}")
    for k in range(C.lo + 1, C.hi + 1):
        d = C.d(k)
        if not d.is_zero():
            lines.append(f"  d {k}: {_fmt_matrix(d)}")
    lines.append("}")
    return "\n".join(lines)


def _print_diagram(b: Binding) -> str:
    kind = "Ch" if b.kind == "diagram_ch" else "FinSet"
    D = b.value
    C = D.base
    lines = [f"diagram {b.name} over {b.meta['base_expr']} into {kind} {{"]
    if kind == "Ch":
        for x in C.objects():
            lines.append(f"  at {_spell(C.obj_labels[x])}: "
                         f"{b.meta['at_refs'][C.obj_labels[x]]}")
        for m in _printed_non_identities(C):
            a = D.action(m)
            parts = [f"deg {k}: {_fmt_matrix(a.component(k))}"
                     for k in a.source.degrees()
                     if a.source.dim(k) and a.target.dim(k)]
            if parts:
                lines.append(f"  on {_spell(_mor_name(C, m))}: " +
                             ", ".join(parts))
    else:
        for x in C.objects():
            lab = C.obj_labels[x]
            lines.append(f"  at {_spell(lab)}: {{" + ", ".join(
                _element(b, lab, e) for e in D.values[x]) + "}")
        for m in _printed_non_identities(C):
            act = D.actions[m]
            if act:
                lines.append(f"  on {_spell(_mor_name(C, m))}: " + ", ".join(
                    f"{e} -> {v}" for e, v in act.items()))
    lines.append("}")
    return "\n".join(lines)


def _element(b: Binding, lab: str, e) -> str:
    """Element e of the set at object `lab`, printed bare: the grammar
    reads an element as one identifier or number, and has no quoted
    form for any other element."""
    if isinstance(e, str):
        try:
            toks = _tokenize(e)
        except ParseError:
            toks = ()
        if len(toks) == 2 and toks[0].kind in ("ident", "number") \
                and toks[0].text == e:
            return e
    raise _named_error(b.name, DiagramError(
        f"element {e!r} of the set at {lab!r} has no printed form (an "
        f"element is one identifier or number)"), b.meta.get("line"))


def _print_functor(b: Binding) -> str:
    F: FunctorData = b.value
    S, T = F.source, F.target
    lines = [f"functor {b.name} : {b.meta['source']} -> "
             f"{b.meta['target']} {{"]
    for x in S.objects():
        lines.append(f"  {_spell(S.obj_labels[x])} => "
                     f"{_spell(T.obj_labels[F.object_map[x]])}")
    for m in _printed_non_identities(S):
        lines.append(f"  {_spell(_mor_name(S, m))} => "
                     f"{_spell(_mor_name(T, F.morphism_map[m]))}")
    lines.append("}")
    return "\n".join(lines)


def pretty_print(ws: Workspace) -> str:
    """Canonical text form; parse(pretty_print(ws)) rebuilds identical
    validated structures, except that `parse` names every identity
    `id_<object>`.  A label the grammar cannot read bare is quoted."""
    printers = {"category": _print_category, "complex": _print_complex,
                "diagram_ch": _print_diagram, "diagram_finset": _print_diagram,
                "functor": _print_functor}
    chunks = [printers[ws.bindings[name].kind](ws.bindings[name])
              for name in ws.order]
    return "\n\n".join(chunks) + "\n"
