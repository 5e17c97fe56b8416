"""Command dispatch and the `holim-engine` entry point.

Exit codes: 0 = success / all checks passed, 1 = computation error,
2 = a verification verdict failed.  JSON output is deterministic:
sorted keys, fixed separators, newline-terminated.
"""

from __future__ import annotations

import argparse
import json
import random
import shlex
import sys
from typing import Optional

from . import dsl
from .chaincx import betti_numbers
from .errors import EngineError, ParseError, TypeMismatch, UnknownBinding
from .records import record

# `endkan`, `holim`, `ssets` and the verify suites (`verify`) are
# imported inside the handlers that call them, so that a command loads
# only the engine modules it runs; without cached bytecode every import
# is a compile.

USAGE_COMMANDS = ("end", "coend", "lim", "colim", "lan", "ran", "nerve",
                  "homology", "holim", "hopullback", "fattot", "hoinitial",
                  "compare-holim", "verify")


@record
class Report:
    command: str
    human: str
    payload: dict
    verdict: Optional[str] = None

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict in (None, "pass") else 2


def _betti_json(betti: dict[int, int]) -> dict[str, int]:
    return {str(k): v for k, v in sorted(betti.items())}


def _fmt_elem(e) -> str:
    if isinstance(e, tuple):
        return "(" + ",".join(_fmt_elem(x) for x in e) + ")"
    return str(e)


def run_command(ws: dsl.Workspace, command: str, depth: int = 4,
                seed: int = 0) -> Report:
    try:
        parts = shlex.split(command)
    except ValueError as e:     # an unbalanced quote or a trailing escape
        raise TypeMismatch(f"{e} in command {command!r}") from None
    if not parts:
        raise TypeMismatch("empty command")
    cmd, args = parts[0], parts[1:]
    if depth < 0:
        raise TypeMismatch(f"--depth must be at least 0, got {depth}")
    if cmd not in USAGE_COMMANDS:
        raise TypeMismatch(f"unknown command {cmd!r}; commands: "
                           f"{', '.join(USAGE_COMMANDS)}")
    handler = {
        "end": _cmd_end, "coend": _cmd_coend, "lim": _cmd_lim,
        "colim": _cmd_colim, "lan": _cmd_lan, "ran": _cmd_ran,
        "nerve": _cmd_nerve, "homology": _cmd_homology,
        "holim": _cmd_holim, "hopullback": _cmd_hopullback,
        "fattot": _cmd_fattot, "hoinitial": _cmd_hoinitial,
        "compare-holim": _cmd_compare_holim, "verify": _cmd_verify,
    }[cmd]
    return handler(ws, args, depth=depth, seed=seed)


def _one_arg(args, cmd):
    if len(args) != 1:
        raise TypeMismatch(f"{cmd} expects exactly one binding name")
    return args[0]


def _cmd_end(ws, args, **kw):
    name = _one_arg(args, "end")
    b = ws.bindings.get(name)
    if b is None:
        raise UnknownBinding(f"no binding named {name!r}")
    if b.kind == "diagram_finset":
        from .endkan import end_finset
        elems = end_finset(b.value)
        return Report("end",
                      f"{len(elems)} elements\n" +
                      "\n".join("  " + _fmt_elem(e) for e in elems),
                      {"command": "end", "size": len(elems),
                       "elements": [_fmt_elem(e) for e in elems]})
    if b.kind == "diagram_ch":
        from .endkan import end_chain
        E = end_chain(b.value)
        betti = betti_numbers(E.complex)
        return Report("end", f"end complex betti: {betti}",
                      {"command": "end", "betti": _betti_json(betti)})
    raise TypeMismatch(f"end expects a diagram, got {b.kind}")


def _cmd_coend(ws, args, **kw):
    name = _one_arg(args, "coend")
    b = ws.get(name, "diagram_finset")
    from .endkan import coend_finset
    col = coend_finset(b.value)
    return Report(
        "coend",
        f"{len(col.classes)} classes\n" +
        "\n".join("  {" + ", ".join(_fmt_elem(e) for e in cl) + "}"
                  for cl in col.classes),
        {"command": "coend", "size": len(col.classes),
         "classes": [[_fmt_elem(e) for e in cl] for cl in col.classes]})


def _cmd_lim(ws, args, **kw):
    name = _one_arg(args, "lim")
    b = ws.get(name, "diagram_finset")
    from .endkan import finset_limit
    lim = finset_limit(b.value)
    return Report("lim",
                  f"{len(lim.elements)} elements\n" +
                  "\n".join("  " + _fmt_elem(e) for e in lim.elements),
                  {"command": "lim", "size": len(lim.elements),
                   "elements": [_fmt_elem(e) for e in lim.elements]})


def _cmd_colim(ws, args, **kw):
    name = _one_arg(args, "colim")
    b = ws.get(name, "diagram_finset")
    from .endkan import finset_colimit
    col = finset_colimit(b.value)
    return Report(
        "colim",
        f"{len(col.classes)} classes",
        {"command": "colim", "size": len(col.classes),
         "classes": [[_fmt_elem(e) for e in cl] for cl in col.classes]})


def _kan(ws, args, which, op):
    if len(args) != 2:
        raise TypeMismatch(f"{which} expects: {which} FUNCTOR DIAGRAM")
    f = ws.get(args[0], "functor").value
    D = ws.get(args[1], "diagram_finset").value
    ke = op(f, D)
    sizes = {f.target.obj_labels[x]: len(ke.diagram.values[x])
             for x in f.target.objects()}
    human = "\n".join(f"  at {lab}: {n} elements"
                      for lab, n in sorted(sizes.items()))
    return Report(which, human,
                  {"command": which, "sizes": dict(sorted(sizes.items()))})


def _cmd_lan(ws, args, **kw):
    from .endkan import lan
    return _kan(ws, args, "lan", lan)


def _cmd_ran(ws, args, **kw):
    from .endkan import ran
    return _kan(ws, args, "ran", ran)


def _cmd_nerve(ws, args, **kw):
    name = _one_arg(args, "nerve")
    C = ws.get(name, "category").value
    from .ssets import nerve
    K = nerve(C)
    counts = {str(n): len(cs) for n, cs in enumerate(K.cells)}
    human = "\n".join(f"  dimension {n}: {len(cs)} cells"
                      for n, cs in enumerate(K.cells))
    return Report("nerve", human, {"command": "nerve", "cells": counts})


def _cmd_homology(ws, args, **kw):
    name = _one_arg(args, "homology")
    C = ws.get(name, "complex").value
    betti = betti_numbers(C)
    return Report("homology", f"betti: {betti}",
                  {"command": "homology", "betti": _betti_json(betti)})


def _cmd_holim(ws, args, **kw):
    name = _one_arg(args, "holim")
    D = ws.get(name, "diagram_ch").value
    from . import holim
    res = holim.bk_holim(D)
    return Report("holim",
                  f"betti: {res.betti}\nprovenance: {res.provenance}",
                  {"command": "holim", "betti": _betti_json(res.betti),
                   "provenance": res.provenance})


def _cmd_hopullback(ws, args, **kw):
    name = _one_arg(args, "hopullback")
    D = ws.get(name, "diagram_ch").value
    from . import holim
    p, q = holim.cospan_legs(D)
    res, rep = holim.homotopy_pullback(p, q)
    verdict = "pass" if rep.passed else "fail"
    return Report(
        "hopullback",
        f"betti: {res.betti}\noracle betti: {rep.betti_oracle}\n"
        f"oracle agreement: {verdict}",
        {"command": "hopullback", "betti": _betti_json(res.betti),
         "oracle_betti": _betti_json(rep.betti_oracle),
         "provenance": res.provenance, "verdict": verdict},
        verdict=verdict)


def _cmd_fattot(ws, args, depth=4, **kw):
    name = _one_arg(args, "fattot")
    D = ws.get(name, "diagram_ch").value
    from . import holim
    X = holim.cosimplicial_replacement(D, depth)
    res = holim.fat_tot(X)
    # degrees below the stable range are truncation artifacts; report
    # only what the truncation bound certifies
    stable = {k: v for k, v in res.betti.items() if k >= res.stable_from}
    return Report(
        "fattot",
        f"betti: {stable}\nstable for degrees >= {res.stable_from}\n"
        f"provenance: {res.provenance}",
        {"command": "fattot", "betti": _betti_json(stable),
         "stable_from": res.stable_from, "truncation": res.truncation,
         "provenance": res.provenance})


def _cmd_hoinitial(ws, args, **kw):
    name = _one_arg(args, "hoinitial")
    f = ws.get(name, "functor").value
    from . import holim
    rep = holim.check_homotopy_initial(f)
    verdict = "pass" if rep.passed else "fail"
    lines = [f"  at {f.target.obj_labels[x]}: "
             f"{'contractible' if ok else 'NOT contractible'}"
             for x, ok in enumerate(rep.per_object)]
    return Report("hoinitial", "\n".join(lines + [verdict]),
                  {"command": "hoinitial", "verdict": verdict,
                   "per_object": {f.target.obj_labels[x]: ok
                                  for x, ok in enumerate(rep.per_object)}},
                  verdict=verdict)


def _cmd_compare_holim(ws, args, **kw):
    if len(args) != 2:
        raise TypeMismatch("compare-holim expects: compare-holim FUNCTOR "
                           "DIAGRAM")
    f = ws.get(args[0], "functor").value
    D = ws.get(args[1], "diagram_ch").value
    from . import holim
    cmap, rep = holim.comparison_map(f, D)
    verdict = "pass" if rep.quasi_iso else "fail"
    return Report(
        "compare-holim",
        f"holim over target betti: {rep.betti_full}\n"
        f"holim of restriction betti: {rep.betti_restricted}\n"
        f"comparison quasi-isomorphism: {verdict}",
        {"command": "compare-holim", "verdict": verdict,
         "betti_target": _betti_json(rep.betti_full),
         "betti_restricted": _betti_json(rep.betti_restricted),
         "change_of_diagrams_ok": rep.change_of_diagrams_ok},
        verdict=verdict)


def _cmd_verify(ws, args, seed=0, **kw):
    if len(args) > 1:
        raise TypeMismatch("verify expects at most one suite name")
    suite_name = args[0] if args else "all"
    from .verify import SUITES
    if suite_name not in SUITES:
        raise TypeMismatch(f"unknown suite {suite_name!r}; suites: "
                           f"{', '.join(sorted(SUITES))}")
    rng = random.Random(seed)
    items = []
    for gen in SUITES[suite_name]:
        items.extend(gen(ws, rng))
    results = []
    for name, fn in items:
        try:
            ok, detail = fn()
        except EngineError as e:
            ok, detail = False, str(e)
        results.append((name, ok, detail))
    lines = []
    for name, ok, detail in results:
        mark = "PASS" if ok else "FAIL"
        lines.append(f"{mark} {name}" + (f": {detail}" if detail else ""))
    n_fail = sum(1 for _, ok, _ in results if not ok)
    verdict = "pass" if n_fail == 0 else "fail"
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return Report(
        "verify", "\n".join(lines),
        {"command": "verify", "suite": suite_name, "verdict": verdict,
         "items": [{"name": n, "passed": ok, "detail": d}
                   for n, ok, d in results]},
        verdict=verdict)


# --- entry point --------------------------------------------------------------------

def _workspace_text(data: bytes) -> str:
    """The workspace file as text, newlines read as text mode reads
    them and one leading byte-order mark skipped.  A byte that is not
    UTF-8 is a ParseError at its line and column."""
    # \r and \n never occur inside a multi-byte UTF-8 sequence
    data = data.removeprefix(b"\xef\xbb\xbf").replace(b"\r\n", b"\n") \
        .replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = data[:e.start].decode("utf-8")
        raise ParseError(f"byte 0x{data[e.start]:02x} is not UTF-8",
                         before.count("\n") + 1,
                         len(before) - before.rfind("\n")) from None


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="holim-engine",
        description="ends, Kan extensions and homotopy limits over finite "
                    "categories, exactly")
    ap.add_argument("file", help="workspace file (.hle)")
    ap.add_argument("--cmd", required=True,
                    help="command to run, e.g. 'holim D' or 'verify all'")
    ap.add_argument("--json", action="store_true", help="emit JSON")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized verification items")
    ap.add_argument("--depth", type=int, default=4,
                    help="truncation depth for fattot")
    ns = ap.parse_args(argv)
    try:
        with open(ns.file, "rb") as fh:
            source = _workspace_text(fh.read())
        ws = dsl.parse(source)
        report = run_command(ws, ns.cmd, depth=ns.depth, seed=ns.seed)
    except EngineError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if ns.json:
        print(json.dumps(report.payload, sort_keys=True,
                         separators=(", ", ": ")))
    else:
        print(report.human)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
