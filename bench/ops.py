"""The four workloads: seeded op generators and their oracles.

An op is prepared outside the timed region (inputs drawn from a seeded
`random.Random`, corpus files parsed afresh) and then run through the
engine's public entry points only.  Its oracle is applied afterwards,
also untimed, so that nothing the oracle computes can warm a cache the
op then reuses.

The engine modules are looked up as module attributes at call time,
so the tracer's rebinding in `spans.py` sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Optional

from spans import complex_key

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "src" / "holim_engine" / "corpus"
EXPECTED = Path(__file__).resolve().parent / "expected"


@dataclass
class Op:
    cls: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]   # None when accepted
    key: object = None        # content fingerprint; None for corpus ops
    argv: Optional[list] = None   # cli-corpus ops run as a subprocess


class Engine:
    """The engine modules, imported once per process."""

    def __init__(self):
        from holim_engine import (chaincx, dsl, endkan, fincat, holim,
                                  randgen)
        self.chaincx, self.dsl, self.endkan = chaincx, dsl, endkan
        self.fincat, self.holim, self.randgen = fincat, holim, randgen


# --- shared helpers --------------------------------------------------------------

def _diagram_key(D):
    return tuple(complex_key(D.value(x)) for x in D.base.objects())


def _map_key(f):
    return tuple((k, m.entries) for k, m in sorted(f.components.items()))


def _materialize(D):
    """Build the input's own action table before timing, so the op times
    the engine and not the generator's lazy callbacks."""
    for m in D.base.morphisms():
        D.action(m)


def elim_size(values) -> int:
    """Cost proxy of the end over a diagram whose object x carries the
    weight Delta^x (chain_poset(n): the nerve of P/x = {0..x}; fat_tot:
    the x-simplex).  Returns the sum over degrees k of S_k^2, where S_k
    is the degree-k dimension of the diagonal sum of Hom(C(Delta^x), V_x)
    that end_chain eliminates; Delta^x has C(x+1, j+1) j-simplices."""
    width = {}
    for x, V in enumerate(values):
        for j in range(x + 1):
            for d, v in V.dims.items():
                width[d - j] = width.get(d - j, 0) + comb(x + 1, j + 1) * v
    return sum(w * w for w in width.values())


def _values(D):
    return [D.value(x) for x in D.base.objects()]


def _betti_check(got, want, what):
    return None if got == want else f"{what}: betti {got} != {want}"


def _components(nodes, edges):
    """Connected components by breadth-first search (independent of the
    engine's union-find)."""
    adj = {v: [] for v in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, comps = set(), []
    for v in nodes:
        if v in seen:
            continue
        comp, todo = {v}, [v]
        seen.add(v)
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    todo.append(w)
        comps.append(frozenset(comp))
    return set(comps)


# --- holim-poset -------------------------------------------------------------------

# elim_size windows, each within 5% of the median of the generator's
# distribution for that n: the stated input size of each bk_holim class
POSET_WINDOWS = {3: (2200, 2400), 4: (9800, 10800), 5: (41500, 45700),
                 6: (158000, 175000), 8: (2420000, 2680000)}


def make_bk_chain(E: Engine, n: int):
    lo, hi = POSET_WINDOWS[n]

    def make(rng):
        P = E.fincat.chain_poset(n)
        while True:
            F = E.randgen.random_poset_chain_diagram(rng, P, 2, 2, 3)
            if lo <= elim_size(_values(F)) <= hi:
                break
        _materialize(F)

        def check(betti):
            # object 0 is initial in chain_poset, so holim F = F(0)
            return _betti_check(betti, E.chaincx.betti_numbers(F.value(0)),
                                f"bk_holim chain_poset({n})")

        return Op(f"bk_holim.n{n}", lambda: E.holim.bk_holim(F).betti,
                  check, key=("bk", n, _diagram_key(F)))
    return make


def make_pullback(E: Engine):
    def make(rng):
        D = E.randgen.random_cospan_diagram(rng, 3, 3)
        C = D.base
        p, q = D.action(C.hom(0, 2)[0]), D.action(C.hom(1, 2)[0])

        def check(got):
            betti, passed = got
            if not passed:
                return "pullback report rejected by the mapping-path oracle"
            want = E.chaincx.betti_numbers(
                E.holim.mapping_path_complex(p, q))
            return _betti_check(betti, want, "homotopy_pullback")

        def run():
            res, rep = E.holim.homotopy_pullback(p, q)
            return res.betti, rep.passed

        return Op("homotopy_pullback", run, check,
                  key=("pb", _diagram_key(D), _map_key(p), _map_key(q)))
    return make


def make_comparison(E: Engine):
    def make(rng):
        P = E.randgen.random_poset(rng, 5, with_bottom=True)
        F = E.randgen.random_poset_chain_diagram(rng, P, 2, 2)
        _materialize(F)
        i = E.fincat.find_initial(P)
        incl = E.fincat.object_inclusion(P, i)

        def check(rep):
            if not rep.quasi_iso:
                return "comparison map along an initial object is not a " \
                       "quasi-isomorphism"
            want = E.chaincx.betti_numbers(F.value(i))
            return _betti_check(rep.betti_full, want, "holim over P") or \
                _betti_check(rep.betti_restricted, want, "holim over {0}")

        return Op("comparison_map", lambda: E.holim.comparison_map(incl, F)[1],
                  check, key=("cmp", repr(P), _diagram_key(F)))
    return make


# --- fattot-cospan -------------------------------------------------------------------

CORPUS_FATTOT = {"Loop": {-1: 1}, "Glue": {0: 1}}


def _stable(res):
    return {k: v for k, v in res.betti.items() if k >= res.stable_from}


def make_fattot_corpus(E: Engine, name: str, N: int):
    want = CORPUS_FATTOT[name]

    def make(rng):
        # a fresh parse per op: no lazy cache outlives the op
        ws = E.dsl.parse((CORPUS / "cospan.hle").read_text(encoding="utf-8"))
        D = ws.get(name, "diagram_ch").value

        def run():
            return _stable(E.holim.fat_tot(
                E.holim.cosimplicial_replacement(D, N)))

        return Op(f"fat_tot.{name}.N{N}", run,
                  lambda got: _betti_check(got, want, f"fat_tot {name} N={N}"))
    return make


# elim_size window of the random cospans at N=3, around the median
FATTOT_WINDOW = (24000, 31000)


def make_fattot_random(E: Engine, N: int = 3):
    lo, hi = FATTOT_WINDOW

    def make(rng):
        while True:
            D = E.randgen.random_cospan_diagram(rng, 2, 2, lo_min=0,
                                                hi_max=1)
            X = E.holim.cosimplicial_replacement(D, N)
            if lo <= elim_size(_values(X)) <= hi:
                break

        def run():
            return E.holim.fat_tot(E.holim.cosimplicial_replacement(D, N))

        def check(res):
            bk = E.holim.bk_holim(D).betti
            want = {k: v for k, v in bk.items() if k >= res.stable_from}
            return _betti_check(_stable(res), want,
                                f"fat_tot vs bk_holim N={N}")

        return Op(f"fat_tot.random.N{N}", run, check,
                  key=("ft", _diagram_key(D)))
    return make


# --- finset-enum ---------------------------------------------------------------------

PAIR_MIN, PAIR_MAX = 2_000, 20_000    # brute-force candidates per pair
# the max_size=5 reach rung: at least 10^13 candidates and a nonempty
# G(x) at every object, so the search is not cut short by an empty
# component
RUNG_PAIR_MIN = 10 ** 13


def _candidates(C, F, G):
    total = 1
    for x in C.objects():
        total *= max(1, len(G.values[x])) ** len(F.values[x])
    return total


def _finset_key(F):
    return repr((F.base.mor_src, F.base.mor_tgt, F.values,
                 sorted((m, sorted(a.items(), key=repr))
                        for m, a in F.actions.items())))


def draw_pair(E: Engine, rng, max_size, lo, hi, total=False):
    while True:
        C, paths, gens = E.randgen.random_free_category(rng, 6, 40)
        F = E.randgen.random_finset_diagram(rng, C, paths, gens, max_size)
        G = E.randgen.random_finset_diagram(rng, C, paths, gens, max_size)
        if lo <= _candidates(C, F, G) <= hi and \
                (not total or all(G.values)):
            return C, F, G


def make_pair(E: Engine, max_size=4, lo=PAIR_MIN, hi=PAIR_MAX,
              cls="finset_pair", total=False):
    def make(rng):
        C, F, G = draw_pair(E, rng, max_size, lo, hi, total)
        ek = E.endkan

        def run():
            H = ek.hom_bifunctor(F, G)
            return (H, ek.end_finset(H), ek.nat_trans_bruteforce(F, G),
                    ek.finset_limit(F), ek.finset_colimit(F),
                    ek.coend_finset(H))

        def check(got):
            H, end, brute, lim, colim, coend = got
            if len(end) != len(brute):
                return f"end size {len(end)} != brute-force {len(brute)}"
            point = ek.constant_finset_diagram(C, ("*",))
            if len(lim.elements) != len(ek.nat_trans_bruteforce(point, F)):
                return "limit size != cones from the point"
            nodes = [(x, e) for x in C.objects() for e in F.values[x]]
            edges = [((C.src(m), e), (C.tgt(m), F.actions[m][e]))
                     for m in C.morphisms() for e in F.values[C.src(m)]]
            if {frozenset(c) for c in colim.classes} != \
                    _components(nodes, edges):
                return "colimit classes != components of the elements"
            P = H.base
            fc = E.fincat
            nodes = [(g, e) for g in C.objects()
                     for e in H.value(fc.product_obj(P, g, g))]
            edges = []
            for f in C.morphisms():
                s, t = C.src(f), C.tgt(f)
                pull = H.action(fc.product_mor(P, f, C.identity[s]))
                push = H.action(fc.product_mor(P, C.identity[t], f))
                for u in H.value(fc.product_obj(P, t, s)):
                    edges.append(((s, pull[u]), (t, push[u])))
            if {frozenset(c) for c in coend.classes} != \
                    _components(nodes, edges):
                return "coend classes != components of the diagonal"
            return None

        return Op(cls, run, check, key=("pair", _finset_key(F),
                                        _finset_key(G)))
    return make


def make_kan(E: Engine):
    def make(rng):
        f = E.randgen.random_functor_between_loopfree(rng)
        F = E.randgen.random_finset_diagram(rng, f.source, max_size=2)

        def run():
            return (E.endkan.lan_agreement(f, F), E.endkan.ran_agreement(f, F))

        return Op("kan_agreement", run,
                  lambda ok: None if ok == (True, True) else
                  f"lan/ran formula agreement {ok}",
                  key=("kan", repr(f), _finset_key(F)))
    return make


def make_coyoneda(E: Engine):
    def make(rng):
        f = E.randgen.random_functor_between_loopfree(rng)
        G = E.randgen.random_finset_diagram(rng, f.target, max_size=2)
        gamma = rng.randrange(f.source.n_objects)
        return Op("co_yoneda_check",
                  lambda: E.endkan.co_yoneda_check(G, f, gamma).passed,
                  lambda ok: None if ok else "co-yoneda bijection failed",
                  key=("coy", repr(f), _finset_key(G), gamma))
    return make


# --- cli-corpus ------------------------------------------------------------------------

# (workspace, command, extra flags); every one exits 0.  The expected
# payload of each is bench/expected/<slug>.json, checked by hand.
CLI_COMMANDS = (
    ("cospan.hle", "holim Loop", ()),
    ("cospan.hle", "holim Glue", ()),
    ("cospan.hle", "hopullback Loop", ()),
    ("cospan.hle", "hopullback Glue", ()),
    ("cospan.hle", "homology Interval", ()),
    ("cospan.hle", "nerve W", ()),
    ("cospan.hle", "fattot Loop", ("--depth", "3")),
    ("cospan.hle", "fattot Loop", ("--depth", "4")),
    ("arrow.hle", "holim D", ()),
    ("arrow.hle", "lim S", ()),
    ("arrow.hle", "colim S", ()),
    ("arrow.hle", "lan ia P", ()),
    ("arrow.hle", "ran ia P", ()),
    ("arrow.hle", "nerve C", ()),
    ("arrow.hle", "homology Cone", ()),
    ("arrow.hle", "hoinitial ia", ()),
    ("arrow.hle", "compare-holim ia D", ()),
    ("hom_end.hle", "end H", ()),
    ("hom_end.hle", "coend H", ()),
    ("arrow.hle", "verify all", ("--seed",)),
    ("cospan.hle", "verify all", ("--seed",)),
)
CLI_VERIFY_REPEATS = 2   # verify ops per workspace and round, fresh seeds


def cli_slug(fname, cmd, flags):
    parts = [fname.split(".")[0]] + cmd.split() + \
        [f for f in flags if f != "--seed"]
    return "_".join(p.strip("-") for p in parts)


def cli_argv(fname, cmd, flags, seed=None):
    argv = [str(CORPUS / fname), "--cmd", cmd, "--json"]
    for f in flags:
        argv.append(f)
        if f == "--seed":
            argv.append(str(seed))
    return argv


def make_cli(fname, cmd, flags):
    slug = cli_slug(fname, cmd, flags)

    def make(rng):
        seed = None
        if "--seed" in flags:
            # a verify seed never repeats within a run
            seed = rng.randrange(10 ** 6)
        want = (EXPECTED / f"{slug}.json").read_bytes()

        def check(got):
            rc, out = got
            if rc != 0:
                return f"{slug}: exit code {rc}"
            return None if out == want else f"{slug}: payload differs"

        return Op(f"cli.{slug}", None, check,
                  key=("cli", slug, seed) if seed is not None else None,
                  argv=cli_argv(fname, cmd, flags, seed))
    return make


# --- the workloads ---------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    round: list              # (op class maker, count)
    rungs: list              # (rung name, maker)
    subprocess_ops: bool = False
    warm: Callable = lambda E: None


def workloads(E: Optional[Engine]) -> dict:
    """The op list of one round of each workload.  With E None only the
    cli-corpus list is usable (it needs no engine in this process)."""
    out = {}
    if E is not None:
        out["holim-poset"] = Workload(
            "holim-poset",
            [(make_bk_chain(E, 3), 8), (make_bk_chain(E, 4), 4),
             (make_bk_chain(E, 5), 1), (make_bk_chain(E, 6), 1),
             (make_pullback(E), 6), (make_comparison(E), 2)],
            [("bk_holim.chain_poset8", make_bk_chain(E, 8))])
        out["fattot-cospan"] = Workload(
            "fattot-cospan",
            [(make_fattot_corpus(E, "Loop", 2), 1),
             (make_fattot_corpus(E, "Loop", 3), 1),
             (make_fattot_corpus(E, "Loop", 4), 1),
             (make_fattot_corpus(E, "Glue", 2), 1),
             (make_fattot_corpus(E, "Glue", 3), 1),
             (make_fattot_random(E, 3), 6)],
            [("fat_tot.Loop.N5", make_fattot_corpus(E, "Loop", 5)),
             ("fat_tot.Glue.N4", make_fattot_corpus(E, "Glue", 4))],
            warm=lambda E: [E.holim.delta_plus_category(N)
                            for N in range(2, 5)])
        out["finset-enum"] = Workload(
            "finset-enum",
            [(make_pair(E), 40), (make_kan(E), 10), (make_coyoneda(E), 10)],
            [("finset_pair.max_size5",
              make_pair(E, 5, RUNG_PAIR_MIN, float("inf"),
                        "finset_pair.max_size5", total=True))])
    out["cli-corpus"] = Workload(
        "cli-corpus",
        [(make_cli(*spec), CLI_VERIFY_REPEATS if "--seed" in spec[2] else 1)
         for spec in CLI_COMMANDS],
        [("cli.cospan_fattot_Glue_depth_4",
          make_cli("cospan.hle", "fattot Glue", ("--depth", "4")))],
        subprocess_ops=True)
    return out


def op_rng(workload, seed, round_no, cls_index, i):
    return random.Random(f"{workload}/{seed}/{round_no}/{cls_index}/{i}")
