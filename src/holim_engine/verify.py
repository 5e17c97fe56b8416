"""The suites of `holim-engine verify`.

Each suite is a generator over (workspace, rng) of (item name, check)
pairs; a check returns (passed, detail).  `cli` imports this module
only for `verify`, and it never imports `cli`: under
`python -m holim_engine.cli` that module is `__main__`, so an import of
`holim_engine.cli` would compile it a second time.  `holim`, `ssets`,
`randgen` and `endkan` are imported inside the suites that call them.
"""

from __future__ import annotations

import random

from . import chaincx, diagrams, fincat
from .errors import TypeMismatch
from .fincat import comma_over, find_terminal, is_direct, opposite


def _suite_bindings(ws, rng):
    for name in ws.order:
        b = ws.bindings[name]

        def check(b=b):
            if b.kind == "category":
                fincat.validate_category(b.value)
            elif b.kind == "complex":
                chaincx.validate_complex(b.value)
            elif b.kind == "diagram_ch":
                diagrams.validate_chain_diagram(b.value)
            elif b.kind == "diagram_finset":
                diagrams.validate_finset_diagram(b.value)
            elif b.kind == "functor":
                fincat.validate_functor(b.value)
            return True, ""

        yield f"validate {b.kind} {name}", check


def _suite_categories(ws, rng):
    from . import ssets
    for name in ws.order:
        b = ws.bindings[name]
        if b.kind != "category":
            continue
        C = b.value

        def check_op(C=C):
            ok = opposite(opposite(C)) == C
            return ok, "" if ok else "opposite is not an involution"

        yield f"opposite involution {name}", check_op
        if is_direct(C) is not None:
            def check_commas(C=C):
                for g in C.objects():
                    com = comma_over(C, g)
                    if find_terminal(com.cat) is None:
                        return False, f"comma over {C.obj_labels[g]} " \
                            f"has no terminal object"
                    K = ssets.nerve(com.cat)
                    if not ssets.homology_contractible(K):
                        return False, f"comma nerve at {C.obj_labels[g]} " \
                            f"not contractible"
                return True, ""

            yield f"comma nerves {name}", check_commas


def _suite_weights(ws, rng):
    from .ssets import check_point_resolution, nerve_weight
    for name in ws.order:
        b = ws.bindings[name]
        if b.kind != "category" or is_direct(b.value) is None:
            continue

        def check(C=b.value):
            rep = check_point_resolution(nerve_weight(C))
            return rep.passed, "" if rep.passed else "resolution rejected"

        yield f"nerve weight resolves the point {name}", check


def _suite_holim(ws, rng):
    from . import holim
    from .ssets import nerve_weight
    for name in ws.order:
        b = ws.bindings[name]
        if b.kind != "diagram_ch" or is_direct(b.value.base) is None:
            continue

        def check(D=b.value):
            res = holim.bk_holim(D)
            W = nerve_weight(D.base)
            bound = sum(D.value(g).total_dim() * W.value(g).total_cells()
                        for g in D.base.objects())
            if res.complex.total_dim() > bound:
                return False, "dimension bound exceeded"
            return True, ""

        yield f"bousfield-kan computes {name}", check
        try:
            holim.cospan_legs(b.value)
        except TypeMismatch:
            continue

        def check_oracle(D=b.value):
            p, q = holim.cospan_legs(D)
            _, rep = holim.homotopy_pullback(p, q)
            return rep.passed, "" if rep.passed else \
                f"oracle mismatch: {rep.betti_bk} vs {rep.betti_oracle}"

        yield f"pullback oracle {name}", check_oracle


def _suite_random(ws, rng):
    from . import holim, randgen
    from .endkan import (co_yoneda_check, end_finset, hom_bifunctor,
                         lan_agreement, nat_trans_bruteforce, ran_agreement)

    def end_vs_bruteforce(i):
        def check():
            r = random.Random(rng.randrange(2 ** 32))
            C, F, G = randgen.random_finset_pair(r, cap=3000)
            end = end_finset(hom_bifunctor(F, G))
            brute = nat_trans_bruteforce(F, G)
            ok = end == brute
            return ok, "" if ok else "end != brute-force enumeration"
        return check

    def kan_agreements(i):
        def check():
            r = random.Random(rng.randrange(2 ** 32))
            f = randgen.random_functor_between_loopfree(r)
            F = randgen.random_finset_diagram(r, f.source, max_size=2)
            ok = lan_agreement(f, F) and ran_agreement(f, F)
            return ok, "" if ok else "formula disagreement"
        return check

    def pullback_oracle(i):
        def check():
            r = random.Random(rng.randrange(2 ** 32))
            D = randgen.random_cospan_diagram(r, max_dim=2, max_width=2)
            p, q = holim.cospan_legs(D)
            _, rep = holim.homotopy_pullback(p, q)
            return rep.passed, "" if rep.passed else "oracle mismatch"
        return check

    def coyoneda(i):
        def check():
            r = random.Random(rng.randrange(2 ** 32))
            f = randgen.random_functor_between_loopfree(r)
            G = randgen.random_finset_diagram(r, f.target, max_size=2)
            rep = co_yoneda_check(G, f, r.randrange(f.source.n_objects))
            return rep.passed, "" if rep.passed else "bijection failed"
        return check

    for i in range(5):
        yield f"random end vs enumeration #{i}", end_vs_bruteforce(i)
    for i in range(3):
        yield f"random kan formula agreement #{i}", kan_agreements(i)
    for i in range(3):
        yield f"random pullback oracle #{i}", pullback_oracle(i)
    for i in range(2):
        yield f"random co-yoneda #{i}", coyoneda(i)


SUITES = {"bindings": (_suite_bindings,),
          "categories": (_suite_categories,),
          "weights": (_suite_weights,),
          "holim": (_suite_holim,),
          "random": (_suite_random,),
          "all": (_suite_bindings, _suite_categories, _suite_weights,
                  _suite_holim, _suite_random)}
