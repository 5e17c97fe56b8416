#!/usr/bin/env python3
"""Times the three baseline cases quoted in ROADMAP.md, once untraced
and once under cProfile, to show which of the two the quoted figures
match.

    python3 bench/baseline.py [--skip-slow]

Cases: bk_holim on chain_poset(6) with
random_poset_chain_diagram(Random(1), P, 2, 2, 3); fat_tot of the corpus
diagram Loop at N=4 and at N=5 (the N=5 case is skipped with
--skip-slow).  Prints one JSON object.
"""

import argparse
import cProfile
import json
import platform
import os
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def cases(skip_slow):
    from holim_engine import dsl, fincat, holim, randgen
    ws_src = (ROOT / "src" / "holim_engine" / "corpus" /
              "cospan.hle").read_text(encoding="utf-8")

    def bk6():
        P = fincat.chain_poset(6)
        F = randgen.random_poset_chain_diagram(random.Random(1), P, 2, 2, 3)
        return lambda: holim.bk_holim(F)

    def loop(N):
        def make():
            D = dsl.parse(ws_src).get("Loop", "diagram_ch").value
            return lambda: holim.fat_tot(holim.cosimplicial_replacement(D, N))
        return make

    out = [("bk_holim chain_poset(6) Random(1)", 8.7, bk6),
           ("fat_tot Loop N=4", 7.6, loop(4))]
    if not skip_slow:
        out.append(("fat_tot Loop N=5", 65.0, loop(5)))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--skip-slow", action="store_true")
    ns = ap.parse_args()
    rows = []
    for name, roadmap_s, make in cases(ns.skip_slow):
        fn = make()
        t0 = perf_counter()
        fn()
        untraced = perf_counter() - t0
        fn = make()
        prof = cProfile.Profile()
        t0 = perf_counter()
        prof.runcall(fn)
        profiled = perf_counter() - t0
        rows.append({"case": name, "roadmap_s": roadmap_s,
                     "untraced_s": round(untraced, 3),
                     "cprofile_s": round(profiled, 3)})
    print(json.dumps({"python": platform.python_version(),
                      "cpu_count": os.cpu_count(), "cases": rows}, indent=1))


if __name__ == "__main__":
    main()
