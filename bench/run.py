#!/usr/bin/env python3
"""holim-engine benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
`src/`.  One process, one op at a time (a closed loop with one caller),
no threads.  The workloads and their oracles are in `ops.py`; budgets,
reach rungs and the layer-to-metric mapping in `spec.json`.

With `--trace 0` the op list of the workload is run round after round,
each round on freshly generated inputs, for about S seconds; then each
reach rung runs once in its own process, killed at its budget.  The
last line of standard output is the JSON result with the end-to-end
metrics; the line before it holds the per-class details and the
environment.

With `--trace 1` a fixed number of rounds (`trace_rounds` in spec.json)
runs with every public engine function wrapped (see `spans.py`); the
same number of further rounds then runs untraced, and the difference
of the two wall estimates is the tracing overhead.  The last line holds
the per-layer metrics; spans go to `.bench_out/`.

`--check-counters` runs the traced run twice in child processes and
fails unless every count metric repeats exactly.

Exit codes: 0 all ops accepted, 1 an op failed (raised, exited non-zero
or was rejected by its oracle), 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PY = sys.executable
HARD_LIMIT_S = 150.0     # no child may outlive this, budget or not
SETUP_PROBES = 5         # set-up is timed in this many fresh processes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HOLIM_ENGINE_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, budget=None, wait_ready=False) -> dict:
    """Run argv to completion or until `budget` seconds have passed since
    it started (or, with wait_ready, since it printed its first line).
    Returns rc (None when killed), stdout, stderr, the timed seconds and
    the child's own peak resident set."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(),
                            cwd=ROOT)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    bufs = {out_fd: bytearray(), err_fd: bytearray()}
    open_fds = {out_fd, err_fd}
    start = None if wait_ready else t0
    killed = False
    while open_fds:
        now = perf_counter()
        if budget is not None and start is not None:
            deadline = start + budget
        else:
            deadline = t0 + HARD_LIMIT_S
        if now >= deadline:
            proc.kill()
            killed = True
            break
        ready, _, _ = select.select(sorted(open_fds), [], [], deadline - now)
        for fd in ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                open_fds.discard(fd)
            else:
                bufs[fd] += chunk
        if start is None and b"\n" in bufs[out_fd]:
            start = perf_counter()
    end = perf_counter()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {"rc": None if killed else proc.returncode,
            "out": bytes(bufs[out_fd]), "err": bytes(bufs[err_fd]),
            "seconds": end - (start if start is not None else t0),
            "ready_s": (start - t0) if wait_ready and start else None,
            "maxrss_kb": usage.ru_maxrss}


class OverBudget(BaseException):
    """Raised by SIGALRM inside an in-process op that overran its budget."""


def _alarm(signum, frame):
    raise OverBudget()


# --- one workload run --------------------------------------------------------

class Run:
    def __init__(self, name, seed, spec):
        self.name, self.seed, self.spec = name, seed, spec
        self.budget = spec["budget_s"]
        self.seen: set = set()
        self.redraws = 0                  # inputs drawn again: seen before
        self.failures: list[str] = []
        self.child_rss_kb = 0
        self.rss_kb = None        # peak after the first rss_rounds rounds
        self.E = None
        self.wl = None

    def setup(self):
        """Everything before the first timed op: import, corpus parse,
        cache warm-up and the inputs of round 0."""
        import ops
        if self.name == "cli-corpus":
            from holim_engine import cli  # noqa: F401  (import cost)
            self.E = None
        else:
            self.E = ops.Engine()
        for f in sorted(ops.CORPUS.glob("*.hle")):
            __import__("holim_engine.dsl").dsl.parse(
                f.read_text(encoding="utf-8"))
        self.wl = ops.workloads(self.E)[self.name]
        self.wl.warm(self.E)
        self.prepared = {0: self.prepare(0)}

    def _fresh(self, make, rng):
        for _ in range(100):
            op = make(rng)
            if op.key is None:
                return op
            h = hash(op.key)
            if h not in self.seen:
                self.seen.add(h)
                return op
            self.redraws += 1
        raise RuntimeError("could not draw a fresh input")

    def prepare(self, round_no):
        import ops
        out = []
        for ci, (make, count) in enumerate(self.wl.round):
            for i in range(count):
                rng = ops.op_rng(self.name, self.seed, round_no, ci, i)
                out.append((ci, self._fresh(make, rng)))
        return out

    def run_op(self, op, tracer=None, traced_child=None):
        rec = {"cls": op.cls, "seconds": None, "in_budget": True}
        err = None
        if self.wl.subprocess_ops:
            if traced_child is not None:
                argv = [PY, str(BENCH / "cli_child.py"), traced_child] + \
                    op.argv
            else:
                argv = [PY, "-m", "holim_engine.cli"] + op.argv

            def call():
                return run_child(argv, budget=self.budget)

            res, _ = tracer.run_op(op.cls, call) if tracer else (call(), 0)
            self.child_rss_kb = max(self.child_rss_kb, res["maxrss_kb"])
            if res["rc"] is None:
                rec["seconds"], rec["in_budget"] = self.budget, False
            else:
                rec["seconds"] = res["seconds"]
                err = op.check((res["rc"], res["out"]))
                if err and res["err"]:
                    err += " | " + res["err"].decode(errors="replace")[-300:]
        else:
            # every op starts with no garbage left by the ops and input
            # draws before it; otherwise their collection lands, up to
            # 0.17 s at a time, in whichever op happens to run next
            gc.collect()
            signal.setitimer(signal.ITIMER_REAL, self.budget)
            try:
                t0 = perf_counter()
                if tracer is not None:
                    result, _ = tracer.run_op(op.cls, op.run)
                else:
                    result = op.run()
                rec["seconds"] = perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
                err = op.check(result)
            except OverBudget:
                rec["seconds"], rec["in_budget"] = self.budget, False
            except Exception as e:   # an engine failure is a failed op
                if rec["seconds"] is None:
                    rec["seconds"] = perf_counter() - t0
                err = f"{op.cls}: {type(e).__name__}: {e}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        if rec["seconds"] > self.budget:
            rec["seconds"], rec["in_budget"] = self.budget, False
        rec["failed"] = err is not None
        if err is not None:
            self.failures.append(err)
        return rec

    def rounds(self, first, seconds=None, count=None, tracer=None):
        """Run whole rounds from `first`: `count` of them, or as many as
        fit in `seconds` (at least one).  Returns the op records."""
        recs, times = [], []
        t_start = perf_counter()
        r = first
        while True:
            done = r - first
            if count is not None and done >= count:
                break
            if count is None and times and \
                    perf_counter() - t_start + statistics.mean(times) > seconds:
                break
            t_r = perf_counter()
            batch = self.prepared.pop(r, None) or self.prepare(r)
            for ci, op in batch:
                child = None
                if tracer is not None and self.wl.subprocess_ops:
                    child = str(OUT / f"cli-dump-{os.getpid()}.json")
                recs.append(dict(self.run_op(op, tracer, child), ci=ci,
                                 round=r))
                if child is not None:
                    merge_child(tracer, child)
            times.append(perf_counter() - t_r)
            r += 1
            if self.rss_kb is None and r >= self.spec["rss_rounds"]:
                self.rss_kb = self.peak_rss_kb()
        return recs, r

    def peak_rss_kb(self) -> int:
        """Peak resident set so far of the process that runs the ops
        (cli-corpus: the largest child)."""
        if self.wl.subprocess_ops:
            return self.child_rss_kb
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def rung(self, rname, make):
        """A reach rung in its own process, killed at its budget."""
        budget = self.spec["rungs"][rname]["budget_s"]
        if self.wl.subprocess_ops:
            import ops
            op = make(ops.op_rng(self.name, self.seed, "rung", rname, 0))
            res = run_child([PY, "-m", "holim_engine.cli"] + op.argv,
                            budget=budget)
            err = None if res["rc"] is None else \
                op.check((res["rc"], res["out"]))
        else:
            res = run_child([PY, str(BENCH / "run.py"), "--rung", rname,
                             "--workload", self.name, "--seed",
                             str(self.seed)], budget=budget, wait_ready=True)
            err = None
            if res["rc"] is not None:
                lines = res["out"].decode().strip().splitlines()
                err = json.loads(lines[-1])["error"] if lines and \
                    res["rc"] == 0 else f"rung exited {res['rc']}"
        over = res["rc"] is None or res["seconds"] > budget
        if err:
            self.failures.append(f"{rname}: {err}")
        return {"cls": rname, "rung": True, "in_budget": not over,
                "failed": err is not None,
                "seconds": budget if over else res["seconds"],
                "status": "over budget" if over else "in budget",
                "budget_s": budget, "peak_rss_mb": res["maxrss_kb"] / 1024}


def merge_child(tracer, path):
    if not os.path.exists(path):     # the child was killed at its budget
        return
    with open(path, encoding="utf-8") as fh:
        got = json.load(fh)
    os.unlink(path)
    tracer.merge(got["agg"], got["spans"])


def class_wall(recs, round_list) -> float:
    """Wall time of the fixed op list, each op at its class mean: the
    mean over the run, not a median of a few samples per class, so that
    a machine that changes speed during the run moves it in proportion
    instead of flipping it."""
    by = {}
    for r in recs:
        by.setdefault(r["ci"], []).append(r["seconds"])
    return sum(count * statistics.fmean(by[ci])
               for ci, (_, count) in enumerate(round_list))


def round_mean(recs, stat) -> float:
    """Mean over the run's rounds of stat(latencies of one round).  A
    quantile pooled over a run that spans two machine speeds jumps from
    one speed to the other as their shares cross; the mean of per-round
    quantiles moves in proportion to the shares."""
    by = {}
    for r in recs:
        by.setdefault(r["round"], []).append(r["seconds"])
    return statistics.fmean(stat(v) for v in by.values())


def in_budget_share(recs, rungs, round_list) -> float:
    """Share of the fixed op list (one round plus the reach rungs) that
    finishes within budget, each class at its in-budget rate."""
    by = {}
    for r in recs:
        by.setdefault(r["ci"], []).append(r["in_budget"])
    done = sum(count * sum(by[ci]) / len(by[ci])
               for ci, (_, count) in enumerate(round_list))
    done += sum(1 for r in rungs if r["in_budget"])
    return done / (sum(c for _, c in round_list) + len(rungs))


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "cpu_count": os.cpu_count(),
            "HOLIM_ENGINE_THREADS": os.environ.get("HOLIM_ENGINE_THREADS",
                                                   "unset"),
            "processes": "one caller, one op at a time, no threads"}


def metric(v, unit):
    return {"value": v, "unit": unit}


def main_untraced(run: Run, seconds: float) -> dict:
    probes = [run_child([PY, str(BENCH / "run.py"), "--probe-setup",
                         "--workload", run.name, "--seed", str(run.seed)],
                        wait_ready=True)
              for _ in range(SETUP_PROBES)]
    for p in probes:
        if p["ready_s"] is None:
            raise RuntimeError("setup probe failed: " +
                               p["err"].decode(errors="replace")[-500:])
    setup_s = statistics.median(p["ready_s"] for p in probes)
    run.setup()
    recs, rounds_end = run.rounds(0, seconds=seconds)
    rungs = [run.rung(rname, make) for rname, make in run.wl.rungs]
    lat = [r["seconds"] for r in recs]
    p_tail = run.spec["tail_percentile"]
    tail = round_mean(recs, lambda v: statistics.quantiles(
        v, n=100, method="inclusive")[p_tail - 1])
    everything = recs + rungs
    attempted = len(everything)
    failed = sum(1 for r in everything if r["failed"])
    rss_kb = run.rss_kb if run.rss_kb is not None else run.peak_rss_kb()
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(class_wall(recs, run.wl.round), "s"),
        "op_p50_s": metric(round_mean(recs, statistics.median), "s"),
        "op_tail_s": metric(tail, "s"),
        "in_budget_ratio": metric(in_budget_share(recs, rungs,
                                                  run.wl.round), "ratio"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
    }
    by = {}
    for r in recs:
        by.setdefault(r["cls"], []).append(r["seconds"])
    detail = {
        "workload": run.name, "seed": run.seed, "trace": 0,
        "rounds": rounds_end, "redraws": run.redraws,
        "environment": environment(),
        "fail_ratio": failed / attempted,
        "op_tail": {"percentile": p_tail, "samples": len(lat),
                    "per_round": sum(c for _, c in run.wl.round),
                    "beyond": sum(1 for x in lat if x > tail)},
        "classes": {c: {"n": len(v), "min_s": min(v), "max_s": max(v),
                        "median_s": statistics.median(v),
                        "mean_s": statistics.fmean(v)}
                    for c, v in sorted(by.items())},
        "rungs": rungs, "failures": run.failures[:10],
    }
    return detail, {"correct": failed == 0, "attempted": attempted,
                    "failed": failed, "metrics": metrics}


def main_traced(run: Run) -> dict:
    from spans import COUNT_METRICS, LAYERS, Tracer
    OUT.mkdir(exist_ok=True)
    run.setup()
    n = run.spec["trace_rounds"]
    tracer = Tracer()
    if not run.wl.subprocess_ops:
        tracer.install()
    try:
        traced, r_end = run.rounds(0, count=n, tracer=tracer)
    finally:
        tracer.uninstall()
    plain, _ = run.rounds(r_end, count=n)
    traced_wall = class_wall(traced, run.wl.round)
    plain_wall = class_wall(plain, run.wl.round)
    imports = [run_child([PY, "-c", "import holim_engine.cli"])["seconds"]
               for _ in range(3)]
    spans_path = OUT / f"spans-{run.name}-{run.seed}.jsonl"
    tracer.write_spans(spans_path)
    counts = tracer.metrics_counts()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = metric(tracer.self_s[layer], "s")
    for name in COUNT_METRICS:
        unit = "ratio" if name.endswith("ratio") else \
            "bits" if name.endswith("bits_max") else \
            "bytes" if name.endswith("bytes") else "count"
        metrics[name] = metric(counts[name], unit)
    metrics["cli.import_s"] = metric(statistics.median(imports), "s")
    metrics["trace.op_s"] = metric(sum(r["seconds"] for r in traced), "s")
    metrics["trace.unattributed_s"] = metric(tracer.unattributed_s, "s")
    metrics["trace.excluded_s"] = metric(tracer.excluded_s, "s")
    metrics["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")
    everything = traced + plain
    failed = sum(1 for r in everything if r["failed"])
    layer_sum = sum(tracer.self_s.values()) + tracer.unattributed_s
    detail = {
        "workload": run.name, "seed": run.seed, "trace": 1,
        "environment": environment(), "trace_rounds": n,
        "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
        "layer_self_sum_s": layer_sum,
        "spans": len(tracer.spans), "spans_dropped": tracer.dropped,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failures": run.failures[:10],
    }
    return detail, {"correct": failed == 0, "attempted": len(everything),
                    "failed": failed, "metrics": metrics}


# --- child modes ---------------------------------------------------------------

def probe_setup(name, seed, spec):
    run = Run(name, seed, spec)
    run.setup()
    print("ready", flush=True)


def run_rung(name, seed, spec, rname):
    import ops
    run = Run(name, seed, spec)
    run.setup()
    make = dict(run.wl.rungs)[rname]
    op = make(ops.op_rng(name, seed, "rung", rname, 0))
    print("ready", flush=True)
    try:
        err = op.check(op.run())
    except Exception as e:
        err = f"{type(e).__name__}: {e}"
    print(json.dumps({"error": err}), flush=True)


def check_counters(name, seed, seconds):
    from spans import COUNT_METRICS
    got = []
    for _ in range(2):
        res = run_child([PY, str(BENCH / "run.py"), "--workload", name,
                         "--seed", str(seed), "--seconds", str(seconds),
                         "--trace", "1"])
        if res["rc"] != 0:
            print(res["err"].decode(errors="replace")[-2000:], file=sys.stderr)
            return 1
        got.append(json.loads(res["out"].decode().splitlines()[-1]))
    diff = {m: (got[0]["metrics"][m]["value"], got[1]["metrics"][m]["value"])
            for m in COUNT_METRICS
            if got[0]["metrics"][m] != got[1]["metrics"][m]}
    print(json.dumps({"workload": name, "seed": seed,
                      "counts_repeat": not diff, "differences": diff}))
    return 0 if not diff else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--rung", help=argparse.SUPPRESS)
    ap.add_argument("--check-counters", action="store_true",
                    help="run the traced run twice and compare counts")
    ns = ap.parse_args(argv)
    if not (SRC / "holim_engine" / "__init__.py").is_file():
        print(f"error: no engine source under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HOLIM_ENGINE_THREADS", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    spec_all = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    spec = spec_all["workloads"].get(ns.workload)
    if spec is None:
        print(f"error: unknown workload {ns.workload!r}; workloads: "
              f"{', '.join(spec_all['workloads'])}", file=sys.stderr)
        return 2
    if ns.probe_setup:
        probe_setup(ns.workload, ns.seed, spec)
        return 0
    if ns.rung:
        run_rung(ns.workload, ns.seed, spec, ns.rung)
        return 0
    if ns.check_counters:
        return check_counters(ns.workload, ns.seed, ns.seconds)
    signal.signal(signal.SIGALRM, _alarm)
    run = Run(ns.workload, ns.seed, spec)
    if ns.trace:
        detail, result = main_traced(run)
    else:
        detail, result = main_untraced(run, ns.seconds)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
