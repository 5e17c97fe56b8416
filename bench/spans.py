"""Layer tracing installed from outside the engine.

`Tracer.install()` wraps every public function named in `LAYERS` and
rebinds the wrapper in each `holim_engine` module namespace that holds
the original, so calls through `from .x import f` names are seen too.
The listed `RationalMatrix` methods are patched on the class.

Each wrapped call is a span (name, start, end, parent).  Spans are kept
in memory and written out by `write_spans`.  A span's self time is its
duration minus the intervals its child spans cover; the time a child
spends updating counters after it ends is excluded from its parent too,
and reported as `trace.excluded_s`.  Every timed op is a root span, so
the self times of one op add up to the op's traced time minus the
excluded time.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from time import perf_counter

# layer -> (module, public functions).  Methods of RationalMatrix are
# listed separately below.
LAYERS = {
    "exactalg.elim": ("exactalg", (
        "rank", "rank_kernel", "kernel_matrix", "solve", "solve_matrix",
        "quotient_basis", "canonical_row_basis")),
    "exactalg.arith": ("exactalg", ("block_diag",)),
    "chaincx.hom": ("chaincx", (
        "hom_complex", "hom_precompose", "hom_postcompose", "hom_encode",
        "hom_decode", "power", "power_map_complex", "power_map_sset")),
    "chaincx.assembly": ("chaincx", (
        "direct_sum", "compose_maps", "map_sub", "make_complex",
        "make_chain_map", "product_total", "subcomplex_from_kernels")),
    "chaincx.homology": ("chaincx", (
        "betti_numbers", "homology", "induced_homology_maps",
        "is_quasi_iso")),
    "endkan.end_chain": ("endkan", (
        "end_chain", "bifunctor_diagram", "end_induced_map")),
    "endkan.finset": ("endkan", (
        "finset_limit", "finset_colimit", "end_finset", "coend_finset",
        "hom_bifunctor", "nat_trans_bruteforce", "lan", "ran",
        "lan_via_coend", "ran_via_end", "co_yoneda_check",
        "lan_agreement", "ran_agreement")),
    "ssets": ("ssets", (
        "nerve", "nerve_weight", "nerve_of_comma_under",
        "normalized_chains", "chains_of_map", "check_point_resolution",
        "homology_contractible", "standard_simplex")),
    "fincat": ("fincat", (
        "product", "opposite", "comma_over", "comma_under_functor",
        "comma_from", "is_direct", "generating_morphisms",
        "validate_category", "validate_functor",
        "category_from_presentation")),
    "holim": ("holim", (
        "bk_holim", "weighted_end", "fat_tot", "cosimplicial_replacement",
        "homotopy_pullback", "mapping_path_complex", "comparison_map",
        "check_homotopy_initial", "change_of_diagrams_iso")),
    "dsl.parse": ("dsl", ("parse",)),
    "cli": ("cli", ("main", "run_command")),
}
MATRIX_METHODS = ("__mul__", "__add__", "kron", "scale", "transpose",
                  "hstack", "vstack", "from_columns")

# the per-layer metrics, in report order; counts must repeat exactly
# across runs with the same seed
COUNT_METRICS = (
    "exactalg.elim.calls", "exactalg.elim.cells", "exactalg.elim.nnz",
    "exactalg.coeff_bits_max", "exactalg.arith.calls",
    "chaincx.hom.calls", "chaincx.hom.dim", "chaincx.hom.distinct_ratio",
    "chaincx.homology.calls", "endkan.end_chain.sum_dim",
    "endkan.end_chain.end_dim", "endkan.finset.calls",
    "endkan.finset.elements", "ssets.cells", "fincat.calls",
    "dsl.parse.bytes")
MAX_SPANS = 200_000


class _Frame:
    __slots__ = ("sid", "start", "cover")

    def __init__(self, sid, start):
        self.sid = sid
        self.start = start
        self.cover = 0.0


def _scan(obj, acc, depth=0):
    """Fold nonzero count and largest numerator/denominator into acc
    ([nnz, max |num|, max den]) for matrices, vectors and nests of
    them."""
    entries = getattr(obj, "entries", None)
    if entries is not None and hasattr(obj, "cols"):
        for row in entries:
            _scan_vector(row, acc)
        return
    if isinstance(obj, (tuple, list)) and obj and depth < 3:
        if all(isinstance(x, (Fraction, int)) for x in obj[:2]):
            _scan_vector(obj, acc)
        else:
            for x in obj:
                _scan(x, acc, depth + 1)


def _scan_vector(vec, acc):
    nnz, num, den = acc
    for x in vec:
        if x:
            nnz += 1
            if isinstance(x, Fraction):
                n, d = abs(x.numerator), x.denominator
                if n > num:
                    num = n
                if d > den:
                    den = d
            elif abs(x) > num:
                num = abs(x)
    acc[0], acc[1], acc[2] = nnz, num, den


def _size(result) -> int:
    """Elements returned by a finite-set construction."""
    for attr in ("elements", "classes"):
        got = getattr(result, attr, None)
        if got is not None:
            return len(got)
    diagram = getattr(result, "diagram", None)
    if diagram is not None:
        result = diagram
    values = getattr(result, "values", None)
    if isinstance(values, tuple):
        return sum(len(v) for v in values)
    if isinstance(result, tuple):
        return len(result)
    return 0


def complex_key(cx):
    """The content of a chain complex, hashable."""
    return (cx.lo, cx.hi, tuple(sorted(cx.dims.items())),
            tuple((k, m.entries) for k, m in sorted(cx.diff.items())))


class Tracer:
    """Spans and counters for one process.  `install` patches the engine;
    `uninstall` restores it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.unattributed_s = 0.0
        self.excluded_s = 0.0
        self.op_s = 0.0
        self.counts = {name: 0 for name in COUNT_METRICS}
        self._coeff = [0, 0]            # largest |numerator|, denominator
        self._hom_calls = 0
        self._hom_distinct = 0
        self._hom_seen: set = set()
        self._fp_cache: dict = {}
        self._stack: list[_Frame] = []
        self._next = 0
        self._patched: list[tuple] = []

    # --- patching -------------------------------------------------------------

    def install(self):
        import holim_engine
        from holim_engine import exactalg
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "holim_engine" or
                   name.startswith("holim_engine.")]
        for layer, (modname, names) in LAYERS.items():
            mod = getattr(holim_engine, modname, None)
            if mod is None:
                __import__(f"holim_engine.{modname}")
                mod = sys.modules[f"holim_engine.{modname}"]
                modules.append(mod)
            for name in names:
                orig = getattr(mod, name)
                wrapped = self._wrap(orig, f"{modname}.{name}", layer)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, wrapped)
        cls = exactalg.RationalMatrix
        for name in MATRIX_METHODS:
            raw = cls.__dict__[name]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = self._wrap(fn, f"RationalMatrix.{name}",
                                 "exactalg.arith")
            self._patched.append((cls, name, raw))
            setattr(cls, name,
                    staticmethod(wrapped) if is_static else wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # --- spans ----------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        tracer = self
        stack = self._stack
        counter = _COUNTERS.get(layer)

        def wrapper(*args, **kwargs):
            if not stack:       # outside a timed op: input preparation
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next = sid + 1
            frame = _Frame(sid, perf_counter())
            stack.append(frame)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = perf_counter()
                stack.pop()
                tracer.self_s[layer] += end - frame.start - frame.cover
                parent = stack[-1] if stack else None
                tracer._record(sid, name, parent, frame.start, end)
                if done and counter is not None:
                    counter(tracer, name, args, result)
                after = perf_counter()
                tracer.excluded_s += after - end
                if parent is not None:
                    parent.cover += after - frame.start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _record(self, sid, name, parent, start, end):
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, parent.sid if parent else None,
                               start, end))
        else:
            self.dropped += 1

    def run_op(self, name, fn):
        """Run fn() as a root span; returns (result, traced seconds)."""
        sid = self._next
        self._next = sid + 1
        frame = _Frame(sid, perf_counter())
        self._stack.append(frame)
        try:
            result = fn()
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - frame.start
            self.unattributed_s += dur - frame.cover
            self._record(sid, f"op:{name}", None, frame.start, end)
            self.op_s += dur
            self._hom_distinct += len(self._hom_seen)
            self._hom_seen.clear()
            self._fp_cache.clear()
        return result, dur

    def merge(self, other: dict, spans=()):
        """Add the aggregates (see `dump`) and the spans of a traced child
        process whose whole run lies inside the last root span here."""
        parent = self.spans[-1][0] if self.spans else None
        offset = self._next
        for sid, name, par, start, end in spans:
            self._next = max(self._next, offset + sid + 1)
            if len(self.spans) < MAX_SPANS:
                self.spans.append((offset + sid, name,
                                   parent if par is None else offset + par,
                                   start, end))
            else:
                self.dropped += 1
        for layer, v in other["self_s"].items():
            self.self_s[layer] += v
        for name, v in other["counts"].items():
            if name == "exactalg.coeff_bits_max":
                self.counts[name] = max(self.counts[name], v)
            elif name != "chaincx.hom.distinct_ratio":
                self.counts[name] += v
        self._hom_calls += other["hom_calls"]
        self._hom_distinct += other["hom_distinct"]
        self.excluded_s += other["excluded_s"]
        # the child's root spans lie inside this process's root span
        self.unattributed_s += other["unattributed_s"] - other["op_s"]

    def dump(self) -> dict:
        return {"self_s": self.self_s, "counts": self.metrics_counts(),
                "hom_calls": self._hom_calls,
                "hom_distinct": self._hom_distinct + len(self._hom_seen),
                "excluded_s": self.excluded_s,
                "unattributed_s": self.unattributed_s, "op_s": self.op_s}

    def metrics_counts(self) -> dict:
        out = dict(self.counts)
        out["exactalg.coeff_bits_max"] = max(
            self._coeff[0].bit_length(), self._coeff[1].bit_length(),
            self.counts["exactalg.coeff_bits_max"])
        out["chaincx.hom.distinct_ratio"] = (
            self._hom_distinct / self._hom_calls if self._hom_calls else 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "parent": parent, "start": start,
                                     "end": end}) + "\n")


# --- counters, one per layer -----------------------------------------------------

def _count_elim(t: Tracer, name, args, result):
    c = t.counts
    c["exactalg.elim.calls"] += 1
    acc = [0] + t._coeff
    if name.endswith(("quotient_basis", "canonical_row_basis")):
        vecs, dim = (args[1], args[0]) if name.endswith("quotient_basis") \
            else (args[0], args[1])
        c["exactalg.elim.cells"] += len(vecs) * dim
        _scan(list(vecs), acc)
    else:
        for a in args:
            if hasattr(a, "entries"):
                c["exactalg.elim.cells"] += a.rows * a.cols
                _scan(a, acc)
    c["exactalg.elim.nnz"] += acc[0]
    acc[0] = 0
    _scan(result, acc)
    t._coeff = acc[1:]


def _count_arith(t: Tracer, name, args, result):
    t.counts["exactalg.arith.calls"] += 1


def _count_hom(t: Tracer, name, args, result):
    c = t.counts
    c["chaincx.hom.calls"] += 1
    if name.endswith(("hom_complex", ".power")):
        c["chaincx.hom.dim"] += result.total_dim()
    if name.endswith("hom_complex"):
        t._hom_calls += 1
        key = []
        for cx in args[:2]:
            got = t._fp_cache.get(id(cx))
            if got is None:
                got = (cx, complex_key(cx))
                t._fp_cache[id(cx)] = got
            key.append(got[1])
        t._hom_seen.add(tuple(key))


def _count_homology(t: Tracer, name, args, result):
    t.counts["chaincx.homology.calls"] += 1


def _count_end(t: Tracer, name, args, result):
    if name.endswith("end_chain"):
        t.counts["endkan.end_chain.sum_dim"] += result.sum_complex.total_dim()
        t.counts["endkan.end_chain.end_dim"] += result.complex.total_dim()


def _count_finset(t: Tracer, name, args, result):
    t.counts["endkan.finset.calls"] += 1
    t.counts["endkan.finset.elements"] += _size(result)


def _count_ssets(t: Tracer, name, args, result):
    if hasattr(result, "total_cells"):
        t.counts["ssets.cells"] += result.total_cells()
    elif hasattr(result, "values") and hasattr(result, "provenance"):
        t.counts["ssets.cells"] += sum(v.total_cells() for v in result.values)


def _count_fincat(t: Tracer, name, args, result):
    t.counts["fincat.calls"] += 1


def _count_parse(t: Tracer, name, args, result):
    t.counts["dsl.parse.bytes"] += len(args[0].encode("utf-8"))


_COUNTERS = {
    "exactalg.elim": _count_elim, "exactalg.arith": _count_arith,
    "chaincx.hom": _count_hom, "chaincx.homology": _count_homology,
    "endkan.end_chain": _count_end, "endkan.finset": _count_finset,
    "ssets": _count_ssets, "fincat": _count_fincat,
    "dsl.parse": _count_parse,
}
