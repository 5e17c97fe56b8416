"""The block layouts of the total complexes, held to their formulas.

Each expected differential is built densely, column by column, by
applying the construction's formula to every basis vector of its
source degree, with the summands of a degree split and joined in the
order the formula names them.  Betti numbers and d o d = 0 would not
notice two summands laid out in swapped places; these matrices do."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from holim_engine.chaincx import direct_sum, mapping_cone, product_total
from holim_engine.holim import mapping_path_complex
from holim_engine.randgen import random_chain_complex, random_chain_map


def _apply(m, v):
    return [sum((m.entries[i][j] * v[j] for j in range(m.cols)),
                Fraction(0)) for i in range(m.rows)]


def _split(v, sizes):
    out, at = [], 0
    for s in sizes:
        out.append(v[at:at + s])
        at += s
    return out


def _add(*vs):
    return [sum(xs, Fraction(0)) for xs in zip(*vs)]


def _neg(v):
    return [-x for x in v]


def _dense(src_dim, tgt_dim, formula):
    """The tgt_dim x src_dim matrix whose column j is formula(e_j)."""
    cols = [formula([Fraction(int(i == j)) for i in range(src_dim)])
            for j in range(src_dim)]
    for c in cols:
        assert len(c) == tgt_dim
    return tuple(tuple(c[i] for c in cols) for i in range(tgt_dim))


def _expected(sizes, d, span):
    """(lo, hi, dims, {n: dense d_n}) of the complex whose degree n is
    the sum of `sizes(n)`, in order, with d_n given by `d(n, parts)` on
    the parts of a vector of degree n."""
    dims = {n: sum(sizes(n)) for n in span}
    support = [n for n in span if dims[n]]
    if not support:
        return 0, -1, {}, {}
    lo, hi = support[0], support[-1]
    diff = {n: _dense(dims[n], dims[n - 1],
                      lambda v, n=n: d(n, _split(v, sizes(n))))
            for n in range(lo + 1, hi + 1)}
    return lo, hi, {n: dims[n] for n in range(lo, hi + 1)}, diff


def _stored(C):
    return (C.lo, C.hi, dict(C.dims),
            {n: m.entries for n, m in C.diff.items()})


def _span(*cs):
    return range(min(c.lo for c in cs) - 3, max(c.hi for c in cs) + 4)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_block_layouts_match_their_formulas(seed):
    rng = random.Random(seed)
    A, B, C = (random_chain_complex(rng) for _ in range(3))
    f = random_chain_map(rng, A, B)

    # Cone(f)_n = A_{n-1} + B_n, d(a, b) = (-d a, f a + d b)
    assert _stored(mapping_cone(f)) == _expected(
        lambda n: [A.dim(n - 1), B.dim(n)],
        lambda n, v: _neg(_apply(A.d(n - 1), v[0])) + _add(
            _apply(f.component(n - 1), v[0]), _apply(B.d(n), v[1])),
        _span(A, B))

    # degree k: A_k + B_k + C_{k+1}, d(a, b, c) = (da, db, p a - q b - dc)
    p, q = random_chain_map(rng, A, C), random_chain_map(rng, B, C)
    assert _stored(mapping_path_complex(p, q)) == _expected(
        lambda k: [A.dim(k), B.dim(k), C.dim(k + 1)],
        lambda k, v: _apply(A.d(k), v[0]) + _apply(B.d(k), v[1]) + _add(
            _apply(p.component(k), v[0]), _neg(_apply(q.component(k), v[1])),
            _neg(_apply(C.d(k + 1), v[2]))),
        _span(A, B, C))

    # the sum, in order, with d the sum of the d's; inclusion j puts x in
    # the j-th place, projection j reads it off
    summands = [random_chain_complex(rng) for _ in range(rng.randint(1, 4))]
    S, incls, projs = direct_sum(summands)

    def sizes(k):
        return [c.dim(k) for c in summands]

    assert _stored(S) == _expected(
        sizes, lambda k, v: [x for c, part in zip(summands, v)
                             for x in _apply(c.d(k), part)],
        _span(*summands))
    for j, (c, inc, pr) in enumerate(zip(summands, incls, projs)):
        for k in c.degrees():
            if not c.dim(k):
                continue
            assert inc.component(k).entries == _dense(
                c.dim(k), S.dim(k), lambda x, k=k: [
                    y for m, s in enumerate(sizes(k))
                    for y in (x if m == j else [Fraction(0)] * s)])
            assert pr.component(k).entries == _dense(
                S.dim(k), c.dim(k), lambda v, k=k: _split(v, sizes(k))[j])

    # two columns A and B shifted down by 0 and 1, horizontal
    # h_k = (-1)^k f_k (it anticommutes with d because f is a chain map):
    # degree k is A_k + B_{k+1}, d(a, b) = (d a, h a + d b)
    T = product_total([A, B], lambda n, k: f.component(k).scale(
        -1 if k % 2 else 1))
    assert _stored(T) == _expected(
        lambda k: [A.dim(k), B.dim(k + 1)],
        lambda k, v: _apply(A.d(k), v[0]) + _add(
            [x * (-1 if k % 2 else 1) for x in _apply(f.component(k), v[0])],
            _apply(B.d(k + 1), v[1])),
        _span(A, B))
