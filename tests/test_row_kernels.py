"""The row-level field kernels against per-entry references.

The references below are the kernels as they were written before the row
primitives: every entry goes through ctx.add, ctx.sub and ctx.mul.  The
row-primitive kernels must agree with them exactly on seeded random inputs
over prime fields and extension fields of characteristic 2 and 3, and
charpoly must agree with det(XI - A) expanded over permutations.
"""

import itertools
import random

import oracles
import pytest

from glfq import fields, linalg, subspaces
from glfq.fields import make_field

FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]


# -- per-entry references -------------------------------------------------

def ref_psub(ctx, A, B):
    n = max(len(A), len(B))
    return fields.pnorm(ctx.sub(A[i] if i < len(A) else 0, B[i] if i < len(B) else 0)
                        for i in range(n))


def ref_pscale(ctx, c, A):
    return fields.pnorm(ctx.mul(c, a) for a in A)


def ref_pmul(ctx, A, B):
    if not A or not B:
        return ()
    out = [0] * (len(A) + len(B) - 1)
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return fields.pnorm(out)


def ref_pdivmod(ctx, A, B):
    A = list(A)
    q = [0] * max(0, len(A) - len(B) + 1)
    binv = ctx.inv(B[-1])
    db = len(B) - 1
    for i in range(len(A) - 1, db - 1, -1):
        c = ctx.mul(A[i], binv)
        if c:
            q[i - db] = c
            for j, b in enumerate(B):
                A[i - db + j] = ctx.sub(A[i - db + j], ctx.mul(c, b))
    return fields.pnorm(q), fields.pnorm(A)


def ref_dot(ctx, u, v):
    s = 0
    for x, y in zip(u, v):
        s = ctx.add(s, ctx.mul(x, y))
    return s


def ref_mat_mul(ctx, A, B):
    return tuple(tuple(ref_dot(ctx, row, col) for col in zip(*B)) for row in A)


def ref_rref(ctx, A, transform=False):
    rows = [list(r) for r in A]
    m = len(rows)
    n = len(rows[0]) if m else 0
    T = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        T[r], T[pr] = T[pr], T[r]
        inv = ctx.inv(rows[r][c])
        rows[r] = [ctx.mul(inv, x) for x in rows[r]]
        T[r] = [ctx.mul(inv, x) for x in T[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(rows[i], rows[r])]
                T[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(T[i], T[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    R = tuple(tuple(row) for row in rows)
    if transform:
        return R, tuple(pivots), tuple(tuple(t) for t in T)
    return R, tuple(pivots)


def ref_reduce_against(ctx, v, rref_rows):
    v = list(v)
    for row in rref_rows:
        piv = next(j for j, x in enumerate(row) if x)
        c = v[piv]
        if c:
            for j, x in enumerate(row):
                v[j] = ctx.sub(v[j], ctx.mul(c, x))
    return tuple(v)


def ref_rref_with(ctx, rref_rows, r):
    p = next(j for j, x in enumerate(r) if x)
    inv = ctx.inv(r[p])
    r = tuple(ctx.mul(inv, x) for x in r)
    rows = [tuple(ctx.sub(x, ctx.mul(row[p], y)) for x, y in zip(row, r))
            for row in rref_rows]
    i = next((i for i, row in enumerate(rows) if not any(row[:p])), len(rows))
    return tuple(rows[:i]) + (r,) + tuple(rows[i:])


def leibniz_charpoly(ctx, A):
    """det(XI - A) as the sum over permutations of signed products of the
    entries of XI - A, each a polynomial of degree <= 1."""
    n = len(A)
    entry = [[fields.pnorm((ctx.neg(A[i][j]), 1 if i == j else 0)) for j in range(n)]
             for i in range(n)]
    total = ()
    for perm in itertools.permutations(range(n)):
        term = (1,)
        for i, j in enumerate(perm):
            term = ref_pmul(ctx, term, entry[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        if inversions % 2 == 0:
            term = ref_pscale(ctx, ctx.neg(1), term)
        total = ref_psub(ctx, total, term)  # total + term for even, - for odd
    return total


# -- random inputs ----------------------------------------------------------

def rand_matrix(ctx, rng, r, c):
    return tuple(tuple(rng.randrange(ctx.q) for _ in range(c)) for _ in range(r))


def rand_low_rank(ctx, rng, r, c):
    """An r x c matrix of rank at most min(r, c) - 1 (a product through a
    thinner middle)."""
    k = min(r, c) - 1
    if k == 0:
        return tuple((0,) * c for _ in range(r))
    return ref_mat_mul(ctx, rand_matrix(ctx, rng, r, k), rand_matrix(ctx, rng, k, c))


def rand_poly(ctx, rng, deg):
    return fields.pnorm(rng.randrange(ctx.q) for _ in range(deg + 1))


def rand_invertible(ctx, rng, n):
    while True:
        S = rand_matrix(ctx, rng, n, n)
        if linalg.rank(ctx, S) == n:
            return S


def small_minimal_polynomial(ctx, rng, n):
    """S D S^-1 for D scalar, or diagonal with one repeated eigenvalue: the
    minimal polynomial has degree < n."""
    a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
    diag = [a] * n if rng.random() < 0.5 else [a] * (n - 1) + [b]
    D = tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n))
    S = rand_invertible(ctx, rng, n)
    return ref_mat_mul(ctx, ref_mat_mul(ctx, S, D), linalg.inverse(ctx, S))


# -- tests --------------------------------------------------------------------

@pytest.mark.parametrize("p,e", FIELDS)
def test_row_primitives_match_element_ops(p, e):
    ctx = make_field(p, e)
    rng = random.Random(20)
    for _ in range(200):
        n = rng.randint(0, 6)
        u = [rng.choice((0, rng.randrange(ctx.q))) for _ in range(n)]
        v = [rng.choice((0, rng.randrange(ctx.q))) for _ in range(n)]
        c = rng.randrange(ctx.q)
        assert ctx.row_submul(u, c, v) == [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(u, v)]
        assert ctx.row_scale(c, u) == [ctx.mul(c, x) for x in u]
        vs = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        assert ctx.row_dots(u, vs) == tuple(ref_dot(ctx, u, v) for v in vs)


@pytest.mark.parametrize("p,e", FIELDS)
def test_polynomial_kernels_match_references(p, e):
    ctx = make_field(p, e)
    rng = random.Random(21)
    for _ in range(150):
        A = rand_poly(ctx, rng, rng.randint(-1, 6))
        B = rand_poly(ctx, rng, rng.randint(-1, 4))
        assert fields.pmul(ctx, A, B) == ref_pmul(ctx, A, B)
        if B:
            assert fields.pdivmod(ctx, A, B) == ref_pdivmod(ctx, A, B)


@pytest.mark.parametrize("p,e", FIELDS)
def test_mat_mul_matches_reference(p, e):
    ctx = make_field(p, e)
    rng = random.Random(22)
    for _ in range(60):
        r, k, c = (rng.randint(1, 4) for _ in range(3))
        A, B = rand_matrix(ctx, rng, r, k), rand_matrix(ctx, rng, k, c)
        assert linalg.mat_mul(ctx, A, B) == ref_mat_mul(ctx, A, B)
        v = tuple(rng.randrange(ctx.q) for _ in range(k))
        assert oracles.mat_vec(ctx, A, v) == tuple(ref_dot(ctx, row, v) for row in A)


@pytest.mark.parametrize("p,e", FIELDS)
def test_rref_matches_reference_with_transform(p, e):
    ctx = make_field(p, e)
    rng = random.Random(23)
    for trial in range(80):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_low_rank(ctx, rng, r, c) if trial % 2 else rand_matrix(ctx, rng, r, c)
        R, piv, T = linalg.rref(ctx, A, transform=True)
        assert (R, piv, T) == ref_rref(ctx, A, transform=True)
        assert linalg.rref(ctx, A) == (R, piv)
        assert ref_mat_mul(ctx, T, A) == R
        assert len(T) == r and linalg.rank(ctx, T) == r
        if trial % 2:
            assert len(piv) < min(r, c)


@pytest.mark.parametrize("p,e", FIELDS)
def test_subspace_reductions_match_references(p, e):
    ctx = make_field(p, e)
    rng = random.Random(24)
    for _ in range(80):
        n = rng.randint(1, 5)
        S = subspaces.from_rows(ctx, rand_matrix(ctx, rng, rng.randint(1, n), n), n)
        for _ in range(4):
            v = tuple(rng.randrange(ctx.q) for _ in range(n))
            r = subspaces.reduce_against(ctx, v, S.basis)
            assert r == ref_reduce_against(ctx, v, S.basis)
            if any(r):
                grown = subspaces._rref_with(ctx, S.basis, r)
                assert grown == ref_rref_with(ctx, S.basis, r)
                assert grown == subspaces.from_rows(ctx, S.basis + (v,), n).basis


@pytest.mark.parametrize("p,e", FIELDS)
def test_charpoly_matches_leibniz_expansion(p, e):
    ctx = make_field(p, e)
    rng = random.Random(25)
    for trial in range(40):
        n = rng.randint(1, 4)
        if trial % 4 == 3:
            A = small_minimal_polynomial(ctx, rng, n)
        elif trial % 4 == 2:
            A = rand_low_rank(ctx, rng, n, n)
        else:
            A = rand_matrix(ctx, rng, n, n)
        assert linalg.charpoly(ctx, A) == leibniz_charpoly(ctx, A)
    # scalar and zero matrices: minimal polynomial of degree 1
    for n in range(1, 5):
        for a in (0, 1, ctx.q - 1):
            A = tuple(tuple(a if i == j else 0 for j in range(n)) for i in range(n))
            expect = fields.ppow(ctx, fields.linear_poly(ctx, a), n)  # (X - a)^n
            assert linalg.charpoly(ctx, A) == expect == leibniz_charpoly(ctx, A)
