"""Exact dense linear algebra over F_q."""

import functools
import itertools
import random

import pytest
from oracles import apply_poly_by_powers, peval

from glfq import fields, linalg
from glfq.fields import make_field


def random_matrix(ctx, rng, n):
    return tuple(
        tuple(rng.choice(ctx.elements()) for _ in range(n)) for _ in range(n))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_rref_idempotent_and_rank(p, e):
    ctx = make_field(p, e)
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 4)
        A = random_matrix(ctx, rng, n)
        R, piv = linalg.rref(ctx, [list(r) for r in A])
        assert linalg.rank(ctx, A) == len(piv)
        R2, piv2 = linalg.rref(ctx, [list(r) for r in R])
        assert tuple(R2) == tuple(R) and piv2 == piv


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_inverse(p, e):
    ctx = make_field(p, e)
    rng = random.Random(1)
    found = 0
    while found < 30:
        n = rng.randint(1, 4)
        A = random_matrix(ctx, rng, n)
        if linalg.rank(ctx, A) != n:
            continue
        found += 1
        B = linalg.inverse(ctx, A)
        assert linalg.mat_mul(ctx, A, B) == linalg.identity(n)
        assert linalg.mat_mul(ctx, B, A) == linalg.identity(n)


def test_rank_exhaustive_2x2_over_f2():
    ctx = make_field(2)
    counts = {0: 0, 1: 0, 2: 0}
    for entries in itertools.product((0, 1), repeat=4):
        A = (entries[:2], entries[2:])
        counts[linalg.rank(ctx, A)] += 1
    # 1 zero matrix, 6 invertible, 9 rank one
    assert counts == {0: 1, 1: 9, 2: 6}


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1)])
def test_charpoly_cayley_hamilton(p, e):
    ctx = make_field(p, e)
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 4)
        A = random_matrix(ctx, rng, n)
        cp = linalg.charpoly(ctx, A)
        assert len(cp) == n + 1 and cp[-1] == 1
        assert linalg.apply_poly(ctx, cp, A) == linalg.zeros(n, n)


def test_charpoly_determinant_and_trace():
    ctx = make_field(5)
    rng = random.Random(3)
    for _ in range(30):
        A = random_matrix(ctx, rng, 2)
        cp = linalg.charpoly(ctx, A)
        a, b = A[0]
        c, d = A[1]
        det = ctx.sub(ctx.mul(a, d), ctx.mul(b, c))
        tr = ctx.add(a, d)
        assert cp == (det, ctx.neg(tr), 1)
        assert (linalg.rank(ctx, A) == 2) == (peval(ctx, cp, 0) != 0)


def test_mat_parse_str_roundtrip():
    ctx = make_field(5)
    A = linalg.mat_parse(ctx, "0,2;1,2")
    assert A == ((0, 2), (1, 2))
    text = ";".join(",".join(ctx.elem_str(x) for x in row) for row in A)
    assert linalg.mat_parse(ctx, text) == A


def mat_mul_by_field_ops(ctx, A, B):
    """Reference product: every entry summed with ctx.add over ctx.mul."""
    return tuple(
        tuple(functools.reduce(ctx.add, (ctx.mul(x, y) for x, y in zip(row, col)), 0)
              for col in zip(*B))
        for row in A)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2)])
def test_mat_mul_matches_field_op_reference(p, e):
    ctx = make_field(p, e)
    rng = random.Random(5)
    for _ in range(60):
        r, k, c = (rng.randint(1, 4) for _ in range(3))
        A = tuple(tuple(rng.choice(ctx.elements()) for _ in range(k)) for _ in range(r))
        B = tuple(tuple(rng.choice(ctx.elements()) for _ in range(c)) for _ in range(k))
        assert linalg.mat_mul(ctx, A, B) == mat_mul_by_field_ops(ctx, A, B)
    # empty shapes: 0 x 0 times 0 x 0, 2 x 0 times 0 x 0, 2 x 3 times 3 x 0
    assert linalg.mat_mul(ctx, (), ()) == ()
    assert linalg.mat_mul(ctx, ((), ()), ()) == ((), ())
    assert linalg.mat_mul(ctx, ((1, 0, 1),) * 2, ((),) * 3) == ((), ())
    with pytest.raises(ValueError, match="shape mismatch in mat_mul: 2x3 \\* 2x3"):
        linalg.mat_mul(ctx, ((1, 0, 1),) * 2, ((1, 0, 1),) * 2)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2)])
def test_apply_poly_matches_sum_of_powers(p, e):
    ctx = make_field(p, e)
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(1, 3)
        A = random_matrix(ctx, rng, n)
        # leading coefficient not forced to 1; the zero polynomial included
        P = fields.pnorm(tuple(rng.choice(ctx.elements()) for _ in range(rng.randint(0, 4))))
        expect, power = linalg.zeros(n, n), linalg.identity(n)
        for c in P:
            expect = tuple(tuple(ctx.add(x, ctx.mul(c, y)) for x, y in zip(er, pr))
                           for er, pr in zip(expect, power))
            power = linalg.mat_mul(ctx, power, A)
        assert linalg.apply_poly(ctx, P, A) == expect


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (2, 2)])
def test_apply_poly_starts_horner_from_the_matrix(p, e, monkeypatch):
    # monic, non-monic and constant P on random matrices, against the sum of
    # powers; a P of degree d >= 1 takes d - 1 products, none by the identity
    ctx = make_field(p, e)
    rng = random.Random(7)
    units = [x for x in ctx.elements() if x]
    calls = []
    mat_mul = linalg.mat_mul
    for _ in range(40):
        n = rng.randint(1, 3)
        A = random_matrix(ctx, rng, n)
        d = rng.randint(0, 4)
        lead = 1 if rng.random() < 0.5 else rng.choice(units)
        P = tuple(rng.choice(ctx.elements()) for _ in range(d)) + (lead,)
        want = apply_poly_by_powers(ctx, P, A)
        calls.clear()
        monkeypatch.setattr(linalg, "mat_mul", lambda *a: calls.append(1) or mat_mul(*a))
        got = linalg.apply_poly(ctx, P, A)
        monkeypatch.setattr(linalg, "mat_mul", mat_mul)
        assert got == want
        assert len(calls) == max(d - 1, 0)
