"""Field arithmetic, polynomial helpers, and irreducibility."""

import itertools

import pytest

from glfq.fields import (
    enumerate_irreducibles,
    factor,
    is_irreducible,
    linear_poly,
    make_field,
    peval,
    pmul,
    poly_parse,
    poly_str,
)

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


@pytest.mark.parametrize("p,e", FIELDS)
def test_field_axioms(p, e):
    ctx = make_field(p, e)
    els = ctx.elements()
    assert len(els) == p ** e
    for a in els:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
    for a, b, c in itertools.product(els[: min(len(els), 5)], repeat=3):
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        make_field(4)


@pytest.mark.parametrize("p,e", FIELDS)
def test_sqrt_and_is_square(p, e):
    ctx = make_field(p, e)
    squares = {ctx.mul(a, a) for a in ctx.elements()}
    for a in ctx.elements():
        assert ctx.is_square(a) == (a in squares)
        if a in squares:
            r = ctx.sqrt(a)
            assert ctx.mul(r, r) == a


def test_abs_trace_additive_and_onto():
    ctx = make_field(2, 2)
    values = set()
    for a in ctx.elements():
        for b in ctx.elements():
            assert ctx.abs_trace(ctx.add(a, b)) == (
                ctx.abs_trace(a) + ctx.abs_trace(b)) % 2
        values.add(ctx.abs_trace(a))
    assert values == {0, 1}


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_irreducibility_vs_roots_for_quadratics(p, e):
    ctx = make_field(p, e)
    for c0 in ctx.elements():
        for c1 in ctx.elements():
            P = (c0, c1, 1)
            has_root = any(peval(ctx, P, x) == 0 for x in ctx.elements())
            assert is_irreducible(ctx, P) == (not has_root)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1)])
def test_irreducible_count_degree2(p, e):
    # q(q-1)/2 monic irreducible quadratics over F_q
    ctx = make_field(p, e)
    q = ctx.q
    assert len(enumerate_irreducibles(ctx, 2)) == q * (q - 1) // 2


def test_factor_recovers_product():
    ctx = make_field(3)
    P = pmul(ctx, poly_parse(ctx, "X+1"), poly_parse(ctx, "X^2+1"))
    P = pmul(ctx, P, poly_parse(ctx, "X+1"))
    fac = dict(factor(ctx, P))
    assert fac[poly_parse(ctx, "X+1")] == 2
    assert fac[poly_parse(ctx, "X^2+1")] == 1
    back = (1,)
    for g, m in fac.items():
        for _ in range(m):
            back = pmul(ctx, back, g)
    assert back == P


def test_poly_parse_roundtrip():
    ctx = make_field(5)
    for s in ("X^2+X+1", "X+3", "X^3+2*X+4"):
        P = poly_parse(ctx, s)
        assert poly_parse(ctx, poly_str(ctx, P)) == P


def test_linear_poly_root():
    ctx = make_field(5)
    for a in ctx.elements():
        assert peval(ctx, linear_poly(ctx, a), a) == 0


def test_elem_parse_rejects_out_of_range_extension_coefficients():
    ctx4 = make_field(2, 2)
    assert ctx4.elem_parse("t+1") == 3
    assert ctx4.elem_parse("1") == 1
    for text in ("3", "2", "2*t", "t+2", "-3"):
        with pytest.raises(ValueError, match="out of range"):
            ctx4.elem_parse(text)
    ctx9 = make_field(3, 2)
    assert ctx9.elem_parse("2*t+2") == 8
    with pytest.raises(ValueError):
        ctx9.elem_parse("3*t")
    # prime fields reduce integer literals mod p
    assert make_field(5).elem_parse("7") == 2
    assert make_field(5).elem_parse("-1") == 4
