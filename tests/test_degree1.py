"""Closed-form degree-1 products against the invariant-algebra engine and
the brute-force class products."""

from fractions import Fraction

import pytest

from glfq import center, degree1
from glfq.conjtype import Partition, Polypartition, class_size, complete, linear_type
from glfq.fields import is_irreducible, linear_poly, make_field


def units(ctx):
    return [a for a in ctx.elements() if a != 0]


EXPECTED_TAGS = {
    2: {"both-unit"},
    3: {"both-unit", "b-unit", "odd-equal"},
    4: {"both-unit", "b-unit", "even-equal", "even-generic"},
    5: {"both-unit", "b-unit", "odd-equal", "odd-square", "odd-nonsquare"},
    7: {"both-unit", "b-unit", "odd-equal", "odd-square", "odd-nonsquare"},
}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_classify_total_and_exclusive(q):
    p, e = (2, 2) if q == 4 else (q, 1)
    ctx = make_field(p, e)
    seen = set()
    for a in units(ctx):
        for b in units(ctx):
            case = degree1.classify(ctx, a, b)
            seen.add(case.tag)
            if case.delta is not None:
                assert ctx.mul(case.delta, case.delta) == ctx.mul(a, b)
            if case.tag == "odd-nonsquare":
                assert ctx.sqrt(ctx.mul(a, b)) is None
            if a == 1 and b == 1:
                assert case.tag == "both-unit"
            elif a == 1 or b == 1:
                assert case.tag == "b-unit"
            elif a == b:
                assert case.tag in ("odd-equal", "even-equal")
    assert seen == EXPECTED_TAGS[q]
    with pytest.raises(ValueError):
        degree1.classify(ctx, 0, 1)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_irreducible_quadratics_criterion_vs_direct_scan(p, e):
    # the discriminant/trace criterion against direct irreducibility of each
    # X^2 + cX + b, and the cardinality (q+1)/2 - [b square] (odd q), q/2
    # (even q), for every unit b
    ctx = make_field(p, e)
    q = ctx.q
    for b in units(ctx):
        direct = tuple(
            c for c in ctx.elements() if is_irreducible(ctx, (b, c, 1)))
        assert degree1.irreducible_quadratics_I(ctx, b) == direct
        if p == 2:
            expected = q // 2
        else:
            expected = (q + 1) // 2 - (1 if ctx.sqrt(b) is not None else 0)
        assert len(direct) == expected


def test_irreducible_quadratics_examples():
    ctx3 = make_field(3)
    assert degree1.irreducible_quadratics_I(ctx3, 2) == (1, 2)
    ctx5 = make_field(5)
    assert len(degree1.irreducible_quadratics_I(ctx5, 4)) == 2
    ctx4 = make_field(2, 2)
    for b in units(ctx4):
        assert len(degree1.irreducible_quadratics_I(ctx4, b)) == 2
    with pytest.raises(ValueError):
        degree1.irreducible_quadratics_I(ctx3, 0)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_closed_form_matches_engine(q):
    # the uniform formula equals the structure constants computed from the
    # averaged product, for every pair of units
    p, e = (2, 2) if q == 4 else (q, 1)
    ctx = make_field(p, e)
    for a in units(ctx):
        for b in units(ctx):
            closed = degree1.degree1_product(ctx, a, b)
            engine = center.generic_S(linear_type(ctx, a), linear_type(ctx, b))
            assert closed == engine, (q, a, b)


def test_merge_coefficient_value():
    # coefficient of the split semisimple type {X-a, X-b} for a != b with
    # a/b != 1: 1/q from the main term plus two d-terms, total (2q-1)/q^2
    ctx = make_field(5)
    prod = degree1.degree1_product(ctx, 2, 3)
    merge = Polypartition(ctx, tuple(sorted([
        (linear_poly(ctx, 2), Partition((1,))),
        (linear_poly(ctx, 3), Partition((1,))),
    ])))
    assert prod[merge] == Fraction(2 * 5 - 1, 25)


def test_denominators_divide_2q2():
    for q in (2, 3, 5):
        ctx = make_field(q)
        for a in units(ctx):
            for b in units(ctx):
                for c in degree1.degree1_product(ctx, a, b).values():
                    assert (2 * q * q) % c.denominator == 0


@pytest.mark.parametrize("q,a,b,n", [
    (2, 1, 1, 2),
    (3, 2, 2, 2),
    (3, 2, 2, 3),
    (3, 1, 2, 3),
    (5, 2, 3, 2),
])
def test_projection_matches_brute_force(q, a, b, n):
    ctx = make_field(q)
    got = degree1.project_degree1(ctx, a, b, n)
    assert got.is_integral()
    assert got == center.completed_product(linear_type(ctx, a), linear_type(ctx, b), n)
    mass = sum(c * class_size(tau, n) for tau, c in got.terms.items())
    lam_up = complete(linear_type(ctx, a), n)
    mu_up = complete(linear_type(ctx, b), n)
    assert mass == class_size(lam_up, n) * class_size(mu_up, n)


def test_projection_with_unit_factor_is_the_other_class():
    ctx = make_field(3)
    got = degree1.project_degree1(ctx, 1, 2, 3)
    assert got.terms == {complete(linear_type(ctx, 2), 3): Fraction(1)}


def test_projection_input_validation():
    ctx = make_field(3)
    with pytest.raises(ValueError):
        degree1.project_degree1(ctx, 2, 2, 0)
    with pytest.raises(ValueError):
        degree1.project_degree1(ctx, 0, 2, 2)
