"""Conjugacy types of GL(n, F_q): labels, class sizes, census."""

import pytest

from glfq import linalg
from glfq.conjtype import (
    Partition,
    Polypartition,
    census,
    class_orbit,
    class_size,
    complete,
    enumerate_polypartitions,
    format_polypartition,
    gl_order,
    jordan_matrix,
    parse_polypartition,
    partitions_of,
    reduce_polypartition,
    type_of,
)
from glfq.fields import PX, linear_poly, make_field


def test_partition_basics():
    lam = Partition((3, 2, 2))
    assert lam.conjugate().parts == (3, 3, 1)
    assert lam.conjugate().conjugate() == lam
    assert lam.mult(2) == 2
    assert len(partitions_of(6)) == 11


def test_gl6_f5_example_class_size():
    ctx = make_field(5)
    mu = parse_polypartition(ctx, "{X^2+X+1:(2);X+3:(1,1)}")
    assert class_size(mu, 6) == 38418317437500000000


def test_type_of_companion_example():
    ctx = make_field(5)
    g = ((0, 2), (1, 2))
    assert format_polypartition(type_of(ctx, g)) == "{X^2+3*X+3:(1)}"


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_jordan_matrix_has_its_type(p, e, n):
    ctx = make_field(p, e)
    for mu in enumerate_polypartitions(ctx, n):
        J = jordan_matrix(mu)
        assert linalg.rank(ctx, J) == n
        assert type_of(ctx, J) == mu


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (3, 1, 2), (2, 1, 3)])
def test_census_matches_formula(p, e, n):
    ctx = make_field(p, e)
    buckets = census(ctx, n)
    total = 0
    for mu, cnt in buckets.items():
        assert cnt == class_size(mu, n)
        total += cnt
    assert total == gl_order(ctx.q, n)
    assert set(buckets) == set(enumerate_polypartitions(ctx, n))


def test_class_orbit_matches_class_size():
    ctx = make_field(2)
    for mu in enumerate_polypartitions(ctx, 3):
        orb = class_orbit(mu, 3)
        assert len(orb) == class_size(mu, 3)
        assert all(type_of(ctx, g) == mu for g in list(orb)[:5])


def test_complete_and_reduce_roundtrip():
    ctx = make_field(3)
    mu = parse_polypartition(ctx, "{X+1:(2);X+2:(1)}")
    up = complete(mu, 6)
    assert up.size == 6
    red, stripped = reduce_polypartition(up)
    assert red == reduce_polypartition(mu)[0]
    assert stripped == 3 + reduce_polypartition(mu)[1]


def test_parse_format_roundtrip():
    ctx = make_field(5)
    for s in ("{X+1:(2,1);X^2+X+1:(3)}", "{X+4:(1)}", "{}"):
        mu = parse_polypartition(ctx, s)
        assert parse_polypartition(ctx, format_polypartition(mu)) == mu


def test_class_size_multiplicative_over_labels():
    # centralizer factorizes over the irreducible labels
    ctx = make_field(2)
    mu = parse_polypartition(ctx, "{X+1:(1);X^2+X+1:(1)}")
    a = parse_polypartition(ctx, "{X+1:(1)}")
    b = parse_polypartition(ctx, "{X^2+X+1:(1)}")
    lhs = class_size(mu, 3) * (gl_order(2, 1) * gl_order(4, 1))
    rhs = gl_order(2, 3)
    assert lhs == rhs
    assert class_size(a, 1) == 1 and class_size(b, 2) == 2


def test_polypartition_validation_raises_value_error():
    # explicit checks, so they also run under python -O
    ctx = make_field(3)
    with pytest.raises(ValueError):
        Polypartition(ctx, {PX: Partition((1,))})
    with pytest.raises(ValueError):
        Polypartition(ctx, {linear_poly(ctx, 1): Partition(())})
    with pytest.raises(ValueError):
        Polypartition(ctx, {(2, 2): Partition((1,))})  # not monic
    with pytest.raises(ValueError):
        Polypartition(ctx, ((linear_poly(ctx, 1), Partition((1,))),
                            (linear_poly(ctx, 1), Partition((2,)))))


@pytest.mark.parametrize("p,e,text", [
    (3, 1, "1,2;2,1"), (2, 2, "t,1;t+1,t"), (2, 1, "0,0,0;0,1,0;0,0,1")])
def test_type_of_rejects_singular_matrix(p, e, text):
    ctx = make_field(p, e)
    with pytest.raises(ValueError, match="type_of requires an invertible matrix"):
        type_of(ctx, linalg.mat_parse(ctx, text))
