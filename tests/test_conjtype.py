"""Conjugacy types of GL(n, F_q): labels, class sizes, census."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from glfq import fields, linalg
from glfq.conjtype import (
    Partition,
    Polypartition,
    _conjugation_moves,
    census,
    centralizer_order,
    class_orbit,
    class_size,
    complete,
    enumerate_gl,
    enumerate_polypartitions,
    format_polypartition,
    gl_order,
    jordan_matrix,
    parse_polypartition,
    partitions_of,
    reduce_polypartition,
    type_of,
    with_unipotent,
)
from glfq.fields import PX, enumerate_irreducibles, linear_poly, make_field, pdeg


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
    # every type of size <= 3 at q = 2 and 3: with_unipotent rewrites the
    # (X-1) block and nothing else, and complete and reduce_polypartition
    # add and strip parts 1 there
    for ctx in (make_field(2), make_field(3)):
        xm1 = linear_poly(ctx, 1)
        for mu in (mu for size in range(4) for mu in enumerate_polypartitions(ctx, size)):
            pi = mu.unipotent
            assert list(pi) == sorted(pi, reverse=True)
            assert with_unipotent(mu, pi) == mu
            assert with_unipotent(mu, pi[::-1]) == mu
            assert with_unipotent(mu, (2,) + pi) == with_unipotent(mu, pi + (2,))
            bare = with_unipotent(mu, ())
            assert bare.unipotent == ()
            assert bare.entries == tuple((P, part) for P, part in mu.entries if P != xm1)
            up = complete(mu, 6)
            assert up.size == 6
            red = reduce_polypartition(up)
            assert red == reduce_polypartition(mu)
            assert red.unipotent == tuple(x for x in pi if x > 1)
            # each stripped part has size 1
            assert up.size - red.size == up.unipotent.count(1) == 6 - mu.size + pi.count(1)


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


@pytest.mark.parametrize("q", [2, 3, 4])
def test_integer_centralizer_order_matches_the_pochhammer_formula(q):
    # every type of size <= 4: the class size, in integers, is |GL(n)| over
    # the centralizer order in Fraction Pochhammer symbols
    ctx = make_field(2, 2) if q == 4 else make_field(q)
    for n in range(5):
        for mu in enumerate_polypartitions(ctx, n):
            size = class_size(mu, n)
            assert type(size) is int
            assert size * oracles.centralizer_order_by_pochhammer(mu) == gl_order(q, n)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_stored_invariants_match_scans_ranks_and_censuses(q):
    # every type of size <= 4: size and unipotent are the sum and the scan
    # over the entries, and norm = rank(J(tau) - 1); |C(tau)| is |GL| over
    # the census count where the census is cheap (size <= 3, or <= 2 at q = 4)
    ctx = make_field(2, 2) if q == 4 else make_field(q)
    xm1 = linear_poly(ctx, 1)
    for n in range(5):
        counts = census(ctx, n) if n <= (2 if q == 4 else 3) else None
        for tau in enumerate_polypartitions(ctx, n):
            assert tau.size == sum(pdeg(P) * sum(mu.parts) for P, mu in tau.entries) == n
            assert tau.unipotent == next(
                (mu.parts for P, mu in tau.entries if P == xm1), ())
            J = linalg.mat_sub(ctx, jordan_matrix(tau), linalg.identity(n))
            assert tau.norm == linalg.rank(ctx, J)
            if counts is not None:
                assert centralizer_order(tau) * counts[tau] == gl_order(q, n)


def test_class_size_of_a_large_scalar_class_cancels_before_multiplying():
    # |GL(1000, F_2)| has about 10^6 bits; the shared factors q^j - 1 cancel
    ctx = make_field(2)
    ident = parse_polypartition(ctx, "{X+1:(%s)}" % ",".join(["1"] * 1000))
    assert class_size(ident, 1000) == 1


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


def type_of_by_kernel_chain(ctx, g):
    """Reference type: for every factor P of the uncached factorization, the
    whole chain dim ker P(g)^j until it stops growing, with no shortcut for
    multiplicity 1 or for increments of 1."""
    n = len(g)
    entries = {}
    for P, mult in fields.factor.__wrapped__(ctx, linalg.charpoly(ctx, g)):
        Pg = linalg.apply_poly(ctx, P, g)
        cols, power, prev = [], linalg.identity(n), 0
        while True:
            power = linalg.mat_mul(ctx, power, Pg)
            dim = n - linalg.rank(ctx, power)
            if dim == prev:
                break
            cols.append((dim - prev) // pdeg(P))
            prev = dim
        entries[P] = Partition(tuple(cols)).conjugate()
        assert entries[P].size == mult
    return Polypartition(ctx, entries)


def random_invertible(ctx, rng, n):
    while True:
        g = tuple(tuple(rng.randrange(ctx.q) for _ in range(n)) for _ in range(n))
        if linalg.rank(ctx, g) == n:
            return g


@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 2, 2)])
def test_type_of_matches_kernel_chain_on_whole_group(p, e, n):
    ctx = make_field(p, e)
    for g in enumerate_gl(ctx, n):
        assert type_of(ctx, g) == type_of_by_kernel_chain(ctx, g)


@pytest.mark.parametrize("p,n", [(3, 3), (2, 4)])
def test_type_of_matches_kernel_chain_on_samples(p, n):
    ctx = make_field(p)
    rng = random.Random(9)
    samples = [random_invertible(ctx, rng, n) for _ in range(400)]
    # Jordan representatives make sure every shape of kernel chain is met
    samples += [jordan_matrix(mu) for mu in enumerate_polypartitions(ctx, n)]
    for g in samples:
        assert type_of(ctx, g) == type_of_by_kernel_chain(ctx, g)


@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (3, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2)])
def test_conjugation_moves_match_matrix_products(p, e, n):
    # the walk under the moves reaches exactly the conjugates g J g^{-1}
    ctx = make_field(p, e)
    pairs = [(g, linalg.inverse(ctx, g)) for g in enumerate_gl(ctx, n)]
    for mu in enumerate_polypartitions(ctx, n):
        J = jordan_matrix(mu)
        want = {linalg.mat_mul(ctx, linalg.mat_mul(ctx, g, J), g_inv) for g, g_inv in pairs}
        assert class_orbit(mu, n) == sorted(want)


def test_conjugation_moves_keep_the_type():
    ctx, n = make_field(3), 4
    moves = _conjugation_moves(ctx, n)
    assert len(moves) == 2 * n - 1
    rng = random.Random(18)
    for _ in range(50):
        g = random_invertible(ctx, rng, n)
        mu = type_of(ctx, g)
        assert all(type_of(ctx, move(g)) == mu for move in moves)


@st.composite
def polypartitions(draw):
    """A polypartition of size <= 4 over F_2, F_3 or F_4, built one part at
    a time."""
    ctx = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2)])))
    rest = draw(st.integers(0, 4))
    entries = {}
    while rest:
        d = draw(st.integers(1, rest))
        P = draw(st.sampled_from([P for P in enumerate_irreducibles(ctx, d) if P != PX]))
        m = draw(st.integers(1, rest // d))
        entries[P] = tuple(sorted(entries.get(P, ()) + (m,), reverse=True))
        rest -= d * m
    return Polypartition(ctx, {P: Partition(parts) for P, parts in entries.items()})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polypartitions())
@example(parse_polypartition(make_field(5), "{X+1:(2,1);X^2+X+1:(3)}"))
@example(parse_polypartition(make_field(5), "{X+4:(1)}"))
@example(parse_polypartition(make_field(5), "{}"))
def test_parse_format_roundtrip(mu):
    # over F_4 the labels carry coefficients in t, printed as (t+1)*X
    text = format_polypartition(mu)
    assert parse_polypartition(mu.ctx, text) == mu
    assert format_polypartition(parse_polypartition(mu.ctx, text)) == text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polypartitions())
def test_type_of_jordan_matrix_property(mu):
    assert type_of(mu.ctx, jordan_matrix(mu)) == mu


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]),
       st.integers(0, 4))
@example((2, 3), 4)
@example((3, 2), 4)
def test_class_sizes_sum_to_gl_order(field, n):
    # closed forms only: the classes of GL(n, F_q) partition the group
    ctx = make_field(*field)
    assert (sum(class_size(mu, n) for mu in enumerate_polypartitions(ctx, n))
            == gl_order(ctx.q, n))


def test_enumerate_polypartitions_with_more_labels_than_the_recursion_limit():
    # F_8 has 1211 labels of degree <= 4 other than X, more than Python's
    # default recursion limit; GL(4, F_q) has q^4 - q classes
    assert len(enumerate_polypartitions(make_field(2, 3), 4)) == 8 ** 4 - 8


def test_type_of_and_class_orbit_checks_run_under_optimized_mode():
    # each check is an explicit raise, so a broken rank, factorization or
    # class size is caught under -O too
    code = (
        "from glfq import conjtype, fields, linalg\n"
        "from glfq.fields import make_field\n"
        "ctx = make_field(2)\n"
        "mu = conjtype.parse_polypartition(ctx, '{X^2+X+1:(1,1)}')\n"
        "g = conjtype.jordan_matrix(mu)\n"
        "def expect(exc, call):\n"
        "    try:\n"
        "        call()\n"
        "    except exc as e:\n"
        "        print(e)\n"
        "    else:\n"
        "        raise SystemExit('no %s under -O' % exc.__name__)\n"
        "expect(ValueError, lambda: conjtype.type_of(ctx, g[:3]))\n"
        "rank, factor, class_size = linalg.rank, fields.factor, conjtype.class_size\n"
        "linalg.rank = lambda ctx, A: rank(ctx, A) + 1\n"
        "expect(AssertionError, lambda: conjtype.type_of(ctx, g))\n"
        "linalg.rank = rank\n"
        "fields.factor = lambda ctx, P: tuple((Q, m + 1) for Q, m in factor(ctx, P))\n"
        "expect(AssertionError, lambda: conjtype.type_of(ctx, g))\n"
        "fields.factor = factor\n"
        "conjtype.class_size = lambda mu, n: 0\n"
        "expect(AssertionError, lambda: conjtype.class_orbit(\n"
        "    conjtype.parse_polypartition(ctx, '{X+1:(2)}'), 2))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "type_of requires a square matrix, got 3x4",
        "the kernel of (X^2+X+1)(g)^1 grows by 3, not a multiple of 2",
        "the kernels of (X^2+X+1)(g)^j give (1,1), of size 2, not the multiplicity 3",
        "the orbit of {X+1:(2)} has 3 elements, not class_size 0",
    ]
