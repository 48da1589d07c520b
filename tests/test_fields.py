"""Field arithmetic, polynomial helpers, and irreducibility."""

import itertools
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    elem_parse_by_terms,
    elem_str_by_terms,
    field_tables_by_schoolbook,
    is_square_by_euler,
    peval,
    poly_parse_by_terms,
    poly_str_by_terms,
)

from glfq.fields import (
    MAX_TYPE_OF_CALLS,
    FieldCtx,
    WorkCapExceeded,
    enumerate_irreducibles,
    factor,
    is_irreducible,
    is_prime,
    linear_poly,
    make_field,
    pmul,
    pnorm,
    poly_parse,
    poly_str,
    prime_factors,
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
        assert (ctx.sqrt(a) is not None) == (a in squares)
        if a in squares:
            r = ctx.sqrt(a)
            assert ctx.mul(r, r) == a


# every field with q <= 49
FIELDS_TO_49 = [(p, e) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
                for e in range(1, 6) if p ** e <= 49]


@pytest.mark.parametrize("p,e", FIELDS_TO_49)
def test_element_text_and_squares_match_the_oracles(p, e):
    ctx = make_field(p, e)
    for a in ctx.elements():
        assert ctx.elem_str(a) == elem_str_by_terms(ctx, a)
        assert (ctx.sqrt(a) is not None) == is_square_by_euler(ctx, a)


@pytest.mark.parametrize("p,e", [(p, e) for p, e in FIELDS_TO_49 if p ** e <= 9])
def test_polynomial_text_matches_the_oracle(p, e):
    # every polynomial of degree <= 2, the zero polynomial included
    ctx = make_field(p, e)
    for P in map(pnorm, itertools.product(ctx.elements(), repeat=3)):
        assert poly_str(ctx, P) == poly_str_by_terms(ctx, P)
        assert poly_parse(ctx, poly_str(ctx, P)) == P


@pytest.mark.parametrize("p,e,degree", [
    (2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 3), (7, 1, 3), (2, 3, 3), (3, 2, 3),
    (2, 4, 2), (5, 2, 2),
])
def test_reader_matches_the_term_split_oracles(p, e, degree):
    # every element and every polynomial of degree <= degree, written by
    # elem_str and poly_str, bare, with spaces, and (polynomials) with '**'
    ctx = make_field(p, e)

    def spaced(text):
        return " %s " % " ".join(text)

    for a in ctx.elements():
        for text in (ctx.elem_str(a), spaced(ctx.elem_str(a))):
            assert ctx.elem_parse(text) == elem_parse_by_terms(ctx, text) == a
    for P in map(pnorm, itertools.product(ctx.elements(), repeat=degree + 1)):
        text = poly_str(ctx, P)
        starred = text.replace("^", "**")
        for text in (text, spaced(text), starred, spaced(starred)):
            assert poly_parse(ctx, text) == poly_parse_by_terms(ctx, text) == P


def test_prime_factors_match_a_sieve():
    N = 3000
    smallest = list(range(N))  # smallest prime factor, by the sieve of Eratosthenes
    for d in range(2, N):
        if smallest[d] == d:
            for m in range(d * d, N, d):
                smallest[m] = min(smallest[m], d)
    for n in range(N):
        expected, m = [], n
        while m > 1:
            expected.append(smallest[m])
            while m % expected[-1] == 0:
                m //= expected[-1]
        assert prime_factors(n) == expected, n


def test_is_prime_matches_trial_division_below_10_5():
    # prime_factors is trial division up to isqrt(n)
    for n in range(-7, 10 ** 5):
        assert is_prime(n) == (prime_factors(n) == [n]), n


@pytest.mark.parametrize("n,prime", [
    # Carmichael numbers, from 561 up to 13 digits
    (561, False), (1105, False), (1729, False), (41041, False), (825265, False),
    (321197185, False), (5394826801, False), (232250619601, False), (9746347772161, False),
    # a strong pseudoprime to every base 2..31, and one to every base 2..37
    (3825123056546413051, False), (318665857834031151167461, False),
    # primes: 2^31 - 1, the least above 10^12, 2^61 - 1, the least above 10^18
    (2 ** 31 - 1, True), (10 ** 12 + 39, True), (2 ** 61 - 1, True), (10 ** 18 + 3, True),
    # products of two large primes
    ((2 ** 31 - 1) * (10 ** 12 + 39), False), ((10 ** 12 + 39) ** 2, False),
])
def test_is_prime_on_pseudoprimes_and_large_primes(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_at_the_bound_of_its_bases():
    # the least strong pseudoprime to every base 2..41: at and above it
    # primality is left to trial division, which is refused there
    with pytest.raises(WorkCapExceeded, match="trial divisions"):
        is_prime(3317044064679887385961981)


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


@pytest.mark.parametrize("p,e,text,named", [
    (13, 1, "1 2", "space between '1' and '2'"),
    (13, 1, "-1 2", "space between '1' and '2'"),
    (13, 1, "1_2", "'1_2' is not an integer"),
    (13, 1, "1 _2", "space between '1' and '_'"),
    (2, 2, "1 t", "space between '1' and 't'"),
    (2, 2, "t 1", "space between 't' and '1'"),
    (3, 2, "2*t+1_0", "'1_0' is not an integer"),
])
def test_elem_parse_refuses_a_split_or_underscored_literal(p, e, text, named):
    with pytest.raises(ValueError, match=re.escape(repr(text))) as exc:
        make_field(p, e).elem_parse(text)
    assert named in str(exc.value)


def test_spaces_around_operators_stay_allowed():
    ctx13, ctx4 = make_field(13), make_field(2, 2)
    assert ctx13.elem_parse(" 12 ") == ctx13.elem_parse("- 1") == ctx13.elem_parse("\t12\n") == 12
    assert ctx4.elem_parse(" t + 1 ") == ctx4.elem_parse("1 * t + 1") == 3
    assert poly_parse(ctx13, " X ^ 2 - 12 * X") == (0, 1, 1)
    assert poly_parse(ctx4, "( t + 1 ) * X + t") == (2, 3)
    for text in ("X+1 2", "X 2+1", "1 X+1"):
        with pytest.raises(ValueError, match="space between"):
            poly_parse(ctx13, text)
    with pytest.raises(ValueError, match="'1_2' is not an integer"):
        poly_parse(ctx13, "X+1_2")


@pytest.mark.parametrize("p,e,top", [(2, 1, 37), (3, 1, 25), (2, 2, 19), (65521, 1, 3)])
def test_poly_parse_refuses_a_degree_past_the_sieve_cap(p, e, top):
    # the irreducibility test of a degree-d polynomial sieves the q^k monic
    # polynomials of each degree 1 <= k <= d/2; top is the largest d whose
    # sieve stays within the cap
    ctx = make_field(p, e)
    assert sum(ctx.q ** k for k in range(1, top // 2 + 1)) <= MAX_TYPE_OF_CALLS
    assert sum(ctx.q ** k for k in range(1, (top + 2) // 2 + 1)) > MAX_TYPE_OF_CALLS
    assert poly_parse(ctx, "X^%d+1" % top) == (1,) + (0,) * (top - 1) + (1,)
    for d in (top + 1, 2 * 10 ** 6):
        with pytest.raises(WorkCapExceeded, match=r"^this label 'X\^%d\+1' of degree %d " % (d, d)):
            poly_parse(ctx, "X^%d+1" % d)


@pytest.mark.parametrize("text", ["0*X^40+X+1", "X^40-X^40+X+1", "X+1+0*X^2000000"])
def test_poly_parse_caps_the_degree_of_the_sum(text):
    # a power whose coefficients add up to 0 is not the degree
    assert poly_parse(make_field(2), text) == (1, 1)


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


class SchoolbookField:
    """Reference arithmetic on base-p digit vectors modulo ctx.modulus,
    computed afresh on every call without any of the field's tables."""

    def __init__(self, ctx):
        self.p, self.e, self.q, self.mod = ctx.p, ctx.e, ctx.q, ctx.modulus

    def digits(self, a):
        return [a // self.p ** i % self.p for i in range(self.e)]

    def encode(self, digs):
        return sum(d % self.p * self.p ** i for i, d in enumerate(digs))

    def add(self, a, b):
        return self.encode([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def sub(self, a, b):
        return self.encode([x - y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        e = self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        for i in range(2 * e - 2, e - 1, -1):  # X^e = -(mod[0] + ... + mod[e-1] X^(e-1))
            c, prod[i] = prod[i], 0
            for j in range(e):
                prod[i - e + j] -= c * self.mod[j]
        return self.encode(prod[:e])

    def inv(self, a):  # a^(q-2) by repeated multiplication
        r = 1
        for _ in range(self.q - 2):
            r = self.mul(r, a)
        return r


SMALL_EXTENSIONS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5),
                    (7, 2), (2, 6), (3, 4)]


@pytest.mark.parametrize("p,e", SMALL_EXTENSIONS)
def test_extension_field_matches_schoolbook_exhaustively(p, e):
    ctx = make_field(p, e)
    ref = SchoolbookField(ctx)
    for a, b in itertools.product(ctx.elements(), repeat=2):
        assert ctx.add(a, b) == ref.add(a, b), (a, b)
        assert ctx.sub(a, b) == ref.sub(a, b), (a, b)
        assert ctx.mul(a, b) == ref.mul(a, b), (a, b)
    for a in ctx.elements():
        assert ctx.neg(a) == ref.neg(a)
        if a:
            assert ctx.inv(a) == ref.inv(a)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


@pytest.mark.parametrize("p,e", [(2, 8), (2, 9), (2, 10)])
def test_extension_field_matches_schoolbook_sampled(p, e):
    ctx = make_field(p, e)
    ref = SchoolbookField(ctx)
    rng = random.Random(p ** e)
    for _ in range(20000):
        a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
        assert ctx.add(a, b) == ref.add(a, b), (a, b)
        assert ctx.sub(a, b) == ref.sub(a, b), (a, b)
        assert ctx.mul(a, b) == ref.mul(a, b), (a, b)


@pytest.mark.parametrize("p,e", FIELDS + SMALL_EXTENSIONS)
def test_sqrt_is_smallest_root(p, e):
    ctx = make_field(p, e)
    for a in ctx.elements():
        roots = [r for r in ctx.elements() if ctx.mul(r, r) == a]
        assert ctx.sqrt(a) == (roots[0] if roots else None)


@pytest.mark.parametrize("p,e", FIELDS + SMALL_EXTENSIONS)
def test_primitive_element_is_smallest_generator(p, e):
    ctx = make_field(p, e)

    def order(a):
        k, x = 1, a
        while x != 1:
            k, x = k + 1, ctx.mul(x, a)
        return k

    g = ctx.primitive_element()
    assert order(g) == ctx.q - 1
    assert all(order(a) < ctx.q - 1 for a in range(1, g))


def _field_axioms_hold(ctx, a, b, c):
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, 0) == a and ctx.mul(a, 1) == a and ctx.mul(a, 0) == 0
    assert ctx.add(a, ctx.neg(a)) == 0
    assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
    assert ctx.add(ctx.sub(a, b), b) == a
    if a:
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.pow(a, -3) == ctx.inv(ctx.mul(a, ctx.mul(a, a)))
    assert ctx.pow(a, ctx.q) == a  # Frobenius fixes F_q


@pytest.mark.parametrize("p,e", [(2, 8), (3, 6), (2, 12)])
def test_field_axioms_property(p, e):
    ctx = make_field(p, e)
    elems = st.integers(min_value=0, max_value=ctx.q - 1)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(elems, elems, elems)
    def check(a, b, c):
        _field_axioms_hold(ctx, a, b, c)

    check()


EXTENSIONS_UP_TO_2_10 = [(p, e) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                         for e in range(2, 11) if p ** e <= 2 ** 10]


@pytest.mark.parametrize("p,e", EXTENSIONS_UP_TO_2_10 + [(2, 12)])
def test_tables_match_the_schoolbook_builder(p, e):
    ctx = make_field(p, e)
    assert (ctx._exp, ctx._log, ctx._zech) == field_tables_by_schoolbook(ctx)


def test_make_field_2_12_keeps_the_smallest_modulus():
    ctx = make_field(2, 12)
    # X^12 + X^9 + 1: the smallest coefficient vector, constant term first
    assert ctx.modulus == (1,) + (0,) * 8 + (1, 0, 0, 1)
    assert is_irreducible(make_field(2), ctx.modulus)


def test_field_checks_raise_value_errors():
    with pytest.raises(ValueError, match="not prime"):
        FieldCtx(4, 1)
    with pytest.raises(ValueError, match="e must be >= 1"):
        FieldCtx(2, 0)
    with pytest.raises(ValueError, match="no modulus"):
        FieldCtx(3, 1, modulus=(0, 1))
    with pytest.raises(ValueError, match="monic modulus of degree 2"):
        FieldCtx(2, 2, modulus=(1, 1))
    with pytest.raises(ValueError, match="degree must be >= 1"):
        enumerate_irreducibles(make_field(2), 0)


def test_field_checks_survive_optimized_mode():
    code = (
        "from glfq.fields import FieldCtx, enumerate_irreducibles, make_field\n"
        "for call in (lambda: FieldCtx(2, 2, modulus=(1, 1)),\n"
        "             lambda: enumerate_irreducibles(make_field(2), 0)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('no ValueError under -O')\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
