"""Closed-form products of degree-1 basis elements and their projections to
conjugacy-class products of GL(n, F_q).

For units a, b of F_q, the product of the basis elements indexed by the
one-dimensional types {X-a:(1)} and {X-b:(1)} admits a uniform closed form:

    Ahat_{X-a} * Ahat_{X-b}
      = (q-1) Ahat_{X-ab}
      + 1/q   Ahat_{merge(a,b)}
      + (q-1)/q^2 [ sum_{c in I_ab} Ahat_{X^2+cX+ab}
                  + 1/2 sum_{d != 0} Ahat_{merge(a/d, bd)}
                  + sum_{delta^2 = ab} (Ahat_{X-delta:(2)} - 1/2 Ahat_{X-delta:(1,1)})
                  + [a = b] (Ahat_{X-a:(2)} - Ahat_{X-a:(1,1)}) ],

where I_ab = {c : X^2 + cX + ab irreducible} and merge(x, y) is the type with
one part 1 at X-x and one at X-y (so {X-x:(1,1)} when x = y).  The classical
seven-case table is recovered by expanding the sum over d and the delta
terms; the dispatch below keeps the case classification as API but all cases
evaluate the same formula, which the test suite checks against the
partial-isomorphism engine for every pair of units and q in {2, 3, 4, 5}.
It is center.generic_S's table for every pair of size-1 types, so their
class products (project_degree1) are center.class_product's.
"""

from fractions import Fraction
from typing import NamedTuple

from . import center
from .conjtype import Partition, Polypartition, linear_type
from .fields import check_work, linear_poly


class Degree1Case(NamedTuple):
    """Classification of a pair of units (a, b) for the degree-1 product.

    tag is one of odd-square, odd-nonsquare, even-generic, odd-equal,
    even-equal, b-unit, both-unit; delta is a square root of ab when one
    exists and the tag is not a unit case (the canonical smallest-encoding
    root; the product is invariant under delta -> -delta because both roots
    contribute symmetrically)."""

    tag: str
    delta: object


def classify(ctx, a, b):
    """The Degree1Case of a pair of units; total and exclusive dispatch."""
    if a == 0 or b == 0:
        raise ValueError("a and b must be units")
    odd = ctx.p != 2
    ab = ctx.mul(a, b)
    if a == 1 and b == 1:
        case = Degree1Case("both-unit", None)
    elif a == 1 or b == 1:
        case = Degree1Case("b-unit", None)
    elif a == b:
        case = Degree1Case("odd-equal", a) if odd else Degree1Case("even-equal", ctx.sqrt(ab))
    elif not odd:
        case = Degree1Case("even-generic", ctx.sqrt(ab))
    elif ctx.sqrt(ab) is not None:
        case = Degree1Case("odd-square", ctx.sqrt(ab))
    else:
        case = Degree1Case("odd-nonsquare", None)
    if case.delta is not None and ctx.mul(case.delta, case.delta) != ab:
        raise AssertionError("delta = %s does not square to ab = %s"
                             % (ctx.elem_str(case.delta), ctx.elem_str(ab)))
    return case


def irreducible_quadratics_I(ctx, b):
    """I_b = {c in F_q : X^2 + cX + b is irreducible}, as a sorted tuple.

    By the discriminant/trace criterion: for odd q, c^2 - 4b is a
    non-square; for even q, c != 0 and the absolute trace of b c^{-2} is 1.
    The test suite checks it against direct irreducibility of each quadratic
    and against the cardinality (q+1)/2 - [b is a square] (odd q), q/2 (even
    q)."""
    if b == 0:
        raise ValueError("b must be a unit")
    if ctx.p != 2:
        four = ctx.add(ctx.add(1, 1), ctx.add(1, 1))
        return tuple(
            c for c in ctx.elements()
            if ctx.sqrt(ctx.sub(ctx.mul(c, c), ctx.mul(four, b))) is None)
    return tuple(
        c for c in ctx.elements()
        if c != 0 and ctx.abs_trace(ctx.mul(b, ctx.inv(ctx.mul(c, c)))) == 1)


def _merge(ctx, x, y):
    if x == y:
        return linear_type(ctx, x, (1, 1))
    return Polypartition(ctx, {linear_poly(ctx, c): Partition((1,)) for c in (x, y)})


def degree1_product(ctx, a, b):
    """Ahat_{X-a} * Ahat_{X-b} as {Polypartition: Fraction}.

    Single uniform formula (module docstring); the case dispatch of classify
    only affects how the terms group, never the result.  The terms add up
    as integer numerators over 2q^2, so w = (q-1)/q^2 is 2(q-1), and each
    nonzero sum becomes one Fraction.  Refused before the first of its q
    field elements when q is above the cap."""
    check_work("closed form", ctx.q, "field elements")
    classify(ctx, a, b)  # rejects non-units
    q = ctx.q
    nums = {}

    def add(pp, c):
        nums[pp] = nums.get(pp, 0) + c

    ab = ctx.mul(a, b)
    w = 2 * (q - 1)
    add(linear_type(ctx, ab), q * q * w)
    add(_merge(ctx, a, b), 2 * q)
    for c in irreducible_quadratics_I(ctx, ab):
        add(Polypartition(ctx, (((ab, c, 1), Partition((1,))),)), w)
    for d in ctx.elements():
        if d == 0:
            continue
        add(_merge(ctx, ctx.mul(a, ctx.inv(d)), ctx.mul(b, d)), q - 1)
    for delta in _square_roots(ctx, ab):
        add(linear_type(ctx, delta, (2,)), w)
        add(linear_type(ctx, delta, (1, 1)), -(q - 1))
    if a == b:
        add(linear_type(ctx, a, (2,)), w)
        add(linear_type(ctx, a, (1, 1)), -w)
    return {pp: Fraction(c, 2 * q * q) for pp, c in nums.items() if c}


def _square_roots(ctx, x):
    """Both square roots of the unit x (one root in characteristic 2, none
    when x is a non-square)."""
    r = ctx.sqrt(x)
    return () if r is None else tuple(sorted({r, ctx.neg(r)}))


def project_degree1(ctx, a, b, n):
    """C_{{X-a:(1)}^n} * C_{{X-b:(1)}^n} as an integer CentralVector, by
    center.class_product, which reads the closed form through generic_S."""
    if a == 0 or b == 0:
        raise ValueError("a and b must be units")
    return center.class_product(linear_type(ctx, a), linear_type(ctx, b), n)
