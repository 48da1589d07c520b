"""Rank and dimension laws versus exhaustive enumeration."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from oracles import (
    count_constrained_subspaces_by_pochhammer,
    dim_sum_law_by_pochhammer,
    pochhammer,
    rank_law_by_pochhammer,
)

from glfq import linalg, ranklaw, subspaces
from glfq.fields import make_field


def homogeneous_geometric(r, c, q):
    """h_r(1, q, ..., q^c): the complete homogeneous symmetric polynomial of
    degree r evaluated on the geometric progression with c+1 terms."""
    # h_r over variables x_0..x_c via the stable recurrence
    # h(vars[:i+1]) = sum_{s} x_i^s h_{r-s}(vars[:i])
    h = [1] + [0] * r
    for i in range(c + 1):
        x = q ** i
        for deg in range(1, r + 1):
            h[deg] += x * h[deg - 1]
    return h[r]


def all_vectors(ctx, d):
    return list(itertools.product(ctx.elements(), repeat=d))


@pytest.mark.parametrize("q,d_max,a_max", [(2, 3, 4), (3, 2, 3)])
def test_rank_law_vs_enumeration(q, d_max, a_max):
    ctx = make_field(q)
    for d in range(d_max + 1):
        vecs = all_vectors(ctx, d)
        for a in range(a_max + 1):
            counts = {}
            for fam in itertools.product(vecs, repeat=a):
                r = linalg.rank(ctx, fam) if a else 0
                counts[r] = counts.get(r, 0) + 1
            total = len(vecs) ** a
            for c in range(d + 2):
                want = Fraction(counts.get(c, 0), total)
                assert ranklaw.rank_law(d, q, a, c) == want


@pytest.mark.parametrize("q", [2, 3, 5])
def test_rank_law_markov_recursion(q):
    # p(i,i) = 1/q^{d-i}, p(i,i+1) = 1 - 1/q^{d-i}
    for d in range(5):
        for a in range(5):
            for c in range(d + 1):
                stay = ranklaw.rank_law(d, q, a, c) * Fraction(1, q ** (d - c))
                step = (ranklaw.rank_law(d, q, a, c - 1)
                        * (1 - Fraction(1, q ** (d - c + 1))) if c else 0)
                assert ranklaw.rank_law(d, q, a + 1, c) == stay + step


def test_rank_law_sums_to_one():
    for q in (2, 3, 4):
        for d in range(5):
            for a in range(6):
                s = sum(ranklaw.rank_law(d, q, a, c) for c in range(d + 1))
                assert s == 1


def test_rank_law_h_polynomial_identity():
    for q in (2, 3):
        for d in range(4):
            for a in range(5):
                for c in range(min(a, d) + 1):
                    qi = Fraction(1, q)
                    want = (Fraction(q) ** (d * (c - a))
                            * pochhammer(qi, d) / pochhammer(qi, d - c)
                            * homogeneous_geometric(a - c, c, q)
                            * Fraction(1, q ** 0))
                    # h_{a-c} is in the variables 1, q, ..., q^c
                    assert ranklaw.rank_law(d, q, a, c) == want


def test_conditional_bayes_consistency():
    for q in (2, 3):
        for d in range(4):
            for b in range(4):
                for a in range(b + 1):
                    for dd in range(min(b, d) + 1):
                        if ranklaw.rank_law(d, q, b, dd) == 0:
                            continue
                        s = sum(
                            ranklaw.rank_law_conditional(d, q, a, b, c, dd)
                            for c in range(dd + 1))
                        assert s == 1


def test_conditional_closed_form_for_saturated_b():
    # conditioning on full rank X_b = d with b >= d: the law has the
    # displayed product form
    q = 2
    qi = Fraction(1, 2)
    for d in range(1, 5):
        for b in range(d, d + 4):
            for a in range(b + 1):
                for dd in (d,):
                    if ranklaw.rank_law(d, q, b, dd) == 0:
                        continue
                    for c in range(min(a, dd) + 1):
                        if b - a - dd + c < 0 or a - c < 0:
                            continue
                        want = (Fraction(q) ** ((d - c) * (c - a))
                                * pochhammer(qi, a) * pochhammer(qi, d)
                                * pochhammer(qi, b - a) * pochhammer(qi, b - d)
                                / (pochhammer(qi, b) * pochhammer(qi, c)
                                   * pochhammer(qi, a - c)
                                   * pochhammer(qi, d - c)
                                   * pochhammer(qi, b - a - dd + c)))
                        got = ranklaw.rank_law_conditional(d, q, a, b, c, dd)
                        assert got == want


@pytest.mark.parametrize("q,n_max", [(2, 4), (3, 3)])
def test_dim_sum_law_vs_enumeration(q, n_max):
    ctx = make_field(q)
    for n in range(1, n_max + 1):
        for j in range(n + 1):
            for k in range(j, n + 1):
                for l in range(j, n + 1):
                    I = linalg.identity(n)
                    U = subspaces.from_rows(ctx, I[:j], n)
                    W = subspaces.from_rows(
                        ctx, I[:j] + (I[n - (k - j):] if k > j else ()), n)
                    assert W.dim == k
                    counts = {}
                    for Up in subspaces.enumerate_subspaces(ctx, n, l):
                        if not Up.contains(ctx, U):
                            continue
                        m = subspaces.subspace_sum(ctx, Up, W).dim
                        counts[m] = counts.get(m, 0) + 1
                    total = sum(counts.values())
                    for m in range(n + 1):
                        want = Fraction(counts.get(m, 0), total)
                        assert ranklaw.dim_sum_law(n, q, j, k, l, m) == want


def test_dim_sum_law_symmetric_and_normalized():
    for q in (2, 3):
        for n in range(1, 5):
            for j in range(n + 1):
                for k in range(j, n + 1):
                    for l in range(j, n + 1):
                        s = sum(ranklaw.dim_sum_law(n, q, j, k, l, m)
                                for m in range(n + 1))
                        assert s == 1
                        for m in range(n + 1):
                            assert (ranklaw.dim_sum_law(n, q, j, k, l, m)
                                    == ranklaw.dim_sum_law(n, q, j, l, k, m))


def test_count_constrained_subspaces_vs_filtering():
    q = 2
    ctx = make_field(q)
    for m in range(4 + 1):
        Y = subspaces.from_rows(ctx, linalg.identity(m), m)
        for j in range(m + 1):
            I = linalg.identity(m)
            U = subspaces.from_rows(ctx, I[:j], m)
            for k in range(j, m + 1):
                W = subspaces.from_rows(
                    ctx, I[:j] + (I[m - (k - j):] if k > j else ()), m)
                assert W.dim == k
                for l in range(j, m + 1):
                    got = 0
                    for Up in subspaces.enumerate_subspaces(ctx, m, l):
                        if Up.contains(ctx, U) and subspaces.subspace_sum(ctx, Up, W).dim == m:
                            got += 1
                    assert got == ranklaw.count_constrained_subspaces(
                        j, k, l, m, q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 256, 65521])
def test_integer_laws_match_the_pochhammer_formulas(q):
    # the Gaussian-binomial forms against the Fraction products in 1/q,
    # at the fields of the benchmark's rank laws too
    top = 6 if q < 256 else 4
    for d in range(top + 1):
        for a in range(top + 2):
            for c in range(-1, d + 2):
                assert ranklaw.rank_law(d, q, a, c) == rank_law_by_pochhammer(d, q, a, c)
    for n in range(top + 1):
        for j, k, l in itertools.product(range(n + 1), repeat=3):
            if j > min(k, l):
                continue
            for m in range(n + 2):
                assert (ranklaw.dim_sum_law(n, q, j, k, l, m)
                        == dim_sum_law_by_pochhammer(n, q, j, k, l, m))
                if m >= max(k, l):
                    count = ranklaw.count_constrained_subspaces(j, k, l, m, q)
                    assert type(count) is int
                    assert count == count_constrained_subspaces_by_pochhammer(j, k, l, m, q)


def test_homogeneous_geometric_examples():
    assert homogeneous_geometric(0, 3, 2) == 1
    assert homogeneous_geometric(1, 1, 2) == 3
    # h_2(1, 2, 4) = sum of degree-2 monomials in three variables
    vals = (1, 2, 4)
    want = sum(vals[i] * vals[j] for i in range(3) for j in range(i, 3))
    assert homogeneous_geometric(2, 2, 2) == want


def test_charpoly_and_count_checks_run_under_optimized_mode():
    # the checks of charpoly and num_subspaces are explicit raises, so they
    # also hold under -O
    code = (
        "from fractions import Fraction\n"
        "from glfq import linalg, subspaces\n"
        "from glfq.fields import make_field\n"
        "def expect(exc, call):\n"
        "    try:\n"
        "        call()\n"
        "    except exc as e:\n"
        "        print(e)\n"
        "    else:\n"
        "        raise SystemExit('no %s under -O' % exc.__name__)\n"
        "ctx = make_field(3)\n"
        "submul = ctx.row_submul\n"
        "ctx.row_submul = lambda u, c, v: [2 * x % 3 for x in submul(u, c, v)]\n"
        "expect(AssertionError, lambda: linalg.charpoly(ctx, ((1,),)))\n"
        "ctx.row_submul = submul\n"
        "expect(AssertionError, lambda: subspaces.num_subspaces(Fraction(1, 2), 2, 1))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "charpoly of a 1x1 matrix came out as (1, 2), not monic of degree 1",
        "[2 choose 1]_q at q=Fraction(1, 2): Fraction(-3, 4) is not divisible by "
        "Fraction(-1, 2)",
    ]
