"""End-to-end acceptance checks: exact (integer/rational) equalities with
explicit runtime budgets.  Brute-force enumeration is the ground truth
throughout; the closed forms and engines must reproduce it bit for bit."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from glfq import center, degree1, linalg, partial_iso as pi, ranklaw, subspaces
from glfq.conjtype import (
    census,
    class_size,
    enumerate_polypartitions,
    gl_order,
    jordan_matrix,
    linear_type,
    parse_polypartition,
)
from glfq.fields import make_field


class budget:
    """Context manager asserting the wrapped block stays under a time cap."""

    def __init__(self, seconds):
        self.cap = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.cap, (
                "exceeded %.0fs budget: %.1fs" % (self.cap, elapsed))
        return False


def field(q):
    return make_field(2, 2) if q == 4 else make_field(q)


def test_class_size_gl6_f5():
    with budget(1):
        ctx = make_field(5)
        mu = parse_polypartition(ctx, "{X^2+X+1:(2);X+3:(1,1)}")
        assert class_size(mu, 6) == 38418317437500000000


def test_census_covers_small_groups():
    with budget(120):
        for n, q in [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (2, 5)]:
            ctx = field(q)
            buckets = census(ctx, n)
            total = 0
            for mu, cnt in buckets.items():
                assert cnt == class_size(mu, n)
                total += cnt
            assert total == gl_order(q, n)


def test_partial_isomorphism_count_n2_f2():
    with budget(1):
        ctx = make_field(2)
        basis = pi.all_pisos(ctx, 2)
        assert len(basis) == pi.card_iso(2, 2) == 46
        by_dim = {}
        for x in basis:
            by_dim[x.dim] = by_dim.get(x.dim, 0) + 1
        assert by_dim == {0: 1, 1: 9, 2: 36}


def test_associativity_exhaustive_and_sampled():
    with budget(600):
        # exhaustive over all triples of basis elements at (n=2, F_2)
        ctx = make_field(2)
        basis = pi.all_pisos(ctx, 2)
        idx = {x: i for i, x in enumerate(basis)}
        table = []
        for x in basis:
            xe = pi.basis_elem(x)
            row = []
            for y in basis:
                terms = pi.product(ctx, xe, pi.basis_elem(y)).terms
                row.append(tuple((idx[t], c) for t, c in terms.items()))
            table.append(row)
        m = len(basis)
        for i in range(m):
            ti = table[i]
            for j in range(m):
                left = ti[j]
                tj = table[j]
                for l in range(m):
                    lhs = {}
                    for k, c in left:
                        for t, w in table[k][l]:
                            lhs[t] = lhs.get(t, 0) + c * w
                    rhs = {}
                    for k, c in tj[l]:
                        for t, w in ti[k]:
                            rhs[t] = rhs.get(t, 0) + c * w
                    assert lhs == rhs, (i, j, l)
        # seeded random triples at (n=2, F_3) and (n=3, F_2)
        for q, n in [(3, 2), (2, 3)]:
            ctx = field(q)
            b = pi.all_pisos(ctx, n)
            rng = random.Random(1)
            for _ in range(10 ** 4):
                x, y, z = (pi.basis_elem(rng.choice(b)) for _ in range(3))
                assert (pi.product(ctx, pi.product(ctx, x, y), z)
                        == pi.product(ctx, x, pi.product(ctx, y, z)))


def test_naive_product_counterexamples():
    # the single-automorphism glueing is not associative; the smallest
    # witnesses are (n=2, F_3) and (n=3, F_2).  At (n=2, F_2) no witness
    # exists: every proper subspace carries only the identity automorphism,
    # and the search reports that instead of looping forever.
    with budget(30):
        for q, n in [(3, 2), (2, 3)]:
            ctx = field(q)
            (G, H, I), lhs, rhs = pi.naive_product_counterexample(ctx, n)
            eg, eh, ei = ({key: Fraction(1)} for key in (G, H, I))
            assert lhs == pi.naive_product(
                ctx, pi.naive_product(ctx, eg, eh), ei)
            assert rhs == pi.naive_product(
                ctx, eg, pi.naive_product(ctx, eh, ei))
            assert lhs != rhs
        ctx = make_field(2)
        with pytest.raises(ValueError):
            pi.naive_product_counterexample(ctx, 2)
        everything = [
            (V, g)
            for k in range(3)
            for V in subspaces.enumerate_subspaces(ctx, 2, k)
            for g in pi.enumerate_gl(ctx, k)
        ]
        for G in everything:
            for H in everything:
                for I in everything:
                    eg, eh, ei = ({key: Fraction(1)} for key in (G, H, I))
                    assert (pi.naive_product(
                        ctx, pi.naive_product(ctx, eg, eh), ei)
                        == pi.naive_product(
                            ctx, eg, pi.naive_product(ctx, eh, ei)))


def test_extension_counts_all_admissible_shapes():
    # one partial isomorphism per conjugacy type realizes every admissible
    # (k1, k); the enumerated extension lists must match the counting
    # formulas for every k+ <= n <= 3 and q in {2, 3}
    with budget(60):
        for q in (2, 3):
            ctx = make_field(q)
            for n in range(4):
                for k in range(n + 1):
                    for mu in enumerate_polypartitions(ctx, k):
                        if k == 0:
                            x = pi.empty_piso(n)
                        else:
                            E = linalg.identity(n)[:k]
                            x = pi.canonical_piso(
                                ctx, E, E, linalg.identity(k),
                                jordan_matrix(mu))
                        k1 = pi.piso_type(ctx, x).k1
                        # k1 = dim ker(g1g2 - I)
                        fix = linalg.mat_sub(ctx, x.composite(ctx), linalg.identity(k))
                        assert k1 == k - linalg.rank(ctx, fix) == (mu.k1 if k else 0)
                        for k_plus in range(k, n + 1):
                            W_plus = subspaces.from_rows(
                                ctx, linalg.identity(n)[:k_plus], n)
                            right = pi.trivial_extensions_fixed_right(
                                ctx, x, W_plus)
                            assert len(right) == pi.count_E(
                                q, n, k_plus, k, k1)
                            # x.V = x.W lies in W_plus, so W_plus is also
                            # a left space: the both-fixed slice
                            both = [e for e in right if e.V == W_plus]
                            assert len(both) == pi.count_F(q, k_plus, k, k1)


def test_restriction_operators_exhaustive_and_sampled():
    with budget(300):
        ctx = make_field(2)
        n = 2
        subs = []
        for k in range(n + 1):
            subs.extend(subspaces.enumerate_subspaces(ctx, n, k))
        for x in pi.all_pisos(ctx, n):
            xe = pi.basis_elem(x)
            for W in subs:
                for X in subs:
                    WX = subspaces.subspace_sum(ctx, W, X)
                    assert (pi.op_R(ctx, X, pi.op_R(ctx, W, xe))
                            == pi.op_R(ctx, WX, xe))
                    assert (pi.op_L(ctx, W, pi.op_R(ctx, X, xe))
                            == pi.op_R(ctx, X, pi.op_L(ctx, W, xe)))
            for Wp in subs:
                if not Wp.contains(ctx, x.W):
                    continue
                once = pi.op_R(ctx, Wp, xe)
                for Wpp in subs:
                    if not Wpp.contains(ctx, Wp):
                        continue
                    assert pi.op_R(ctx, Wpp, once) == pi.op_R(ctx, Wpp, xe)
        # seeded samples at (n=3, F_2)
        n = 3
        subs = []
        for k in range(n + 1):
            subs.extend(subspaces.enumerate_subspaces(ctx, n, k))
        basis = pi.all_pisos(ctx, n)
        rng = random.Random(2)
        for _ in range(10 ** 3):
            x = rng.choice(basis)
            xe = pi.basis_elem(x)
            W, X = rng.choice(subs), rng.choice(subs)
            WX = subspaces.subspace_sum(ctx, W, X)
            assert pi.op_R(ctx, X, pi.op_R(ctx, W, xe)) == pi.op_R(ctx, WX, xe)
            assert (pi.op_L(ctx, W, pi.op_R(ctx, X, xe))
                    == pi.op_R(ctx, X, pi.op_L(ctx, W, xe)))
            Wp = rng.choice([S for S in subs if S.contains(ctx, x.W)])
            Wpp = rng.choice([S for S in subs if S.contains(ctx, Wp)])
            assert pi.op_R(ctx, Wpp, pi.op_R(ctx, Wp, xe)) == pi.op_R(ctx, Wpp, xe)


def test_group_algebra_projection_is_multiplicative():
    with budget(120):
        for q, n in [(2, 2), (2, 3)]:
            ctx = field(q)
            basis = pi.all_pisos(ctx, n)
            rng = random.Random(4)
            for _ in range(10 ** 3):
                x = pi.basis_elem(rng.choice(basis))
                y = pi.basis_elem(rng.choice(basis))
                assert (pi.pi_n(ctx, pi.product(ctx, x, y))
                        == pi.pi_n(ctx, x).mul(ctx, pi.pi_n(ctx, y)))


def test_compatibility_map_transports_invariants():
    with budget(300):
        ctx = make_field(2)
        for size in (0, 1, 2):
            for mu in enumerate_polypartitions(ctx, size):
                big = pi.invariant_elem(ctx, mu, 3)
                small = pi.invariant_elem(ctx, mu, 2)
                assert pi.phi(ctx, big, 2) == small
        # the compatibility map also transports degree-1 products
        lam = linear_type(ctx, 1)
        a3 = pi.invariant_elem(ctx, lam, 3)
        a2 = pi.invariant_elem(ctx, lam, 2)
        assert (pi.phi(ctx, pi.product(ctx, a3, a3), 2)
                == pi.product(ctx, a2, a2))


def test_degree1_closed_forms_and_projections():
    with budget(600):
        for q in (2, 3, 4, 5):
            ctx = field(q)
            units = [a for a in ctx.elements() if a != 0]
            for a in units:
                for b in units:
                    closed = degree1.degree1_product(ctx, a, b)
                    engine = center.generic_S(
                        linear_type(ctx, a), linear_type(ctx, b))
                    assert closed == engine, (q, a, b)
                    for n in (1, 2, 3):
                        got = degree1.project_degree1(ctx, a, b, n)
                        assert got.is_integral()
                        assert got == center.completed_product(
                            linear_type(ctx, a), linear_type(ctx, b), n), (q, a, b, n)
        # leading coefficient of the product class C_{X-ab} in the generic
        # split case: the structure polynomial is (2/q) X - 1, which at
        # n = 2 evaluates to q + (q - 1)
        ctx = make_field(7)
        lam, mu = linear_type(ctx, 5), linear_type(ctx, 6)
        gp = center.fh_polynomials(lam, mu)
        key = linear_type(ctx, ctx.mul(5, 6))
        poly = gp.rhs[key]
        assert poly.coeffs == (Fraction(-1), Fraction(2, 7))
        assert poly(Fraction(7) ** 2) == 13 == 7 + (7 - 1)
        # at n = 3 the same class carries 2 q^2 - 1 = 97, not q^2 + (q - 1)
        assert poly(Fraction(7) ** 3) == 97 != 55
        report = center.verify_fh(gp, [2])
        assert report == {2: {}}, report


def test_structure_polynomials_match_class_products():
    with budget(600):
        for q in (2, 3):
            ctx = make_field(q)
            units = [a for a in ctx.elements() if a != 0]
            for a in units:
                for b in units:
                    lam, mu = linear_type(ctx, a), linear_type(ctx, b)
                    gp = center.fh_polynomials(lam, mu)
                    report = center.verify_fh(gp, [2, 3, 4])
                    assert report == {2: {}, 3: {}, 4: {}}, report


def prefix_ranks(ctx, fam, d):
    pivots = []
    ranks = []
    r = 0
    for v in fam:
        v = list(v)
        for lead, row in pivots:
            f = v[lead]
            if f:
                v = [ctx.sub(v[i], ctx.mul(f, row[i])) for i in range(d)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            inv = ctx.inv(v[lead])
            pivots.append((lead, [ctx.mul(inv, x) for x in v]))
            r += 1
        ranks.append(r)
    return ranks


def test_rank_and_dimension_laws_vs_enumeration():
    with budget(120):
        for q, d_max in [(2, 4), (3, 3)]:
            ctx = make_field(q)
            for d in range(d_max + 1):
                vecs = list(itertools.product(ctx.elements(), repeat=d))
                b = d_max
                joint = {}
                for fam in itertools.product(vecs, repeat=b):
                    rs = prefix_ranks(ctx, fam, d)
                    joint[tuple(rs)] = joint.get(tuple(rs), 0) + 1
                total = len(vecs) ** b
                for a in range(b + 1):
                    # unconditional law of the rank of a random vectors
                    marg = {}
                    for rs, cnt in joint.items():
                        r = rs[a - 1] if a else 0
                        marg[r] = marg.get(r, 0) + cnt
                    for c in range(d + 1):
                        assert (ranklaw.rank_law(d, q, a, c)
                                == Fraction(marg.get(c, 0), total))
                    assert sum(ranklaw.rank_law(d, q, a, c)
                               for c in range(d + 1)) == 1
                    # law of the rank at time a conditioned on the rank at b
                    for dd in range(d + 1):
                        cond_total = sum(
                            cnt for rs, cnt in joint.items()
                            if rs[b - 1] == dd) if b else (dd == 0) * total
                        if not cond_total:
                            continue
                        for c in range(dd + 1):
                            hits = sum(
                                cnt for rs, cnt in joint.items()
                                if (rs[a - 1] if a else 0) == c
                                and rs[b - 1] == dd)
                            assert (ranklaw.rank_law_conditional(
                                d, q, a, b, c, dd)
                                == Fraction(hits, cond_total))
        for q, n_max in [(2, 4), (3, 3)]:
            ctx = make_field(q)
            for n in range(1, n_max + 1):
                I = linalg.identity(n)
                for j in range(n + 1):
                    U = subspaces.from_rows(ctx, I[:j], n)
                    for k in range(j, n + 1):
                        W = subspaces.from_rows(
                            ctx, I[:j] + (I[n - (k - j):] if k > j else ()), n)
                        assert W.dim == k
                        for l in range(j, n + 1):
                            counts = {}
                            onto = 0
                            for Up in subspaces.enumerate_subspaces(ctx, n, l):
                                if not Up.contains(ctx, U):
                                    continue
                                m = subspaces.subspace_sum(ctx, Up, W).dim
                                counts[m] = counts.get(m, 0) + 1
                                onto += m == n
                            total = sum(counts.values())
                            for m in range(n + 1):
                                assert (ranklaw.dim_sum_law(n, q, j, k, l, m)
                                        == Fraction(counts.get(m, 0), total))
                            assert sum(
                                ranklaw.dim_sum_law(n, q, j, k, l, m)
                                for m in range(n + 1)) == 1
                            assert onto == ranklaw.count_constrained_subspaces(
                                j, k, l, n, q)
