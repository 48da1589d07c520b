"""Partial isomorphisms, trivial extensions, and the averaged product."""

import itertools
import math
import random
from fractions import Fraction

import oracles
import pytest

from glfq import linalg, partial_iso as pi, subspaces
from glfq.conjtype import (
    class_orbit,
    empty_polypartition,
    enumerate_polypartitions,
    jordan_matrix,
    parse_polypartition,
    type_of,
)
from glfq.fields import make_field
from glfq.ranklaw import dim_sum_law


def identity_elem(ctx, n, S):
    """Basis element for the identity partial isomorphism of a subspace."""
    k = S.dim
    if k == 0:
        return pi.basis_elem(pi.empty_piso(n))
    t = pi.canonical_piso(
        ctx, S.basis, S.basis, linalg.identity(k), linalg.identity(k))
    return pi.basis_elem(t)


def test_cardinality_n2_q2():
    ctx = make_field(2)
    basis = pi.all_pisos(ctx, 2)
    assert len(basis) == 46 == pi.card_iso(2, 2)
    by_dim = {}
    for x in basis:
        by_dim[x.dim] = by_dim.get(x.dim, 0) + 1
    assert by_dim == {0: 1, 1: 9, 2: 36}


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3)])
def test_cardinality_formula(q, n):
    ctx = make_field(q)
    assert len(pi.all_pisos(ctx, n)) == pi.card_iso(q, n)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3)])
def test_basis_sequence_matches_nested_loops(q, n):
    """all_pisos indexes I(n, F_q) without building it: element for element
    and in order the nested-loop list; seeded choice and sample draws equal
    the list's; past the end is IndexError."""
    ctx = make_field(q)
    basis = pi.all_pisos(ctx, n)
    want = oracles.all_pisos_by_loops(ctx, n)
    assert len(basis) == len(want) == pi.card_iso(q, n)
    assert list(basis) == want
    assert [repr(x) for x in basis] == [repr(x) for x in want]
    assert basis[-1] == want[-1]
    for seed in range(3):
        a, b = random.Random(seed), random.Random(seed)
        assert [a.choice(basis) for _ in range(50)] == [b.choice(want) for _ in range(50)]
        assert a.sample(basis, 40) == b.sample(want, 40)
    with pytest.raises(IndexError):
        basis[len(basis)]


def test_rev_involution_and_type():
    ctx = make_field(3)
    for x in pi.all_pisos(ctx, 2):
        assert pi.rev(pi.rev(x)) == x
        # the composite of rev is conjugate to the inverse composite;
        # both have the same type as g1 g2 up to inversion symmetry
        assert pi.piso_type(ctx, x).size == x.dim


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2)])
def test_strict_vs_compatible_extensions(q, n):
    ctx = make_field(q)
    full = subspaces.full_subspace(n)
    for x in random.Random(0).sample(pi.all_pisos(ctx, n), 40):
        k = x.dim
        k1 = pi.piso_type(ctx, x).k1
        strict = pi.trivial_extensions_fixed_right(ctx, x, full)
        compat = oracles.compatible_extensions(ctx, x, full)
        assert len(strict) == pi.count_E(q, n, n, k, k1)
        assert len(compat) == pi.count_E(q, n, n, k, 0)
        assert set(strict) <= set(compat)
        assert (set(strict) == set(compat)) == (k1 == 0 or k == n)
        for e in strict:
            assert oracles.is_strict_extension(ctx, x, e)
            assert oracles.is_compatible_extension(ctx, x, e)
        for e in set(compat) - set(strict):
            assert not oracles.is_strict_extension(ctx, x, e)
            assert oracles.is_compatible_extension(ctx, x, e)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
def test_extension_counts_all_shapes(q, n):
    ctx = make_field(q)
    seen = set()
    for x in pi.all_pisos(ctx, n):
        k = x.dim
        k1 = pi.piso_type(ctx, x).k1
        for k_plus in range(k, n + 1):
            if (k1, k, k_plus) in seen:
                continue
            seen.add((k1, k, k_plus))
            W_plus = subspaces.from_rows(ctx, linalg.identity(n)[:k_plus], n)
            if not W_plus.contains(ctx, x.W):
                seen.discard((k1, k, k_plus))
                continue
            right = pi.trivial_extensions_fixed_right(ctx, x, W_plus)
            assert len(right) == pi.count_E(q, n, k_plus, k, k1)
            V_plus = next(S for S in subspaces.enumerate_subspaces(ctx, n, k_plus)
                          if S.contains(ctx, x.V))
            both = [e for e in right if e.V == V_plus]
            assert len(both) == pi.count_F(q, k_plus, k, k1)


@pytest.mark.parametrize("q,n,per_dim", [(2, 2, None), (3, 2, 10), (2, 3, 2)])
def test_both_fixed_extensions_are_left_space_slices(q, n, per_dim):
    """The strict extensions with both spaces fixed are the V+-slice of the
    right-fixed ones: for every W+ and V+ containing the two spaces of x,
    the slice is the set of partial isomorphisms on (V+, W+) that strictly
    extend x, with count_F elements and no repeats; the slices are the
    [n - k choose k+ - k]_q spaces V+, and their sizes sum to count_E.
    Every x at (2, 2), seeded x of each dimension elsewhere (the oracle
    tests every partial isomorphism on (V+, W+))."""
    ctx = make_field(q)
    basis = pi.all_pisos(ctx, n)
    on_spaces, by_dim = {}, {}
    for e in basis:
        on_spaces.setdefault((e.V, e.W), []).append(e)
        by_dim.setdefault(e.dim, []).append(e)
    rng = random.Random(q * 10 + n)
    xs = basis if per_dim is None else [
        x for k in sorted(by_dim) for x in rng.sample(by_dim[k], min(len(by_dim[k]), per_dim))]
    for x in xs:
        k = x.dim
        k1 = pi.piso_type(ctx, x).k1
        for k_plus in range(k, n + 1):
            V_pluses = [S for S in subspaces.enumerate_subspaces(ctx, n, k_plus)
                        if S.contains(ctx, x.V)]
            assert len(V_pluses) == subspaces.num_subspaces(q, n - k, k_plus - k)
            W_pluses = [S for S in subspaces.enumerate_subspaces(ctx, n, k_plus)
                        if S.contains(ctx, x.W)]
            for W_plus in W_pluses:
                exts = pi.trivial_extensions_fixed_right(ctx, x, W_plus)
                assert {e.V for e in exts} == set(V_pluses)
                sizes = 0
                for V_plus in V_pluses:
                    both = [e for e in exts if e.V == V_plus]
                    assert len(both) == len(set(both)) == pi.count_F(q, k_plus, k, k1)
                    assert set(both) == {e for e in on_spaces[(V_plus, W_plus)]
                                         if oracles.is_strict_extension(ctx, x, e)}
                    sizes += len(both)
                assert sizes == len(exts) == pi.count_E(q, n, k_plus, k, k1)


def extensions_via_canonical_piso(ctx, x, W_plus, strict=True):
    """The extensions of trivial_extensions_grouped, flattened, without
    its canonical-coordinate build: one canonical_piso (two row reductions
    with transform) per completion E+ and matrix P."""
    n, k = x.n, x.dim
    k_plus = W_plus.dim
    if k_plus == k:
        return [x]
    F_plus = subspaces.extend_basis(ctx, x.W, W_plus)
    if k:
        E = linalg.mat_mul(
            ctx, linalg.transpose(linalg.inverse(ctx, x.g1)), x.V.basis)
        G = linalg.mat_mul(ctx, x.g1, x.g2)
        if strict:
            GmI = linalg.mat_sub(ctx, G, linalg.identity(k))
            cols = subspaces.from_rows(ctx, linalg.transpose(GmI), k).vectors(ctx)
        else:
            cols = subspaces.full_subspace(k).vectors(ctx)
    else:
        E, G, cols = (), (), [()]
    completions = subspaces.enumerate_completions(ctx, E, k_plus, n)
    ident = linalg.identity(k_plus)
    lower = tuple((0,) * k + ident[i][k:] for i in range(k, k_plus))
    out = []
    for E_plus in completions:
        for choice in itertools.product(cols, repeat=k_plus - k):
            upper = tuple(G[i] + tuple(c[i] for c in choice) for i in range(k))
            out.append(pi.canonical_piso(ctx, E_plus, F_plus, ident, upper + lower))
    return out


def pair_sum_product(ctx, a, b):
    """_basis_product without its shortcut or integer counts: a Fraction
    added per pair of extensions, both sides built by canonical_piso."""
    M = subspaces.subspace_sum(ctx, a.W, b.V)
    right = extensions_via_canonical_piso(ctx, a, M, strict=False)
    left = [pi.rev(y) for y in extensions_via_canonical_piso(
        ctx, pi.rev(b), M, strict=False)]
    w = Fraction(1, len(right) * len(left))
    out = {}
    for ea in right:
        for eb in left:
            t = pi.PartialIso(ea.V, eb.W, linalg.mat_mul(ctx, eb.g1, ea.g1),
                              linalg.mat_mul(ctx, ea.g2, eb.g2))
            out[t] = out.get(t, 0) + w
    return out


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_extensions_match_canonical_piso_build(q, n):
    """The canonical-coordinate build gives the same list, in the same
    order, as one canonical_piso per extension: up to eight sampled
    partial isomorphisms of each dimension, every k+, up to three W+ each,
    both variants."""
    ctx = make_field(2, 2) if q == 4 else make_field(q)
    rng = random.Random(q * 10 + n)
    by_dim = {}
    for x in pi.all_pisos(ctx, n):
        by_dim.setdefault(x.dim, []).append(x)
    sample = [x for k in sorted(by_dim)
              for x in rng.sample(by_dim[k], min(len(by_dim[k]), 8))]
    checked = 0
    for x in sample:
        for k_plus in range(x.dim, n + 1):
            W_pluses = [S for S in subspaces.enumerate_subspaces(ctx, n, k_plus)
                        if S.contains(ctx, x.W)]
            for W_plus in rng.sample(W_pluses, min(len(W_pluses), 3)):
                for strict in (True, False):
                    extend = (pi.trivial_extensions_fixed_right if strict
                              else oracles.compatible_extensions)
                    got = extend(ctx, x, W_plus)
                    want = extensions_via_canonical_piso(ctx, x, W_plus, strict=strict)
                    assert got == want
                    assert [repr(t) for t in got] == [repr(t) for t in want]
                    checked += 1
    assert checked >= 50


@pytest.mark.parametrize("q,n,pairs", [(2, 2, None), (3, 2, 2000), (2, 3, 2000)])
def test_basis_product_matches_pair_sum(q, n, pairs):
    """_basis_product (its integer counts, also on the composable pairs
    a.W == b.V that product builds itself) against the Fraction-per-pair sum
    over canonical_piso extensions: every pair at (2, 2), seeded pairs
    elsewhere."""
    ctx = make_field(q)
    basis = pi.all_pisos(ctx, n)
    if pairs is None:
        todo = [(a, b) for a in basis for b in basis]
    else:
        rng = random.Random(7)
        todo = [(rng.choice(basis), rng.choice(basis)) for _ in range(pairs)]
    shortcuts = 0
    for a, b in todo:
        total, counts = pi._basis_product.__wrapped__(ctx, a, b)
        assert sum(counts.values()) == total
        got = {t: Fraction(c, total) for t, c in counts.items()}
        want = pair_sum_product(ctx, a, b)
        assert got == want
        assert list(got) == list(want)
        shortcuts += a.W == b.V
    assert 0 < shortcuts < len(todo) - 50


def test_extension_groups_are_cached_by_value():
    """Keyword and positional calls share one cache entry of
    trivial_extensions_grouped, and each call returns a list of its own."""
    ctx = make_field(3)
    n = 2
    x = next(t for t in pi.all_pisos(ctx, n) if t.dim == 1)
    full = subspaces.full_subspace(n)
    cache = pi.trivial_extensions_grouped.cache
    cache.clear()
    first = pi.trivial_extensions_fixed_right(ctx, x, full)
    assert list(cache) == [(ctx, x, full, True)]
    groups = cache[(ctx, x, full, True)]
    again = pi.trivial_extensions_fixed_right(
        ctx, x, W_plus=subspaces.full_subspace(n))
    assert len(cache) == 1 and cache[(ctx, x, full, True)] is groups
    assert again == first and again is not first
    assert len(first) == pi.count_E(3, n, n, 1, pi.piso_type(ctx, x).k1)
    assert first == [pi.PartialIso(V, full, g1, g2) for V, g1, g2s in groups for g2 in g2s]
    first.clear()
    again.append(x)
    assert pi.trivial_extensions_fixed_right(ctx, x, full) == again[:-1]
    assert len(cache) == 1


def test_empty_pisos_of_different_n_differ():
    # their bases are all empty: only the ambient dimension tells them apart
    ctx = make_field(2)
    e2, e3 = pi.empty_piso(2), pi.empty_piso(3)
    assert e2 != e3 and e2 == pi.empty_piso(2)
    pi._basis_product.cache.clear()
    p2, p3 = pi._basis_product(ctx, e2, e2), pi._basis_product(ctx, e3, e3)
    assert list(pi._basis_product.cache) == [(ctx, e2, e2), (ctx, e3, e3)]
    assert p2 == (1, {e2: 1}) and p3 == (1, {e3: 1})
    assert next(iter(p3[1])).n == 3


def test_empty_piso_idempotent_but_not_a_unit():
    # multiplying by the empty element re-randomizes the free side of the
    # glueing, so it is an idempotent, not a two-sided unit
    ctx = make_field(2)
    n = 2
    unit = pi.basis_elem(pi.empty_piso(n))
    assert pi.product(ctx, unit, unit) == unit
    x = pi.basis_elem(pi.all_pisos(ctx, n)[5])
    out = pi.product(ctx, x, unit)
    assert sum(out.terms.values()) == 1
    assert out != x


@pytest.mark.parametrize("q,n,samples", [(2, 2, 300), (3, 2, 150), (2, 3, 150)])
def test_associativity_sampled(q, n, samples):
    ctx = make_field(q)
    basis = pi.all_pisos(ctx, n)
    rng = random.Random(11)
    for _ in range(samples):
        x, y, z = (pi.basis_elem(rng.choice(basis)) for _ in range(3))
        assert (pi.product(ctx, pi.product(ctx, x, y), z)
                == pi.product(ctx, x, pi.product(ctx, y, z)))


def test_product_conserves_mass():
    ctx = make_field(3)
    basis = pi.all_pisos(ctx, 2)
    rng = random.Random(5)
    for _ in range(50):
        x, y = (pi.basis_elem(rng.choice(basis)) for _ in range(2))
        assert sum(pi.product(ctx, x, y).terms.values()) == 1


def assert_lowest_terms(v):
    assert v.den > 0 and 0 not in v.nums.values()
    assert math.gcd(v.den, *v.nums.values()) == 1


def random_elem(rng, terms):
    """Three basis terms with signed Fraction coefficients."""
    return pi.AlgElem(terms[0].n, {t: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 6))
                                   for t in terms})


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_integer_form_matches_the_fraction_oracles(n, q):
    """product, op_R, op_L, pi_n and PairAlgElem.mul against their
    Fraction-accumulating oracles on seeded three-term operands; y's first
    term composes with x's first, so product's composable shortcut runs."""
    ctx = make_field(q)
    basis = pi.all_pisos(ctx, n)
    subs = [S for k in range(n + 1) for S in subspaces.enumerate_subspaces(ctx, n, k)]
    rng = random.Random(10 * n + q)
    for _ in range(8):
        xs = [rng.choice(basis) for _ in range(3)]
        glue = rng.choice([b for b in basis if b.V == xs[0].W])
        x = random_elem(rng, xs)
        y = random_elem(rng, [glue] + [rng.choice(basis) for _ in range(2)])
        X = rng.choice(subs)
        px, py = pi.pi_n(ctx, x), pi.pi_n(ctx, y)
        pairs = [
            (pi.product(ctx, x, y), oracles.product_by_fractions(ctx, x, y)),
            (pi.op_R(ctx, X, x), oracles.op_R_by_fractions(ctx, X, x)),
            (pi.op_L(ctx, X, x), oracles.op_L_by_left_extensions(ctx, X, x)),
            (px, oracles.pi_n_by_fractions(ctx, x)),
            (px.mul(ctx, py), oracles.pair_mul_by_fractions(ctx, px, py)),
        ]
        for got, want in pairs:
            assert got == want and got.terms == want.terms
            assert_lowest_terms(got)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3)])
def test_sum_matches_the_fraction_sum(n, q):
    # seeded three-term vectors over shared terms, so sums merge and cancel
    ctx = make_field(q)
    rng = random.Random(10 * n + q)
    basis = rng.sample(pi.all_pisos(ctx, n), 4)
    for _ in range(40):
        x, y = (random_elem(rng, rng.sample(basis, 3)) for _ in range(2))
        want = {t: x.terms.get(t, 0) + y.terms.get(t, 0) for t in basis}
        for got in (x + y, y + x):
            assert got == pi.AlgElem(n, want) and got.terms == {t: c for t, c in want.items() if c}
            assert_lowest_terms(got)
        assert not x + pi.AlgElem(n, {t: -c for t, c in x.terms.items()})


def test_zero_coefficients_are_dropped():
    ctx = make_field(2)
    e, ident = pi.all_pisos(ctx, 1)
    zero = pi.AlgElem(1)
    assert (zero.den, zero.nums) == (1, {}) and pi.AlgElem(1, {e: 0}) == zero
    x = pi.AlgElem(1, {e: Fraction(1, 2), ident: 0})
    assert (x.den, x.nums) == (2, {e: 1})
    # at n = 1, q = 2 the empty partial isomorphism and the identity of the
    # line both extend to the one pair (1, 1) only
    cancelled = pi.pi_n(ctx, pi.AlgElem(1, {e: Fraction(1, 3), ident: Fraction(-1, 3)}))
    assert (cancelled.den, cancelled.nums) == (1, {}) and cancelled == pi.PairAlgElem(1)
    assert pi.product(ctx, zero, pi.basis_elem(e)) == zero


@pytest.mark.parametrize("q,n", [(3, 2), (2, 3)])
def test_naive_counterexample(q, n):
    ctx = make_field(q)
    (G, H, I), lhs, rhs = pi.naive_product_counterexample(ctx, n)
    eg, eh, ei = ({key: Fraction(1)} for key in (G, H, I))
    assert lhs == pi.naive_product(
        ctx, pi.naive_product(ctx, eg, eh), ei)
    assert rhs == pi.naive_product(
        ctx, eg, pi.naive_product(ctx, eh, ei))
    assert lhs != rhs


def test_naive_product_associative_at_n2_q2():
    # the smallest configuration has no room for a counterexample: every
    # proper subspace of (F_2)^2 carries only the identity automorphism
    ctx = make_field(2)
    with pytest.raises(ValueError):
        pi.naive_product_counterexample(ctx, 2)
    basis = [
        (V, g)
        for k in range(3)
        for V in subspaces.enumerate_subspaces(ctx, 2, k)
        for g in pi.enumerate_gl(ctx, k)
    ]
    for G in basis:
        for H in basis:
            for I in basis:
                eg, eh, ei = ({key: Fraction(1)} for key in (G, H, I))
                lhs = pi.naive_product(
                    ctx, pi.naive_product(ctx, eg, eh), ei)
                rhs = pi.naive_product(
                    ctx, eg, pi.naive_product(ctx, eh, ei))
                assert lhs == rhs


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2)])
def test_naive_extensions_match_gl_scan(q, n):
    """naive_extensions, one fixed-completion group, against the scan of
    GL(k+) for its definition: the same list, in the same order, for every
    V, every automorphism g of V and every V+ containing V."""
    ctx = make_field(q)
    subs = [S for k in range(n + 1) for S in subspaces.enumerate_subspaces(ctx, n, k)]
    checked = 0
    for V in subs:
        for g in pi.enumerate_gl(ctx, V.dim):
            for V_plus in (S for S in subs if S.contains(ctx, V)):
                assert pi.naive_extensions(ctx, V, g, V_plus) == \
                    oracles.naive_extensions_by_scan(ctx, V, g, V_plus)
                checked += 1
    assert checked >= 50


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2)])
def test_supported_automorphisms_match_image_loop(q, n):
    """The engine's middle-space automorphisms in block form, T [[u, Q],
    [0, I]] T^-1 with T the fixed completion of S as columns, against the
    loop over the images of a basis: the same multiset for every middle
    dimension m <= n, every subspace S of (F_q)^m and every type of size
    dim S, with u the Jordan representative or every u of the type."""
    ctx = make_field(q)
    checked = 0
    for m in range(1, n + 1):
        full = subspaces.full_subspace(m)
        for s in range(m + 1):
            cols = subspaces.full_subspace(s).vectors(ctx)
            for S in subspaces.enumerate_subspaces(ctx, m, s):
                T = linalg.transpose(subspaces.extend_basis(ctx, S, full))
                T_inv = linalg.inverse(ctx, T)
                for nu in enumerate_polypartitions(ctx, s):
                    for fix_class in (True, False):
                        reps = [jordan_matrix(nu)] if fix_class else class_orbit(nu, s)
                        got = [linalg.mat_mul(ctx, linalg.mat_mul(ctx, T, linalg.block(u, Q)),
                                              T_inv)
                               for u in reps for Q in itertools.product(cols, repeat=m - s)]
                        want = oracles.supported_automorphisms_by_images(
                            ctx, nu, S, m, fix_class)
                        assert sorted(got) == sorted(want)
                        checked += 1
    assert checked >= 40


def test_operator_calculus_strict():
    # nested restriction, R.R composition, and L/R commutation hold for the
    # strict operators
    ctx = make_field(2)
    n = 2
    subs = []
    for k in range(n + 1):
        subs.extend(subspaces.enumerate_subspaces(ctx, n, k))
    rng = random.Random(3)
    basis = pi.all_pisos(ctx, n)
    for _ in range(60):
        x = rng.choice(basis)
        xe = pi.basis_elem(x)
        W, X = rng.choice(subs), rng.choice(subs)
        WX = subspaces.subspace_sum(ctx, W, X)
        assert pi.op_R(ctx, X, pi.op_R(ctx, W, xe)) == pi.op_R(ctx, WX, xe)
        assert pi.op_L(ctx, X, pi.op_L(ctx, W, xe)) == pi.op_L(ctx, WX, xe)
        assert (pi.op_L(ctx, W, pi.op_R(ctx, X, xe))
                == pi.op_R(ctx, X, pi.op_L(ctx, W, xe)))
        Wp = [S for S in subs if S.contains(ctx, x.W) and rng.random() < 2]
        Wp = rng.choice(Wp)
        Wpps = [S for S in subs if S.contains(ctx, Wp)]
        Wpp = rng.choice(Wpps)
        # with W+ containing x.W, R^{W+} is the restriction R_W^{W+}
        assert pi.op_R(ctx, Wpp, pi.op_R(ctx, Wp, xe)) == pi.op_R(ctx, Wpp, xe)


def test_op_L_matches_left_fixed_extensions():
    """L^X = rev . R^X . rev against the per-term average over the strict
    left-fixed extensions, for every basis element and every X at (n=2,
    q=2); the left-fixed extension sets against a filter of the whole
    basis by the strict-extension predicate."""
    ctx = make_field(2)
    n = 2
    subs = [S for k in range(n + 1) for S in subspaces.enumerate_subspaces(ctx, n, k)]
    basis = pi.all_pisos(ctx, n)
    for x in basis:
        xe = pi.basis_elem(x)
        for X in subs:
            assert pi.op_L(ctx, X, xe) == oracles.op_L_by_left_extensions(ctx, X, xe)
            V_plus = subspaces.subspace_sum(ctx, x.V, X)
            assert set(oracles.extensions_fixed_left(ctx, x, V_plus)) == {
                e for e in basis
                if e.V == V_plus and oracles.is_strict_extension(ctx, x, e)}


def test_operator_calculus_fails_for_compatible():
    # the product-consistent operators violate the calculus; the smallest
    # counterexample is the empty partial isomorphism through a line
    ctx = make_field(2)
    n = 2
    empty = pi.basis_elem(pi.empty_piso(n))
    line = subspaces.enumerate_subspaces(ctx, n, 1)[0]
    full = subspaces.full_subspace(n)
    nested = oracles.compatible_R(ctx, full, oracles.compatible_R(ctx, line, empty))
    assert nested != oracles.compatible_R(ctx, full, empty)
    assert (oracles.compatible_L(ctx, line, oracles.compatible_R(ctx, line, empty))
            != oracles.compatible_R(ctx, line, oracles.compatible_L(ctx, line, empty)))


def test_compatible_operators_match_product():
    # the compatible averages are products with an identity:
    # R_W^{W+}(x) = x * id_{W+} and L_V^{V+}(x) = id_{V+} * x
    ctx = make_field(2)
    n = 2
    subs = []
    for k in range(n + 1):
        subs.extend(subspaces.enumerate_subspaces(ctx, n, k))
    for x in pi.all_pisos(ctx, n):
        xe = pi.basis_elem(x)
        for S in subs:
            if not S.contains(ctx, x.W):
                continue
            assert oracles.compatible_R(ctx, S, xe) == pi.product(
                ctx, xe, identity_elem(ctx, n, S))
        for S in subs:
            if not S.contains(ctx, x.V):
                continue
            assert oracles.compatible_L(ctx, S, xe) == pi.product(
                ctx, identity_elem(ctx, n, S), xe)


def test_pi_n_morphism_sampled():
    ctx = make_field(2)
    n = 2
    basis = pi.all_pisos(ctx, n)
    rng = random.Random(9)
    for _ in range(100):
        x = pi.basis_elem(rng.choice(basis))
        y = pi.basis_elem(rng.choice(basis))
        lhs = pi.pi_n(ctx, pi.product(ctx, x, y))
        rhs = pi.pi_n(ctx, x).mul(ctx, pi.pi_n(ctx, y))
        assert lhs == rhs


@pytest.mark.parametrize("q,n,samples", [(2, 2, None), (3, 2, 60), (2, 3, 60)])
def test_pi_n_matches_lift_through_identity(q, n, samples):
    """pi_n against the product x * id_{(F_q)^n} it averages: every basis
    element at (2, 2), seeded ones elsewhere, and seeded products of two
    basis elements, whose terms carry different denominators."""
    ctx = make_field(q)
    basis = pi.all_pisos(ctx, n)
    rng = random.Random(q * 10 + n)
    xs = basis if samples is None else [rng.choice(basis) for _ in range(samples)]
    for x in xs:
        xe = pi.basis_elem(x)
        assert pi.pi_n(ctx, xe) == oracles.pi_n_by_lift(ctx, xe)
    for _ in range(20):
        x, y = (pi.basis_elem(rng.choice(basis)) for _ in range(2))
        xy = pi.product(ctx, x, y)
        assert pi.pi_n(ctx, xy) == oracles.pi_n_by_lift(ctx, xy)


def test_invariant_elem_census():
    ctx = make_field(2)
    n = 2
    for mu in enumerate_polypartitions(ctx, 1) + enumerate_polypartitions(ctx, 2):
        x = pi.invariant_elem(ctx, mu, n)
        assert pi.type_census(ctx, x) == {mu: 1}
        assert sum(x.terms.values()) == pi.num_free_families(2, n, mu.size)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2)])
def test_invariant_product_engines_agree(q, n):
    """The production engine against the double orbit sum: every ordered
    pair of degree-1 types, and at q=2 every pair of {X+1:(1)} with a size-2
    type in both orders plus each size-2 type squared."""
    ctx = make_field(q)
    deg1 = enumerate_polypartitions(ctx, 1)
    pairs = [(lam, mu) for lam in deg1 for mu in deg1]
    if q == 2:
        unit = parse_polypartition(ctx, "{X+1:(1)}")
        for nu in enumerate_polypartitions(ctx, 2):
            pairs += [(unit, nu), (nu, unit), (nu, nu)]
    for lam, mu in pairs:
        got = pi.invariant_product(lam, mu, n)
        assert pi._invariant_product_orbits(ctx, lam, mu, n) == got
        assert pi.invariant_product(mu, lam, n) == got


def classes_over_every_w(ctx, lam, mu, n):
    """The middle-dimension engine without its orbit reduction and with
    the middle-space automorphisms of the image-loop oracle: for each
    middle dimension m, W runs over every l-dimensional subspace of
    (F_q)^m with V + W = (F_q)^m.  Constants in the Atilde basis of orbit
    averages."""
    k, l = lam.size, mu.size
    out = {}
    for m in range(max(k, l), min(n, k + l) + 1):
        pm = dim_sum_law(n, ctx.q, 0, k, l, m)
        if pm == 0:
            continue
        if m == 0:
            e = empty_polypartition(ctx)
            out[e] = out.get(e, Fraction(0)) + pm
            continue
        V = subspaces.from_rows(ctx, linalg.identity(m)[:k], m)
        A_list = oracles.supported_automorphisms_by_images(ctx, lam, V, m, fix_class=True)
        counts = {}
        total = 0
        for W in subspaces.enumerate_subspaces(ctx, m, l):
            if subspaces.subspace_sum(ctx, V, W).dim != m:
                continue
            B_list = oracles.supported_automorphisms_by_images(ctx, mu, W, m)
            for A in A_list:
                for B in B_list:
                    t = type_of(ctx, linalg.mat_mul(ctx, B, A))
                    counts[t] = counts.get(t, 0) + 1
                    total += 1
        for t, c in counts.items():
            out[t] = out.get(t, Fraction(0)) + pm * Fraction(c, total)
    return {t: c for t, c in out.items() if c}


@pytest.mark.parametrize("q,n,left,right", [(2, 3, (1, 2), (1, 2)), (3, 2, (2,), (1,))])
def test_invariant_product_orbit_reduction(q, n, left, right):
    """The sum over one W per intersection U of V and W against the sum over
    every W, where d = k + l - m >= 1 gives several U: every ordered pair of
    types of size 1 and 2 at q=2, n=3 (m=3 with k=l=2 has three U), and
    every size-2 type times a size-1 type at q=3, n=2."""
    ctx = make_field(q)
    lams = [lam for k in left for lam in enumerate_polypartitions(ctx, k)]
    mus = [mu for l in right for mu in enumerate_polypartitions(ctx, l)]
    for lam in lams:
        for mu in mus:
            assert pi.invariant_product(lam, mu, n) == oracles.hat_from_tilde(
                ctx, classes_over_every_w(ctx, lam, mu, n), lam, mu, n)


@pytest.mark.parametrize("q,a,b,n", [
    (2, "{X+1:(1)}", "{X+1:(1)}", 2),
    (2, "{X^2+X+1:(1)}", "{X+1:(1)}", 3),
    (2, "{X+1:(2)}", "{X+1:(1,1)}", 3),
    (3, "{X+2:(1)}", "{X+1:(1)}", 2),
    (3, "{X+1:(2)}", "{X+1:(1)}", 3),
    (2, "{X+1:(1)}", "{}", 2),
    (3, "{X+1:(2)}", "{X+2:(2)}", 3),
    (2, "{X+1:(2)}", "{X^2+X+1:(1)}", 3),
    (2, "{}", "{}", 2),
])
def test_invariant_product_work_counts_type_of_calls(monkeypatch, q, a, b, n):
    ctx = make_field(q)
    lam, mu = parse_polypartition(ctx, a), parse_polypartition(ctx, b)
    calls = []

    def counted(ctx, A):
        calls.append(A)
        return type_of(ctx, A)

    monkeypatch.setattr(pi, "type_of", counted)
    pi.invariant_product(lam, mu, n)
    assert calls
    assert pi.invariant_product_work(lam, mu, n) == len(calls)


def test_phi_on_hat_elements():
    ctx = make_field(2)
    for size in (0, 1, 2):
        for mu in enumerate_polypartitions(ctx, size):
            big = pi.invariant_elem(ctx, mu, 3)
            small = pi.invariant_elem(ctx, mu, 2)
            assert pi.phi(ctx, big, 2) == small


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (3, 2)])
def test_phi_scale_matches_the_pochhammer_formula(p, e):
    # the identity on the first k coordinates, one term of coefficient 1,
    # is sent to its truncation times nf(q, n', k) / nf(q, n, k)
    ctx = make_field(p, e)
    for n_big in range(6):
        for n_small in range(n_big + 1):
            for k in range(n_small + 1):
                V = subspaces.from_rows(ctx, linalg.identity(n_big)[:k], n_big)
                I = linalg.identity(k)
                got = pi.phi(ctx, pi.basis_elem(pi.PartialIso(V, V, I, I)), n_small)
                U = subspaces.from_rows(ctx, linalg.identity(n_small)[:k], n_small)
                want = oracles.phi_scale_by_pochhammer(ctx.q, n_big, n_small, k)
                assert got.terms == {pi.PartialIso(U, U, I, I): want}


def test_enumeration_size_checks_raise(monkeypatch):
    # explicit raises, not asserts: they hold under python -O as well
    ctx = make_field(2)
    monkeypatch.setattr(pi, "card_iso", lambda q, n: 7)
    with pytest.raises(AssertionError,
                       match=r"indexes 2 partial isomorphisms, \|I\(1, F_2\)\| = 7"):
        pi.all_pisos.__wrapped__(ctx, 1)
    mu = parse_polypartition(ctx, "{X+1:(1)}")
    monkeypatch.setattr(pi, "orbit_size", lambda mu, n: 5)
    with pytest.raises(AssertionError, match="has 9 elements, orbit_size says 5"):
        pi.orbit_of_type.__wrapped__(mu, 2)


def test_num_free_families():
    assert pi.num_free_families(2, 3, 0) == 1
    assert pi.num_free_families(2, 3, 2) == (8 - 1) * (8 - 2)
    assert pi.num_free_families(3, 2, 2) == (9 - 1) * (9 - 3)
