"""Completed-class products, the padded-unipotent transport law, the
Laurent polynomials in X = q^n and the symbolic structure polynomials."""

import itertools
from fractions import Fraction

import oracles
import pytest

from glfq import center
from glfq.conjtype import (
    Partition,
    Polypartition,
    class_size,
    complete,
    empty_polypartition,
    enumerate_polypartitions,
    jordan_matrix,
    parse_polypartition,
    partitions_of,
    reduce_polypartition,
    type_of,
)
from glfq.fields import linear_poly, make_field
from glfq.partial_iso import invariant_product, num_free_families
from glfq.subspaces import num_subspaces


def enumerate_nothing(*args):
    raise AssertionError("enumeration started")


def unipotent_type(ctx, pi):
    if not pi:
        return empty_polypartition(ctx)
    return Polypartition(ctx, ((linear_poly(ctx, 1), Partition(pi)),))


@pytest.mark.parametrize("q,n,lam_s,mu_s", [
    (2, 2, "{X+1:(1)}", "{X+1:(1)}"),
    (2, 3, "{X+1:(2)}", "{X+1:(1)}"),
    (3, 2, "{X+2:(1)}", "{X+2:(1)}"),
    (3, 2, "{X+1:(1)}", "{X+2:(1)}"),
])
def test_completed_product_vs_double_loop(q, n, lam_s, mu_s):
    ctx = make_field(q)
    lam = parse_polypartition(ctx, lam_s)
    mu = parse_polypartition(ctx, mu_s)
    slow = oracles.class_convolution(lam, mu, n)
    assert center.completed_product(lam, mu, n) == slow
    assert center.completed_product(mu, lam, n) == slow


def test_completed_product_rejects_oversized_types():
    ctx = make_field(2)
    lam = parse_polypartition(ctx, "{X^2+X+1:(1)}")
    with pytest.raises(ValueError):
        center.completed_product(lam, lam, 1)


def brute_padded_law(ctx, pi, m):
    """Enumerate every free block P and bucket the unipotent types of
    [[U, P], [0, I_m]] directly."""
    u = sum(pi)
    U = jordan_matrix(unipotent_type(ctx, pi)) if u else ()
    xm1 = linear_poly(ctx, 1)
    counts = {}
    total = 0
    for flat in itertools.product(ctx.elements(), repeat=u * m):
        rows = [tuple(U[i]) + flat[i * m:(i + 1) * m] for i in range(u)]
        for j in range(m):
            rows.append(tuple(0 for _ in range(u))
                        + tuple(1 if t == j else 0 for t in range(m)))
        t = type_of(ctx, tuple(rows))
        (sigma,) = [part.parts for poly, part in t.entries if poly == xm1]
        counts[sigma] = counts.get(sigma, 0) + 1
        total += 1
    return {s: Fraction(c, total) for s, c in counts.items()}


@pytest.mark.parametrize("q,pi,m", [
    (2, (), 2),
    (2, (1,), 2),
    (2, (2,), 1),
    (2, (2,), 2),
    (2, (1, 1), 2),
    (2, (2, 1), 1),
    (2, (3,), 1),
    (3, (2,), 1),
])
def test_padded_unipotent_law_vs_enumeration(q, pi, m):
    # the padding law behind transport and fh_polynomials, read through
    # transport: a probability P of sigma is the weight
    # num_free_families * P / card C_sigma of the unipotent class sigma
    ctx = make_field(q)
    k, n = sum(pi), sum(pi) + m
    want = {}
    for sigma, pr in brute_padded_law(ctx, pi, m).items():
        tau = unipotent_type(ctx, sigma)
        want[tau] = num_free_families(q, n, k) * pr / class_size(tau, n)
    assert center.transport(unipotent_type(ctx, pi), n).terms == want


def test_padding_profiles_match_ranks_of_powers():
    # the Hall-polynomial counts against the rank drops of (N - I)^j over
    # every subspace Y, on every partition of size <= 6 at q = 2, <= 4 at
    # q = 3 and <= 3 at q = 4 and 5
    checked = 0
    for (p, e), top in (((2, 1), 6), ((3, 1), 4), ((2, 2), 3), ((5, 1), 3)):
        ctx = make_field(p, e)
        for size in range(top + 1):
            for part in partitions_of(size):
                assert center._padding_profiles(ctx, part.parts) == \
                    oracles.padding_profiles_by_ranks(ctx, part.parts)
                checked += 1
    assert checked == 56


@pytest.mark.parametrize("q", [2, 3, 4, 5, 1009])
def test_padding_profiles_count_every_subspace(q):
    # each subspace Y of dimension d has one profile: the counts of each d
    # add up to [u choose d]_q, on every partition of size u <= 10
    ctx = field(q)
    for u in range(11):
        for part in partitions_of(u):
            by_dim = {}
            for (d, core), count in center._padding_profiles(ctx, part.parts).items():
                assert count > 0
                by_dim[d] = by_dim.get(d, 0) + count
            assert by_dim == {d: num_subspaces(q, u, d) for d in range(u + 1)}


@pytest.mark.parametrize("q,nu_s", [(2, "{X+1:(4,3)}"), (3, "{X+2:(2,2,2)}")])
def test_transport_poly_lists_no_subspace(monkeypatch, q, nu_s):
    # these padding laws took 25 s each when every subspace Y was typed
    monkeypatch.setattr(center, "type_of", enumerate_nothing)
    monkeypatch.setattr(center.subspaces, "enumerate_subspaces", enumerate_nothing)
    monkeypatch.setattr(center, "_padding_profiles", center._padding_profiles.__wrapped__)
    # _transport_poly checks that the law sums to 1
    law = center._transport_poly(parse_polypartition(make_field(q), nu_s))
    assert len(law) > 1


@pytest.mark.parametrize("q,nu_s,n", [
    (2, "{X+1:(2)}", 3),
    (2, "{X+1:(2)}", 4),
    (2, "{X+1:(2,1)}", 4),
    (3, "{X+1:(1)}", 3),
])
def test_transport_mass(q, nu_s, n):
    ctx = make_field(q)
    nu = parse_polypartition(ctx, nu_s)
    vec = center.transport(nu, n)
    mass = sum(c * class_size(tau, n) for tau, c in vec.terms.items())
    assert mass == num_free_families(q, n, nu.size)


@pytest.mark.parametrize("q,nu_s,n", [
    (2, "{X^2+X+1:(1)}", 2),
    (2, "{X^2+X+1:(1)}", 3),
    (3, "{X+1:(1)}", 2),
    (3, "{X+1:(1)}", 3),
])
def test_transport_single_class_matches_pi_scalar(q, nu_s, n):
    # with no (X-1) parts the lift lands on a single completed class and the
    # transport reduces to the pi_scalar display
    ctx = make_field(q)
    nu = parse_polypartition(ctx, nu_s)
    vec = center.transport(nu, n)
    assert set(vec.terms) == {complete(nu, n)}
    assert vec == oracles.pi_expansion({nu: Fraction(1)}, n)


def test_pi_scalar_of_empty_type_is_one():
    ctx = make_field(3)
    for n in (1, 2, 5):
        assert oracles.pi_scalar(empty_polypartition(ctx), n) == 1


@pytest.mark.parametrize("q,tau_s", [
    (2, "{X+1:(2)}"),
    (2, "{X+1:(2,2)}"),
    (2, "{X^2+X+1:(1)}"),
    (3, "{X+1:(1)}"),
    (3, "{X+2:(3);X+1:(1,1)}"),
])
def test_completed_class_size_poly(q, tau_s):
    ctx = make_field(q)
    tau = parse_polypartition(ctx, tau_s)
    poly = center.completed_class_size_poly(tau)
    for n in range(tau.size, tau.size + 3):
        want = class_size(complete(tau, n), n)
        assert poly(Fraction(q) ** n) == want


@pytest.mark.parametrize("p,e,top", [(2, 1, 4), (3, 1, 4), (5, 1, 4), (2, 2, 3)])
def test_completed_class_size_poly_matches_the_pochhammer_formula(p, e, top):
    # every reduced type of size <= top
    ctx = make_field(p, e)
    for size in range(top + 1):
        for tau in enumerate_polypartitions(ctx, size):
            if 1 not in tau.unipotent:
                assert (center.completed_class_size_poly(tau)
                        == oracles.completed_class_size_poly_by_pochhammer(tau))


def test_completed_class_size_poly_requires_reduced_input():
    ctx = make_field(2)
    tau = parse_polypartition(ctx, "{X+1:(2,1)}")
    with pytest.raises(ValueError, match=r"\{X\+1:\(2,1\)\}"):
        center.completed_class_size_poly(tau)


def test_num_free_poly_evaluates_to_counts():
    for q in (2, 3):
        for k in range(4):
            poly = center.num_free_poly(q, k)
            for n in range(k, k + 3):
                assert poly(Fraction(q) ** n) == num_free_families(q, n, k)


def test_generic_S_known_values_q2():
    ctx = make_field(2)
    lam = parse_polypartition(ctx, "{X+1:(1)}")
    S = center.generic_S(lam, lam)
    want = {
        parse_polypartition(ctx, "{X+1:(1)}"): Fraction(1),
        parse_polypartition(ctx, "{X+1:(2)}"): Fraction(1, 2),
        parse_polypartition(ctx, "{X+1:(1,1)}"): Fraction(1, 4),
        parse_polypartition(ctx, "{X^2+X+1:(1)}"): Fraction(1, 4),
    }
    assert S == want


@pytest.mark.parametrize("q,a,b", [
    (2, "{X+1:(1)}", "{X+1:(1)}"),
    (2, "{X+1:(1)}", "{X^2+X+1:(1)}"),
    (2, "{X+1:(2)}", "{X+1:(1)}"),
    (3, "{X+1:(1)}", "{X+2:(1)}"),
    (3, "{X+2:(1)}", "{X+2:(1)}"),
    (3, "{X+1:(2)}", "{X+1:(1)}"),
    (4, "{X+t:(1)}", "{X+t+1:(1)}"),
])
@pytest.mark.parametrize("extra", [1, 2])
def test_generic_S_independent_of_ambient_dimension(q, a, b, extra):
    # the Ahat-basis constants at n0 + 1 and n0 + 2 equal those at
    # n0 = |lam| + |mu|
    ctx = make_field(2, 2) if q == 4 else make_field(q)
    lam, mu = parse_polypartition(ctx, a), parse_polypartition(ctx, b)
    n = lam.size + mu.size + extra
    assert invariant_product(lam, mu, n) == center.generic_S(lam, mu)


def test_fh_polynomials_reject_unipotent_parts():
    # parts 1 on X - 1 are refused where the types must be reduced, and
    # fh_polynomials reduces before it expands: {X+1:(2,1)} is {X+1:(2)}
    ctx = make_field(2)
    lam = parse_polypartition(ctx, "{X+1:(2,1)}")
    good = parse_polypartition(ctx, "{X^2+X+1:(1)}")
    with pytest.raises(ValueError, match="not reduced"):
        center.class_expansion(lam)
    with pytest.raises(ValueError, match="not reduced"):
        center.GenericProduct(good, lam, {})
    reduced = center.fh_polynomials(parse_polypartition(ctx, "{X+1:(2)}"), good)
    assert center.fh_polynomials(lam, good).rhs == reduced.rhs


@pytest.mark.parametrize("q,lam_s,mu_s,n_list", [
    (3, "{X+1:(1)}", "{X+1:(1)}", [2, 3, 4]),
    (3, "{X+1:(1)}", "{X+2:(1)}", [2, 3]),
    (3, "{X+1:(1)}", "{X^2+1:(1)}", [3, 4]),
    (2, "{X^2+X+1:(1)}", "{X^2+X+1:(1)}", [4]),
])
def test_fh_polynomials_match_brute_force(q, lam_s, mu_s, n_list):
    ctx = make_field(q)
    lam = parse_polypartition(ctx, lam_s)
    mu = parse_polypartition(ctx, mu_s)
    gp = center.fh_polynomials(lam, mu)
    report = center.verify_fh(gp, n_list)
    assert report == {n: {} for n in n_list}, report
    # structural sanity: no negative degrees and at least one output class
    assert gp.rhs
    assert all(max(p.terms) >= 0 for p in gp.rhs.values())


def field(q):
    return make_field(2, 2) if q == 4 else make_field(q)


@pytest.mark.parametrize("q,size", [(2, 4), (3, 3), (4, 2)])
def test_class_expansion_sums_to_the_completed_class(q, size):
    # sum_nu a_nu(q^n) Pi_n(Ahat_nu) is C_{lam^n} itself at n = |lam| and
    # |lam| + 1, for every reduced type with (X-1) parts up to the size
    ctx = field(q)
    lams = {reduce_polypartition(t) for s in range(1, size + 1)
            for t in enumerate_polypartitions(ctx, s)}
    for lam in (t for t in lams if t.unipotent):
        expansion = center.class_expansion(lam)
        assert len(expansion) > 1
        for n in (lam.size, lam.size + 1):
            x = Fraction(q) ** n
            got = {}
            for nu, a in expansion.items():
                for tau, c in center.transport(nu, n).terms.items():
                    got[tau] = got.get(tau, 0) + a(x) * c
            assert center.CentralVector(n, got) == center.CentralVector(n, {complete(lam, n): 1})


# ROADMAP item 1: pairs with (X-1) parts at n0 = |lam| + |mu| and above;
# item 3: pairs at max(|lam|, |mu|) <= n < n0.  Left out for time here:
# {X+1:(3)}^2 at q = 2, n = 5 and 6, {X^2+1:(1)}^2 at q = 3 and
# {X+4:(2)}.{X+2:(1)} at q = 5, n = 4 (6 s, 143 s, 4 s and 3 s).
@pytest.mark.parametrize("q,lam_s,mu_s,n_list", [
    (2, "{}", "{X+1:(2)}", [2, 3]),
    (2, "{X+1:(2)}", "{X+1:(2)}", [2, 3, 4, 5]),
    (2, "{X+1:(2)}", "{X^2+X+1:(1)}", [2, 3, 4, 5]),
    (2, "{X^2+X+1:(1)}", "{X^2+X+1:(1)}", [2, 3]),
    (2, "{X+1:(3)}", "{X+1:(2)}", [3, 4, 5]),
    (2, "{X+1:(2,2)}", "{X+1:(2)}", [6]),
    (2, "{X+1:(3)}", "{X+1:(3)}", [3, 4]),
    (3, "{X+2:(1)}", "{X+2:(1)}", [1]),
    (3, "{X+1:(1)}", "{X+1:(1)}", [1]),
    (3, "{X+1:(2)}", "{X+2:(1)}", [2]),
    (3, "{}", "{X+2:(2)}", [2, 3]),
    (3, "{X+1:(1)}", "{X+2:(2)}", [3, 4]),
    (3, "{X+2:(2)}", "{X+2:(2)}", [2, 3, 4]),
    (3, "{X+1:(2)}", "{X+2:(2)}", [4]),
    (3, "{X+1:(1,1)}", "{X+2:(2)}", [4]),
    (3, "{X^2+1:(1)}", "{X+2:(2)}", [4]),
    (3, "{X^2+X+2:(1)}", "{X+2:(2)}", [4]),
    (3, "{X^2+2*X+2:(1)}", "{X+2:(2)}", [4]),
    (4, "{X+1:(2)}", "{X+1:(2)}", [4]),
    (4, "{X+1:(2)}", "{X+t:(1)}", [3]),
    (4, "{X+t:(1)}", "{X+t+1:(1)}", [1]),
    (5, "{X+4:(2)}", "{X+2:(1)}", [3]),
])
def test_fh_polynomials_match_enumeration_at_every_n(q, lam_s, mu_s, n_list):
    ctx = field(q)
    lam, mu = parse_polypartition(ctx, lam_s), parse_polypartition(ctx, mu_s)
    gp = center.fh_polynomials(lam, mu)
    assert center.verify_fh(gp, n_list) == {n: {} for n in n_list}


@pytest.mark.parametrize("q", [2, 3])
def test_fh_polynomials_keep_the_degree_bound(q):
    # deg p^tau <= ||lam|| + ||mu|| - ||tau||, ||tau|| = rank(g - 1) on C_tau,
    # on the pairs of reduced types of size <= 2 whose tables are cheap
    ctx = field(q)
    types = sorted({reduce_polypartition(t) for s in range(3)
                    for t in enumerate_polypartitions(ctx, s)})
    norm = center._norm
    checked = 0
    for lam, mu in itertools.combinations_with_replacement(types, 2):
        if center.product_work(lam, mu) > 10 ** 4:
            continue
        gp = center.fh_polynomials(lam, mu)
        for tau, poly in gp.rhs.items():
            assert 0 <= min(poly.terms) <= max(poly.terms) <= norm(lam) + norm(mu) - norm(tau)
        checked += 1
    assert checked >= (6 if q == 2 else 20)


def test_small_tables_answer_at_small_n_only():
    # tables taken at n below n0 hold the S^nu with |nu| <= n; the product
    # they give equals the generic one at that n and is refused above it
    ctx = make_field(3)
    lam = parse_polypartition(ctx, "{X+2:(2)}")
    mu = parse_polypartition(ctx, "{X+1:(1)}")
    full = center.fh_polynomials(lam, mu)
    for n in (2, 3):
        small = center.fh_polynomials(lam, mu, n)
        assert small.at(n) == full.at(n) == center.completed_product(lam, mu, n)
        with pytest.raises(ValueError, match="n <= %d only" % n):
            small.at(n + 1)


def test_class_product_at_large_n_keeps_the_mass(monkeypatch):
    # n = 50: nothing is enumerated, and the constants are integers whose
    # masses add up to card C_lam card C_mu
    monkeypatch.setattr(center, "class_orbit", enumerate_nothing)
    monkeypatch.setattr(center, "completed_product", enumerate_nothing)
    ctx = make_field(2)
    lam = parse_polypartition(ctx, "{X+1:(3)}")
    mu = parse_polypartition(ctx, "{X+1:(2,2)}")
    n = 50
    out = center.class_product(lam, mu, n)
    assert out.is_integral() and len(out.terms) > 10
    assert all(t.size == n for t in out.terms)
    assert (sum(c * class_size(t, n) for t, c in out.terms.items())
            == class_size(complete(lam, n), n) * class_size(complete(mu, n), n))


def test_fh_verify_rejects_small_n():
    ctx = make_field(3)
    lam = parse_polypartition(ctx, "{X+1:(1)}")
    with pytest.raises(ValueError):
        center.verify_fh(center.fh_polynomials(lam, lam), [0])


def test_laurent_basics():
    p = center.Laurent({0: Fraction(-1), 1: Fraction(2, 7)})
    assert max(p.terms) == 1
    assert p(49) == 13
    assert p == center.Laurent({0: -1, 1: Fraction(2, 7), 2: 0})
    assert p.coeffs == (Fraction(-1), Fraction(2, 7))
    assert center.Laurent({2: 3}).coeffs == (0, 0, 3)
    assert center.Laurent().coeffs == ()
    assert p + p * -1 == center.Laurent()
    r = center.Laurent({-2: 5, 0: Fraction(1, 3), 3: -4})
    assert max(r.terms) == 3
    assert r(2) == Fraction(5, 4) + Fraction(1, 3) - 32
    with pytest.raises(ValueError, match="negative powers"):
        r.coeffs
    for a in (p, r, p * r):
        assert (a * a) / a == a


def test_laurent_division_raises_at_once():
    one = center.Laurent({0: 1})
    x_minus_1 = center.Laurent({1: 1, 0: -1})
    with pytest.raises(AssertionError, match=r"1 is not divisible by -1 \+ 1\*X\^1"):
        one / x_minus_1
    with pytest.raises(AssertionError, match="not divisible"):
        (x_minus_1 * x_minus_1 + one) / x_minus_1
    with pytest.raises(ValueError, match="zero Laurent polynomial"):
        one / center.Laurent({0: 0})
    assert center.Laurent() / x_minus_1 == center.Laurent()


def test_central_vector_algebra():
    ctx = make_field(2)
    mu = complete(parse_polypartition(ctx, "{X+1:(2)}"), 2)
    assert center.CentralVector(2, {mu: Fraction(1)}).is_integral()
    assert not center.CentralVector(2, {mu: Fraction(1, 2)}).is_integral()
    assert center.CentralVector(2, {mu: 0}).terms == {}


def test_central_vector_from_ints_equals_from_fractions():
    ctx = make_field(3)
    mu, nu = (complete(parse_polypartition(ctx, t), 2) for t in ("{X+1:(1)}", "{X+2:(2)}"))
    ints = center.CentralVector(2, {mu: 2, nu: -4})
    fracs = center.CentralVector(2, {mu: Fraction(4, 2), nu: Fraction(-8, 2)})
    assert ints == fracs and ints.is_integral()
    assert (ints.den, ints.nums) == (1, {mu: 2, nu: -4})
    half = center.CentralVector(2, {mu: Fraction(1, 2), nu: Fraction(2, 3)})
    assert (half.den, half.nums) == (6, {mu: 3, nu: 4}) and not half.is_integral()
    assert half.terms == {mu: Fraction(1, 2), nu: Fraction(2, 3)}
