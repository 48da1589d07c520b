"""Products of completed conjugacy classes in the centers Z(C GL(n, F_q)).

The completed class of a polypartition mu with |mu| <= n pads mu(X - 1) with
parts 1 so the matrices act on all of (F_q)^n.  This module computes the
expansion C_{lam^n} * C_{mu^n} = sum_nu c^nu(n) C_nu by direct counting in
the group, projects the generic invariants onto these centers (the Pi_n
scalars), extracts the generic structure constants S^nu from the
partial-isomorphism engine, and assembles the polynomials p^nu(X), X = q^n,
that describe the n-dependence of the c^nu in closed form.
"""

import json
from fractions import Fraction

from . import linalg, subspaces
from .conjtype import (
    Partition,
    Polypartition,
    class_orbit,
    class_size,
    complete,
    format_polypartition,
    jordan_matrix,
    num_free_families,
    pochhammer,
    reduce_polypartition,
    type_of,
)
from .fields import linear_poly
from .partial_iso import AlgElem, invariant_product, invariant_product_work

# fh_polynomials refuses a product whose invariant_product would make more
# type_of calls than this (several minutes at 0.3 ms or more a call)
MAX_TYPE_OF_CALLS = 10 ** 6


class WorkCapExceeded(ValueError):
    """fh_polynomials was asked for a product above MAX_TYPE_OF_CALLS."""


class CentralVector(AlgElem):
    """Sparse element of Z(C GL(n, F_q)): {size-n polypartition: coefficient}."""

    __slots__ = ("ctx",)

    def __init__(self, ctx, n, terms=None):
        if terms and any(mu.size != n for mu in terms):
            raise ValueError("central vector of GL(%d) needs types of size %d" % (n, n))
        self.ctx = ctx
        super().__init__(n, terms)

    def _like(self, terms):
        return CentralVector(self.ctx, self.n, terms)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def __repr__(self):
        items = sorted(self.terms.items())
        return " + ".join("%s*C%s" % (c, m) for m, c in items) or "0"


def completed_product(lam, mu, n, representative=None):
    """Expansion of C_{lam^n} * C_{mu^n} in completed-class sums.

    The coefficient of C_nu is #{g in C_{lam^n} : type(g^{-1} z) = mu^n} for
    any fixed z in C_nu.  Instead of scanning once per candidate nu, one pass
    over the smaller input class buckets the types of the products g * h0
    with h0 a fixed representative of the other class:
    c^nu = #{g : type(g h0) = nu} * card(other class) / card(C_nu),
    which is the same class constant by invariance of type under conjugation.
    Support completeness is certified by the mass identity
    sum_nu c^nu card(C_nu) = card(C_{lam^n}) card(C_{mu^n})."""
    if lam.size > n or mu.size > n:
        raise ValueError("type size exceeds n")
    ctx = lam.ctx
    lam_n, mu_n = complete(lam, n), complete(mu, n)
    size_lam, size_mu = class_size(lam_n, n), class_size(mu_n, n)
    if representative is None and size_mu < size_lam:
        # enumerate the smaller class; the product is commutative
        lam, mu = mu, lam
        lam_n, mu_n = mu_n, lam_n
        size_lam, size_mu = size_mu, size_lam
    h0 = jordan_matrix(mu_n) if representative is None else representative
    assert type_of(ctx, h0) == mu_n
    counts = {}
    for g in class_orbit(lam, n):
        t = type_of(ctx, linalg.mat_mul(ctx, h0, g))
        counts[t] = counts.get(t, 0) + 1
    out = {}
    mass = 0
    for t, c in counts.items():
        size_t = class_size(t, n)
        coeff = Fraction(c * size_mu, size_t)
        assert coeff.denominator == 1
        out[t] = int(coeff)
        mass += int(coeff) * size_t
    assert mass == size_lam * size_mu
    return CentralVector(ctx, n, out)


def class_convolution(lam, mu, n):
    """Brute-force oracle: full double loop over both completed classes."""
    ctx = lam.ctx
    counts = {}
    for g in class_orbit(lam, n):
        for h in class_orbit(mu, n):
            t = type_of(ctx, linalg.mat_mul(ctx, h, g))
            counts[t] = counts.get(t, 0) + 1
    out = {}
    for t, c in counts.items():
        coeff = Fraction(c, class_size(t, n))
        assert coeff.denominator == 1
        out[t] = int(coeff)
    return CentralVector(ctx, n, out)


def pi_scalar(mu, n):
    """The scalar lambda with Pi_n(Ahat_mu) = lambda * C_{mu^n} / card(C_mu):
    q^{n(2k1-k)} q^{2k(k-k1)} (q^{-1})_k (q^{-1})_{n-k+k11}
    / ((q^{-1})_{k11} (q^{-1})_{n-k})."""
    k = mu.size
    if k > n:
        raise ValueError("type size exceeds n")
    k1, k11 = mu.k1, mu.k11
    q = mu.ctx.q
    qi = Fraction(1, q)
    return (
        Fraction(q) ** (n * (2 * k1 - k))
        * Fraction(q) ** (2 * k * (k - k1))
        * pochhammer(qi, k)
        * pochhammer(qi, n - k + k11)
        / (pochhammer(qi, k11) * pochhammer(qi, n - k))
    )


def pi_expansion(ctx, hat_coeffs, n):
    """Pi_n applied to sum S_nu Ahat_nu: a rational CentralVector."""
    out = {}
    for nu, c in hat_coeffs.items():
        key = complete(nu, n)
        w = c * pi_scalar(nu, n) / class_size(nu, nu.size)
        out[key] = out.get(key, 0) + w
    return CentralVector(ctx, n, out)


def hat_from_tilde(ctx, tilde_coeffs, lam, mu, n):
    """Convert Atilde-basis structure constants at ambient n to the Ahat
    basis: Ahat = num_free_families * Atilde."""
    q = ctx.q
    nf = num_free_families(q, n, lam.size) * num_free_families(q, n, mu.size)
    return {
        nu: c * Fraction(nf, num_free_families(q, n, nu.size))
        for nu, c in tilde_coeffs.items()
    }


def generic_S(lam, mu, n=None):
    """Generic structure constants: Ahat_lam * Ahat_mu = sum S^nu Ahat_nu.

    Computed at n0 = |lam| + |mu| (the smallest ambient dimension where all
    output degrees fit); the compatibility maps make the coefficients
    independent of n >= n0, which the test suite verifies by recomputing at
    n0 + 1."""
    ctx = lam.ctx
    if n is None:
        n = lam.size + mu.size
    tilde = invariant_product(lam, mu, n)
    return hat_from_tilde(ctx, tilde, lam, mu, n)


class StructPoly:
    """Polynomial in X with rational coefficients, ascending order;
    semantics X = q^n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __call__(self, x):
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append("%s*X^%d" % (c, i) if i else str(c))
        return " + ".join(parts)


class GenericProduct:
    """The n-independent description of C_{lam^n} * C_{mu^n}: polynomials
    p^nu(X) per reduced output type, plus the raw S coefficients."""

    __slots__ = ("ctx", "lhs", "rhs", "S")

    def __init__(self, ctx, lhs, rhs, S):
        self.ctx = ctx
        self.lhs = lhs
        self.rhs = rhs
        self.S = S

    def to_json(self):
        def frac(c):
            return "%d/%d" % (c.numerator, c.denominator)

        return json.dumps(
            {
                "q": self.ctx.q,
                "lhs": [format_polypartition(m) for m in self.lhs],
                "rhs": [
                    {
                        "type": format_polypartition(nu),
                        "poly": [frac(c) for c in poly.coeffs],
                    }
                    for nu, poly in sorted(self.rhs.items())
                ],
                "S": [
                    {"type": format_polypartition(nu), "coeff": frac(c)}
                    for nu, c in sorted(self.S.items())
                ],
            },
            indent=2,
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# The exact transport Pi_n(Ahat_nu) -> completed classes.
#
# Lifting a basis element of composite type nu to all of (F_q)^n averages the
# composite over block matrices [[G, P], [0, I_m]] with G of type nu and P a
# free k x m matrix (m = n - k).  Only the unipotent (X-1) block of G mixes
# with the identity padding, so the lifted composite is spread over the types
# nu' + (X-1: sigma) where nu' is the non-(X-1) part and sigma is a random
# enlargement of the (X-1) partition.  The law of sigma depends on P only
# through Y = colspan(P), which makes it computable by enumerating the
# subspaces Y of the unipotent block.

def _split_x1(nu):
    """(non-(X-1) entries, (X-1) partition as a tuple of parts)."""
    xm1 = linear_poly(nu.ctx, 1)
    other, pi = [], ()
    for poly, part in nu.entries:
        if poly == xm1:
            pi = part.parts
        else:
            other.append((poly, part))
    return tuple(other), pi


def _padding_profiles(ctx, pi):
    """Classify the subspaces Y <= (F_q)^u, u = |pi|, by the unipotent type
    they induce on [[U, P], [0, I_m]] with colspan(P) = Y.

    Returns {(dim Y, core): count of Y}, where core is the padded type with
    its parts 1 stripped; the full type at padding size m is
    core + (1^(u + m - |core|)).  The core does not depend on m because the
    ranks of (N - I)^j for j >= 1 are determined by U and Y alone:
    rank (N-I)^j = rank [ (U-I)^j | (U-I)^{j-1} Y ]."""
    q = ctx.q
    u = sum(pi)
    if u == 0:
        return {(0, ()): 1}
    U = [[0] * u for _ in range(u)]
    pos = 0
    for part in pi:
        for i in range(part):
            U[pos + i][pos + i] = 1
            if i + 1 < part:
                U[pos + i][pos + i + 1] = 1
        pos += part
    Nm = linalg.mat_sub(ctx, tuple(tuple(r) for r in U), linalg.identity(u))
    pows = [linalg.identity(u)]
    while any(any(r) for r in pows[-1]):
        pows.append(linalg.mat_mul(ctx, pows[-1], Nm))
    zero = tuple(tuple(0 for _ in range(u)) for _ in range(u))
    out = {}
    for d in range(u + 1):
        for Y in subspaces.enumerate_subspaces(ctx, u, d):
            ranks = []
            j = 1
            while True:
                Pj = pows[j] if j < len(pows) else zero
                Pjm1 = pows[j - 1] if j - 1 < len(pows) else zero
                cols = [list(r) for r in linalg.transpose(Pj)]
                for y in Y.basis:
                    cols.append(list(linalg.mat_vec(ctx, Pjm1, y)))
                r = linalg.rank(ctx, tuple(tuple(c) for c in cols))
                ranks.append(r)
                if r == 0:
                    break
                j += 1
            # ranks[j-1] - ranks[j] is the number of Jordan blocks of size
            # >= j + 1; conjugating gives the padded type minus its parts 1
            drops = [c for c in (ranks[i - 1] - ranks[i] for i in range(1, len(ranks))) if c > 0]
            width = drops[0] if drops else 0
            lam = tuple(sum(1 for c in drops if c >= i) for i in range(1, width + 1))
            core = tuple(sorted((x + 1 for x in lam), reverse=True))
            key = (d, core)
            out[key] = out.get(key, 0) + 1
    return out


def padded_unipotent_law(ctx, pi, m):
    """The exact law of the unipotent type of [[U, P], [0, I_m]] with U of
    type pi and P uniform over all |pi| x m matrices, as
    {partition of |pi| + m: probability}."""
    q = ctx.q
    u = sum(pi)
    out = {}
    for (d, core), cnt in _padding_profiles(ctx, pi).items():
        wt = cnt * Fraction(num_free_families(q, m, d), q ** (u * m))
        if wt == 0:
            continue
        sigma = tuple(sorted(core + (1,) * (u + m - sum(core)), reverse=True))
        out[sigma] = out.get(sigma, Fraction(0)) + wt
    assert sum(out.values()) == 1
    return out


def transport(nu, n):
    """The exact expansion of Pi_n(Ahat_nu) in completed classes.

    Pi_n(Ahat_nu) = sum_sigma num_free_families * P[sigma] * C_tau / card C_tau
    with tau = nu' + (X-1: sigma).  Returns a rational CentralVector.  For nu
    without parts 1 on (X-1) and n = |nu| this is pi_scalar's single class;
    in general the (X-1) block of the composite spreads over several types."""
    ctx = nu.ctx
    k = nu.size
    if k > n:
        raise ValueError("type size exceeds n")
    other, pi = _split_x1(nu)
    nf = num_free_families(ctx.q, n, k)
    out = {}
    for sigma, pr in padded_unipotent_law(ctx, pi, n - k).items():
        entries = list(other)
        if sigma:
            entries.append((linear_poly(ctx, 1), Partition(sigma)))
        tau = Polypartition(ctx, tuple(sorted(entries)))
        out[tau] = out.get(tau, Fraction(0)) + Fraction(nf, class_size(tau, n)) * pr
    return CentralVector(ctx, n, out)


# ---------------------------------------------------------------------------
# Symbolic (Laurent in X = q^n) versions of the same quantities.

def _laur_mul(a, b):
    out = {}
    for p, c in a.items():
        for p2, c2 in b.items():
            out[p + p2] = out.get(p + p2, Fraction(0)) + c * c2
    return {p: c for p, c in out.items() if c}


def _laur_add(a, b, scale=1):
    out = dict(a)
    for p, c in b.items():
        out[p] = out.get(p, Fraction(0)) + scale * c
    return {p: c for p, c in out.items() if c}


def _laur_div(a, b):
    """Exact division of Laurent polynomials; raises if not exact."""
    if not a:
        return {}
    assert b, "division by zero"
    top_b = max(b)
    out = {}
    rem = dict(a)
    while rem:
        top_r = max(rem)
        c = rem[top_r] / b[top_b]
        out[top_r - top_b] = c
        for p, cb in b.items():
            np = top_r - top_b + p
            rem[np] = rem.get(np, Fraction(0)) - c * cb
            if rem[np] == 0:
                del rem[np]
    return out


def _laur_eval(a, x):
    return sum((c * Fraction(x) ** p for p, c in a.items()), Fraction(0))


def num_free_poly(q, k):
    """num_free_families(q, n, k) as a polynomial in X = q^n:
    prod_{j<k} (X - q^j)."""
    out = {0: Fraction(1)}
    for j in range(k):
        out = _laur_mul(out, {1: Fraction(1), 0: Fraction(-q ** j)})
    return out


def _centralizer_order(Q, part):
    """Order of the centralizer of a unipotent element of Jordan type part
    in GL(|part|, Q): Q^{sum (part'_i)^2} prod_i (Q^{-1})_{m_i}."""
    conj = part.conjugate().parts
    out = Fraction(Q) ** sum(c * c for c in conj)
    for i in set(part.parts):
        out *= pochhammer(Fraction(1, Q), part.mult(i))
    return out


def completed_class_size_poly(tau):
    """card C_{tau^n} as a Laurent polynomial in X = q^n, for reduced tau
    (no parts 1 on (X-1)).

    card C = |GL(n, q)| / Z(n) where the centralizer splits over the factors;
    only the (X-1) factor grows with n, by m = n - |tau| extra parts 1.  With
    s = |tau| - len(tau(X-1)) the q-power exponents are linear in n and
    (q^{-1})_n / (q^{-1})_{n-|tau|} is a polynomial in 1/X, giving
    X^{2s} q^{-s^2 - c} prod_{j<|tau|} (1 - q^j/X) / (B Z_other)."""
    ctx = tau.ctx
    q = ctx.q
    other, pi = _split_x1(tau)
    if 1 in pi:
        raise ValueError("type %r is not reduced: it has parts 1 on X - 1" % tau)
    t = tau.size
    ell = len(pi)
    s = t - ell
    # conjugate columns of the (X-1) partition beyond the first
    conj = Partition(pi).conjugate().parts if pi else ()
    c2 = sum(c * c for c in conj[1:])
    B = Fraction(1)
    for i in set(pi):
        B *= pochhammer(Fraction(1, q), sum(1 for x in pi if x == i))
    z_other = Fraction(1)
    for poly, part in other:
        z_other *= _centralizer_order(q ** (len(poly) - 1), part)
    out = {2 * s: Fraction(q) ** (-s * s - c2) / (B * z_other)}
    for j in range(t):
        out = _laur_mul(out, {0: Fraction(1), -1: Fraction(-(q ** j))})
    return out


def fh_polynomials(lam, mu):
    """The polynomials p^nu(X) with
    C_{lam^n} * C_{mu^n} = sum_nu p^nu(q^n) C_{nu^n}  for all n >= |lam|+|mu|.

    Requires lam and mu without (X-1) parts (then C_{lam^n}/card is exactly
    Pi_n(Ahat_lam)/num_free_families, with no spread).  The product is

        C_{lam^n} C_{mu^n} = card C_{lam^n} card C_{mu^n}
                             / (nf_k nf_l) * sum_nu S^nu Pi_n(Ahat_nu),

    and expanding each Pi_n(Ahat_nu) by the padded-unipotent law gives, per
    reduced output type, a ratio of Laurent polynomials in X = q^n whose
    exact quotient is asserted to be a genuine polynomial.  Raises
    WorkCapExceeded, before any enumeration, when the invariant product at
    n0 = |lam| + |mu| of the reduced types would make more than
    MAX_TYPE_OF_CALLS type_of calls."""
    ctx = lam.ctx
    q = ctx.q
    lam = reduce_polypartition(lam)[0]
    mu = reduce_polypartition(mu)[0]
    bad = [t for t in (lam, mu) if _split_x1(t)[1]]
    if bad:
        raise ValueError("inputs must have no (X-1) parts after reduction: %s"
                         % ", ".join(map(format_polypartition, bad)))
    k, l = lam.size, mu.size
    work = invariant_product_work(lam, mu, k + l)
    if work > MAX_TYPE_OF_CALLS:
        raise WorkCapExceeded("this product needs %d type_of calls, above the cap of %d"
                              % (work, MAX_TYPE_OF_CALLS))
    S = generic_S(lam, mu, k + l)
    gathered = {}
    for nu, S_nu in S.items():
        other, pi = _split_x1(nu)
        m = nu.size
        nf_nu = num_free_poly(q, m)
        for (d, core), cnt in _padding_profiles(ctx, pi).items():
            # weight of one Y of dimension d at padding size n - m:
            # prod_{i<d} (q^{n-m} - q^i) / q^{u (n-m)} with q^{n-m} = X q^{-m}
            u = sum(pi)
            wt = {0: Fraction(cnt)}
            for i in range(d):
                wt = _laur_mul(wt, {1: Fraction(1, q ** m), 0: Fraction(-(q ** i))})
            wt = _laur_mul(wt, {-u: Fraction(q ** (m * u))})
            entries = list(other)
            if core:
                entries.append((linear_poly(ctx, 1), Partition(core)))
            key = Polypartition(ctx, tuple(sorted(entries)))
            term = _laur_mul(_laur_mul(nf_nu, wt), {0: S_nu})
            gathered[key] = _laur_add(gathered.get(key, {}), term)
    # scale by card C_{lam^n} card C_{mu^n} / (nf_k nf_l) / card C_{tau^n}
    scale = _laur_div(
        _laur_mul(completed_class_size_poly(lam), completed_class_size_poly(mu)),
        _laur_mul(num_free_poly(q, k), num_free_poly(q, l)),
    )
    rhs = {}
    for key, laurent in gathered.items():
        laurent = _laur_div(
            _laur_mul(laurent, scale), completed_class_size_poly(key)
        )
        if not laurent:
            continue
        if min(laurent) < 0:
            raise AssertionError("negative powers survive for %r" % (key,))
        top = max(laurent)
        rhs[key] = StructPoly([laurent.get(i, 0) for i in range(top + 1)])
    return GenericProduct(ctx, (lam, mu), rhs, S)


def verify_fh(gp, n_list):
    """Evaluate the p^nu of the GenericProduct gp (as returned by
    fh_polynomials) at X = q^n and compare against completed_product.

    Returns a report dict with an "ok" flag and per-n diffs (empty when
    everything matches exactly)."""
    lam, mu = gp.lhs
    q = gp.ctx.q
    report = {"ok": True, "n": {}, "degrees": {k: p.degree for k, p in gp.rhs.items()}}
    for n in n_list:
        if n < lam.size + mu.size:
            raise ValueError("n must be at least |lam| + |mu|")
        predicted = {}
        for nu, poly in gp.rhs.items():
            if nu.size > n:
                # the class C_{nu^n} does not exist at this n (the completed
                # class size vanishes at X = q^n, so the quotient polynomial
                # carries no information there): skip it
                continue
            val = poly(Fraction(q) ** n)
            if val:
                if val.denominator != 1:
                    report["ok"] = False
                predicted[complete(nu, n)] = val
        actual = completed_product(lam, mu, n)
        diffs = {}
        for key in set(predicted) | set(actual.terms):
            a = predicted.get(key, Fraction(0))
            b = actual.terms.get(key, Fraction(0))
            if a != b:
                diffs[format_polypartition(key)] = (str(a), str(b))
        if diffs:
            report["ok"] = False
        report["n"][n] = diffs
    return report
