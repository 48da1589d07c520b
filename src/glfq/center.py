"""Products of completed conjugacy classes in the centers Z(C GL(n, F_q)).

The completed class of a polypartition mu with |mu| <= n pads mu(X - 1) with
parts 1 so the matrices act on all of (F_q)^n.  This module computes the
expansion C_{lam^n} * C_{mu^n} = sum_nu c^nu(n) C_nu by direct counting in
the group, extracts the generic structure constants S^nu from the
partial-isomorphism engine, and assembles, in GenericProduct, the
polynomials p^nu(X), X = q^n, that describe the n-dependence of the c^nu in
closed form; GenericProduct.at(n) evaluates them, for the engine's table and
for the degree-1 closed form alike.  transport is the numeric Pi_n of one
generic invariant at one n, through which the tests read the padding law.
"""

from fractions import Fraction

from . import linalg, subspaces
from .conjtype import (
    Partition,
    centralizer_order,
    class_orbit,
    class_size,
    complete,
    empty_polypartition,
    format_polypartition,
    jordan_matrix,
    pochhammer,
    reduce_polypartition,
    type_of,
    with_unipotent,
)
from .memo import memo
from .partial_iso import AlgElem, invariant_product, invariant_product_work

# A request that would make more type_of calls than this, enumerate more
# partial isomorphisms, or build a field with more trial divisions or table
# elements, is refused before it enumerates anything (several minutes:
# class-product at q = 2, n = 8 of {X+1:(2)} by itself, 32,385 elements,
# takes 0.31 ms an element on a 2-vCPU VM, orbit walk included)
MAX_TYPE_OF_CALLS = 10 ** 6


class WorkCapExceeded(ValueError):
    """A request would make more than MAX_TYPE_OF_CALLS type_of calls, or
    enumerate as many partial isomorphisms, trial divisions or field table
    elements."""


def check_work(what, calls, unit="type_of calls"):
    """Refuse a request (a "product", a "census", a "verify suite" or a
    "field") that needs more than MAX_TYPE_OF_CALLS calls or enumerated
    elements."""
    if calls > MAX_TYPE_OF_CALLS:
        raise WorkCapExceeded("this %s needs %d %s, above the cap of %d"
                              % (what, calls, unit, MAX_TYPE_OF_CALLS))


class CentralVector(AlgElem):
    """Sparse element of Z(C GL(n, F_q)): {size-n polypartition: coefficient}."""

    __slots__ = ()

    def __init__(self, n, terms=None):
        if terms and any(mu.size != n for mu in terms):
            raise ValueError("central vector of GL(%d) needs types of size %d" % (n, n))
        AlgElem.__init__(self, n, terms)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def __repr__(self):
        items = sorted(self.terms.items())
        return " + ".join("%s*C%s" % (c, m) for m, c in items) or "0"


def completed_product(lam, mu, n):
    """Expansion of C_{lam^n} * C_{mu^n} in completed-class sums.

    The coefficient of C_nu is #{g in C_{lam^n} : type(g^{-1} z) = mu^n} for
    any fixed z in C_nu.  Instead of scanning once per candidate nu, one pass
    over the smaller input class buckets the types of the products g * h0
    with h0 a fixed representative of the other class:
    c^nu = #{g : type(g h0) = nu} * card(other class) / card(C_nu),
    which is the same class constant by invariance of type under conjugation.
    Support completeness is certified by the mass identity
    sum_nu c^nu card(C_nu) = card(C_{lam^n}) card(C_{mu^n}).  Raises
    WorkCapExceeded, before enumerating, when the enumerated class has more
    than MAX_TYPE_OF_CALLS elements (one type_of call each)."""
    if lam.size > n or mu.size > n:
        raise ValueError("type size exceeds n")
    ctx = lam.ctx
    lam_n, mu_n = complete(lam, n), complete(mu, n)
    size_lam, size_mu = class_size(lam_n, n), class_size(mu_n, n)
    if size_mu < size_lam:
        # enumerate the smaller class; the product is commutative
        lam, mu_n = mu, lam_n
        size_lam, size_mu = size_mu, size_lam
    check_work("product", size_lam)
    h0 = jordan_matrix(mu_n)
    counts = {}
    for g in class_orbit(lam, n):
        t = type_of(ctx, linalg.mat_mul(ctx, h0, g))
        counts[t] = counts.get(t, 0) + 1
    out = {}
    mass = 0
    for t, c in counts.items():
        size_t = class_size(t, n)
        coeff, rem = divmod(c * size_mu, size_t)
        if rem:
            raise AssertionError("coefficient of %s is %d/%d, not an integer"
                                 % (format_polypartition(t), c * size_mu, size_t))
        out[t] = coeff
        mass += coeff * size_t
    if mass != size_lam * size_mu:
        raise AssertionError("class product has mass %d, not %d * %d"
                             % (mass, size_lam, size_mu))
    return CentralVector(n, out)


def generic_S(lam, mu):
    """Generic structure constants: Ahat_lam * Ahat_mu = sum S^nu Ahat_nu.

    Computed at n0 = |lam| + |mu| (the smallest ambient dimension where all
    output degrees fit); the compatibility maps make the coefficients
    independent of n >= n0, which the test suite verifies by recomputing at
    n0 + 1 and n0 + 2."""
    return invariant_product(lam, mu, lam.size + mu.size)


class Laurent:
    """Laurent polynomial in X = q^n with exact coefficients, held as
    {exponent: nonzero coefficient}.  Immutable; the polynomial case reads
    its ascending coefficients from coeffs."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {p: c for p, c in terms.items() if c} if terms else {}

    def __add__(self, other):
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0) + c
        return Laurent(out)

    def __mul__(self, other):
        if not isinstance(other, Laurent):
            return Laurent({p: c * other for p, c in self.terms.items()})
        out = {}
        for p, c in self.terms.items():
            for p2, c2 in other.terms.items():
                out[p + p2] = out.get(p + p2, 0) + c * c2
        return Laurent(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact quotient by long division from the top.  An exact quotient
        has no exponent below min(self) - min(other): the division stops
        there and raises AssertionError if a remainder is left."""
        b = other.terms
        if not b:
            raise ValueError("division of %r by the zero Laurent polynomial" % self)
        top_b, low = max(b), min(self.terms, default=0) - min(b)
        out, rem = {}, dict(self.terms)
        while rem:
            e = max(rem) - top_b
            if e < low:
                raise AssertionError("%r is not divisible by %r" % (self, other))
            c = out[e] = Fraction(rem[e + top_b], b[top_b])
            for p, cb in b.items():
                rem[e + p] = rem.get(e + p, 0) - c * cb
                if not rem[e + p]:
                    del rem[e + p]
        return Laurent(out)

    def __call__(self, x):
        x = Fraction(x)
        return sum((c * x ** p for p, c in self.terms.items()), Fraction(0))

    def __eq__(self, other):
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def coeffs(self):
        """Ascending coefficients (c_0, ..., c_degree) of a polynomial."""
        if min(self.terms, default=0) < 0:
            raise ValueError("%r has negative powers of X" % self)
        return tuple(self.terms.get(i, 0) for i in range(max(self.terms, default=-1) + 1))

    def __repr__(self):
        return " + ".join(
            "%s*X^%d" % (c, p) if p else str(c)
            for p, c in sorted(self.terms.items())) or "0"


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

@memo
def _padding_profiles(ctx, pi):
    """Classify the subspaces Y <= (F_q)^u, u = |pi|, by the unipotent type
    they induce on [[U, P], [0, I_m]] with colspan(P) = Y.

    Returns {(dim Y, core): count of Y}, where core is the padded type with
    its parts 1 stripped; the full type at padding size m is
    core + (1^(u + m - |core|)).  The core does not depend on m, nor on P
    beyond Y: conjugating by diag(I, h) with h in GL(m) turns P into
    [Y | 0], which splits off an identity block, so core is read off the
    type of [[U, Y], [0, I_dim Y]], the basis of Y as the columns.
    Cached: callers share the returned dict and only read it."""
    if not pi:
        return {(0, ()): 1}
    # the profile counts are invariant under conjugating U, so any matrix of
    # unipotent type pi will do
    U = jordan_matrix(with_unipotent(empty_polypartition(ctx), pi))
    out = {}
    for d in range(len(U) + 1):
        for Y in subspaces.enumerate_subspaces(ctx, len(U), d):
            parts = type_of(ctx, linalg.block(U, Y.basis)).unipotent
            key = (d, tuple(x for x in parts if x > 1))
            out[key] = out.get(key, 0) + 1
    return out


def _transport_poly(nu):
    """Pi_n(Ahat_nu) for every n >= |nu| at once, as {reduced tau: Laurent
    weight w(X)} with Pi_n(Ahat_nu) = sum_tau w(q^n) C_{tau^n} / card C_{tau^n}.

    The padding P is a uniform |nu| x (n - |nu|) block; a profile (d, core)
    of _padding_profiles has probability
    cnt * prod_{i<d} (q^{n-k} - q^i) / q^{u (n-k)} with q^{n-k} = X q^{-k},
    and the lift carries num_free_families(q, n, k) in front."""
    ctx = nu.ctx
    q = ctx.q
    k = nu.size
    pi = nu.unipotent
    u = sum(pi)
    law = {}
    for (d, core), cnt in _padding_profiles(ctx, pi).items():
        wt = Laurent({-u: cnt * q ** (k * u)})
        for i in range(d):
            wt = wt * Laurent({1: Fraction(1, q ** k), 0: -(q ** i)})
        tau = with_unipotent(nu, core)
        law[tau] = law[tau] + wt if tau in law else wt
    total = sum(law.values(), Laurent())
    if total != Laurent({0: 1}):
        raise AssertionError("padding law of %s sums to %r, not 1"
                             % (format_polypartition(nu), total))
    nf = num_free_poly(q, k)
    return {tau: nf * wt for tau, wt in law.items()}


def transport(nu, n):
    """The exact expansion of Pi_n(Ahat_nu) in completed classes: the
    weights of _transport_poly at X = q^n.  Returns a rational CentralVector.
    For nu without parts 1 on (X-1) this is a single class; in general the
    (X-1) block of the composite spreads over several types."""
    ctx = nu.ctx
    if nu.size > n:
        raise ValueError("type size exceeds n")
    x = Fraction(ctx.q) ** n
    out = {}
    for tau, wt in _transport_poly(nu).items():
        # profiles whose Y is larger than the padding weigh 0 at this n; a
        # tau left with none of them has zero weight and does not fit in n
        w = wt(x)
        if w:
            tau = complete(tau, n)
            out[tau] = w / class_size(tau, n)
    return CentralVector(n, out)


# ---------------------------------------------------------------------------
# Symbolic (Laurent in X = q^n) versions of the class sizes.

def num_free_poly(q, k):
    """num_free_families(q, n, k) as a polynomial in X = q^n:
    prod_{j<k} (X - q^j)."""
    out = Laurent({0: 1})
    for j in range(k):
        out = out * Laurent({1: 1, 0: -(q ** j)})
    return out


def completed_class_size_poly(tau):
    """card C_{tau^n} as a Laurent polynomial in X = q^n, for reduced tau
    (no parts 1 on (X-1)).

    card C = |GL(n, q)| / Z(n) where the centralizer splits over the factors;
    only the (X-1) factor grows with n, by m = n - |tau| extra parts 1.  With
    s = |tau| - len(tau(X-1)) the q-power exponents are linear in n and
    (q^{-1})_n / (q^{-1})_{n-|tau|} is a polynomial in 1/X, giving
    X^{2s} q^{-s^2 - c} prod_{j<|tau|} (1 - q^j/X) / (B Z_other)."""
    q = tau.ctx.q
    pi = tau.unipotent
    if 1 in pi:
        raise ValueError("type %r is not reduced: it has parts 1 on X - 1" % tau)
    t = tau.size
    ell = len(pi)
    s = t - ell
    # conjugate columns of the (X-1) partition beyond the first
    conj = Partition(pi).conjugate().parts
    c2 = sum(c * c for c in conj[1:])
    B = Fraction(1)
    for i in set(pi):
        B *= pochhammer(Fraction(1, q), sum(1 for x in pi if x == i))
    z_other = centralizer_order(with_unipotent(tau, ()))
    out = Laurent({2 * s: Fraction(q) ** (-s * s - c2) / (B * z_other)})
    for j in range(t):
        out = out * Laurent({0: 1, -1: -(q ** j)})
    return out


class GenericProduct:
    """C_{lam^n} * C_{mu^n} for all n >= |lam| + |mu| at once, from a table S
    of Ahat-basis constants of two types lam, mu without (X-1) parts.  Then
    C_{lam^n}/card is exactly Pi_n(Ahat_lam)/num_free_families, so

        C_{lam^n} C_{mu^n} = card C_{lam^n} card C_{mu^n}
                             / (nf_k nf_l) * sum_nu S^nu Pi_n(Ahat_nu),

    and expanding each Pi_n(Ahat_nu) by the padded-unipotent law
    (_transport_poly) gives rhs: per reduced output type, a ratio of Laurent
    polynomials in X = q^n whose exact quotient p^nu(X) is checked to be a
    genuine polynomial."""

    __slots__ = ("ctx", "lhs", "rhs", "S")

    def __init__(self, lam, mu, S):
        self.ctx, self.lhs, self.S = lam.ctx, (lam, mu), S
        q = lam.ctx.q
        gathered = {}
        for nu, S_nu in S.items():
            for tau, wt in _transport_poly(nu).items():
                wt = wt * S_nu
                gathered[tau] = gathered[tau] + wt if tau in gathered else wt
        # scale by card C_{lam^n} card C_{mu^n} / (nf_k nf_l) / card C_{tau^n}
        scale = ((completed_class_size_poly(lam) * completed_class_size_poly(mu))
                 / (num_free_poly(q, lam.size) * num_free_poly(q, mu.size)))
        self.rhs = {}
        for tau, wt in gathered.items():
            poly = wt * scale / completed_class_size_poly(tau)
            if not poly:
                continue
            if min(poly.terms) < 0:
                raise AssertionError("negative powers survive for %r" % (tau,))
            self.rhs[tau] = poly

    def at(self, n):
        """C_{lam^n} * C_{mu^n} as a CentralVector: p^nu(q^n) on C_{nu^n}
        for every nu with |nu| <= n.  Needs n >= |lam| + |mu|."""
        lam, mu = self.lhs
        if n < lam.size + mu.size:
            raise ValueError("n must be at least |lam| + |mu|")
        x = Fraction(self.ctx.q) ** n
        # no class C_{nu^n} exists for |nu| > n: its size vanishes at q^n
        return CentralVector(n, {
            complete(nu, n): poly(x) for nu, poly in self.rhs.items() if nu.size <= n})


def fh_polynomials(lam, mu):
    """The GenericProduct of the reduced lam and mu, with the engine's table
    generic_S; refused when either keeps (X-1) parts.  Raises WorkCapExceeded,
    before any enumeration, when the invariant product at n0 = |lam| + |mu|
    would make more than MAX_TYPE_OF_CALLS type_of calls."""
    lam = reduce_polypartition(lam)
    mu = reduce_polypartition(mu)
    bad = [t for t in (lam, mu) if t.unipotent]
    if bad:
        raise ValueError("inputs must have no (X-1) parts after reduction: %s"
                         % ", ".join(map(format_polypartition, bad)))
    check_work("product", invariant_product_work(lam, mu, lam.size + mu.size))
    return GenericProduct(lam, mu, generic_S(lam, mu))


def verify_fh(gp, n_list):
    """Compare the GenericProduct gp, evaluated at each n of n_list, with
    completed_product.  Returns {n: {type: (predicted, actual)}} over the
    coefficients that differ, so everything matches when every dict is
    empty."""
    lam, mu = gp.lhs
    zero = Fraction(0)
    report = {}
    for n in n_list:
        predicted = gp.at(n).terms
        actual = completed_product(lam, mu, n).terms
        pairs = ((key, predicted.get(key, zero), actual.get(key, zero))
                 for key in set(predicted) | set(actual))
        report[n] = {format_polypartition(key): (a, b) for key, a, b in pairs if a != b}
    return report
